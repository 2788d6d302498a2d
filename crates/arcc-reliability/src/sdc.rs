//! Figure 6.1: SDC rate of always-on double error detection (commercial
//! SCCDCD) vs. ARCC's scrub-gated detection, in SDCs per 1000
//! machine-years.
//!
//! Event semantics (Chapter 6):
//!
//! * **ARCC SDC** — a fault lands in a codeword that already holds an
//!   undetected bad symbol from an earlier fault: the page is still
//!   relaxed (its single-detect guarantee is already spent), so the second
//!   bad symbol can escape. Once the earlier fault has been scrub-detected
//!   the page is upgraded and a second bad symbol is *detected* (a DUE,
//!   not an SDC) — the same sequencing double chip sparing relies on for
//!   correction.
//! * **SCCDCD SDC** — three faults meeting in one codeword (its guarantee
//!   detects any two). This term also applies to ARCC's upgraded pages and
//!   is counted for both schemes.
//! * Machines are retired at their first SDC (the paper's accounting), so
//!   each machine contributes at most one.
//!
//! A "machine" is one memory channel (2 ranks x 36 devices), the unit the
//! paper's reliability chapter analyses.

use arcc_faults::montecarlo::{FaultSampler, HOURS_PER_YEAR};
use arcc_faults::{FaultEvent, FaultGeometry, FitRates};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the SDC Monte Carlo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdcConfig {
    /// Scrub (and therefore detection/upgrade) period in hours.
    pub scrub_interval_h: f64,
    /// Machine lifespan in years.
    pub lifespan_years: f64,
    /// Fault-rate multiplier.
    pub rate_multiplier: f64,
    /// Machines to simulate.
    pub machines: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SdcConfig {
    fn default() -> Self {
        Self {
            scrub_interval_h: 4.0,
            lifespan_years: 7.0,
            rate_multiplier: 1.0,
            machines: 100_000,
            seed: 0x51DC,
        }
    }
}

/// Result of the SDC Monte Carlo.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SdcResult {
    /// Machines simulated.
    pub machines: u32,
    /// Machine-years simulated.
    pub machine_years: f64,
    /// Machines that suffered an SDC under always-relaxed-then-upgrade
    /// (ARCC) semantics.
    pub arcc_sdc_machines: u32,
    /// Machines that suffered an SDC under always-on DED (SCCDCD).
    pub sccdcd_sdc_machines: u32,
    /// Detected-uncorrectable overlap events under ARCC.
    pub arcc_due_events: u32,
    /// Detected-uncorrectable overlap events under SCCDCD.
    pub sccdcd_due_events: u32,
}

impl SdcResult {
    /// ARCC SDCs per 1000 machine-years.
    pub fn arcc_sdc_per_1000_machine_years(&self) -> f64 {
        self.arcc_sdc_machines as f64 / self.machine_years * 1000.0
    }

    /// SCCDCD SDCs per 1000 machine-years.
    pub fn sccdcd_sdc_per_1000_machine_years(&self) -> f64 {
        self.sccdcd_sdc_machines as f64 / self.machine_years * 1000.0
    }
}

/// Scrub tick that detects a fault arriving at `t`: the first multiple of
/// `scrub_h` strictly after `t`. Shared with the `arcc-fleet` event
/// engine, which schedules its detection/upgrade events at exactly this
/// time so both Monte Carlos agree on scrub semantics.
pub fn detection_time(t: f64, scrub_h: f64) -> f64 {
    (t / scrub_h).floor() * scrub_h + scrub_h
}

/// Is fault `f` still active (corrupting reads) at time `t`?
/// Transient faults are cured by the scrub write-back that detects them.
pub fn active_at(f: &FaultEvent, t: f64, scrub_h: f64) -> bool {
    if f.transient {
        t < detection_time(f.time_h, scrub_h)
    } else {
        true
    }
}

/// Does fault `b`, arriving while `overlapping` earlier faults are active
/// in its full-width codeword, escape ARCC's detection — i.e. is it an
/// SDC rather than a DUE?
///
/// Two escape routes (Chapter 6): an *undetected* earlier fault in the
/// same relaxed 18-device half-codeword (the page is still relaxed, its
/// single-detect budget spent), or a triple overlap in the upgraded
/// 36-device codeword (detects 2, not 3). It is [`arrival_is_sdc`] at
/// ARCC's capability, as [`run_sdc_monte_carlo`] counts it.
fn arcc_arrival_is_sdc<'a, I>(overlapping: I, b: &FaultEvent, scrub_h: f64) -> bool
where
    I: IntoIterator<Item = &'a FaultEvent>,
    I::IntoIter: Clone,
{
    arrival_is_sdc(&SchemeCapability::arcc(), overlapping, b, scrub_h)
}

/// The detection capability of an ECC scheme, as the SDC model sees it:
/// how many overlapping bad symbols each mode is guaranteed to detect,
/// whether the fault-free mode's codewords span only half the rank, and
/// whether the scheme escalates pages after scrub detection at all.
///
/// ARCC is `{ relaxed_detect: 1, upgraded_detect: 2, half-width, adaptive }`;
/// a static scheme detects the same count forever and never upgrades.
/// Capabilities are derived from `arcc-core`'s scheme registry by the
/// fleet layer (descriptor `guarantees.detect` of each mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeCapability {
    /// Bad symbols per codeword the fault-free (relaxed) mode detects.
    pub relaxed_detect: u32,
    /// Bad symbols per codeword the escalated mode detects; equal to
    /// `relaxed_detect` for static schemes.
    pub upgraded_detect: u32,
    /// Relaxed codewords span an 18-device half-rank rather than the full
    /// 36 devices (true for every 18-device organisation).
    pub relaxed_half_width: bool,
    /// The scheme escalates scrub-detected pages to the upgraded mode.
    pub adaptive: bool,
}

impl SchemeCapability {
    /// The paper's ARCC capability: relaxed detect-1 over half-width
    /// codewords, upgraded detect-2, adaptive.
    pub fn arcc() -> Self {
        Self {
            relaxed_detect: 1,
            upgraded_detect: 2,
            relaxed_half_width: true,
            adaptive: true,
        }
    }

    /// A static (never-upgrading) scheme detecting `detect` bad symbols,
    /// over half-width codewords when `half_width` is set.
    pub fn static_code(detect: u32, half_width: bool) -> Self {
        Self {
            relaxed_detect: detect,
            upgraded_detect: detect,
            relaxed_half_width: half_width,
            adaptive: false,
        }
    }
}

/// Does fault `b`, arriving while `overlapping` earlier faults are active
/// in its full-width codeword, escape detection under capability `cap` —
/// i.e. is it an SDC rather than a DUE?
///
/// For an adaptive scheme the two escape routes of Chapter 6 generalise
/// to: enough *undetected* earlier faults in the relaxed codeword to
/// exhaust `relaxed_detect` (pages escalate only after scrub detection),
/// or enough faults — detected or not — in the full-width codeword to
/// exhaust `upgraded_detect`. A static scheme has a single mode, so only
/// the first route exists, without the undetected filter.
///
/// `overlapping` is walked as a cloneable iterator, once per candidate
/// subset the predicates need, so classifying an arrival allocates
/// nothing.
pub fn arrival_is_sdc<'a, I>(
    cap: &SchemeCapability,
    overlapping: I,
    b: &FaultEvent,
    scrub_h: f64,
) -> bool
where
    I: IntoIterator<Item = &'a FaultEvent>,
    I::IntoIter: Clone,
{
    let overlapping = overlapping.into_iter();
    if cap.adaptive {
        let undetected = overlapping.clone().filter(|a| {
            b.time_h < detection_time(a.time_h, scrub_h)
                && a.codeword_overlap(b, cap.relaxed_half_width)
        });
        completes_overlap(undetected, b, cap.relaxed_detect)
            || completes_overlap(overlapping, b, cap.upgraded_detect)
    } else if cap.relaxed_half_width {
        let in_half = overlapping.filter(|a| a.codeword_overlap(b, true));
        completes_overlap(in_half, b, cap.relaxed_detect)
    } else {
        completes_overlap(overlapping, b, cap.relaxed_detect)
    }
}

/// Does `b` push the bad-symbol count in one codeword past a
/// `detect`-strong guarantee: are there `detect` earlier faults among
/// `candidates` — pairwise on distinct devices, rank-compatible, with a
/// common address intersection — that `b`'s own locations also hit?
///
/// `detect == 1` degenerates to "any candidate", `detect == 2` is the
/// classic [`triple_overlap`], and `detect == 0` (a scheme with no
/// detection guarantee, like MultiECC's probabilistic trial decode)
/// escapes on any arrival.
fn completes_overlap<'a, I>(candidates: I, b: &FaultEvent, detect: u32) -> bool
where
    I: IntoIterator<Item = &'a FaultEvent>,
    I::IntoIter: Clone,
{
    let mut candidates = candidates.into_iter();
    match detect {
        0 => true,
        1 => candidates.next().is_some(),
        2 => triple_overlap(candidates, b),
        k => k_overlap_search(candidates, None, &b.set, k as usize),
    }
}

/// One fault chosen by [`k_overlap_search`], linked to the ones chosen
/// before it: the chosen set lives on the recursion's stack frames.
struct Chosen<'c> {
    fault: &'c FaultEvent,
    prev: Option<&'c Chosen<'c>>,
}

/// Recursive common-intersection search for `completes_overlap` at
/// `detect >= 3`: extend `chosen` (pairwise distinct devices, pairwise
/// rank-compatible) with the faults `candidates` still yields, while
/// narrowing `common` (seeded with `b`'s own set), until `need` faults
/// share a location with `b`.
fn k_overlap_search<'a, I>(
    mut candidates: I,
    chosen: Option<&Chosen<'_>>,
    common: &arcc_faults::AddressSet,
    need: usize,
) -> bool
where
    I: Iterator<Item = &'a FaultEvent> + Clone,
{
    if need == 0 {
        return true;
    }
    while let Some(c) = candidates.next() {
        let mut compatible = true;
        let mut link = chosen;
        while let Some(x) = link {
            let rank_ok = match (x.fault.rank, c.rank) {
                (Some(r1), Some(r2)) => r1 == r2,
                _ => true,
            };
            if x.fault.device_pos == c.device_pos || !rank_ok {
                compatible = false;
                break;
            }
            link = x.prev;
        }
        if !compatible {
            continue;
        }
        let Some(next) = common.intersection(&c.set) else {
            continue;
        };
        let with_c = Chosen {
            fault: c,
            prev: chosen,
        };
        if k_overlap_search(candidates.clone(), Some(&with_c), &next, need - 1) {
            return true;
        }
    }
    false
}

/// Runs the Monte Carlo and returns counts.
pub fn run_sdc_monte_carlo(cfg: &SdcConfig) -> SdcResult {
    let geometry = FaultGeometry::paper_channel();
    let sampler = FaultSampler::new(
        geometry,
        FitRates::sridharan_sc12().scaled(cfg.rate_multiplier),
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let horizon = cfg.lifespan_years * HOURS_PER_YEAR;

    let mut result = SdcResult {
        machines: cfg.machines,
        machine_years: cfg.machines as f64 * cfg.lifespan_years,
        ..SdcResult::default()
    };

    for _ in 0..cfg.machines {
        let faults = sampler.sample_lifetime(&mut rng, horizon);
        if faults.len() < 2 {
            continue;
        }
        let mut arcc_sdc = false;
        let mut sccdcd_sdc = false;
        for (bi, b) in faults.iter().enumerate() {
            let prior = &faults[..bi];
            // Active earlier faults that share a full-width codeword with b.
            let overlapping = prior
                .iter()
                .filter(|a| active_at(a, b.time_h, cfg.scrub_interval_h))
                .filter(|a| a.codeword_overlap(b, false));
            if overlapping.clone().next().is_none() {
                continue;
            }

            // --- ARCC accounting -----------------------------------------
            if !arcc_sdc {
                if arcc_arrival_is_sdc(overlapping.clone(), b, cfg.scrub_interval_h) {
                    arcc_sdc = true;
                } else {
                    result.arcc_due_events += 1;
                }
            }

            // --- SCCDCD accounting ---------------------------------------
            if !sccdcd_sdc {
                if triple_overlap(overlapping, b) {
                    sccdcd_sdc = true;
                } else {
                    result.sccdcd_due_events += 1;
                }
            }
            if arcc_sdc && sccdcd_sdc {
                break;
            }
        }
        result.arcc_sdc_machines += u32::from(arcc_sdc);
        result.sccdcd_sdc_machines += u32::from(sccdcd_sdc);
    }
    result
}

/// Does `b` complete a *triple* overlap: two distinct earlier faults and
/// `b` all intersecting at a common location in one 36-device codeword?
fn triple_overlap<'a, I>(overlapping: I, b: &FaultEvent) -> bool
where
    I: IntoIterator<Item = &'a FaultEvent>,
    I::IntoIter: Clone,
{
    let mut rest = overlapping.into_iter();
    while let Some(a1) = rest.next() {
        for a2 in rest.clone() {
            if a1.device_pos == a2.device_pos {
                continue;
            }
            // Ranks must be mutually compatible (lane faults match all).
            let rank_ok = match (a1.rank, a2.rank) {
                (Some(r1), Some(r2)) => r1 == r2,
                _ => true,
            };
            if !rank_ok {
                continue;
            }
            if let Some(common) = a1.set.intersection(&a2.set) {
                if common.intersects(&b.set) {
                    return true;
                }
            }
        }
    }
    false
}

/// Convenience: the Figure 6.1 grid — lifespans 1..=max_years, the given
/// multipliers, one result per point.
pub fn figure_6_1_grid(
    max_years: u32,
    multipliers: &[f64],
    machines: u32,
    seed: u64,
) -> Vec<(f64, f64, SdcResult)> {
    let mut out = Vec::new();
    for &m in multipliers {
        for y in 1..=max_years {
            let cfg = SdcConfig {
                lifespan_years: y as f64,
                rate_multiplier: m,
                machines,
                seed: seed ^ ((y as u64) << 8) ^ m.to_bits(),
                ..SdcConfig::default()
            };
            out.push((y as f64, m, run_sdc_monte_carlo(&cfg)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_time_is_next_tick() {
        assert_eq!(detection_time(0.5, 4.0), 4.0);
        assert_eq!(detection_time(4.0, 4.0), 8.0);
        assert_eq!(detection_time(7.9, 4.0), 8.0);
    }

    fn quick(mult: f64, machines: u32) -> SdcResult {
        run_sdc_monte_carlo(&SdcConfig {
            rate_multiplier: mult,
            machines,
            ..SdcConfig::default()
        })
    }

    #[test]
    fn sdc_rates_are_small_and_ordered() {
        // At realistic rates SDCs are rare; ARCC's rate must be >= the
        // baseline's (it adds the scrub-window term) but the same order of
        // magnitude — the Figure 6.1 claim.
        let r = quick(4.0, 60_000);
        let arcc = r.arcc_sdc_per_1000_machine_years();
        let base = r.sccdcd_sdc_per_1000_machine_years();
        assert!(arcc >= base, "arcc {arcc} < base {base}");
        assert!(arcc < 5.0, "arcc SDC rate implausibly high: {arcc}");
        // DUEs must dominate SDCs by orders of magnitude.
        assert!(
            r.arcc_due_events + r.sccdcd_due_events > (r.arcc_sdc_machines + r.sccdcd_sdc_machines)
        );
    }

    #[test]
    fn higher_rates_give_more_events() {
        let lo = quick(1.0, 30_000);
        let hi = quick(8.0, 30_000);
        assert!(
            hi.arcc_due_events + hi.sccdcd_due_events > lo.arcc_due_events + lo.sccdcd_due_events
        );
    }

    #[test]
    fn grid_covers_requested_points() {
        let grid = figure_6_1_grid(2, &[1.0, 2.0], 2_000, 5);
        assert_eq!(grid.len(), 4);
        for (y, m, r) in &grid {
            assert!(*y >= 1.0 && *y <= 2.0);
            assert!(*m == 1.0 || *m == 2.0);
            assert_eq!(r.machines, 2_000);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = quick(2.0, 10_000);
        let b = quick(2.0, 10_000);
        assert_eq!(a, b);
    }

    /// The ARCC wrapper must remain bit-identical to the pre-refactor
    /// inline predicate over sampled fault histories.
    #[test]
    fn arcc_wrapper_matches_legacy_predicate_on_sampled_histories() {
        let geometry = FaultGeometry::paper_channel();
        let sampler = FaultSampler::new(geometry, FitRates::sridharan_sc12().scaled(80.0));
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        let scrub = 4.0;
        let mut arrivals_checked = 0u32;
        for _ in 0..2_000 {
            let faults = sampler.sample_lifetime(&mut rng, 7.0 * HOURS_PER_YEAR);
            for (bi, b) in faults.iter().enumerate() {
                let overlapping: Vec<&FaultEvent> = faults[..bi]
                    .iter()
                    .filter(|a| active_at(a, b.time_h, scrub))
                    .filter(|a| a.codeword_overlap(b, false))
                    .collect();
                if overlapping.is_empty() {
                    continue;
                }
                let legacy = overlapping.iter().any(|a| {
                    b.time_h < detection_time(a.time_h, scrub) && a.codeword_overlap(b, true)
                }) || triple_overlap(overlapping.iter().copied(), b);
                assert_eq!(
                    arcc_arrival_is_sdc(overlapping.iter().copied(), b, scrub),
                    legacy,
                    "wrapper diverged at arrival {bi}"
                );
                arrivals_checked += 1;
            }
        }
        assert!(arrivals_checked > 100, "too few overlapping arrivals");
    }

    /// Capability ordering over the same histories: detect-0 escapes on
    /// every overlapped arrival, stronger static detection escapes less,
    /// and ARCC sits between always-relaxed and always-upgraded.
    #[test]
    fn capability_ordering_over_sampled_histories() {
        let geometry = FaultGeometry::paper_channel();
        let sampler = FaultSampler::new(geometry, FitRates::sridharan_sc12().scaled(80.0));
        let mut rng = StdRng::seed_from_u64(0xCAB);
        let scrub = 4.0;
        let caps = [
            SchemeCapability::static_code(0, true),  // no guarantee
            SchemeCapability::static_code(1, true),  // s8sc/relaxed-ck2
            SchemeCapability::arcc(),                // adaptive
            SchemeCapability::static_code(2, false), // sccdcd
            SchemeCapability::static_code(4, false), // qpc-strength detect
        ];
        let mut sdc = [0u64; 5];
        for _ in 0..2_000 {
            let faults = sampler.sample_lifetime(&mut rng, 7.0 * HOURS_PER_YEAR);
            for (bi, b) in faults.iter().enumerate() {
                let overlapping: Vec<&FaultEvent> = faults[..bi]
                    .iter()
                    .filter(|a| active_at(a, b.time_h, scrub))
                    .filter(|a| a.codeword_overlap(b, false))
                    .collect();
                if overlapping.is_empty() {
                    continue;
                }
                for (i, cap) in caps.iter().enumerate() {
                    let overlapping = overlapping.iter().copied();
                    sdc[i] += u64::from(arrival_is_sdc(cap, overlapping, b, scrub));
                }
            }
        }
        assert!(sdc[0] >= sdc[1], "detect-0 must escape most: {sdc:?}");
        assert!(sdc[1] >= sdc[2], "static relaxed >= adaptive ARCC: {sdc:?}");
        assert!(sdc[2] >= sdc[3], "ARCC >= always-upgraded: {sdc:?}");
        assert!(sdc[3] >= sdc[4], "detect-2 >= detect-4: {sdc:?}");
        assert!(
            sdc[0] > 0 && sdc[3] < sdc[0],
            "ordering must be strict somewhere"
        );
    }

    #[test]
    fn completes_overlap_degenerate_counts() {
        use arcc_faults::AddressSet;
        let f = |dev: u32| FaultEvent {
            time_h: 1.0,
            mode: arcc_faults::FaultMode::SingleBank,
            transient: false,
            rank: Some(0),
            device_pos: dev,
            set: AddressSet::all(),
        };
        let (a1, a2, a3, b) = (f(0), f(1), f(2), f(3));
        let cands = [&a1, &a2, &a3];
        let first = |n: usize| cands[..n].iter().copied();
        assert!(completes_overlap([], &b, 0), "detect-0 escapes on arrival");
        assert!(!completes_overlap([], &b, 1));
        assert!(completes_overlap(first(1), &b, 1));
        assert!(!completes_overlap(first(1), &b, 2));
        assert!(completes_overlap(first(2), &b, 2));
        // detect-3 needs three co-located earlier faults on distinct devices.
        assert!(!completes_overlap(first(2), &b, 3));
        assert!(completes_overlap(cands, &b, 3));
        // Same device twice does not count twice.
        let dup = [&a1, &a1, &a2];
        assert!(!completes_overlap(dup, &b, 3));
    }

    #[test]
    fn k_overlap_respects_rank_compatibility_and_disjoint_sets() {
        use arcc_faults::{AddressSet, DimSel};
        let base = FaultEvent {
            time_h: 1.0,
            mode: arcc_faults::FaultMode::SingleBank,
            transient: false,
            rank: Some(0),
            device_pos: 9,
            set: AddressSet::all(),
        };
        let mut other_rank = base;
        other_rank.rank = Some(1);
        other_rank.device_pos = 1;
        let mut same_rank = base;
        same_rank.device_pos = 2;
        let mut third = base;
        third.device_pos = 3;
        let b = FaultEvent {
            device_pos: 5,
            ..base
        };
        // Mixed ranks can never meet in one codeword.
        assert!(!completes_overlap([&same_rank, &other_rank, &third], &b, 3));
        assert!(completes_overlap([&same_rank, &base, &third], &b, 3));
        // Disjoint banks cannot share a location.
        let mut bank0 = same_rank;
        bank0.set.banks = DimSel::One(0);
        let mut bank1 = third;
        bank1.set.banks = DimSel::One(1);
        assert!(!completes_overlap([&bank0, &bank1, &base], &b, 3));
    }

    /// The slice-and-`Vec` predicates the iterator forms replaced, kept as
    /// the reference they are checked against.
    mod slice_reference {
        use super::*;

        pub fn arrival_is_sdc(
            cap: &SchemeCapability,
            overlapping: &[&FaultEvent],
            b: &FaultEvent,
            scrub_h: f64,
        ) -> bool {
            if cap.adaptive {
                let undetected: Vec<&FaultEvent> = overlapping
                    .iter()
                    .copied()
                    .filter(|a| {
                        b.time_h < detection_time(a.time_h, scrub_h)
                            && a.codeword_overlap(b, cap.relaxed_half_width)
                    })
                    .collect();
                completes_overlap(&undetected, b, cap.relaxed_detect)
                    || completes_overlap(overlapping, b, cap.upgraded_detect)
            } else if cap.relaxed_half_width {
                let in_half: Vec<&FaultEvent> = overlapping
                    .iter()
                    .copied()
                    .filter(|a| a.codeword_overlap(b, true))
                    .collect();
                completes_overlap(&in_half, b, cap.relaxed_detect)
            } else {
                completes_overlap(overlapping, b, cap.relaxed_detect)
            }
        }

        pub fn completes_overlap(candidates: &[&FaultEvent], b: &FaultEvent, detect: u32) -> bool {
            match detect {
                0 => true,
                1 => !candidates.is_empty(),
                2 => triple_overlap(candidates, b),
                k => {
                    let mut chosen: Vec<&FaultEvent> = Vec::with_capacity(k as usize);
                    k_overlap_search(candidates, 0, &mut chosen, &b.set, k as usize)
                }
            }
        }

        fn triple_overlap(overlapping: &[&FaultEvent], b: &FaultEvent) -> bool {
            for (i, a1) in overlapping.iter().enumerate() {
                for a2 in &overlapping[i + 1..] {
                    if a1.device_pos == a2.device_pos {
                        continue;
                    }
                    let rank_ok = match (a1.rank, a2.rank) {
                        (Some(r1), Some(r2)) => r1 == r2,
                        _ => true,
                    };
                    if !rank_ok {
                        continue;
                    }
                    if let Some(common) = a1.set.intersection(&a2.set) {
                        if common.intersects(&b.set) {
                            return true;
                        }
                    }
                }
            }
            false
        }

        fn k_overlap_search<'a>(
            candidates: &[&'a FaultEvent],
            start: usize,
            chosen: &mut Vec<&'a FaultEvent>,
            common: &arcc_faults::AddressSet,
            need: usize,
        ) -> bool {
            if need == 0 {
                return true;
            }
            for i in start..candidates.len() {
                let c = candidates[i];
                if chosen.iter().any(|x| x.device_pos == c.device_pos) {
                    continue;
                }
                let rank_ok = chosen.iter().all(|x| match (x.rank, c.rank) {
                    (Some(r1), Some(r2)) => r1 == r2,
                    _ => true,
                });
                if !rank_ok {
                    continue;
                }
                let Some(next) = common.intersection(&c.set) else {
                    continue;
                };
                chosen.push(c);
                let hit = k_overlap_search(candidates, i + 1, chosen, &next, need - 1);
                chosen.pop();
                if hit {
                    return true;
                }
            }
            false
        }
    }

    /// The allocation-free iterator predicates give the slice reference's
    /// verdict on every overlapped arrival of sampled histories, for every
    /// detection strength the k-overlap search handles and both code
    /// widths, adaptive and static.
    #[test]
    fn iterator_predicates_match_the_slice_reference() {
        let geometry = FaultGeometry::paper_channel();
        let sampler = FaultSampler::new(geometry, FitRates::sridharan_sc12().scaled(200.0));
        let mut rng = StdRng::seed_from_u64(0x5EF);
        let scrub = 4.0;
        let mut caps = vec![SchemeCapability::arcc()];
        for detect in 0..=5 {
            caps.push(SchemeCapability::static_code(detect, true));
            caps.push(SchemeCapability::static_code(detect, false));
            caps.push(SchemeCapability {
                relaxed_detect: detect,
                upgraded_detect: detect + 1,
                relaxed_half_width: detect % 2 == 0,
                adaptive: true,
            });
        }
        let (mut checked, mut escapes) = (0u32, 0u32);
        for _ in 0..600 {
            let faults = sampler.sample_lifetime(&mut rng, 7.0 * HOURS_PER_YEAR);
            for (bi, b) in faults.iter().enumerate() {
                let overlapping: Vec<&FaultEvent> = faults[..bi]
                    .iter()
                    .filter(|a| active_at(a, b.time_h, scrub))
                    .filter(|a| a.codeword_overlap(b, false))
                    .collect();
                for cap in &caps {
                    let want = slice_reference::arrival_is_sdc(cap, &overlapping, b, scrub);
                    let got = arrival_is_sdc(cap, overlapping.iter().copied(), b, scrub);
                    assert_eq!(got, want, "{cap:?} diverged at arrival {bi}");
                    escapes += u32::from(got);
                }
                for detect in 0..=5 {
                    let want = slice_reference::completes_overlap(&overlapping, b, detect);
                    let got = completes_overlap(overlapping.iter().copied(), b, detect);
                    assert_eq!(got, want, "detect-{detect} diverged at arrival {bi}");
                }
                checked += u32::from(!overlapping.is_empty());
            }
        }
        assert!(checked > 500, "too few overlapped arrivals: {checked}");
        assert!(escapes > 0, "no predicate ever fired");
    }
}
