//! Monte-Carlo lifetime fault sampling.
//!
//! Faults arrive as independent Poisson processes, one per (device, mode)
//! pair, at the field-study rates. For a whole channel the superposition is
//! a single Poisson process with rate `devices * total_fit`; each arrival
//! is then attributed to a mode (proportional to rate) and a uniformly
//! drawn location. This mirrors step 2 of the paper's §7.1 methodology
//! (10 000 channels x 7 simulated years).

use rand::distributions::UniformInt;
use rand::Rng;

use crate::geometry::{FaultEvent, FaultGeometry};
use crate::modes::{FaultMode, FitRates};

/// Hours per (365-day) year, the unit the paper's lifetime axes use.
pub const HOURS_PER_YEAR: f64 = 8760.0;

/// Draws one exponential inter-arrival gap (in hours) for a Poisson
/// process of `rate_per_hour`, via the standard inverse CDF
/// `-ln(1 - u)` with `u ∈ [0, 1)`.
///
/// Mapping `u` through `1 - u` keeps the draw unbiased at both tails:
/// `u = 0` is in range (yielding a zero gap, as the true distribution
/// allows) while `ln(0)` is never taken, and no probability mass is
/// shaved off the long-gap tail the way an `(ε..1)` draw on `-ln(u)`
/// does.
///
/// # Panics
///
/// Panics if `rate_per_hour` is not strictly positive.
pub fn exp_interarrival<R: Rng + ?Sized>(rng: &mut R, rate_per_hour: f64) -> f64 {
    exp_interarrival_from_u(rng.gen_range(0.0..1.0), rate_per_hour)
}

/// The deterministic half of [`exp_interarrival`]: maps an already-drawn
/// uniform `u ∈ [0, 1)` to the exponential gap `-ln(1 - u) / rate`.
///
/// Splitting the draw from the transform lets callers test the gap
/// against a threshold *before* paying for the logarithm: `gap >= H`
/// iff `u >= 1 - exp(-rate * H)`, so a caller that only needs to know
/// whether the arrival lands inside a horizon can pre-compute the
/// threshold once and skip the `ln` entirely on the (at field rates,
/// overwhelmingly common) miss path. The `arcc-fleet` engine's
/// horizon-bypass fast path is built on exactly this identity.
///
/// # Panics
///
/// Panics if `rate_per_hour` is not strictly positive.
pub fn exp_interarrival_from_u(u: f64, rate_per_hour: f64) -> f64 {
    assert!(
        rate_per_hour > 0.0,
        "inter-arrival rate must be positive, got {rate_per_hour}"
    );
    -(1.0 - u).ln() / rate_per_hour
}

/// Draws fault timelines for one channel organisation at one rate point.
#[derive(Debug, Clone, Copy)]
pub struct FaultSampler {
    geometry: FaultGeometry,
    rates: FitRates,
    /// `rates.total_fit()`, summed once.
    total_fit: f64,
    /// Each mode's FIT, in [`FaultMode::ALL`] order: the ladder
    /// [`Self::mode_for_pick`] walks.
    ladder: [f64; FaultMode::ALL.len()],
    // Precomputed location distributions (bit-identical to `gen_range`
    // on the same ranges; hoists the rejection-zone modulos out of the
    // per-fault hot path).
    dist_bank: UniformInt,
    dist_row: UniformInt,
    dist_col: UniformInt,
    dist_device: UniformInt,
    dist_rank: UniformInt,
}

impl FaultSampler {
    /// Creates a sampler for `geometry` at `rates`.
    pub fn new(geometry: FaultGeometry, rates: FitRates) -> Self {
        Self {
            geometry,
            rates,
            total_fit: rates.total_fit(),
            ladder: FaultMode::ALL.map(|m| rates.fit(m)),
            dist_bank: UniformInt::new(0, geometry.banks),
            dist_row: UniformInt::new(0, geometry.rows),
            dist_col: UniformInt::new(0, geometry.cols),
            dist_device: UniformInt::new(0, geometry.devices_per_rank as u64),
            dist_rank: UniformInt::new(0, geometry.ranks as u64),
        }
    }

    /// The channel organisation being sampled.
    pub fn geometry(&self) -> FaultGeometry {
        self.geometry
    }

    /// The rates in force.
    pub fn rates(&self) -> FitRates {
        self.rates
    }

    /// Expected faults per channel over `hours`.
    pub fn expected_faults(&self, hours: f64) -> f64 {
        self.channel_rate_per_hour() * hours
    }

    /// The channel-level superposed Poisson rate, in faults per hour:
    /// `devices * total_fit * 1e-9`. This is the rate the event-driven
    /// fleet engine feeds back into [`exp_interarrival`].
    pub fn channel_rate_per_hour(&self) -> f64 {
        self.geometry.total_devices() as f64 * self.total_fit * 1e-9
    }

    /// Samples every fault arriving in `[0, hours)` for one channel,
    /// time-ordered.
    pub fn sample_lifetime<R: Rng + ?Sized>(&self, rng: &mut R, hours: f64) -> Vec<FaultEvent> {
        let channel_rate = self.channel_rate_per_hour();
        let mut events = Vec::new();
        if channel_rate <= 0.0 {
            return events;
        }
        let mut t = 0.0f64;
        loop {
            t += exp_interarrival(rng, channel_rate);
            if t >= hours {
                break;
            }
            events.push(self.draw_fault(rng, t));
        }
        events
    }

    /// Attributes a uniform pick in `[0, total_fit())` to a fault mode by
    /// walking the per-mode FIT ladder in [`FaultMode::ALL`] order.
    ///
    /// Floating-point rounding can let `pick` survive every subtraction
    /// (the sequential remainders of `total_fit()` need not hit zero
    /// exactly at the top of the ladder), so the remainder is attributed
    /// to the *final* mode — it is the tail of the CDF — rather than
    /// silently falling back to a default first mode.
    fn mode_for_pick(&self, mut pick: f64) -> FaultMode {
        for (m, r) in FaultMode::ALL.into_iter().zip(self.ladder) {
            if pick < r {
                return m;
            }
            pick -= r;
        }
        FaultMode::ALL[FaultMode::ALL.len() - 1]
    }

    /// Draws the mode and location of one fault arriving at `time_h`.
    pub fn draw_fault<R: Rng + ?Sized>(&self, rng: &mut R, time_h: f64) -> FaultEvent {
        let mode = self.mode_for_pick(rng.gen_range(0.0..self.total_fit));
        let g = &self.geometry;
        let bank = self.dist_bank.sample(rng);
        let row = self.dist_row.sample(rng);
        let col = self.dist_col.sample(rng);
        let device_pos = self.dist_device.sample(rng) as u32;
        let rank = match mode {
            FaultMode::MultiRank => None,
            _ => Some(self.dist_rank.sample(rng) as u32),
        };
        let transient = rng.gen_bool(mode.transient_fraction());
        FaultEvent {
            time_h,
            mode,
            transient,
            rank,
            device_pos,
            set: g.address_set(mode, bank, row, col),
        }
    }

    /// Expected fraction of pages affected by at least one fault after
    /// `hours`, assuming independent placements (union bound with the
    /// product form) — the closed-form curve behind Figure 3.1.
    pub fn expected_faulty_page_fraction(&self, hours: f64) -> f64 {
        let devices = self.geometry.total_devices() as f64;
        let mut product = 1.0f64;
        for m in FaultMode::ALL {
            let lam = self.rates.per_hour(m) * devices * hours;
            let frac = self.geometry.affected_page_fraction(m);
            // Each fault independently spares a page w.p. (1 - frac);
            // Poisson-many faults spare it w.p. exp(-lam * frac).
            product *= (-lam * frac).exp();
        }
        1.0 - product
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler(mult: f64) -> FaultSampler {
        FaultSampler::new(
            FaultGeometry::paper_channel(),
            FitRates::sridharan_sc12().scaled(mult),
        )
    }

    #[test]
    fn exp_interarrival_mean_and_variance_match_distribution() {
        // Exp(λ) has mean 1/λ and variance 1/λ². The biased `-ln(u)` draw
        // over `(ε..1)` this replaced under-weighted both tails; pin the
        // first two moments so the regression cannot quietly return.
        let mut rng = StdRng::seed_from_u64(0xE4B);
        let lambda = 2.5f64;
        let n = 200_000usize;
        let samples: Vec<f64> = (0..n).map(|_| exp_interarrival(&mut rng, lambda)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let expect_mean = 1.0 / lambda;
        let expect_var = 1.0 / (lambda * lambda);
        // Standard error of the mean is (1/λ)/√n ≈ 0.0009; of the sample
        // variance ≈ √8/λ²/√n ≈ 0.0025. 2% tolerances are > 8σ.
        assert!(
            (mean - expect_mean).abs() < 0.02 * expect_mean,
            "mean {mean} vs {expect_mean}"
        );
        assert!(
            (var - expect_var).abs() < 0.03 * expect_var,
            "variance {var} vs {expect_var}"
        );
        // Both tails are reachable: gaps below the old ε-floor region and
        // well past the mean must occur, and none may be negative.
        assert!(samples.iter().all(|&x| x >= 0.0));
        assert!(samples.iter().any(|&x| x < 1e-4));
        assert!(samples.iter().any(|&x| x > 3.0 * expect_mean));
    }

    #[test]
    fn exp_interarrival_from_u_matches_rng_path() {
        // The split API must be the same transform the RNG path applies.
        let mut rng = StdRng::seed_from_u64(77);
        let mut rng2 = rng.clone();
        for _ in 0..256 {
            let gap = exp_interarrival(&mut rng, 0.37);
            let u: f64 = rng2.gen_range(0.0..1.0);
            assert_eq!(gap.to_bits(), exp_interarrival_from_u(u, 0.37).to_bits());
        }
        // Threshold identity the fleet fast path relies on: gap >= H iff
        // u >= 1 - exp(-rate * H), up to rounding at the exact boundary
        // (which is why callers keep a secondary `gap >= H` guard on the
        // pass path). Away from the boundary both directions must hold.
        let rate: f64 = 2.3e-5;
        let horizon = 61320.0;
        let threshold = 1.0 - (-rate * horizon).exp();
        for u in [0.0, threshold * 0.5, threshold * 0.999_999] {
            assert!(exp_interarrival_from_u(u, rate) < horizon, "u={u}");
        }
        for u in [threshold * 1.000_001, 0.999_999, 1.0 - 2f64.powi(-53)] {
            assert!(exp_interarrival_from_u(u, rate) >= horizon, "u={u}");
        }
    }

    #[test]
    fn mode_attribution_remainder_lands_on_final_mode() {
        // A pick that survives every per-mode subtraction (possible when
        // the sequential remainders round above zero at the top of the
        // ladder) must land on the last mode, never the SingleBit default.
        let s = sampler(1.0);
        let total = s.rates().total_fit();
        let last = FaultMode::ALL[FaultMode::ALL.len() - 1];
        assert_eq!(s.mode_for_pick(total), last);
        assert_eq!(s.mode_for_pick(total * (1.0 + 1e-9)), last);
        // In-range picks still walk the ladder: zero lands on the first
        // mode, and a pick just below total lands on the last.
        assert_eq!(s.mode_for_pick(0.0), FaultMode::ALL[0]);
        assert_eq!(s.mode_for_pick(total * (1.0 - 1e-12)), last);
    }

    #[test]
    fn expected_fault_count_matches_hand_calc() {
        // 72 devices x 58.8 FIT x 7 years = 0.265 faults.
        let s = sampler(1.0);
        let e = s.expected_faults(7.0 * HOURS_PER_YEAR);
        assert!((e - 0.2596).abs() < 0.01, "expected {e}");
    }

    #[test]
    fn sampled_count_tracks_expectation() {
        let s = sampler(4.0);
        let mut rng = StdRng::seed_from_u64(42);
        let hours = 7.0 * HOURS_PER_YEAR;
        let n_channels = 4000;
        let total: usize = (0..n_channels)
            .map(|_| s.sample_lifetime(&mut rng, hours).len())
            .sum();
        let mean = total as f64 / n_channels as f64;
        let expect = s.expected_faults(hours);
        assert!(
            (mean - expect).abs() < 0.1 * expect + 0.02,
            "mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn events_are_time_ordered_and_in_range() {
        let s = sampler(8.0);
        let mut rng = StdRng::seed_from_u64(1);
        let hours = 10.0 * HOURS_PER_YEAR;
        let ev = s.sample_lifetime(&mut rng, hours);
        for w in ev.windows(2) {
            assert!(w[0].time_h <= w[1].time_h);
        }
        for e in &ev {
            assert!(e.time_h >= 0.0 && e.time_h < hours);
            assert!(e.device_pos < 36);
            if let Some(r) = e.rank {
                assert!(r < 2);
            } else {
                assert_eq!(e.mode, FaultMode::MultiRank);
            }
        }
    }

    #[test]
    fn mode_mix_tracks_rates() {
        let s = sampler(1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut bit = 0usize;
        let mut lane = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let f = s.draw_fault(&mut rng, 0.0);
            match f.mode {
                FaultMode::SingleBit => bit += 1,
                FaultMode::MultiRank => lane += 1,
                _ => {}
            }
        }
        let bit_frac = bit as f64 / n as f64;
        let lane_frac = lane as f64 / n as f64;
        // 29.8/58.8 = 0.507, 2.8/58.8 = 0.0476.
        assert!((bit_frac - 0.507).abs() < 0.02, "bit {bit_frac}");
        assert!((lane_frac - 0.0476).abs() < 0.01, "lane {lane_frac}");
    }

    #[test]
    fn faulty_page_fraction_is_a_few_percent_by_year_seven() {
        // The Figure 3.1 sanity anchor: a few percent at 1x/7y, roughly 4x
        // that at 4x.
        let one = sampler(1.0).expected_faulty_page_fraction(7.0 * HOURS_PER_YEAR);
        let four = sampler(4.0).expected_faulty_page_fraction(7.0 * HOURS_PER_YEAR);
        assert!((0.005..0.06).contains(&one), "1x fraction {one}");
        assert!(
            four > 2.5 * one && four < 4.5 * one,
            "4x {four} vs 1x {one}"
        );
    }

    #[test]
    fn faulty_fraction_monotonic_in_time() {
        let s = sampler(2.0);
        let mut prev = 0.0;
        for y in 1..=7 {
            let f = s.expected_faulty_page_fraction(y as f64 * HOURS_PER_YEAR);
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn zero_rates_produce_no_faults() {
        let s = FaultSampler::new(
            FaultGeometry::paper_channel(),
            FitRates::sridharan_sc12().scaled(0.0),
        );
        let mut rng = StdRng::seed_from_u64(3);
        assert!(s.sample_lifetime(&mut rng, 1e6).is_empty());
        assert_eq!(s.expected_faulty_page_fraction(1e6), 0.0);
    }
}
