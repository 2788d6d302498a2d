//! The full-system experiment driver behind Figures 7.1–7.5.
//!
//! Pipeline per workload mix: the synthetic 4-core trace feeds the LLC;
//! misses and writebacks become memory requests whose span (64 B single
//! or 128 B lockstep pair) is chosen by the page table; the DRAM simulator
//! services them and reports latency and energy; per-core latencies feed
//! the analytical IPC model. A configurable fraction of pages is placed in
//! upgraded mode — exactly the §7.1 step-1 methodology ("setting the
//! fraction of memory affected by that type of fault to upgraded mode").

use arcc_cache::{CacheConfig, CacheModel, CacheStats, PairedTagLlc};
use arcc_mem::{AccessKind, EnergyBreakdown, MemRequest, MemorySystem, RequestSpan, SystemConfig};
use arcc_trace::perf::MixPerformance;
use arcc_trace::{generate_mix, Mix, TraceConfig};

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// LLC geometry (Table 7.2's 1 MB 16-way by default).
    pub llc: CacheConfig,
    /// Memory-system configuration (Table 7.1).
    pub mem: SystemConfig,
    /// Whether ARCC semantics are active (upgraded spans, paired fills);
    /// `false` simulates the SCCDCD baseline where every access is a full
    /// 36-device rank access.
    pub arcc: bool,
    /// Fraction of pages in upgraded mode (0.0 for fault-free).
    pub upgraded_fraction: f64,
    /// Trace length and seed.
    pub trace: TraceConfig,
}

impl SimConfig {
    /// Fault-free ARCC configuration.
    pub fn arcc(upgraded_fraction: f64) -> Self {
        Self {
            llc: CacheConfig::paper_llc(),
            mem: SystemConfig::arcc_x8(),
            arcc: true,
            upgraded_fraction,
            trace: TraceConfig::default(),
        }
    }

    /// The commercial SCCDCD baseline.
    pub fn baseline() -> Self {
        Self {
            llc: CacheConfig::paper_llc(),
            mem: SystemConfig::sccdcd_baseline(),
            arcc: false,
            upgraded_fraction: 0.0,
            trace: TraceConfig::default(),
        }
    }
}

/// Result of simulating one mix under one configuration.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// Mix name.
    pub mix_name: &'static str,
    /// Average DRAM power over the run, in milliwatts.
    pub power_mw: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Performance (sum of the per-core IPCs).
    pub perf: MixPerformance,
    /// Mean demand-read latency in memory cycles.
    pub avg_read_latency: f64,
    /// LLC counters.
    pub llc: CacheStats,
    /// Memory requests issued (after LLC filtering).
    pub mem_requests: u64,
    /// Channel-level sub-accesses (paired spans count twice).
    pub sub_accesses: u64,
    /// Simulated duration in memory cycles.
    pub sim_cycles: u64,
}

/// The splitmix64 finaliser: a cheap, high-quality 64-bit mix used for
/// deterministic page-set assignment and per-cell sweep seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic seed for sweep cell `cell` under base seed `base`
/// (splitmix64 of the golden-ratio-spread cell index). The single source
/// of truth for per-cell seeds: the `arcc-exp` sweep engine and the
/// fleet scenarios derive from it, so a cell's seed does not depend on
/// the order (or parallelism) in which cells execute.
pub fn cell_seed(base: u64, cell: u64) -> u64 {
    splitmix64(base.wrapping_add(cell.wrapping_mul(0x9E3779B97F4A7C15)))
}

/// Deterministically assigns pages to upgraded mode with probability
/// `fraction` (splitmix64 hash), so equal fractions give equal page sets
/// across configurations.
fn page_is_upgraded(page: u64, fraction: f64) -> bool {
    if fraction <= 0.0 {
        return false;
    }
    if fraction >= 1.0 {
        return true;
    }
    (splitmix64(page) as f64 / u64::MAX as f64) < fraction
}

/// Worst-case power factor of the paper's "worst case est." bars: with no
/// spatial locality every access to an upgraded page costs twice a relaxed
/// access, so power scales by `1 + fraction`.
pub fn worst_case_power_factor(upgraded_fraction: f64) -> f64 {
    1.0 + upgraded_fraction
}

/// Worst-case performance factor: bandwidth-bound, no locality — effective
/// bandwidth drops by the same factor power rises.
pub fn worst_case_perf_factor(upgraded_fraction: f64) -> f64 {
    1.0 / (1.0 + upgraded_fraction)
}

/// The experiment driver.
#[derive(Debug, Clone)]
pub struct SystemSim {
    config: SimConfig,
}

impl SystemSim {
    /// Creates a driver for `config`.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs one mix to completion.
    ///
    /// The simulation is **closed-loop**: each core advances its own clock
    /// by the trace's inter-request think time, and a demand miss beyond
    /// the core's memory-level-parallelism window stalls the core until
    /// the oldest outstanding miss returns — the first-order behaviour of
    /// M5's out-of-order cores. Per-core IPC therefore falls directly out
    /// of the simulated timeline.
    pub fn run_mix(&self, mix: &Mix) -> MixResult {
        let cfg = &self.config;
        let workload = generate_mix(mix, &cfg.trace);
        let profiles = mix.profiles();
        let cores = profiles.len();
        let mut llc = PairedTagLlc::new(cfg.llc);
        let mut mem = MemorySystem::new(cfg.mem.clone());

        // Closed-loop core state, one slot per core in the mix.
        let mut core_clock = vec![0.0f64; cores]; // memory-cycle domain
        let mut last_trace_arrival = vec![0u64; cores];
        let mut outstanding = vec![std::collections::VecDeque::<u64>::new(); cores];
        let windows: Vec<usize> = profiles
            .iter()
            .map(|p| (p.mlp.ceil() as usize).max(1))
            .collect();

        let mut lat_sum = vec![0.0f64; cores];
        let mut lat_n = vec![0u64; cores];
        let mut mem_requests = 0u64;

        for r in &workload.requests {
            let core = r.core as usize;
            let think = r.arrival.saturating_sub(last_trace_arrival[core]) as f64;
            last_trace_arrival[core] = r.arrival;
            core_clock[core] += think;

            let page = r.line >> 6;
            let upgraded = cfg.arcc && page_is_upgraded(page, cfg.upgraded_fraction);
            let span = if upgraded {
                RequestSpan::Upgraded(r.line)
            } else {
                RequestSpan::Line(r.line)
            };
            let now = core_clock[core] as u64;

            if r.write {
                // Writeback from the upper levels into the LLC; does not
                // stall the core (write buffering) but consumes bandwidth.
                if !llc.access(r.line, true) {
                    if upgraded {
                        // Pair invariant: fetch the partner before dirtying.
                        mem.issue(MemRequest::new(now, AccessKind::Read, span));
                        mem_requests += 1;
                    }
                    for wb in llc.fill(r.line, upgraded, true) {
                        let wspan = if wb.upgraded {
                            RequestSpan::Upgraded(wb.line)
                        } else {
                            RequestSpan::Line(wb.line)
                        };
                        mem.issue(MemRequest::new(now, AccessKind::Write, wspan));
                        mem_requests += 1;
                    }
                }
            } else if !llc.access(r.line, false) {
                // Demand miss: gate on the core's MLP window.
                if outstanding[core].len() >= windows[core] {
                    let oldest = outstanding[core].pop_front().expect("window is non-empty");
                    core_clock[core] = core_clock[core].max(oldest as f64);
                }
                let issue_at = core_clock[core] as u64;
                let done = mem.issue(MemRequest::new(issue_at, AccessKind::Read, span));
                mem_requests += 1;
                outstanding[core].push_back(done.completion);
                lat_sum[core] += (done.completion - issue_at) as f64;
                lat_n[core] += 1;
                for wb in llc.fill(r.line, upgraded, false) {
                    let wspan = if wb.upgraded {
                        RequestSpan::Upgraded(wb.line)
                    } else {
                        RequestSpan::Line(wb.line)
                    };
                    mem.issue(MemRequest::new(issue_at, AccessKind::Write, wspan));
                    mem_requests += 1;
                }
            }
        }
        // Drain: cores wait for their last misses.
        for core in 0..cores {
            if let Some(&last) = outstanding[core].back() {
                core_clock[core] = core_clock[core].max(last as f64);
            }
        }

        let stats = mem.finish();

        // Direct per-core IPC from the simulated timeline.
        let core_ipc: Vec<f64> = (0..cores)
            .map(|c| {
                let cpu_cycles =
                    core_clock[c].max(1.0) * arcc_trace::perf::CPU_CYCLES_PER_MEM_CYCLE;
                workload.instructions[c] as f64 / cpu_cycles
            })
            .collect();
        let perf = MixPerformance {
            name: mix.name,
            total_ipc: core_ipc.iter().sum(),
            core_ipc,
        };

        let total_lat: f64 = lat_sum.iter().sum();
        let total_n: u64 = lat_n.iter().sum();

        MixResult {
            mix_name: mix.name,
            power_mw: stats.avg_power_mw(),
            energy: stats.energy,
            perf,
            avg_read_latency: if total_n > 0 {
                total_lat / total_n as f64
            } else {
                0.0
            },
            llc: llc.stats(),
            mem_requests,
            sub_accesses: stats.sub_accesses,
            sim_cycles: stats.sim_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcc_trace::paper_mixes;

    fn quick_trace() -> TraceConfig {
        TraceConfig {
            requests: 30_000,
            seed: 42,
        }
    }

    #[test]
    fn page_assignment_deterministic_and_proportional() {
        let frac = 0.25;
        let hits = (0..100_000u64)
            .filter(|&p| page_is_upgraded(p, frac))
            .count();
        let measured = hits as f64 / 100_000.0;
        assert!((measured - frac).abs() < 0.01, "measured {measured}");
        assert!(page_is_upgraded(7, 1.0));
        assert!(!page_is_upgraded(7, 0.0));
        assert_eq!(page_is_upgraded(123, 0.5), page_is_upgraded(123, 0.5));
    }

    #[test]
    fn worst_case_factors() {
        assert_eq!(worst_case_power_factor(0.5), 1.5);
        assert!((worst_case_perf_factor(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arcc_beats_baseline_power_fault_free() {
        let mix = paper_mixes()[0];
        let mut base_cfg = SimConfig::baseline();
        base_cfg.trace = quick_trace();
        let mut arcc_cfg = SimConfig::arcc(0.0);
        arcc_cfg.trace = quick_trace();
        let base = SystemSim::new(base_cfg).run_mix(&mix);
        let arcc = SystemSim::new(arcc_cfg).run_mix(&mix);
        let saving = 1.0 - arcc.power_mw / base.power_mw;
        assert!(
            (0.15..0.55).contains(&saving),
            "power saving {saving} (base {} mW, arcc {} mW)",
            base.power_mw,
            arcc.power_mw
        );
    }

    #[test]
    fn upgraded_pages_cost_power() {
        let mix = paper_mixes()[6]; // memory-heavy mix
        let mut cfg0 = SimConfig::arcc(0.0);
        cfg0.trace = quick_trace();
        let mut cfg_half = SimConfig::arcc(0.5);
        cfg_half.trace = quick_trace();
        let clean = SystemSim::new(cfg0).run_mix(&mix);
        let faulty = SystemSim::new(cfg_half).run_mix(&mix);
        assert!(
            faulty.power_mw > clean.power_mw,
            "faulty {} <= clean {}",
            faulty.power_mw,
            clean.power_mw
        );
        // And never beyond the worst-case estimate.
        let worst = clean.power_mw * worst_case_power_factor(0.5);
        assert!(
            faulty.power_mw <= worst * 1.05,
            "faulty {} vs worst-case {}",
            faulty.power_mw,
            worst
        );
    }

    #[test]
    fn llc_filters_spatial_locality() {
        // A streaming mix in upgraded mode should see sibling hits
        // (co-fetch prefetching) — hit count must exceed the same mix in
        // relaxed mode.
        let mix = paper_mixes()[3]; // contains swim (locality 0.9)
        let mut relaxed_cfg = SimConfig::arcc(0.0);
        relaxed_cfg.trace = quick_trace();
        let mut upgraded_cfg = SimConfig::arcc(1.0);
        upgraded_cfg.trace = quick_trace();
        let relaxed = SystemSim::new(relaxed_cfg).run_mix(&mix);
        let upgraded = SystemSim::new(upgraded_cfg).run_mix(&mix);
        assert!(
            upgraded.llc.hits > relaxed.llc.hits,
            "co-fetch should add hits: {} vs {}",
            upgraded.llc.hits,
            relaxed.llc.hits
        );
    }

    #[test]
    fn result_fields_populated() {
        let mix = paper_mixes()[1];
        let mut cfg = SimConfig::arcc(0.1);
        cfg.trace = TraceConfig {
            requests: 10_000,
            seed: 9,
        };
        let r = SystemSim::new(cfg).run_mix(&mix);
        assert_eq!(r.mix_name, "Mix2");
        assert!(r.power_mw > 0.0);
        assert!(r.perf.total_ipc > 0.0);
        assert!(r.avg_read_latency > 0.0);
        assert!(r.mem_requests > 0);
        assert!(r.sub_accesses >= r.mem_requests);
        assert!(r.sim_cycles > 0);
    }
}
