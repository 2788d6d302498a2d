//! Analytical multicore performance model.
//!
//! The paper reports a mix's performance as the **sum of the IPCs** of its
//! four benchmarks (§7.2). We compute each core's IPC from its profile and
//! the average memory latency its requests actually experienced in the
//! memory-system simulation, using the classic overlap-limited stall model:
//!
//! ```text
//! CPI = 1/base_ipc + (mpki/1000) * latency_cpu_cycles / mlp
//! ```
//!
//! Memory-level parallelism (`mlp`) divides the exposed latency because a
//! core with several outstanding misses amortises DRAM time across them —
//! the same first-order model M5's out-of-order core exhibits.

use crate::profiles::BenchmarkProfile;

/// CPU clock cycles per memory clock cycle: a 3 GHz core against a 333 MHz
/// DDR2-667 command clock.
pub const CPU_CYCLES_PER_MEM_CYCLE: f64 = 9.0;

/// Nominal loaded memory latency (in CPU cycles) used only to pace trace
/// generation before real latencies are known.
const NOMINAL_MEM_LATENCY_CPU: f64 = 180.0;

/// IPC used to pace a core's trace generation: its steady-state IPC under
/// the nominal memory latency.
pub fn effective_pacing_ipc(p: &BenchmarkProfile) -> f64 {
    core_ipc_with_latency_cpu(p, NOMINAL_MEM_LATENCY_CPU)
}

/// IPC of one core given the average latency (in CPU cycles) of its memory
/// reads.
pub fn core_ipc_with_latency_cpu(p: &BenchmarkProfile, latency_cpu: f64) -> f64 {
    let cpi = 1.0 / p.base_ipc + (p.mpki / 1000.0) * latency_cpu / p.mlp;
    1.0 / cpi
}

/// IPC of one core given the average read latency in memory cycles (as the
/// memory simulator reports it).
pub fn core_ipc(p: &BenchmarkProfile, avg_read_latency_mem_cycles: f64) -> f64 {
    core_ipc_with_latency_cpu(p, avg_read_latency_mem_cycles * CPU_CYCLES_PER_MEM_CYCLE)
}

/// Performance summary of one mix.
#[derive(Debug, Clone, PartialEq)]
pub struct MixPerformance {
    /// Mix name.
    pub name: &'static str,
    /// Per-core IPCs (one entry per core in the mix).
    pub core_ipc: Vec<f64>,
    /// The paper's metric: sum of the per-core IPCs.
    pub total_ipc: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::spec_profile;

    #[test]
    fn zero_latency_recovers_base_ipc() {
        for p in crate::profiles::ALL_PROFILES {
            let ipc = core_ipc_with_latency_cpu(p, 0.0);
            assert!((ipc - p.base_ipc).abs() < 1e-12, "{}", p.name);
        }
    }

    #[test]
    fn ipc_decreases_with_latency() {
        let p = spec_profile("milc").unwrap();
        let a = core_ipc(p, 15.0);
        let b = core_ipc(p, 30.0);
        assert!(a > b);
    }

    #[test]
    fn memory_bound_benchmarks_are_latency_sensitive() {
        // Relative IPC drop from doubling latency must be larger for mcf
        // than for mesa.
        let drop = |name: &str| {
            let p = spec_profile(name).unwrap();
            let a = core_ipc(p, 15.0);
            let b = core_ipc(p, 30.0);
            (a - b) / a
        };
        assert!(drop("mcf2006") > drop("mesa"));
    }

    #[test]
    fn pacing_ipc_below_base() {
        for p in crate::profiles::ALL_PROFILES {
            let pace = effective_pacing_ipc(p);
            assert!(pace <= p.base_ipc);
            assert!(pace > 0.0);
        }
    }

    #[test]
    fn mlp_shields_latency() {
        // Same mpki, higher MLP -> higher IPC at equal latency.
        let lib = spec_profile("libquantum").unwrap(); // mlp 6
        let mut low_mlp = *lib;
        low_mlp.mlp = 1.5;
        assert!(core_ipc(lib, 20.0) > core_ipc_with_latency_cpu(&low_mlp, 180.0));
    }
}
