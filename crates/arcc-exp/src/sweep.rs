//! Deterministic parallel sweep engine.
//!
//! Experiment grids (mixes × upgraded fractions × Monte-Carlo chunks) are
//! embarrassingly parallel, but naive parallelism breaks reproducibility:
//! shared RNG streams make results depend on scheduling. The engine here
//! sidesteps that by construction:
//!
//! * every sweep **cell** is an independent computation with a
//!   deterministic per-cell seed ([`cell_seed`]);
//! * [`parallel_map`] always collects results in input order, so folding
//!   them is bit-identical no matter how many workers ran or how the OS
//!   scheduled them;
//! * Monte-Carlo workloads are sharded into fixed-size channel chunks
//!   ([`lifetime_curve_sharded`]), each chunk seeded by its index, and
//!   combined in chunk order.
//!
//! Running any sweep with `threads = 1` therefore produces byte-identical
//! output to running it with every core in the machine — a property the
//! `arcc-exp` test suite pins.

// The primitives live in `arcc-core`, so that `arcc-fleet` builds its
// sharded runner on the same determinism contract.
use arcc_core::{cell_seed, parallel_map};
use arcc_reliability::{lifetime_overhead_curve, LifetimeConfig, LifetimePoint, OverheadModel};

/// Channels per Monte-Carlo shard (see [`lifetime_curve_sharded`]).
pub const MC_CHUNK: u32 = 1024;

/// The lifetime Monte Carlo of Figures 7.4–7.6, sharded over
/// [`MC_CHUNK`]-channel cells so it uses every core.
///
/// Each shard runs [`lifetime_overhead_curve`] over its own channels with
/// a [`cell_seed`]-derived seed; shard curves are combined by a
/// channel-weighted average **in shard order**, so the result is
/// bit-identical whether shards ran sequentially or in parallel.
///
/// Records the `exp.sweep.chunks` (Monte-Carlo cells dispatched) and
/// `exp.sweep.cells` (channels swept across them) counters into `rec`.
/// Both are functions of the config alone — not of thread count or
/// scheduling — so observed sweeps stay as reproducible as the curve
/// itself.
pub fn lifetime_curve_sharded(
    threads: usize,
    cfg: &LifetimeConfig,
    model: &OverheadModel,
    rec: &mut dyn arcc_obs::Recorder,
) -> Vec<LifetimePoint> {
    let mut chunks: Vec<u32> = Vec::new();
    let mut left = cfg.channels.max(1);
    while left > 0 {
        let n = left.min(MC_CHUNK);
        chunks.push(n);
        left -= n;
    }
    rec.counter_add("exp.sweep.chunks", chunks.len() as u64);
    rec.counter_add("exp.sweep.cells", chunks.iter().map(|&n| n as u64).sum());
    let curves = parallel_map(threads, &chunks, |i, &n| {
        let sub = LifetimeConfig {
            channels: n,
            seed: cell_seed(cfg.seed, i as u64),
            ..*cfg
        };
        lifetime_overhead_curve(&sub, model)
    });
    let total: f64 = chunks.iter().map(|&n| n as f64).sum();
    let years = cfg.years as usize;
    let mut combined: Vec<LifetimePoint> = (0..years)
        .map(|yi| LifetimePoint {
            years: yi as f64 + 1.0,
            rate_multiplier: cfg.rate_multiplier,
            avg_overhead: 0.0,
        })
        .collect();
    for (curve, &n) in curves.iter().zip(&chunks) {
        for (acc, pt) in combined.iter_mut().zip(curve) {
            acc.avg_overhead += pt.avg_overhead * (n as f64 / total);
        }
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcc_faults::FaultGeometry;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq = parallel_map(1, &items, |i, &x| x * 2 + i as u64);
        let par = parallel_map(8, &items, |i, &x| x * 2 + i as u64);
        assert_eq!(seq, par);
        assert_eq!(seq[3], 9);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn cell_seeds_distinct_and_deterministic() {
        let a = cell_seed(1, 0);
        let b = cell_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(a, cell_seed(1, 0));
        assert_ne!(cell_seed(2, 0), a);
    }

    #[test]
    fn sharded_curve_thread_invariant() {
        let g = FaultGeometry::paper_channel();
        let model = OverheadModel::worst_case_arcc_power(&g);
        let cfg = LifetimeConfig {
            channels: 2500, // three chunks, one partial
            ..LifetimeConfig::default()
        };
        let noop = &mut arcc_obs::NoopRecorder;
        let seq = lifetime_curve_sharded(1, &cfg, &model, noop);
        let par = lifetime_curve_sharded(8, &cfg, &model, noop);
        assert_eq!(seq.len(), cfg.years as usize);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.avg_overhead.to_bits(), b.avg_overhead.to_bits());
        }
        assert!(seq.last().unwrap().avg_overhead > 0.0);
    }

    #[test]
    fn recorded_sweep_counts_are_thread_invariant() {
        use arcc_obs::SnapshotRecorder;
        let g = FaultGeometry::paper_channel();
        let model = OverheadModel::worst_case_arcc_power(&g);
        let cfg = LifetimeConfig {
            channels: 2500,
            ..LifetimeConfig::default()
        };
        let mut seq_rec = SnapshotRecorder::new();
        let mut par_rec = SnapshotRecorder::new();
        let seq = lifetime_curve_sharded(1, &cfg, &model, &mut seq_rec);
        let par = lifetime_curve_sharded(8, &cfg, &model, &mut par_rec);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.avg_overhead.to_bits(), b.avg_overhead.to_bits());
        }
        assert_eq!(seq_rec.snapshot(), par_rec.snapshot());
        assert_eq!(seq_rec.snapshot().counter("exp.sweep.chunks"), 3);
        assert_eq!(seq_rec.snapshot().counter("exp.sweep.cells"), 2500);
    }
}
