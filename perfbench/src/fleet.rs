//! The `fleet-synth` phase: `run_fleet` on the mixed classes under a
//! spare pool, at all worker threads and at one, plus a traced
//! recomposition of the runner's windowed parallel fold.

use std::time::Instant;

use arcc_core::parallel_map;
use arcc_fleet::{
    run_fleet, run_fleet_observed, run_shard, FleetCheckpoint, FleetSpec, FleetStats,
};
use arcc_obs::{MetricValue, MetricsSnapshot};

use crate::trace::Tracer;

/// Shards per merge window, as a multiple of the worker count (the
/// runner's window).
const WINDOW_FACTOR: usize = 4;

/// One timed `run_fleet`.
pub fn timed_run(threads: usize, spec: &FleetSpec) -> (FleetStats, f64) {
    let t = Instant::now();
    let stats = run_fleet(threads, spec);
    (stats, t.elapsed().as_secs_f64())
}

/// One timed `run_fleet_observed`.
pub fn timed_observed(threads: usize, spec: &FleetSpec) -> (FleetStats, MetricsSnapshot, f64) {
    let t = Instant::now();
    let (stats, snapshot) = run_fleet_observed(threads, spec);
    (stats, snapshot, t.elapsed().as_secs_f64())
}

/// What the traced recomposition measured beyond its spans.
pub struct TracedFleet {
    /// The merged statistics.
    pub stats: FleetStats,
    /// Seconds for the whole run.
    pub seconds: f64,
    /// Mean over windows of (slowest shard ÷ mean shard time).
    pub imbalance: f64,
}

/// `run_fleet` recomposed: windows of `threads * 4` shards run on
/// `parallel_map`, each shard timed on its worker, then folded in shard
/// order inside a `fleet.merge` span.
pub fn traced_run(t: &mut Tracer, threads: usize, spec: &FleetSpec) -> TracedFleet {
    let start = Instant::now();
    let mut ckpt = FleetCheckpoint::start(spec);
    let window = (threads.max(1) * WINDOW_FACTOR) as u64;
    let until = spec.shard_count();
    let mut ratios = Vec::new();
    t.span("fleet.run", |t| {
        while ckpt.shards_done < until {
            let hi = (ckpt.shards_done + window).min(until);
            let shards: Vec<u64> = (ckpt.shards_done..hi).collect();
            let results = parallel_map(threads, &shards, |_, &shard| {
                let begin = Instant::now();
                let stats = run_shard(spec, shard);
                (stats, begin, Instant::now())
            });
            let secs: Vec<f64> = results
                .iter()
                .map(|(_, b, e)| e.duration_since(*b).as_secs_f64())
                .collect();
            let mean = secs.iter().sum::<f64>() / secs.len() as f64;
            if mean > 0.0 {
                ratios.push(secs.iter().copied().fold(0.0, f64::max) / mean);
            }
            for (_, begin, end) in &results {
                t.record("fleet.shard", *begin, *end);
            }
            t.span("fleet.merge", |_| {
                for (agg, _, _) in &results {
                    ckpt.stats.merge(agg);
                }
            });
            ckpt.shards_done = hi;
        }
    });
    let imbalance = if ratios.is_empty() {
        1.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    TracedFleet {
        stats: ckpt.stats,
        seconds: start.elapsed().as_secs_f64(),
        imbalance,
    }
}

/// A gauge's value (0 when absent).
pub fn gauge(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    match snapshot.get(name) {
        Some(MetricValue::Gauge(v)) => *v,
        _ => 0,
    }
}
