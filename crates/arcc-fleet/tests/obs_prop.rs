//! Observability contract: deterministic metric snapshots are
//! schedule-invariant. Parallel and sequential observed runs — synthetic
//! and replay — must produce byte-identical `MetricsSnapshot`s, a split
//! (checkpoint/resume) run's span snapshots must merge to the one-shot
//! snapshot, and the merge itself must be associative under shuffled
//! shard order. This mirrors the `FleetStats` merge contract exactly.

use arcc_fleet::engine::ShardEngine;
use arcc_fleet::{
    run_fleet, run_fleet_observed, run_replay, run_until, DimmPopulation, FleetCheckpoint,
    FleetSpec, OperatorPolicy, ReplayArrivals,
};
use arcc_obs::{MetricsSnapshot, Recorder, SnapshotRecorder};
use proptest::prelude::*;

fn spec_for(
    channels: u64,
    shard_channels: u32,
    seed: u64,
    mult: f64,
    policy: OperatorPolicy,
) -> FleetSpec {
    FleetSpec::baseline(channels)
        .populations(vec![DimmPopulation::paper("p").rate_multiplier(mult)])
        .shard_channels(shard_channels)
        .seed(seed)
        .policy(policy)
}

/// One observed span: the extended checkpoint and the span-local
/// metric snapshot.
fn span(
    threads: usize,
    spec: &FleetSpec,
    arrivals: Option<&ReplayArrivals>,
    ckpt: FleetCheckpoint,
    until: u64,
) -> (FleetCheckpoint, MetricsSnapshot) {
    let mut rec = SnapshotRecorder::new();
    let done = run_until(threads, spec, arrivals, ckpt, until, &mut rec).expect("span");
    (done, rec.into_snapshot())
}

/// Runs a whole run as three chained spans — to the lower cut, to the
/// upper cut, then to completion — on one thread count per span,
/// round-tripping the checkpoint through its text form between spans.
/// Returns the final checkpoint and the merged span snapshots.
fn three_spans(
    spec: &FleetSpec,
    arrivals: Option<&ReplayArrivals>,
    start: FleetCheckpoint,
    cuts: (u64, u64),
    threads: (usize, usize, usize),
) -> (FleetCheckpoint, MetricsSnapshot) {
    let (lo, hi) = (cuts.0.min(cuts.1), cuts.0.max(cuts.1));
    let (first, mut merged) = span(threads.0, spec, arrivals, start, lo);
    let first = FleetCheckpoint::from_text(&first.to_text()).expect("round trip");
    let (second, snap) = span(threads.1, spec, arrivals, first, hi);
    merged.merge(&snap);
    // A span ending at or before the prefix runs and records nothing.
    let (same, none) = span(threads.2, spec, arrivals, second.clone(), lo);
    assert_eq!(same, second);
    assert!(none.is_empty());
    let second = FleetCheckpoint::from_text(&second.to_text()).expect("round trip");
    let (done, snap) = span(threads.2, spec, arrivals, second, u64::MAX);
    merged.merge(&snap);
    (done, merged)
}

fn policy() -> impl Strategy<Value = OperatorPolicy> {
    prop_oneof![
        Just(OperatorPolicy::None),
        Just(OperatorPolicy::ReplaceOnDue),
        (1u32..60).prop_map(|spares_per_10k| OperatorPolicy::SparePool { spares_per_10k }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel == sequential, byte for byte, for stats AND metrics —
    /// and the plain (unobserved) run is unchanged by observation.
    #[test]
    fn observed_fleet_runs_are_schedule_invariant(
        channels in 64u64..1200,
        shard_channels in prop_oneof![Just(64u32), Just(256)],
        seed in any::<u64>(),
        mult in 0.0f64..30.0,
        policy in policy(),
    ) {
        let spec = spec_for(channels, shard_channels, seed, mult, policy);
        let (seq_stats, seq_snap) = run_fleet_observed(1, &spec);
        let (par_stats, par_snap) = run_fleet_observed(8, &spec);
        prop_assert!(seq_stats.bitwise_eq(&par_stats));
        prop_assert_eq!(&seq_snap, &par_snap);
        prop_assert!(run_fleet(4, &spec).bitwise_eq(&seq_stats));
        // The metrics account for every channel: each either bypassed
        // the queue or allocated a slot.
        let hits = seq_snap.counter("fleet.bypass.hits");
        let misses = seq_snap.counter("fleet.bypass.misses");
        prop_assert_eq!(hits + misses, channels);
        prop_assert_eq!(seq_snap.counter("fleet.shards"), spec.shard_count());
        // Scheduled == popped: the engine drains its queue completely.
        prop_assert_eq!(
            seq_snap.counter("fleet.events.scheduled"),
            seq_snap.counter("fleet.events.popped")
        );
    }

    /// Split runs (checkpoint/resume) produce span snapshots that merge
    /// to the one-shot snapshot, regardless of the split points and of
    /// each span's thread count.
    #[test]
    fn split_fleet_snapshots_merge_to_the_one_shot_snapshot(
        channels in 200u64..1200,
        seed in any::<u64>(),
        mult in 0.5f64..20.0,
        cuts in (0u64..12, 0u64..12),
        threads in (1usize..9, 1usize..9, 1usize..9),
    ) {
        let spec = spec_for(channels, 128, seed, mult, OperatorPolicy::None);
        let (full_stats, full_snap) = run_fleet_observed(4, &spec);
        let start = FleetCheckpoint::start(&spec);
        let (done, merged) = three_spans(&spec, None, start, cuts, threads);
        prop_assert_eq!(done.shards_done, spec.shard_count());
        prop_assert!(done.stats.bitwise_eq(&full_stats));
        prop_assert_eq!(&merged, &full_snap);
    }

    /// Replay path: observed replay snapshots are schedule-invariant and
    /// split/resume merges reproduce the one-shot snapshot.
    #[test]
    fn observed_replay_runs_are_schedule_invariant(
        channels in 128u64..900,
        seed in any::<u64>(),
        mult in 2.0f64..25.0,
        cuts in (0u64..9, 0u64..9),
        threads in (1usize..9, 1usize..9, 1usize..9),
    ) {
        // Generate a synthetic log by running the engine, then replay it.
        let spec = spec_for(channels, 128, seed, mult, OperatorPolicy::None);
        let log = arcc_replay_log(&spec);
        let start = FleetCheckpoint::start_replay(&spec, &log);
        let (seq, seq_snap) = span(1, &spec, Some(&log), start.clone(), u64::MAX);
        let (par, par_snap) = span(8, &spec, Some(&log), start.clone(), u64::MAX);
        prop_assert!(seq.stats.bitwise_eq(&par.stats));
        prop_assert_eq!(&seq_snap, &par_snap);
        prop_assert!(run_replay(4, &spec, &log).expect("plain").bitwise_eq(&seq.stats));

        let (done, merged) = three_spans(&spec, Some(&log), start, cuts, threads);
        prop_assert_eq!(done.shards_done, spec.shard_count());
        prop_assert!(done.stats.bitwise_eq(&seq.stats));
        prop_assert_eq!(&merged, &seq_snap);
    }

    /// `MetricsSnapshot::merge` is associative and order-independent
    /// under shuffled shard order (counters/gauges/histograms together).
    #[test]
    fn snapshot_merge_is_associative_under_shuffled_shard_order(
        channels in 256u64..1000,
        seed in any::<u64>(),
        mult in 1.0f64..20.0,
        order_seed in any::<u64>(),
    ) {
        let spec = spec_for(channels, 64, seed, mult, OperatorPolicy::None);
        let mut shards: Vec<u64> = (0..spec.shard_count()).collect();
        // Deterministic shuffle from the proptest-drawn seed.
        let mut s = order_seed;
        for i in (1..shards.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shards.swap(i, (s >> 33) as usize % (i + 1));
        }
        let per_shard: Vec<MetricsSnapshot> = shards
            .iter()
            .map(|&shard| {
                let mut rec = SnapshotRecorder::new();
                // Mix a histogram in so all three kinds are exercised.
                let (_, m) = ShardEngine::new(&spec, shard).run();
                m.record_into(&mut rec);
                rec.observe("test.popped.per_shard", m.popped);
                rec.into_snapshot()
            })
            .collect();
        // Left fold vs right fold vs pairwise tree fold.
        let mut left = MetricsSnapshot::new();
        for s in &per_shard {
            left.merge(s);
        }
        let mut right = MetricsSnapshot::new();
        for s in per_shard.iter().rev() {
            right.merge(s);
        }
        let mut layer = per_shard.clone();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| {
                    let mut a = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        a.merge(b);
                    }
                    a
                })
                .collect();
        }
        let tree = layer.into_iter().next().unwrap_or_default();
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &tree);
    }
}

/// Builds a replay arrival set that covers `spec` by drawing each
/// channel's synthetic arrivals directly (one exponential stream per
/// channel, matching the engine's seeding contract closely enough for a
/// valid, non-trivial log — exact engine equality is pinned elsewhere).
fn arcc_replay_log(spec: &FleetSpec) -> ReplayArrivals {
    use arcc_faults::montecarlo::FaultSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let sampler = FaultSampler::new(spec.populations[0].geometry, spec.populations[0].rates());
    let rate = sampler.channel_rate_per_hour();
    let horizon = spec.horizon_hours();
    let mut per_channel = Vec::with_capacity(spec.channels as usize);
    for c in 0..spec.channels {
        let mut events = Vec::new();
        if rate > 0.0 {
            let mut rng = StdRng::seed_from_u64(arcc_core::cell_seed(spec.seed, c));
            let mut t = arcc_faults::exp_interarrival(&mut rng, rate);
            while t < horizon && events.len() < 64 {
                events.push(sampler.draw_fault(&mut rng, t));
                t += arcc_faults::exp_interarrival(&mut rng, rate);
            }
        }
        per_channel.push(events);
    }
    ReplayArrivals::new(vec![0; spec.channels as usize], per_channel).expect("valid log")
}
