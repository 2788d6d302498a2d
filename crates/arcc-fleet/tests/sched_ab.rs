//! Calendar queue vs reference heap, on whole fleets.
//!
//! In debug builds (`cargo test`) the shard engine's calendar queue keeps
//! a shadow `BinaryHeap` of every pending event and asserts, on every
//! pop, that it returns the heap's `(time, seq)`. These tests drive that
//! check across random populations, scrub cadences, policies, shard
//! sizes, and degenerate calendar widths, and assert that every queue
//! drained. Release builds (`cargo test --release`) compile the shadow
//! out, so there they check draining only.

use arcc_fleet::{run_fleet_observed, DimmPopulation, FleetSpec, FleetStats, OperatorPolicy};
use proptest::prelude::*;

/// Runs `spec` on two workers (the shadow heap checks every pop) and
/// asserts that every shard's queue drained.
fn drain(spec: &FleetSpec, what: &str) -> FleetStats {
    let (stats, snap) = run_fleet_observed(2, spec);
    assert_eq!(
        snap.counter("fleet.events.scheduled"),
        snap.counter("fleet.events.popped"),
        "{what}: a queue did not drain"
    );
    assert_eq!(stats.channels, spec.channels);
    stats
}

/// Strategy for one population: rate multiplier, scrub cadence, weight.
fn population(tag: &'static str) -> impl Strategy<Value = DimmPopulation> {
    (
        0.0f64..40.0,
        prop_oneof![Just(2.0f64), Just(3.0), Just(4.0), Just(12.0)],
        0.2f64..4.0,
    )
        .prop_map(move |(mult, scrub, weight)| {
            DimmPopulation::paper(tag)
                .rate_multiplier(mult)
                .scrub_interval_h(scrub)
                .weight(weight)
        })
}

fn policy() -> impl Strategy<Value = OperatorPolicy> {
    prop_oneof![
        Just(OperatorPolicy::None),
        Just(OperatorPolicy::ReplaceOnDue),
        (1u32..80).prop_map(|spares_per_10k| OperatorPolicy::SparePool { spares_per_10k }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline contract: on random fleets, every pop matches the
    /// shadow heap and every queue drains.
    #[test]
    fn bucket_equals_heap_bit_for_bit(
        channels in 32u64..1500,
        shard_channels in prop_oneof![Just(64u32), Just(256), Just(1024)],
        years in 1.0f64..10.0,
        seed in any::<u64>(),
        pop_a in population("a"),
        pop_b in population("b"),
        two_pops in any::<bool>(),
        policy in policy(),
    ) {
        let mut populations = vec![pop_a];
        if two_pops {
            populations.push(pop_b);
        }
        let spec = FleetSpec::baseline(channels)
            .shard_channels(shard_channels)
            .years(years)
            .seed(seed)
            .populations(populations)
            .policy(policy);
        drain(&spec, "proptest spec");
    }
}

/// The paper-scale baseline (the spec the golden tests and the bench
/// ladder run).
#[test]
fn paper_baseline_agrees_across_schedulers() {
    drain(&FleetSpec::baseline(10_000), "paper 10k baseline");
}

/// A hot spare-pool fleet exercises every event kind (faults, queued
/// detections, replacements, retirements) through the queue.
#[test]
fn exhausting_spare_pool_agrees_across_schedulers() {
    let spec = FleetSpec::baseline(3000)
        .populations(vec![DimmPopulation::paper("hot").rate_multiplier(30.0)])
        .policy(OperatorPolicy::SparePool { spares_per_10k: 10 });
    let stats = drain(&spec, "spare-pool exhaustion");
    assert!(stats.channels_failed > 0, "need retirements for coverage");
    assert!(stats.replacements > 0);
}

/// Degenerate calendars: the bucket width is the smallest scrub
/// interval, so scrub intervals far finer and far coarser than the
/// default give calendars of millions of tiny buckets (capped) and of a
/// single horizon-wide bucket.
#[test]
fn extreme_bucket_widths_agree() {
    for scrub in [0.01, 1.0, 1000.0, 100_000.0] {
        let spec = FleetSpec::baseline(2000).populations(vec![DimmPopulation::paper("hot")
            .rate_multiplier(8.0)
            .scrub_interval_h(scrub)]);
        drain(&spec, &format!("scrub interval {scrub}"));
    }
}
