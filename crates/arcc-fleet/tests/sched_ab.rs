//! Scheduler A/B: the calendar/bucket scheduler must be observationally
//! identical to the reference heap scheduler — byte-for-byte equal
//! `FleetStats` on the same spec, across random populations, scrub
//! cadences, policies, shard sizes, and bucket widths — and the
//! checkpoint/resume contract must hold under (and *across*) both.

use arcc_fleet::{
    run_fleet, run_until, DimmPopulation, FleetCheckpoint, FleetSpec, OperatorPolicy, SchedulerKind,
};
use arcc_obs::NoopRecorder;
use proptest::prelude::*;

fn assert_bitwise_eq(heap: &arcc_fleet::FleetStats, bucket: &arcc_fleet::FleetStats, what: &str) {
    assert!(
        heap.bitwise_eq(bucket),
        "{what}: schedulers diverged\nheap:   {heap:?}\nbucket: {bucket:?}"
    );
}

fn ab(spec: &FleetSpec, what: &str) {
    let heap = run_fleet(2, &spec.clone().scheduler(SchedulerKind::Heap));
    let bucket = run_fleet(2, &spec.clone().scheduler(SchedulerKind::Bucket));
    assert_bitwise_eq(&heap, &bucket, what);
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

    /// The headline contract: random fleets, bit-identical stats.
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
        width in 0.5f64..40.0,
        explicit_width in any::<bool>(),
    ) {
        let mut populations = vec![pop_a];
        if two_pops {
            populations.push(pop_b);
        }
        let mut spec = FleetSpec::baseline(channels)
            .shard_channels(shard_channels)
            .years(years)
            .seed(seed)
            .populations(populations)
            .policy(policy);
        if explicit_width {
            spec = spec.bucket_width_h(width);
        }
        ab(&spec, "proptest spec");
    }

    /// Checkpoints cross the scheduler boundary: a prefix computed under
    /// one scheduler, serialised to text, resumes under the other and
    /// still reproduces the uninterrupted run bit-for-bit.
    #[test]
    fn checkpoint_resume_crosses_schedulers(
        seed in any::<u64>(),
        stop in 1u64..4,
        heap_first in any::<bool>(),
    ) {
        let (first, second) = if heap_first {
            (SchedulerKind::Heap, SchedulerKind::Bucket)
        } else {
            (SchedulerKind::Bucket, SchedulerKind::Heap)
        };
        let spec = FleetSpec::baseline(1200)
            .shard_channels(256)
            .seed(seed)
            .populations(vec![DimmPopulation::paper("hot").rate_multiplier(12.0)])
            .policy(OperatorPolicy::SparePool { spares_per_10k: 30 });
        let (first, second) = (spec.clone().scheduler(first), spec.scheduler(second));
        let full = run_fleet(2, &first);
        let noop = &mut NoopRecorder;
        let start = FleetCheckpoint::start(&first);
        let half = run_until(2, &first, None, start, stop, noop).expect("prefix");
        let parsed = FleetCheckpoint::from_text(&half.to_text()).expect("round trip");
        let resumed = run_until(2, &second, None, parsed, u64::MAX, noop).expect("resume");
        assert_bitwise_eq(&full, &resumed.stats, "cross-scheduler resume");
    }
}

/// Deterministic pin of the paper-scale baseline (the spec the golden
/// tests and the bench ladder run).
#[test]
fn paper_baseline_agrees_across_schedulers() {
    let spec = FleetSpec::baseline(10_000);
    ab(&spec, "paper 10k baseline");
}

/// A hot spare-pool fleet exercises every event kind (faults, queued
/// detections, replacements, retirements) through both queues.
#[test]
fn exhausting_spare_pool_agrees_across_schedulers() {
    let spec = FleetSpec::baseline(3000)
        .populations(vec![DimmPopulation::paper("hot").rate_multiplier(30.0)])
        .policy(OperatorPolicy::SparePool { spares_per_10k: 10 });
    let heap = run_fleet(2, &spec.clone().scheduler(SchedulerKind::Heap));
    let bucket = run_fleet(2, &spec.clone().scheduler(SchedulerKind::Bucket));
    assert!(heap.channels_failed > 0, "need retirements for coverage");
    assert!(heap.replacements > 0);
    assert_bitwise_eq(&heap, &bucket, "spare-pool exhaustion");
}

/// Degenerate calendar widths (far coarser and far finer than the scrub
/// interval) must not change a single bit either.
#[test]
fn extreme_bucket_widths_agree() {
    let base = FleetSpec::baseline(2000)
        .populations(vec![DimmPopulation::paper("hot").rate_multiplier(8.0)]);
    let heap = run_fleet(2, &base.clone().scheduler(SchedulerKind::Heap));
    for width in [0.01, 1.0, 1000.0, 100_000.0] {
        let bucket = run_fleet(
            2,
            &base
                .clone()
                .scheduler(SchedulerKind::Bucket)
                .bucket_width_h(width),
        );
        assert_bitwise_eq(&heap, &bucket, &format!("width {width}"));
    }
}
