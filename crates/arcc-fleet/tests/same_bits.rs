//! Same-bits golden for the synthetic engine: small mixed-population
//! fleets under every operator policy, pinned byte for byte.
//!
//! Each case runs one fleet to completion through [`run_until`] with a
//! metrics recorder and renders the finished checkpoint
//! ([`FleetCheckpoint::to_text`], every float as its bit pattern) and the
//! `fleet.*` metric snapshot (Prometheus text). The cases concatenated
//! must equal `tests/same_bits/synthetic.txt`. An engine change that
//! claims the same bits keeps this file untouched; a change that means to
//! move a result regenerates it and says why.
//!
//! The mix covers every classification branch: adaptive ARCC, a
//! full-width static code (SCCDCD), a half-width static code (S8SC) and
//! MultiECC, at rates high enough for DUEs, SDCs, replacements and a dry
//! spare pool, over shards of 256 channels with a partial last shard.

use arcc_fleet::{run_until, DimmPopulation, FleetCheckpoint, FleetSpec, OperatorPolicy};
use arcc_obs::{to_prometheus, SnapshotRecorder};

const GOLDEN: &str = include_str!("same_bits/synthetic.txt");

/// The mixed fleet every case runs, under `policy`.
fn mixed_spec(policy: OperatorPolicy) -> FleetSpec {
    FleetSpec::baseline(1_500)
        .years(5.0)
        .seed(0x5A4E_B175)
        .shard_channels(256)
        .policy(policy)
        .populations(vec![
            DimmPopulation::paper("arcc")
                .weight(0.4)
                .rate_multiplier(30.0),
            DimmPopulation::paper("sccdcd")
                .weight(0.25)
                .rate_multiplier(45.0)
                .scrub_interval_h(2.0)
                .scheme("sccdcd"),
            DimmPopulation::paper("s8sc")
                .weight(0.2)
                .rate_multiplier(20.0)
                .scrub_interval_h(12.0)
                .large_fault_multiplier(4.0)
                .scheme("s8sc"),
            DimmPopulation::paper("multi-ecc")
                .weight(0.15)
                .rate_multiplier(60.0)
                .scrub_interval_h(3.0)
                .scheme("multi-ecc"),
        ])
}

/// One case's rendering: header, checkpoint text, metric snapshot.
fn render(name: &str, spec: &FleetSpec) -> String {
    let mut rec = SnapshotRecorder::new();
    let start = FleetCheckpoint::start(spec);
    let done = run_until(2, spec, None, start, u64::MAX, &mut rec).expect("synthetic run");
    let snapshot = to_prometheus(&rec.into_snapshot());
    format!("== {name} ==\n{}{snapshot}", done.to_text())
}

#[test]
fn synthetic_runs_match_the_golden_bytes() {
    let policies = [
        ("none", OperatorPolicy::None),
        ("replace-on-due", OperatorPolicy::ReplaceOnDue),
        (
            "spare-pool",
            OperatorPolicy::SparePool { spares_per_10k: 40 },
        ),
    ];
    let actual: String = policies
        .iter()
        .map(|(name, policy)| render(name, &mixed_spec(*policy)))
        .collect();
    for (line, (got, want)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the golden moved", line + 1);
    }
    assert_eq!(actual, GOLDEN, "the golden's length moved");
}
