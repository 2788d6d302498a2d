//! Same-bits golden for the replay engine: a generated mixed-population
//! log replayed under every operator policy, pinned byte for byte.
//!
//! The log is generated from a small mixed fleet, serialised and parsed
//! back; each case replays it through [`run_until`] with a metrics
//! recorder and renders the finished checkpoint
//! ([`FleetCheckpoint::to_text`]) and the `fleet.*` metric snapshot
//! (Prometheus text). The cases concatenated must equal
//! `tests/same_bits/replay.txt`. Replay runs the same shard engine as a
//! synthetic run, with arrivals taken from the log instead of drawn, so
//! this pins the engine's replay mode the way `arcc-fleet`'s
//! `tests/same_bits.rs` pins its synthetic mode.

use arcc_fleet::{run_until, DimmPopulation, FleetCheckpoint, FleetSpec, OperatorPolicy};
use arcc_obs::{to_prometheus, SnapshotRecorder};
use arcc_replay::{generate_log, FaultLog};

const GOLDEN: &str = include_str!("same_bits/replay.txt");

/// The mixed fleet the log is generated from (and replayed under).
fn mixed_spec() -> FleetSpec {
    FleetSpec::baseline(1_200)
        .years(6.0)
        .seed(0x004E_91A7)
        .shard_channels(256)
        .populations(vec![
            DimmPopulation::paper("arcc")
                .weight(0.5)
                .rate_multiplier(35.0),
            DimmPopulation::paper("sccdcd")
                .weight(0.3)
                .rate_multiplier(50.0)
                .scrub_interval_h(2.0)
                .scheme("sccdcd"),
            DimmPopulation::paper("s8sc")
                .weight(0.2)
                .rate_multiplier(25.0)
                .scrub_interval_h(8.0)
                .large_fault_multiplier(3.0)
                .scheme("s8sc"),
        ])
}

#[test]
fn replayed_runs_match_the_golden_bytes() {
    let spec = mixed_spec();
    let log = FaultLog::parse(&generate_log(&spec).to_text()).expect("generated logs parse");
    let arrivals = log.arrivals().expect("generated logs build arrivals");
    let policies = [
        ("none", OperatorPolicy::None),
        ("replace-on-due", OperatorPolicy::ReplaceOnDue),
        (
            "spare-pool",
            OperatorPolicy::SparePool { spares_per_10k: 40 },
        ),
    ];
    let mut actual = String::new();
    for (name, policy) in policies {
        let spec = spec.clone().policy(policy);
        let mut rec = SnapshotRecorder::new();
        let start = FleetCheckpoint::start_replay(&spec, &arrivals);
        let done =
            run_until(2, &spec, Some(&arrivals), start, u64::MAX, &mut rec).expect("replay run");
        let snapshot = to_prometheus(&rec.into_snapshot());
        actual.push_str(&format!("== {name} ==\n{}{snapshot}", done.to_text()));
    }
    for (line, (got, want)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the golden moved", line + 1);
    }
    assert_eq!(actual, GOLDEN, "the golden's length moved");
}
