//! Fleet-scale smoke/throughput driver for the `arcc-fleet` event
//! engine, doubling as the CI bench-regression gate.
//!
//! Runs the baseline fleet at a ladder of sizes (default
//! `10_000,100_000,1_000_000,10_000_000` channels; override with a
//! comma-separated `ARCC_FLEET_SIZES`) and prints channels/second. The
//! ten-million-channel rung is the CI proof that the engine streams:
//! peak memory is `O(threads × shard)` regardless of fleet size, because
//! shard aggregates merge as they complete and no per-channel fault
//! vector ever exists.
//!
//! When `ARCC_BENCH_BASELINE` names a committed `BENCH_fleet.json`, the
//! measured channels/sec at each rung present in the baseline is checked
//! against it ([`arcc_bench::BenchGate`], shared with the `replay` bin)
//! and the process exits non-zero if any rung drops more than 30% below
//! — the bucket-scheduler throughput is an acceptance artefact, so CI
//! fails when it regresses.
//!
//! With `ARCC_OBS_AB=1` the run also A/B-tests the metrics recorder:
//! best-of-3 [`run_fleet`] against best-of-3
//! [`run_fleet_observed`] at a fixed
//! size, failing when the enabled recorder costs more than
//! [`OBS_AB_TOLERANCE`] — the observability layer's overhead budget is
//! itself a gated acceptance artefact.

use arcc_bench::{best_of, timed, BenchGate};
use arcc_exp::default_threads;
use arcc_fleet::{run_fleet, run_fleet_observed, FleetSpec};

fn sizes() -> Vec<u64> {
    std::env::var("ARCC_FLEET_SIZES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|v| v.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![10_000, 100_000, 1_000_000, 10_000_000])
}

/// Fractional slowdown the enabled recorder may cost before the
/// `ARCC_OBS_AB=1` rung fails the run.
const OBS_AB_TOLERANCE: f64 = 0.05;

/// Channels for the recorder A/B rung: large enough that per-event
/// work dominates setup, small enough to stay cheap in CI.
const OBS_AB_CHANNELS: u64 = 100_000;

/// A/B-tests the metrics recorder when `ARCC_OBS_AB=1`: best-of-3
/// plain vs observed runs, one retry on a noisy first verdict.
/// Returns `false` when the observed run stays over budget.
fn obs_overhead_ab(threads: usize) -> bool {
    if std::env::var("ARCC_OBS_AB").as_deref() != Ok("1") {
        return true;
    }
    let spec = FleetSpec::baseline(OBS_AB_CHANNELS);
    let overhead = |threads: usize, spec: &FleetSpec| {
        let (plain, stats) = best_of(3, || run_fleet(threads, spec));
        let (observed, (obs_stats, snapshot)) = best_of(3, || run_fleet_observed(threads, spec));
        assert_eq!(stats, obs_stats, "observed run must not change results");
        assert!(
            !snapshot.is_empty(),
            "observed run must actually record metrics"
        );
        (plain, observed, observed / plain - 1.0)
    };
    let (mut plain, mut observed, mut delta) = overhead(threads, &spec);
    if delta > OBS_AB_TOLERANCE {
        // One retry before failing: both sides are best-of-3 already,
        // but a loaded CI machine can still skew one whole triple.
        (plain, observed, delta) = overhead(threads, &spec);
    }
    println!();
    println!(
        "obs A/B: {OBS_AB_CHANNELS} channels, plain {plain:.3}s vs observed {observed:.3}s \
         ({})",
        arcc_bench::pct(delta)
    );
    if delta > OBS_AB_TOLERANCE {
        eprintln!(
            "obs A/B FAILED: enabled recorder costs {} (budget {})",
            arcc_bench::pct(delta),
            arcc_bench::pct(OBS_AB_TOLERANCE)
        );
        return false;
    }
    true
}

fn main() {
    let threads = default_threads();
    let mut gate = BenchGate::from_env();

    println!();
    println!("==================================================================");
    println!("fleet: event-driven lifetime engine throughput ({threads} workers)");
    println!("==================================================================");
    println!(
        "{:>12}  {:>10}  {:>14}  {:>10}  {:>8}",
        "channels", "seconds", "channels/sec", "faults", "DUEs"
    );
    for channels in sizes() {
        let spec = FleetSpec::baseline(channels);
        let (secs, stats) = timed(|| run_fleet(threads, &spec));
        let mut rate = channels as f64 / secs;
        println!(
            "{:>12}  {:>10.3}  {:>14.0}  {:>10}  {:>8}",
            channels, secs, rate, stats.faults, stats.due_events
        );
        assert_eq!(stats.channels, channels, "every channel must be simulated");
        if let Some(base_rate) = gate.baseline_rate(channels) {
            let floor = BenchGate::floor_for(base_rate);
            if rate < floor {
                // One retry before failing: the baseline is best-of-3, so
                // a single noisy measurement must not flake the gate.
                let (retry_secs, _) = timed(|| run_fleet(threads, &spec));
                rate = rate.max(channels as f64 / retry_secs);
            }
            if rate < floor {
                gate.fail_rung(channels, rate, base_rate);
            }
        }
    }
    println!();
    println!("memory note: per-channel state exists only while its shard runs;");
    println!("shard aggregates (a few hundred bytes) are merged streaming, in order.");
    let obs_ok = obs_overhead_ab(threads);
    if !gate.finish() || !obs_ok {
        std::process::exit(1);
    }
}
