//! Trace-driven replay driver: parse → replay → report, with a
//! channels/sec ladder, doubling as the replay-mode CI bench gate.
//!
//! Two modes:
//!
//! * **ladder** (default): for each rung of `ARCC_REPLAY_SIZES` (default
//!   `10_000,100_000,1_000_000` channels) a fault log is generated from
//!   the baseline fleet spec, serialised to text, re-ingested through the
//!   strict parser, and replayed — timing the parse (MB/s) and the
//!   replay (channels/sec) separately. When `ARCC_BENCH_BASELINE` names
//!   a committed `BENCH_replay.json`, measured replay throughput is
//!   gated against it exactly like the synthetic `fleet` bin
//!   ([`arcc_bench::BenchGate`]).
//! * **file** (`ARCC_REPLAY_LOG=<path>`): parse that log instead,
//!   replay it under its own inventory-derived spec, and report — the
//!   real ingestion path for field data.

use arcc_bench::{timed, BenchGate};
use arcc_exp::default_threads;
use arcc_fleet::{run_replay, FleetSpec, FleetStats, ReplayArrivals};
use arcc_replay::{generate_log, FaultLog};

fn sizes() -> Vec<u64> {
    std::env::var("ARCC_REPLAY_SIZES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|v| v.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![10_000, 100_000, 1_000_000])
}

fn report(stats: &FleetStats) {
    println!(
        "  replayed: faults={} DUEs={} SDC channels={} upgraded fraction={:.5}",
        stats.faults,
        stats.due_events,
        stats.sdc_channels,
        stats.avg_upgraded_fraction()
    );
}

/// Parses a serialised log, timing the parse alone; `what` names the log
/// in the error message.
fn parse_timed(what: &str, text: &str) -> (f64, FaultLog) {
    timed(|| {
        FaultLog::parse(text).unwrap_or_else(|e| {
            eprintln!("{what} does not parse: {e}");
            std::process::exit(1);
        })
    })
}

/// The arrival streams of a parsed log, which it consumes.
fn arrivals_of(log: FaultLog) -> ReplayArrivals {
    log.arrivals().unwrap_or_else(|e| {
        eprintln!("log arrivals invalid: {e}");
        std::process::exit(1);
    })
}

/// Replays `arrivals` under `spec`, timing the replay alone.
fn replay_timed(threads: usize, spec: &FleetSpec, arrivals: &ReplayArrivals) -> (f64, FleetStats) {
    timed(|| {
        run_replay(threads, spec, arrivals).unwrap_or_else(|e| {
            eprintln!("replay failed: {e}");
            std::process::exit(1);
        })
    })
}

fn main() {
    let threads = default_threads();

    if let Ok(path) = std::env::var("ARCC_REPLAY_LOG") {
        // Field-data mode: one log from disk, spec derived from its
        // inventory.
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        let (parse_secs, log) = parse_timed(&path, &text);
        let spec = log.replay_spec(0xF1EE7);
        println!(
            "replaying {path}: {} dimms, {} classes, {} faults over {} years",
            log.dimms.len(),
            log.classes.len(),
            log.faults.len(),
            log.years
        );
        let (replay_secs, stats) = replay_timed(threads, &spec, &arrivals_of(log));
        println!(
            "  parse {parse_secs:.3}s ({:.0} MB/s), replay {replay_secs:.3}s",
            text.len() as f64 / 1e6 / parse_secs
        );
        report(&stats);
        return;
    }

    let mut gate = BenchGate::from_env();
    println!();
    println!("==================================================================");
    println!("replay: trace-driven fleet ingestion + replay ({threads} workers)");
    println!("==================================================================");
    println!(
        "{:>12}  {:>10}  {:>11}  {:>10}  {:>14}  {:>9}",
        "channels", "log MB", "parse MB/s", "seconds", "channels/sec", "faults"
    );
    for channels in sizes() {
        let spec = FleetSpec::baseline(channels);
        let text = generate_log(&spec).to_text();
        let mb = text.len() as f64 / 1e6;
        let (parse_secs, log) = parse_timed("generated log", &text);
        let arrivals = arrivals_of(log);
        let (replay_secs, stats) = replay_timed(threads, &spec, &arrivals);
        let mut rate = channels as f64 / replay_secs;
        println!(
            "{:>12}  {:>10.1}  {:>11.0}  {:>10.3}  {:>14.0}  {:>9}",
            channels,
            mb,
            mb / parse_secs,
            replay_secs,
            rate,
            stats.faults
        );
        assert_eq!(stats.channels, channels, "every channel must be replayed");
        if let Some(base_rate) = gate.baseline_rate(channels) {
            let floor = BenchGate::floor_for(base_rate);
            if rate < floor {
                // One retry before failing (baseline is best-of-3).
                let (retry_secs, _) = replay_timed(threads, &spec, &arrivals);
                rate = rate.max(channels as f64 / retry_secs);
            }
            if rate < floor {
                gate.fail_rung(channels, rate, base_rate);
            }
        }
    }
    println!();
    println!("note: replay shares the scheduler, stats, and checkpoint machinery with");
    println!("synthetic runs; a generated log replays bit-identically to its spec.");
    if !gate.finish() {
        std::process::exit(1);
    }
}
