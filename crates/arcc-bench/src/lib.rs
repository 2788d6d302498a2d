//! The experiment and bench harness of the ARCC workspace.
//!
//! Every table and figure of the ARCC paper is a scenario in the
//! in-process registry of [`arcc_exp`] (`arcc::exp`). The `repro_all`
//! binary runs them via [`arcc_exp::repro_all_main`] — all of them, or
//! the ones named on its command line (`repro_all fig7_1`) — printing
//! each rendering and writing JSON reports under `target/repro/`. Its
//! knobs are typed on [`arcc_exp::Experiment`] and read from the
//! environment through [`arcc_exp::Experiment::from_env`].
//!
//! The `bench` binary ([`bench_main`]) measures one layer's throughput
//! ladder: `codec` (encode + clean-decode lines/s of every registry
//! codec), `fleet` (synthetic lifetimes, ch/s at 10k–10M channels),
//! `replay` (replayed ch/s at 10k–1M channels) or `serve` (twin ingest
//! of 8 segments, ch/s at 20k–400k channels).
//!
//! ```text
//! bench <codec|fleet|replay|serve> [--record FILE] [--gate FILE]
//! bench replay --log FILE
//! ```
//!
//! Each rung is measured once, as the best of 3 passes, and that one
//! measurement is printed, written as a `BENCH_*.json` record
//! (`--record`) and compared with one (`--gate`). The gate runs at the
//! record's thread count, refuses a record of another layer or unit,
//! and fails on a rung more than 30% below its record or present on one
//! side only. Gating `fleet` also A/B-tests the metrics recorder:
//! [`run_fleet_observed`] may cost at most 5% over [`run_fleet`].
//! `bench replay --log FILE` measures one rung instead: that field log,
//! replayed under its own inventory-derived spec.
//!
//! The Criterion suites under `benches/` time each layer's primitives;
//! they write no record.

#![forbid(unsafe_code)]

mod record;

use std::path::{Path, PathBuf};

use arcc_core::default_threads;
use arcc_fleet::{run_fleet, run_fleet_observed, run_replay, FleetSpec};
use arcc_gf::codec::codec_registry;
use arcc_obs::{elapsed_secs, Clock, WallClock};
use arcc_replay::{generate_log, FaultLog};
use arcc_serve::{Service, TwinEngine};

use record::{gate, Record, Rung, TOLERANCE};

const LAYERS: [&str; 4] = ["codec", "fleet", "replay", "serve"];
const USAGE: &str = "usage: bench <codec|fleet|replay|serve> [--record FILE] [--gate FILE]
       bench replay --log FILE";
/// Roundtrips per codec rung.
const CODEC_LINES: u64 = 20_000;
/// The ten-million-channel rung shows that the engine streams: peak
/// memory is `O(threads × shard)` at any fleet size.
const FLEET_CHANNELS: [u64; 4] = [10_000, 100_000, 1_000_000, 10_000_000];
const REPLAY_CHANNELS: [u64; 3] = [10_000, 100_000, 1_000_000];
const SERVE_CHANNELS: [u64; 3] = [20_000, 100_000, 400_000];
const SERVE_SEGMENTS: usize = 8;
/// Channels of the recorder A/B: large enough that per-event work
/// dominates set-up, small enough to stay cheap in CI.
const OBS_AB_CHANNELS: u64 = 100_000;
/// Fractional cost the enabled recorder may add before the A/B fails.
const OBS_AB_TOLERANCE: f64 = 0.05;

/// Wall-clock seconds spent in `f`, plus its result, read through the
/// [`arcc_obs::Clock`] abstraction so the only raw `Instant` reads in
/// the workspace live in `arcc-obs`.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let clock = WallClock::new();
    let start = clock.now_nanos();
    let out = f();
    (elapsed_secs(&clock, start), out)
}

/// Best-of-3 timing of `f`: the minimum wall-clock seconds over three
/// passes, plus the result of the final pass. Records are gate
/// baselines, so scheduler noise must not understate them.
fn best_of_3<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best, mut out) = timed(&mut f);
    for _ in 1..3 {
        let (secs, value) = timed(&mut f);
        best = best.min(secs);
        out = value;
    }
    (best, out)
}

/// The rung `id` of `work` units (lines or channels) done by `f`, best
/// of 3, plus the final pass's result.
fn time_rung<T>(id: impl ToString, work: u64, f: impl FnMut() -> T) -> (Rung, T) {
    let (seconds, out) = best_of_3(f);
    let rate = work as f64 / seconds;
    let id = id.to_string();
    (Rung { id, seconds, rate }, out)
}

/// A measured ladder: each rung with a note for the printed table.
type Ladder = Vec<(Rung, String)>;

/// Encode + clean-decode roundtrips per second of every registry codec.
fn codec_ladder() -> Ladder {
    let mut ladder = Vec::new();
    for codec in codec_registry() {
        let data: Vec<u8> = (0..codec.data_bytes())
            .map(|i| (i * 37 + 11) as u8)
            .collect();
        let (rung, clean) = time_rung(codec.name(), CODEC_LINES, || {
            let mut clean = 0u64;
            for _ in 0..CODEC_LINES {
                if let Ok(mut line) = codec.encode(&data) {
                    if let Ok(outcome) = codec.decode(&mut line, &[]) {
                        clean += u64::from(outcome.is_clean());
                    }
                }
            }
            clean
        });
        // Every pass does the same deterministic work, so checking the
        // last one checks them all.
        assert_eq!(clean, CODEC_LINES, "{}: a clean roundtrip failed", rung.id);
        ladder.push((rung, format!("{} devices", codec.devices())));
    }
    ladder
}

/// Synthetic baseline-fleet lifetimes per second.
fn fleet_ladder(threads: usize) -> Ladder {
    let mut ladder = Vec::new();
    for channels in FLEET_CHANNELS {
        let spec = FleetSpec::baseline(channels);
        let (rung, stats) = time_rung(channels, channels, || run_fleet(threads, &spec));
        assert_eq!(stats.channels, channels, "every channel must be simulated");
        ladder.push((
            rung,
            format!("faults={} DUEs={}", stats.faults, stats.due_events),
        ));
    }
    ladder
}

/// One replay rung: parses `text` (timed alone, noted as MB/s), then
/// replays it best of 3 under `spec`, or under the log's own
/// inventory-derived spec when `spec` is `None`.
fn replay_rung(
    id: &str,
    threads: usize,
    text: &str,
    spec: Option<FleetSpec>,
) -> Result<(Rung, String), String> {
    let (parse_secs, log) = timed(|| FaultLog::parse(text));
    let log = log.map_err(|e| format!("{id} does not parse: {e}"))?;
    let spec = spec.unwrap_or_else(|| log.replay_spec(0xF1EE7));
    let arrivals = log.arrivals().map_err(|e| e.to_string())?;
    let (rung, stats) = time_rung(id, spec.channels, || run_replay(threads, &spec, &arrivals));
    let stats = stats.map_err(|e| e.to_string())?;
    assert_eq!(
        stats.channels, spec.channels,
        "every channel must be replayed"
    );
    let (mb, faults, dues) = (text.len() as f64 / 1e6, stats.faults, stats.due_events);
    let parse = mb / parse_secs;
    let note = format!("log {mb:.1} MB, parse {parse:.0} MB/s, faults={faults} DUEs={dues}");
    Ok((rung, note))
}

/// Replayed channels per second over generated logs; generating and
/// parsing a log is not part of its rung.
fn replay_ladder(threads: usize) -> Result<Ladder, String> {
    let mut ladder = Vec::new();
    for channels in REPLAY_CHANNELS {
        let spec = FleetSpec::baseline(channels);
        let text = generate_log(&spec).to_text();
        let rung = replay_rung(&channels.to_string(), threads, &text, Some(spec))?;
        ladder.push(rung);
    }
    Ok(ladder)
}

/// Reads a file the command line names.
fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Channels per second ingested through the twin service, end to end
/// (parse, arrival extension, checkpoint extension); the note times the
/// what-if ladder over the ingested fleet.
fn serve_ladder(threads: usize) -> Result<Ladder, String> {
    let mut ladder = Vec::new();
    for channels in SERVE_CHANNELS {
        let log = generate_log(&FleetSpec::baseline(channels));
        let per_segment = (log.dimms.len() / SERVE_SEGMENTS).max(1);
        let split = log.split_channels(per_segment);
        let segments: Vec<String> = split.iter().map(|s| s.to_text()).collect();
        let (rung, service) = time_rung(channels, channels, || {
            let mut service = Service::new(TwinEngine::new(threads, 0x5E21).shard_channels(4096));
            for text in &segments {
                let request = format!("ingest lines={}", text.lines().count());
                let reply = service.handle(&request, Some(text));
                if !reply.starts_with("{\"ok\":true") {
                    return Err(format!("ingest refused: {reply}"));
                }
            }
            Ok(service)
        });
        let mut service = service?;
        assert_eq!(
            service.engine().channels(),
            channels,
            "every channel must be ingested"
        );
        // The cold fork simulates the divergent prefix, the warm query
        // of its branch at most one tail shard, the memoised re-issue
        // nothing at all.
        let request = "whatif policy=replace-on-due";
        let (cold, cold_reply) = timed(|| service.handle(request, None));
        let (warm, _) = timed(|| service.handle("query-stats branch=whatif:replace-on-due", None));
        let (memo, memo_reply) = timed(|| service.handle(request, None));
        assert_eq!(
            cold_reply, memo_reply,
            "memoised reply must be byte-identical"
        );
        let (cold, warm, memo) = (cold * 1e3, warm * 1e3, memo * 1e3);
        let note = format!("what-if cold {cold:.1} ms, warm {warm:.1} ms, memo {memo:.3} ms");
        ladder.push((rung, note));
    }
    Ok(ladder)
}

/// A/B-tests the metrics recorder: best-of-3 plain against best-of-3
/// observed fleet runs, retried once on a noisy first verdict. Returns
/// whether the observed run stays within [`OBS_AB_TOLERANCE`].
fn obs_overhead_ab(threads: usize) -> bool {
    let spec = FleetSpec::baseline(OBS_AB_CHANNELS);
    let overhead = || {
        let (plain, stats) = best_of_3(|| run_fleet(threads, &spec));
        let (observed, (obs_stats, snapshot)) = best_of_3(|| run_fleet_observed(threads, &spec));
        assert_eq!(stats, obs_stats, "observed run must not change results");
        assert!(!snapshot.is_empty(), "observed run must record metrics");
        observed / plain - 1.0
    };
    let mut delta = overhead();
    if delta > OBS_AB_TOLERANCE {
        // Both sides are best-of-3 already, but a loaded machine can
        // still skew one whole triple.
        delta = overhead();
    }
    let ok = delta <= OBS_AB_TOLERANCE;
    let (cost, budget) = (delta * 100.0, OBS_AB_TOLERANCE * 100.0);
    let verdict = format!("costs {cost:+.1}% at {OBS_AB_CHANNELS} channels (budget {budget:.0}%)");
    if ok {
        println!("obs A/B: the recorder {verdict}");
    } else {
        eprintln!("obs A/B FAILED: the recorder {verdict}");
    }
    ok
}

/// Runs one `bench` invocation (`args` as the binary takes them);
/// `Ok(false)` is a failed gate.
fn run(args: &[String]) -> Result<bool, String> {
    let usage = |problem: &str| format!("{problem}\n{USAGE}");
    let (layer, flags) = args.split_first().ok_or_else(|| usage("no layer named"))?;
    if !LAYERS.contains(&layer.as_str()) {
        return Err(usage(&format!("unknown layer {layer:?}")));
    }
    let (mut record, mut gate_file, mut log) = (None, None, None);
    for pair in flags.chunks(2) {
        let slot = match pair[0].as_str() {
            "--record" => &mut record,
            "--gate" => &mut gate_file,
            "--log" if layer == "replay" => &mut log,
            flag => return Err(usage(&format!("unknown argument {flag:?}"))),
        };
        let [_, file] = pair else {
            return Err(usage(&format!("{} needs a file", pair[0])));
        };
        *slot = Some(PathBuf::from(file));
    }
    if log.is_some() && (record.is_some() || gate_file.is_some()) {
        return Err(usage("--log neither records nor gates"));
    }

    let baseline = match gate_file {
        Some(path) => {
            let parsed = Record::parse(&read(&path)?);
            Some((
                parsed.map_err(|e| format!("{}: {e}", path.display()))?,
                path,
            ))
        }
        None => None,
    };
    let threads = baseline
        .as_ref()
        .map_or_else(default_threads, |(b, _)| b.threads);
    let (threads, ladder) = match (layer.as_str(), log) {
        ("codec", _) => (1, codec_ladder()),
        ("fleet", _) => (threads, fleet_ladder(threads)),
        ("replay", Some(path)) => {
            let rung = replay_rung(&path.display().to_string(), threads, &read(&path)?, None)?;
            (threads, vec![rung])
        }
        ("replay", None) => (threads, replay_ladder(threads)?),
        _ => (threads, serve_ladder(threads)?),
    };
    let unit = if layer == "codec" { "lines/s" } else { "ch/s" };
    let (rungs, notes): (Vec<Rung>, Vec<String>) = ladder.into_iter().unzip();
    let run = Record {
        bench: layer.clone(),
        threads,
        unit: unit.to_string(),
        rungs,
    };

    println!("bench {layer}: best of 3 passes per rung, {threads} thread(s)");
    println!("{:>16}  {:>10}  {:>14}  note", "rung", "seconds", run.unit);
    for (rung, note) in run.rungs.iter().zip(&notes) {
        let (id, seconds, rate) = (&rung.id, rung.seconds, rung.rate);
        println!("{id:>16}  {seconds:>10.4}  {rate:>14.0}  {note}");
    }
    if let Some(path) = record {
        std::fs::write(&path, run.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("record written to {}", path.display());
    }
    let Some((baseline, path)) = baseline else {
        return Ok(true);
    };
    let failures = gate(&baseline, &run)
        .map_err(|why| format!("gate against {} refused: {why}", path.display()))?;
    for failure in &failures {
        eprintln!("bench gate FAILED: {failure}");
    }
    if failures.is_empty() {
        let (n, path, tolerance) = (run.rungs.len(), path.display(), TOLERANCE * 100.0);
        println!("bench gate: all {n} rung(s) within {tolerance:.0}% of {path}");
    }
    let recorder_ok = layer != "fleet" || obs_overhead_ab(threads);
    Ok(failures.is_empty() && recorder_ok)
}

/// Entry point of the `bench` binary: measures one layer's ladder and
/// prints, records or gates it as `args` (the arguments after the
/// program name) ask; see the crate docs. Returns the process exit
/// code: 0, or 1 for a failed gate or any error, reported on stderr.
pub fn bench_main(args: &[String]) -> i32 {
    match run(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("bench: {message}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers_time_and_return() {
        let (secs, value) = timed(|| 6 * 7);
        assert_eq!(value, 42);
        assert!(secs >= 0.0 && secs.is_finite());

        let mut pass = 0u32;
        let (best, last) = best_of_3(|| {
            pass += 1;
            pass
        });
        assert_eq!(pass, 3, "best_of_3 must run every pass");
        assert_eq!(last, 3, "best_of_3 returns the final pass's result");
        assert!(best >= 0.0 && best.is_finite());
    }
}
