//! `perfbench` — the ARCC benchmark: the digital twin (`arcc-serve`), the
//! fleet engine (`arcc-fleet`) and the codec zoo (`arcc-gf`), measured end
//! to end and, in a separate traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload log-512k --seed 1 --seconds 60 --trace 0
//! ```
//!
//! Every run drives three phases from one process — `twin-session`,
//! `fleet-synth` and `codec-zoo` — on inputs generated from the seed at the
//! workload's sizes, checks every output against its oracle, and prints
//! one JSON object as its last line. See `README.md` for the metrics.

mod codec;
mod fleet;
mod inputs;
mod trace;
mod twin;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use arcc_fleet::FleetStats;
use arcc_gf::codec::codec_registry;

use crate::codec::{Pass, SpanNames, Tally};
use crate::inputs::{CodecInput, Scale, TwinInput};
use crate::trace::{median, SpanSummary, Tracer};

/// Set-ups timed per round; `setup_s` is the median of all of them.
const SETUP_PER_ROUND: usize = 8;
/// Reopens of the finished state directory timed per round, the
/// session's own included.
const REOPENS_PER_ROUND: usize = 2;
/// Fleet pairs (all threads, then one) every round makes at least.
const FLEET_REPS: usize = 2;
/// Fleet and codec time per round as shares of the round's twin time.
/// The twin session's cost grows with the log, so on a long log a round
/// makes more fleet pairs and codec slices, and every phase gets about the
/// same share of the run on every workload.
const FLEET_SHARE: f64 = 0.3;
const CODEC_SHARE: f64 = 0.15;
/// Seconds of one timed codec slice (per codec and pass).
const CODEC_SLICE_S: f64 = 0.03;
/// Rounds every untraced run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

/// One reported metric and the thread count it ran at.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    threads: usize,
}

/// A run's result: verdict, operation counts, metrics.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64, threads: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            threads,
        });
    }

    fn codec_tally(&mut self, t: &Tally, codec: &str) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        if t.mismatches > 0 {
            self.mismatches.push(format!(
                "codec {codec}: {} lines violate the oracle",
                t.mismatches
            ));
        }
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The inputs of one run, generated from the seed.
struct Inputs {
    twin: TwinInput,
    fleet: arcc_fleet::FleetSpec,
    codecs: Vec<CodecInput>,
    digest: u64,
    seconds: f64,
}

fn generate(seed: u64, scale: &Scale) -> Inputs {
    let start = Instant::now();
    let twin = inputs::twin_input(seed, scale);
    let fleet = inputs::fleet_spec(seed, scale);
    let codecs = inputs::codec_inputs(seed, scale);
    let digest = inputs::digest(&twin, &fleet, &codecs);
    Inputs {
        twin,
        fleet,
        codecs,
        digest,
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Online processors as the kernel lists them (0 when unreadable).
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks `stats` against `expected`, recording a mismatch under `what`.
fn expect_eq(r: &mut Report, what: &str, stats: &FleetStats, expected: &FleetStats) {
    if !stats.bitwise_eq(expected) {
        r.mismatches.push(format!("{what}: FleetStats differ"));
    }
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Timings of a script's steps over rounds: `0[step]` holds one time per
/// round.
#[derive(Debug, Default)]
struct Steps(Vec<Vec<f64>>);

impl Steps {
    fn push(&mut self, times: &[f64]) {
        if self.0.len() < times.len() {
            self.0.resize(times.len(), Vec::new());
        }
        for (samples, t) in self.0.iter_mut().zip(times) {
            samples.push(*t);
        }
    }

    /// Each step's fastest time: host contention only ever slows a step,
    /// so the best of its repetitions is the steadiest estimate of its cost.
    fn best(&self) -> Vec<f64> {
        self.0
            .iter()
            .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }
}

/// Times one set-up of all three phases: open a durable twin over a fresh
/// state directory, build the fleet spec, construct the codec registry and
/// touch each codec (which builds the lazy GF tables on first use).
fn setup_once(a: &Args, scale: &Scale, inp: &Inputs, state: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let engine = twin::open_fresh(&inp.twin, threads(), state)?;
    let spec = inputs::fleet_spec(a.seed, scale);
    let zoo = codec_registry();
    for (c, input) in zoo.iter().zip(&inp.codecs) {
        let mut line = c.encode(input.line(0)).map_err(|e| e.to_string())?;
        c.decode(&mut line, &[]).map_err(|e| e.to_string())?;
    }
    let seconds = t.elapsed().as_secs_f64();
    drop((engine, spec, zoo));
    remove_dir(state);
    Ok(seconds)
}

/// The untraced run: every end-to-end metric. The run repeats a round —
/// set-ups, one twin session and its reopens, fleet pairs, timed slices
/// per codec and pass — until `--seconds` are spent, so every step is
/// timed many times across the whole run. Each step keeps its best time
/// ([`Steps::best`]); the metrics aggregate those. Peak memory is read after
/// the first round: later rounds repeat the same work, and the little they
/// add to the high-water mark is allocator drift that varies with the
/// number of rounds.
fn untraced(
    r: &mut Report,
    a: &Args,
    scale: &Scale,
    inp: &Inputs,
    dir: &Path,
) -> Result<(), String> {
    let n = threads();
    let oracle = twin::oracle(&inp.twin, n)?;
    let registry = codec_registry();
    let names: Vec<SpanNames> = registry.iter().map(|c| SpanNames::of(c.name())).collect();
    let mut setup = Vec::new();
    let (mut ingest, mut whatif, mut query, mut reopen) = (
        Steps::default(),
        Steps::default(),
        Steps::default(),
        Steps::default(),
    );
    let (mut fleet_n, mut fleet_1) = (Steps::default(), Steps::default());
    let (mut clean, mut one_err) = (Steps::default(), Steps::default());
    let mut fleet_first: Option<FleetStats> = None;
    let mut tallies = vec![Tally::default(); registry.len()];
    let mut cursors = vec![0usize; registry.len()];
    let mut peak_mb = 0.0;
    let start = Instant::now();
    for round in 1.. {
        for _ in 0..SETUP_PER_ROUND {
            setup.push(setup_once(a, scale, inp, &dir.join("setup"))?);
        }

        let twin_start = Instant::now();
        let state = dir.join("twin");
        let s = twin::session(&inp.twin, n, &state, &oracle)?;
        r.attempted += s.attempted;
        r.failed += s.failed;
        r.mismatches.extend(s.mismatches);
        ingest.push(&s.ingest_s);
        whatif.push(&s.whatif_ms);
        query.push(&s.query_us);
        reopen.push(&[s.reopen_s]);
        for _ in 1..REOPENS_PER_ROUND {
            r.attempted += 1;
            match twin::timed_reopen(&inp.twin, n, &state) {
                Ok(seconds) => reopen.push(&[seconds]),
                Err(e) => {
                    r.failed += 1;
                    r.mismatches.push(e);
                }
            }
        }
        remove_dir(&state);
        let twin_s = twin_start.elapsed().as_secs_f64();

        let fleet_start = Instant::now();
        for pair in 1.. {
            let (many, t_n) = fleet::timed_run(n, &inp.fleet);
            let (one, t_1) = fleet::timed_run(1, &inp.fleet);
            r.attempted += 2;
            expect_eq(r, "fleet 1 thread vs all threads", &one, &many);
            match &fleet_first {
                Some(f) => expect_eq(r, "fleet repeat", &many, f),
                None => fleet_first = Some(many),
            }
            fleet_n.push(&[t_n]);
            fleet_1.push(&[t_1]);
            let fleet_s = fleet_start.elapsed().as_secs_f64();
            if pair >= FLEET_REPS && fleet_s >= FLEET_SHARE * twin_s {
                break;
            }
        }

        // The codec share of the round, cut into short slices: the best
        // of many short slices is steadier than the best of a few long ones.
        let per_slice = (2 * registry.len()) as f64 * CODEC_SLICE_S;
        let slices = ((CODEC_SHARE * twin_s / per_slice) as usize).max(1);
        for _ in 0..slices {
            let (mut clean_s, mut one_err_s) = (Vec::new(), Vec::new());
            for (k, (c, input)) in registry.iter().zip(&inp.codecs).enumerate() {
                for (pass, per_line) in [
                    (Pass::Clean, &mut clean_s),
                    (Pass::OneError, &mut one_err_s),
                ] {
                    let (cursor, tally) = (&mut cursors[k], &mut tallies[k]);
                    let rate = codec::lines_per_second(
                        &names[k],
                        c.as_ref(),
                        input,
                        pass,
                        CODEC_SLICE_S,
                        cursor,
                        tally,
                    );
                    per_line.push(1.0 / rate);
                }
            }
            clean.push(&clean_s);
            one_err.push(&one_err_s);
        }

        if round == 1 {
            peak_mb = peak_rss_mb();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if round >= MIN_ROUNDS && elapsed * (1.0 + 1.0 / round as f64) > a.seconds {
            break;
        }
    }
    r.metric("setup_s", "s", median(&setup), n);
    let ingest_s: f64 = ingest.best().iter().sum();
    r.metric(
        "ingest_ch_per_s",
        "ch/s",
        inp.twin.log.dimms.len() as f64 / ingest_s,
        n,
    );
    r.metric("whatif_cold_ms", "ms", median(&whatif.best()), n);
    r.metric("query_p50_us", "us", median(&query.best()), n);
    r.metric("reopen_s", "s", reopen.best()[0], n);
    let channels = inp.fleet.channels as f64;
    r.metric("fleet_ch_per_s", "ch/s", channels / fleet_n.best()[0], n);
    r.metric("fleet_1t_ch_per_s", "ch/s", channels / fleet_1.best()[0], 1);

    for (k, (c, input)) in registry.iter().zip(&inp.codecs).enumerate() {
        let mut off = Tracer::off();
        tallies[k].add(&codec::run_pass(
            &mut off,
            &names[k],
            c.as_ref(),
            input,
            Pass::Detect,
            0,
            input.lines(),
        ));
        r.codec_tally(&tallies[k], c.name());
    }
    let lps = |s: &Steps| -> Vec<f64> { s.best().iter().map(|t| 1.0 / t).collect() };
    r.metric(
        "codec_clean_lps",
        "lines/s",
        codec::geomean(&lps(&clean)),
        1,
    );
    r.metric(
        "codec_1err_lps",
        "lines/s",
        codec::geomean(&lps(&one_err)),
        1,
    );
    r.metric("peak_rss_mb", "MB", peak_mb, n);
    Ok(())
}

/// Emits `<name>.count` and `<name>.<unit>.{p50,p90,total}` (plus `.self`
/// for spans with children, `.max` when asked).
fn span_metrics(
    r: &mut Report,
    sums: &std::collections::BTreeMap<&'static str, SpanSummary>,
    name: &str,
    unit: &'static str,
    extra: &[&str],
    threads: usize,
) {
    let s = sums.get(name).copied().unwrap_or_default();
    let scale = if unit == "us" { 1e-3 } else { 1e-6 };
    r.metric(format!("{name}.count"), "count", s.count as f64, threads);
    let mut times = vec![("p50", s.p50_ns), ("p90", s.p90_ns), ("total", s.total_ns)];
    for &e in extra {
        times.push((e, if e == "self" { s.self_ns } else { s.max_ns }));
    }
    for (suffix, ns) in times {
        let metric = format!("{name}.{unit}.{suffix}");
        r.metric(metric, unit, ns as f64 * scale, threads);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: every per-layer metric, and traced ≡ untraced checks.
fn traced(r: &mut Report, inp: &Inputs, dir: &Path, spans_out: &Path) -> Result<(), String> {
    let n = threads();
    let oracle = twin::oracle(&inp.twin, n)?;
    let mut t = Tracer::on();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);

    // The protocol session is the reference the recomposition is checked
    // against. `trace.overhead` compares the recomposition with its tracer
    // off and on, one run each, so that both sides run the same code.
    let (udir, sdir) = (dir.join("twin-untraced"), dir.join("twin-traced"));
    let u = twin::session(&inp.twin, n, &udir, &oracle)?;
    r.attempted += u.attempted;
    r.failed += u.failed;
    r.mismatches.extend(u.mismatches.iter().cloned());
    let recomposed = |tracer: &mut Tracer, r: &mut Report| {
        r.attempted += 1;
        twin::traced_session(
            tracer,
            &inp.twin,
            n,
            &sdir,
            &u,
            &udir,
            &oracle,
            &mut r.mismatches,
        )
    };
    let (_, off_s) = recomposed(&mut Tracer::off(), r)?;
    let (tw, on_s) = recomposed(&mut t, r)?;
    remove_dir(&udir);
    remove_dir(&sdir);
    untraced_s += off_s;
    traced_s += on_s;

    let (many, mut t_n) = fleet::timed_run(n, &inp.fleet);
    let (one, mut t_1) = fleet::timed_run(1, &inp.fleet);
    let (observed, snapshot, mut t_obs) = fleet::timed_observed(n, &inp.fleet);
    // The ratios below divide two timings; best-of-three keeps a burst of
    // host contention in one of them from dominating the ratio.
    for _ in 1..3 {
        t_n = t_n.min(fleet::timed_run(n, &inp.fleet).1);
        t_1 = t_1.min(fleet::timed_run(1, &inp.fleet).1);
        t_obs = t_obs.min(fleet::timed_observed(n, &inp.fleet).2);
    }
    let off = fleet::traced_run(&mut Tracer::off(), n, &inp.fleet);
    let tf = fleet::traced_run(&mut t, n, &inp.fleet);
    r.attempted += 3 * 3 + 2; // three timed triples and the two recomposed runs
    expect_eq(r, "fleet 1 thread vs all threads", &one, &many);
    expect_eq(r, "fleet observed vs plain", &observed, &many);
    expect_eq(r, "fleet recomposed vs run_fleet", &off.stats, &many);
    expect_eq(r, "fleet traced vs untraced", &tf.stats, &many);
    untraced_s += off.seconds;
    traced_s += tf.seconds;

    let registry = codec_registry();
    let mut codec_names = Vec::new();
    for (c, input) in registry.iter().zip(&inp.codecs) {
        let names = SpanNames::of(c.name());
        for pass in [Pass::Clean, Pass::OneError, Pass::Detect] {
            let mut off = Tracer::off();
            let start = Instant::now();
            let plain =
                codec::run_pass(&mut off, &names, c.as_ref(), input, pass, 0, input.lines());
            untraced_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let seen = codec::run_pass(&mut t, &names, c.as_ref(), input, pass, 0, input.lines());
            traced_s += start.elapsed().as_secs_f64();
            if plain != seen {
                r.mismatches
                    .push(format!("codec {}: traced {pass:?} pass differs", c.name()));
            }
            r.codec_tally(&plain, c.name());
            r.codec_tally(&seen, c.name());
        }
        codec_names.push((c.name(), names));
    }

    let sums = t.summarize();
    for (name, unit, extra) in [
        ("serve.ingest", "ms", &["self"][..]),
        ("serve.whatif", "ms", &["self"][..]),
        ("serve.reopen", "ms", &["self"][..]),
        ("replay.parse", "ms", &[][..]),
        ("replay.append", "ms", &[][..]),
        ("fleet.arrivals_extend", "ms", &[][..]),
        ("fleet.extend", "ms", &["self"][..]),
        ("fleet.validate", "ms", &[][..]),
        ("fleet.fingerprint", "ms", &[][..]),
        ("checkpoint.write", "ms", &[][..]),
        ("checkpoint.load", "ms", &[][..]),
        ("fleet.shard", "ms", &["max"][..]),
        ("fleet.merge", "us", &[][..]),
    ] {
        span_metrics(r, &sums, name, unit, extra, n);
    }
    let parse_s = sums.get("replay.parse").map_or(0, |s| s.total_ns) as f64 * 1e-9;
    r.metric(
        "replay.parse.mb_per_s",
        "MB/s",
        ratio(tw.parsed_bytes as f64 / 1e6, parse_s),
        1,
    );
    r.metric("replay.parse.bytes", "bytes", tw.parsed_bytes as f64, 1);
    r.metric(
        "fleet.fingerprint.events_per_ingested_event",
        "ratio",
        ratio(tw.ingest_events_hashed as f64, tw.ingested_events as f64),
        1,
    );
    let ckpt_bytes: Vec<f64> = tw.checkpoint_bytes.iter().map(|&b| b as f64).collect();
    r.metric("checkpoint.bytes", "bytes", median(&ckpt_bytes), 1);
    r.metric(
        "serve.shards_run",
        "count",
        u.metrics.counter("serve.shards_run") as f64,
        n,
    );
    r.metric(
        "serve.persist.checkpoint_bytes",
        "bytes",
        u.metrics.counter("serve.persist.checkpoint_bytes") as f64,
        n,
    );
    let c = u.counters;
    r.metric(
        "serve.memo.hit_ratio",
        "ratio",
        ratio(c.memo_hits as f64, (c.memo_hits + c.queries) as f64),
        n,
    );

    let popped = snapshot.counter("fleet.events.popped") as f64;
    let hits = snapshot.counter("fleet.bypass.hits") as f64;
    let misses = snapshot.counter("fleet.bypass.misses") as f64;
    r.metric("fleet.window.imbalance", "ratio", tf.imbalance, n);
    r.metric("fleet.parallel_speedup", "ratio", ratio(t_1, t_n), n);
    r.metric("fleet.ns_per_event", "ns", ratio(t_1 * 1e9, popped), 1);
    r.metric("fleet.events.popped", "count", popped, n);
    r.metric(
        "fleet.bypass.hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
        n,
    );
    r.metric(
        "fleet.queue.peak",
        "count",
        fleet::gauge(&snapshot, "fleet.queue.peak") as f64,
        n,
    );
    r.metric("obs.recorder_overhead", "ratio", ratio(t_obs, t_n) - 1.0, n);

    for (codec, names) in &codec_names {
        for (op, span) in [
            ("encode_ns", names.encode),
            ("decode_clean_ns", names.decode_clean),
            ("decode_1err_ns", names.decode_1err),
            ("detect_ns", names.detect),
        ] {
            let p50 = sums.get(span).map_or(0, |s| s.p50_ns) as f64;
            r.metric(
                format!("codec.{codec}.{op}"),
                "ns",
                p50 / codec::BATCH as f64,
                1,
            );
        }
    }
    r.metric(
        "trace.overhead",
        "ratio",
        ratio(traced_s, untraced_s) - 1.0,
        n,
    );
    std::fs::write(spans_out, t.to_tsv()).map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(())
}

/// Where runs keep their state directories and span files: the build
/// directory (`CARGO_TARGET_DIR`, else `perfbench/target`).
fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-run")
}

/// Runs one workload at `scale` and returns its report plus the record
/// line (hardware, threads per metric, input digest).
fn execute(a: &Args, scale: &Scale, root: &Path) -> Result<(Report, String), String> {
    let dir = root.join(format!("state-{}", std::process::id()));
    remove_dir(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let inp = generate(a.seed, scale);
    let mut r = Report::default();
    let spans_out = root.join(format!("spans-{}-{}.tsv", a.workload, a.seed));
    let outcome = if a.trace {
        traced(&mut r, &inp, &dir, &spans_out)
    } else {
        untraced(&mut r, a, scale, &inp, &dir)
    };
    remove_dir(&dir);
    outcome?;
    let mut threads_of = String::new();
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(threads_of, "{sep}\"{}\": {}", m.name, m.threads);
    }
    let record = format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"inputs_digest\": \"{:016x}\", \"input_gen_s\": {}, \
         \"mismatches\": {}, \"threads\": {{{threads_of}}}}}}}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        nproc(),
        threads(),
        inp.digest,
        inp.seconds,
        r.mismatches.len(),
    );
    Ok((r, record))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|a| {
        let scale = Scale::for_workload(&a.workload)
            .ok_or_else(|| format!("unknown workload {:?} (log-512k, log-128k)", a.workload))?;
        let root = work_root();
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        execute(&a, &scale, &root)
    });
    match outcome {
        Ok((r, record)) => {
            for m in &r.mismatches {
                eprintln!("MISMATCH: {m}");
            }
            for m in &r.metrics {
                println!(
                    "{:<52} {:>20.6} {:<8} threads={}",
                    m.name, m.value, m.unit, m.threads
                );
            }
            println!("{record}");
            println!("{}", r.json());
            std::process::exit(if r.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            twin_channels: 2048,
            twin_segments: 32,
            shard_channels: 128,
            fleet_channels: 20_000,
            codec_lines: 128,
        }
    }

    fn args(seed: u64, trace: bool) -> Args {
        Args {
            workload: "tiny".to_string(),
            seed,
            seconds: 0.3,
            trace,
        }
    }

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("target/perfbench-test")
    }

    #[test]
    fn the_same_seed_yields_identical_inputs_and_statistics() {
        let (a, b) = (generate(7, &tiny()), generate(7, &tiny()));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.twin.segments, b.twin.segments);
        let (oa, ob) = (
            twin::oracle(&a.twin, 2).unwrap(),
            twin::oracle(&b.twin, 1).unwrap(),
        );
        for ((na, sa), (nb, sb)) in oa.iter().zip(&ob) {
            assert_eq!(na, nb);
            assert!(sa.bitwise_eq(sb), "{na}");
        }
        let (sa, _) = fleet::timed_run(2, &a.fleet);
        let (sb, _) = fleet::timed_run(1, &b.fleet);
        assert!(sa.bitwise_eq(&sb));
    }

    #[test]
    fn a_different_seed_changes_the_inputs() {
        let (a, b) = (generate(7, &tiny()), generate(8, &tiny()));
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.twin.segments, b.twin.segments);
        assert_ne!(a.fleet.fingerprint(), b.fleet.fingerprint());
    }

    /// Metric names of one `BENCHMARK.json` section (`"name": "..."`).
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn every_declared_metric_is_well_named_and_printed() {
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let names = declared(section);
            assert!(!names.is_empty());
            let (r, _) = execute(&args(3, trace), &tiny(), &root()).expect("tiny run");
            assert!(r.correct(), "{:?}", r.mismatches);
            let printed: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            for name in &names {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                assert!(printed.contains(&name.as_str()), "{name} not printed");
            }
            assert_eq!(printed.len(), names.len(), "undeclared metrics printed");
        }
        let _ = std::fs::remove_dir_all(root());
    }
}
