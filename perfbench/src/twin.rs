//! The `twin-session` phase: one closed-loop client driving a durable
//! `arcc-serve` twin through `Service::handle`, plus its traced
//! recomposition from the layers' public functions.
//!
//! Session script: ingest the first half of the segments, each followed
//! by `query-stats branch=baseline`; cold `whatif` under every policy in
//! [`POLICIES`]; ingest the second half (each ingest now extends and
//! persists 1 + K branches); query every branch; issue every `whatif`
//! twice (the second is a memo hit); reopen the state directory.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use arcc_core::parallel_map;
use arcc_fleet::{
    run_replay, run_shard_replay, FleetCheckpoint, FleetSpec, FleetStats, OperatorPolicy,
    ReplayArrivals,
};
use arcc_obs::MetricsSnapshot;
use arcc_replay::FaultLog;
use arcc_serve::{parse_policy, policy_token, Counters, Service, TwinEngine, BASELINE_BRANCH};

use crate::inputs::TwinInput;
use crate::trace::Tracer;

/// The what-if policy set, in request order.
pub const POLICIES: [&str; 5] = [
    "replace-on-due",
    "spare-pool:5",
    "spare-pool:10",
    "spare-pool:20",
    "spare-pool:40",
];

/// Shards run per merge window, as a multiple of the worker count (the
/// fleet runner's window).
const WINDOW_FACTOR: usize = 4;

type Res<T> = Result<T, String>;

/// Every branch a session ends with: the baseline plus one per policy.
pub fn branch_plan() -> Vec<(String, OperatorPolicy)> {
    let mut plan = vec![(BASELINE_BRANCH.to_string(), OperatorPolicy::None)];
    for p in POLICIES {
        let policy = parse_policy(p).expect("POLICIES holds valid tokens");
        plan.push((format!("whatif:{}", policy_token(policy)), policy));
    }
    plan
}

/// The replay spec the twin runs a branch under (population weights
/// pinned to 1, as the engine does).
pub fn spec_for(log: &FaultLog, seed: u64, shard: u32, policy: OperatorPolicy) -> FleetSpec {
    let mut spec = log.replay_spec(seed).policy(policy).shard_channels(shard);
    for p in &mut spec.populations {
        p.weight = 1.0;
    }
    spec
}

/// From-zero `run_replay` of the whole log under every planned policy.
pub fn oracle(input: &TwinInput, threads: usize) -> Res<Vec<(String, FleetStats)>> {
    let arrivals = input.log.arrivals().map_err(|e| e.to_string())?;
    branch_plan()
        .into_iter()
        .map(|(name, policy)| {
            let spec = spec_for(&input.log, input.engine_seed, input.shard_channels, policy);
            run_replay(threads, &spec, &arrivals)
                .map(|s| (name, s))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// What one untraced session measured and checked.
#[derive(Debug, Default)]
pub struct Session {
    /// Seconds spent in each ingest request, in segment order.
    pub ingest_s: Vec<f64>,
    /// Channels ingested.
    pub channels: u64,
    /// `query-stats` latencies in µs.
    pub query_us: Vec<f64>,
    /// Cold `whatif` latencies in ms.
    pub whatif_ms: Vec<f64>,
    /// Seconds to reopen the state directory.
    pub reopen_s: f64,
    /// Requests issued (plus the reopen).
    pub attempted: u64,
    /// Requests answered with a non-`ok` reply (or a failed reopen).
    pub failed: u64,
    /// Oracle mismatches.
    pub mismatches: Vec<String>,
    /// The engine's metric snapshot before reopening.
    pub metrics: MetricsSnapshot,
    /// The reopened engine's metric snapshot, taken right after the open.
    pub reopen_metrics: MetricsSnapshot,
    /// The engine's work counters before reopening.
    pub counters: Counters,
}

impl Session {
    fn request(&mut self, service: &mut Service, request: &str, payload: Option<&str>) -> String {
        self.attempted += 1;
        let reply = service.handle(request, payload);
        if !reply.starts_with("{\"ok\":true") {
            self.failed += 1;
            self.mismatches
                .push(format!("{request:?} failed: {}", first_line(&reply)));
        }
        reply
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("")
}

/// Opens a fresh durable twin in `dir` (the workload's set-up step).
pub fn open_fresh(input: &TwinInput, threads: usize, dir: &Path) -> Res<TwinEngine> {
    let _ = std::fs::remove_dir_all(dir);
    TwinEngine::open(threads, input.engine_seed, input.shard_channels, dir)
        .map_err(|e| e.to_string())
}

/// Runs the session script through the protocol against `oracle`, leaving
/// the state directory in place for the caller.
pub fn session(
    input: &TwinInput,
    threads: usize,
    dir: &Path,
    oracle: &[(String, FleetStats)],
) -> Res<Session> {
    let mut out = Session::default();
    let mut service = Service::new(open_fresh(input, threads, dir)?);
    let half = input.segments.len() / 2;
    let ingest = |out: &mut Session, service: &mut Service, i: usize| {
        let request = format!("ingest lines={}", input.segment_lines[i]);
        let t = Instant::now();
        out.request(service, &request, Some(&input.segments[i]));
        out.ingest_s.push(t.elapsed().as_secs_f64());
    };
    for i in 0..half {
        ingest(&mut out, &mut service, i);
        let t = Instant::now();
        out.request(&mut service, "query-stats branch=baseline", None);
        out.query_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    for p in POLICIES {
        let t = Instant::now();
        out.request(&mut service, &format!("whatif policy={p}"), None);
        out.whatif_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    for i in half..input.segments.len() {
        ingest(&mut out, &mut service, i);
    }
    let mut final_replies = Vec::new();
    for (name, _) in oracle {
        let t = Instant::now();
        let reply = out.request(&mut service, &format!("query-stats branch={name}"), None);
        out.query_us.push(t.elapsed().as_secs_f64() * 1e6);
        final_replies.push(reply);
    }
    let hits_before = service.engine().counters().memo_hits;
    for p in POLICIES {
        let request = format!("whatif policy={p}");
        let first = out.request(&mut service, &request, None);
        let again = out.request(&mut service, &request, None);
        if first != again {
            out.mismatches.push(format!(
                "memo re-issue of {request:?} is not byte-identical"
            ));
        }
    }
    let hits = service.engine().counters().memo_hits - hits_before;
    if hits != POLICIES.len() as u64 {
        out.mismatches.push(format!(
            "expected {} memo hits on re-issue, saw {hits}",
            POLICIES.len()
        ));
    }
    out.channels = service.engine().channels();
    out.metrics = service.engine().metrics().clone();
    out.counters = service.engine().counters();
    drop(service);

    out.attempted += 1;
    let t = Instant::now();
    let reopened = TwinEngine::open(threads, input.engine_seed, input.shard_channels, dir);
    out.reopen_s = t.elapsed().as_secs_f64();
    let mut engine = match reopened {
        Ok(engine) => engine,
        Err(e) => {
            out.failed += 1;
            out.mismatches.push(format!("reopen failed: {e}"));
            return Ok(out);
        }
    };
    out.reopen_metrics = engine.metrics().clone();
    for (name, expected) in oracle {
        match engine.stats(name) {
            Ok(stats) if stats.bitwise_eq(expected) => {}
            Ok(_) => out.mismatches.push(format!(
                "branch {name}: stats differ from a from-zero run_replay"
            )),
            Err(e) => out.mismatches.push(format!("branch {name}: {e}")),
        }
    }
    let mut service = Service::new(engine);
    for ((name, _), before) in oracle.iter().zip(&final_replies) {
        let after = service.handle(&format!("query-stats branch={name}"), None);
        if &after != before {
            out.mismatches.push(format!(
                "branch {name}: reopened engine answers differently"
            ));
        }
    }
    Ok(out)
}

/// Times one more `TwinEngine::open` of a finished session's state
/// directory. Every reopen does the same work: it parses every segment,
/// re-extends no shard and rewrites the same checkpoints.
pub fn timed_reopen(input: &TwinInput, threads: usize, dir: &Path) -> Res<f64> {
    let t = Instant::now();
    let engine = TwinEngine::open(threads, input.engine_seed, input.shard_channels, dir)
        .map_err(|e| format!("reopen failed: {e}"))?;
    let seconds = t.elapsed().as_secs_f64();
    drop(engine);
    Ok(seconds)
}

/// A branch of the traced twin: policy, spec and checkpoint.
struct Branch {
    policy: OperatorPolicy,
    spec: FleetSpec,
    ckpt: FleetCheckpoint,
}

/// Exact work counts of a traced session.
#[derive(Debug, Default)]
pub struct TwinCounts {
    /// Segment bytes parsed, by the ingests and the reopen.
    pub parsed_bytes: u64,
    /// Segment lines parsed (the engine's `replay.parse.lines`).
    pub parsed_lines: u64,
    /// Shards simulated, tail shards included (`serve.shards_run`).
    pub shards_run: u64,
    /// Checkpoint bytes persisted (`serve.persist.checkpoint_bytes`).
    pub bytes_written: u64,
    /// Arrival events hashed by prefix fingerprints during ingests.
    pub ingest_events_hashed: u64,
    /// Arrival events ingested.
    pub ingested_events: u64,
    /// Checkpoint bytes written, per ingest.
    pub checkpoint_bytes: Vec<u64>,
}

/// The twin engine recomposed from the layers' public functions, in the
/// order `TwinEngine` calls them, each call wrapped in a span.
struct TracedTwin {
    threads: usize,
    seed: u64,
    shard: u32,
    dir: PathBuf,
    segments_persisted: u64,
    log: Option<FaultLog>,
    arrivals: ReplayArrivals,
    branches: BTreeMap<String, Branch>,
    counts: TwinCounts,
    /// Running total the per-ingest hashed counts are differences of.
    events_hashed: u64,
}

impl TracedTwin {
    fn new(threads: usize, input: &TwinInput, dir: &Path) -> Res<Self> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        Ok(Self {
            threads: threads.max(1),
            seed: input.engine_seed,
            shard: input.shard_channels,
            dir: dir.to_path_buf(),
            segments_persisted: 0,
            log: None,
            arrivals: ReplayArrivals::new(Vec::new(), Vec::new()).map_err(|e| e.to_string())?,
            branches: BTreeMap::new(),
            counts: TwinCounts::default(),
            events_hashed: 0,
        })
    }

    /// `TwinEngine::open` over an existing state directory.
    fn open(t: &mut Tracer, threads: usize, input: &TwinInput, dir: &Path) -> Res<Self> {
        t.span("serve.reopen", |t| {
            let mut twin = Self::new(threads, input, dir)?;
            let meta = std::fs::read_to_string(dir.join("twin.meta")).map_err(|e| e.to_string())?;
            let expected = twin.meta();
            if meta != expected {
                return Err(format!("twin.meta {meta:?} is not {expected:?}"));
            }
            for index in 0.. {
                let path = dir.join(segment_file(index));
                let text = match std::fs::read_to_string(&path) {
                    Ok(text) => text,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                    Err(e) => return Err(e.to_string()),
                };
                twin.absorb(t, &text)?;
                twin.segments_persisted += 1;
            }
            let listing =
                std::fs::read_to_string(dir.join("branches.txt")).map_err(|e| e.to_string())?;
            for line in listing.lines().filter(|l| !l.trim().is_empty()) {
                let (name, token) = line
                    .split_once(' ')
                    .ok_or_else(|| format!("malformed branches.txt line {line:?}"))?;
                let policy = parse_policy(token).map_err(|e| e.to_string())?;
                let spec = twin.spec_for(policy)?;
                let path = dir.join(branch_file(name));
                let loaded = t.span("checkpoint.load", |_| FleetCheckpoint::load(&path));
                let ckpt = match loaded.map_err(|e| e.to_string())? {
                    Some(ckpt) => ckpt,
                    None => FleetCheckpoint::start_twin(&spec, &twin.arrivals),
                };
                let ckpt = twin.extend(t, &spec, ckpt)?;
                twin.branches
                    .insert(name.to_string(), Branch { policy, spec, ckpt });
            }
            twin.persist(t)?;
            Ok(twin)
        })
    }

    fn meta(&self) -> String {
        format!(
            "arcc-serve-state v1\nseed={}\nshard={}\n",
            self.seed, self.shard
        )
    }

    fn spec_for(&self, policy: OperatorPolicy) -> Res<FleetSpec> {
        let log = self.log.as_ref().ok_or("no fleet ingested yet")?;
        Ok(spec_for(log, self.seed, self.shard, policy))
    }

    /// Parse, append and arrival extension of one segment.
    fn absorb(&mut self, t: &mut Tracer, text: &str) -> Res<()> {
        self.counts.parsed_bytes += text.len() as u64;
        self.counts.parsed_lines += text.lines().count() as u64;
        let parsed = t.span("replay.parse", |_| FaultLog::parse(text));
        let segment = parsed.map_err(|e| e.to_string())?;
        match &mut self.log {
            None => {
                let arrivals = t.span("fleet.arrivals_extend", |_| segment.arrivals());
                self.arrivals = arrivals.map_err(|e| e.to_string())?;
                self.log = Some(segment);
            }
            Some(log) => {
                let appended = t.span("replay.append", |_| log.append_segment(&segment));
                let (populations, per_channel) = appended.map_err(|e| e.to_string())?;
                let arrivals = &mut self.arrivals;
                t.span("fleet.arrivals_extend", |_| {
                    arrivals.extend(populations, per_channel)
                })
                .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// `extend_replay`, step by step: validate, check the prefix
    /// fingerprint, re-stamp, and run every newly complete shard in
    /// windows folded in shard order.
    fn extend(
        &mut self,
        t: &mut Tracer,
        spec: &FleetSpec,
        ckpt: FleetCheckpoint,
    ) -> Res<FleetCheckpoint> {
        let threads = self.threads;
        let arrivals = &self.arrivals;
        let hashed = &mut self.events_hashed;
        let shards_run = &mut self.counts.shards_run;
        t.span("fleet.extend", |t| {
            t.span("fleet.validate", |_| arrivals.validate_for(spec))
                .map_err(|e| e.to_string())?;
            let shard = u64::from(spec.shard_channels);
            let complete = spec.channels / shard;
            if ckpt.shards_done > complete {
                return Err("checkpoint claims more shards than the log holds".to_string());
            }
            let prefix = ckpt.shards_done * shard;
            let expected = t.span("fleet.fingerprint", |_| {
                arrivals.run_fingerprint_prefix(spec, prefix)
            });
            *hashed += arrivals.events_in_range(0, prefix);
            if ckpt.fingerprint != expected {
                return Err(format!(
                    "checkpoint fingerprint {:#x} does not match prefix {expected:#x}",
                    ckpt.fingerprint
                ));
            }
            let mut ckpt = ckpt;
            ckpt.fingerprint = t.span("fleet.fingerprint", |_| {
                arrivals.run_fingerprint_prefix(spec, complete * shard)
            });
            *hashed += arrivals.events_in_range(0, complete * shard);
            let window = (threads * WINDOW_FACTOR) as u64;
            while ckpt.shards_done < complete {
                let hi = (ckpt.shards_done + window).min(complete);
                let shards: Vec<u64> = (ckpt.shards_done..hi).collect();
                let aggregates = parallel_map(threads, &shards, |_, &s| {
                    run_shard_replay(spec, s, arrivals)
                });
                for agg in &aggregates {
                    ckpt.stats.merge(agg);
                }
                *shards_run += hi - ckpt.shards_done;
                ckpt.shards_done = hi;
            }
            Ok(ckpt)
        })
    }

    fn extend_branches(&mut self, t: &mut Tracer) -> Res<()> {
        let names: Vec<String> = self.branches.keys().cloned().collect();
        for name in names {
            let spec = self.spec_for(self.branches[&name].policy)?;
            let ckpt = self.branches[&name].ckpt.clone();
            let ckpt = self.extend(t, &spec, ckpt)?;
            if let Some(b) = self.branches.get_mut(&name) {
                b.spec = spec;
                b.ckpt = ckpt;
            }
        }
        Ok(())
    }

    /// `TwinEngine::ingest`.
    fn ingest(&mut self, t: &mut Tracer, text: &str) -> Res<()> {
        t.span("serve.ingest", |t| {
            let events_before = self.arrivals.total_events();
            let hashed_before = self.events_hashed;
            let written_before = self.counts.bytes_written;
            self.absorb(t, text)?;
            if self.branches.is_empty() {
                let spec = self.spec_for(OperatorPolicy::None)?;
                let ckpt = FleetCheckpoint::start_twin(&spec, &self.arrivals);
                let policy = OperatorPolicy::None;
                self.branches
                    .insert(BASELINE_BRANCH.to_string(), Branch { policy, spec, ckpt });
            }
            self.extend_branches(t)?;
            write_atomic_text(&self.dir.join(segment_file(self.segments_persisted)), text)?;
            self.segments_persisted += 1;
            self.persist(t)?;
            self.counts.ingested_events += self.arrivals.total_events() - events_before;
            self.counts.ingest_events_hashed += self.events_hashed - hashed_before;
            self.counts
                .checkpoint_bytes
                .push(self.counts.bytes_written - written_before);
            Ok(())
        })
    }

    /// Rewrites meta, branch table, and every branch checkpoint.
    fn persist(&mut self, t: &mut Tracer) -> Res<()> {
        write_atomic_text(&self.dir.join("twin.meta"), &self.meta())?;
        let mut listing = String::new();
        for (name, b) in &self.branches {
            listing.push_str(&format!("{name} {}\n", policy_token(b.policy)));
        }
        write_atomic_text(&self.dir.join("branches.txt"), &listing)?;
        for (name, b) in &self.branches {
            let path = self.dir.join(branch_file(name));
            t.span("checkpoint.write", |_| b.ckpt.write_atomic(&path))
                .map_err(|e| format!("cannot persist branch {name:?}: {e}"))?;
            self.counts.bytes_written += b.ckpt.text_bytes();
        }
        Ok(())
    }

    /// `TwinEngine::stats`: the checkpoint plus the pending tail shard.
    fn stats(&mut self, name: &str) -> Res<FleetStats> {
        let b = self
            .branches
            .get(name)
            .ok_or_else(|| format!("unknown branch {name:?}"))?;
        let mut stats = b.ckpt.stats.clone();
        if b.ckpt.shards_done < b.spec.shard_count() {
            stats.merge(&run_shard_replay(
                &b.spec,
                b.ckpt.shards_done,
                &self.arrivals,
            ));
            self.counts.shards_run += 1;
        }
        Ok(stats)
    }

    /// `TwinEngine::whatif` (fork on first use, then stats).
    fn whatif(&mut self, t: &mut Tracer, policy: OperatorPolicy) -> Res<FleetStats> {
        t.span("serve.whatif", |t| {
            let existing = self
                .branches
                .iter()
                .find(|(_, b)| b.policy == policy)
                .map(|(name, _)| name.clone());
            let name = match existing {
                Some(name) => name,
                None => {
                    let name = format!("whatif:{}", policy_token(policy));
                    let spec = self.spec_for(policy)?;
                    let ckpt = FleetCheckpoint::start_twin(&spec, &self.arrivals);
                    let ckpt = self.extend(t, &spec, ckpt)?;
                    self.branches
                        .insert(name.clone(), Branch { policy, spec, ckpt });
                    self.persist(t)?;
                    name
                }
            };
            self.stats(&name)
        })
    }
}

/// Checks that the recomposition did the engine's work: the same shards
/// run, checkpoint bytes persisted and segment lines parsed as the
/// engine's own counters `engine` report.
fn expect_same_work(
    what: &str,
    ours: &TwinCounts,
    engine: &MetricsSnapshot,
    mismatches: &mut Vec<String>,
) {
    for (counter, ours) in [
        ("serve.shards_run", ours.shards_run),
        ("serve.persist.checkpoint_bytes", ours.bytes_written),
        ("replay.parse.lines", ours.parsed_lines),
    ] {
        let theirs = engine.counter(counter);
        if ours != theirs {
            mismatches.push(format!(
                "traced {what}: {counter} is {ours}, the engine's is {theirs}"
            ));
        }
    }
}

/// Runs the session script on the traced recomposition in `dir` and
/// checks it against the untraced session `untraced` (whose state
/// directory is `untraced_dir`): results against `oracle`, checkpoint
/// files byte for byte, and the work done against the engine's counters
/// before and after the reopen. Returns the session's work counts and the
/// script's seconds.
#[allow(clippy::too_many_arguments)]
pub fn traced_session(
    t: &mut Tracer,
    input: &TwinInput,
    threads: usize,
    dir: &Path,
    untraced: &Session,
    untraced_dir: &Path,
    oracle: &[(String, FleetStats)],
    mismatches: &mut Vec<String>,
) -> Res<(TwinCounts, f64)> {
    let _ = std::fs::remove_dir_all(dir);
    let mut twin = TracedTwin::new(threads, input, dir)?;
    let start = Instant::now();
    let half = input.segments.len() / 2;
    for text in &input.segments[..half] {
        twin.ingest(t, text)?;
        twin.stats(BASELINE_BRANCH)?;
    }
    let plan = branch_plan();
    for (_, policy) in &plan[1..] {
        twin.whatif(t, *policy)?;
    }
    for text in &input.segments[half..] {
        twin.ingest(t, text)?;
    }
    let mut before_reopen = Vec::new();
    for (name, _) in oracle {
        before_reopen.push(twin.stats(name)?);
    }
    for (_, policy) in &plan[1..] {
        twin.whatif(t, *policy)?;
    }
    let mut reopened = TracedTwin::open(t, threads, input, dir)?;
    let seconds = start.elapsed().as_secs_f64();
    expect_same_work("session", &twin.counts, &untraced.metrics, mismatches);
    expect_same_work(
        "reopen",
        &reopened.counts,
        &untraced.reopen_metrics,
        mismatches,
    );
    for ((name, expected), before) in oracle.iter().zip(&before_reopen) {
        let after = reopened.stats(name)?;
        if !before.bitwise_eq(expected) || !after.bitwise_eq(expected) {
            mismatches.push(format!(
                "traced branch {name}: stats differ from the untraced run"
            ));
        }
        let file = branch_file(name);
        let ours = std::fs::read(dir.join(&file)).map_err(|e| e.to_string())?;
        let theirs = std::fs::read(untraced_dir.join(&file)).map_err(|e| e.to_string())?;
        if ours != theirs {
            mismatches.push(format!(
                "traced checkpoint {file} differs from the untraced one"
            ));
        }
    }
    let mut counts = twin.counts;
    counts.parsed_bytes += reopened.counts.parsed_bytes;
    Ok((counts, seconds))
}

fn segment_file(index: u64) -> String {
    format!("segment-{index:05}.log")
}

fn branch_file(name: &str) -> String {
    format!("branch-{name}.ckpt")
}

/// Atomic text write: tmp file, fsync, rename, directory sync — the
/// discipline the twin uses for its own state files.
fn write_atomic_text(path: &Path, text: &str) -> Res<()> {
    let err = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp).map_err(err)?;
    file.write_all(text.as_bytes()).map_err(err)?;
    file.sync_all().map_err(err)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(err)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}
