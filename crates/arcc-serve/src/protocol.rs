//! The deterministic line/JSON protocol over a [`TwinEngine`].
//!
//! Requests are single lines: a command name followed by `key=value`
//! arguments in any order (`fork name=aggressive policy=replace-on-due`).
//! The one exception is `ingest lines=<n>`, which is followed by exactly
//! `n` raw payload lines — the `arcc-fault-log v1` segment document.
//! Blank lines and `#` comment lines between requests are ignored, so a
//! session transcript doubles as a script.
//!
//! Every request produces **exactly one line** of JSON with a fixed key
//! order, so "the same answer" is meaningful byte for byte. Failures are
//! `{"ok":false,"error":{"kind":...}}` with the typed [`ServeError`]
//! variant as the kind — a checkpoint that belongs to a different fleet
//! history reports `CheckpointMismatch` with both fingerprints, never a
//! panic or a bare string.
//!
//! # Commands
//!
//! | request | effect |
//! |---|---|
//! | `ingest lines=<n>` + payload | append a segment, extend all branches |
//! | `query-stats [branch=<name>]` | fleet stats for a branch (default `baseline`) |
//! | `fork name=<name> policy=<p>` | new branch under policy `p` |
//! | `whatif policy=<p>` | stats had the fleet run under `p` (forks on demand) |
//! | `list-scenarios` | the `arcc::exp` scenario registry |
//! | `run-scenario name=<s>` | run a registry scenario at [`Experiment::quick`] scale |
//! | `status` | channels, branches, and work [`Counters`](crate::twin::Counters) |
//! | `metrics [include=timing] [format=prometheus]` | the engine's metric snapshot (JSON or Prometheus text) |
//! | `quit` | end the session |
//!
//! Policy tokens are `none`, `replace-on-due`, or `spare-pool:<n>`.
//!
//! # Memoisation
//!
//! The four pure query commands (`query-stats`, `whatif`,
//! `list-scenarios`, `run-scenario`) are memoised in a [`BTreeMap`]
//! keyed by the canonical request — defaults filled in and policy
//! tokens normalised, so `whatif policy=spare-pool:07` and
//! `whatif   policy=spare-pool:7` share one entry. A hit returns the
//! cached response **byte-identically** without touching the engine
//! (observable as `memo_hits` in `status`). Any state mutation —
//! `ingest`, `fork`, or a `whatif` that had to fork — clears the table,
//! so a cached response is always exactly what recomputing would print.
//! `status` is deliberately not memoised: it reports the counters the
//! memo table itself advances. `metrics` likewise — its snapshot *is*
//! the record of work done, memo hits included.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use arcc_exp::{find, names, run, Experiment};
use arcc_fleet::FleetStats;
use arcc_obs::{json_f64, json_string, Clock, ManualClock, Recorder as _, SnapshotRecorder};

use crate::twin::{parse_policy, policy_token, ServeError, TwinEngine, BASELINE_BRANCH};

/// Hard cap on `ingest lines=<n>`, so a malformed request cannot make
/// the service buffer an unbounded payload.
pub const MAX_INGEST_LINES: u64 = 10_000_000;

/// A protocol session: a [`TwinEngine`] plus the response memo table.
///
/// The service is transport-agnostic — [`Service::serve`] runs the
/// request loop over any `BufRead`/`Write` pair (stdin/stdout, a TCP
/// stream, or an in-memory script in tests), and
/// [`Service::handle`] answers a single already-framed request.
#[derive(Debug)]
pub struct Service {
    engine: TwinEngine,
    memo: BTreeMap<String, String>,
    /// Latency clock: [`ManualClock`] by default, so library users and
    /// golden sessions stay deterministic; the binary installs a
    /// [`arcc_obs::WallClock`] via [`Service::with_clock`].
    clock: Box<dyn Clock>,
    /// Per-command `serve.latency_us.<cmd>` histograms, read from
    /// `clock`. Kept apart from the engine's deterministic metrics:
    /// plain `metrics` omits them, `metrics include=timing` merges them.
    timing: SnapshotRecorder,
}

/// The protocol command vocabulary — also the closed set of
/// `serve.latency_us.<cmd>` histogram names (anything else times under
/// `unknown`, so hostile request lines cannot mint metric names).
const COMMANDS: &[&str] = &[
    "ingest",
    "query-stats",
    "fork",
    "whatif",
    "list-scenarios",
    "run-scenario",
    "status",
    "metrics",
    "quit",
];

impl Service {
    /// Wraps an engine (fresh or reopened from a state directory) with
    /// the deterministic [`ManualClock`] (all latencies read zero).
    pub fn new(engine: TwinEngine) -> Self {
        Self::with_clock(engine, Box::new(ManualClock::new()))
    }

    /// Wraps an engine with a caller-chosen latency clock.
    pub fn with_clock(engine: TwinEngine, clock: Box<dyn Clock>) -> Self {
        Self {
            engine,
            memo: BTreeMap::new(),
            clock,
            timing: SnapshotRecorder::new(),
        }
    }

    /// The underlying engine (counters, branches, accumulated log).
    pub fn engine(&self) -> &TwinEngine {
        &self.engine
    }

    /// Responses currently held by the memo table.
    #[cfg(test)]
    fn memo_entries(&self) -> usize {
        self.memo.len()
    }

    /// Runs the request loop until `quit` or end of input. Each response
    /// line is flushed before the next request is read, so an
    /// interactive peer never waits on a buffer.
    ///
    /// # Errors
    ///
    /// Only transport I/O errors; every protocol-level failure is
    /// answered in-band as an `{"ok":false,...}` line.
    pub fn serve<R: BufRead, W: Write>(
        &mut self,
        mut input: R,
        mut output: W,
    ) -> std::io::Result<()> {
        loop {
            let mut line = String::new();
            if input.read_line(&mut line)? == 0 {
                break;
            }
            let request = line.trim();
            if request.is_empty() || request.starts_with('#') {
                continue;
            }
            if request == "quit" {
                writeln!(output, "{}", render_quit())?;
                output.flush()?;
                break;
            }
            // `ingest` is the only framed command: read its payload
            // before dispatch so a bad request cannot desynchronise the
            // stream part-way through a document. A rejected-but-parseable
            // count still drains the payload the client committed to
            // sending, so the next line read is the next request.
            let response = if first_token(request) == "ingest" {
                match ingest_line_count(request) {
                    Ok(count) => match read_payload(&mut input, count)? {
                        Some(payload) => self.handle(request, Some(&payload)),
                        None => {
                            // Input ended inside the payload: answer the
                            // error, then treat the stream as closed.
                            writeln!(
                                output,
                                "{}",
                                render_error(&ServeError::Protocol {
                                    detail: format!(
                                        "ingest payload truncated (wanted {count} lines)"
                                    ),
                                })
                            )?;
                            output.flush()?;
                            break;
                        }
                    },
                    Err((e, drain)) => {
                        if !drain_lines(&mut input, drain)? {
                            // Input ended inside the discarded payload.
                            writeln!(output, "{}", render_error(&e))?;
                            output.flush()?;
                            break;
                        }
                        render_error(&e)
                    }
                }
            } else {
                self.handle(request, None)
            };
            writeln!(output, "{response}")?;
            output.flush()?;
        }
        Ok(())
    }

    /// Answers one request line (with `payload` already framed for
    /// `ingest`) and returns the single-line JSON response. Never
    /// panics: failures render as `{"ok":false,...}`.
    pub fn handle(&mut self, request: &str, payload: Option<&str>) -> String {
        let start = self.clock.now_nanos();
        let response = match self.dispatch(request, payload) {
            Ok(response) => response,
            Err(e) => render_error(&e),
        };
        let cmd = first_token(request);
        let cmd = if COMMANDS.contains(&cmd) {
            cmd
        } else {
            "unknown"
        };
        let micros = self.clock.now_nanos().saturating_sub(start) / 1_000;
        self.timing
            .observe(&format!("serve.latency_us.{cmd}"), micros);
        response
    }

    fn dispatch(&mut self, request: &str, payload: Option<&str>) -> Result<String, ServeError> {
        let mut tokens = request.split_whitespace();
        let cmd = tokens.next().ok_or_else(|| ServeError::Protocol {
            detail: "empty request".to_string(),
        })?;
        let args = parse_args(tokens)?;
        match cmd {
            "ingest" => {
                expect_keys(cmd, &args, &["lines"])?;
                let payload = payload.ok_or_else(|| ServeError::Protocol {
                    detail: "ingest needs its payload framed by lines=<n>".to_string(),
                })?;
                let summary = self.engine.ingest(payload)?;
                self.memo.clear();
                Ok(format!(
                    "{{\"ok\":true,\"cmd\":\"ingest\",\"segment_channels\":{},\
                     \"segment_events\":{},\"channels\":{},\"events\":{},\
                     \"complete_shards\":{},\"branches\":{}}}",
                    summary.segment_channels,
                    summary.segment_events,
                    summary.channels,
                    summary.events,
                    summary.complete_shards,
                    summary.branches
                ))
            }
            "query-stats" => {
                expect_keys(cmd, &args, &["branch"])?;
                let branch = args.get("branch").copied().unwrap_or(BASELINE_BRANCH);
                let key = format!("query-stats branch={branch}");
                if let Some(hit) = self.memo.get(&key) {
                    self.engine.note_memo_hit();
                    return Ok(hit.clone());
                }
                let stats = self.engine.stats(branch)?;
                let response = self.render_branch_stats("query-stats", branch, &stats)?;
                self.memo.insert(key, response.clone());
                Ok(response)
            }
            "fork" => {
                expect_keys(cmd, &args, &["name", "policy"])?;
                let name = require(cmd, &args, "name")?;
                let policy = parse_policy(require(cmd, &args, "policy")?)?;
                let branch = self.engine.fork(name, policy)?;
                let (shards_done, branches) =
                    (branch.shards_done(), self.engine.branch_names().len());
                self.memo.clear();
                Ok(format!(
                    "{{\"ok\":true,\"cmd\":\"fork\",\"branch\":{},\"policy\":{},\
                     \"complete_shards\":{shards_done},\"branches\":{branches}}}",
                    json_string(name),
                    json_string(&policy_token(policy))
                ))
            }
            "whatif" => {
                expect_keys(cmd, &args, &["policy"])?;
                let policy = parse_policy(require(cmd, &args, "policy")?)?;
                let key = format!("whatif policy={}", policy_token(policy));
                if let Some(hit) = self.memo.get(&key) {
                    self.engine.note_memo_hit();
                    return Ok(hit.clone());
                }
                let (branch, stats, forked) = self.engine.whatif(policy)?;
                let response = self.render_branch_stats("whatif", &branch, &stats)?;
                if forked {
                    self.memo.clear();
                }
                self.memo.insert(key, response.clone());
                Ok(response)
            }
            "list-scenarios" => {
                expect_keys(cmd, &args, &[])?;
                let key = "list-scenarios".to_string();
                if let Some(hit) = self.memo.get(&key) {
                    self.engine.note_memo_hit();
                    return Ok(hit.clone());
                }
                let mut out =
                    String::from("{\"ok\":true,\"cmd\":\"list-scenarios\",\"scenarios\":[");
                for (i, name) in names().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let title = find(name).map(|s| s.title()).unwrap_or("");
                    out.push_str(&format!(
                        "{{\"name\":{},\"title\":{}}}",
                        json_string(name),
                        json_string(title)
                    ));
                }
                out.push_str("]}");
                self.memo.insert(key, out.clone());
                Ok(out)
            }
            "run-scenario" => {
                expect_keys(cmd, &args, &["name"])?;
                let name = require(cmd, &args, "name")?;
                let key = format!("run-scenario name={name}");
                if let Some(hit) = self.memo.get(&key) {
                    self.engine.note_memo_hit();
                    return Ok(hit.clone());
                }
                let report = run(name, &Experiment::quick()).map_err(ServeError::Scenario)?;
                let response = format!(
                    "{{\"ok\":true,\"cmd\":\"run-scenario\",\"report\":{}}}",
                    report.to_json()
                );
                self.memo.insert(key, response.clone());
                Ok(response)
            }
            "metrics" => {
                // Deliberately not memoised: the snapshot is itself the
                // record of work done, including memo hits.
                expect_keys(cmd, &args, &["include", "format"])?;
                let mut snapshot = self.engine.metrics().clone();
                match args.get("include").copied() {
                    None => {}
                    Some("timing") => snapshot.merge(self.timing.snapshot()),
                    Some(other) => {
                        return Err(ServeError::Protocol {
                            detail: format!("metrics include={other:?} (only timing)"),
                        });
                    }
                }
                match args.get("format").copied() {
                    None | Some("json") => Ok(format!(
                        "{{\"ok\":true,\"cmd\":\"metrics\",\"metrics\":{}}}",
                        arcc_obs::to_json(&snapshot)
                    )),
                    Some("prometheus") => Ok(format!(
                        "{{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"prometheus\",\
                         \"body\":{}}}",
                        json_string(&arcc_obs::to_prometheus(&snapshot))
                    )),
                    Some(other) => Err(ServeError::Protocol {
                        detail: format!("metrics format={other:?} (json or prometheus)"),
                    }),
                }
            }
            "status" => {
                expect_keys(cmd, &args, &[])?;
                let mut out = format!(
                    "{{\"ok\":true,\"cmd\":\"status\",\"channels\":{},\"events\":{},\
                     \"complete_shards\":{},\"branches\":[",
                    self.engine.channels(),
                    self.engine.events(),
                    self.engine.complete_shards()
                );
                for (i, name) in self.engine.branch_names().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(b) = self.engine.branch(name) {
                        out.push_str(&format!(
                            "{{\"name\":{},\"policy\":{},\"shards_done\":{}}}",
                            json_string(name),
                            json_string(&policy_token(b.policy)),
                            b.shards_done()
                        ));
                    }
                }
                let c = self.engine.counters();
                out.push_str(&format!(
                    "],\"counters\":{{\"ingests\":{},\"forks\":{},\"queries\":{},\
                     \"shards_run\":{},\"memo_hits\":{}}},\"memo_entries\":{},\
                     \"metrics_entries\":{}}}",
                    c.ingests,
                    c.forks,
                    c.queries,
                    c.shards_run,
                    c.memo_hits,
                    self.memo.len(),
                    self.engine.metrics().len()
                ));
                Ok(out)
            }
            "quit" => {
                expect_keys(cmd, &args, &[])?;
                Ok(render_quit())
            }
            other => Err(ServeError::Protocol {
                detail: format!("unknown command {other:?}"),
            }),
        }
    }

    /// The shared stats response body for `query-stats` and `whatif`.
    fn render_branch_stats(
        &self,
        cmd: &str,
        branch: &str,
        stats: &FleetStats,
    ) -> Result<String, ServeError> {
        let b = self
            .engine
            .branch(branch)
            .ok_or_else(|| ServeError::UnknownBranch {
                name: branch.to_string(),
            })?;
        let covered = b.shards_done() * u64::from(b.shard_channels());
        Ok(format!(
            "{{\"ok\":true,\"cmd\":{},\"branch\":{},\"policy\":{},\"channels\":{},\
             \"events\":{},\"complete_shards\":{},\"tail_channels\":{},\"faults\":{},\
             \"transient_cleared\":{},\"detections\":{},\"due_events\":{},\
             \"sdc_channels\":{},\"channels_with_faults\":{},\"channels_failed\":{},\
             \"replacements\":{},\"spares_consumed\":{},\"fault_probability\":{},\
             \"due_probability\":{},\"avg_upgraded_fraction\":{}}}",
            json_string(cmd),
            json_string(branch),
            json_string(&policy_token(b.policy)),
            stats.channels,
            self.engine.events(),
            b.shards_done(),
            stats.channels.saturating_sub(covered),
            stats.faults,
            stats.transient_cleared,
            stats.detections,
            stats.due_events,
            stats.sdc_channels,
            stats.channels_with_faults,
            stats.channels_failed,
            stats.replacements,
            stats.spares_consumed,
            json_f64(stats.fault_probability()),
            json_f64(stats.due_probability()),
            json_f64(stats.avg_upgraded_fraction())
        ))
    }
}

/// The first whitespace-separated token of a request line.
fn first_token(request: &str) -> &str {
    request.split_whitespace().next().unwrap_or("")
}

/// Parses the `lines=<n>` framing of an `ingest` request. A rejection
/// carries the number of payload lines the client declared (and will
/// still send) so the serve loop can drain them — zero when the count
/// is unparseable and no payload can be attributed to the request.
fn ingest_line_count(request: &str) -> Result<u64, (ServeError, u64)> {
    let mut tokens = request.split_whitespace();
    let _cmd = tokens.next();
    let args = parse_args(tokens).map_err(|e| (e, 0))?;
    expect_keys("ingest", &args, &["lines"]).map_err(|e| (e, 0))?;
    let lines = require("ingest", &args, "lines").map_err(|e| (e, 0))?;
    let count: u64 = lines.parse().map_err(|_| {
        (
            ServeError::Protocol {
                detail: format!("ingest lines={lines:?} is not a line count"),
            },
            0,
        )
    })?;
    if count == 0 || count > MAX_INGEST_LINES {
        return Err((
            ServeError::Protocol {
                detail: format!("ingest lines={count} out of range 1..={MAX_INGEST_LINES}"),
            },
            count,
        ));
    }
    Ok(count)
}

/// Reads and discards `count` lines; `false` when input ends early.
fn drain_lines<R: BufRead>(input: &mut R, count: u64) -> std::io::Result<bool> {
    let mut line = String::new();
    for _ in 0..count {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Reads exactly `count` payload lines; `None` when input ends early.
fn read_payload<R: BufRead>(input: &mut R, count: u64) -> std::io::Result<Option<String>> {
    let mut payload = String::new();
    for _ in 0..count {
        let mut line = String::new();
        if input.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if !line.ends_with('\n') {
            line.push('\n');
        }
        payload.push_str(&line);
    }
    Ok(Some(payload))
}

/// Parses `key=value` argument tokens; duplicates are protocol errors.
fn parse_args<'a>(
    tokens: impl Iterator<Item = &'a str>,
) -> Result<BTreeMap<&'a str, &'a str>, ServeError> {
    let mut args = BTreeMap::new();
    for token in tokens {
        let (key, value) = token.split_once('=').ok_or_else(|| ServeError::Protocol {
            detail: format!("argument {token:?} is not key=value"),
        })?;
        if args.insert(key, value).is_some() {
            return Err(ServeError::Protocol {
                detail: format!("duplicate argument {key:?}"),
            });
        }
    }
    Ok(args)
}

/// Rejects argument keys the command does not define.
fn expect_keys(cmd: &str, args: &BTreeMap<&str, &str>, allowed: &[&str]) -> Result<(), ServeError> {
    for key in args.keys() {
        if !allowed.contains(key) {
            return Err(ServeError::Protocol {
                detail: format!("{cmd} does not take {key:?}"),
            });
        }
    }
    Ok(())
}

/// A required argument.
fn require<'a>(
    cmd: &str,
    args: &BTreeMap<&str, &'a str>,
    key: &str,
) -> Result<&'a str, ServeError> {
    args.get(key).copied().ok_or_else(|| ServeError::Protocol {
        detail: format!("{cmd} needs {key}=<value>"),
    })
}

fn render_quit() -> String {
    "{\"ok\":true,\"cmd\":\"quit\"}".to_string()
}

/// Renders a [`ServeError`] as the one-line protocol error response.
/// `CheckpointMismatch` carries both fingerprints as hex strings so a
/// client can tell *which* foreign state was refused.
pub fn render_error(error: &ServeError) -> String {
    let kind = match error {
        ServeError::Segment(_) => "Segment",
        ServeError::Replay(_) => "Replay",
        ServeError::CheckpointMismatch { .. } => "CheckpointMismatch",
        ServeError::UnknownBranch { .. } => "UnknownBranch",
        ServeError::DuplicateBranch { .. } => "DuplicateBranch",
        ServeError::BadBranchName { .. } => "BadBranchName",
        ServeError::BadPolicy { .. } => "BadPolicy",
        ServeError::NoFleet => "NoFleet",
        ServeError::Scenario(_) => "Scenario",
        ServeError::Protocol { .. } => "Protocol",
        ServeError::State { .. } => "State",
    };
    if let ServeError::CheckpointMismatch { expected, found } = error {
        return format!(
            "{{\"ok\":false,\"error\":{{\"kind\":\"CheckpointMismatch\",\
             \"expected\":{},\"found\":{},\"detail\":{}}}}}",
            json_string(&format!("{expected:#018x}")),
            json_string(&format!("{found:#018x}")),
            json_string(&error.to_string())
        );
    }
    format!(
        "{{\"ok\":false,\"error\":{{\"kind\":\"{kind}\",\"detail\":{}}}}}",
        json_string(&error.to_string())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcc_fleet::{DimmPopulation, FleetSpec};
    use arcc_replay::generate_log;

    fn sample_segments() -> Vec<String> {
        let spec = FleetSpec::baseline(40)
            .populations(vec![DimmPopulation::paper("hot").rate_multiplier(60.0)])
            .shard_channels(16)
            .seed(0x5E71);
        let log = generate_log(&spec);
        log.split_channels(16)
            .iter()
            .map(|seg| seg.to_text())
            .collect()
    }

    fn ingest_request(segment: &str) -> (String, String) {
        (
            format!("ingest lines={}", segment.lines().count()),
            segment.to_string(),
        )
    }

    #[test]
    fn protocol_surfaces_checkpoint_mismatch_as_typed_json() {
        let mut service = Service::new(TwinEngine::new(2, 7));
        let segments = sample_segments();
        let (req, payload) = ingest_request(&segments[0]);
        let response = service.handle(&req, Some(&payload));
        assert!(
            response.starts_with("{\"ok\":true,\"cmd\":\"ingest\""),
            "{response}"
        );

        // Tamper with the baseline checkpoint, then ingest again: the
        // extension must refuse the foreign checkpoint through the
        // protocol as a typed error object, not a panic or a string.
        service.engine.corrupt_branch_fingerprint(BASELINE_BRANCH);
        let (req, payload) = ingest_request(&segments[1]);
        let response = service.handle(&req, Some(&payload));
        assert!(
            response.starts_with(
                "{\"ok\":false,\"error\":{\"kind\":\"CheckpointMismatch\",\"expected\":\"0x"
            ),
            "{response}"
        );
        assert!(response.contains("\"found\":\"0x"), "{response}");
    }

    #[test]
    fn memoised_queries_return_identical_bytes_and_clear_on_mutation() {
        let mut service = Service::new(TwinEngine::new(2, 7));
        let segments = sample_segments();
        let (req, payload) = ingest_request(&segments[0]);
        service.handle(&req, Some(&payload));

        let cold = service.handle("query-stats", None);
        let warm = service.handle("query-stats branch=baseline", None);
        assert_eq!(cold, warm, "default branch is canonicalised into the key");
        assert_eq!(service.engine().counters().memo_hits, 1);
        assert_eq!(
            service.engine().counters().queries,
            1,
            "hit skips the engine"
        );

        // A mutation invalidates the table; the fresh answer reflects it.
        let (req, payload) = ingest_request(&segments[1]);
        service.handle(&req, Some(&payload));
        assert_eq!(service.memo_entries(), 0);
        let after = service.handle("query-stats", None);
        assert_ne!(cold, after);
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        let mut service = Service::new(TwinEngine::new(1, 7));
        for (req, fragment) in [
            ("", "empty request"),
            ("frobnicate", "unknown command"),
            ("query-stats branch", "not key=value"),
            ("query-stats branch=a branch=b", "duplicate argument"),
            ("query-stats lines=3", "does not take"),
            ("quit now=1", "does not take"),
            ("fork name=x", "needs policy=<value>"),
            ("ingest lines=0", "out of range"),
            ("ingest lines=no", "not a line count"),
        ] {
            let response = if req.starts_with("ingest") {
                match ingest_line_count(req) {
                    Ok(_) => panic!("{req:?} should not frame"),
                    Err((e, _)) => render_error(&e),
                }
            } else {
                service.handle(req, None)
            };
            assert!(
                response.starts_with("{\"ok\":false,\"error\":{\"kind\":\"Protocol\"")
                    && response.contains(fragment),
                "{req:?} -> {response}"
            );
        }
        let response = service.handle("whatif policy=sometimes", None);
        assert!(
            response.starts_with("{\"ok\":false,\"error\":{\"kind\":\"BadPolicy\""),
            "{response}"
        );
        let response = service.handle("query-stats", None);
        assert!(
            response.starts_with("{\"ok\":false,\"error\":{\"kind\":\"NoFleet\""),
            "{response}"
        );
    }

    #[test]
    fn serve_loop_frames_payloads_and_quits() {
        let segments = sample_segments();
        let mut script = String::new();
        script.push_str("# transcript-style session\n\n");
        script.push_str(&format!("ingest lines={}\n", segments[0].lines().count()));
        script.push_str(&segments[0]);
        // `quit` with arguments is refused and does not end the session.
        script.push_str("quit now=1\nstatus\nquit\n");
        script.push_str("query-stats\n"); // after quit: must not be answered

        let mut output = Vec::new();
        let mut service = Service::new(TwinEngine::new(2, 7));
        service
            .serve(script.as_bytes(), &mut output)
            .expect("in-memory transport");
        let out = String::from_utf8(output).expect("utf8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].starts_with("{\"ok\":true,\"cmd\":\"ingest\""));
        assert!(
            lines[1].starts_with("{\"ok\":false,\"error\":{\"kind\":\"Protocol\"")
                && lines[1].contains("does not take"),
            "{}",
            lines[1]
        );
        assert!(lines[2].starts_with("{\"ok\":true,\"cmd\":\"status\""));
        assert_eq!(lines[3], "{\"ok\":true,\"cmd\":\"quit\"}");
    }

    #[test]
    fn rejected_ingest_count_drains_its_payload() {
        // A parseable-but-rejected count: the client declared the payload
        // and sends it anyway, so the loop must discard exactly that many
        // lines or each payload line would be parsed as a request.
        let declared = MAX_INGEST_LINES + 1;
        let mut script = format!("ingest lines={declared}\n");
        script.push_str(&"x\n".repeat(declared as usize));
        script.push_str("status\nquit\n");
        let mut output = Vec::new();
        let mut service = Service::new(TwinEngine::new(1, 7));
        service
            .serve(script.as_bytes(), &mut output)
            .expect("in-memory transport");
        let out = String::from_utf8(output).expect("utf8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(
            lines[0].starts_with("{\"ok\":false,\"error\":{\"kind\":\"Protocol\"")
                && lines[0].contains("out of range"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"ok\":true,\"cmd\":\"status\""),
            "payload lines must not be parsed as requests: {}",
            lines[1]
        );
        assert_eq!(lines[2], "{\"ok\":true,\"cmd\":\"quit\"}");

        // Input ending inside the discarded payload still gets the error
        // answered before the stream is treated as closed.
        let mut output = Vec::new();
        let mut service = Service::new(TwinEngine::new(1, 7));
        service
            .serve(
                format!("ingest lines={declared}\nx\n").as_bytes(),
                &mut output,
            )
            .expect("in-memory transport");
        let out = String::from_utf8(output).expect("utf8");
        assert_eq!(out.lines().count(), 1, "{out}");
        assert!(out.contains("out of range"), "{out}");
    }

    #[test]
    fn metrics_command_reports_deterministic_work() {
        let mut service = Service::new(TwinEngine::new(2, 7));
        let segments = sample_segments();
        let (req, payload) = ingest_request(&segments[0]);
        service.handle(&req, Some(&payload));
        service.handle("query-stats", None);
        service.handle("query-stats", None); // memo hit

        let cold = service.handle("metrics", None);
        assert!(
            cold.starts_with("{\"ok\":true,\"cmd\":\"metrics\",\"metrics\":{"),
            "{cold}"
        );
        assert!(
            cold.contains("\"serve.ingest.segments\":{\"type\":\"counter\",\"value\":1}"),
            "{cold}"
        );
        assert!(cold.contains("\"serve.memo.hits\""), "{cold}");
        assert!(cold.contains("\"replay.parse.dimms\""), "{cold}");
        // Not memoised (only the query-stats entry remains) — and
        // byte-stable while no work happens.
        assert_eq!(cold, service.handle("metrics", None));
        assert_eq!(service.memo_entries(), 1);

        // Under the default ManualClock, timing histograms exist but
        // read zero, so `include=timing` stays deterministic too.
        let timed = service.handle("metrics include=timing", None);
        assert!(timed.contains("\"serve.latency_us.metrics\""), "{timed}");
        assert!(timed.contains("\"serve.latency_us.ingest\""), "{timed}");

        let prom = service.handle("metrics format=prometheus", None);
        assert!(
            prom.starts_with("{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"prometheus\""),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE serve_ingest_segments counter"),
            "{prom}"
        );

        for bad in ["metrics include=everything", "metrics format=xml"] {
            let response = service.handle(bad, None);
            assert!(
                response.starts_with("{\"ok\":false,\"error\":{\"kind\":\"Protocol\""),
                "{bad:?} -> {response}"
            );
        }
    }

    #[test]
    fn hostile_request_lines_cannot_mint_latency_metrics() {
        let mut service = Service::new(TwinEngine::new(1, 7));
        service.handle("frobnicate", None);
        service.handle("grobnicate a=b", None);
        let timed = service.handle("metrics include=timing", None);
        assert!(timed.contains("\"serve.latency_us.unknown\""), "{timed}");
        assert!(!timed.contains("frobnicate"), "{timed}");
    }
}
