//! The [`TwinEngine`]: durable, incrementally-extended fleet state with
//! counterfactual branches.
//!
//! The engine owns the fleet's observed history once, as two parts: the
//! accumulated **inventory** (the horizon, the class table, every DIMM
//! id and the class column, as a [`FaultLog`] that holds no fault) and
//! the **arrival columns** of its [`ReplayArrivals`], where every
//! observed fault lives. A parsed segment's faults are kept only until
//! they are appended to the arrival set. Over that shared arrival set
//! sits a set of **branches** — named `(OperatorPolicy,
//! FleetCheckpoint)` pairs. The `baseline` branch is created on the
//! first ingest; counterfactual branches are forked on demand. Every
//! ingest *extends* every branch over the newly complete shards instead
//! of rerunning it, and every stats query folds the pending partial tail
//! shard on demand — so the total simulation work of N ingests plus Q
//! queries is N extensions plus Q tail shards, never a rerun of the
//! shared prefix (pinned by the [`Counters`]). The branches move
//! together: one [`extend_replays`] call checks every branch's
//! checkpoint before any moves, then runs all their new shards in one
//! fold, so a refused branch leaves every branch where it was.
//!
//! With a state directory the engine is durable: segments are appended
//! as numbered files, branch checkpoints are written atomically
//! ([`write_files_atomic`]), and [`TwinEngine::open`] rebuilds the engine
//! from disk — re-validating every checkpoint against the accumulated
//! log's fingerprint and *refusing* (typed
//! [`ServeError::CheckpointMismatch`], never a panic) state that belongs
//! to a different history. An ingest's commit point is the rename of its
//! segment file, whose fsync runs beside the ingest's compute; the
//! checkpoints written after it are fsynced together, and `branches.txt`
//! and `twin.meta` are rewritten only when their text changes. Opening a
//! directory that holds no segment writes nothing: its state files are
//! first written by the first ingest.
//!
//! Reopening replays every persisted segment. Segment files are
//! independent documents, so [`TwinEngine::open`] reads and parses them
//! on the engine's workers, at most four segments per thread ahead of
//! the next append, while the calling thread alone appends each parsed
//! segment to the inventory and the arrival set in index order
//! ([`fold_in_order`]). The reopened engine, its metrics and its error —
//! the first failing segment in index order, whether its read, parse or
//! append fails — are those of a sequential loop at every thread count;
//! one thread *is* that loop.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use arcc_core::par::{fold_in_order, join};
use arcc_exp::ExpError;
use arcc_fleet::checkpoint::{write_file_atomic, write_files_atomic, StagedFile};
use arcc_fleet::{
    extend_replays, run_shard_replay, FleetCheckpoint, FleetSpec, FleetStats, OperatorPolicy,
    ReplayArrivals, ReplayError, DEFAULT_SHARD_CHANNELS,
};
use arcc_obs::{MetricsSnapshot, Recorder as _, SnapshotRecorder};
use arcc_replay::{FaultLog, SegmentError};

/// The reserved name of the branch every fleet starts with.
pub const BASELINE_BRANCH: &str = "baseline";

/// First line of a state directory's `twin.meta`. Version 2 directories
/// hold branch checkpoints stamped with version 2 arrival fingerprints.
const STATE_HEADER: &str = "arcc-serve-state v2";

/// The version 1 header: [`TwinEngine::open`] migrates such directories.
const STATE_HEADER_V1: &str = "arcc-serve-state v1";

/// Segments [`TwinEngine::open`] parses ahead of the one it appends, per
/// worker thread (the fleet runner's window factor). A bound of
/// `threads` alone leaves the workers idle whenever the calling thread's
/// append falls behind; each parsed segment waiting in the window costs
/// its memory until appended.
const PARSE_AHEAD: usize = 4;

/// Typed service errors; each maps to one `error.kind` in the protocol.
#[derive(Debug)]
pub enum ServeError {
    /// An ingested segment violated the log/segment contract.
    Segment(SegmentError),
    /// The arrival set failed replay validation.
    Replay(ReplayError),
    /// A branch checkpoint does not belong to the accumulated log — a
    /// foreign, stale, or tampered checkpoint is refused, not extended.
    CheckpointMismatch {
        /// Fingerprint the checkpoint carries.
        expected: u64,
        /// Fingerprint of the prefix it claims to cover.
        found: u64,
    },
    /// A query named a branch that does not exist.
    UnknownBranch {
        /// The requested name.
        name: String,
    },
    /// A fork tried to reuse an existing branch name.
    DuplicateBranch {
        /// The requested name.
        name: String,
    },
    /// A branch name outside `[A-Za-z0-9_.:-]+`.
    BadBranchName {
        /// The offending name.
        name: String,
    },
    /// A policy token outside `none | replace-on-due | spare-pool:<n>`.
    BadPolicy {
        /// The offending token.
        token: String,
    },
    /// A query arrived before the first ingest: there is no fleet yet.
    NoFleet,
    /// A scenario run failed (unknown name, or the scenario panicked).
    Scenario(ExpError),
    /// A malformed request line or payload.
    Protocol {
        /// What was wrong.
        detail: String,
    },
    /// The state directory is unreadable or corrupt.
    State {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Segment(e) => write!(f, "segment rejected: {e}"),
            ServeError::Replay(e) => write!(f, "replay rejected: {e}"),
            ServeError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {expected:#x} does not match the \
                 ingested inventory's prefix {found:#x}"
            ),
            ServeError::UnknownBranch { name } => write!(f, "unknown branch {name:?}"),
            ServeError::DuplicateBranch { name } => {
                write!(f, "branch {name:?} already exists")
            }
            ServeError::BadBranchName { name } => write!(
                f,
                "branch name {name:?} must match [A-Za-z0-9_.:-]+ and not be reserved"
            ),
            ServeError::BadPolicy { token } => write!(
                f,
                "bad policy {token:?} (expected none, replace-on-due, or spare-pool:<n>)"
            ),
            ServeError::NoFleet => write!(f, "no fleet ingested yet"),
            ServeError::Scenario(e) => write!(f, "scenario failed: {e}"),
            ServeError::Protocol { detail } => write!(f, "bad request: {detail}"),
            ServeError::State { detail } => write!(f, "state directory: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Segment(e) => Some(e),
            ServeError::Replay(e) => Some(e),
            ServeError::Scenario(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SegmentError> for ServeError {
    fn from(e: SegmentError) -> Self {
        ServeError::Segment(e)
    }
}

impl From<ReplayError> for ServeError {
    fn from(e: ReplayError) -> Self {
        match e {
            ReplayError::CheckpointMismatch { expected, actual } => {
                ServeError::CheckpointMismatch {
                    expected,
                    found: actual,
                }
            }
            other => ServeError::Replay(other),
        }
    }
}

/// Parses a protocol policy token.
///
/// # Errors
///
/// [`ServeError::BadPolicy`] for anything outside
/// `none | replace-on-due | spare-pool:<n>`.
pub fn parse_policy(token: &str) -> Result<OperatorPolicy, ServeError> {
    match token {
        "none" => Ok(OperatorPolicy::None),
        "replace-on-due" => Ok(OperatorPolicy::ReplaceOnDue),
        other => match other.strip_prefix("spare-pool:") {
            Some(n) => n
                .parse::<u32>()
                .map(|spares_per_10k| OperatorPolicy::SparePool { spares_per_10k })
                .map_err(|_| ServeError::BadPolicy {
                    token: token.to_string(),
                }),
            None => Err(ServeError::BadPolicy {
                token: token.to_string(),
            }),
        },
    }
}

/// The canonical token for a policy (inverse of [`parse_policy`]).
pub fn policy_token(policy: OperatorPolicy) -> String {
    match policy {
        OperatorPolicy::None => "none".to_string(),
        OperatorPolicy::ReplaceOnDue => "replace-on-due".to_string(),
        OperatorPolicy::SparePool { spares_per_10k } => {
            format!("spare-pool:{spares_per_10k}")
        }
    }
}

/// One counterfactual (or the baseline): a policy and the checkpoint of
/// its run over the shared arrival prefix.
#[derive(Debug, Clone)]
pub struct Branch {
    /// The branch's operator policy; every other spec knob is shared.
    pub policy: OperatorPolicy,
    spec: FleetSpec,
    ckpt: FleetCheckpoint,
}

impl Branch {
    /// Complete shards folded into this branch's checkpoint.
    pub fn shards_done(&self) -> u64 {
        self.ckpt.shards_done
    }

    /// Channels per shard in this branch's spec (shared by all branches).
    pub fn shard_channels(&self) -> u32 {
        self.spec.shard_channels
    }
}

/// Work counters, exposed through the protocol's `status` command. The
/// incremental contract is observable here: ingests advance
/// `shards_run` by the newly complete shards only, and a what-if over an
/// existing branch advances it by at most the one pending tail shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Segments ingested.
    pub ingests: u64,
    /// Branches forked (explicitly or by a what-if).
    pub forks: u64,
    /// Stats queries answered by simulation (memo hits don't count).
    pub queries: u64,
    /// Shard simulations executed, in total, across all branches.
    pub shards_run: u64,
    /// Responses served byte-identically from the memo table.
    pub memo_hits: u64,
}

/// A summary of one ingest, for the protocol response.
#[derive(Debug, Clone, Copy)]
pub struct IngestSummary {
    /// Channels the ingested segment added.
    pub segment_channels: u64,
    /// Fault events the ingested segment added.
    pub segment_events: u64,
    /// Accumulated channels after the ingest.
    pub channels: u64,
    /// Accumulated fault events after the ingest.
    pub events: u64,
    /// Complete shards every branch now covers.
    pub complete_shards: u64,
    /// Branches extended.
    pub branches: u64,
}

/// The long-lived digital twin (see the module docs).
#[derive(Debug)]
pub struct TwinEngine {
    threads: usize,
    seed: u64,
    shard: u32,
    state_dir: Option<PathBuf>,
    /// Segment files already on disk; the next ingest persists
    /// `segment-<this>.log`. Restored by [`Self::open`] from the files it
    /// replays, so a reopened engine appends after them instead of
    /// renumbering from zero (the in-session `Counters::ingests` resets
    /// across processes and must not drive durable file names).
    segments_persisted: u64,
    /// The accumulated inventory: horizon, class table, ids and class
    /// column. Its `faults` are always empty, as `arrivals` holds every
    /// fault; `None` until the first segment.
    inventory: Option<FaultLog>,
    /// The replay spec every branch shares but for its policy and channel
    /// count, built from the first segment: the segment contract fixes
    /// the class table and horizon after it, so no later spec recounts
    /// the inventory's DIMMs per class.
    spec: Option<FleetSpec>,
    arrivals: ReplayArrivals,
    branches: BTreeMap<String, Branch>,
    /// The text of `branches.txt` and of `twin.meta` as this process last
    /// wrote or read them; [`Self::persist`] rewrites a file only when
    /// its text differs.
    listing_on_disk: Option<String>,
    meta_on_disk: Option<String>,
    counters: Counters,
    /// Deterministic work metrics (`serve.*` plus the `replay.parse.*`
    /// counters of every absorbed segment): a pure function of the
    /// command sequence this process handled, independent of thread
    /// count and wall-clock. Resets with the process — a reopened
    /// durable engine re-counts the segments it replays from disk.
    obs: SnapshotRecorder,
}

impl TwinEngine {
    /// An ephemeral engine (no state directory): state lives and dies
    /// with the process. `threads` caps the extension parallelism and
    /// never affects results (the workspace determinism contract);
    /// `seed` is stamped into the replay spec and therefore into every
    /// checkpoint fingerprint.
    pub fn new(threads: usize, seed: u64) -> Self {
        Self {
            threads: threads.max(1),
            seed,
            shard: DEFAULT_SHARD_CHANNELS,
            state_dir: None,
            segments_persisted: 0,
            inventory: None,
            spec: None,
            arrivals: ReplayArrivals::default(),
            branches: BTreeMap::new(),
            listing_on_disk: None,
            meta_on_disk: None,
            counters: Counters::default(),
            obs: SnapshotRecorder::new(),
        }
    }

    /// Sets the checkpoint granularity (channels per shard). The shard
    /// size is part of every checkpoint fingerprint, so it must stay
    /// fixed for the life of a fleet — set it before the first ingest
    /// (durable engines stamp it into `twin.meta` and refuse to reopen
    /// under a different value).
    ///
    /// # Panics
    ///
    /// When `shard` is zero.
    pub fn shard_channels(mut self, shard: u32) -> Self {
        assert!(shard > 0, "shards must hold at least one channel");
        self.shard = shard;
        self
    }

    /// A durable engine rooted at `dir` (created if absent): replays the
    /// persisted segments, reloads every branch checkpoint, and extends
    /// any branch the last process crashed before checkpointing. A
    /// checkpoint that does not match the accumulated log — tampered
    /// state, or a file from a different fleet — is refused with
    /// [`ServeError::CheckpointMismatch`].
    ///
    /// The persisted segments are `segment-00000.log` onwards, up to the
    /// first index whose file is not found. Segment 0 is parsed on the
    /// calling thread, so the accumulated inventory's buffers are its
    /// own; the rest are read and parsed on up to `threads` workers, at
    /// most four per worker ahead of the next append, while the calling
    /// thread appends each to the inventory and the arrival set in index
    /// order, keeping a segment's faults only in the arrival set. The
    /// result does not depend on `threads`: the engine, its
    /// [`Self::metrics`] and its error (that of the first segment, in
    /// index order, whose read, parse or append fails) are those of
    /// appending the segments one by one, which is what one thread does.
    ///
    /// Every branch is then extended over the replayed log in one fold
    /// ([`extend_replays`]), re-running the shards of any branch the last
    /// process stopped before checkpointing, and every checkpoint is
    /// written back, as an ingest writes them. `branches.txt` and `twin.meta`
    /// are rewritten only when their text differs from what was read. A
    /// directory with no segment is left as it is: the first ingest
    /// writes its state files, and migrates a version 1 `twin.meta`.
    ///
    /// A version 1 directory (`arcc-serve-state v1`) is migrated: its
    /// checkpoints carry version 1 arrival fingerprints, so they are
    /// treated as missing and every branch is rebuilt from its first
    /// shard, then the directory is persisted as version 2. Segment
    /// files are kept as they are.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] for unreadable/corrupt state files or an
    /// unknown `twin.meta` header, [`ServeError::CheckpointMismatch`] for
    /// foreign checkpoints, plus any ingest-path error while replaying
    /// persisted segments.
    pub fn open(
        threads: usize,
        seed: u64,
        shard_channels: u32,
        dir: &Path,
    ) -> Result<Self, ServeError> {
        std::fs::create_dir_all(dir).map_err(|e| ServeError::State {
            detail: format!("cannot create {}: {e}", dir.display()),
        })?;
        let mut engine = Self::new(threads, seed).shard_channels(shard_channels);
        engine.state_dir = Some(dir.to_path_buf());
        let migrate_v1 = engine.load_meta(dir)?;

        engine.replay_segments(dir)?;

        // Reload the branch table (baseline is implicit on ingest, so a
        // missing table just means no branches were ever persisted).
        let listing = dir.join("branches.txt");
        let mut wanted: Vec<(String, OperatorPolicy)> = Vec::new();
        match std::fs::read_to_string(&listing) {
            Ok(text) => {
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let (name, token) = line.split_once(' ').ok_or_else(|| ServeError::State {
                        detail: format!("malformed branches.txt line {line:?}"),
                    })?;
                    wanted.push((name.to_string(), parse_policy(token)?));
                }
                engine.listing_on_disk = Some(text);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if engine.inventory.is_some() {
                    wanted.push((BASELINE_BRANCH.to_string(), OperatorPolicy::None));
                }
            }
            Err(e) => {
                return Err(ServeError::State {
                    detail: format!("cannot read {}: {e}", listing.display()),
                });
            }
        }

        // Rebind each branch: load its checkpoint (or start fresh), then
        // extend every branch over the accumulated arrivals in one fold.
        // `extend_replays` is both the validator (foreign checkpoints are
        // a typed mismatch) and the recovery path (a crash between
        // segment write and checkpoint write just re-runs the missing
        // shards). A version 1 directory takes the recovery path for
        // every branch. A checkpoint that cannot be read is reported
        // after the branches listed before it are checked, as a
        // branch-by-branch loop would report it.
        let mut loaded: Vec<(String, Branch)> = Vec::new();
        let mut unreadable = None;
        for (name, policy) in wanted {
            let spec = engine.spec_for(policy)?;
            let stored = if migrate_v1 {
                Ok(None)
            } else {
                FleetCheckpoint::load(&dir.join(branch_file(&name)))
            };
            let ckpt = match stored {
                Ok(Some(ckpt)) => ckpt,
                Ok(None) => FleetCheckpoint::start_twin(&spec, &engine.arrivals),
                Err(e) => {
                    unreadable = Some(ServeError::State {
                        detail: format!("branch {name:?}: {e}"),
                    });
                    break;
                }
            };
            loaded.push((name, Branch { policy, spec, ckpt }));
        }
        let mut runs: Vec<_> = loaded
            .iter_mut()
            .map(|(_, b)| (&b.spec, &mut b.ckpt))
            .collect();
        let ran = extend_replays(engine.threads, &engine.arrivals, &mut runs)?;
        engine.note_shards_run(ran);
        if let Some(e) = unreadable {
            return Err(e);
        }
        engine.branches.extend(loaded);
        if engine.inventory.is_some() {
            engine.persist()?;
        } else {
            // No fleet yet: the first ingest writes every state file.
            // The snapshot counts what a persist of no branch writes.
            engine.obs.counter_add("serve.persist.checkpoint_bytes", 0);
        }
        Ok(engine)
    }

    /// Channels the accumulated log covers.
    pub fn channels(&self) -> u64 {
        self.arrivals.channels()
    }

    /// Fault events the accumulated log carries.
    pub fn events(&self) -> u64 {
        self.arrivals.total_events()
    }

    /// Complete shards every branch's checkpoint covers.
    pub fn complete_shards(&self) -> u64 {
        match self.branches.get(BASELINE_BRANCH) {
            Some(b) => b.ckpt.shards_done,
            None => 0,
        }
    }

    /// The work counters (see [`Counters`]).
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The engine's deterministic metric snapshot: `serve.*` work
    /// counters (mirroring [`Counters`] plus persisted byte counts) and
    /// the `replay.parse.*` counters of every absorbed segment.
    pub fn metrics(&self) -> &MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Notes a memo-table hit (the protocol layer owns the table).
    pub fn note_memo_hit(&mut self) {
        self.counters.memo_hits += 1;
        self.obs.counter_add("serve.memo.hits", 1);
    }

    /// Branch names in iteration (lexicographic) order.
    pub fn branch_names(&self) -> Vec<&str> {
        self.branches.keys().map(String::as_str).collect()
    }

    /// Looks up a branch.
    pub fn branch(&self, name: &str) -> Option<&Branch> {
        self.branches.get(name)
    }

    /// Ingests one fault-log segment (an `arcc-fault-log v1` document):
    /// appends its DIMMs to the accumulated inventory and its faults to
    /// the arrival set, extends every branch over the newly complete
    /// shards, and persists segment + checkpoints when durable. The
    /// first ingest creates the `baseline` branch (policy `none`).
    ///
    /// Between requests the engine keeps the inventory's ids and class
    /// column and the arrival set's columns, nothing per fault but its
    /// arrival record: the parsed segment, its faults included, is
    /// dropped once appended.
    ///
    /// Branches move all or none: every branch's checkpoint is checked
    /// before any is extended, and all are then extended in one fold
    /// ([`extend_replays`]), so an ingest that fails leaves every branch
    /// where it was.
    ///
    /// A durable engine first writes the segment to its tmp file in the
    /// state directory; one that cannot be staged fails the ingest
    /// before the engine moves. A helper thread fsyncs it while this
    /// thread parses, appends and extends ([`join`]). Only once all of
    /// that succeeds is the file renamed into place and the directory
    /// synced: that rename is the commit point, since [`Self::open`]
    /// replays the segment files and re-extends stale checkpoints. On
    /// any failure the tmp file is removed, so a refused or failed
    /// segment never reaches the directory. The checkpoints are then
    /// rewritten together: each one's tmp file is written and fsynced
    /// on the engine's workers, then all are renamed in name order and
    /// the directory is synced once. `branches.txt` and `twin.meta` are
    /// rewritten only when their text changes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Segment`] for parse/contract violations (the engine
    /// is unchanged), [`ServeError::CheckpointMismatch`] when a branch
    /// checkpoint does not belong to the accumulated history,
    /// [`ServeError::State`] when a state file cannot be written.
    ///
    /// Only the `Segment` contract and a segment that cannot be staged
    /// leave the engine untouched: an error *after* the segment was
    /// absorbed (branch extension or a durable write) leaves the
    /// in-memory inventory and arrivals ahead of the branches and/or the
    /// disk. Resynchronise by discarding an ephemeral engine, or by
    /// reopening a durable one — [`Self::open`] replays exactly the
    /// committed segments and re-extends every branch from its last good
    /// checkpoint.
    pub fn ingest(&mut self, segment_text: &str) -> Result<IngestSummary, ServeError> {
        let before_channels = self.channels();
        let before_events = self.events();
        let staged = match &self.state_dir {
            Some(dir) => {
                let path = dir.join(segment_file(self.segments_persisted));
                let file = StagedFile::create(&path, segment_text.as_bytes());
                Some((file.map_err(|e| write_error(&path, &e))?, path))
            }
            None => None,
        };
        match &staged {
            Some((file, path)) => {
                let (synced, applied) =
                    join(self.threads, || file.sync(), || self.apply(segment_text));
                applied?;
                synced.map_err(|e| write_error(path, &e))?;
            }
            None => self.apply(segment_text)?,
        }
        self.counters.ingests += 1;
        let summary = IngestSummary {
            segment_channels: self.channels() - before_channels,
            segment_events: self.events() - before_events,
            channels: self.channels(),
            events: self.events(),
            complete_shards: self.complete_shards(),
            branches: self.branches.len() as u64,
        };
        self.obs.counter_add("serve.ingest.segments", 1);
        self.obs
            .counter_add("serve.ingest.channels", summary.segment_channels);
        self.obs
            .counter_add("serve.ingest.events", summary.segment_events);
        self.obs
            .gauge_max("serve.branches", self.branches.len() as u64);
        if let Some((file, path)) = staged {
            file.commit().map_err(|e| write_error(&path, &e))?;
            self.segments_persisted += 1;
            self.obs
                .counter_add("serve.persist.segment_bytes", segment_text.len() as u64);
        }
        self.persist()?;
        Ok(summary)
    }

    /// Forks a new branch: the same fleet history under `policy`. Pays a
    /// one-time cold run of the covered prefix under the new policy;
    /// afterwards the branch extends incrementally like the baseline.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoFleet`] before the first ingest,
    /// [`ServeError::DuplicateBranch`] / [`ServeError::BadBranchName`]
    /// for naming violations.
    pub fn fork(&mut self, name: &str, policy: OperatorPolicy) -> Result<&Branch, ServeError> {
        if self.inventory.is_none() {
            return Err(ServeError::NoFleet);
        }
        if !valid_branch_name(name) {
            return Err(ServeError::BadBranchName {
                name: name.to_string(),
            });
        }
        if self.branches.contains_key(name) {
            return Err(ServeError::DuplicateBranch {
                name: name.to_string(),
            });
        }
        let spec = self.spec_for(policy)?;
        let mut ckpt = FleetCheckpoint::start_twin(&spec, &self.arrivals);
        let ran = extend_replays(self.threads, &self.arrivals, &mut [(&spec, &mut ckpt)])?;
        self.note_shards_run(ran);
        self.counters.forks += 1;
        self.obs.counter_add("serve.forks", 1);
        self.branches
            .insert(name.to_string(), Branch { policy, spec, ckpt });
        self.obs
            .gauge_max("serve.branches", self.branches.len() as u64);
        self.persist()?;
        Ok(&self.branches[name])
    }

    /// The branch's fleet statistics over everything ingested so far:
    /// the checkpointed complete-shard prefix plus the pending partial
    /// tail shard, folded on demand (at most one shard of simulation).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoFleet`] before the first ingest,
    /// [`ServeError::UnknownBranch`] for an unknown name.
    pub fn stats(&mut self, branch: &str) -> Result<FleetStats, ServeError> {
        if self.inventory.is_none() {
            return Err(ServeError::NoFleet);
        }
        let b = self
            .branches
            .get(branch)
            .ok_or_else(|| ServeError::UnknownBranch {
                name: branch.to_string(),
            })?;
        let mut stats = b.ckpt.stats.clone();
        if b.ckpt.shards_done < b.spec.shard_count() {
            stats.merge(&run_shard_replay(
                &b.spec,
                b.ckpt.shards_done,
                &self.arrivals,
            ));
            self.note_shards_run(1);
        }
        self.counters.queries += 1;
        self.obs.counter_add("serve.queries", 1);
        Ok(stats)
    }

    /// Answers a what-if: the fleet's statistics had it run under
    /// `policy`. Reuses the branch already running that policy when one
    /// exists (then only the tail shard is simulated); otherwise forks
    /// an anonymous `whatif:<policy>` branch first (the one-time cold
    /// prefix run). Returns the branch name used, the stats, and whether
    /// a fork happened.
    ///
    /// # Errors
    ///
    /// As for [`Self::fork`] and [`Self::stats`].
    pub fn whatif(
        &mut self,
        policy: OperatorPolicy,
    ) -> Result<(String, FleetStats, bool), ServeError> {
        if self.inventory.is_none() {
            return Err(ServeError::NoFleet);
        }
        let existing = self
            .branches
            .iter()
            .find(|(_, b)| b.policy == policy)
            .map(|(name, _)| name.clone());
        let (name, forked) = match existing {
            Some(name) => (name, false),
            None => {
                let name = format!("whatif:{}", policy_token(policy));
                self.fork(&name, policy)?;
                (name, true)
            }
        };
        let stats = self.stats(&name)?;
        Ok((name, stats, forked))
    }

    // --- internals ------------------------------------------------------

    /// The compute of an ingest: absorbs the segment, creates the
    /// baseline on the first one, and extends every branch.
    fn apply(&mut self, text: &str) -> Result<(), ServeError> {
        self.absorb_segment(text)?;
        if self.branches.is_empty() {
            let spec = self.spec_for(OperatorPolicy::None)?;
            let ckpt = FleetCheckpoint::start_twin(&spec, &self.arrivals);
            self.branches.insert(
                BASELINE_BRANCH.to_string(),
                Branch {
                    policy: OperatorPolicy::None,
                    spec,
                    ckpt,
                },
            );
        }
        self.extend_branches()
    }

    /// Parses a segment and appends its inventory to the accumulated
    /// inventory and its faults to the arrival set (no branch work, no
    /// persistence). The first segment becomes the inventory once its
    /// faults are in the arrival set, and fixes the branches' shared
    /// spec. Population weights are pinned to 1 so the spec fingerprint
    /// lineage depends only on the class table and channel count, not on
    /// how many DIMMs each class happens to hold (replay ignores
    /// weights; they only drive synthetic assignment).
    fn absorb_segment(&mut self, text: &str) -> Result<(), ServeError> {
        match &mut self.inventory {
            None => {
                let mut log = FaultLog::parse_recorded(text, &mut self.obs).map_err(parse_error)?;
                let arrivals = log.arrivals()?;
                log.faults = Vec::new();
                let mut spec = log.replay_spec(self.seed).shard_channels(self.shard);
                for p in &mut spec.populations {
                    p.weight = 1.0;
                }
                self.inventory = Some(log);
                self.spec = Some(spec);
                self.arrivals = arrivals;
            }
            Some(inventory) => {
                let (segment, lines) = FaultLog::parse_counted(text).map_err(parse_error)?;
                let (populations, batch) =
                    inventory.append_inventory_recorded(&segment, lines, &mut self.obs)?;
                self.arrivals.extend(populations, batch)?;
            }
        }
        Ok(())
    }

    /// Replays the persisted segments of `dir` (see [`Self::open`]):
    /// segment 0 through [`Self::absorb_segment`] on this thread, the
    /// rest read and parsed by [`fold_in_order`]'s workers and appended
    /// here in index order, up to the first segment that fails.
    fn replay_segments(&mut self, dir: &Path) -> Result<(), ServeError> {
        let count = segment_count(dir);
        if count == 0 {
            return Ok(());
        }
        self.absorb_segment(&read_segment(dir, 0)?)?;
        let inventory = self.inventory.as_mut().ok_or(ServeError::NoFleet)?;
        let (arrivals, obs) = (&mut self.arrivals, &mut self.obs);
        let parse = |k: usize| {
            let text = read_segment(dir, k as u64 + 1)?;
            FaultLog::parse_counted(&text).map_err(parse_error)
        };
        let append = |parsed: Result<(FaultLog, usize), ServeError>| -> Result<(), ServeError> {
            let (segment, lines) = parsed?;
            let (populations, batch) = inventory.append_inventory_recorded(&segment, lines, obs)?;
            Ok(arrivals.extend(populations, batch)?)
        };
        let (rest, ahead) = ((count - 1) as usize, PARSE_AHEAD * self.threads);
        fold_in_order(self.threads, rest, ahead, parse, append)?;
        self.segments_persisted = count;
        Ok(())
    }

    /// The shared replay spec under `policy`, covering the current
    /// channel count.
    fn spec_for(&self, policy: OperatorPolicy) -> Result<FleetSpec, ServeError> {
        let (Some(inventory), Some(spec)) = (&self.inventory, &self.spec) else {
            return Err(ServeError::NoFleet);
        };
        let mut spec = spec.clone().policy(policy);
        spec.channels = inventory.dimms.len() as u64;
        Ok(spec)
    }

    /// Extends every branch over the current arrivals in one fold, all
    /// or none ([`extend_replays`]). A branch keeps its spec across
    /// ingests: the segment contract fixes the class table, so only the
    /// channel count moves.
    fn extend_branches(&mut self) -> Result<(), ServeError> {
        let channels = self.channels();
        let specs: Vec<FleetSpec> = self
            .branches
            .values()
            .map(|b| {
                let mut spec = b.spec.clone();
                spec.channels = channels;
                spec
            })
            .collect();
        let mut runs: Vec<_> = specs
            .iter()
            .zip(self.branches.values_mut())
            .map(|(spec, b)| (spec, &mut b.ckpt))
            .collect();
        let ran = extend_replays(self.threads, &self.arrivals, &mut runs)?;
        for (b, spec) in self.branches.values_mut().zip(specs) {
            b.spec = spec;
        }
        self.note_shards_run(ran);
        Ok(())
    }

    /// Counts `ran` shard simulations.
    fn note_shards_run(&mut self, ran: u64) {
        self.counters.shards_run += ran;
        self.obs.counter_add("serve.shards_run", ran);
    }

    /// Checks `twin.meta` against this engine's seed and shard size.
    /// Returns `true` for a version 1 directory, whose branch checkpoints
    /// carry version 1 arrival fingerprints and must be rebuilt.
    fn load_meta(&mut self, dir: &Path) -> Result<bool, ServeError> {
        let path = dir.join("twin.meta");
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let mut lines = text.lines();
                let v1 = match lines.next() {
                    Some(STATE_HEADER) => false,
                    Some(STATE_HEADER_V1) => true,
                    _ => {
                        return Err(ServeError::State {
                            detail: format!("{} has an unknown header", path.display()),
                        });
                    }
                };
                for line in lines {
                    if let Some(seed) = line.strip_prefix("seed=") {
                        let seed: u64 = seed.parse().map_err(|_| ServeError::State {
                            detail: format!("bad seed in {}", path.display()),
                        })?;
                        if seed != self.seed {
                            return Err(ServeError::State {
                                detail: format!(
                                    "state was created with seed {seed}, not {}",
                                    self.seed
                                ),
                            });
                        }
                    }
                    if let Some(shard) = line.strip_prefix("shard=") {
                        let shard: u32 = shard.parse().map_err(|_| ServeError::State {
                            detail: format!("bad shard in {}", path.display()),
                        })?;
                        if shard != self.shard {
                            return Err(ServeError::State {
                                detail: format!(
                                    "state was created with {shard}-channel shards, not {}",
                                    self.shard
                                ),
                            });
                        }
                    }
                }
                self.meta_on_disk = Some(text);
                Ok(v1)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(ServeError::State {
                detail: format!("cannot read {}: {e}", path.display()),
            }),
        }
    }

    /// Writes the branch table, every branch checkpoint, and meta — meta
    /// last: its header names the checkpoint format, so a version 1
    /// directory whose migration is cut short still reads as version 1
    /// and migrates again on the next open.
    ///
    /// The checkpoints are written together ([`write_files_atomic`]):
    /// each one's tmp file is written and fsynced on the engine's
    /// workers, then all are renamed in name order and the directory is
    /// synced once. `branches.txt` and `twin.meta` are written only when
    /// their text differs from what this process last wrote or read —
    /// after a fork, a version 1 migration, or in a fresh directory.
    fn persist(&mut self) -> Result<(), ServeError> {
        let Some(dir) = &self.state_dir else {
            return Ok(());
        };
        let listing: String = self
            .branches
            .iter()
            .map(|(name, b)| format!("{name} {}\n", policy_token(b.policy)))
            .collect();
        if self.listing_on_disk.as_ref() != Some(&listing) {
            write_atomic_text(&dir.join("branches.txt"), &listing)?;
            self.listing_on_disk = Some(listing);
        }
        let checkpoints: Vec<(PathBuf, String)> = self
            .branches
            .iter()
            .map(|(name, b)| (dir.join(branch_file(name)), b.ckpt.to_text()))
            .collect();
        write_files_atomic(self.threads, &checkpoints).map_err(|(i, e)| {
            let name = self.branches.keys().nth(i).map_or("", String::as_str);
            ServeError::State {
                detail: format!("cannot persist branch {name:?}: {e}"),
            }
        })?;
        let meta = format!("{STATE_HEADER}\nseed={}\nshard={}\n", self.seed, self.shard);
        if self.meta_on_disk.as_ref() != Some(&meta) {
            write_atomic_text(&dir.join("twin.meta"), &meta)?;
            self.meta_on_disk = Some(meta);
        }
        let checkpoint_bytes = checkpoints.iter().map(|(_, text)| text.len() as u64).sum();
        self.obs
            .counter_add("serve.persist.checkpoint_bytes", checkpoint_bytes);
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn corrupt_branch_fingerprint(&mut self, name: &str) {
        self.branches
            .get_mut(name)
            .expect("branch")
            .ckpt
            .fingerprint ^= 1;
    }
}

fn valid_branch_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
}

fn segment_file(index: u64) -> String {
    format!("segment-{index:05}.log")
}

fn branch_file(name: &str) -> String {
    format!("branch-{name}.ckpt")
}

/// Segment files in `dir`: the indices before the first whose file is
/// not found. Any other outcome of a probe counts the index and ends the
/// probe: a directory or an unreadable path is an error that reading
/// that segment reports in index order, not the end of the log.
fn segment_count(dir: &Path) -> u64 {
    let mut count = 0;
    loop {
        match std::fs::metadata(dir.join(segment_file(count))) {
            Ok(meta) if meta.is_file() => count += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return count,
            _ => return count + 1,
        }
    }
}

/// Reads persisted segment `index` of `dir`.
fn read_segment(dir: &Path, index: u64) -> Result<String, ServeError> {
    let path = dir.join(segment_file(index));
    std::fs::read_to_string(&path).map_err(|e| ServeError::State {
        detail: format!("cannot read {}: {e}", path.display()),
    })
}

/// A segment the strict parser refused.
fn parse_error(e: arcc_replay::LogError) -> ServeError {
    ServeError::Segment(SegmentError::Parse(e))
}

/// [`write_file_atomic`] for the service's own state files, with the
/// path in the error.
fn write_atomic_text(path: &Path, text: &str) -> Result<(), ServeError> {
    write_file_atomic(path, text.as_bytes()).map_err(|e| write_error(path, &e))
}

/// A state file that could not be written.
fn write_error(path: &Path, e: &std::io::Error) -> ServeError {
    ServeError::State {
        detail: format!("cannot write {}: {e}", path.display()),
    }
}
