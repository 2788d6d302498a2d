//! **`arcc-serve`** — an always-on fleet digital twin (re-exported as
//! `arcc::serve`).
//!
//! Every other entry point in this workspace answers a question by
//! *running a simulation from zero*. An operator's fleet does not work
//! like that: the fault log grows a few DIMMs at a time, and the
//! questions ("what if we had run a spare pool?") repeat. This crate
//! keeps the simulation **alive between questions**:
//!
//! * the [`TwinEngine`] owns durable fleet state
//!   rooted in [`arcc_fleet::FleetCheckpoint`]: ingesting an
//!   `arcc-fault-log v1` segment **appends** (via
//!   [`arcc_replay::FaultLog::append_inventory_recorded`] and
//!   [`arcc_fleet::extend_replays`], one fold over every branch) instead
//!   of rerunning, so N ingests cost N extensions, never N replays of the
//!   whole history;
//! * what-if queries **fork** the checkpoint under a different
//!   [`arcc_fleet::OperatorPolicy`] and run only the divergent work —
//!   after the one-time fork, a counterfactual is as cheap to keep
//!   current as the baseline;
//! * a deterministic line/JSON [`protocol`] serves the engine over any
//!   byte stream (the `arcc-serve` binary wires it to stdin/stdout or a
//!   localhost TCP socket), and pure queries are **memoised** — a
//!   repeated question is answered byte-identically from a [`std::collections::BTreeMap`]
//!   without touching the engine;
//! * the service is **observable without losing determinism**: the
//!   engine records `serve.*` / `replay.parse.*` work counters into an
//!   `arcc-obs` snapshot (a pure function of the command sequence), the
//!   `metrics` command exposes it as one-line JSON or Prometheus text,
//!   and per-command latency histograms live behind an
//!   [`arcc_obs::Clock`] — a `ManualClock` by default, so goldens and
//!   library users see all-zero timings, a `WallClock` in the binary;
//! * state refusal is **typed**: a checkpoint that does not belong to
//!   the accumulated history is a
//!   [`ServeError::CheckpointMismatch`](twin::ServeError) carrying both
//!   fingerprints, surfaced through the protocol as a structured error
//!   object — never a panic, never a silently wrong extension.
//!
//! # A session, end to end
//!
//! ```
//! use arcc_fleet::{DimmPopulation, FleetSpec};
//! use arcc_replay::generate_log;
//! use arcc_serve::{Service, TwinEngine};
//!
//! // An observed log, arriving in two segments.
//! let spec = FleetSpec::baseline(32)
//!     .populations(vec![DimmPopulation::paper("hot").rate_multiplier(40.0)])
//!     .shard_channels(16)
//!     .seed(7);
//! let segments = generate_log(&spec).split_channels(16);
//!
//! let mut twin = Service::new(TwinEngine::new(2, 7));
//! for seg in &segments {
//!     let text = seg.to_text();
//!     let request = format!("ingest lines={}", text.lines().count());
//!     let reply = twin.handle(&request, Some(&text));
//!     assert!(reply.starts_with("{\"ok\":true,\"cmd\":\"ingest\""));
//! }
//!
//! // A counterfactual: same history, replace-on-DUE operators.
//! let cold = twin.handle("whatif policy=replace-on-due", None);
//! let warm = twin.handle("whatif policy=replace-on-due", None);
//! assert_eq!(cold, warm); // memoised: byte-identical
//! assert_eq!(twin.engine().counters().memo_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod twin;

pub use protocol::{render_error, Service, MAX_INGEST_LINES};
pub use twin::{
    parse_policy, policy_token, Branch, Counters, IngestSummary, ServeError, TwinEngine,
    BASELINE_BRANCH,
};
