//! **`arcc-obs`** — the deterministic observability layer of the ARCC
//! workspace (re-exported as `arcc::obs`).
//!
//! The workspace's determinism contract (parallel == sequential,
//! bit-for-bit) extends to its metrics: every value a deterministic
//! crate records is an integer whose merge is associative and
//! commutative, so per-shard [`MetricsSnapshot`]s fold to byte-identical
//! results under any schedule — the same contract `FleetStats::merge`
//! carries. Wall-clock time never enters those crates; it lives behind
//! the [`Clock`] trait and is injected only at the non-deterministic
//! edges (the `arcc-serve` binary, bench bins, `repro_all --profile`).
//!
//! * [`Recorder`] — the instrumentation surface (counters, high-water
//!   gauges, log2-bucketed histograms). [`NoopRecorder`] is the default
//!   and compiles to nothing; [`SnapshotRecorder`] accumulates into a
//!   [`MetricsSnapshot`].
//! * [`to_prometheus`] / [`to_json`] — hand-rolled exposition, rendered
//!   in name order so equal snapshots serialise byte-identically.
//! * [`Clock`] / [`ManualClock`] / [`WallClock`] — the only sanctioned
//!   way to read time; the deterministic [`ManualClock`] is the default
//!   everywhere a clock is embedded in replayable state.
//! * [`log_line`] — structured single-line JSON stderr events for the
//!   service binary.
//!
//! # Recording and exposing metrics
//!
//! ```
//! use arcc_obs::{Recorder, SnapshotRecorder, to_prometheus};
//!
//! let mut rec = SnapshotRecorder::new();
//! rec.counter_add("fleet.events.popped", 128);
//! rec.gauge_max("fleet.queue.peak", 17);
//! rec.observe("replay.segment.lines", 4096);
//!
//! let snap = rec.into_snapshot();
//! assert_eq!(snap.counter("fleet.events.popped"), 128);
//! assert!(to_prometheus(&snap).contains("fleet_events_popped 128"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod log;
pub mod metrics;

pub use clock::{elapsed_secs, Clock, ManualClock, WallClock};
pub use export::{json_f64, json_string, prometheus_name, to_json, to_prometheus};
pub use log::{log_line, LogLevel};
pub use metrics::{
    Histogram, MetricValue, MetricsSnapshot, NoopRecorder, Recorder, SnapshotRecorder,
    HISTOGRAM_BUCKETS,
};
