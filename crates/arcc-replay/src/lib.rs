//! **`arcc-replay`** — trace-driven fleet ingestion and replay
//! (re-exported as `arcc::replay`).
//!
//! The `arcc-fleet` engine's populations are synthetic: weights plus FIT
//! multipliers feeding lazy exponential draws. Field studies (the
//! SC'12-style per-DIMM fault logs the paper's rates come from) ask the
//! opposite question: given a real inventory and the faults it actually
//! produced, what would ARCC's detection, upgrade, and repair policies
//! have done? This crate turns the engine into that dual-source
//! simulator:
//!
//! * [`FaultLog`] — the `arcc-fault-log v1` text format: population
//!   classes, a DIMM inventory, and per-DIMM observed fault streams,
//!   with a strict parser/validator (every violation is a typed
//!   [`LogError`], never a panic) and a bit-exact serialiser;
//! * [`generate_log`] — a calibrated synthetic generator that walks the
//!   engine's own RNG streams, so a log generated from a [`FleetSpec`]
//!   and replayed under
//!   [`OperatorPolicy::None`](arcc_fleet::OperatorPolicy::None)
//!   reproduces the synthetic run's `FleetStats` **bit-for-bit** (the
//!   round-trip tests pin it) — the property that keeps parser, replay
//!   engine, and generator honest against each other;
//! * [`fit_spec`] — the log → spec fitter: per-class maximum-likelihood
//!   FIT multipliers from observed exposure, so a replayed log and its
//!   fitted synthetic twin run head-to-head (`fleet_fit_vs_replay` in
//!   the scenario registry);
//! * replay execution lives in `arcc-fleet` itself
//!   ([`run_replay`](arcc_fleet::run_replay) and friends): observed
//!   arrivals flow through the same bucketed scheduler, stats,
//!   checkpoint/resume, and atomic persistence as synthetic runs.
//!
//! # From log text to fleet stats
//!
//! ```
//! use arcc_fleet::{run_fleet, run_replay};
//! use arcc_replay::{fit_spec, generate_log, FaultLog};
//!
//! // A (tiny) observed log — normally parsed from a file.
//! let text = "arcc-fault-log v1\n\
//!             years 7\n\
//!             class racks 4 4\n\
//!             dimm d0 racks\n\
//!             dimm d1 racks\n\
//!             fault d1 120.5 device P 0 7 * * *\n\
//!             end\n";
//! let log = FaultLog::parse(text)?;
//!
//! // Replay: observed arrivals, simulated detection/upgrade/policy.
//! let spec = log.replay_spec(42);
//! let replayed = run_replay(2, &spec, &log.arrivals()?)?;
//! assert_eq!(replayed.channels, 2);
//! assert_eq!(replayed.faults, 1);
//!
//! // Fit: a synthetic fleet calibrated to the same log.
//! let fitted = fit_spec(&log, 42);
//! let synthetic = run_fleet(2, &fitted.spec);
//! assert_eq!(synthetic.channels, 2);
//!
//! // Round-trip the log through its text form losslessly.
//! assert_eq!(FaultLog::parse(&log.to_text())?, log);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod format;
pub mod generate;
pub mod segment;

pub use fit::{fit_spec, ClassFit, FitResult};
pub use format::{DimmTable, FaultLog, LogClass, LogError, LOG_HEADER};
pub use generate::generate_log;
pub use segment::SegmentError;

// Re-exported so downstream code can name the replay types without a
// direct arcc-fleet dependency.
pub use arcc_fleet::{ArrivalCsr, FleetSpec, ReplayArrivals, ReplayError};
