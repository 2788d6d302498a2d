//! **`arcc-exp`** — the unified experiment API of the ARCC workspace
//! (re-exported as `arcc::exp`).
//!
//! The paper's evaluation is a grid of scenarios — schemes × workload
//! mixes × upgraded-page fractions × Monte-Carlo depths. This crate makes
//! that grid a first-class, typed, parallel API instead of a zoo of
//! hand-rolled binaries:
//!
//! * [`Experiment`] — a builder carrying every knob (trace length,
//!   Monte-Carlo channels/machines and seed, escape-study trials, mix
//!   filter, worker count). Binaries read the `ARCC_*` environment
//!   variables through [`Experiment::from_env`], which refuses a value it
//!   cannot use.
//! * [`Scenario`] + [`registry`] — 22 named scenarios: the 13 paper
//!   artefacts (`fig_layouts`, `table7_1`, `table7_4`, `fig3_1`,
//!   `motivation`, `fig6_1`, `fig7_1`–`fig7_6`, `escape_rates`), the
//!   fleet-scale studies over the `arcc-fleet` event engine
//!   (`fleet_baseline`, `fleet_mixed_population`,
//!   `fleet_repair_policies`), the replay studies over `arcc-replay`
//!   (`fleet_replay_roundtrip`, `fleet_fit_vs_replay`), the ECC
//!   scheme-zoo studies (`scheme_zoo`, `codec_escape_rates`,
//!   `fleet_scheme_sweep`) and the `ablations` report, each runnable
//!   in-process via [`run`]. The `repro_all` binary in `arcc-bench` runs
//!   any subset of them in-process ([`run_selected`]), not as a
//!   subprocess chain.
//! * [`sweep`] — a deterministic parallel sweep engine: ordered
//!   [`arcc_core::parallel_map`] over `std::thread::scope`, per-cell
//!   seeds ([`arcc_core::cell_seed`]), and Monte-Carlo channel sharding
//!   ([`lifetime_curve_sharded`]). Parallel runs are bit-identical to
//!   sequential ones for the same seeds.
//! * [`Report`] — structured results (metadata + typed tables + notes)
//!   with human-table, CSV, and hand-rolled JSON emitters; `repro_all`
//!   writes them to `target/repro/*.json` for trajectory tooling.
//!
//! # Running a paper artefact
//!
//! ```
//! use arcc_exp::Experiment;
//!
//! // Quick-mode knobs; the same call at the defaults reproduces the
//! // paper-scale figure.
//! let exp = Experiment::quick().trace_requests(2_000).mixes(["Mix1"]);
//! let report = arcc_exp::run("fig7_1", &exp).unwrap();
//!
//! // Typed access to the results...
//! let saving = report.meta_value("avg_power_saving").unwrap().as_f64().unwrap();
//! assert!(saving > 0.0, "ARCC saves power fault-free");
//!
//! // ...and machine-readable emission.
//! assert!(report.to_json().starts_with("{\"scenario\":\"fig7_1\""));
//! assert!(report.to_csv().contains("baseline_power_mw"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod sweep;

pub use experiment::Experiment;
pub use report::{Report, Table, Value};
pub use runner::{repro_all_main, run_selected};
pub use scenario::{find, names, registry, run, ExpError, Scenario};
pub use sweep::{lifetime_curve_sharded, MC_CHUNK};
