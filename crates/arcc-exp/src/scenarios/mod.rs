//! The thirteen paper artefacts, the fleet-scale studies and the design
//! ablations as [`Scenario`](crate::Scenario) implementations. Each
//! module groups related figures; `repro_all <name>` in `arcc-bench` runs
//! any of them via the registry. The scenarios that read no
//! [`Experiment`](crate::Experiment) knob (`fig_layouts`, `table7_1`,
//! `table7_4`, `scheme_zoo` and `ablations`) are pinned byte for byte by
//! goldens under `tests/golden/`.

mod ablations;
mod fleet;
mod lifetime;
mod power_perf;
mod reliability;
mod replay;
mod tables;
mod zoo;

pub use ablations::Ablations;
pub use fleet::{FleetBaseline, FleetMixedPopulation, FleetRepairPolicies};
pub use lifetime::{Fig3_1, Fig7_4, Fig7_5, Fig7_6};
pub use power_perf::{Fig7_1, Fig7_2, Fig7_3, Motivation};
pub use reliability::{EscapeRates, Fig6_1};
pub use replay::{FleetFitVsReplay, FleetReplayRoundtrip};
pub use tables::{FigLayouts, Table7_1, Table7_4};
pub use zoo::{CodecEscapeRates, FleetSchemeSweep, SchemeZoo};

use arcc_faults::FaultMode;

/// The four device-level fault types of Figures 7.2/7.3, in paper order.
/// The first element is the machine-readable column key used verbatim in
/// report tables.
pub(crate) const FAULT_TYPES: [(&str, FaultMode); 4] = [
    ("lane", FaultMode::MultiRank),
    ("device", FaultMode::MultiBank),
    ("subbank", FaultMode::SingleBank),
    ("column", FaultMode::SingleColumn),
];
