//! The scenario registry: every paper artefact as a named, in-process
//! experiment.
//!
//! A [`Scenario`] turns an [`Experiment`] into a [`Report`]. The registry
//! holds the 13 artefacts of the paper's evaluation (`fig_layouts`,
//! `table7_1`, `table7_4`, `fig3_1`, `motivation`, `fig6_1`,
//! `fig7_1`–`fig7_6`, `escape_rates`) plus the fleet-scale studies over
//! the `arcc-fleet` event engine (`fleet_baseline`,
//! `fleet_mixed_population`, `fleet_repair_policies`), the
//! trace-driven replay studies over `arcc-replay`
//! (`fleet_replay_roundtrip`, `fleet_fit_vs_replay`), the ECC
//! scheme-zoo studies (`scheme_zoo`, `codec_escape_rates`,
//! `fleet_scheme_sweep`), and the `ablations` of the paired-tag LLC and
//! the address maps. [`crate::run`] runs one by name, and the
//! `repro_all` binary under `arcc-bench` loops the registry (or the
//! scenarios named on its command line) in-process.

use std::fmt;

use crate::experiment::Experiment;
use crate::report::Report;

/// One named paper artefact.
pub trait Scenario: Sync {
    /// Registry key (e.g. `"fig7_1"`).
    fn name(&self) -> &'static str;
    /// Human caption (the figure/table title).
    fn title(&self) -> &'static str;
    /// Runs the artefact under the given experiment configuration.
    fn run(&self, exp: &Experiment) -> Report;
}

/// Every registered scenario, in the paper's reproduction order.
pub fn registry() -> &'static [&'static dyn Scenario] {
    use crate::scenarios::*;
    static REGISTRY: &[&dyn Scenario] = &[
        &FigLayouts,
        &Table7_1,
        &Table7_4,
        &Fig3_1,
        &Motivation,
        &Fig6_1,
        &Fig7_1,
        &Fig7_2,
        &Fig7_3,
        &Fig7_4,
        &Fig7_5,
        &Fig7_6,
        &EscapeRates,
        &FleetBaseline,
        &FleetMixedPopulation,
        &FleetRepairPolicies,
        &FleetReplayRoundtrip,
        &FleetFitVsReplay,
        &SchemeZoo,
        &CodecEscapeRates,
        &FleetSchemeSweep,
        &Ablations,
    ];
    REGISTRY
}

/// All registered scenario names, in order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|s| s.name()).collect()
}

/// Looks up a scenario by name.
pub fn find(name: &str) -> Option<&'static dyn Scenario> {
    registry().iter().copied().find(|s| s.name() == name)
}

/// Errors from the experiment API.
#[derive(Debug)]
pub enum ExpError {
    /// No scenario with the requested name.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// Every valid name.
        available: Vec<&'static str>,
    },
    /// A scenario panicked while running (see `repro_all`).
    ScenarioPanicked {
        /// The failing scenario.
        name: &'static str,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Writing a report to disk failed.
    Io {
        /// The path being written.
        path: std::path::PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::UnknownScenario { name, available } => write!(
                f,
                "unknown scenario {name:?}; available: {}",
                available.join(", ")
            ),
            ExpError::ScenarioPanicked { name, message } => {
                write!(f, "scenario {name} panicked: {message}")
            }
            ExpError::Io { path, error } => {
                write!(f, "failed to write {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for ExpError {}

/// Runs one scenario by name.
///
/// ```
/// use arcc_exp::Experiment;
///
/// // table7_4 derives page fractions from channel geometry — no
/// // simulation, so it is instant at any knob setting.
/// let report = arcc_exp::run("table7_4", &Experiment::new()).unwrap();
/// assert_eq!(report.scenario, "table7_4");
/// assert!(report.to_json().contains("\"fault_type\""));
/// ```
pub fn run(name: &str, exp: &Experiment) -> Result<Report, ExpError> {
    match find(name) {
        Some(s) => Ok(s.run(exp)),
        None => Err(ExpError::UnknownScenario {
            name: name.to_string(),
            available: names(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_twenty_two_unique_scenarios() {
        let ns = names();
        assert_eq!(ns.len(), 22);
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ns.len(), "duplicate scenario names");
        for expected in [
            "fig_layouts",
            "table7_1",
            "table7_4",
            "fig3_1",
            "motivation",
            "fig6_1",
            "fig7_1",
            "fig7_2",
            "fig7_3",
            "fig7_4",
            "fig7_5",
            "fig7_6",
            "escape_rates",
            "fleet_baseline",
            "fleet_mixed_population",
            "fleet_repair_policies",
            "fleet_replay_roundtrip",
            "fleet_fit_vs_replay",
            "scheme_zoo",
            "codec_escape_rates",
            "fleet_scheme_sweep",
            "ablations",
        ] {
            assert!(find(expected).is_some(), "{expected} missing");
        }
    }

    #[test]
    fn unknown_scenario_lists_alternatives() {
        let err = run("fig9_9", &Experiment::new()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fig9_9"));
        assert!(msg.contains("fig7_1"));
    }
}
