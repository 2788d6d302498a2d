//! Reliability scenarios: the Figure 6.1 SDC Monte Carlo and the
//! supplementary decoder escape-rate study, each swept in parallel with
//! deterministic per-cell seeds.

use arcc_gf::analysis::measure_miscorrection_rate;
use arcc_gf::{Gf256, ReedSolomon};
use arcc_reliability::sdc::figure_6_1_grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiment::Experiment;
use crate::report::{Report, Table, Value};
use crate::scenario::Scenario;
use arcc_core::{cell_seed, parallel_map};

/// Figure 6.1: SDCs per 1000 machine-years — always-on double error
/// detection (commercial SCCDCD) vs. ARCC's scrub-gated detection.
#[allow(non_camel_case_types)]
pub struct Fig6_1;

impl Scenario for Fig6_1 {
    fn name(&self) -> &'static str {
        "fig6_1"
    }

    fn title(&self) -> &'static str {
        "SDC comparison: commercial DED vs ARCC DED (SDCs / 1000 machine-years)"
    }

    fn run(&self, exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        let machines = exp.mc_machine_count();
        let base_seed = exp.mc_seed_value() ^ 0x61F;
        let mults = [1.0, 2.0, 4.0];
        let grids = parallel_map(exp.worker_count(), &mults, |i, &m| {
            figure_6_1_grid(7, &[m], machines, cell_seed(base_seed, i as u64))
        });
        let mut t = Table::new(
            "sdc_grid",
            &[
                "rate_multiplier",
                "years",
                "sccdcd_sdc_per_1000my",
                "arcc_sdc_per_1000my",
                "sccdcd_due_events",
                "arcc_due_events",
            ],
        );
        for grid in &grids {
            for (years, mult, r) in grid {
                t.push_row(vec![
                    Value::from(*mult),
                    Value::from(*years),
                    Value::from(r.sccdcd_sdc_per_1000_machine_years()),
                    Value::from(r.arcc_sdc_per_1000_machine_years()),
                    Value::from(r.sccdcd_due_events),
                    Value::from(r.arcc_due_events),
                ]);
            }
        }
        report.push_meta("mc_machines", machines);
        report.push_meta("scrub_period_hours", 4u64);
        report.push_table(t);
        report.push_note("Paper anchor: 'the increase to the SDC rate of SCCDCD+ARCC over");
        report.push_note("SCCDCD alone is insignificant' — both columns should be the same");
        report.push_note("order of magnitude, with ARCC slightly higher.");
        report
    }
}

/// Supplementary analysis: empirical miscorrection (SDC escape) rates of
/// every code/policy the paper's Chapter 6 reasons about.
pub struct EscapeRates;

impl Scenario for EscapeRates {
    fn name(&self) -> &'static str {
        "escape_rates"
    }

    fn title(&self) -> &'static str {
        "Probability that an overload error pattern silently miscorrects"
    }

    fn run(&self, exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        let trials = exp.escape_trial_count();
        let base_seed = exp.mc_seed_value() ^ 0xE5CA9E;
        let cases: [(&str, usize, usize, usize, usize); 6] = [
            ("relaxed RS(18,16) t=1", 18, 16, 2, 1),
            ("relaxed RS(18,16) t=1", 18, 16, 3, 1),
            ("SCCDCD RS(36,32) t=1 (detect 2)", 36, 32, 2, 1),
            ("SCCDCD RS(36,32) t=1 overload", 36, 32, 3, 1),
            ("full-power RS(36,32) t=2", 36, 32, 3, 2),
            ("upgraded2 RS(72,64) t=1", 72, 64, 2, 1),
        ];
        let measured = parallel_map(
            exp.worker_count(),
            &cases,
            |i, &(_, n, k, errors, limit)| {
                let rs = ReedSolomon::<Gf256>::new(n, k).expect("valid parameters");
                let mut rng = StdRng::seed_from_u64(cell_seed(base_seed, i as u64));
                measure_miscorrection_rate(&rs, errors, limit, trials, &mut rng)
            },
        );
        let mut t = Table::new(
            "escape_rates",
            &[
                "code_policy",
                "errors",
                "correction_limit",
                "trials",
                "escape_probability",
            ],
        );
        for ((name, _, _, errors, limit), m) in cases.iter().zip(&measured) {
            t.push_row(vec![
                Value::from(*name),
                Value::from(*errors),
                Value::from(*limit),
                Value::from(m.trials),
                Value::from(m.escape_probability()),
            ]);
        }
        report.push_meta("trials", trials);
        report.push_table(t);
        report.push_note("Reading: the relaxed mode's double-fault escape rate (~7%) is the");
        report.push_note("multiplier on the already-tiny scrub-window overlap probability —");
        report.push_note("why Figure 6.1's ARCC and SCCDCD columns are indistinguishable.");
        report.push_note("SCCDCD's guaranteed detect-2 measures exactly 0, and its correct-1");
        report.push_note("policy beats full-power decoding on triple-fault escapes.");
        report
    }
}
