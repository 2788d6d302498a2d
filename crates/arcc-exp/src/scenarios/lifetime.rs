//! Lifetime Monte-Carlo scenarios: Figure 3.1 (faulty-page fraction over
//! time) and Figures 7.4–7.6 (power/performance overhead as faults
//! accumulate). The channel fleets are sharded over the sweep engine so
//! the Monte Carlos use every core while staying bit-identical to
//! sequential runs.

use arcc_core::system::worst_case_power_factor;
use arcc_core::{cell_seed, find_scheme, parallel_map};
use arcc_faults::{FaultGeometry, FaultMode};
use arcc_obs::NoopRecorder;
use arcc_reliability::{faulty_fraction_curve, LifetimeConfig, LifetimePoint, OverheadModel};
use arcc_trace::paper_mixes;

use crate::experiment::Experiment;
use crate::report::{Report, Table, Value};
use crate::scenario::Scenario;
use crate::sweep::lifetime_curve_sharded;

const RATE_MULTIPLIERS: [f64; 3] = [1.0, 2.0, 4.0];

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Figure 3.1: average fraction of 4 KB pages affected by faults vs.
/// operational lifespan.
#[allow(non_camel_case_types)]
pub struct Fig3_1;

impl Scenario for Fig3_1 {
    fn name(&self) -> &'static str {
        "fig3_1"
    }

    fn title(&self) -> &'static str {
        "Faulty memory vs time: fraction of 4 KB pages affected by faults"
    }

    fn run(&self, exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        let channels = exp.mc_channel_count();
        let base_seed = exp.mc_seed_value() ^ 0x31A;
        let curves = parallel_map(exp.worker_count(), &RATE_MULTIPLIERS, |i, &m| {
            faulty_fraction_curve(7, &[m], channels, cell_seed(base_seed, i as u64))
        });
        let mut t = Table::new(
            "faulty_fraction",
            &["years", "rate_multiplier", "monte_carlo", "closed_form"],
        );
        for curve in &curves {
            for p in curve {
                t.push_row(vec![
                    Value::from(p.years),
                    Value::from(p.rate_multiplier),
                    Value::from(p.monte_carlo),
                    Value::from(p.closed_form),
                ]);
            }
        }
        report.push_meta("mc_channels", channels);
        report.push_table(t);
        report.push_note("Paper anchor: 'just a few percent during most of the lifetime of the");
        report.push_note("memory channel, even for a worst case failure rate 4X as high'.");
        report
    }
}

/// Measures per-fault-type overhead over three representative mixes
/// (streaming, pointer-chasing, balanced — §7.1 step 1), with all
/// (mix, fraction) cells swept in parallel. Each cell yields
/// `(power_mw, total_ipc)`; `overhead` maps a (clean, faulty) pair to a
/// fractional overhead, which is averaged over the sample mixes and
/// clamped at zero.
fn measured_model(
    exp: &Experiment,
    g: &FaultGeometry,
    overhead: fn(clean: (f64, f64), faulty: (f64, f64)) -> f64,
) -> OverheadModel {
    let mixes = paper_mixes();
    let sample = [mixes[3], mixes[9], mixes[0]];
    let modes = [
        FaultMode::MultiRank,
        FaultMode::MultiBank,
        FaultMode::SingleBank,
        FaultMode::SingleColumn,
    ];
    let mut cells: Vec<(usize, f64)> = Vec::new();
    for mi in 0..sample.len() {
        cells.push((mi, 0.0));
        for mode in modes {
            cells.push((mi, g.affected_page_fraction(mode)));
        }
    }
    let metric = parallel_map(exp.worker_count(), &cells, |_, &(mi, frac)| {
        let r = exp.run_arcc(&sample[mi], frac);
        (r.power_mw, r.perf.total_ipc)
    });
    let stride = 1 + modes.len();
    let by_mode: Vec<f64> = (0..modes.len())
        .map(|ti| {
            let overheads: Vec<f64> = (0..sample.len())
                .map(|mi| overhead(metric[mi * stride], metric[mi * stride + 1 + ti]))
                .collect();
            mean(&overheads).max(0.0)
        })
        .collect();
    // Tiny-footprint modes scale linearly from the column measurement.
    let col_frac = g.affected_page_fraction(FaultMode::SingleColumn);
    let per_frac = if col_frac > 0.0 {
        by_mode[3] / col_frac
    } else {
        0.0
    };
    let g2 = *g;
    OverheadModel::from_fn(move |m| match m {
        FaultMode::MultiRank => by_mode[0],
        FaultMode::MultiBank => by_mode[1],
        FaultMode::SingleBank => by_mode[2],
        FaultMode::SingleColumn => by_mode[3],
        other => per_frac * g2.affected_page_fraction(other),
    })
}

/// Shared engine for Figures 7.4/7.5: worst-case and measured overhead
/// curves at 1x/2x/4x fault rates.
fn overhead_curves_report(
    scenario: &'static str,
    title: &'static str,
    exp: &Experiment,
    worst: &OverheadModel,
    measured: &OverheadModel,
) -> Report {
    let mut report = Report::new(scenario, title);
    let channels = exp.mc_channel_count();
    report.push_meta("mc_channels", channels);

    // The curve jobs run sequentially; each shards its channel fleet over
    // the worker pool internally (that is where the volume is).
    let mut curves: Vec<(Vec<LifetimePoint>, Vec<LifetimePoint>)> = Vec::new();
    for mult in RATE_MULTIPLIERS {
        let cfg = LifetimeConfig {
            rate_multiplier: mult,
            channels,
            seed: exp.mc_seed_value(),
            ..LifetimeConfig::default()
        };
        curves.push((
            lifetime_curve_sharded(exp.worker_count(), &cfg, worst, &mut NoopRecorder),
            lifetime_curve_sharded(exp.worker_count(), &cfg, measured, &mut NoopRecorder),
        ));
    }

    let mut t = Table::new(
        "overhead_by_year",
        &[
            "year",
            "worst_case_1x",
            "measured_1x",
            "worst_case_2x",
            "measured_2x",
            "worst_case_4x",
            "measured_4x",
        ],
    );
    for y in 0..7 {
        let mut row = vec![Value::from((y + 1) as u64)];
        for (wc, ms) in &curves {
            row.push(Value::from(wc[y].avg_overhead));
            row.push(Value::from(ms[y].avg_overhead));
        }
        t.push_row(row);
    }
    report.push_table(t);
    report.push_meta(
        "worst_case_overhead_7y_4x",
        curves[2].0.last().expect("7 points").avg_overhead,
    );
    report
}

/// Figure 7.4: average increase in power consumption as a function of
/// time, compared to fault-free memory.
#[allow(non_camel_case_types)]
pub struct Fig7_4;

impl Scenario for Fig7_4 {
    fn name(&self) -> &'static str {
        "fig7_4"
    }

    fn title(&self) -> &'static str {
        "Power overhead of error correction vs time (avg over channel fleet)"
    }

    fn run(&self, exp: &Experiment) -> Report {
        let g = FaultGeometry::paper_channel();
        let worst = OverheadModel::worst_case_arcc_power(&g);
        let measured = measured_model(exp, &g, |clean, faulty| faulty.0 / clean.0 - 1.0);
        let mut report = overhead_curves_report(self.name(), self.title(), exp, &worst, &measured);
        let wc_7y_4x = report
            .meta_value("worst_case_overhead_7y_4x")
            .and_then(|v| v.as_f64())
            .expect("meta set by overhead_curves_report");
        let residual_saving = 1.0 - worst_case_power_factor(wc_7y_4x) * (1.0 - 0.353);
        report.push_note(format!(
            "Worst-case overhead at 7y/4x: {:.2}% -> residual ARCC power benefit {:.1}%",
            wc_7y_4x * 100.0,
            residual_saving * 100.0
        ));
        report.push_note(
            "(paper anchor: benefit 'no less than 30%' at the end of 7 years, 4x rate).",
        );
        report
    }
}

/// Figure 7.5: average decrease in performance as a function of time,
/// compared to fault-free memory.
#[allow(non_camel_case_types)]
pub struct Fig7_5;

impl Scenario for Fig7_5 {
    fn name(&self) -> &'static str {
        "fig7_5"
    }

    fn title(&self) -> &'static str {
        "Performance overhead of error correction vs time (avg over fleet)"
    }

    fn run(&self, exp: &Experiment) -> Report {
        let g = FaultGeometry::paper_channel();
        let worst = OverheadModel::worst_case_arcc_perf(&g);
        let measured = measured_model(exp, &g, |clean, faulty| 1.0 - faulty.1 / clean.1);
        let mut report = overhead_curves_report(self.name(), self.title(), exp, &worst, &measured);
        report.push_note("Paper anchor: 'negligible performance degradation on average' —");
        report.push_note("measured curves far below the worst-case estimate, both small.");
        report
    }
}

/// Figure 7.6: worst-case overhead of ARCC applied to LOT-ECC.
#[allow(non_camel_case_types)]
pub struct Fig7_6;

impl Scenario for Fig7_6 {
    fn name(&self) -> &'static str {
        "fig7_6"
    }

    fn title(&self) -> &'static str {
        "ARCC+LOT-ECC vs nine-device LOT-ECC: worst-case overhead vs time"
    }

    fn run(&self, exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        let g = FaultGeometry::paper_channel();
        let model = OverheadModel::worst_case_lotecc(&g);
        let channels = exp.mc_channel_count();
        report.push_meta("mc_channels", channels);
        let mut curves = Vec::new();
        let mut avgs = Vec::new();
        for mult in RATE_MULTIPLIERS {
            let cfg = LifetimeConfig {
                rate_multiplier: mult,
                channels,
                seed: exp.mc_seed_value(),
                ..LifetimeConfig::default()
            };
            let c = lifetime_curve_sharded(exp.worker_count(), &cfg, &model, &mut NoopRecorder);
            avgs.push(mean(&c.iter().map(|p| p.avg_overhead).collect::<Vec<_>>()));
            curves.push(c);
        }
        let mut t = Table::new(
            "overhead_by_year",
            &["year", "mult_1x", "mult_2x", "mult_4x"],
        );
        for (y, ((one_x, two_x), four_x)) in curves[0]
            .iter()
            .zip(&curves[1])
            .zip(&curves[2])
            .take(7)
            .enumerate()
        {
            t.push_row(vec![
                Value::from((y + 1) as u64),
                Value::from(one_x.avg_overhead),
                Value::from(two_x.avg_overhead),
                Value::from(four_x.avg_overhead),
            ]);
        }
        report.push_table(t);
        report.push_meta("avg_overhead_1x", avgs[0]);
        report.push_meta("avg_overhead_4x", avgs[2]);
        report.push_note(format!(
            "7-year average overhead: 1x {:.2}% (paper: 1.6%), 4x {:.2}% (paper: <= 6.3%)",
            avgs[0] * 100.0,
            avgs[2] * 100.0
        ));
        let lot18 = find_scheme("lot-ecc-18");
        assert!(lot18.is_some(), "lot-ecc-18 is registered");
        let Some(lot18) = lot18 else { return report };
        let guarantees = lot18.relaxed.guarantees;
        report.push_note(format!(
            "Bought with it: {}+{} sequential chip correction (a 17x DUE reduction",
            guarantees.correct, guarantees.sequential_correct
        ));
        report.push_note("per the paper's double chip sparing citation).");
        report
    }
}
