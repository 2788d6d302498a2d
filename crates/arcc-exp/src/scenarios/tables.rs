//! Static-artefact scenarios: the data-layout drawings and configuration
//! tables (no simulation, instant at any knob setting).

use arcc_core::{find_scheme, ArccScheme, PAPER_SCHEMES};
use arcc_faults::{FaultGeometry, FaultMode, FitRates};
use arcc_gf::chipkill::LineCodec;
use arcc_mem::SystemConfig;

use crate::experiment::Experiment;
use crate::report::{Report, Table, Value};
use crate::scenario::Scenario;

fn codec_row(label: &str, codec: &LineCodec) -> Vec<Value> {
    vec![
        Value::from(label),
        Value::from(codec.devices()),
        Value::from(codec.data_devices()),
        Value::from(codec.check_symbols()),
        Value::from(codec.beats()),
        Value::from(codec.data_bytes()),
    ]
}

fn draw_rank(codec: &LineCodec) -> String {
    let mut row = String::from("  ");
    for d in 0..codec.devices() {
        row.push_str(if d < codec.data_devices() {
            "[D]"
        } else {
            "[R]"
        });
        if (d + 1) % 18 == 0 {
            row.push_str("  ");
        }
    }
    row
}

/// Figures 2.1 and 4.1: the chipkill data layouts, rendered from the
/// actual codec geometry.
pub struct FigLayouts;

impl Scenario for FigLayouts {
    fn name(&self) -> &'static str {
        "fig_layouts"
    }

    fn title(&self) -> &'static str {
        "Chipkill data layouts (Figures 2.1 and 4.1), from the real codec geometry"
    }

    fn run(&self, _exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        let scheme = ArccScheme::commercial();
        let mut t = Table::new(
            "codecs",
            &[
                "layout",
                "devices",
                "data_devices",
                "check_symbols",
                "codewords_per_line",
                "line_bytes",
            ],
        );
        let sccdcd = LineCodec::sccdcd_x4();
        t.push_row(codec_row("SCCDCD rank (two lockstep channels)", &sccdcd));
        t.push_row(codec_row(
            "ARCC relaxed line (one channel)",
            scheme.relaxed(),
        ));
        t.push_row(codec_row(
            "ARCC upgraded line (channels X+Y lockstep)",
            scheme.upgraded(),
        ));
        t.push_row(codec_row(
            "ARCC doubly-upgraded line (§5.1)",
            scheme.upgraded2(),
        ));
        report.push_table(t);
        report.push_meta("storage_overhead", scheme.storage_overhead());

        report.push_note("Device map per codeword (D = data symbol, R = redundant symbol):");
        report.push_note(format!("SCCDCD:\n{}", draw_rank(&sccdcd)));
        report.push_note(format!("Relaxed:\n{}", draw_rank(scheme.relaxed())));
        report.push_note(format!("Upgraded:\n{}", draw_rank(scheme.upgraded())));
        report.push_note("");
        report.push_note("Relaxed page (64 lines, alternating channels):");
        report.push_note("  line 0X | line 1Y | line 2X | line 3Y | ... | line 63Y");
        report.push_note("Upgraded page (32 joined lines):");
        report.push_note("  [line 0X + line 1Y] | [line 2X + line 3Y] | ... | [62X + 63Y]");
        report.push_note(format!(
            "Storage overhead identical in both modes: {:.1}% — the joining trick.",
            scheme.storage_overhead() * 100.0
        ));
        report
    }
}

/// Table 7.1: memory configurations, plus the Chapter 2 scheme
/// descriptor table that motivates them.
#[allow(non_camel_case_types)]
pub struct Table7_1;

impl Scenario for Table7_1 {
    fn name(&self) -> &'static str {
        "table7_1"
    }

    fn title(&self) -> &'static str {
        "Memory configurations and chipkill scheme descriptors"
    }

    fn run(&self, _exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());

        let mut configs = Table::new(
            "memory_configs",
            &[
                "name",
                "tech",
                "io_width",
                "channels",
                "ranks_per_channel",
                "rank_size",
                "total_devices",
            ],
        );
        for (name, cfg) in [
            ("Baseline", SystemConfig::sccdcd_baseline()),
            ("ARCC", SystemConfig::arcc_x8()),
        ] {
            configs.push_row(vec![
                Value::from(name),
                Value::from("DDR2"),
                Value::from(format!("X{}", cfg.device.io_width)),
                Value::from(cfg.channels),
                Value::from(cfg.geometry.ranks),
                Value::from(cfg.devices_per_rank),
                Value::from(cfg.total_devices()),
            ]);
        }
        report.push_table(configs);

        let mut schemes = Table::new(
            "schemes",
            &[
                "scheme",
                "rank_size",
                "check_symbols",
                "storage_overhead",
                "relative_read_cost",
                "relative_write_cost",
                "correct",
                "sequential_correct",
                "detect",
            ],
        );
        for entry in PAPER_SCHEMES.iter().filter_map(|key| find_scheme(key)) {
            let d = &entry.relaxed;
            schemes.push_row(vec![
                Value::from(d.name),
                Value::from(d.rank_size),
                Value::from(d.check_symbols),
                Value::from(d.storage_overhead),
                Value::from(d.relative_read_cost()),
                Value::from(d.relative_write_cost()),
                Value::from(d.guarantees.correct),
                Value::from(d.guarantees.sequential_correct),
                Value::from(d.guarantees.detect),
            ]);
        }
        report.push_table(schemes);
        report
    }
}

/// Table 7.4: fraction of pages upgraded per device-level fault type,
/// derived from the channel geometry rather than hard-coded.
#[allow(non_camel_case_types)]
pub struct Table7_4;

impl Scenario for Table7_4 {
    fn name(&self) -> &'static str {
        "table7_4"
    }

    fn title(&self) -> &'static str {
        "Fault modelling details (fraction of pages upgraded)"
    }

    fn run(&self, _exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        let g = FaultGeometry::paper_channel();
        let rates = FitRates::sridharan_sc12();
        let mut t = Table::new(
            "fault_modes",
            &["fault_type", "pages_upgraded", "fit_per_device"],
        );
        for mode in FaultMode::ALL.iter().rev() {
            t.push_row(vec![
                Value::from(mode.name()),
                Value::from(g.affected_page_fraction(*mode)),
                Value::from(rates.fit(*mode)),
            ]);
        }
        report.push_table(t);
        report.push_note("Paper rows: lane 100%, device 1/2, subbank 1/16, column 1/32 — the");
        report.push_note(format!(
            "geometry above reproduces them ({} ranks x {} banks, 2 pages/row).",
            g.ranks, g.banks
        ));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_1_lists_every_paper_scheme_in_order() {
        // `run` skips unknown keys, so a stale key would drop a row silently.
        let report = Table7_1.run(&Experiment::quick());
        let rows = &report.table("schemes").unwrap().rows;
        let names: Vec<_> = rows.iter().map(|row| row[0].as_str()).collect();
        let expected: Vec<_> = PAPER_SCHEMES
            .iter()
            .map(|key| find_scheme(key).map(|e| e.relaxed.name))
            .collect();
        assert_eq!(names, expected);
    }
}
