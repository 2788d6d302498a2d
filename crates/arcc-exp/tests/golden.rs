//! Golden tests for the experiment API: the fig7_1 headline number at a
//! reduced deterministic trace, and bit-identity between parallel and
//! sequential sweeps.

use arcc_exp::{run, Experiment};

/// The paper's headline: −36.7 % average DRAM power. At the quick-mode
/// 20 000-request trace with the default seed, the reproduction lands at
/// −36.8 %; pin it within ±2 percentage points so simulator regressions
/// surface immediately.
#[test]
fn fig7_1_headline_power_saving() {
    let exp = Experiment::quick();
    let report = run("fig7_1", &exp).expect("fig7_1 registered");
    let saving = report
        .meta_value("avg_power_saving")
        .and_then(|v| v.as_f64())
        .expect("avg_power_saving meta");
    assert!(
        (saving - 0.368).abs() <= 0.02,
        "average power saving {saving:.4} drifted from the -36.8% golden value"
    );
    // Performance should improve on average too (paper: +5.9%).
    let gain = report
        .meta_value("avg_perf_gain")
        .and_then(|v| v.as_f64())
        .expect("avg_perf_gain meta");
    assert!(gain > 0.0, "average perf gain {gain:.4} should be positive");
    // One row per mix plus nothing else.
    assert_eq!(report.table("mixes").expect("mixes table").rows.len(), 12);
}

/// The sweep engine's core guarantee: for equal seeds, a parallel run is
/// byte-identical to a sequential one — same JSON, same CSV, same
/// rendering. Exercised through a trace-simulation scenario (fig7_1) and
/// a Monte-Carlo sharded scenario (fig7_6).
#[test]
fn parallel_sweep_matches_sequential_byte_for_byte() {
    for scenario in ["fig7_1", "fig7_6"] {
        // Two independent experiments: a clone would share the sim memo,
        // letting the parallel run serve cached sequential results
        // instead of exercising the worker pool.
        let quick = || {
            Experiment::quick()
                .trace_requests(4_000)
                .mc_channels(2_500) // three MC shards, one partial
                .mixes(["Mix1", "Mix7", "Mix10"])
        };
        let sequential = run(scenario, &quick().threads(1)).unwrap();
        let parallel = run(scenario, &quick().threads(8)).unwrap();
        assert_eq!(
            sequential.to_json(),
            parallel.to_json(),
            "{scenario}: parallel JSON diverged from sequential"
        );
        assert_eq!(sequential.to_csv(), parallel.to_csv());
        assert_eq!(sequential.render(), parallel.render());
    }
}

/// Every registered scenario must produce a non-empty report at tiny
/// knobs — the in-process repro_all contract.
#[test]
fn every_scenario_runs_at_tiny_knobs() {
    let exp = Experiment::quick()
        .trace_requests(1_000)
        .mc_channels(100)
        .mc_machines(200)
        .escape_trials(200)
        .mixes(["Mix1"]);
    for name in arcc_exp::names() {
        let report = run(name, &exp).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.scenario, name);
        assert!(
            report.tables.iter().any(|t| !t.rows.is_empty()),
            "{name}: no rows"
        );
        assert!(report.to_json().contains(&format!("\"{name}\"")));
    }
}

/// A run of the whole registry writes one parseable JSON file per
/// scenario and returns the reports in registry order.
#[test]
fn full_run_emits_json_files() {
    let exp = Experiment::quick()
        .trace_requests(1_000)
        .mc_channels(100)
        .mc_machines(200)
        .escape_trials(200)
        .mixes(["Mix2"]);
    let dir = std::env::temp_dir().join(format!("arcc-repro-test-{}", std::process::id()));
    let clock = arcc_obs::ManualClock::new();
    let reports = arcc_exp::run_selected(&exp, &dir, &[], &clock).expect("full run");
    assert_eq!(reports.len(), arcc_exp::registry().len());
    for (r, _) in &reports {
        let path = dir.join(format!("{}.json", r.scenario));
        let on_disk = std::fs::read_to_string(&path).expect("report file written");
        assert_eq!(on_disk, r.to_json());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The static artefacts — layouts, configuration and scheme tables —
/// and the ablations read no `Experiment` knob, so their JSON is pinned
/// byte for byte: a refactor of the scheme table, the codec geometry, the
/// LLC models or the memory simulator must leave every byte in place.
/// Regenerate after an intentional change with
/// `ARCC_REPORT_DIR=crates/arcc-exp/tests/golden cargo run --release -p
/// arcc-bench --bin repro_all -- fig_layouts table7_1 table7_4 scheme_zoo
/// ablations`.
#[test]
fn static_artefacts_match_their_goldens() {
    let goldens = [
        ("fig_layouts", include_str!("golden/fig_layouts.json")),
        ("table7_1", include_str!("golden/table7_1.json")),
        ("table7_4", include_str!("golden/table7_4.json")),
        ("scheme_zoo", include_str!("golden/scheme_zoo.json")),
        ("ablations", include_str!("golden/ablations.json")),
    ];
    let exp = Experiment::quick();
    for (name, golden) in goldens {
        let report = run(name, &exp).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.to_json(), golden, "{name} drifted from its golden");
    }
}
