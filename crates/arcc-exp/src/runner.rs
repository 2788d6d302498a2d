//! Driving scenarios from the `repro_all` binary: the in-process loop
//! over the registry (all of it, or the scenarios named on the command
//! line) with JSON report emission.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use arcc_obs::{elapsed_secs, Clock, ManualClock, WallClock};

use crate::experiment::Experiment;
use crate::report::Report;
use crate::scenario::{registry, ExpError, Scenario};

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_caught(s: &'static dyn Scenario, exp: &Experiment) -> Result<Report, ExpError> {
    catch_unwind(AssertUnwindSafe(|| s.run(exp))).map_err(|payload| ExpError::ScenarioPanicked {
        name: s.name(),
        message: panic_message(payload),
    })
}

/// Runs every registered scenario in order, printing each rendering and
/// writing `<out_dir>/<name>.json`.
///
/// Stops at the first failure: a panicking scenario is reported by name
/// (instead of the process dying inside it), so `repro_all` can exit
/// non-zero with a useful message.
pub fn run_all(exp: &Experiment, out_dir: &Path) -> Result<Vec<Report>, ExpError> {
    run_selected(exp, out_dir, &[])
}

/// Like [`run_all`], but restricted to the scenarios named in `only`
/// (registry order, not argument order). An empty `only` runs the whole
/// registry; an unknown name is an [`ExpError::UnknownScenario`] before
/// anything runs, so a typo can't silently pass as a no-op.
pub fn run_selected(
    exp: &Experiment,
    out_dir: &Path,
    only: &[String],
) -> Result<Vec<Report>, ExpError> {
    let timed = run_selected_profiled(exp, out_dir, only, &ManualClock::new())?;
    Ok(timed.into_iter().map(|(report, _)| report).collect())
}

/// [`run_selected`] with per-scenario wall-clock timing: each report is
/// paired with the seconds `clock` advanced while its scenario ran.
/// Timing is read from the caller's [`Clock`], so library code and tests
/// stay deterministic (a [`ManualClock`] yields all-zero timings) while
/// the `repro_all --profile` binary passes a wall clock.
///
/// # Errors
///
/// Exactly as [`run_selected`].
pub fn run_selected_profiled(
    exp: &Experiment,
    out_dir: &Path,
    only: &[String],
    clock: &dyn Clock,
) -> Result<Vec<(Report, f64)>, ExpError> {
    for name in only {
        if !registry().iter().any(|s| s.name() == name) {
            return Err(ExpError::UnknownScenario {
                name: name.clone(),
                available: registry().iter().map(|s| s.name()).collect(),
            });
        }
    }
    std::fs::create_dir_all(out_dir).map_err(|error| ExpError::Io {
        path: out_dir.to_path_buf(),
        error,
    })?;
    let mut reports = Vec::new();
    for s in registry() {
        if !only.is_empty() && !only.iter().any(|n| n == s.name()) {
            continue;
        }
        let start = clock.now_nanos();
        let report = run_caught(*s, exp)?;
        let seconds = elapsed_secs(clock, start);
        print!("{}", report.render());
        let path = out_dir.join(format!("{}.json", report.scenario));
        std::fs::write(&path, report.to_json()).map_err(|error| ExpError::Io { path, error })?;
        reports.push((report, seconds));
    }
    Ok(reports)
}

/// Renders the `--profile` JSON document: one entry per scenario with
/// its wall-clock seconds and total report rows, plus the run total.
/// Single-line, key-sorted only by construction (registry order), and
/// built with the same hand-rolled escaping as the reports themselves.
fn profile_json(timed: &[(Report, f64)]) -> String {
    let mut out = String::from("{\"scenarios\":[");
    for (i, (report, seconds)) in timed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"seconds\":{seconds},\"rows\":{}}}",
            arcc_obs::json_string(&report.scenario),
            report.total_rows()
        ));
    }
    let total: f64 = timed.iter().map(|(_, s)| s).sum();
    out.push_str(&format!("],\"total_seconds\":{total}}}"));
    out
}

/// Report directory: `ARCC_REPORT_DIR` if set, else `target/repro`
/// (resolved against `CARGO_TARGET_DIR`-less workspace-root invocation,
/// which is how `cargo run` launches the binaries).
fn default_report_dir() -> PathBuf {
    std::env::var_os("ARCC_REPORT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("repro"))
}

/// Entry point for the `repro_all` binary: runs the whole registry
/// in-process, returns the process exit code. On failure the failing
/// scenario's name is printed to stderr.
///
/// Trailing CLI arguments select a subset by scenario name (CI uses
/// this to smoke-run `fig7_6` and `fleet_scheme_sweep` on their own); no
/// arguments means the full registry. Knobs come from the `ARCC_*`
/// environment variables ([`Experiment::from_env`]).
///
/// A `--profile` argument (anywhere in the argument list) additionally
/// writes `<report dir>/profile.json` — per-scenario wall-clock seconds
/// and report row counts — so CI can archive where repro time goes.
pub fn repro_all_main() -> i32 {
    let mut only: Vec<String> = std::env::args().skip(1).collect();
    let profile = only.iter().any(|a| a == "--profile");
    only.retain(|a| a != "--profile");
    let exp = Experiment::from_env();
    let dir = default_report_dir();
    match run_selected_profiled(&exp, &dir, &only, &WallClock::new()) {
        Ok(timed) => {
            if profile {
                let path = dir.join("profile.json");
                if let Err(error) = std::fs::write(&path, profile_json(&timed)) {
                    eprintln!("repro_all FAILED: cannot write {}: {error}", path.display());
                    return 1;
                }
                println!();
                println!("profile written to {}", path.display());
            }
            println!();
            println!(
                "repro_all: {} scenarios OK, reports under {}",
                timed.len(),
                dir.display()
            );
            0
        }
        Err(e) => {
            eprintln!("repro_all FAILED: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Panicker;
    impl Scenario for Panicker {
        fn name(&self) -> &'static str {
            "panicker"
        }
        fn title(&self) -> &'static str {
            "always panics"
        }
        fn run(&self, _exp: &Experiment) -> Report {
            panic!("boom: {}", 42);
        }
    }

    #[test]
    fn run_selected_rejects_unknown_names_before_running_anything() {
        let err = run_selected(
            &Experiment::quick(),
            Path::new("target/never-created"),
            &["no_such_scenario".to_string()],
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("no_such_scenario"), "{msg}");
        assert!(msg.contains("fleet_scheme_sweep"), "{msg}");
        assert!(!Path::new("target/never-created").exists());
    }

    #[test]
    fn run_selected_runs_only_the_named_scenarios() {
        let dir = std::env::temp_dir().join(format!("arcc-run-selected-{}", std::process::id()));
        let reports = run_selected(
            &Experiment::quick().sequential(),
            &dir,
            &["scheme_zoo".to_string()],
        )
        .expect("scheme_zoo runs");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].scenario, "scheme_zoo");
        assert!(dir.join("scheme_zoo.json").exists());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn panics_become_named_errors() {
        static P: Panicker = Panicker;
        // Silence the default hook's backtrace spam for this test.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = run_caught(&P, &Experiment::new()).unwrap_err();
        std::panic::set_hook(prev);
        let msg = err.to_string();
        assert!(msg.contains("panicker"), "{msg}");
        assert!(msg.contains("boom: 42"), "{msg}");
    }
}
