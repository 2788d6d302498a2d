//! Fixture-driven end-to-end tests for the audit: each committed fixture
//! workspace under `fixtures/` exercises detection, allowlist
//! suppression, ratchet behaviour, or report stability; the final test
//! runs the audit against the real workspace, which must stay clean.

use std::path::{Path, PathBuf};

use arcc_audit::report::Check;
use arcc_audit::{api_diff, fix_api, fix_ratchet, run_audit};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn count(outcome: &arcc_audit::report::AuditOutcome, check: Check) -> usize {
    outcome
        .violations
        .iter()
        .filter(|v| v.check == check)
        .count()
}

#[test]
fn clean_fixture_passes_every_check() {
    let outcome = run_audit(&fixture("clean")).expect("audit runs");
    assert!(
        outcome.is_clean(),
        "expected clean, got: {:#?}",
        outcome.violations
    );
    // The test-module and binary HashMaps were exempt; the library one was
    // suppressed by the allowlist entry.
    assert_eq!(outcome.allowlist_used, 1);
    assert_eq!(outcome.crates_audited, 1);
}

#[test]
fn dirty_fixture_trips_every_check() {
    let outcome = run_audit(&fixture("dirty")).expect("audit runs");
    // use + constructor for each hash container, plus the SystemTime read.
    assert_eq!(
        count(&outcome, Check::Determinism),
        5,
        "{:#?}",
        outcome.violations
    );
    // The `use` plus both `Mutex` tokens of the static declaration.
    assert_eq!(
        count(&outcome, Check::Parallelism),
        3,
        "{:#?}",
        outcome.violations
    );
    // No audit/layers.toml at all.
    assert_eq!(count(&outcome, Check::Layering), 1);
    // Missing #![forbid(unsafe_code)].
    assert_eq!(count(&outcome, Check::Unsafe), 1);
    // 1 unwrap vs a bound of 0.
    assert_eq!(count(&outcome, Check::PanicRatchet), 1);
    // No committed audit/api/fix-dirty.txt snapshot.
    assert_eq!(count(&outcome, Check::ApiSnapshot), 1);
    // `Spec::fingerprint`, `now_ms` and `counts`: no other file names them.
    assert_eq!(count(&outcome, Check::DeadApi), 3);
    // No [doc_coverage] entry for the crate.
    assert_eq!(count(&outcome, Check::DocCoverage), 1);
    // new_knob unclassified, stale_field gone, scheduler excluded-but-used.
    assert_eq!(count(&outcome, Check::Fingerprint), 3);
    // The thread_rng allow entry matches nothing.
    assert_eq!(count(&outcome, Check::Config), 1);
    assert_eq!(outcome.allowlist_used, 0);
}

#[test]
fn dirty_fixture_reports_lines_and_messages() {
    let outcome = run_audit(&fixture("dirty")).expect("audit runs");
    let det: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.check == Check::Determinism)
        .collect();
    assert!(det.iter().all(|v| v.file == "src/lib.rs"));
    assert!(det.iter().all(|v| v.line > 0));
    assert!(det.iter().any(|v| v.message.contains("`SystemTime`")));
    let fp: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.check == Check::Fingerprint)
        .collect();
    assert!(fp.iter().any(|v| v.message.contains("`new_knob`")));
    assert!(fp.iter().any(|v| v.message.contains("`stale_field`")));
    assert!(fp.iter().any(|v| v.message.contains("`scheduler`")));
}

#[test]
fn unsafe_allowlisted_crate_needs_safety_comments() {
    let outcome = run_audit(&fixture("unsafe-allowed")).expect("audit runs");
    let unsafe_v: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.check == Check::Unsafe)
        .collect();
    // `documented` passes, `undocumented` is flagged.
    assert_eq!(unsafe_v.len(), 1, "{:#?}", outcome.violations);
    assert!(unsafe_v[0].message.contains("SAFETY"));
    // No other file names either fn.
    assert_eq!(count(&outcome, Check::DeadApi), 2);
    assert_eq!(outcome.allowlist_used, 1);
    assert_eq!(count(&outcome, Check::Config), 0);
}

#[test]
fn ratchet_improvement_demands_fix_ratchet_then_passes() {
    // Work on a scratch copy so --fix-ratchet cannot dirty the committed
    // fixture.
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ratchet-low");
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).expect("clear scratch");
    }
    copy_dir(&fixture("ratchet-low"), &scratch).expect("copy fixture");

    let before = run_audit(&scratch).expect("audit runs");
    let ratchet: Vec<_> = before
        .violations
        .iter()
        .filter(|v| v.check == Check::PanicRatchet)
        .collect();
    assert_eq!(ratchet.len(), 1, "{:#?}", before.violations);
    assert!(ratchet[0].message.contains("--fix-ratchet"));

    let counts = fix_ratchet(&scratch).expect("fix-ratchet runs");
    assert_eq!(counts.panic_counts, vec![("fix-low".to_string(), 0)]);
    assert_eq!(counts.doc_counts, vec![("fix-low".to_string(), 100)]);
    let after = run_audit(&scratch).expect("audit runs");
    assert!(after.is_clean(), "{:#?}", after.violations);
}

#[test]
fn layer_fixture_reports_inversion_and_undeclared_use() {
    let outcome = run_audit(&fixture("layer-violation")).expect("audit runs");
    let layering: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.check == Check::Layering)
        .collect();
    // The upward dependency and the undeclared `use arcc_fixhidden` path;
    // the equal-layer arcc-fixpeer edge is allowlisted.
    assert_eq!(layering.len(), 2, "{:#?}", outcome.violations);
    assert!(layering
        .iter()
        .any(|v| v.file == "crates/arcc-fixmid/Cargo.toml"
            && v.message.contains("strictly lower layers")));
    assert!(layering
        .iter()
        .any(|v| v.file == "crates/arcc-fixmid/src/lib.rs"
            && v.line == 5
            && v.message.contains("arcc-fixhidden")));
    // `succ` and `combine` are called by the crates above them; the top
    // crate's `twice` by nothing.
    assert_eq!(count(&outcome, Check::DeadApi), 1);
    assert_eq!(outcome.violations.len(), 3, "{:#?}", outcome.violations);
    assert_eq!(outcome.allowlist_used, 1);
}

#[test]
fn shared_state_fixture_flags_each_primitive_once_allowlisted_once() {
    let outcome = run_audit(&fixture("shared-state")).expect("audit runs");
    let par: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.check == Check::Parallelism)
        .collect();
    // RefCell (use + field), AtomicU32 (use + both static tokens), and the
    // structural `static mut`; the OnceLock table is allowlisted.
    assert_eq!(par.len(), 6, "{:#?}", outcome.violations);
    assert!(par.iter().any(|v| v.message.contains("`static mut`")));
    assert!(par.iter().any(|v| v.message.contains("`RefCell`")));
    assert!(par.iter().any(|v| v.message.contains("`AtomicU32`")));
    assert!(par.iter().all(|v| !v.message.contains("OnceLock")));
    // Plus `table`, which no other file calls.
    assert_eq!(count(&outcome, Check::DeadApi), 1);
    assert_eq!(outcome.violations.len(), 7, "{:#?}", outcome.violations);
    assert_eq!(outcome.allowlist_used, 1);
}

#[test]
fn api_drift_fixture_reports_both_directions_then_fix_api_accepts() {
    let outcome = run_audit(&fixture("api-drift")).expect("audit runs");
    let api: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.check == Check::ApiSnapshot)
        .collect();
    assert_eq!(api.len(), 2, "{:#?}", outcome.violations);
    assert!(api
        .iter()
        .any(|v| v.message.contains("added") && v.message.contains("length")));
    assert!(api
        .iter()
        .any(|v| v.message.contains("removed") && v.message.contains("frobnicate")));
    assert_eq!(outcome.violations.len(), 2, "{:#?}", outcome.violations);

    // Accepting the drift on a scratch copy makes the audit pass.
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("api-drift");
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).expect("clear scratch");
    }
    copy_dir(&fixture("api-drift"), &scratch).expect("copy fixture");
    let diff = api_diff(&scratch).expect("api-diff renders");
    assert!(diff.contains("fix-api: +1 -1"), "{diff}");
    assert!(
        diff.contains("+ length") && diff.contains("- frobnicate"),
        "{diff}"
    );
    let written = fix_api(&scratch).expect("fix-api runs");
    assert_eq!(written, vec![("fix-api".to_string(), 2)]);
    let after = run_audit(&scratch).expect("audit runs");
    assert!(after.is_clean(), "{:#?}", after.violations);
    assert_eq!(
        api_diff(&scratch).expect("api-diff renders"),
        "no public-API drift\n"
    );
}

#[test]
fn doc_regression_fixture_fails_until_ratchet_reseeded() {
    let outcome = run_audit(&fixture("doc-regression")).expect("audit runs");
    let docs: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.check == Check::DocCoverage)
        .collect();
    assert_eq!(docs.len(), 1, "{:#?}", outcome.violations);
    assert!(
        docs[0].message.contains("fell to 66%"),
        "{}",
        docs[0].message
    );
    assert_eq!(outcome.violations.len(), 1, "{:#?}", outcome.violations);

    // Reseeding on a scratch copy records the regression and passes.
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("doc-regression");
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).expect("clear scratch");
    }
    copy_dir(&fixture("doc-regression"), &scratch).expect("copy fixture");
    let counts = fix_ratchet(&scratch).expect("fix-ratchet runs");
    assert_eq!(counts.doc_counts, vec![("fix-docs".to_string(), 66)]);
    let after = run_audit(&scratch).expect("audit runs");
    assert!(after.is_clean(), "{:#?}", after.violations);
}

#[test]
fn dead_api_fixture_flags_fns_no_other_file_names_in_code() {
    let outcome = run_audit(&fixture("dead-api")).expect("audit runs");
    let dead: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| {
            assert_eq!(v.check, Check::DeadApi, "{v}");
            assert_eq!(v.file, "crates/fix-dead/src/lib.rs", "{v}");
            v.message
                .split('`')
                .nth(1)
                .expect("fn in backticks")
                .to_string()
        })
        .collect();
    // Called only in its own file, or named elsewhere only in a comment, a
    // string, a doc-test, a `pub use`, a `let` binding or a struct field.
    // A call, a path or an import in another crate's `src/`, a `tests/` or
    // `examples/` file or `perfbench/src/` clears a fn; the trait method
    // and the `pub(crate)` fn are never counted.
    assert_eq!(
        dead,
        [
            "only_here",
            "in_comment",
            "in_string",
            "in_doctest",
            "reexported",
            "in_binding",
            "in_field",
            "Widget::dead_method"
        ]
    );
    let first = &outcome.violations[0];
    assert_eq!(first.line, 6);
    assert_eq!(
        first.to_string(),
        "[dead_api] crates/fix-dead/src/lib.rs:6: fix-dead: pub fn `only_here` is used in \
         no other source file; call it, make it private, or delete it"
    );
}

#[test]
fn dead_api_needs_no_perfbench_tree() {
    // Without `perfbench/` the audit still runs, and the fn only the
    // benchmark called is dead.
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dead-api");
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).expect("clear scratch");
    }
    copy_dir(&fixture("dead-api"), &scratch).expect("copy fixture");
    std::fs::remove_dir_all(scratch.join("perfbench")).expect("drop perfbench");
    let outcome = run_audit(&scratch).expect("audit runs");
    assert_eq!(
        count(&outcome, Check::DeadApi),
        9,
        "{:#?}",
        outcome.violations
    );
    assert!(outcome
        .violations
        .iter()
        .any(|v| v.message.contains("`from_perfbench`")));
    assert_eq!(outcome.violations.len(), 9, "{:#?}", outcome.violations);
}

#[test]
fn json_report_is_stable_and_well_formed() {
    let a = run_audit(&fixture("dirty")).expect("audit runs");
    let b = run_audit(&fixture("dirty")).expect("audit runs");
    assert_eq!(a.to_json(), b.to_json(), "report must be byte-stable");
    let json = a.to_json();
    assert!(json.contains("\"scenario\": \"arcc_audit\""));
    assert!(json.contains("\"schema\": 2"));
    assert!(json.contains("\"name\": \"violations\""));
    assert!(json.contains("\"name\": \"panic_sites\""));
    assert!(json.contains("\"name\": \"doc_coverage\""));
    assert!(json.contains("[\"fix-dirty\", 1]"));
    assert!(json.contains("\"clean\": false"));
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let outcome = run_audit(&root).expect("audit runs");
    assert!(
        outcome.is_clean(),
        "the workspace no longer passes its own audit:\n{}",
        outcome
            .violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
    assert!(outcome.crates_audited >= 13);
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
