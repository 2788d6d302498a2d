//! The audit checks: determinism and parallelism-safety lints, crate
//! layering, unsafe policy, panic ratchet, public-API snapshot, dead
//! API, doc-coverage ratchet, and fingerprint drift.
//!
//! All checks consume the semantic model ([`crate::model`]): per-file
//! item trees stitched into each crate's module tree, plus the blanked
//! text views for token search. Findings are appended to an
//! [`AuditOutcome`]; the caller sorts and renders.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use crate::config::{Allowlist, FieldClass, FingerprintManifest, Layers, Ratchet};
use crate::model::{parse_file, CrateModel, FileModel, Item, ItemKind, Vis};
use crate::report::{AuditOutcome, Check, Violation};
use crate::scan::{line_of, strip_comments_and_strings, token_hits};
use crate::workspace::{FileKind, Workspace};

/// Crates whose library code carries the determinism contract, unless
/// overridden by `[determinism] crates` in the allowlist.
pub const DEFAULT_DETERMINISTIC_CRATES: &[&str] = &[
    "arcc-core",
    "arcc-gf",
    "arcc-faults",
    "arcc-mem",
    "arcc-reliability",
    "arcc-obs",
    "arcc-fleet",
    "arcc-replay",
    "arcc-exp",
    "arcc-serve",
];

/// Checks whose findings may be suppressed by `[[allow]]` entries.
pub const ALLOWLISTABLE_CHECKS: &[&str] = &["determinism", "unsafe", "parallelism", "layering"];

/// Banned tokens in deterministic library code, with the hazard each one
/// introduces.
pub const BANNED_TOKENS: &[(&str, &str)] = &[
    ("HashMap", "iteration order varies run to run"),
    ("HashSet", "iteration order varies run to run"),
    ("Instant::now", "wall-clock reads break replayability"),
    ("SystemTime", "wall-clock reads break replayability"),
    ("thread_rng", "OS-seeded randomness breaks replayability"),
    (
        "env::var",
        "environment reads make results machine-dependent",
    ),
    (
        "env::var_os",
        "environment reads make results machine-dependent",
    ),
    (
        "env::vars",
        "environment reads make results machine-dependent",
    ),
];

const LOCK_HAZARD: &str = "blocking locks serialise workers and hide ordering dependencies";
const CELL_HAZARD: &str =
    "interior mutability invites shared-state designs that break the parallel==sequential contract";
const LAZY_HAZARD: &str = "lazy global state hides init-order dependencies between workers";
const ATOMIC_HAZARD: &str = "atomics admit cross-worker communication the scheduler cannot replay";

/// Shared-mutable-state primitives banned in deterministic library code —
/// the static precondition for running sweeps under a parallel fleet
/// runner. (`static mut` is detected structurally via the item model.)
pub const PARALLELISM_TOKENS: &[(&str, &str)] = &[
    ("Mutex", LOCK_HAZARD),
    ("RwLock", LOCK_HAZARD),
    ("RefCell", CELL_HAZARD),
    ("Cell", CELL_HAZARD),
    ("UnsafeCell", CELL_HAZARD),
    ("OnceCell", LAZY_HAZARD),
    ("OnceLock", LAZY_HAZARD),
    ("LazyLock", LAZY_HAZARD),
    (
        "thread_local",
        "per-thread state diverges between sequential and parallel runs",
    ),
    ("AtomicBool", ATOMIC_HAZARD),
    ("AtomicU8", ATOMIC_HAZARD),
    ("AtomicU16", ATOMIC_HAZARD),
    ("AtomicU32", ATOMIC_HAZARD),
    ("AtomicU64", ATOMIC_HAZARD),
    ("AtomicUsize", ATOMIC_HAZARD),
    ("AtomicI8", ATOMIC_HAZARD),
    ("AtomicI16", ATOMIC_HAZARD),
    ("AtomicI32", ATOMIC_HAZARD),
    ("AtomicI64", ATOMIC_HAZARD),
    ("AtomicIsize", ATOMIC_HAZARD),
    ("AtomicPtr", ATOMIC_HAZARD),
];

/// Tokens counted as panic sites by the ratchet.
pub const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// A source file with its model, views, and module-tree facts.
struct Processed {
    rel_path: String,
    kind: FileKind,
    /// Original text (for `// SAFETY:` comment checks).
    raw: String,
    /// Comments/strings blanked.
    stripped: String,
    /// Comments/strings and `#[cfg(test)]` items blanked.
    lib_view: String,
    /// The parsed item model.
    model: FileModel,
    /// Module path from the crate root.
    mod_path: Vec<String>,
    /// The whole file is test-only (its own or an ancestor's cfg(test)).
    file_test: bool,
    /// The file's module is pub-reachable from the crate root.
    file_pub: bool,
    /// Its `mod x;` declaration carries docs.
    decl_doc: bool,
}

/// All of one crate's files, preprocessed once.
struct ProcessedCrate {
    name: String,
    rel_dir: String,
    root_file: Option<String>,
    has_lib: bool,
    deps: Vec<String>,
    files: Vec<Processed>,
}

/// Everything `--fix-ratchet` / `--fix-api` need from one measurement
/// pass.
pub struct Measured {
    /// Per-crate panic-site counts, sorted by crate.
    pub panic_counts: Vec<(String, i64)>,
    /// Per-lib-crate doc-coverage percent, sorted by crate.
    pub doc_counts: Vec<(String, i64)>,
    /// Per-lib-crate sorted public-API lines, sorted by crate.
    pub api: Vec<(String, Vec<String>)>,
}

/// Runs every check over the workspace and returns the outcome.
///
/// Configuration problems (malformed files, unused allowlist entries,
/// missing ratchet/manifest/layers) surface as [`Check::Config`] or
/// per-check violations rather than hard errors, so a single run reports
/// everything.
///
/// # Errors
///
/// Only unreadable source files propagate as [`io::Error`].
pub fn run_all(ws: &Workspace, out: &mut AuditOutcome) -> io::Result<()> {
    let crates = preprocess(ws)?;
    out.crates_audited = crates.len();
    out.files_scanned = crates.iter().map(|c| c.files.len()).sum();

    let allow = match Allowlist::load(&ws.root) {
        Ok(a) => a,
        Err(e) => {
            out.violations.push(Violation {
                check: Check::Config,
                file: e.file.clone(),
                line: e.line,
                message: e.what,
            });
            Allowlist::default()
        }
    };
    let mut used = vec![false; allow.entries.len()];
    for (i, entry) in allow.entries.iter().enumerate() {
        if !ALLOWLISTABLE_CHECKS.contains(&entry.check.as_str()) {
            used[i] = true; // counted as "used" so it is not doubly reported
            out.violations.push(Violation {
                check: Check::Config,
                file: "audit/allowlist.toml".into(),
                line: 0,
                message: format!(
                    "[[allow]] entry for {} names unknown check {:?}",
                    entry.path, entry.check
                ),
            });
        }
    }

    let (ratchet, ratchet_missing) = match Ratchet::load(&ws.root) {
        Ok(Some(r)) => (Some(r), false),
        Ok(None) => (None, true),
        Err(e) => {
            out.violations.push(Violation {
                check: Check::Config,
                file: e.file,
                line: e.line,
                message: e.what,
            });
            (None, false)
        }
    };

    check_determinism(&crates, &allow, &mut used, out);
    check_parallelism(&crates, &allow, &mut used, out);
    check_layering(&ws.root, &crates, &allow, &mut used, out);
    check_unsafe(&crates, &allow, &mut used, out);
    check_panic_ratchet(&crates, ratchet.as_ref(), ratchet_missing, out);
    check_api_snapshot(&ws.root, &crates, out);
    check_dead_api(ws, &crates, out)?;
    check_doc_coverage(&crates, ratchet.as_ref(), out);
    check_fingerprint(&ws.root, out);

    for (i, entry) in allow.entries.iter().enumerate() {
        if used[i] {
            out.allowlist_used += 1;
        } else {
            out.violations.push(Violation {
                check: Check::Config,
                file: "audit/allowlist.toml".into(),
                line: 0,
                message: format!(
                    "unused [[allow]] entry ({} / {} / {:?}); remove it",
                    entry.check, entry.path, entry.pattern
                ),
            });
        }
    }
    Ok(())
}

/// Measures panic counts, doc coverage, and public-API lines (the
/// `--fix-ratchet` / `--fix-api` payloads).
///
/// # Errors
///
/// Propagates unreadable source files.
pub fn measure(ws: &Workspace) -> io::Result<Measured> {
    let crates = preprocess(ws)?;
    let mut m = Measured {
        panic_counts: Vec::new(),
        doc_counts: Vec::new(),
        api: Vec::new(),
    };
    for c in &crates {
        m.panic_counts.push((c.name.clone(), count_panic_sites(c)));
        if c.has_lib {
            let (d, p) = doc_counts(c);
            m.doc_counts.push((c.name.clone(), doc_percent(d, p)));
            m.api.push((c.name.clone(), api_lines(c)));
        }
    }
    m.panic_counts.sort();
    m.doc_counts.sort();
    m.api.sort();
    Ok(m)
}

fn preprocess(ws: &Workspace) -> io::Result<Vec<ProcessedCrate>> {
    let mut out = Vec::with_capacity(ws.crates.len());
    for c in &ws.crates {
        let mut parsed = Vec::with_capacity(c.files.len());
        for f in &c.files {
            let raw = fs::read_to_string(&f.abs_path)?;
            let pf = parse_file(&raw);
            parsed.push((f.rel_path.clone(), f.src_rel.clone(), f.kind, raw, pf));
        }
        // Stitch the lib target's module tree (all files for pure-bin
        // crates, whose tree is rooted at main.rs).
        let tree_input: Vec<(String, String, FileModel)> = parsed
            .iter()
            .filter(|(_, _, kind, _, _)| !c.has_lib || *kind == FileKind::Lib)
            .map(|(rel, sr, _, _, pf)| (rel.clone(), sr.clone(), pf.model.clone()))
            .collect();
        let cm = CrateModel::build(tree_input);
        let files = parsed
            .into_iter()
            .map(|(rel_path, _src_rel, kind, raw, pf)| {
                let (mod_path, file_test, file_pub, decl_doc) = match cm.file(&rel_path) {
                    Some(mf) => (mf.mod_path.clone(), mf.file_test, mf.file_pub, mf.decl_doc),
                    None => (Vec::new(), pf.model.cfg_test, false, false),
                };
                Processed {
                    rel_path,
                    kind,
                    raw,
                    stripped: pf.code_view,
                    lib_view: pf.lib_view,
                    model: pf.model,
                    mod_path,
                    file_test,
                    file_pub,
                    decl_doc,
                }
            })
            .collect();
        out.push(ProcessedCrate {
            name: c.name.clone(),
            rel_dir: c.rel_dir.clone(),
            root_file: c.root_file.clone(),
            has_lib: c.has_lib,
            deps: c.deps.clone(),
            files,
        });
    }
    Ok(out)
}

/// Visits every non-`cfg(test)` item, depth first (test subtrees are
/// skipped whole).
fn walk_lib_items<'a>(items: &'a [Item], f: &mut impl FnMut(&'a Item)) {
    for it in items {
        if it.cfg_test {
            continue;
        }
        f(it);
        walk_lib_items(&it.children, f);
    }
}

fn deterministic_names(allow: &Allowlist) -> Vec<String> {
    allow.deterministic_crates.clone().unwrap_or_else(|| {
        DEFAULT_DETERMINISTIC_CRATES
            .iter()
            .map(|s| s.to_string())
            .collect()
    })
}

fn check_determinism(
    crates: &[ProcessedCrate],
    allow: &Allowlist,
    used: &mut [bool],
    out: &mut AuditOutcome,
) {
    let det = deterministic_names(allow);
    for c in crates.iter().filter(|c| det.contains(&c.name)) {
        for f in c
            .files
            .iter()
            .filter(|f| f.kind == FileKind::Lib && !f.file_test)
        {
            for &(token, hazard) in BANNED_TOKENS {
                let hits = token_hits(&f.lib_view, token);
                if hits.is_empty() {
                    continue;
                }
                let allowed = allow.entries.iter().position(|e| {
                    e.check == "determinism" && e.path == f.rel_path && e.pattern == token
                });
                if let Some(i) = allowed {
                    used[i] = true;
                    continue;
                }
                for at in hits {
                    out.violations.push(Violation {
                        check: Check::Determinism,
                        file: f.rel_path.clone(),
                        line: line_of(&f.lib_view, at),
                        message: format!(
                            "banned `{token}` in deterministic library code ({hazard}); \
                             move it to tests/bins or allowlist it with a justification"
                        ),
                    });
                }
            }
        }
    }
}

fn check_parallelism(
    crates: &[ProcessedCrate],
    allow: &Allowlist,
    used: &mut [bool],
    out: &mut AuditOutcome,
) {
    let det = deterministic_names(allow);
    let report = |out: &mut AuditOutcome,
                  allow: &Allowlist,
                  used: &mut [bool],
                  rel_path: &str,
                  lines: Vec<usize>,
                  token: &str,
                  hazard: &str| {
        if lines.is_empty() {
            return;
        }
        let allowed = allow
            .entries
            .iter()
            .position(|e| e.check == "parallelism" && e.path == rel_path && e.pattern == token);
        if let Some(i) = allowed {
            used[i] = true;
            return;
        }
        for line in lines {
            out.violations.push(Violation {
                check: Check::Parallelism,
                file: rel_path.to_string(),
                line,
                message: format!(
                    "shared-state primitive `{token}` in deterministic library code \
                     ({hazard}); refactor to message-passing/owned state or allowlist \
                     it with a justification"
                ),
            });
        }
    };
    for c in crates.iter().filter(|c| det.contains(&c.name)) {
        for f in c
            .files
            .iter()
            .filter(|f| f.kind == FileKind::Lib && !f.file_test)
        {
            for &(token, hazard) in PARALLELISM_TOKENS {
                let lines: Vec<usize> = token_hits(&f.lib_view, token)
                    .into_iter()
                    .map(|at| line_of(&f.lib_view, at))
                    .collect();
                report(out, allow, used, &f.rel_path, lines, token, hazard);
            }
            // `static mut` is two tokens with arbitrary whitespace between
            // them, so it is detected structurally via the item model.
            let mut statics = Vec::new();
            walk_lib_items(&f.model.items, &mut |it| {
                if it.kind == ItemKind::Static && it.sig.contains("static mut ") {
                    statics.push(it.line);
                }
            });
            report(
                out,
                allow,
                used,
                &f.rel_path,
                statics,
                "static mut",
                "mutable globals race under any parallel runner",
            );
        }
    }
}

fn check_layering(
    root: &Path,
    crates: &[ProcessedCrate],
    allow: &Allowlist,
    used: &mut [bool],
    out: &mut AuditOutcome,
) {
    let rel = "audit/layers.toml";
    let layers = match Layers::load(root) {
        Ok(Some(l)) => l,
        Ok(None) => {
            out.violations.push(Violation {
                check: Check::Layering,
                file: rel.into(),
                line: 0,
                message: "missing; declare every crate's layer in a [layers] section".into(),
            });
            return;
        }
        Err(e) => {
            out.violations.push(Violation {
                check: Check::Config,
                file: e.file,
                line: e.line,
                message: e.what,
            });
            return;
        }
    };
    let ws_names: BTreeSet<&str> = crates.iter().map(|c| c.name.as_str()).collect();
    for (name, _) in &layers.layers {
        if !ws_names.contains(name.as_str()) {
            out.violations.push(Violation {
                check: Check::Layering,
                file: rel.into(),
                line: 0,
                message: format!("layer entry for unknown crate {name}; remove it"),
            });
        }
    }
    let find_allow = |allow: &Allowlist, c: &ProcessedCrate, dep: &str| {
        allow.entries.iter().position(|e| {
            e.check == "layering"
                && (e.path == c.name || (!c.rel_dir.is_empty() && e.path == c.rel_dir))
                && e.pattern == dep
        })
    };
    for c in crates {
        let Some(my) = layers.layer(&c.name) else {
            out.violations.push(Violation {
                check: Check::Layering,
                file: rel.into(),
                line: 0,
                message: format!("crate {} has no [layers] entry; assign it a layer", c.name),
            });
            continue;
        };
        let manifest = if c.rel_dir.is_empty() {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", c.rel_dir)
        };
        for dep in &c.deps {
            if !ws_names.contains(dep.as_str()) {
                continue; // external (vendored) dependency: out of scope
            }
            let Some(dl) = layers.layer(dep) else {
                continue; // its missing entry is reported above
            };
            if dl >= my {
                if let Some(i) = find_allow(allow, c, dep) {
                    used[i] = true;
                } else {
                    out.violations.push(Violation {
                        check: Check::Layering,
                        file: manifest.clone(),
                        line: 0,
                        message: format!(
                            "{} (layer {my}) depends on {dep} (layer {dl}); dependencies \
                             must sit in strictly lower layers",
                            c.name
                        ),
                    });
                }
            }
        }
        // Cross-check `use arcc_*` paths against the declared dependency
        // set, so a path cannot reach a crate Cargo.toml never named.
        for f in c.files.iter().filter(|f| !f.file_test) {
            let mut uses: Vec<(String, usize)> = Vec::new();
            walk_lib_items(&f.model.items, &mut |it| {
                if !matches!(it.kind, ItemKind::Use | ItemKind::ExternCrate) {
                    return;
                }
                if let Some(r) = &it.use_root {
                    if r.starts_with("arcc") {
                        uses.push((r.replace('_', "-"), it.line));
                    }
                }
            });
            for (dashed, line) in uses {
                if dashed == c.name || !ws_names.contains(dashed.as_str()) {
                    continue;
                }
                if c.deps.contains(&dashed) {
                    continue; // layer relation already checked above
                }
                if let Some(i) = find_allow(allow, c, &dashed) {
                    used[i] = true;
                } else {
                    out.violations.push(Violation {
                        check: Check::Layering,
                        file: f.rel_path.clone(),
                        line,
                        message: format!(
                            "use of {dashed} which is not in [dependencies] of {}",
                            c.name
                        ),
                    });
                }
            }
        }
    }
}

fn check_unsafe(
    crates: &[ProcessedCrate],
    allow: &Allowlist,
    used: &mut [bool],
    out: &mut AuditOutcome,
) {
    for c in crates {
        let Some(root_file) = &c.root_file else {
            continue;
        };
        let forbids = c
            .files
            .iter()
            .find(|f| &f.rel_path == root_file)
            .is_some_and(|f| {
                let compact: String = f
                    .stripped
                    .chars()
                    .filter(|ch| !ch.is_whitespace())
                    .collect();
                compact.contains("#![forbid(unsafe_code)]")
            });
        if forbids {
            continue;
        }
        let allowed = allow
            .entries
            .iter()
            .position(|e| e.check == "unsafe" && (e.path == c.rel_dir || e.path == c.name));
        let Some(i) = allowed else {
            out.violations.push(Violation {
                check: Check::Unsafe,
                file: root_file.clone(),
                line: 0,
                message: "crate root is missing #![forbid(unsafe_code)]".into(),
            });
            continue;
        };
        used[i] = true;
        // Allowlisted crate: every `unsafe` needs a // SAFETY: comment on
        // the same line or one of the three preceding lines.
        for f in &c.files {
            let raw_lines: Vec<&str> = f.raw.lines().collect();
            for at in token_hits(&f.stripped, "unsafe") {
                let line = line_of(&f.stripped, at);
                let documented = (line.saturating_sub(3)..=line)
                    .filter(|&l| l >= 1)
                    .any(|l| raw_lines.get(l - 1).is_some_and(|t| t.contains("SAFETY:")));
                if !documented {
                    out.violations.push(Violation {
                        check: Check::Unsafe,
                        file: f.rel_path.clone(),
                        line,
                        message: "`unsafe` without a preceding `// SAFETY:` comment".into(),
                    });
                }
            }
        }
    }
}

fn count_panic_sites(c: &ProcessedCrate) -> i64 {
    let mut n = 0i64;
    for f in c
        .files
        .iter()
        .filter(|f| f.kind == FileKind::Lib && !f.file_test)
    {
        for token in PANIC_TOKENS {
            n += token_hits(&f.lib_view, token).len() as i64;
        }
    }
    n
}

fn check_panic_ratchet(
    crates: &[ProcessedCrate],
    ratchet: Option<&Ratchet>,
    ratchet_missing: bool,
    out: &mut AuditOutcome,
) {
    let rel = "audit/ratchet.toml";
    for c in crates {
        out.panic_counts
            .push((c.name.clone(), count_panic_sites(c)));
    }
    out.panic_counts.sort();
    if ratchet_missing {
        out.violations.push(Violation {
            check: Check::PanicRatchet,
            file: rel.into(),
            line: 0,
            message: "missing; seed it with `cargo run -p arcc-audit -- --fix-ratchet`".into(),
        });
        return;
    }
    let Some(ratchet) = ratchet else {
        return; // malformed: already reported as a config violation
    };
    for (name, count) in &out.panic_counts {
        match ratchet.bound(name) {
            None => out.violations.push(Violation {
                check: Check::PanicRatchet,
                file: rel.into(),
                line: 0,
                message: format!("crate {name} has no ratchet entry; run --fix-ratchet to seed it"),
            }),
            Some(bound) if *count > bound => out.violations.push(Violation {
                check: Check::PanicRatchet,
                file: rel.into(),
                line: 0,
                message: format!(
                    "{name}: {count} panic sites in library code exceeds the ratchet \
                     bound of {bound}; convert them to typed errors or documented expects"
                ),
            }),
            Some(bound) if *count < bound => out.violations.push(Violation {
                check: Check::PanicRatchet,
                file: rel.into(),
                line: 0,
                message: format!(
                    "{name}: {count} panic sites is below the ratchet bound of {bound}; \
                     run --fix-ratchet to lock in the improvement"
                ),
            }),
            Some(_) => {}
        }
    }
    for (name, _) in &ratchet.bounds {
        if !out.panic_counts.iter().any(|(n, _)| n == name) {
            out.violations.push(Violation {
                check: Check::PanicRatchet,
                file: rel.into(),
                line: 0,
                message: format!(
                    "ratchet entry for unknown crate {name}; run --fix-ratchet to prune it"
                ),
            });
        }
    }
}

// ----------------------------------------------------------------------
// Public-API extraction shared by the snapshot and doc-coverage checks.
// ----------------------------------------------------------------------

/// One publicly reachable item (or field/variant/re-export) of a crate.
struct PubEntry {
    /// Module-path-qualified name (empty for re-exports).
    path: String,
    /// Normalized one-line signature.
    sig: String,
    /// A doc comment or `#[doc = ..]` attribute is attached.
    has_doc: bool,
    /// Counts toward doc coverage (items; not fields/variants/uses).
    countable: bool,
    /// Defining file, workspace-relative.
    file: String,
    /// 1-based line of the item keyword in `file`.
    line: usize,
    /// The bare name of a free fn or inherent method, the dead-API
    /// check's candidates; `None` for every other entry, trait methods
    /// included.
    fn_name: Option<String>,
}

impl PubEntry {
    fn line(&self) -> String {
        if self.path.is_empty() {
            self.sig.clone()
        } else {
            format!("{}: {}", self.path, self.sig)
        }
    }
}

fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}::{name}")
    }
}

/// Names of pub-reachable type-like items (structs, enums, unions,
/// traits, type aliases) — the self-types whose inherent pub methods are
/// public API.
fn collect_pub_types(items: &[Item], reachable: bool, out: &mut BTreeSet<String>) {
    for it in items {
        if it.cfg_test || it.doc_hidden {
            continue;
        }
        match it.kind {
            ItemKind::Struct
            | ItemKind::Enum
            | ItemKind::Union
            | ItemKind::Trait
            | ItemKind::TypeAlias
                if reachable && it.vis == Vis::Pub =>
            {
                out.insert(it.name.clone());
            }
            ItemKind::Mod if it.mod_inline => {
                collect_pub_types(&it.children, reachable && it.vis == Vis::Pub, out);
            }
            _ => {}
        }
    }
}

fn emit_items(
    items: &[Item],
    prefix: &str,
    reachable: bool,
    pub_types: &BTreeSet<String>,
    file: &str,
    out: &mut Vec<PubEntry>,
) {
    let entry = |path: String, sig: &str, has_doc: bool, countable: bool, line: usize| PubEntry {
        path,
        sig: sig.to_string(),
        has_doc,
        countable,
        file: file.to_string(),
        line,
        fn_name: None,
    };
    for it in items {
        if it.cfg_test || it.doc_hidden {
            continue;
        }
        match it.kind {
            ItemKind::Mod if it.mod_inline => {
                let r = reachable && it.vis == Vis::Pub;
                let sub = join_path(prefix, &it.name);
                if r {
                    let sig = format!("pub mod {}", it.name);
                    out.push(entry(sub.clone(), &sig, it.has_doc, true, it.line));
                }
                emit_items(&it.children, &sub, r, pub_types, file, out);
            }
            ItemKind::Fn
            | ItemKind::Struct
            | ItemKind::Enum
            | ItemKind::Union
            | ItemKind::Trait
            | ItemKind::TypeAlias
            | ItemKind::Const
            | ItemKind::Static => {
                if !(reachable && it.vis == Vis::Pub) {
                    continue;
                }
                let path = join_path(prefix, &it.name);
                out.push(PubEntry {
                    fn_name: (it.kind == ItemKind::Fn).then(|| it.name.clone()),
                    ..entry(path.clone(), &it.sig, it.has_doc, true, it.line)
                });
                match it.kind {
                    ItemKind::Struct | ItemKind::Union => {
                        for fld in it.fields.iter().filter(|f| f.vis == Vis::Pub) {
                            let p = format!("{path}.{}", fld.name);
                            out.push(entry(p, &fld.sig, fld.has_doc, false, it.line));
                        }
                    }
                    ItemKind::Enum => {
                        // Every variant of a pub enum is public API.
                        for v in &it.fields {
                            let p = format!("{path}::{}", v.name);
                            out.push(entry(p, &v.sig, v.has_doc, false, it.line));
                        }
                    }
                    ItemKind::Trait => {
                        for ch in &it.children {
                            if ch.kind == ItemKind::Fn && !ch.cfg_test && !ch.doc_hidden {
                                let p = format!("{path}::{}", ch.name);
                                out.push(entry(p, &ch.sig, ch.has_doc, true, ch.line));
                            }
                        }
                    }
                    _ => {}
                }
            }
            ItemKind::Impl => {
                // Inherent-impl pub methods of a pub type are API wherever
                // the impl block sits; trait-impl fns are the trait's API.
                if it.impl_trait {
                    continue;
                }
                let Some(ty) = &it.impl_self else {
                    continue;
                };
                if !pub_types.contains(ty) {
                    continue;
                }
                for ch in &it.children {
                    if ch.kind == ItemKind::Fn
                        && ch.vis == Vis::Pub
                        && !ch.cfg_test
                        && !ch.doc_hidden
                    {
                        let p = format!("{ty}::{}", ch.name);
                        out.push(PubEntry {
                            fn_name: Some(ch.name.clone()),
                            ..entry(p, &ch.sig, ch.has_doc, true, ch.line)
                        });
                    }
                }
            }
            ItemKind::Use if reachable && it.vis == Vis::Pub => {
                out.push(entry(String::new(), &it.sig, it.has_doc, false, it.line));
            }
            _ => {}
        }
    }
}

/// Collects every publicly reachable entry of a crate's library target.
fn pub_entries(c: &ProcessedCrate) -> Vec<PubEntry> {
    let api_files: Vec<&Processed> = c
        .files
        .iter()
        .filter(|f| f.kind == FileKind::Lib && !f.file_test && f.file_pub)
        .collect();
    let mut pub_types = BTreeSet::new();
    for f in &api_files {
        collect_pub_types(&f.model.items, true, &mut pub_types);
    }
    let mut out = Vec::new();
    for f in &api_files {
        let prefix = f.mod_path.join("::");
        if !f.mod_path.is_empty() {
            // The out-of-line module itself: documented by its `mod x;`
            // docs or its own `//!` inner docs.
            let name = f.mod_path.last().map(String::as_str).unwrap_or("");
            out.push(PubEntry {
                path: prefix.clone(),
                sig: format!("pub mod {name}"),
                has_doc: f.decl_doc || f.model.has_inner_doc,
                countable: true,
                file: f.rel_path.clone(),
                line: 1,
                fn_name: None,
            });
        }
        emit_items(
            &f.model.items,
            &prefix,
            true,
            &pub_types,
            &f.rel_path,
            &mut out,
        );
    }
    out
}

/// Sorted, deduplicated public-API lines for a library crate.
fn api_lines(c: &ProcessedCrate) -> Vec<String> {
    let mut lines: Vec<String> = pub_entries(c).iter().map(PubEntry::line).collect();
    lines.sort();
    lines.dedup();
    lines
}

/// `(documented, public)` item counts for the doc-coverage ratchet; the
/// crate root module counts as one item documented by `//!` docs.
fn doc_counts(c: &ProcessedCrate) -> (i64, i64) {
    let mut documented = 0i64;
    let mut public = 0i64;
    for e in pub_entries(c).iter().filter(|e| e.countable) {
        public += 1;
        if e.has_doc {
            documented += 1;
        }
    }
    if let Some(rootf) = c
        .files
        .iter()
        .find(|f| f.kind == FileKind::Lib && f.mod_path.is_empty())
    {
        public += 1;
        if rootf.model.has_inner_doc {
            documented += 1;
        }
    }
    (documented, public)
}

/// Integer doc-coverage percent: floor(100·documented/public), 100 for a
/// crate with no public items.
fn doc_percent(documented: i64, public: i64) -> i64 {
    if public == 0 {
        100
    } else {
        documented * 100 / public
    }
}

fn check_api_snapshot(root: &Path, crates: &[ProcessedCrate], out: &mut AuditOutcome) {
    let hint = "review the change, then run `cargo run -p arcc-audit -- --fix-api` to accept it";
    let mut lib_names: BTreeSet<String> = BTreeSet::new();
    for c in crates.iter().filter(|c| c.has_lib) {
        lib_names.insert(c.name.clone());
        let rel = format!("audit/api/{}.txt", c.name);
        let Ok(text) = fs::read_to_string(root.join(&rel)) else {
            out.violations.push(Violation {
                check: Check::ApiSnapshot,
                file: rel,
                line: 0,
                message: "missing; seed it with `cargo run -p arcc-audit -- --fix-api`".into(),
            });
            continue;
        };
        let committed: BTreeSet<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let lines = api_lines(c);
        let current: BTreeSet<&str> = lines.iter().map(String::as_str).collect();
        for l in current.difference(&committed) {
            out.violations.push(Violation {
                check: Check::ApiSnapshot,
                file: rel.clone(),
                line: 0,
                message: format!("public API added: `{l}`; {hint}"),
            });
        }
        for l in committed.difference(&current) {
            out.violations.push(Violation {
                check: Check::ApiSnapshot,
                file: rel.clone(),
                line: 0,
                message: format!("public API removed: `{l}`; {hint}"),
            });
        }
    }
    if let Ok(rd) = fs::read_dir(root.join("audit/api")) {
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            let Some(stem) = name.strip_suffix(".txt") else {
                continue;
            };
            if !lib_names.contains(stem) {
                out.violations.push(Violation {
                    check: Check::ApiSnapshot,
                    file: format!("audit/api/{name}"),
                    line: 0,
                    message: format!(
                        "snapshot for unknown library crate {stem}; delete it or run --fix-api"
                    ),
                });
            }
        }
    }
}

/// Flags every public free fn and inherent method of a library crate
/// (`arcc-audit` aside) whose name is in no other file's
/// [`FileModel::fn_refs`]: no other file calls it, names it in a path
/// or imports it — not the crates' `src/` files, nor the `tests/`,
/// `examples/` and `perfbench/src/` files of [`Workspace::user_files`].
fn check_dead_api(
    ws: &Workspace,
    crates: &[ProcessedCrate],
    out: &mut AuditOutcome,
) -> io::Result<()> {
    let candidates: Vec<(&str, PubEntry)> = crates
        .iter()
        .filter(|c| c.has_lib && c.name != "arcc-audit")
        .flat_map(|c| {
            pub_entries(c)
                .into_iter()
                .filter(|e| e.fn_name.is_some())
                .map(move |e| (c.name.as_str(), e))
        })
        .collect();
    let wanted: BTreeSet<&str> = candidates
        .iter()
        .filter_map(|(_, e)| e.fn_name.as_deref())
        .collect();
    // Candidate name -> the files whose code names it.
    let mut named_in: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut note = |rel: &str, model: &FileModel| {
        for ident in &model.fn_refs {
            if let Some(&name) = wanted.get(ident.as_str()) {
                named_in.entry(name).or_default().insert(rel.to_string());
            }
        }
    };
    for f in crates.iter().flat_map(|c| &c.files) {
        note(&f.rel_path, &f.model);
    }
    for (rel, abs) in ws.user_files()? {
        note(&rel, &parse_file(&fs::read_to_string(&abs)?).model);
    }
    for (krate, e) in &candidates {
        let name = e.fn_name.as_deref().unwrap_or_default();
        let used = named_in
            .get(name)
            .is_some_and(|files| files.iter().any(|f| *f != e.file));
        if !used {
            out.violations.push(Violation {
                check: Check::DeadApi,
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "{krate}: pub fn `{}` is used in no other source file; call it, \
                     make it private, or delete it",
                    e.path
                ),
            });
        }
    }
    Ok(())
}

fn check_doc_coverage(
    crates: &[ProcessedCrate],
    ratchet: Option<&Ratchet>,
    out: &mut AuditOutcome,
) {
    let rel = "audit/ratchet.toml";
    for c in crates.iter().filter(|c| c.has_lib) {
        let (documented, public) = doc_counts(c);
        out.doc_coverage.push((
            c.name.clone(),
            documented,
            public,
            doc_percent(documented, public),
        ));
    }
    out.doc_coverage.sort();
    let Some(ratchet) = ratchet else {
        return; // missing/malformed ratchet is reported by the panic check
    };
    for (name, _, _, pct) in &out.doc_coverage {
        match ratchet.doc_bound(name) {
            None => out.violations.push(Violation {
                check: Check::DocCoverage,
                file: rel.into(),
                line: 0,
                message: format!(
                    "crate {name} has no [doc_coverage] entry; run --fix-ratchet to seed it"
                ),
            }),
            Some(bound) if *pct < bound => out.violations.push(Violation {
                check: Check::DocCoverage,
                file: rel.into(),
                line: 0,
                message: format!(
                    "{name}: public-item doc coverage fell to {pct}% (ratchet bound {bound}%); \
                     document the new public items"
                ),
            }),
            Some(bound) if *pct > bound => out.violations.push(Violation {
                check: Check::DocCoverage,
                file: rel.into(),
                line: 0,
                message: format!(
                    "{name}: doc coverage {pct}% exceeds the recorded bound of {bound}%; \
                     run --fix-ratchet to lock in the improvement"
                ),
            }),
            Some(_) => {}
        }
    }
    for (name, _) in &ratchet.doc_bounds {
        if !out.doc_coverage.iter().any(|(n, _, _, _)| n == name) {
            out.violations.push(Violation {
                check: Check::DocCoverage,
                file: rel.into(),
                line: 0,
                message: format!(
                    "[doc_coverage] entry for unknown crate {name}; run --fix-ratchet to prune it"
                ),
            });
        }
    }
}

fn check_fingerprint(root: &Path, out: &mut AuditOutcome) {
    let rel = "audit/fingerprint.toml";
    let manifest = match FingerprintManifest::load(root) {
        Ok(Some(m)) => m,
        Ok(None) => {
            out.violations.push(Violation {
                check: Check::Fingerprint,
                file: rel.into(),
                line: 0,
                message: "missing; commit a manifest classifying every spec/checkpoint field"
                    .into(),
            });
            return;
        }
        Err(e) => {
            out.violations.push(Violation {
                check: Check::Config,
                file: e.file,
                line: e.line,
                message: e.what,
            });
            return;
        }
    };
    for s in &manifest.structs {
        let Ok(raw) = fs::read_to_string(root.join(&s.file)) else {
            out.violations.push(Violation {
                check: Check::Fingerprint,
                file: rel.into(),
                line: 0,
                message: format!("[{}] __file {:?} is unreadable", s.name, s.file),
            });
            continue;
        };
        let processed = strip_comments_and_strings(&raw);
        let Some(actual) = extract_struct_fields(&processed, &s.name) else {
            out.violations.push(Violation {
                check: Check::Fingerprint,
                file: s.file.clone(),
                line: 0,
                message: format!("struct {} not found", s.name),
            });
            continue;
        };
        for field in &actual {
            if !s.fields.iter().any(|(f, _)| f == field) {
                out.violations.push(Violation {
                    check: Check::Fingerprint,
                    file: s.file.clone(),
                    line: 0,
                    message: format!(
                        "{} field `{field}` is not classified in {rel}; decide whether \
                         it joins the fingerprint (fingerprinted) or is a \
                         performance-only knob (excluded)",
                        s.name
                    ),
                });
            }
        }
        for (field, _) in &s.fields {
            if !actual.contains(field) {
                out.violations.push(Violation {
                    check: Check::Fingerprint,
                    file: rel.into(),
                    line: 0,
                    message: format!(
                        "manifest classifies {} field `{field}` which no longer exists",
                        s.name
                    ),
                });
            }
        }
        let Some(fn_name) = &s.fingerprint_fn else {
            continue;
        };
        let Some(body) = extract_fn_body(&processed, fn_name) else {
            out.violations.push(Violation {
                check: Check::Fingerprint,
                file: s.file.clone(),
                line: 0,
                message: format!("fn {fn_name} not found for struct {}", s.name),
            });
            continue;
        };
        for (field, class) in &s.fields {
            if !actual.contains(field) {
                continue; // already reported as stale
            }
            let referenced = !token_hits(body, &format!(".{field}")).is_empty();
            match class {
                FieldClass::Fingerprinted if !referenced => {
                    out.violations.push(Violation {
                        check: Check::Fingerprint,
                        file: s.file.clone(),
                        line: 0,
                        message: format!(
                            "fingerprinted field `{field}` of {} is never referenced in \
                             fn {fn_name}",
                            s.name
                        ),
                    });
                }
                FieldClass::Excluded if referenced => {
                    out.violations.push(Violation {
                        check: Check::Fingerprint,
                        file: s.file.clone(),
                        line: 0,
                        message: format!(
                            "excluded field `{field}` of {} is referenced in fn {fn_name}; \
                             reclassify it as fingerprinted",
                            s.name
                        ),
                    });
                }
                _ => {}
            }
        }
    }
}

/// Field names of `struct name { .. }` in comment/string-stripped text, or
/// `None` when the struct (or a braced body) is absent.
pub fn extract_struct_fields(processed: &str, name: &str) -> Option<Vec<String>> {
    let pat = format!("struct {name}");
    let at = *token_hits(processed, &pat).first()?;
    let after = &processed[at + pat.len()..];
    // Body opens at the next `{`; a `;` first means a unit/tuple struct.
    let mut open = None;
    for (i, c) in after.char_indices() {
        match c {
            '{' => {
                open = Some(i);
                break;
            }
            ';' | '(' => return None,
            _ => {}
        }
    }
    let open = open?;
    let body = brace_body(&after[open..])?;
    Some(parse_field_names(body))
}

/// Body (between the braces) of `fn fn_name ...{ .. }`.
pub fn extract_fn_body<'t>(processed: &'t str, fn_name: &str) -> Option<&'t str> {
    let pat = format!("fn {fn_name}");
    let at = *token_hits(processed, &pat).first()?;
    let after = &processed[at + pat.len()..];
    let open = after.find('{')?;
    brace_body(&after[open..])
}

/// Interior of a brace-balanced block whose text starts at `{`.
fn brace_body(text: &str) -> Option<&str> {
    let b = text.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[1..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Identifiers immediately preceding a top-level `:` in a struct body.
fn parse_field_names(body: &str) -> Vec<String> {
    let b = body.as_bytes();
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' => depth -= 1,
            b':' if i + 1 < b.len() && b[i + 1] == b':' => i += 1,
            b':' if depth == 0 => {
                let mut j = i;
                while j > 0 && b[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                let end = j;
                while j > 0 && (b[j - 1].is_ascii_alphanumeric() || b[j - 1] == b'_') {
                    j -= 1;
                }
                if j < end {
                    fields.push(body[j..end].to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_fields_are_extracted() {
        let src = "pub struct Spec {\n  pub channels: u64,\n  pub map: BTreeMap<String, u32>,\n  geometry: DimmGeometry,\n}\n";
        let p = strip_comments_and_strings(src);
        let fields = extract_struct_fields(&p, "Spec").expect("struct");
        assert_eq!(fields, vec!["channels", "map", "geometry"]);
        assert!(extract_struct_fields(&p, "Missing").is_none());
    }

    #[test]
    fn tuple_struct_is_not_extracted() {
        let p = "pub struct Wrapper(u64);";
        assert!(extract_struct_fields(p, "Wrapper").is_none());
    }

    #[test]
    fn fn_body_is_extracted() {
        let src =
            "impl Spec { pub fn fingerprint(&self) -> u64 { mix(self.channels); self.years } }";
        let body = extract_fn_body(src, "fingerprint").expect("fn");
        assert!(body.contains("self.channels"));
        assert!(!token_hits(body, ".scheduler").iter().any(|_| true));
    }

    #[test]
    fn nested_types_do_not_leak_fields() {
        let src = "struct S {\n  cb: Box<dyn Fn(u32) -> u32>,\n  inner: Vec<(u8, u8)>,\n}";
        let fields = extract_struct_fields(src, "S").expect("struct");
        assert_eq!(fields, vec!["cb", "inner"]);
    }

    /// Builds a ProcessedCrate from in-memory sources (all Lib files).
    fn mini_crate(files: &[(&str, &str)]) -> ProcessedCrate {
        let parsed: Vec<(String, String, crate::model::ParsedFile)> = files
            .iter()
            .map(|(sr, src)| {
                (
                    format!("crates/mini/src/{sr}"),
                    sr.to_string(),
                    parse_file(src),
                )
            })
            .collect();
        let cm = CrateModel::build(
            parsed
                .iter()
                .map(|(rp, sr, pf)| (rp.clone(), sr.clone(), pf.model.clone()))
                .collect(),
        );
        let files = parsed
            .into_iter()
            .map(|(rel_path, _sr, pf)| {
                let (mod_path, file_test, file_pub, decl_doc) = match cm.file(&rel_path) {
                    Some(mf) => (mf.mod_path.clone(), mf.file_test, mf.file_pub, mf.decl_doc),
                    None => (Vec::new(), pf.model.cfg_test, false, false),
                };
                Processed {
                    rel_path,
                    kind: FileKind::Lib,
                    raw: String::new(),
                    stripped: pf.code_view,
                    lib_view: pf.lib_view,
                    model: pf.model,
                    mod_path,
                    file_test,
                    file_pub,
                    decl_doc,
                }
            })
            .collect();
        ProcessedCrate {
            name: "mini".into(),
            rel_dir: "crates/mini".into(),
            root_file: Some("crates/mini/src/lib.rs".into()),
            has_lib: true,
            deps: Vec::new(),
            files,
        }
    }

    #[test]
    fn api_lines_cover_the_module_tree() {
        let c = mini_crate(&[
            (
                "lib.rs",
                "//! Crate docs.\n/// Mod docs.\npub mod api;\nmod private;\n\
                 pub struct Spec { pub years: u64, secret: u64 }\n\
                 impl Spec { pub fn new() -> Self { todo!() } fn hidden() {} }\n\
                 #[cfg(test)] mod tests { pub fn t() {} }\n",
            ),
            (
                "api.rs",
                "/// Documented.\npub fn push(t: f64) -> u64 { 0 }\npub(crate) fn internal() {}\n",
            ),
            ("private.rs", "pub fn invisible() {}\n"),
        ]);
        let lines = api_lines(&c);
        assert!(lines.iter().any(|l| l == "api: pub mod api"), "{lines:?}");
        assert!(
            lines
                .iter()
                .any(|l| l == "api::push: pub fn push(t: f64) -> u64"),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("Spec::new:")),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.starts_with("Spec.years:")));
        assert!(!lines.iter().any(|l| l.contains("secret")));
        assert!(!lines.iter().any(|l| l.contains("internal")));
        assert!(!lines.iter().any(|l| l.contains("invisible")));
        assert!(!lines.iter().any(|l| l.contains("hidden")));
        assert!(!lines.iter().any(|l| l.contains("fn t")));
    }

    #[test]
    fn doc_counts_track_public_items_only() {
        let c = mini_crate(&[(
            "lib.rs",
            "//! Docs.\n/// Yes.\npub fn a() {}\npub fn b() {}\nfn c() {}\n",
        )]);
        // Public: root module (documented), a (documented), b (not).
        assert_eq!(doc_counts(&c), (2, 3));
        assert_eq!(doc_percent(2, 3), 66);
        assert_eq!(doc_percent(0, 0), 100);
    }

    #[test]
    fn test_module_files_are_exempt_from_counts() {
        let c = mini_crate(&[
            (
                "lib.rs",
                "#[cfg(test)]\nmod testutil;\npub fn lib() { x.unwrap(); }\n",
            ),
            ("testutil.rs", "pub fn helper() { y.unwrap(); }\n"),
        ]);
        assert_eq!(count_panic_sites(&c), 1);
        let lines = api_lines(&c);
        assert!(!lines.iter().any(|l| l.contains("helper")), "{lines:?}");
    }
}
