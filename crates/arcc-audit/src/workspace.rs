//! Workspace discovery: which crates exist, and which files of each are
//! library code (audited) versus test/bench/bin/example code (exempt).
//!
//! Discovery is filesystem-shaped rather than manifest-driven so the tool
//! stays dependency-free: the root package (when the root `Cargo.toml` has
//! a `[package]` section) plus every `crates/*/` directory containing a
//! `Cargo.toml`. `vendor/` (offline dependency shims) and `target/` are
//! never audited.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How a source file participates in the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` — subject to every check.
    Lib,
    /// Binary code (`src/bin/**` or `src/main.rs` alongside a `lib.rs`) —
    /// exempt from the determinism and panic-ratchet checks.
    Bin,
}

/// One source file of a crate.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Path relative to the crate's `src/` directory, `/`-separated
    /// (e.g. `lib.rs`, `sched.rs`, `foo/mod.rs`) — the module-tree key.
    pub src_rel: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Library or binary code.
    pub kind: FileKind,
}

/// One workspace crate.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from its `Cargo.toml`.
    pub name: String,
    /// Crate directory relative to the workspace root (empty for the root
    /// package).
    pub rel_dir: String,
    /// Crate-root source file (`src/lib.rs`, else `src/main.rs`), relative
    /// to the workspace root.
    pub root_file: Option<String>,
    /// The crate has a library target (`src/lib.rs`).
    pub has_lib: bool,
    /// `[dependencies]` package names from the crate's manifest, sorted.
    pub deps: Vec<String>,
    /// Source files under `src/`, sorted by path.
    pub files: Vec<SourceFile>,
}

/// A discovered workspace.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Crates sorted by name.
    pub crates: Vec<CrateInfo>,
}

impl Workspace {
    /// Discovers the workspace rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a missing root `Cargo.toml` is
    /// reported as [`io::ErrorKind::NotFound`].
    pub fn discover(root: &Path) -> io::Result<Self> {
        let root_manifest = root.join("Cargo.toml");
        if !root_manifest.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no Cargo.toml under {}", root.display()),
            ));
        }
        let mut crates = Vec::new();
        let manifest_text = fs::read_to_string(&root_manifest)?;
        if manifest_text.contains("[package]") {
            if let Some(name) = package_name(&manifest_text) {
                crates.push(load_crate(root, root, name, &manifest_text)?);
            }
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
                .collect();
            dirs.sort();
            for dir in dirs {
                let text = fs::read_to_string(dir.join("Cargo.toml"))?;
                let Some(name) = package_name(&text) else {
                    continue;
                };
                crates.push(load_crate(root, &dir, name, &text)?);
            }
        }
        crates.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Self {
            root: root.to_path_buf(),
            crates,
        })
    }

    /// Looks up a crate by package name.
    pub fn get(&self, name: &str) -> Option<&CrateInfo> {
        self.crates.iter().find(|c| c.name == name)
    }

    /// The `.rs` files outside every crate's `src/` that may call public
    /// API: each crate's `tests/` and `examples/`, the root's, and
    /// `perfbench/src/` (its own workspace, driving the crates), as
    /// sorted `(root-relative path, absolute path)` pairs. A missing
    /// directory contributes nothing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn user_files(&self) -> io::Result<Vec<(String, PathBuf)>> {
        let mut dirs: Vec<PathBuf> = vec![self.root.join("perfbench/src")];
        for base in std::iter::once("").chain(self.crates.iter().map(|c| c.rel_dir.as_str())) {
            for sub in ["tests", "examples"] {
                dirs.push(self.root.join(base).join(sub));
            }
        }
        dirs.sort();
        dirs.dedup();
        let mut files = Vec::new();
        for dir in dirs.iter().filter(|d| d.is_dir()) {
            collect_rs(dir, &mut files)?;
        }
        files.sort();
        Ok(files
            .into_iter()
            .map(|abs| (rel_to(&self.root, &abs), abs))
            .collect())
    }
}

/// Extracts `name = "..."` from the `[package]` section of a manifest.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                return Some(v.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Package names listed under `[dependencies]` (not dev- or
/// build-dependencies): `name = "..."`, `name = { .. }`,
/// `name.workspace = true`, and `[dependencies.name]` headers.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            if let Some(rest) = line.strip_prefix("[dependencies.") {
                if let Some(name) = rest.strip_suffix(']') {
                    deps.push(name.trim().to_string());
                }
                in_deps = false;
                continue;
            }
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name = ...` or `name.workspace = ...`
        let key = line.split('=').next().unwrap_or("").trim();
        let name = key.split('.').next().unwrap_or("").trim();
        if !name.is_empty() {
            deps.push(name.trim_matches('"').to_string());
        }
    }
    deps.sort();
    deps.dedup();
    deps
}

fn load_crate(root: &Path, dir: &Path, name: String, manifest: &str) -> io::Result<CrateInfo> {
    let src = dir.join("src");
    let mut files = Vec::new();
    if src.is_dir() {
        collect_rs(&src, &mut files)?;
    }
    files.sort();
    let has_lib = src.join("lib.rs").is_file();
    let sources: Vec<SourceFile> = files
        .into_iter()
        .map(|abs| {
            let rel = rel_to(root, &abs);
            let src_rel = rel_to(&src, &abs);
            let in_bin_dir = abs
                .strip_prefix(&src)
                .ok()
                .is_some_and(|p| p.starts_with("bin"));
            let is_main = abs.file_name().is_some_and(|f| f == "main.rs")
                && abs.parent() == Some(src.as_path());
            let kind = if in_bin_dir || (is_main && has_lib) {
                FileKind::Bin
            } else if is_main {
                // A pure-bin crate: its whole src tree is binary code.
                FileKind::Bin
            } else if has_lib {
                FileKind::Lib
            } else {
                // No lib.rs: every file belongs to the bin target.
                FileKind::Bin
            };
            SourceFile {
                rel_path: rel,
                src_rel,
                abs_path: abs,
                kind,
            }
        })
        .collect();
    let root_file = if has_lib {
        Some(rel_to(root, &src.join("lib.rs")))
    } else if src.join("main.rs").is_file() {
        Some(rel_to(root, &src.join("main.rs")))
    } else {
        None
    };
    Ok(CrateInfo {
        name,
        rel_dir: rel_to(root, dir),
        root_file,
        has_lib,
        deps: dependency_names(manifest),
        files: sources,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Root-relative `/`-separated path string.
fn rel_to(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
