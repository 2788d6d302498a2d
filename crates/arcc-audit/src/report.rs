//! Audit findings and the JSON report.
//!
//! The report mirrors the `arcc-exp` report conventions — a top-level
//! `{"scenario", "title", "meta", "tables", "notes"}` object, RFC 8259
//! string escaping — so fleet tooling that already ingests experiment
//! reports can ingest audit reports unchanged. The emitter is
//! re-implemented here (rather than depending on `arcc-exp`) to keep the
//! auditor outside the build graph of the crates it audits.

use std::fmt;

/// Which check produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// Banned nondeterminism sources in deterministic library code.
    Determinism,
    /// Banned shared-mutable-state primitives in deterministic library
    /// code (the static precondition for `parallel_map` safety).
    Parallelism,
    /// Crate dependencies vs the declared layer DAG in `audit/layers.toml`.
    Layering,
    /// `#![forbid(unsafe_code)]` / `// SAFETY:` policy.
    Unsafe,
    /// Panic-site counts vs the committed ratchet.
    PanicRatchet,
    /// Public-API signatures vs the committed `audit/api/<crate>.txt`.
    ApiSnapshot,
    /// Public-item doc coverage vs the committed ratchet.
    DocCoverage,
    /// Spec/checkpoint fields vs the committed fingerprint manifest.
    Fingerprint,
    /// Audit configuration problems (malformed/unused entries).
    Config,
}

impl Check {
    /// Stable lowercase name used in reports and allowlist entries.
    pub fn name(self) -> &'static str {
        match self {
            Check::Determinism => "determinism",
            Check::Parallelism => "parallelism",
            Check::Layering => "layering",
            Check::Unsafe => "unsafe",
            Check::PanicRatchet => "panic_ratchet",
            Check::ApiSnapshot => "api_snapshot",
            Check::DocCoverage => "doc_coverage",
            Check::Fingerprint => "fingerprint",
            Check::Config => "config",
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Producing check.
    pub check: Check,
    /// Workspace-relative file (or config file) the finding is about.
    pub file: String,
    /// 1-based line, 0 when the finding is file- or crate-scoped.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "[{}] {}:{}: {}",
                self.check, self.file, self.line, self.message
            )
        } else {
            write!(f, "[{}] {}: {}", self.check, self.file, self.message)
        }
    }
}

/// Everything a run produced: findings plus summary counters.
#[derive(Debug, Clone, Default)]
pub struct AuditOutcome {
    /// All findings, sorted by (check, file, line, message).
    pub violations: Vec<Violation>,
    /// Crates audited.
    pub crates_audited: usize,
    /// Files scanned.
    pub files_scanned: usize,
    /// Per-crate panic-site counts measured this run, sorted by crate.
    pub panic_counts: Vec<(String, i64)>,
    /// Per-crate `(documented, public, percent)` doc coverage measured
    /// this run over library code, sorted by crate.
    pub doc_coverage: Vec<(String, i64, i64, i64)>,
    /// Allowlist entries that suppressed at least one hit.
    pub allowlist_used: usize,
}

impl AuditOutcome {
    /// Sorts findings into the canonical report order.
    pub fn finish(&mut self) {
        self.violations.sort_by(|a, b| {
            (a.check, &a.file, a.line, &a.message).cmp(&(b.check, &b.file, b.line, &b.message))
        });
    }

    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the JSON report (arcc-exp report conventions).
    ///
    /// `meta.schema` is 2 since the semantic-model rewrite: version 1
    /// reports had no `schema` key, no `doc_coverage` table, and only the
    /// original four checks.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"scenario\": \"arcc_audit\",\n");
        s.push_str("  \"title\": \"Workspace static-analysis audit\",\n");
        s.push_str("  \"meta\": {\n");
        s.push_str("    \"schema\": 2,\n");
        s.push_str(&format!(
            "    \"crates_audited\": {},\n    \"files_scanned\": {},\n",
            self.crates_audited, self.files_scanned
        ));
        s.push_str(&format!(
            "    \"violations\": {},\n    \"allowlist_entries_used\": {},\n",
            self.violations.len(),
            self.allowlist_used
        ));
        s.push_str(&format!(
            "    \"clean\": {}\n  }},\n",
            if self.is_clean() { "true" } else { "false" }
        ));
        s.push_str("  \"tables\": [\n");
        // Table 1: violations.
        s.push_str("    {\n      \"name\": \"violations\",\n");
        s.push_str("      \"columns\": [\"check\", \"file\", \"line\", \"message\"],\n");
        s.push_str("      \"rows\": [");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "        [\"{}\", \"{}\", {}, \"{}\"]",
                json_escape(v.check.name()),
                json_escape(&v.file),
                v.line,
                json_escape(&v.message)
            ));
        }
        if !self.violations.is_empty() {
            s.push_str("\n      ");
        }
        s.push_str("]\n    },\n");
        // Table 2: panic-site counts.
        s.push_str("    {\n      \"name\": \"panic_sites\",\n");
        s.push_str("      \"columns\": [\"crate\", \"count\"],\n");
        s.push_str("      \"rows\": [");
        for (i, (name, n)) in self.panic_counts.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("        [\"{}\", {}]", json_escape(name), n));
        }
        if !self.panic_counts.is_empty() {
            s.push_str("\n      ");
        }
        s.push_str("]\n    },\n");
        // Table 3: public-item doc coverage.
        s.push_str("    {\n      \"name\": \"doc_coverage\",\n");
        s.push_str("      \"columns\": [\"crate\", \"documented\", \"public\", \"percent\"],\n");
        s.push_str("      \"rows\": [");
        for (i, (name, doc, pubs, pct)) in self.doc_coverage.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "        [\"{}\", {}, {}, {}]",
                json_escape(name),
                doc,
                pubs,
                pct
            ));
        }
        if !self.doc_coverage.is_empty() {
            s.push_str("\n      ");
        }
        s.push_str("]\n    }\n  ],\n");
        s.push_str("  \"notes\": [\n");
        s.push_str(
            "    \"Checks: determinism lints, parallelism-safety lints, crate layering, unsafe policy, panic ratchet, public-API snapshot, doc-coverage ratchet, fingerprint drift.\",\n",
        );
        s.push_str(
            "    \"Config: audit/allowlist.toml, audit/layers.toml, audit/api/*.txt (--fix-api), audit/ratchet.toml (--fix-ratchet), audit/fingerprint.toml.\"\n",
        );
        s.push_str("  ]\n}\n");
        s
    }
}

/// RFC 8259 string escaping (the body of `arcc_obs::json_string`,
/// copied so this crate stays dependency-free).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_ordering() {
        let mut o = AuditOutcome {
            violations: vec![
                Violation {
                    check: Check::Unsafe,
                    file: "b.rs".into(),
                    line: 0,
                    message: "m".into(),
                },
                Violation {
                    check: Check::Determinism,
                    file: "a.rs".into(),
                    line: 3,
                    message: "banned \"HashMap\"".into(),
                },
            ],
            crates_audited: 2,
            files_scanned: 5,
            panic_counts: vec![("arcc-core".into(), 7)],
            doc_coverage: vec![("arcc-core".into(), 9, 10, 90)],
            allowlist_used: 1,
        };
        o.finish();
        assert_eq!(o.violations[0].check, Check::Determinism);
        let json = o.to_json();
        assert!(json.contains("\"scenario\": \"arcc_audit\""));
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\\\"HashMap\\\""));
        assert!(json.contains("[\"arcc-core\", 7]"));
        assert!(json.contains("[\"arcc-core\", 9, 10, 90]"));
        assert!(json.contains("\"clean\": false"));
    }

    #[test]
    fn empty_outcome_is_clean() {
        let o = AuditOutcome::default();
        assert!(o.is_clean());
        let json = o.to_json();
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"rows\": []"));
    }
}
