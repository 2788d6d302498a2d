//! Structured experiment reports: metadata + typed tables, emitted as a
//! human-readable text rendering, CSV, or JSON.
//!
//! The JSON emitter is hand-rolled (the build environment is offline, so
//! no serde): strings are escaped per RFC 8259, and non-finite floats —
//! which JSON cannot represent — are emitted as `null`.
//!
//! ```
//! use arcc_exp::{Report, Table, Value};
//!
//! let mut report = Report::new("demo", "A demonstration report");
//! report.push_meta("trials", Value::Int(100));
//! let mut t = Table::new("results", &["case", "rate"]);
//! t.push_row(vec![Value::from("a,b"), Value::Float(0.25)]);
//! report.push_table(t);
//!
//! assert!(report.to_json().contains("\"rate\""));
//! assert!(report.to_csv().contains("\"a,b\""));   // RFC 4180 quoting
//! assert!(report.render().contains("demo"));
//! ```

use std::fmt;

use arcc_obs::{json_f64, json_string};

/// One typed cell of a report table.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / not applicable.
    Null,
    /// Boolean flag.
    Bool(bool),
    /// Integer counter.
    Int(i64),
    /// Floating-point measurement.
    Float(f64),
    /// Label or free text.
    Str(String),
}

impl Value {
    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if textual.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// JSON encoding of this value.
    fn to_json(&self) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => json_f64(*f),
            Value::Str(s) => json_string(s),
        }
    }

    /// CSV field encoding (non-finite floats keep their names, since CSV
    /// is schemaless text).
    fn to_csv_field(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => csv_escape(s),
        }
    }

    /// Human-table rendering: floats rounded to a readable precision
    /// (full precision lives in the JSON/CSV emitters).
    fn display(&self) -> String {
        match self {
            Value::Null => "-".into(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) if !f.is_finite() => format!("{f}"),
            Value::Float(f) if f.abs() >= 1000.0 => format!("{f:.0}"),
            Value::Float(f) if f.abs() >= 1.0 || *f == 0.0 => format!("{f:.3}"),
            Value::Float(f) => format!("{f:.6}"),
            Value::Str(s) => s.clone(),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Self {
        // Counters in this workspace are far below i64::MAX; saturate
        // rather than wrap if one ever is not.
        Value::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::from(i as u64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Escapes a CSV field per RFC 4180: quote when the field contains a
/// comma, quote, or newline; double embedded quotes.
fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One named table of typed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name (unique within a report).
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each row has exactly one cell per column.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table with the given columns.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the column count.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.name
        );
        self.rows.push(row);
    }
}

/// A complete experiment report: scenario identity, the knobs it ran
/// with, one or more tables of results, and free-text notes (paper
/// anchors, reading guides).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Scenario name (registry key, e.g. `"fig7_1"`).
    pub scenario: String,
    /// Human caption.
    pub title: String,
    /// Ordered metadata: the experiment knobs and headline aggregates.
    pub meta: Vec<(String, Value)>,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-text notes appended to the rendering.
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(scenario: &str, title: &str) -> Self {
        Self {
            scenario: scenario.to_string(),
            title: title.to_string(),
            meta: Vec::new(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a metadata entry.
    pub fn push_meta(&mut self, key: &str, value: impl Into<Value>) {
        self.meta.push((key.to_string(), value.into()));
    }

    /// Appends a table.
    pub fn push_table(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Appends a note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Looks up a metadata entry by key.
    pub fn meta_value(&self, key: &str) -> Option<&Value> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Total data rows across every table — the per-scenario "event
    /// count" that `repro_all --profile` pairs with wall-clock timings.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// Human-readable rendering: banner, metadata, aligned tables, notes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push('\n');
        out.push_str("==================================================================\n");
        out.push_str(&format!("{}: {}\n", self.scenario, self.title));
        out.push_str("==================================================================\n");
        for (k, v) in &self.meta {
            out.push_str(&format!("  {k} = {}\n", v.display()));
        }
        for t in &self.tables {
            out.push('\n');
            if self.tables.len() > 1 {
                out.push_str(&format!("-- {} --\n", t.name));
            }
            // Column widths from headers and rendered cells.
            let mut widths: Vec<usize> = t.columns.iter().map(|c| c.len()).collect();
            let rendered: Vec<Vec<String>> = t
                .rows
                .iter()
                .map(|r| r.iter().map(|v| v.display()).collect())
                .collect();
            for row in &rendered {
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            let mut header = String::new();
            for (i, c) in t.columns.iter().enumerate() {
                if i == 0 {
                    header.push_str(&format!("{:<width$}", c, width = widths[i]));
                } else {
                    header.push_str(&format!("  {:>width$}", c, width = widths[i]));
                }
            }
            out.push_str(header.trim_end());
            out.push('\n');
            for row in &rendered {
                let mut line = String::new();
                for (i, cell) in row.iter().enumerate() {
                    if i == 0 {
                        line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                    } else {
                        line.push_str(&format!("  {:>width$}", cell, width = widths[i]));
                    }
                }
                out.push_str(line.trim_end());
                out.push('\n');
            }
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(n);
                out.push('\n');
            }
        }
        out
    }

    /// CSV emission: one block per table, prefixed by a `# table:`
    /// comment line, blocks separated by a blank line.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (ti, t) in self.tables.iter().enumerate() {
            if ti > 0 {
                out.push('\n');
            }
            out.push_str(&format!("# table: {}\n", t.name));
            out.push_str(
                &t.columns
                    .iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
            for row in &t.rows {
                out.push_str(
                    &row.iter()
                        .map(|v| v.to_csv_field())
                        .collect::<Vec<_>>()
                        .join(","),
                );
                out.push('\n');
            }
        }
        out
    }

    /// JSON emission (machine-readable, consumed by the bench-trajectory
    /// tooling from `target/repro/*.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        out.push_str(&format!("\"scenario\":{},", json_string(&self.scenario)));
        out.push_str(&format!("\"title\":{},", json_string(&self.title)));
        out.push_str("\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(k), v.to_json()));
        }
        out.push_str("},\"tables\":[");
        for (ti, t) in self.tables.iter().enumerate() {
            if ti > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"columns\":[",
                json_string(&t.name)
            ));
            out.push_str(
                &t.columns
                    .iter()
                    .map(|c| json_string(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push_str("],\"rows\":[");
            for (ri, row) in t.rows.iter().enumerate() {
                if ri > 0 {
                    out.push(',');
                }
                out.push('[');
                out.push_str(
                    &row.iter()
                        .map(|v| v.to_json())
                        .collect::<Vec<_>>()
                        .join(","),
                );
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("],\"notes\":[");
        out.push_str(
            &self
                .notes
                .iter()
                .map(|n| json_string(n))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec![Value::Int(1)]);
    }
}
