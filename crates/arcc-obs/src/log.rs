//! Structured single-line log events for service stderr.
//!
//! `arcc-serve`'s transport loop used to emit bare `eprintln!` prose;
//! routing every event through [`log_line`] makes stderr a stream of
//! one-JSON-object-per-line records that fleet tooling can parse.

use crate::export::json_string;

/// Severity of a [`log_line`] event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LogLevel {
    /// Informational; normal operation.
    Info,
    /// Degraded but continuing.
    Warn,
    /// A failed operation.
    Error,
}

impl LogLevel {
    /// The lowercase wire name of the level.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

/// Formats one structured log event as a single JSON line (no trailing
/// newline): `{"level":"error","event":"accept","err":"..."}`. Field
/// order follows the given slice; keys and values are JSON-escaped.
pub fn log_line(level: LogLevel, event: &str, fields: &[(&str, &str)]) -> String {
    let mut out = format!(
        "{{\"level\":\"{}\",\"event\":{}",
        level.as_str(),
        json_string(event)
    );
    for (key, value) in fields {
        out.push_str(&format!(",{}:{}", json_string(key), json_string(value)));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_single_escaped_json_lines() {
        let line = log_line(
            LogLevel::Error,
            "accept",
            &[("cmd", "ingest"), ("err", "broken\npipe \"x\"")],
        );
        assert_eq!(
            line,
            "{\"level\":\"error\",\"event\":\"accept\",\
             \"cmd\":\"ingest\",\"err\":\"broken\\npipe \\\"x\\\"\"}"
        );
        assert!(!line.contains('\n'));
        assert_eq!(
            log_line(LogLevel::Info, "up", &[]),
            "{\"level\":\"info\",\"event\":\"up\"}"
        );
        assert_eq!(LogLevel::Warn.as_str(), "warn");
    }
}
