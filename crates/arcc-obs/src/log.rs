//! Structured single-line log events for service stderr.
//!
//! `arcc-serve`'s transport loop used to emit bare `eprintln!` prose;
//! routing every event through [`log_line`] makes stderr a stream of
//! one-JSON-object-per-line records that fleet tooling can parse.

use crate::export::json_string;

/// Formats one failed operation as a single JSON line (no trailing
/// newline): `{"level":"error","event":"accept","err":"..."}`. Field
/// order follows the given slice; keys and values are JSON-escaped.
pub fn log_line(event: &str, fields: &[(&str, &str)]) -> String {
    let mut out = format!("{{\"level\":\"error\",\"event\":{}", json_string(event));
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
            log_line("up", &[]),
            "{\"level\":\"error\",\"event\":\"up\"}"
        );
    }
}
