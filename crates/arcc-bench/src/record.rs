//! The `BENCH_*.json` throughput record: one schema for every layer's
//! ladder, its writer, a parser that accepts exactly what the writer
//! emits, and the regression gate that compares a run with a record.
//!
//! ```text
//! {"bench":"fleet","threads":1,"unit":"ch/s","rungs":[{"id":"10000","seconds":0.000591849,"rate":16896201.56492619},...]}
//! ```
//!
//! Layer names, units and rung ids (a codec name, or a channel count in
//! decimal) hold no character JSON must escape.

use std::fmt;

use arcc_obs::{json_f64, json_string};

/// Fractional slowdown a rung may show against its record before the
/// gate fails (bench machines vary; real regressions are larger).
pub(crate) const TOLERANCE: f64 = 0.30;

/// One rung of a ladder: its id, the best pass's seconds, and the work
/// done per second in the record's unit.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Rung {
    pub(crate) id: String,
    pub(crate) seconds: f64,
    pub(crate) rate: f64,
}

/// One layer's ladder, measured at `threads` worker threads.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Record {
    pub(crate) bench: String,
    pub(crate) threads: usize,
    pub(crate) unit: String,
    pub(crate) rungs: Vec<Rung>,
}

/// Where a text departs from what [`Record::to_json`] writes: what was
/// `expected`, inside which rung when one was being read.
#[derive(Debug, PartialEq)]
pub(crate) struct RecordError {
    pub(crate) rung: Option<String>,
    pub(crate) expected: &'static str,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(rung) = &self.rung {
            write!(f, "rung {rung}: ")?;
        }
        write!(f, "expected {}", self.expected)
    }
}

impl Record {
    /// The record as one JSON line.
    pub(crate) fn to_json(&self) -> String {
        let rungs: Vec<String> = self
            .rungs
            .iter()
            .map(|r| {
                format!(
                    "{{\"id\":{},\"seconds\":{},\"rate\":{}}}",
                    json_string(&r.id),
                    json_f64(r.seconds),
                    json_f64(r.rate)
                )
            })
            .collect();
        format!(
            "{{\"bench\":{},\"threads\":{},\"unit\":{},\"rungs\":[{}]}}\n",
            json_string(&self.bench),
            self.threads,
            json_string(&self.unit),
            rungs.join(",")
        )
    }

    /// Parses a record, accepting exactly what [`Record::to_json`]
    /// writes: the same keys in the same order, no whitespace, at least
    /// one rung, no id twice, and every number spelled as the writer
    /// spells it.
    pub(crate) fn parse(text: &str) -> Result<Record, RecordError> {
        let mut p = Cursor {
            rest: text,
            rung: None,
        };
        p.eat("{\"bench\":\"")?;
        let bench = p.token('"', "a plain layer name", plain)?;
        p.eat(",\"threads\":")?;
        let threads = p.token(',', "a positive thread count", |t| {
            t.parse()
                .ok()
                .filter(|&n: &usize| n > 0 && n.to_string() == t)
        })?;
        p.eat("\"unit\":\"")?;
        let unit = p.token('"', "a plain unit", plain)?;
        p.eat(",\"rungs\":[")?;
        let mut rungs: Vec<Rung> = Vec::new();
        loop {
            p.eat("{\"id\":\"")?;
            let id = p.token('"', "a plain rung id", plain)?;
            p.rung = Some(id.clone());
            if rungs.iter().any(|r| r.id == id) {
                return Err(p.fail("an id no other rung has"));
            }
            p.eat(",\"seconds\":")?;
            let seconds = p.token(',', "finite seconds", number)?;
            p.eat("\"rate\":")?;
            let rate = p.token('}', "a finite rate", number)?;
            p.rung = None;
            rungs.push(Rung { id, seconds, rate });
            if p.eat(",").is_err() {
                break;
            }
        }
        p.eat("]}\n")?;
        if !p.rest.is_empty() {
            return Err(p.fail("the end of the record"));
        }
        Ok(Record {
            bench,
            threads,
            unit,
            rungs,
        })
    }
}

/// A string the writer emits without escapes.
fn plain(s: &str) -> Option<String> {
    let escaped = s.contains(|c: char| c == '\\' || c.is_control());
    (!escaped).then(|| s.to_string())
}

/// A finite number spelled exactly as [`json_f64`] spells it.
fn number(s: &str) -> Option<f64> {
    s.parse().ok().filter(|&v| json_f64(v) == s)
}

/// The unread rest of a record, and the rung being read.
struct Cursor<'a> {
    rest: &'a str,
    rung: Option<String>,
}

impl Cursor<'_> {
    fn fail(&self, expected: &'static str) -> RecordError {
        RecordError {
            rung: self.rung.clone(),
            expected,
        }
    }

    /// Consumes `want` verbatim.
    fn eat(&mut self, want: &'static str) -> Result<(), RecordError> {
        self.rest = self
            .rest
            .strip_prefix(want)
            .ok_or_else(|| self.fail(want))?;
        Ok(())
    }

    /// Consumes the text up to and including `end`, returning what came
    /// before `end` as `read` takes it.
    fn token<T>(
        &mut self,
        end: char,
        expected: &'static str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<T, RecordError> {
        let (token, rest) = self
            .rest
            .split_once(end)
            .ok_or_else(|| self.fail(expected))?;
        let value = read(token).ok_or_else(|| self.fail(expected))?;
        self.rest = rest;
        Ok(value)
    }
}

/// Gates `run` against `record`. A run of another layer, unit or thread
/// count is refused, not compared (`Err` says why). Otherwise the result
/// names every failing rung, record order first; empty is a pass.
pub(crate) fn gate(record: &Record, run: &Record) -> Result<Vec<String>, String> {
    let key = |r: &Record| format!("{} in {} at {} thread(s)", r.bench, r.unit, r.threads);
    if key(record) != key(run) {
        return Err(format!(
            "the record measures {}, the run {}",
            key(record),
            key(run)
        ));
    }
    let unit = &run.unit;
    let mut failures = Vec::new();
    for base in &record.rungs {
        match run.rungs.iter().find(|r| r.id == base.id) {
            None => failures.push(format!("rung {} is recorded but was not run", base.id)),
            Some(r) if r.rate < base.rate * (1.0 - TOLERANCE) => failures.push(format!(
                "rung {}: {:.0} {unit} is more than {:.0}% below the recorded {:.0} {unit}",
                r.id,
                r.rate,
                TOLERANCE * 100.0,
                base.rate
            )),
            Some(_) => {}
        }
    }
    for r in &run.rungs {
        if !record.rungs.iter().any(|base| base.id == r.id) {
            failures.push(format!("rung {} was run but is not recorded", r.id));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bench: &str, unit: &str, rates: &[(&str, f64)]) -> Record {
        let rung = |&(id, rate): &(&str, f64)| Rung {
            id: id.into(),
            seconds: 0.5,
            rate,
        };
        Record {
            bench: bench.into(),
            threads: 1,
            unit: unit.into(),
            rungs: rates.iter().map(rung).collect(),
        }
    }

    #[test]
    fn writer_output_parses_back_exactly() {
        let mut run = record(
            "serve",
            "ch/s",
            &[("20000", 1136227.4827408465), ("400000", 2e5)],
        );
        run.threads = 4;
        assert_eq!(Record::parse(&run.to_json()), Ok(run));
    }

    /// The committed records' numbers as written before rungs were named
    /// (`"channels"` ids, `"channels_per_sec"` rates).
    const CODEC: &[(&str, f64, f64)] = &[
        ("arcc-relaxed", 0.005231354, 3823102.0114486613),
        ("arcc-upgraded", 0.010237475, 1953606.7243143453),
        ("arcc-upgraded2", 0.018458275, 1083524.868927351),
        ("sccdcd", 0.005767018, 3467996.8052813434),
        ("s8sc", 0.005362634, 3729510.535307836),
        ("qpc", 0.010817763, 1848811.0711983615),
        ("multi-ecc", 0.001982013, 10090751.17065327),
        ("two-tier-secded", 0.013168807, 1518740.4599368798),
    ];
    const FLEET: &[(&str, f64, f64)] = &[
        ("10000", 0.000591849, 16896201.56492619),
        ("100000", 0.005854574, 17080662.06012598),
        ("1000000", 0.058538153, 17082875.84680029),
        ("10000000", 0.596806692, 16755844.286008775),
    ];
    const REPLAY: &[(&str, f64, f64)] = &[
        ("10000", 0.000620467, 16116892.598639412),
        ("100000", 0.00675732, 14798766.374834994),
        ("1000000", 0.060891311, 16422704.382239366),
    ];
    const SERVE: &[(&str, f64, f64)] = &[
        ("20000", 0.017602109, 1136227.4827408465),
        ("100000", 0.066461231, 1504636.5903153375),
        ("400000", 0.3337931, 1198347.1198176355),
    ];

    /// The committed `BENCH_{bench}.json` parses, at 1 thread, to exactly
    /// `rungs` (bit for bit), and the writer gives it back byte for byte.
    fn check_committed(bench: &str, unit: &str, rungs: &[(&str, f64, f64)]) {
        let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let parsed = Record::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let header = (parsed.bench.as_str(), parsed.threads, parsed.unit.as_str());
        assert_eq!(header, (bench, 1, unit));
        let bits = |id: &str, s: f64, r: f64| (id.to_string(), s.to_bits(), r.to_bits());
        let got = parsed.rungs.iter().map(|r| bits(&r.id, r.seconds, r.rate));
        let want = rungs.iter().map(|&(id, s, r)| bits(id, s, r));
        assert!(got.eq(want), "{path} moved a number");
        assert_eq!(parsed.to_json(), text, "{path} is writer output");
    }

    #[test]
    fn committed_records_hold_their_recorded_numbers() {
        check_committed("codec", "lines/s", CODEC);
        check_committed("fleet", "ch/s", FLEET);
        check_committed("replay", "ch/s", REPLAY);
        check_committed("serve", "ch/s", SERVE);
    }

    #[test]
    fn gate_tolerates_29_percent_and_fails_31() {
        let base = record("fleet", "ch/s", &[("10000", 100.0), ("100000", 200.0)]);
        let run = record("fleet", "ch/s", &[("10000", 71.0), ("100000", 200.0)]);
        assert_eq!(gate(&base, &run), Ok(vec![]));
        let run = record("fleet", "ch/s", &[("10000", 69.0), ("100000", 200.0)]);
        let slower = "rung 10000: 69 ch/s is more than 30% below the recorded 100 ch/s";
        assert_eq!(gate(&base, &run), Ok(vec![slower.to_string()]));
    }

    #[test]
    fn gate_fails_a_rung_on_one_side_only() {
        let base = record("codec", "lines/s", &[("qpc", 1.0), ("s8sc", 1.0)]);
        let run = record("codec", "lines/s", &[("qpc", 1.0)]);
        let only = "rung s8sc is recorded but was not run";
        assert_eq!(gate(&base, &run), Ok(vec![only.to_string()]));
        let run = record(
            "codec",
            "lines/s",
            &[("qpc", 1.0), ("s8sc", 1.0), ("opc", 1.0)],
        );
        let only = "rung opc was run but is not recorded";
        assert_eq!(gate(&base, &run), Ok(vec![only.to_string()]));
    }

    #[test]
    fn gate_refuses_another_layer_unit_or_thread_count() {
        let base = record("replay", "ch/s", &[("10000", 100.0)]);
        let mut other_threads = base.clone();
        other_threads.threads = 4;
        for (run, measures) in [
            (
                record("fleet", "ch/s", &[("10000", 100.0)]),
                "fleet in ch/s at 1",
            ),
            (
                record("replay", "MB/s", &[("10000", 100.0)]),
                "replay in MB/s at 1",
            ),
            (other_threads, "replay in ch/s at 4"),
        ] {
            let refused = format!(
                "the record measures replay in ch/s at 1 thread(s), the run {measures} thread(s)"
            );
            assert_eq!(gate(&base, &run), Err(refused));
        }
    }

    #[test]
    fn a_null_or_cut_short_number_is_an_error_naming_its_rung() {
        let rates = [("arcc-relaxed", 3823102.5), ("arcc-upgraded2", 1083524.75)];
        let text = record("codec", "lines/s", &rates).to_json();
        let error = |rung: &str, expected| {
            let rung = Some(rung.to_string());
            Err(RecordError { rung, expected })
        };
        let nulled = text.replace("1083524.75", "null");
        assert_eq!(
            Record::parse(&nulled),
            error("arcc-upgraded2", "a finite rate")
        );
        let cut = &text[..text.find("1083524.75").expect("rate is written") + 4];
        assert_eq!(Record::parse(cut), error("arcc-upgraded2", "a finite rate"));
        let respelled = text.replacen("0.5", "5e-1", 1);
        assert_eq!(
            Record::parse(&respelled),
            error("arcc-relaxed", "finite seconds")
        );
        let doubled = text.replace("arcc-upgraded2", "arcc-relaxed");
        assert_eq!(
            Record::parse(&doubled),
            error("arcc-relaxed", "an id no other rung has")
        );
        for damaged in [
            text.replace("\"unit\"", "\"units\""),
            text.replace("\"threads\":1", "\"threads\":0"),
            text.trim_end().to_string(),
            format!("{text} "),
        ] {
            let error = Record::parse(&damaged).expect_err(&damaged);
            assert_eq!(error.rung, None, "{damaged}");
        }
    }
}
