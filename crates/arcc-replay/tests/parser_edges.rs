//! Fuzz/edge coverage for the strict log parser: every malformed input —
//! out-of-order timestamps, duplicate DIMM ids, unknown fault modes,
//! empty logs, truncation, garbage — must produce a *typed* `LogError`,
//! never a panic and never a silently-wrong parse.

use arcc_fleet::{DimmPopulation, FleetSpec};
use arcc_replay::{generate_log, FaultLog, LogError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fixture every edge case edits; `arcc-replay`'s differential
/// parser test mutates it too.
const VALID: &str = include_str!("fixtures/edges.log");

#[test]
fn the_fixture_itself_parses() {
    let log = FaultLog::parse(VALID).expect("fixture is valid");
    assert_eq!(log.classes.len(), 2);
    assert_eq!(log.dimms.len(), 2);
    assert_eq!(log.faults.len(), 3);
    assert_eq!(log.class_fault_counts(), vec![1, 2]);
}

#[test]
fn out_of_order_timestamps_are_typed_errors() {
    let text = VALID.replace("fault d1 900", "fault d1 9.25");
    match FaultLog::parse(&text) {
        Err(LogError::OutOfOrder {
            id,
            time_h,
            previous_h,
            ..
        }) => {
            assert_eq!(id, "d1");
            assert_eq!(time_h, 9.25);
            assert_eq!(previous_h, 10.5);
        }
        other => panic!("expected OutOfOrder, got {other:?}"),
    }
    // Different DIMMs' streams are independent: d0's late fault after
    // d1's early ones is fine (the fixture already interleaves them).
}

#[test]
fn duplicate_ids_are_typed_errors() {
    let text = VALID.replace("dimm d1 hot", "dimm d0 hot");
    assert!(matches!(
        FaultLog::parse(&text),
        Err(LogError::DuplicateDimm { id, .. }) if id == "d0"
    ));
    let text = VALID.replace("class hot 2 16", "class cold 2 16");
    assert!(matches!(
        FaultLog::parse(&text),
        Err(LogError::DuplicateClass { name, .. }) if name == "cold"
    ));
}

#[test]
fn unknown_tokens_are_typed_errors() {
    let text = VALID.replace("bit T", "cosmic T");
    assert!(matches!(
        FaultLog::parse(&text),
        Err(LogError::UnknownMode { token, .. }) if token == "cosmic"
    ));
    let text = VALID.replace("dimm d1 hot", "dimm d1 lukewarm");
    assert!(matches!(
        FaultLog::parse(&text),
        Err(LogError::UnknownClass { name, .. }) if name == "lukewarm"
    ));
    let text = VALID.replace("fault d1 10.5", "fault ghost 10.5");
    assert!(matches!(
        FaultLog::parse(&text),
        Err(LogError::UnknownDimm { id, .. }) if id == "ghost"
    ));
}

#[test]
fn empty_and_truncated_logs_are_typed_errors() {
    assert_eq!(
        FaultLog::parse("arcc-fault-log v1\nyears 7\nend\n"),
        Err(LogError::Empty)
    );
    assert_eq!(
        FaultLog::parse("arcc-fault-log v1\nyears 7\nclass c 4 4\nend\n"),
        Err(LogError::Empty),
        "classes without dimms are still an empty inventory"
    );
    assert_eq!(FaultLog::parse(""), Err(LogError::BadHeader(String::new())));
    assert!(matches!(
        FaultLog::parse("not a log\n"),
        Err(LogError::BadHeader(_))
    ));
    // Any whole-line truncation (a crash mid-write) fails to parse.
    let lines: Vec<&str> = VALID.lines().collect();
    for keep in 1..lines.len() {
        let truncated = lines[..keep].join("\n") + "\n";
        assert!(
            FaultLog::parse(&truncated).is_err(),
            "truncation to {keep} lines parsed"
        );
    }
    // Content after the end marker is rejected, not ignored.
    assert!(matches!(
        FaultLog::parse(&(VALID.to_string() + "dimm late cold\n")),
        Err(LogError::TrailingContent { .. })
    ));
}

#[test]
fn out_of_range_fields_are_typed_errors() {
    // Time at/past the horizon, negative, or non-finite.
    for bad in ["61320", "1e9", "-1", "NaN", "inf"] {
        let text = VALID.replace("fault d0 61319.9", &format!("fault d0 {bad}"));
        assert!(
            matches!(
                FaultLog::parse(&text),
                Err(LogError::TimeOutOfRange { .. }) | Err(LogError::Syntax { .. })
            ),
            "time {bad} accepted"
        );
    }
    // Geometry bounds: rank < 2, device < 36, bank < 8.
    for (from, to) in [
        ("bit T 0 3", "bit T 2 3"),
        ("bit T 0 3", "bit T 0 36"),
        ("bit T 0 3 2", "bit T 0 3 9"),
        // Lane faults must use rank *; point faults must not.
        ("lane P * 7", "lane P 0 7"),
        ("bit T 0 3", "bit T * 3"),
        // Half-selectors are column-only, h0/h1 only.
        ("column P 1 35 3 * h1", "column P 1 35 h0 * h1"),
        ("column P 1 35 3 * h1", "column P 1 35 3 * h2"),
    ] {
        let text = VALID.replace(from, to);
        assert_ne!(text, VALID, "replacement {from:?} did not apply");
        assert!(
            matches!(FaultLog::parse(&text), Err(LogError::Syntax { .. })),
            "malformed field {to:?} accepted"
        );
    }
    // Bad arity and unknown directives.
    assert!(matches!(
        FaultLog::parse("arcc-fault-log v1\nyears 7 extra\nend\n"),
        Err(LogError::Syntax { .. })
    ));
    assert!(matches!(
        FaultLog::parse("arcc-fault-log v1\nyears 7\nfrobnicate\nend\n"),
        Err(LogError::Syntax { .. })
    ));
    // Missing years: faults cannot be range-checked without a horizon.
    assert!(matches!(
        FaultLog::parse(
            "arcc-fault-log v1\nclass c 4 4\ndimm d c\nfault d 1 bit T 0 3 2 100 5\nend\n"
        ),
        Err(LogError::Syntax { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chaos-monkey the fixture: random byte mutations, splices, and
    /// truncations must always come back as `Ok` or a typed error —
    /// `FaultLog::parse` must never panic on any input.
    #[test]
    fn arbitrary_mutations_never_panic(seed in any::<u64>(), edits in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = VALID.as_bytes().to_vec();
        for _ in 0..edits {
            match rng.gen_range(0u32..4) {
                0 => {
                    // Flip a byte.
                    let i = rng.gen_range(0..bytes.len() as u64) as usize;
                    bytes[i] = rng.gen_range(0u64..256) as u8;
                }
                1 => {
                    // Truncate.
                    let i = rng.gen_range(0..bytes.len() as u64) as usize;
                    bytes.truncate(i.max(1));
                }
                2 => {
                    // Duplicate a slice somewhere else.
                    let a = rng.gen_range(0..bytes.len() as u64) as usize;
                    let b = rng.gen_range(a as u64..bytes.len() as u64) as usize;
                    let slice: Vec<u8> = bytes[a..=b.min(a + 40)].to_vec();
                    let at = rng.gen_range(0..bytes.len() as u64) as usize;
                    for (k, v) in slice.into_iter().enumerate() {
                        bytes.insert((at + k).min(bytes.len()), v);
                    }
                }
                _ => {
                    // Insert junk whitespace/tokens.
                    let at = rng.gen_range(0..bytes.len() as u64) as usize;
                    bytes.insert(at, *b" \t\0~\n".get(rng.gen_range(0u64..5) as usize).unwrap());
                }
            }
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = FaultLog::parse(&text); // Ok or typed Err — just no panic.
    }

    /// Generated logs parse back losslessly for arbitrary specs (the
    /// writer and parser agree on the grammar, including float edge
    /// cases like subnormal-ish tiny gaps).
    #[test]
    fn generated_logs_always_reparse(channels in 1u64..200, mult in 0.0f64..60.0, seed in any::<u64>()) {
        let spec = FleetSpec::baseline(channels)
            .populations(vec![DimmPopulation::paper("p").rate_multiplier(mult)])
            .seed(seed);
        let log = generate_log(&spec);
        let parsed = FaultLog::parse(&log.to_text()).expect("generated log parses");
        prop_assert_eq!(parsed, log);
    }
}
