//! Ablations of two design choices around ARCC, on deterministic streams.
//! The scenario reads no `Experiment` knob, so a golden pins its report
//! byte for byte.
//!
//! * `llc` — the LLC accommodation of §4.2.3. The paper adds an upgraded
//!   tag bit to a conventional 64 B-line LLC and rejects a sectored cache,
//!   whose 128 B sectors lose usable capacity on traffic with no spatial
//!   locality. Each stream is read twice on the paper's 1 MB LLC, every
//!   miss filled; the second pass's hits count what each design kept.
//! * `address_map` — simulated cycles of the same reads under the memory
//!   system's three address maps.

use arcc_cache::{CacheConfig, CacheModel, PairedTagLlc, SectoredLlc};
use arcc_core::splitmix64;
use arcc_mem::{AccessKind, MappingPolicy, MemRequest, MemorySystem, RequestSpan, SystemConfig};

use crate::experiment::Experiment;
use crate::report::{Report, Table, Value};
use crate::scenario::Scenario;

/// A stream: the line address of its `k`-th read.
type Stream = fn(u64) -> u64;

/// Working sets of the `llc` table in 64 B lines: a quarter of the paper
/// LLC's 16,384 lines up to one and a half times it.
const WORKING_SETS: [u64; 5] = [4_096, 8_192, 12_288, 16_384, 24_576];

/// The `llc` table's streams: name, stream, and whether a miss fills an upgraded 128 B line (both halves) rather than
/// a relaxed 64 B one.
const LLC_STREAMS: [(&str, Stream, bool); 2] = [
    // Random lines over 2^26 (4 GB): about one line per 128 B sector.
    ("sparse", |k| splitmix64(k) & ((1 << 26) - 1), false),
    // Both halves of each random sector, one after the other.
    (
        "pairs",
        |k| (splitmix64(k >> 1) & ((1 << 25) - 1)) << 1 | (k & 1),
        true,
    ),
];

/// Line reads per stream of the `address_map` table.
const MAP_READS: u64 = 10_000;

/// The `address_map` table's streams.
const MAP_STREAMS: [(&str, Stream); 2] =
    [("sequential", |i| i), ("random", |i| splitmix64(i) >> 40)];

/// The `address_map` table's maps: column name and policy.
const MAPS: [(&str, MappingPolicy); 3] = [
    ("base_map", MappingPolicy::BaseMap),
    ("high_performance", MappingPolicy::HighPerformance),
    ("close_page", MappingPolicy::ClosePageMap),
];

/// Reads the first `lines` lines of a stream twice into `llc`, filling
/// every miss: the second pass's hits.
fn second_pass_hits(llc: &mut impl CacheModel, line: Stream, upgraded: bool, lines: u64) -> u64 {
    let mut read_once = || {
        let before = llc.stats().hits;
        for k in 0..lines {
            let l = line(k);
            if !llc.access(l, false) {
                llc.fill(l, upgraded, false);
            }
        }
        llc.stats().hits - before
    };
    read_once();
    read_once()
}

/// Simulated cycles of [`MAP_READS`] line reads, read `i` at `line(i)`,
/// on the ARCC x8 system under `mapping`.
fn map_cycles(mapping: MappingPolicy, line: Stream) -> u64 {
    let mut config = SystemConfig::arcc_x8();
    config.mapping = mapping;
    let mut memory = MemorySystem::new(config);
    for i in 0..MAP_READS {
        memory.issue(MemRequest::new(
            i,
            AccessKind::Read,
            RequestSpan::line(line(i)),
        ));
    }
    memory.finish().sim_cycles
}

/// What one stream's `(lines, paired_tag_hits, sectored_hits)` rows show:
/// whether the sectored design kept fewer hits anywhere, and a sentence
/// saying where.
fn llc_finding(stream: &str, rows: &[(u64, u64, u64)]) -> (bool, String) {
    let fewer: Vec<_> = rows.iter().filter(|(_, p, s)| s < p).collect();
    let more = rows.iter().filter(|(_, p, s)| s > p).count();
    let sentence = match (fewer.first(), fewer.last()) {
        (Some((l0, p0, s0)), Some((l1, p1, s1))) => format!(
            "{stream}: the sectored LLC keeps fewer second-pass hits at {} of {} working \
             sets ({s0} against {p0} at {l0} lines, {s1} against {p1} at {l1}).",
            fewer.len(),
            rows.len()
        ),
        _ if more > 0 => format!(
            "{stream}: the sectored LLC keeps more second-pass hits at {more} of {} working \
             sets and fewer at none.",
            rows.len()
        ),
        _ => format!("{stream}: both designs keep the same second-pass hits at every working set."),
    };
    (!fewer.is_empty(), sentence)
}

/// `ablations`: the paired-tag against the sectored LLC, and the three
/// address maps, on deterministic streams.
pub struct Ablations;

impl Scenario for Ablations {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn title(&self) -> &'static str {
        "Ablations: paired-tag vs sectored LLC (§4.2.3) and address maps, on deterministic streams"
    }

    fn run(&self, _exp: &Experiment) -> Report {
        let mut report = Report::new(self.name(), self.title());
        let config = CacheConfig::paper_llc();
        report.push_meta(
            "llc_lines",
            config.size_bytes / u64::from(config.line_bytes),
        );

        let mut llc = Table::new(
            "llc",
            &[
                "stream",
                "lines",
                "paired_tag_hits",
                "sectored_hits",
                "second_tag_accesses",
            ],
        );
        let (mut findings, mut penalised) = (Vec::new(), Vec::new());
        let mut costliest = (0, "", 0);
        for (stream, line, upgraded) in LLC_STREAMS {
            let mut rows = Vec::new();
            for lines in WORKING_SETS {
                let mut paired = PairedTagLlc::new(config);
                let paired_hits = second_pass_hits(&mut paired, line, upgraded, lines);
                let mut sectored = SectoredLlc::new(config);
                let sectored_hits = second_pass_hits(&mut sectored, line, upgraded, lines);
                let second_tags = paired.stats().second_tag_accesses;
                costliest = costliest.max((second_tags, stream, lines));
                llc.push_row(vec![
                    Value::from(stream),
                    Value::from(lines),
                    Value::from(paired_hits),
                    Value::from(sectored_hits),
                    Value::from(second_tags),
                ]);
                rows.push((lines, paired_hits, sectored_hits));
            }
            let (penalty, sentence) = llc_finding(stream, &rows);
            if penalty {
                penalised.push(stream);
            }
            findings.push(sentence);
        }
        report.push_table(llc);

        let mut columns = vec!["stream"];
        columns.extend(MAPS.map(|(map, _)| map));
        let mut maps = Table::new("address_map", &columns);
        for (stream, line) in MAP_STREAMS {
            let cycles = MAPS.map(|(map, policy)| (map_cycles(policy, line), map));
            let mut row = vec![Value::from(stream)];
            row.extend(cycles.map(|(c, _)| Value::from(c)));
            maps.push_row(row);
            let (slow, slow_map) = cycles.iter().max().copied().unwrap_or_default();
            let (fast, fast_map) = cycles.iter().min().copied().unwrap_or_default();
            let ratio = slow as f64 / fast as f64;
            findings.push(format!(
                "{stream} reads: {slow_map} takes {ratio:.2}x the cycles of {fast_map} \
                 ({slow} against {fast})."
            ));
        }
        report.push_table(maps);

        let penalty = match penalised.as_slice() {
            [] => "on no stream".to_string(),
            [one] => format!("on {one} traffic only"),
            all => format!("on {} traffic", all.join(" and ")),
        };
        report.push_note(format!(
            "The sectored LLC's capacity penalty (§4.2.3) shows {penalty}."
        ));
        for finding in findings {
            report.push_note(finding);
        }
        let (second_tags, stream, lines) = costliest;
        report.push_note(format!(
            "The paired tag's price is its second tag accesses on replacement: at most \
             {second_tags}, on {stream} traffic at {lines} lines."
        ));
        report.push_note(format!(
            "address_map cells are simulated cycles of {MAP_READS} line reads on the ARCC x8 system."
        ));
        report
    }
}
