//! Segment-oriented log ingestion: a fleet fault log that arrives in
//! pieces.
//!
//! A *segment* is an ordinary `arcc-fault-log v1` document describing the
//! **new** DIMMs (and their observed faults) since the previous segment —
//! the unit a long-lived service ingests. Segments of one logical log
//! must agree on the horizon and declare an identical class table, and
//! every DIMM id must be globally unique across segments; violations are
//! typed [`SegmentError`]s, never silent merges. Appending a segment
//! renumbers its DIMMs after the existing inventory, so the accumulated
//! log is byte-identical to the log that would have been written in one
//! piece — which is what lets `arcc-fleet` checkpoints extend across
//! ingests instead of rerunning
//! ([`extend_replay`](arcc_fleet::extend_replay)).

use std::fmt;

use arcc_faults::FaultEvent;

use crate::format::{FaultLog, LogDimm, LogError};

/// Typed errors merging a segment into an accumulated log.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentError {
    /// The segment text failed the strict v1 parser.
    Parse(LogError),
    /// The segment's horizon differs from the accumulated log's.
    YearsMismatch {
        /// Horizon of the accumulated log.
        expected: f64,
        /// Horizon the segment declared.
        found: f64,
    },
    /// The segment's class table is not identical (same classes, same
    /// order, same scrub cadence and core counts) to the accumulated
    /// log's.
    ClassMismatch {
        /// What differed, human-readable.
        what: String,
    },
    /// The segment re-declares a DIMM id the accumulated log already
    /// holds, or declares one id twice.
    DuplicateDimm {
        /// The repeated id.
        id: String,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Parse(e) => write!(f, "segment does not parse: {e}"),
            SegmentError::YearsMismatch { expected, found } => write!(
                f,
                "segment horizon {found} years differs from the log's {expected}"
            ),
            SegmentError::ClassMismatch { what } => {
                write!(f, "segment class table mismatch: {what}")
            }
            SegmentError::DuplicateDimm { id } => {
                write!(f, "segment re-declares dimm {id:?}")
            }
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl FaultLog {
    /// Splits the log into segments of at most `channels` DIMMs each, in
    /// inventory order. Every segment carries the full class table (the
    /// segment contract) and its own DIMMs' faults; concatenating the
    /// segments through [`FaultLog::append_segment`] reproduces the
    /// original log exactly. The inverse of segment-wise ingestion, used
    /// by the goldens and benches that feed a log to the digital-twin
    /// service in pieces.
    ///
    /// # Panics
    ///
    /// When `channels` is zero.
    pub fn split_channels(&self, channels: usize) -> Vec<FaultLog> {
        assert!(channels > 0, "segments must hold at least one channel");
        let mut segments = Vec::new();
        for (seg, dimms) in self.dimms.chunks(channels).enumerate() {
            let first = (seg * channels) as u32;
            // Faults are stored in file order, but segment membership is
            // by DIMM index, so scan the whole list per segment.
            let faults = self
                .faults
                .iter()
                .filter(|(d, _)| (*d >= first) && ((*d - first) as usize) < dimms.len())
                .map(|(d, ev)| (d - first, *ev))
                .collect();
            segments.push(FaultLog {
                years: self.years,
                classes: self.classes.clone(),
                dimms: dimms.to_vec(),
                faults,
                id_index: Vec::new(),
            });
        }
        segments
    }

    /// Parses `text` as a standalone segment document and appends it:
    /// the one-call ingestion entry point a long-lived service wants. On
    /// success, records the [`FaultLog::parse_recorded`] parse counters
    /// plus a `replay.ingest.segments` counter into `rec`. Failed ingests
    /// (parse errors and contract violations alike) record nothing and
    /// leave the log unchanged.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Parse`] when `text` fails the strict v1 parser,
    /// otherwise as for [`FaultLog::append_segment`].
    #[allow(clippy::type_complexity)]
    pub fn ingest_segment(
        &mut self,
        text: &str,
        rec: &mut dyn arcc_obs::Recorder,
    ) -> Result<(Vec<u32>, Vec<Vec<FaultEvent>>), SegmentError> {
        let segment = FaultLog::parse(text).map_err(SegmentError::Parse)?;
        let slices = self.append_segment(&segment)?;
        rec.counter_add("replay.parse.lines", text.lines().count() as u64);
        rec.counter_add("replay.parse.classes", segment.classes.len() as u64);
        rec.counter_add("replay.parse.dimms", segment.dimms.len() as u64);
        rec.counter_add("replay.parse.faults", segment.faults.len() as u64);
        rec.counter_add("replay.ingest.segments", 1);
        Ok(slices)
    }

    /// Appends a segment to the accumulated log: validates the segment
    /// contract (same horizon, identical class table, globally unique
    /// DIMM ids), renumbers the segment's DIMMs after the existing
    /// inventory, and returns the appended slices in the
    /// [`ReplayArrivals::extend`](arcc_fleet::ReplayArrivals::extend)
    /// layout — one population index and one time-ordered event list per
    /// new channel. On error the log is unchanged.
    ///
    /// The id check costs O(s·log n) comparisons for an s-DIMM segment
    /// and an n-DIMM log: the segment's ids are sorted, then looked up
    /// in the log's persistent id index and merged into it.
    ///
    /// # Errors
    ///
    /// A [`SegmentError`] naming the violated contract clause. Of several
    /// repeated ids, the one named is the first in segment order that
    /// the log, or an earlier DIMM of the segment, already declares.
    #[allow(clippy::type_complexity)]
    pub fn append_segment(
        &mut self,
        segment: &FaultLog,
    ) -> Result<(Vec<u32>, Vec<Vec<FaultEvent>>), SegmentError> {
        if segment.years.to_bits() != self.years.to_bits() {
            return Err(SegmentError::YearsMismatch {
                expected: self.years,
                found: segment.years,
            });
        }
        if segment.classes.len() != self.classes.len() {
            return Err(SegmentError::ClassMismatch {
                what: format!(
                    "log declares {} classes, segment {}",
                    self.classes.len(),
                    segment.classes.len()
                ),
            });
        }
        for (mine, theirs) in self.classes.iter().zip(&segment.classes) {
            if mine != theirs {
                return Err(SegmentError::ClassMismatch {
                    what: format!(
                        "class {:?} (scrub {}h, {} cores) vs {:?} (scrub {}h, {} cores)",
                        mine.name,
                        mine.scrub_interval_h,
                        mine.cores,
                        theirs.name,
                        theirs.scrub_interval_h,
                        theirs.cores
                    ),
                });
            }
        }
        if self.id_index.len() != self.dimms.len() {
            self.id_index = sorted_by_id(&self.dimms);
        }
        // The segment's ids in sorted order, each with the index slot it
        // would take. Slots only grow along the sorted ids, so each search
        // starts at the previous slot. A repeat within the segment sorts
        // right after its first declaration.
        let mut order = sorted_by_id(&segment.dimms);
        let mut slots = Vec::with_capacity(order.len());
        let mut repeated: Option<u32> = None;
        let mut slot = 0;
        for (k, &d) in order.iter().enumerate() {
            let id = segment.dimms[d as usize].id.as_str();
            slot +=
                self.id_index[slot..].partition_point(|&i| self.dimms[i as usize].id.as_str() < id);
            let known = self
                .id_index
                .get(slot)
                .is_some_and(|&i| self.dimms[i as usize].id == id);
            let again = k > 0 && segment.dimms[order[k - 1] as usize].id == id;
            if known || again {
                repeated = Some(repeated.map_or(d, |r| r.min(d)));
            }
            slots.push(slot);
        }
        if let Some(d) = repeated {
            let id = segment.dimms[d as usize].id.clone();
            return Err(SegmentError::DuplicateDimm { id });
        }
        let populations: Vec<u32> = segment.dimms.iter().map(|d| d.class).collect();
        let mut per_channel: Vec<Vec<FaultEvent>> = vec![Vec::new(); segment.dimms.len()];
        for (dimm, ev) in &segment.faults {
            per_channel[*dimm as usize].push(*ev);
        }
        let base = self.dimms.len() as u32;
        for d in &mut order {
            *d += base;
        }
        insert_sorted(&mut self.id_index, &slots, &order);
        self.dimms.extend(segment.dimms.iter().cloned());
        self.faults
            .extend(segment.faults.iter().map(|(d, ev)| (d + base, *ev)));
        Ok((populations, per_channel))
    }
}

/// Indices into `dimms`, sorted by id (ties by index).
fn sorted_by_id(dimms: &[LogDimm]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..dimms.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        (dimms[a as usize].id.as_str(), a).cmp(&(dimms[b as usize].id.as_str(), b))
    });
    order
}

/// Inserts `entries[k]` into the sorted `index` before the old entry at
/// `slots[k]` (`slots` non-decreasing). Works from the back in place, so
/// the old entries move by plain block copies.
fn insert_sorted(index: &mut Vec<u32>, slots: &[usize], entries: &[u32]) {
    let mut end = index.len();
    index.resize(end + entries.len(), 0);
    for (k, (&slot, &entry)) in slots.iter().zip(entries).enumerate().rev() {
        index.copy_within(slot..end, slot + k + 1);
        index[slot + k] = entry;
        end = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_log;
    use arcc_fleet::FleetSpec;

    fn sample_log() -> FaultLog {
        let spec = FleetSpec::baseline(40)
            .populations(vec![
                arcc_fleet::DimmPopulation::paper("hot").rate_multiplier(60.0)
            ])
            .shard_channels(16)
            .seed(0x5E6);
        generate_log(&spec)
    }

    #[test]
    fn split_then_append_reproduces_the_log() {
        let log = sample_log();
        assert!(log.faults.len() > 2, "sample log too quiet to be a test");
        let segments = log.split_channels(16);
        assert_eq!(segments.len(), 3);
        assert_eq!(segments[0].dimms.len(), 16);
        assert_eq!(segments[2].dimms.len(), 8);
        // Each segment is a valid standalone v1 document...
        for seg in &segments {
            assert_eq!(
                FaultLog::parse(&seg.to_text()).expect("segment parses"),
                *seg
            );
        }
        // ...and appending them in order rebuilds the original exactly.
        let mut rebuilt = segments[0].clone();
        for seg in &segments[1..] {
            rebuilt.append_segment(seg).expect("append");
        }
        assert_eq!(rebuilt, log);
        assert_eq!(rebuilt.to_text(), log.to_text());
    }

    #[test]
    fn recorded_segment_ingest_counts_segments_and_rolls_back_on_error() {
        use arcc_obs::SnapshotRecorder;
        let log = sample_log();
        let segments = log.split_channels(16);
        let mut acc = segments[0].clone();
        let mut rec = SnapshotRecorder::new();
        for seg in &segments[1..] {
            acc.ingest_segment(&seg.to_text(), &mut rec)
                .expect("ingest");
        }
        assert_eq!(acc, log);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("replay.ingest.segments"), 2);
        assert_eq!(
            snap.counter("replay.parse.dimms"),
            (log.dimms.len() - segments[0].dimms.len()) as u64
        );
        // A refused segment (duplicate dimms) records nothing.
        let before = rec.snapshot().clone();
        assert!(acc
            .ingest_segment(&segments[0].to_text(), &mut rec)
            .is_err());
        assert_eq!(rec.snapshot(), &before);
    }

    #[test]
    fn appended_slices_feed_replay_arrivals_extend() {
        let log = sample_log();
        let segments = log.split_channels(25);
        let mut acc = segments[0].clone();
        let mut arrivals = acc.arrivals().expect("arrivals");
        for seg in &segments[1..] {
            let (populations, per_channel) = acc.append_segment(seg).expect("append");
            arrivals.extend(populations, per_channel).expect("extend");
        }
        assert_eq!(arrivals, log.arrivals().expect("full arrivals"));
    }

    #[test]
    fn segment_contract_violations_are_typed_and_non_destructive() {
        let log = sample_log();
        let segments = log.split_channels(20);
        let mut acc = segments[0].clone();
        let snapshot = acc.clone();

        let mut wrong_years = segments[1].clone();
        wrong_years.years = 5.0;
        assert_eq!(
            acc.append_segment(&wrong_years),
            Err(SegmentError::YearsMismatch {
                expected: 7.0,
                found: 5.0
            })
        );

        let mut wrong_class = segments[1].clone();
        wrong_class.classes[0].scrub_interval_h *= 2.0;
        assert!(matches!(
            acc.append_segment(&wrong_class),
            Err(SegmentError::ClassMismatch { .. })
        ));

        let mut stray_class = segments[1].clone();
        stray_class.classes.push(crate::format::LogClass {
            name: "stray".to_string(),
            scrub_interval_h: 4.0,
            cores: 4,
        });
        assert!(matches!(
            acc.append_segment(&stray_class),
            Err(SegmentError::ClassMismatch { .. })
        ));

        // Re-declaring an already-ingested DIMM is refused by id.
        assert!(matches!(
            acc.append_segment(&segments[0]),
            Err(SegmentError::DuplicateDimm { .. })
        ));
        assert_eq!(acc, snapshot, "failed appends must not mutate the log");

        // Segments whose ids sort before, between and after the ids the
        // log already holds.
        let mut renamed = log.clone();
        for (i, d) in renamed.dimms.iter_mut().enumerate() {
            d.id = match i / 10 {
                0 => format!("m{i:02}"),
                1 => format!("a{i:02}"),
                2 => format!("m{:02}x", i - 20),
                _ => format!("z{i:02}"),
            };
        }
        let parts = renamed.split_channels(10);
        let mut acc = parts[0].clone();
        for part in &parts[1..3] {
            acc.append_segment(part).expect("fresh ids");
        }
        let snapshot = acc.clone();
        let dup = |id: &str| Err(SegmentError::DuplicateDimm { id: id.to_string() });
        // The last id of a segment repeats the last id of a later one.
        let mut last = parts[3].clone();
        last.dimms[9].id = parts[2].dimms[9].id.clone();
        assert_eq!(acc.append_segment(&last), dup("m09x"));
        // Every ingested segment is refused at its first id...
        for part in &parts[..3] {
            assert_eq!(acc.append_segment(part), dup(&part.dimms[0].id));
        }
        // ...and a segment repeating one of its own ids at the repeat.
        let mut twice = parts[3].clone();
        twice.dimms[6].id = twice.dimms[2].id.clone();
        assert_eq!(acc.append_segment(&twice), dup("z32"));
        assert_eq!(acc, snapshot, "failed appends must not mutate the log");
        acc.append_segment(&parts[3])
            .expect("a valid append after refusals");
        assert_eq!(acc, renamed);
        assert_eq!(acc.to_text(), renamed.to_text());
    }
}
