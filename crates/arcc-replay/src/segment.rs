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

use arcc_fleet::ArrivalCsr;

use crate::format::{DimmTable, FaultLog, LogError};

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
        let dimms = self.dimms.len();
        let mut segments: Vec<FaultLog> = (0..dimms)
            .step_by(channels)
            .map(|first| FaultLog {
                years: self.years,
                classes: self.classes.clone(),
                dimms: self.dimms.slice(first..dimms.min(first + channels)),
                faults: Vec::new(),
            })
            .collect();
        // One pass in file order: each fault joins its DIMM's segment.
        for &(dimm, ev) in &self.faults {
            let dimm = dimm as usize;
            if dimm < dimms {
                segments[dimm / channels]
                    .faults
                    .push(((dimm % channels) as u32, ev));
            }
        }
        segments
    }

    /// The inventory half of [`FaultLog::append_segment`], for a segment
    /// parsed from `lines` text lines (as [`FaultLog::parse_counted`]
    /// returns them): validates and appends the segment's DIMMs, returns
    /// its populations and faults as `append_segment` does, and leaves
    /// [`FaultLog::faults`] as it is. On success it records the
    /// [`FaultLog::parse_recorded`] parse counters plus a
    /// `replay.ingest.segments` counter into `rec`. A refused segment
    /// records nothing and leaves the log unchanged.
    ///
    /// This is a long-lived service's per-segment step: a log that holds
    /// only an inventory stays so, and the segment's faults live only in
    /// the returned batch, for the arrival set the service extends.
    ///
    /// # Errors
    ///
    /// As for [`FaultLog::append_segment`].
    pub fn append_inventory_recorded(
        &mut self,
        segment: &FaultLog,
        lines: usize,
        rec: &mut dyn arcc_obs::Recorder,
    ) -> Result<(Vec<u32>, ArrivalCsr), SegmentError> {
        let appended = self.append_inventory(segment)?;
        rec.counter_add("replay.parse.lines", lines as u64);
        rec.counter_add("replay.parse.classes", segment.classes.len() as u64);
        rec.counter_add("replay.parse.dimms", segment.dimms.len() as u64);
        rec.counter_add("replay.parse.faults", segment.faults.len() as u64);
        rec.counter_add("replay.ingest.segments", 1);
        Ok(appended)
    }

    /// Appends a segment to the accumulated log: validates the segment
    /// contract (same horizon, identical class table, globally unique
    /// DIMM ids), appends the segment's DIMMs and then its faults,
    /// renumbered after the existing inventory. Returns what
    /// [`ReplayArrivals::extend`](arcc_fleet::ReplayArrivals::extend)
    /// takes — one population index per new channel, and the segment's
    /// faults grouped by channel in one [`ArrivalCsr`]. On error the log
    /// is unchanged.
    ///
    /// The id check costs O(s·log n) comparisons for an s-DIMM segment
    /// and an n-DIMM log: the segment's ids are sorted, then looked up
    /// in the log's persistent id index and merged into it. The
    /// segment's ids join the log's in one copy of their bytes.
    ///
    /// # Errors
    ///
    /// A [`SegmentError`] naming the violated contract clause. Of several
    /// repeated ids, the one named is the first in segment order that
    /// the log, or an earlier DIMM of the segment, already declares.
    pub fn append_segment(
        &mut self,
        segment: &FaultLog,
    ) -> Result<(Vec<u32>, ArrivalCsr), SegmentError> {
        let base = self.dimms.len() as u32;
        let appended = self.append_inventory(segment)?;
        self.faults
            .extend(segment.faults.iter().map(|(d, ev)| (d + base, *ev)));
        Ok(appended)
    }

    /// The inventory half of [`FaultLog::append_segment`]: everything it
    /// does but appending the faults.
    fn append_inventory(
        &mut self,
        segment: &FaultLog,
    ) -> Result<(Vec<u32>, ArrivalCsr), SegmentError> {
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
        if self.dimms.id_index.len() != self.dimms.len() {
            self.dimms.id_index = sorted_by_id(&self.dimms);
        }
        // The segment's ids in sorted order, each with the index slot it
        // would take. Slots only grow along the sorted ids, so each search
        // starts at the previous slot. A repeat within the segment sorts
        // right after its first declaration.
        let (log, ids) = (&self.dimms, &segment.dimms);
        let mut order = sorted_by_id(ids);
        let mut slots = Vec::with_capacity(order.len());
        let mut repeated: Option<u32> = None;
        let mut slot = 0;
        for (k, &d) in order.iter().enumerate() {
            let id = ids.id(d as usize);
            slot += log.id_index[slot..].partition_point(|&i| log.id(i as usize) < id);
            let known = log
                .id_index
                .get(slot)
                .is_some_and(|&i| log.id(i as usize) == id);
            let again = k > 0 && ids.id(order[k - 1] as usize) == id;
            if known || again {
                repeated = Some(repeated.map_or(d, |r| r.min(d)));
            }
            slots.push(slot);
        }
        if let Some(d) = repeated {
            let id = ids.id(d as usize).to_string();
            return Err(SegmentError::DuplicateDimm { id });
        }
        let batch = segment.arrival_batch();
        let base = self.dimms.len() as u32;
        for d in &mut order {
            *d += base;
        }
        insert_sorted(&mut self.dimms.id_index, &slots, &order);
        self.dimms.append(&segment.dimms);
        Ok((segment.dimms.classes().to_vec(), batch))
    }
}

/// Rows of `dimms`, sorted by id (ties by row).
fn sorted_by_id(dimms: &DimmTable) -> Vec<u32> {
    let mut order: Vec<u32> = (0..dimms.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| (dimms.id(a as usize), a).cmp(&(dimms.id(b as usize), b)));
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

    /// `dimms` with row `k`'s id replaced by `id`: ids are never edited
    /// in place, so this builds a new table.
    fn with_id(dimms: &DimmTable, k: usize, id: &str) -> DimmTable {
        (dimms.iter().enumerate())
            .map(|(i, (old, class))| (if i == k { id } else { old }, class))
            .collect()
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
        // ...and appending them in order rebuilds the original exactly,
        // in segments of 16 channels and of one.
        for (channels, count) in [(16, 3), (1, 40)] {
            let segments = log.split_channels(channels);
            assert_eq!(segments.len(), count);
            let mut rebuilt = segments[0].clone();
            for seg in &segments[1..] {
                rebuilt.append_segment(seg).expect("append");
            }
            assert_eq!(rebuilt, log);
            assert_eq!(rebuilt.to_text(), log.to_text());
        }
        // A one-channel segment holds exactly its DIMM's faults, in file
        // order.
        let one = log.split_channels(1);
        for (d, seg) in one.iter().enumerate() {
            let own: Vec<_> = log
                .faults
                .iter()
                .filter(|(dimm, _)| *dimm as usize == d)
                .map(|&(_, ev)| (0, ev))
                .collect();
            assert_eq!(seg.faults, own, "dimm {d}");
        }
    }

    #[test]
    fn recorded_inventory_append_counts_segments_and_rolls_back_on_error() {
        use arcc_obs::SnapshotRecorder;
        let log = sample_log();
        let segments = log.split_channels(16);
        let mut acc = segments[0].clone();
        acc.faults.clear();
        let mut arrivals = segments[0].arrivals().expect("arrivals");
        let mut rec = SnapshotRecorder::new();
        let append = |acc: &mut FaultLog, seg: &FaultLog, rec: &mut SnapshotRecorder| {
            let (seg, lines) = FaultLog::parse_counted(&seg.to_text()).expect("parses");
            acc.append_inventory_recorded(&seg, lines, rec)
        };
        for seg in &segments[1..] {
            let (populations, batch) = append(&mut acc, seg, &mut rec).expect("append");
            arrivals.extend(populations, batch).expect("extend");
        }
        // The log keeps the inventory, the arrival set every fault.
        assert_eq!(acc.dimms, log.dimms);
        assert!(acc.faults.is_empty());
        assert_eq!(arrivals, log.arrivals().expect("full arrivals"));
        let snap = rec.snapshot();
        assert_eq!(snap.counter("replay.ingest.segments"), 2);
        assert_eq!(
            snap.counter("replay.parse.dimms"),
            (log.dimms.len() - segments[0].dimms.len()) as u64
        );
        let faults = segments[1..].iter().map(|s| s.faults.len() as u64).sum();
        assert_eq!(snap.counter("replay.parse.faults"), faults);
        // A refused segment (duplicate dimms) records nothing.
        let before = rec.snapshot().clone();
        assert!(append(&mut acc, &segments[0], &mut rec).is_err());
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
        renamed.dimms = (log.dimms.iter().enumerate())
            .map(|(i, (_, class))| {
                let id = match i / 10 {
                    0 => format!("m{i:02}"),
                    1 => format!("a{i:02}"),
                    2 => format!("m{:02}x", i - 20),
                    _ => format!("z{i:02}"),
                };
                (id, class)
            })
            .collect();
        let parts = renamed.split_channels(10);
        let mut acc = parts[0].clone();
        for part in &parts[1..3] {
            acc.append_segment(part).expect("fresh ids");
        }
        let snapshot = acc.clone();
        let dup = |id: &str| Err(SegmentError::DuplicateDimm { id: id.to_string() });
        // The last id of a segment repeats the last id of a later one.
        let mut last = parts[3].clone();
        last.dimms = with_id(&last.dimms, 9, parts[2].dimms.id(9));
        assert_eq!(acc.append_segment(&last), dup("m09x"));
        // Every ingested segment is refused at its first id...
        for part in &parts[..3] {
            assert_eq!(acc.append_segment(part), dup(part.dimms.id(0)));
        }
        // ...and a segment repeating one of its own ids at the repeat.
        let mut twice = parts[3].clone();
        twice.dimms = with_id(&twice.dimms, 6, twice.dimms.id(2));
        assert_eq!(acc.append_segment(&twice), dup("z32"));
        assert_eq!(acc, snapshot, "failed appends must not mutate the log");
        acc.append_segment(&parts[3])
            .expect("a valid append after refusals");
        assert_eq!(acc, renamed);
        assert_eq!(acc.to_text(), renamed.to_text());
    }
}
