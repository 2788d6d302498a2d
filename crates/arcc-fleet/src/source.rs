//! Arrival sources: where a shard's fault arrivals come from.
//!
//! The engine supports two interchangeable sources behind the same
//! event queue, stats, and checkpoint machinery:
//!
//! * **synthetic** — the default: arrivals are drawn lazily, one
//!   exponential gap at a time, from each channel's own RNG stream (the
//!   PR 3/4 engine). Nothing in this module is involved.
//! * **replay** — arrivals were *observed* (a parsed fleet fault log, see
//!   the `arcc-replay` crate) and are replayed through the event queue in
//!   `(time, seq)` order, while scrub detections, upgrades, and operator
//!   policy are still simulated. A [`ReplayArrivals`] carries the
//!   observed per-channel arrival streams plus the inventory's
//!   population assignment, which *overrides* the spec's weight-hash
//!   assignment (the log knows which DIMM is which; the hash is for
//!   synthetic fleets).
//!
//! Replay semantics under repair policies: the log records what the
//! hardware emitted, so a replaced DIMM inherits the channel's remaining
//! observed arrivals (the standard field-trace approximation), while a
//! *retired* channel (spare pool dry) delivers none — retirement drops
//! the rest of its stream. Synthetic mode instead redraws arrivals for
//! the fresh DIMM; the two therefore agree exactly under
//! [`OperatorPolicy::None`](crate::OperatorPolicy::None) and
//! statistically under repair policies.

use std::fmt;

use arcc_core::splitmix64;
use arcc_faults::{DimSel, FaultEvent};

use crate::spec::FleetSpec;

/// Domain constant of the rolling arrival fingerprint, version 2. Any
/// change to how an arrival set is folded ([`fold_channel`]) must change
/// this constant and the compat pin in `tests/compat.rs`, so checkpoints
/// stamped under the old fold are refused rather than silently matched.
const FINGERPRINT_V2: u64 = 0xA2CC_F1A6_0000_0002;

/// Errors constructing or applying a replay arrival set.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// Constructor inputs disagree on the channel count.
    LengthMismatch {
        /// Length of the population vector.
        populations: usize,
        /// Length of the per-channel event list.
        channels: usize,
    },
    /// A channel's arrivals are not in non-decreasing time order.
    UnsortedArrivals {
        /// Offending channel id.
        channel: u64,
    },
    /// An arrival time is negative or not finite.
    BadTime {
        /// Offending channel id.
        channel: u64,
        /// The offending timestamp.
        time_h: f64,
    },
    /// The arrival set covers a different number of channels than the
    /// spec simulates.
    ChannelCountMismatch {
        /// Channels in the spec.
        spec: u64,
        /// Channels in the arrival set.
        arrivals: u64,
    },
    /// A channel's population index is outside the spec's population mix.
    PopulationOutOfRange {
        /// Offending channel id.
        channel: u64,
        /// The out-of-range population index.
        population: u32,
        /// Populations in the spec.
        populations: usize,
    },
    /// The arrival set would outgrow the CSR index range (`u32::MAX`
    /// events), which the compact offsets cannot address.
    TooManyEvents {
        /// Events the set would hold.
        events: u64,
    },
    /// A checkpoint being resumed belongs to another run: a different
    /// spec, arrival set, or arrival source (synthetic vs replay).
    CheckpointMismatch {
        /// Fingerprint recorded in the checkpoint.
        expected: u64,
        /// Fingerprint of the run being resumed.
        actual: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::LengthMismatch {
                populations,
                channels,
            } => write!(
                f,
                "population vector covers {populations} channels but {channels} arrival \
                 streams were given"
            ),
            ReplayError::UnsortedArrivals { channel } => {
                write!(f, "channel {channel}: arrivals are out of time order")
            }
            ReplayError::BadTime { channel, time_h } => {
                write!(f, "channel {channel}: bad arrival time {time_h}")
            }
            ReplayError::ChannelCountMismatch { spec, arrivals } => write!(
                f,
                "spec simulates {spec} channels but the arrival set covers {arrivals}"
            ),
            ReplayError::PopulationOutOfRange {
                channel,
                population,
                populations,
            } => write!(
                f,
                "channel {channel}: population index {population} out of range \
                 (spec has {populations})"
            ),
            ReplayError::TooManyEvents { events } => write!(
                f,
                "arrival set would hold {events} events, over the u32::MAX CSR cap"
            ),
            ReplayError::CheckpointMismatch { expected, actual } => write!(
                f,
                "checkpoint fingerprint {expected:#x} does not match the run {actual:#x}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Observed fault arrivals for a whole fleet, in the compact CSR layout
/// the shard engine consumes: one population index per channel, plus each
/// channel's time-ordered arrival slice.
///
/// Shards index this read-only structure by global channel range, so one
/// `ReplayArrivals` is shared by every worker of a replay run.
///
/// The set also carries its fingerprint as a rolling state, folded once
/// per channel as channels are added, so fingerprinting any prefix and
/// validating against a spec cost O(1) however long the history grows.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayArrivals {
    /// Per-channel population index (the inventory's assignment; replay
    /// mode uses this instead of the spec's weight hash).
    populations: Vec<u32>,
    /// CSR offsets into `events`, length `channels + 1`.
    offsets: Vec<u32>,
    /// Arrival events grouped by channel, time-ordered within a channel.
    events: Vec<FaultEvent>,
    /// Rolling fingerprint state at every channel boundary, length
    /// `channels + 1`: `rolling[k]` has folded channels `0..k`.
    rolling: Vec<u64>,
    /// The largest population index (`None` for an empty set).
    max_population: Option<u32>,
}

/// Folds one channel into a rolling fingerprint state: its population
/// index, its event count, then each event's time, mode and shape.
fn fold_channel(h: u64, population: u32, stream: &[FaultEvent]) -> u64 {
    let mix = |h: u64, x: u64| splitmix64(h ^ x);
    let sel = |s: &DimSel| match s {
        DimSel::All => 1u64 << 62,
        DimSel::Half(k) => (1u64 << 61) | k,
        DimSel::One(k) => *k,
    };
    let mut h = mix(mix(h, u64::from(population)), stream.len() as u64);
    for ev in stream {
        h = mix(h, ev.time_h.to_bits());
        // `FaultMode` declares its variants in `FaultMode::ALL` order.
        let mode = ev.mode as u64;
        h = mix(
            h,
            mode | (u64::from(ev.transient) << 8) | (u64::from(ev.device_pos) << 16),
        );
        h = mix(h, ev.rank.map_or(0, |r| u64::from(r) + 1));
        h = mix(
            h,
            sel(&ev.set.banks)
                ^ sel(&ev.set.rows).rotate_left(21)
                ^ sel(&ev.set.cols).rotate_left(42),
        );
    }
    h
}

/// A batch of channels' arrivals in one flat CSR layout: channel `c`'s
/// events are `events[ends[c - 1]..ends[c]]` (from 0 for channel 0), in
/// the order they were added. This is what [`ReplayArrivals::extend`]
/// folds into the set; building one costs two allocations however many
/// channels it covers. Time order is checked by the set, not here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArrivalCsr {
    /// Where each channel's events end in `events`.
    ends: Vec<usize>,
    /// Every event, grouped by channel.
    events: Vec<FaultEvent>,
}

impl ArrivalCsr {
    /// Groups `(channel, event)` pairs over `channels` channels by a
    /// counting sort: one pass counts each channel's events, a second
    /// places them, so every channel keeps its events in `tagged` order.
    ///
    /// # Panics
    ///
    /// When a channel index is `channels` or more.
    pub fn group(channels: usize, tagged: &[(u32, FaultEvent)]) -> Self {
        let mut ends = vec![0usize; channels];
        for &(c, _) in tagged {
            ends[c as usize] += 1;
        }
        // Each channel's start, then, as its events land, its end.
        let mut start = 0;
        for slot in &mut ends {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut events = match tagged.first() {
            Some(&(_, ev)) => vec![ev; tagged.len()],
            None => Vec::new(),
        };
        for &(c, ev) in tagged {
            let slot = &mut ends[c as usize];
            events[*slot] = ev;
            *slot += 1;
        }
        Self { ends, events }
    }

    /// One event list per channel, laid end to end.
    pub fn from_streams(per_channel: Vec<Vec<FaultEvent>>) -> Self {
        let total = per_channel.iter().map(Vec::len).sum();
        let mut events = Vec::with_capacity(total);
        let ends = per_channel
            .into_iter()
            .map(|stream| {
                events.extend(stream);
                events.len()
            })
            .collect();
        Self { ends, events }
    }

    /// Channels the batch covers.
    fn channels(&self) -> usize {
        self.ends.len()
    }

    /// `channel`'s events, in the order they were added.
    fn stream(&self, channel: usize) -> &[FaultEvent] {
        let start = match channel {
            0 => 0,
            c => self.ends[c - 1],
        };
        &self.events[start..self.ends[channel]]
    }
}

/// Checks one channel's stream: finite, non-negative, non-decreasing
/// times.
fn check_stream(channel: usize, stream: &[FaultEvent]) -> Result<(), ReplayError> {
    let mut last = 0.0f64;
    for ev in stream {
        if !ev.time_h.is_finite() || ev.time_h < 0.0 {
            return Err(ReplayError::BadTime {
                channel: channel as u64,
                time_h: ev.time_h,
            });
        }
        if ev.time_h < last {
            return Err(ReplayError::UnsortedArrivals {
                channel: channel as u64,
            });
        }
        last = ev.time_h;
    }
    Ok(())
}

/// Appends `tail` to `head`, taking over `tail`'s buffer when `head` is
/// empty.
fn append<T: Copy>(head: &mut Vec<T>, tail: Vec<T>) {
    if head.is_empty() {
        *head = tail;
    } else {
        head.extend_from_slice(&tail);
    }
}

impl Default for ReplayArrivals {
    /// The set covering zero channels, ready to [extend](Self::extend).
    fn default() -> Self {
        Self {
            populations: Vec::new(),
            offsets: vec![0],
            events: Vec::new(),
            rolling: vec![splitmix64(FINGERPRINT_V2)],
            max_population: None,
        }
    }
}

impl ReplayArrivals {
    /// Builds the arrival set from one event list per channel
    /// (`populations[c]` is channel `c`'s population index).
    ///
    /// # Errors
    ///
    /// [`ReplayError::LengthMismatch`] when the two vectors disagree,
    /// [`ReplayError::UnsortedArrivals`] / [`ReplayError::BadTime`] when a
    /// channel's stream is out of order or carries a non-finite or
    /// negative timestamp, [`ReplayError::TooManyEvents`] past the
    /// `u32::MAX`-event CSR cap.
    pub fn new(
        populations: Vec<u32>,
        per_channel: Vec<Vec<FaultEvent>>,
    ) -> Result<Self, ReplayError> {
        let mut set = Self::default();
        set.extend(populations, ArrivalCsr::from_streams(per_channel))?;
        Ok(set)
    }

    /// Appends a batch of channels to the set: the new channels are
    /// numbered after the existing ones (`populations[c]` is batch channel
    /// `c`'s population index), so an extended set is a strict CSR
    /// superset of the old one and every
    /// [prefix fingerprint](Self::fingerprint_prefix) over the old
    /// channels is unchanged. This is the ingestion primitive of the
    /// digital-twin service: new fault-log segments arrive as batches and
    /// the accumulated set only ever grows. The batch is checked, then
    /// folded straight into the set's columns.
    ///
    /// # Errors
    ///
    /// As for [`Self::new`], applied to the batch alone (channel ids in
    /// errors count from the batch's first channel) — except
    /// [`ReplayError::TooManyEvents`], which also caps the *combined*
    /// set. Every error leaves the set unchanged, so a long-lived
    /// service can refuse a segment and keep serving.
    pub fn extend(&mut self, populations: Vec<u32>, batch: ArrivalCsr) -> Result<(), ReplayError> {
        if populations.len() != batch.channels() {
            return Err(ReplayError::LengthMismatch {
                populations: populations.len(),
                channels: batch.channels(),
            });
        }
        let added = batch.events.len() as u64;
        if u32::try_from(added).is_err() {
            return Err(ReplayError::TooManyEvents { events: added });
        }
        for c in 0..batch.channels() {
            check_stream(c, batch.stream(c))?;
        }
        let combined = self.total_events() + added;
        if u32::try_from(combined).is_err() {
            return Err(ReplayError::TooManyEvents { events: combined });
        }
        let base = self.events.len();
        let mut h = self.rolling_state();
        self.rolling.reserve(populations.len());
        for (c, &population) in populations.iter().enumerate() {
            h = fold_channel(h, population, batch.stream(c));
            self.rolling.push(h);
        }
        self.offsets
            .extend(batch.ends.iter().map(|&end| (base + end) as u32));
        append(&mut self.events, batch.events);
        self.max_population = self.max_population.max(populations.iter().copied().max());
        append(&mut self.populations, populations);
        Ok(())
    }

    /// The rolling fingerprint state after the last channel.
    fn rolling_state(&self) -> u64 {
        self.rolling[self.populations.len()]
    }

    /// Channels the arrival set covers.
    pub fn channels(&self) -> u64 {
        self.populations.len() as u64
    }

    /// Total observed arrivals.
    pub fn total_events(&self) -> u64 {
        self.events.len() as u64
    }

    /// The inventory's population index for `channel`.
    #[inline]
    pub fn population_of(&self, channel: u64) -> usize {
        self.populations[channel as usize] as usize
    }

    /// `channel`'s arrival slice bounds in [`Self::events`].
    #[inline]
    pub(crate) fn range_of(&self, channel: u64) -> (u32, u32) {
        let c = channel as usize;
        (self.offsets[c], self.offsets[c + 1])
    }

    /// The flat, channel-grouped event array slots index into.
    #[inline]
    pub(crate) fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Observed arrivals on global channels `[first, first + channels)`.
    pub fn events_in_range(&self, first: u64, channels: u64) -> u64 {
        let lo = self.offsets[first as usize] as u64;
        let hi = self.offsets[(first + channels) as usize] as u64;
        hi - lo
    }

    /// Validates the arrival set against the spec it is about to replay
    /// under: channel counts must match and every population index must
    /// name a spec population. (Arrivals at or past the spec horizon are
    /// legal — they simply never fire, so a long log truncates cleanly
    /// under a shorter-horizon spec.) O(1) when the set is valid; only
    /// the error path scans for the first offending channel.
    pub fn validate_for(&self, spec: &FleetSpec) -> Result<(), ReplayError> {
        if self.channels() != spec.channels {
            return Err(ReplayError::ChannelCountMismatch {
                spec: spec.channels,
                arrivals: self.channels(),
            });
        }
        let populations = spec.populations.len();
        if self
            .max_population
            .is_some_and(|p| p as usize >= populations)
        {
            let mut channels = self.populations.iter().enumerate();
            if let Some((c, &p)) = channels.find(|(_, &p)| p as usize >= populations) {
                return Err(ReplayError::PopulationOutOfRange {
                    channel: c as u64,
                    population: p,
                    populations,
                });
            }
        }
        Ok(())
    }

    /// Order-sensitive fingerprint of the whole arrival set (population
    /// assignment and every event's time/mode/shape), mixed into replay
    /// checkpoints so a checkpoint from one log never resumes against
    /// another.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_prefix(self.channels())
    }

    /// [`Self::fingerprint`] restricted to the first `channels` channels
    /// and their events, in O(1): it finishes the rolling state stored at
    /// that channel boundary. Because [`Self::extend`] only appends, the
    /// prefix fingerprint of the channels an older, smaller set covered
    /// is unchanged after extension — so a checkpoint stamped with a
    /// prefix fingerprint can recognise its own prefix inside a grown
    /// arrival set. `fingerprint_prefix(channels())` equals
    /// [`Self::fingerprint`].
    ///
    /// # Panics
    ///
    /// When `channels` exceeds [`Self::channels`].
    pub fn fingerprint_prefix(&self, channels: u64) -> u64 {
        splitmix64(self.rolling[channels as usize] ^ channels)
    }

    /// The fingerprint a replay run's checkpoints carry: the spec
    /// fingerprint and the arrival-set fingerprint mixed, so resuming
    /// demands *both* match.
    pub fn run_fingerprint(&self, spec: &FleetSpec) -> u64 {
        splitmix64(spec.fingerprint() ^ self.fingerprint())
    }

    /// The run fingerprint of the first `channels` channels under the
    /// prefix of `spec` covering exactly those channels: what
    /// [`Self::run_fingerprint`] would return for the truncated pair.
    /// Checkpoints of an incrementally extended replay are stamped with
    /// this, so they remain recognisable (and refusable) as the arrival
    /// set grows underneath them.
    ///
    /// # Panics
    ///
    /// When `channels` exceeds [`Self::channels`].
    pub fn run_fingerprint_prefix(&self, spec: &FleetSpec, channels: u64) -> u64 {
        let mut prefix = spec.clone();
        prefix.channels = channels;
        splitmix64(prefix.fingerprint() ^ self.fingerprint_prefix(channels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcc_faults::montecarlo::FaultSampler;
    use arcc_faults::{FaultGeometry, FitRates};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ev(t: f64) -> FaultEvent {
        let s = FaultSampler::new(FaultGeometry::paper_channel(), FitRates::sridharan_sc12());
        let mut rng = StdRng::seed_from_u64(t.to_bits());
        s.draw_fault(&mut rng, t)
    }

    #[test]
    fn csr_layout_round_trips_per_channel_streams() {
        let a = ReplayArrivals::new(
            vec![0, 1, 0],
            vec![vec![ev(1.0), ev(5.0)], vec![], vec![ev(2.5)]],
        )
        .expect("valid");
        assert_eq!(a.channels(), 3);
        assert_eq!(a.total_events(), 3);
        assert_eq!(a.range_of(0), (0, 2));
        assert_eq!(a.range_of(1), (2, 2));
        assert_eq!(a.range_of(2), (2, 3));
        assert_eq!(a.population_of(1), 1);
        assert_eq!(a.events_in_range(0, 2), 2);
        assert_eq!(a.events_in_range(1, 2), 1);
    }

    #[test]
    fn constructor_rejects_malformed_streams() {
        assert_eq!(
            ReplayArrivals::new(vec![0], vec![]),
            Err(ReplayError::LengthMismatch {
                populations: 1,
                channels: 0
            })
        );
        assert_eq!(
            ReplayArrivals::new(vec![0], vec![vec![ev(5.0), ev(1.0)]]),
            Err(ReplayError::UnsortedArrivals { channel: 0 })
        );
        let mut bad = ev(1.0);
        bad.time_h = f64::NAN;
        assert!(matches!(
            ReplayArrivals::new(vec![0], vec![vec![bad]]),
            Err(ReplayError::BadTime { channel: 0, .. })
        ));
        bad.time_h = -1.0;
        assert!(matches!(
            ReplayArrivals::new(vec![0], vec![vec![bad]]),
            Err(ReplayError::BadTime { channel: 0, .. })
        ));
        // Equal timestamps are legal (ties replay in log order).
        assert!(ReplayArrivals::new(vec![0], vec![vec![ev(3.0), ev(3.0)]]).is_ok());
    }

    #[test]
    fn spec_validation_checks_channels_and_populations() {
        let a = ReplayArrivals::new(vec![0, 2], vec![vec![], vec![]]).unwrap();
        let spec = FleetSpec::baseline(2);
        assert_eq!(
            a.validate_for(&spec),
            Err(ReplayError::PopulationOutOfRange {
                channel: 1,
                population: 2,
                populations: 1
            })
        );
        let spec3 = FleetSpec::baseline(3);
        assert_eq!(
            a.validate_for(&spec3),
            Err(ReplayError::ChannelCountMismatch {
                spec: 3,
                arrivals: 2
            })
        );
        let ok = ReplayArrivals::new(vec![0, 0], vec![vec![], vec![]]).unwrap();
        assert_eq!(ok.validate_for(&spec), Ok(()));
        // The largest population index survives extension, and the error
        // names the first offending channel of the grown set.
        let mut grown = ok.clone();
        grown
            .extend(
                vec![0, 3, 2],
                ArrivalCsr::from_streams(vec![vec![], vec![], vec![]]),
            )
            .unwrap();
        let spec2 = FleetSpec::baseline(5).populations(vec![
            crate::spec::DimmPopulation::paper("a"),
            crate::spec::DimmPopulation::paper("b"),
        ]);
        assert_eq!(
            grown.validate_for(&spec2),
            Err(ReplayError::PopulationOutOfRange {
                channel: 3,
                population: 3,
                populations: 2
            })
        );
        let empty = ReplayArrivals::new(vec![], vec![]).unwrap();
        assert_eq!(empty.validate_for(&FleetSpec::baseline(0)), Ok(()));
    }

    #[test]
    fn extend_appends_slices_and_preserves_prefix_fingerprints() {
        let mut grown = ReplayArrivals::new(vec![0, 1], vec![vec![ev(1.0)], vec![]]).unwrap();
        let before = grown.clone();
        grown
            .extend(
                vec![0, 1],
                ArrivalCsr::from_streams(vec![vec![ev(2.0), ev(3.0)], vec![ev(0.5)]]),
            )
            .expect("extend");
        // The grown set is indistinguishable from building it in one shot.
        let oneshot = ReplayArrivals::new(
            vec![0, 1, 0, 1],
            vec![vec![ev(1.0)], vec![], vec![ev(2.0), ev(3.0)], vec![ev(0.5)]],
        )
        .unwrap();
        assert_eq!(grown, oneshot);
        assert_eq!(grown.channels(), 4);
        assert_eq!(grown.total_events(), 4);
        assert_eq!(grown.range_of(2), (1, 3));
        assert_eq!(grown.range_of(3), (3, 4));
        // Prefix fingerprints over the old channels survive the append...
        assert_eq!(grown.fingerprint_prefix(2), before.fingerprint());
        assert_eq!(grown.fingerprint_prefix(0), before.fingerprint_prefix(0));
        // ...the full fingerprint matches the one-shot build...
        assert_eq!(grown.fingerprint(), oneshot.fingerprint());
        assert_eq!(grown.fingerprint_prefix(4), grown.fingerprint());
        // ...and the prefix run fingerprint equals the truncated pair's.
        let spec4 = FleetSpec::baseline(4).populations(vec![
            crate::spec::DimmPopulation::paper("a"),
            crate::spec::DimmPopulation::paper("b"),
        ]);
        let mut spec2 = spec4.clone();
        spec2.channels = 2;
        assert_eq!(
            grown.run_fingerprint_prefix(&spec4, 2),
            before.run_fingerprint(&spec2)
        );
        assert_eq!(
            grown.run_fingerprint_prefix(&spec4, 4),
            grown.run_fingerprint(&spec4)
        );
        // Malformed segments are refused without mutating the set.
        let snapshot = grown.clone();
        assert_eq!(
            grown.extend(
                vec![0],
                ArrivalCsr::from_streams(vec![vec![ev(5.0), ev(4.0)]])
            ),
            Err(ReplayError::UnsortedArrivals { channel: 0 })
        );
        assert_eq!(
            grown.extend(vec![0, 1], ArrivalCsr::from_streams(vec![vec![]])),
            Err(ReplayError::LengthMismatch {
                populations: 2,
                channels: 1
            })
        );
        assert_eq!(grown, snapshot);
    }

    #[test]
    fn grouping_keeps_each_channels_events_in_tagged_order() {
        let (a, b, c, d) = (ev(1.0), ev(2.0), ev(3.0), ev(4.0));
        // Channel 2's events arrive interleaved with channel 0's, and
        // channel 1 has none.
        let tagged = [(2, a), (0, b), (2, c), (0, d), (3, a)];
        let csr = ArrivalCsr::group(4, &tagged);
        assert_eq!(csr.channels(), 4);
        assert_eq!(csr.stream(0), &[b, d]);
        assert_eq!(csr.stream(1), &[]);
        assert_eq!(csr.stream(2), &[a, c]);
        assert_eq!(csr.stream(3), &[a]);
        assert_eq!(
            csr,
            ArrivalCsr::from_streams(vec![vec![b, d], vec![], vec![a, c], vec![a]])
        );
        assert_eq!(
            ArrivalCsr::group(2, &[]),
            ArrivalCsr::from_streams(vec![vec![], vec![]])
        );
        assert_eq!(ArrivalCsr::group(0, &[]), ArrivalCsr::default());
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let base = ReplayArrivals::new(vec![0, 0], vec![vec![ev(1.0)], vec![]]).unwrap();
        let fp = base.fingerprint();
        assert_eq!(
            fp,
            ReplayArrivals::new(vec![0, 0], vec![vec![ev(1.0)], vec![]])
                .unwrap()
                .fingerprint()
        );
        // Population reassignment, moved events, and changed times all
        // change the fingerprint.
        let moved = ReplayArrivals::new(vec![0, 0], vec![vec![], vec![ev(1.0)]]).unwrap();
        assert_ne!(fp, moved.fingerprint());
        let repop = ReplayArrivals::new(vec![0, 1], vec![vec![ev(1.0)], vec![]]).unwrap();
        assert_ne!(fp, repop.fingerprint());
        let retimed = ReplayArrivals::new(vec![0, 0], vec![vec![ev(1.25)], vec![]]).unwrap();
        assert_ne!(fp, retimed.fingerprint());
        // Moving one event across a channel boundary keeps the flat event
        // order but changes the per-channel counts, in either direction.
        let three = |streams: Vec<Vec<FaultEvent>>| {
            ReplayArrivals::new(vec![0, 1, 0], streams)
                .unwrap()
                .fingerprint()
        };
        let (a, b, c) = (ev(1.0), ev(2.0), ev(3.0));
        let mid = three(vec![vec![a], vec![b], vec![c]]);
        assert_ne!(mid, three(vec![vec![a, b], vec![], vec![c]]));
        assert_ne!(mid, three(vec![vec![a], vec![], vec![b, c]]));
        // Changing any one population index changes it too.
        for channel in 0..3 {
            let mut populations = vec![0, 1, 0];
            populations[channel] = 2;
            let repop = ReplayArrivals::new(populations, vec![vec![a], vec![b], vec![c]])
                .unwrap()
                .fingerprint();
            assert_ne!(mid, repop, "population of channel {channel}");
        }
        // The run fingerprint also pins the spec.
        let spec = FleetSpec::baseline(2);
        assert_ne!(
            base.run_fingerprint(&spec),
            base.run_fingerprint(&spec.clone().seed(9))
        );
        assert_ne!(base.run_fingerprint(&spec), spec.fingerprint());
    }
}
