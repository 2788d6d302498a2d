//! Schedule-invariant metric values and the snapshot they live in.
//!
//! Every value is an integer and every merge is an associative,
//! commutative fold — counters add, gauges take the maximum, and
//! log-bucketed histograms add element-wise — so folding per-shard
//! snapshots in *any* grouping yields byte-identical results. This is
//! the same contract `FleetStats::merge` carries, and it is what lets
//! parallel and sequential runs of the deterministic crates expose
//! identical metrics.

use std::collections::BTreeMap;

/// Number of log2 buckets in a [`Histogram`]: bucket `i` (for `i >= 1`)
/// counts values whose bit length is `i`, i.e. `2^(i-1) <= v < 2^i`;
/// bucket `0` counts zeros. Bucket 64 holds values with the top bit set.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed integer histogram.
///
/// Observations land in the bucket indexed by their bit length, so the
/// bucket array, total count, and (saturating) sum all merge by plain
/// element-wise addition — exactly associative, schedule-invariant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in: `0` for zero, otherwise the
    /// value's bit length (always `< HISTOGRAM_BUCKETS`).
    fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive upper bound of a bucket (`2^i - 1`), saturating at
    /// `u64::MAX` for the top bucket.
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Element-wise addition of another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The per-bucket counts: bucket `i` holds the values of bit length
    /// `i`, up to [`Histogram::bucket_upper_bound`].
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

/// One metric value: the kind decides how two values of the same name
/// merge (add / max / element-wise add).
///
/// The histogram variant carries its full bucket array inline rather
/// than boxing it: values must stay `Copy` so snapshot merges are
/// plain value folds, and a snapshot holds at most a few hundred
/// entries — size per entry is not a constraint worth an allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricValue {
    /// A monotonically accumulated count; merges by saturating addition.
    Counter(u64),
    /// A high-water mark; merges by maximum.
    Gauge(u64),
    /// A log2-bucketed distribution; merges element-wise.
    Histogram(Histogram),
}

impl MetricValue {
    /// Kind rank used when two snapshots disagree about a name's kind:
    /// the higher kind wins outright and lower-kind operands are
    /// discarded, which keeps the merge associative (the result is
    /// always the fold of all max-kind operands, independent of
    /// grouping).
    fn kind_rank(&self) -> u8 {
        match self {
            MetricValue::Counter(_) => 0,
            MetricValue::Gauge(_) => 1,
            MetricValue::Histogram(_) => 2,
        }
    }

    /// Merges another value into this one under the kind rules above.
    pub fn merge(&mut self, other: &MetricValue) {
        match (&mut *self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a = a.saturating_add(*b),
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            (a, b) => {
                if b.kind_rank() > a.kind_rank() {
                    *a = *b;
                }
            }
        }
    }

    /// The Prometheus exposition type name for this value.
    pub fn kind_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// An ordered map of metric name → value with an associative,
/// commutative [`MetricsSnapshot::merge`]: folding per-shard snapshots
/// in any grouping or order produces byte-identical results.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.values.get_mut(name) {
            Some(v) => v.merge(&MetricValue::Counter(delta)),
            None => {
                self.values
                    .insert(name.to_string(), MetricValue::Counter(delta));
            }
        }
    }

    /// Raises the named gauge to `value` if it is below it.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        match self.values.get_mut(name) {
            Some(v) => v.merge(&MetricValue::Gauge(value)),
            None => {
                self.values
                    .insert(name.to_string(), MetricValue::Gauge(value));
            }
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.values.get_mut(name) {
            Some(MetricValue::Histogram(h)) => h.observe(value),
            Some(v) => {
                let mut h = Histogram::new();
                h.observe(value);
                v.merge(&MetricValue::Histogram(h));
            }
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                self.values
                    .insert(name.to_string(), MetricValue::Histogram(h));
            }
        }
    }

    /// Merges another snapshot into this one, name by name.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.values {
            match self.values.get_mut(name) {
                Some(v) => v.merge(value),
                None => {
                    self.values.insert(name.clone(), *value);
                }
            }
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// The named counter's value, or zero when absent or another kind.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct metric names.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// The recording surface threaded through instrumented code paths.
///
/// Implementations receive only deterministic quantities from the
/// deterministic crates; all methods take `&mut self` so recording needs
/// no interior mutability and stays inside the parallelism lint.
pub trait Recorder {
    /// Adds `delta` to the named counter.
    fn counter_add(&mut self, name: &str, delta: u64);
    /// Raises the named high-water-mark gauge to `value`.
    fn gauge_max(&mut self, name: &str, value: u64);
    /// Records one histogram observation.
    fn observe(&mut self, name: &str, value: u64);
}

/// The default recorder: every call is a no-op the optimiser erases, so
/// uninstrumented runs pay nothing (the committed `BENCH_*` gates pin
/// this).
#[derive(Clone, Copy, Default, Debug)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&mut self, _name: &str, _delta: u64) {}
    fn gauge_max(&mut self, _name: &str, _value: u64) {}
    fn observe(&mut self, _name: &str, _value: u64) {}
}

/// A recorder that accumulates into an owned [`MetricsSnapshot`].
#[derive(Clone, Default, Debug)]
pub struct SnapshotRecorder {
    snapshot: MetricsSnapshot,
}

impl SnapshotRecorder {
    /// A recorder over an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated snapshot.
    pub fn snapshot(&self) -> &MetricsSnapshot {
        &self.snapshot
    }

    /// Consumes the recorder, returning the accumulated snapshot.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        self.snapshot
    }
}

impl Recorder for SnapshotRecorder {
    fn counter_add(&mut self, name: &str, delta: u64) {
        self.snapshot.counter_add(name, delta);
    }

    fn gauge_max(&mut self, name: &str, value: u64) {
        self.snapshot.gauge_max(name, value);
    }

    fn observe(&mut self, name: &str, value: u64) {
        self.snapshot.observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = Histogram::new();
        a.observe(1);
        a.observe(100);
        let mut b = Histogram::new();
        b.observe(0);
        b.observe(100);
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(ab.count(), 4);
        assert_eq!(ab.sum(), 201);
        assert_eq!(ab.buckets()[Histogram::bucket_index(100)], 2);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn snapshot_merge_matches_direct_recording() {
        let mut left = MetricsSnapshot::new();
        left.counter_add("c", 3);
        left.gauge_max("g", 10);
        left.observe("h", 7);
        let mut right = MetricsSnapshot::new();
        right.counter_add("c", 4);
        right.gauge_max("g", 6);
        right.observe("h", 9);

        let mut merged = left.clone();
        merged.merge(&right);

        let mut direct = MetricsSnapshot::new();
        direct.counter_add("c", 7);
        direct.gauge_max("g", 10);
        direct.observe("h", 7);
        direct.observe("h", 9);
        assert_eq!(merged, direct);
        assert_eq!(merged.counter("c"), 7);
        assert_eq!(merged.counter("g"), 0);
        assert_eq!(merged.counter("missing"), 0);
    }

    #[test]
    fn kind_mismatch_resolves_to_the_higher_kind() {
        // counter < gauge < histogram; the winner is independent of
        // merge grouping.
        let c = || {
            let mut s = MetricsSnapshot::new();
            s.counter_add("x", 1);
            s
        };
        let g = || {
            let mut s = MetricsSnapshot::new();
            s.gauge_max("x", 5);
            s
        };
        let mut left = c();
        left.merge(&g());
        left.merge(&c());
        let mut right = g();
        {
            let mut tail = c();
            tail.merge(&c());
            right.merge(&tail);
        }
        let mut expect = MetricsSnapshot::new();
        expect.gauge_max("x", 5);
        // (c⊕g)⊕c == g⊕(c⊕c) == g — but note the operand order differs,
        // so compare each against the gauge directly.
        assert_eq!(left, expect);
        assert_eq!(right, expect);
    }

    #[test]
    fn recorders_share_the_snapshot_contract() {
        let mut noop = NoopRecorder;
        noop.counter_add("c", 1);
        noop.gauge_max("g", 1);
        noop.observe("h", 1);

        let mut rec = SnapshotRecorder::new();
        rec.counter_add("c", 2);
        rec.observe("h", 3);
        rec.gauge_max("g", 4);
        assert_eq!(rec.snapshot().len(), 3);
        assert!(!rec.snapshot().is_empty());
        let snap = rec.into_snapshot();
        assert_eq!(snap.get("c"), Some(&MetricValue::Counter(2)));
        assert_eq!(snap.get("g"), Some(&MetricValue::Gauge(4)));
        assert_eq!(snap.iter().count(), 3);
    }

    #[test]
    fn observe_onto_a_counter_promotes_to_histogram() {
        let mut s = MetricsSnapshot::new();
        s.counter_add("x", 9);
        s.observe("x", 2);
        match s.get("x") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
