//! Event scheduling for the shard engine: one calendar queue keyed on
//! scrub epochs.
//!
//! The determinism contract of the whole crate rests on a single total
//! order: events fire in ascending `(time_h, seq)` — `seq` is the
//! monotone schedule-order tie-breaker — and [`BucketQueue`] pops in
//! exactly that order.
//!
//! [`BucketQueue`] is a calendar queue: pushes are O(1) appends into
//! coarse time buckets (width = the smallest scrub interval, so every
//! scrub tick's detection batch lands at the head of its own bucket),
//! and a bucket is sorted only when the sweep reaches it. An occupancy
//! bitmap, one bit per bucket, lets the sweep jump straight to the next
//! non-empty bucket with `trailing_zeros`, 64 buckets per word, so a
//! calendar with several buckets per event costs nothing to skip.
//! Correctness does not depend on bucket boundaries being exact: the
//! bucket index is a *monotone* function of time (float truncation of
//! `t * inv_width` is monotone), so an event mis-rounded across a
//! boundary still sorts correctly — it is merged into the live drain
//! stack if its bucket has already been taken.
//!
//! A `BinaryHeap` is the reference for that order. In debug builds the
//! queue also pushes every event into a shadow heap and asserts that each
//! pop returns the heap's `(time_h, seq)`, so every debug-build engine
//! run in the workspace (fleet, replay, serve and scenario tests) checks
//! the calendar against the heap on every pop. Release builds carry no
//! shadow.

use std::cmp::Ordering;
#[cfg(debug_assertions)]
use std::collections::BinaryHeap;

/// What a queued event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A fault arrives (payload drawn at processing time).
    Fault,
    /// The scrub tick that detects the fault with this stable per-channel
    /// id. Ids (not indices) keep queued detections valid while the
    /// active-fault list compacts cleared transients away.
    Detection {
        /// Stable per-channel fault id (`ChannelState::next_fault_id`).
        fault_id: u32,
    },
    /// Policy-scheduled DIMM swap (resolved against the pool on pop).
    Replacement,
}

/// One scheduled event, ordered by `(time_h, seq)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEvent {
    /// Fire time in hours.
    pub time_h: f64,
    /// Monotone tie-breaker: equal-time events replay in schedule order.
    pub seq: u64,
    /// Index into the engine's (sparse) channel-state table.
    pub slot: u32,
    /// Generation the event was scheduled under; stale events are dropped.
    pub generation: u32,
    /// Payload.
    pub kind: EventKind,
}

impl QueuedEvent {
    /// Strict "fires later than" on the `(time_h, seq)` total order.
    #[inline]
    fn after(&self, other: &Self) -> bool {
        self.time_h > other.time_h || (self.time_h == other.time_h && self.seq > other.seq)
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time_h == other.time_h && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted (earlier = greater) so the shadow max-heap pops the
        // earliest event first and an ascending sort puts it last. Times
        // are finite and non-negative by construction.
        other
            .time_h
            .partial_cmp(&self.time_h)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Hard cap on calendar size, a backstop against pathological
/// scrub-interval/horizon ratios (the width is widened to compensate).
const MAX_BUCKETS: usize = 1 << 20;

/// Sentinel for "no event" in the per-bucket chain heads.
const EMPTY: u32 = u32::MAX;

/// A calendar queue: coarse time buckets swept in order, each sorted
/// lazily when the sweep reaches it. Buckets are intrusive chains
/// through one push-only arena — four flat allocations total, no
/// per-bucket `Vec`s (allocator traffic is what made a naive calendar no
/// faster than the heap).
///
/// Invariants:
/// * `stack` holds the still-pending events of every bucket below
///   `draining`, sorted descending on `(time_h, seq)` (next event last);
/// * `heads[b]` for `b >= draining` chains that bucket's future events
///   through `arena` in reverse push order, and bit `b` of `occupied` is
///   set exactly when that chain is non-empty; every bit below
///   `draining` is clear;
/// * simulation time never runs backwards, so a push always lands at or
///   after the last popped event — into a bucket `>= draining`, or
///   merged into `stack` when its (monotone) bucket was already taken.
///
/// Debug builds also keep `shadow`, the reference heap of every pending
/// event; [`Self::pop`] asserts that both agree.
#[derive(Debug)]
pub(crate) struct BucketQueue {
    inv_width: f64,
    /// Head arena index of each bucket's chain (`EMPTY` = none).
    heads: Vec<u32>,
    /// Bit `b % 64` of word `b / 64` is set while bucket `b` holds
    /// events the sweep has not taken.
    occupied: Vec<u64>,
    /// Push-only event storage: `(event, next index in chain)`.
    arena: Vec<(QueuedEvent, u32)>,
    /// Next bucket index the sweep will take.
    draining: usize,
    /// Pending events of taken buckets, sorted descending (next pop last).
    stack: Vec<QueuedEvent>,
    len: usize,
    /// Every pending event again, in `(time_h, seq)` heap order.
    #[cfg(debug_assertions)]
    shadow: BinaryHeap<QueuedEvent>,
}

impl BucketQueue {
    /// A calendar covering `[0, horizon_h)` in buckets of `width_h`
    /// hours. `events_hint` (an upper estimate of total pushes) widens
    /// sparse calendars: more than ~2 buckets per expected event buys no
    /// sorting locality and costs allocation plus empty-bucket sweeps.
    pub fn new(horizon_h: f64, width_h: f64, events_hint: usize) -> Self {
        assert!(horizon_h > 0.0, "horizon must be positive");
        assert!(width_h > 0.0, "bucket width must be positive");
        let natural = (horizon_h / width_h).ceil().max(1.0);
        let cap = (2 * events_hint.max(1)).clamp(64, MAX_BUCKETS) as f64;
        let (count, width) = if natural <= cap {
            (natural as usize, width_h)
        } else {
            (cap as usize, horizon_h / cap)
        };
        BucketQueue {
            inv_width: 1.0 / width,
            // One spare bucket so horizon-adjacent rounding stays in
            // range even before the `min` clamp.
            heads: vec![EMPTY; count + 1],
            occupied: vec![0; (count + 1).div_ceil(64)],
            arena: Vec::with_capacity(events_hint.min(1 << 16)),
            draining: 0,
            stack: Vec::new(),
            len: 0,
            #[cfg(debug_assertions)]
            shadow: BinaryHeap::new(),
        }
    }

    /// Monotone-in-time bucket index (truncation of `t * inv_width`,
    /// clamped to the calendar).
    #[inline]
    fn bucket_of(&self, time_h: f64) -> usize {
        ((time_h * self.inv_width) as usize).min(self.heads.len() - 1)
    }

    #[inline]
    pub fn push(&mut self, ev: QueuedEvent) {
        #[cfg(debug_assertions)]
        self.shadow.push(ev);
        self.len += 1;
        let b = self.bucket_of(ev.time_h);
        if b < self.draining {
            // The event's bucket was already swept (same-bucket push from
            // the event being processed, or boundary rounding): merge it
            // into the live stack at its sorted position.
            let pos = self.stack.partition_point(|q| q.after(&ev));
            self.stack.insert(pos, ev);
        } else {
            let idx = self.arena.len() as u32;
            self.arena.push((ev, self.heads[b]));
            self.heads[b] = idx;
            self.occupied[b / 64] |= 1 << (b % 64);
        }
    }

    /// Calendar buckets covering the horizon, the spare last one not
    /// counted.
    #[cfg(test)]
    pub fn buckets(&self) -> usize {
        self.heads.len() - 1
    }

    /// Pending event count (the engine's queue-occupancy metric).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Pops the next event in `(time_h, seq)` order. Debug builds assert
    /// that the shadow heap pops the same event.
    #[inline]
    pub fn pop(&mut self) -> Option<QueuedEvent> {
        let next = self.pop_calendar();
        #[cfg(debug_assertions)]
        {
            let key = |ev: QueuedEvent| (ev.time_h.to_bits(), ev.seq);
            assert_eq!(
                next.map(key),
                self.shadow.pop().map(key),
                "calendar queue left (time_h, seq) order"
            );
        }
        next
    }

    #[inline]
    fn pop_calendar(&mut self) -> Option<QueuedEvent> {
        if self.len == 0 {
            return None;
        }
        if self.stack.is_empty() {
            // `len > 0` guarantees a non-empty bucket ahead of the sweep,
            // and no bit below `draining` is set, so the lowest set bit
            // from `draining`'s word on is the next bucket to take.
            let mut w = self.draining / 64;
            while self.occupied[w] == 0 {
                w += 1;
            }
            let word = self.occupied[w];
            let b = w * 64 + word.trailing_zeros() as usize;
            self.occupied[w] = word & (word - 1);
            self.draining = b + 1;
            let mut idx = self.heads[b];
            while idx != EMPTY {
                let (ev, next) = self.arena[idx as usize];
                self.stack.push(ev);
                idx = next;
            }
            // `QueuedEvent::cmp` is inverted for the max-heap (Greater =
            // fires earlier), so plain ascending sort yields the
            // descending stack: next event to fire at the end.
            self.stack.sort_unstable();
        }
        self.len -= 1;
        self.stack.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BinaryHeap;

    fn ev(time_h: f64, seq: u64) -> QueuedEvent {
        QueuedEvent {
            time_h,
            seq,
            slot: 0,
            generation: 0,
            kind: EventKind::Fault,
        }
    }

    /// What one [`ab_trace`] exercised of the calendar's edge paths.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Pushes that landed in the spare last bucket.
        spare_pushes: u32,
        /// Pushes into an already-swept bucket, merged into the stack.
        stack_merges: u32,
        /// Most bitmap words one sweep step crossed.
        max_words_swept: usize,
    }

    /// Replays a time-forward push/pop trace (pushes only at or after the
    /// last popped time, like the engine) against a `BinaryHeap` and
    /// demands identical pop sequences — the same check as the debug-build
    /// shadow, made explicitly so release test runs make it too. The
    /// calendar covers `[0, horizon)` in buckets of `width_h` (widened for
    /// `events_hint`); some pushes land up to two widths past the horizon,
    /// in the spare last bucket, which the engine only reaches by
    /// rounding.
    fn ab_trace(horizon: f64, width_h: f64, events_hint: usize, seed: u64) -> Coverage {
        let limit = horizon + 2.0 * width_h;
        let mut heap: BinaryHeap<QueuedEvent> = BinaryHeap::new();
        let mut bucket = BucketQueue::new(horizon, width_h, events_hint);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = 0u64;
        let mut cover = Coverage::default();
        let mut push = |heap: &mut BinaryHeap<QueuedEvent>,
                        bucket: &mut BucketQueue,
                        seq: &mut u64,
                        t: f64| {
            if t >= limit {
                return;
            }
            let b = bucket.bucket_of(t);
            cover.spare_pushes += u32::from(b == bucket.heads.len() - 1);
            cover.stack_merges += u32::from(b < bucket.draining);
            let e = ev(t, *seq);
            *seq += 1;
            heap.push(e);
            bucket.push(e);
        };
        for i in 0..64 {
            let t = rng.gen_range(0.0..horizon);
            // Mix in exact bucket-boundary times (scrub-tick detections)
            // and a few times past the horizon.
            let t = if rng.gen_bool(0.3) {
                (t / width_h).floor() * width_h
            } else if i % 16 == 0 {
                horizon + rng.gen_range(0.0..width_h)
            } else {
                t
            };
            push(&mut heap, &mut bucket, &mut seq, t);
        }
        let mut max_words_swept = 0;
        loop {
            let word_before = bucket.draining / 64;
            let a = heap.pop();
            let b = bucket.pop();
            max_words_swept = max_words_swept.max(bucket.draining / 64 - word_before);
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.time_h.to_bits(), b.time_h.to_bits());
                    assert_eq!(a.seq, b.seq);
                    // Event-driven reschedules: zero-gap ties, same-tick
                    // detections, and ordinary forward gaps.
                    if a.seq % 3 == 0 {
                        push(&mut heap, &mut bucket, &mut seq, a.time_h);
                    }
                    if a.seq % 5 == 0 {
                        let tick = (a.time_h / width_h).floor() * width_h + width_h;
                        push(&mut heap, &mut bucket, &mut seq, tick);
                    }
                    if a.seq % 2 == 0 {
                        push(
                            &mut heap,
                            &mut bucket,
                            &mut seq,
                            a.time_h + rng.gen_range(0.0..20.0),
                        );
                    }
                }
                (a, b) => panic!("queues disagree on length: heap={a:?} bucket={b:?}"),
            }
        }
        Coverage {
            max_words_swept,
            ..cover
        }
    }

    #[test]
    fn bucket_pops_in_heap_order_across_widths() {
        // `(horizon, width, events hint)`: dyadic, non-dyadic, tiny and
        // wider-than-horizon widths (the non-dyadic ones exercise boundary
        // rounding in bucket_of); exactly one bitmap word with the spare
        // bucket as its last bit, and one more bucket, so the spare opens a
        // second word; and 10,000 sparse buckets, where the sweep crosses
        // runs of empty words. Most bucket counts, spare included, are not
        // multiples of 64.
        let calendars = [
            (100.0, 4.0, 64),
            (100.0, 3.0, 64),
            (100.0, 0.7, 64),
            (100.0, 17.3, 64),
            (100.0, 250.0, 64),
            (63.0, 1.0, 64),
            (64.0, 1.0, 64),
            (100.0, 0.01, 100_000),
        ];
        let mut total = Coverage::default();
        for (i, &(horizon, width, hint)) in calendars.iter().enumerate() {
            for seed in 0..8u64 {
                let cover = ab_trace(horizon, width, hint, seed * 31 + i as u64);
                total.spare_pushes += cover.spare_pushes;
                total.stack_merges += cover.stack_merges;
                total.max_words_swept = total.max_words_swept.max(cover.max_words_swept);
            }
        }
        assert!(total.spare_pushes > 0, "no push reached the spare bucket");
        assert!(total.stack_merges > 0, "no push met a swept bucket");
        assert!(
            total.max_words_swept >= 2,
            "no sweep crossed an empty bitmap word: {total:?}"
        );
    }

    #[test]
    fn sweep_jumps_empty_words_to_the_spare_bucket() {
        // 6,400 one-hour buckets plus the spare: 6,401 bits in 101 words.
        let mut q = BucketQueue::new(6400.0, 1.0, 4000);
        assert_eq!((q.heads.len(), q.occupied.len()), (6401, 101));
        for (s, t) in [0.5, 200.5, 6399.5, 6400.0, 7000.0].into_iter().enumerate() {
            q.push(ev(t, s as u64));
        }
        // Each pop that empties the stack takes the next occupied bucket,
        // however many empty words lie between.
        for (seq, draining) in [(0, 1), (1, 201), (2, 6400), (3, 6401)] {
            assert_eq!(q.pop().map(|e| e.seq), Some(seq));
            assert_eq!(q.draining, draining);
        }
        // The spare bucket has been swept: a later push past the horizon
        // merges into the stack ahead of the one still pending there.
        q.push(ev(6500.0, 5));
        assert_eq!(q.pop().map(|e| e.seq), Some(5));
        assert_eq!(q.pop().map(|e| e.seq), Some(4));
        assert!(q.pop().is_none());
        assert!(q.occupied.iter().all(|&w| w == 0));
    }

    #[test]
    fn pushes_into_swept_buckets_merge_into_the_stack() {
        let mut q = BucketQueue::new(100.0, 4.0, 16);
        q.push(ev(8.5, 0));
        q.push(ev(9.0, 1));
        q.push(ev(20.0, 2));
        // Taking bucket 2 moves 9.0 onto the stack.
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert_eq!(q.draining, 3);
        // Same-bucket pushes at or after the last pop merge in order.
        q.push(ev(8.7, 3));
        q.push(ev(8.5, 4));
        assert_eq!(q.pop().map(|e| e.seq), Some(4));
        assert_eq!(q.pop().map(|e| e.seq), Some(3));
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        // With the stack empty, a push into the swept bucket still pops
        // before the next occupied bucket.
        q.push(ev(9.5, 5));
        assert_eq!(q.pop().map(|e| e.seq), Some(5));
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q = BucketQueue::new(10.0, 1.0, 4);
        assert!(q.pop().is_none());
        q.push(ev(5.0, 0));
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_is_widened_for_sparse_workloads() {
        // 1e6 natural buckets but only ~8 events: the calendar must be
        // clamped rather than allocating a million empty cells.
        let q = BucketQueue::new(1e6, 1.0, 8);
        assert!(q.heads.len() <= 65);
        // A dense workload keeps the requested width.
        let q = BucketQueue::new(100.0, 4.0, 1000);
        assert_eq!(q.heads.len(), 26);
    }

    #[test]
    fn same_tick_detection_batch_preserves_seq_order() {
        // Several events at one exact bucket boundary must pop in seq
        // order (the scrub detection batch contract).
        let mut q = BucketQueue::new(100.0, 4.0, 16);
        for s in 0..5 {
            q.push(ev(8.0, s));
        }
        q.push(ev(7.5, 99));
        assert_eq!(q.pop().unwrap().seq, 99);
        for s in 0..5 {
            assert_eq!(q.pop().unwrap().seq, s);
        }
    }

    #[test]
    fn negative_zero_time_ties_with_zero_in_seq_order() {
        // A replay log may carry a `-0` arrival time (the parser accepts
        // it). It must tie with `0` and keep schedule order, which
        // `f64::total_cmp` would break by putting `-0.0` first.
        let mut q = BucketQueue::new(10.0, 1.0, 4);
        q.push(ev(0.0, 0));
        q.push(ev(-0.0, 1));
        q.push(ev(0.0, 2));
        for s in 0..3 {
            assert_eq!(q.pop().unwrap().seq, s);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "calendar queue left (time_h, seq) order")]
    fn shadow_heap_catches_a_lost_event() {
        let mut q = BucketQueue::new(100.0, 4.0, 16);
        q.push(ev(1.0, 0));
        q.push(ev(9.0, 1));
        // The calendar loses count of its last pending event: it reports
        // empty while the shadow still holds the event.
        q.len -= 1;
        assert_eq!(q.pop().unwrap().seq, 0);
        q.pop();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "calendar queue left (time_h, seq) order")]
    fn shadow_heap_catches_a_misordered_pop() {
        let mut q = BucketQueue::new(100.0, 4.0, 16);
        for s in 0..3 {
            q.push(ev(1.0 + s as f64, s));
        }
        // The first pop drains bucket 0 onto the stack: [3.0, 2.0] remain.
        assert_eq!(q.pop().unwrap().seq, 0);
        q.stack.swap(0, 1);
        q.pop();
    }
}
