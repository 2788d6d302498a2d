//! Heap bytes the twin holds per fault between requests.
//!
//! A counting global allocator keeps the live heap bytes of the whole
//! process. The test ingests a generated log segment by segment into an
//! ephemeral [`TwinEngine`], and reopens a durable one from the same
//! segments, then reads what each engine holds once its request
//! returned. Every fault is a 72-byte arrival record in the engine's
//! `ReplayArrivals` (plus the spare capacity of its column), and a
//! channel costs the inventory's id, end offset, class and index entry
//! and the arrival set's population, offset and rolling fingerprint. An
//! engine that also kept each fault in its `FaultLog` would hold 80 more
//! bytes per fault, plus spare capacity.
//!
//! Readings on this log (24,000 channels, 159,075 faults): the ingested
//! and the reopened engine each hold 150 bytes per fault, 72 of them the
//! arrival column's spare capacity (its last extension needed three
//! records more than it held, so it doubled). An engine that also kept
//! every fault in its `FaultLog` read 282 bytes per fault in both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use arcc_fleet::{DimmPopulation, FleetSpec};
use arcc_replay::generate_log;
use arcc_serve::TwinEngine;

/// Forwards to [`System`], keeping the bytes allocated and not yet freed.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the `GlobalAlloc` contract `System` does.
// The only addition, an atomic add or subtract on a static counter,
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // obtained them from `System`; the caller guarantees the rest.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes `make` leaves allocated in what it returns.
fn held_by<T>(make: impl FnOnce() -> T) -> (usize, T) {
    let before = LIVE.load(Ordering::Relaxed);
    let value = make();
    (LIVE.load(Ordering::Relaxed) - before, value)
}

const SHARD: u32 = 1_000;
const SEED: u64 = 0x0E5;

/// Above what one arrival record per fault and the per-channel columns
/// cost here, below what a second 80-byte copy of every fault adds.
const MAX_BYTES_PER_FAULT: usize = 220;

#[test]
fn the_twin_holds_each_fault_once() {
    // The benchmark's three classes, at 16x their field rates so that
    // faults outnumber channels and the per-fault bytes dominate.
    let populations = vec![
        DimmPopulation::paper("cold")
            .weight(0.6)
            .rate_multiplier(16.0),
        DimmPopulation::paper("warm")
            .weight(0.3)
            .rate_multiplier(32.0),
        DimmPopulation::paper("hot")
            .weight(0.1)
            .rate_multiplier(64.0)
            .scrub_interval_h(2.0),
    ];
    let spec = FleetSpec::baseline(24_000)
        .populations(populations)
        .seed(0x5E6);
    let log = generate_log(&spec);
    let faults = log.faults.len();
    let segments: Vec<String> = log
        .split_channels(3_000)
        .iter()
        .map(|segment| segment.to_text())
        .collect();
    drop(log);
    assert!(faults > 24_000, "too few faults to be a test: {faults}");

    let (ingested, engine) = held_by(|| {
        let mut engine = TwinEngine::new(2, SEED).shard_channels(SHARD);
        for segment in &segments {
            engine.ingest(segment).expect("ingest");
        }
        engine
    });
    assert_eq!(engine.events(), faults as u64);
    drop(engine);

    let dir = std::env::temp_dir().join(format!("arcc-serve-resident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durable = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
    for segment in &segments {
        durable.ingest(segment).expect("durable ingest");
    }
    drop(durable);
    let (reopened, engine) = held_by(|| TwinEngine::open(2, SEED, SHARD, &dir).expect("reopen"));
    assert_eq!(engine.events(), faults as u64);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    for (what, bytes) in [("ingested", ingested), ("reopened", reopened)] {
        assert!(
            bytes <= MAX_BYTES_PER_FAULT * faults,
            "the {what} engine holds {bytes} bytes for {faults} faults: {} per fault",
            bytes / faults
        );
    }
}
