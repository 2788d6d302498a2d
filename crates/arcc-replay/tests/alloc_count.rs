//! Heap allocations of segment ingestion.
//!
//! A counting global allocator tallies the allocations each thread makes.
//! The test counts those made by the three steps a long-lived service
//! takes per segment: [`FaultLog::parse`] of the segment text,
//! [`FaultLog::append_segment`] onto the accumulated log, and
//! [`ReplayArrivals::extend`] of the arrival set with what the append
//! returned. None of them allocates per DIMM or per channel: ids go into
//! one byte arena and a segment's arrivals into one flat CSR, so only the
//! amortised growth of those buffers remains, and a segment four times
//! larger may add only a handful of allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arcc_fleet::{DimmPopulation, FleetSpec};
use arcc_replay::{generate_log, FaultLog};

/// Forwards to [`System`], counting each allocation on the calling thread.
struct Counting;

thread_local! {
    /// `const`-initialised and drop-free, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only during thread teardown; those allocations
    // are no test's concern.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the `GlobalAlloc` contract `System` does.
// The only addition, a bump of a `const`-initialised thread-local `Cell`,
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // obtained them from `System`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations made by `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

/// What ingesting one segment cost, step by step.
#[derive(Debug)]
struct Ingest {
    dimms: usize,
    faults: usize,
    parse: u64,
    append: u64,
    extend: u64,
}

/// Ingests the second of two `channels`-DIMM segments of a generated
/// three-class log (the benchmark's classes, at 8x their field rates so
/// most DIMMs fault) into the first, counting each step's allocations.
fn ingest_second_segment(channels: u64) -> Ingest {
    let populations = vec![
        DimmPopulation::paper("cold")
            .weight(0.6)
            .rate_multiplier(8.0),
        DimmPopulation::paper("warm")
            .weight(0.3)
            .rate_multiplier(16.0),
        DimmPopulation::paper("hot")
            .weight(0.1)
            .rate_multiplier(32.0)
            .scrub_interval_h(2.0),
    ];
    let spec = FleetSpec::baseline(2 * channels)
        .populations(populations)
        .seed(0xA110C);
    let segments = generate_log(&spec).split_channels(channels as usize);
    let mut log = segments[0].clone();
    let mut arrivals = log.arrivals().expect("arrivals");
    let text = segments[1].to_text();

    let (parse, segment) = counted(|| FaultLog::parse(&text));
    let segment = segment.expect("segment parses");
    let (append, appended) = counted(|| log.append_segment(&segment));
    let (populations, per_channel) = appended.expect("segment appends");
    let (extend, extended) = counted(|| arrivals.extend(populations, per_channel));
    extended.expect("arrivals extend");
    assert_eq!(arrivals, log.arrivals().expect("arrivals"));
    Ingest {
        dimms: segment.dimms.len(),
        faults: segment.faults.len(),
        parse,
        append,
        extend,
    }
}

#[test]
fn ingest_allocates_nothing_per_dimm() {
    let small = ingest_second_segment(2_000);
    let large = ingest_second_segment(8_000);
    assert!(
        small.faults > small.dimms / 2,
        "too few faults to be a test: {small:?}"
    );
    // Buffer growth only. Parse, append and extend read 60, 11 and 4
    // allocations here, and 70, 11 and 4 on the large segment: parse
    // grows five buffers (ids, id ends, classes, last fault times,
    // faults), each doubling twice more at 4x. One allocation per DIMM
    // would add thousands.
    let steps = |i: &Ingest| {
        [
            ("parse", i.parse),
            ("append", i.append),
            ("extend", i.extend),
        ]
    };
    for ((step, few), (_, many)) in steps(&small).into_iter().zip(steps(&large)) {
        assert!(
            few <= 80,
            "{step}: {few} allocations for {} DIMMs",
            small.dimms
        );
        assert!(
            many <= few + 16,
            "{step}: 4x the DIMMs ({} vs {}) took {many} allocations against {few}",
            large.dimms,
            small.dimms
        );
    }
}
