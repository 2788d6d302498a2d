//! Heap allocations on the shard engine's fault path.
//!
//! A counting global allocator tallies the allocations each thread makes.
//! The tests count those made inside [`ShardEngine::run`] on fault-heavy
//! ARCC shards whose channels see many overlapping (DUE and SDC)
//! arrivals. In steady state an arrival allocates nothing: only the
//! amortised growth of the engine's shard-wide buffers (fault slab,
//! calendar arena and drain stack, plus the shadow heap in debug builds)
//! may remain, so a shard with four times the arrivals may add only a
//! handful of allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use arcc_fleet::engine::ShardEngine;
use arcc_fleet::{DimmPopulation, FleetSpec, FleetStats, OperatorPolicy};

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

/// A one-shard ARCC fleet of `channels` channels at 40x field rates:
/// most channels fault several times and overlaps are common.
fn hot_shard(channels: u64, policy: OperatorPolicy) -> FleetSpec {
    FleetSpec::baseline(channels)
        .populations(vec![DimmPopulation::paper("hot").rate_multiplier(40.0)])
        .shard_channels(channels as u32)
        .seed(0xA110C)
        .policy(policy)
}

/// Allocations made inside `ShardEngine::run` on shard 0 of `spec`,
/// with the run's stats.
fn allocations_in_run(spec: &FleetSpec) -> (u64, FleetStats) {
    let engine = ShardEngine::new(spec, 0);
    let before = allocations();
    let (stats, _) = engine.run();
    (allocations() - before, stats)
}

#[test]
fn arrivals_allocate_nothing_in_steady_state() {
    for policy in [OperatorPolicy::None, OperatorPolicy::ReplaceOnDue] {
        let (small, small_stats) = allocations_in_run(&hot_shard(500, policy));
        let (large, large_stats) = allocations_in_run(&hot_shard(2_000, policy));
        let name = policy.name();
        // The spec must not avoid the overlap classification path: every
        // DUE and every first SDC is an overlapping arrival.
        assert!(
            small_stats.due_events > 100,
            "{name}: too few overlapping arrivals ({} DUEs)",
            small_stats.due_events
        );
        if policy == OperatorPolicy::None {
            assert!(small_stats.sdc_channels > 10, "{name}: too few SDCs");
        }
        assert!(
            large_stats.faults >= 3 * small_stats.faults,
            "{name}: the large shard needs about 4x the arrivals"
        );
        // Buffer growth only: a handful of allocations for thousands of
        // arrivals, however many channels carry them. (The engine this
        // replaced made one per event-bearing channel and one or two per
        // overlapping arrival: 2,340 here on the small shard.)
        assert!(
            small <= 16,
            "{name}: {small} allocations for {} arrivals",
            small_stats.faults
        );
        assert!(
            large <= small + 8,
            "{name}: 4x the arrivals ({} vs {}) took {large} allocations against {small}",
            large_stats.faults,
            small_stats.faults
        );
    }
}
