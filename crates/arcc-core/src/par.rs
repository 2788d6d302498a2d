//! Deterministic parallel primitives shared by the sweep and fleet
//! engines.
//!
//! Naive parallelism breaks reproducibility: shared RNG streams make
//! results depend on scheduling. The workspace-wide contract is instead
//! built from two pieces that live here, next to [`cell_seed`]
//! (see [`crate::system`]):
//!
//! * every unit of work is an independent computation with a
//!   deterministic per-unit seed derived via [`cell_seed`];
//! * one scheduler, [`fold_in_order`], hands every result to a single
//!   folder on the calling thread strictly in index order, so the fold is
//!   bit-identical no matter how many workers ran or how the OS scheduled
//!   them, and so is the first error it stops at. [`parallel_map`] is
//!   that fold pushing into a `Vec`;
//! * [`join`] runs one side task (an fsync, say) beside the caller's
//!   work, and returns both results as two sequential calls would.
//!
//! This module is the only place in the workspace that spawns threads.
//!
//! `arcc-exp` re-exports these for experiment sweeps; `arcc-fleet` streams
//! its sharded event-driven runner through [`fold_in_order`], so "parallel
//! equals sequential byte-for-byte" holds across both engines by
//! construction.

use std::any::Any;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

#[cfg(doc)]
use crate::system::cell_seed;

/// Worker count for jobs that were not given an explicit thread count:
/// one per available hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` workers, returning results in
/// input order: [`fold_in_order`] with no bound on how far ahead workers
/// run, folding into the output vector. `f` receives the item index
/// alongside the item so cells can derive per-cell seeds.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let push = |r| {
        out.push(r);
        Ok::<(), Infallible>(())
    };
    let count = items.len();
    let Ok(()) = fold_in_order(threads, count, count, |i| f(i, &items[i]), push);
    out
}

/// Runs `side` beside `main` and returns both results: with two or more
/// `threads`, `side` runs on one helper thread while `main` runs on the
/// calling thread; with one, the call is `(side(), main())`. `main`
/// never leaves the calling thread, so it may capture state that is not
/// `Send`.
///
/// # Panics
///
/// A panic in either closure is re-raised from this call, with its own
/// payload, once both have returned; `main`'s wins when both panic.
pub fn join<S, RS, M, RM>(threads: usize, side: S, main: M) -> (RS, RM)
where
    S: FnOnce() -> RS + Send,
    RS: Send,
    M: FnOnce() -> RM,
{
    if threads < 2 {
        return (side(), main());
    }
    std::thread::scope(|scope| {
        let helper = scope.spawn(side);
        let main = catch_unwind(AssertUnwindSafe(main));
        let side = helper.join();
        match (side, main) {
            (Ok(side), Ok(main)) => (side, main),
            (_, Err(payload)) | (Err(payload), _) => resume_unwind(payload),
        }
    })
}

/// Runs `work` over the indices `0..count` on up to `threads` workers and
/// passes every result to `fold` on the calling thread, strictly in index
/// order, until `fold` returns an error.
///
/// Workers are spawned once per call and claim indices in order. None
/// claims an index `ahead` or more past the next unfolded one, so at most
/// `ahead` results (the one being folded included) exist at once, and a
/// slow item holds back only the claims past that bound, never workers
/// already running. `fold` never leaves the calling thread, so it may
/// capture state that is not `Send`. With one worker — `threads`, `count`
/// or `ahead` below 2 — the call is a plain loop,
/// `for i in 0..count { fold(work(i))? }`: no thread is spawned and no
/// lock is taken.
///
/// # Errors
///
/// The first error `fold` returns, which ends the call: no further index
/// is claimed, and results of items still running are dropped once they
/// finish. Since results are folded in index order, the error does not
/// depend on `threads`.
///
/// # Panics
///
/// A panic in `work` stops further claims and is re-raised from this call,
/// with its own payload, once every worker has stopped. A panic in `fold`
/// stops the workers the same way before it propagates.
pub fn fold_in_order<R, E, W, F>(
    threads: usize,
    count: usize,
    ahead: usize,
    work: W,
    mut fold: F,
) -> Result<(), E>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    F: FnMut(R) -> Result<(), E>,
{
    let ahead = ahead.clamp(1, count.max(1));
    let threads = threads.clamp(1, ahead);
    if threads == 1 {
        for i in 0..count {
            fold(work(i))?;
        }
        return Ok(());
    }
    let shared = Shared {
        window: Mutex::new(Window {
            claimed: 0,
            folded: 0,
            ready: (0..ahead).map(|_| None).collect(),
            stop: false,
            panic: None,
        }),
        claimable: Condvar::new(),
        filled: Condvar::new(),
    };
    let folded = std::thread::scope(|scope| {
        let _stop = StopOnDrop(&shared);
        for _ in 0..threads {
            scope.spawn(|| shared.worker(count, ahead, &work));
        }
        for i in 0..count {
            let Some(result) = shared.next_result(i, ahead) else {
                return Ok(());
            };
            fold(result)?;
        }
        Ok(())
    });
    let window = shared.window.into_inner();
    if let Some(payload) = window.unwrap_or_else(PoisonError::into_inner).panic {
        resume_unwind(payload);
    }
    folded
}

/// The claim window of one [`fold_in_order`] call, guarded by one lock.
struct Window<R> {
    /// The next index a worker claims.
    claimed: usize,
    /// Results folded so far, which is the next index the caller folds.
    folded: usize,
    /// Finished results not yet folded, each at `index % ahead`; claimed
    /// indices lie in `folded..folded + ahead`, so they never share a slot.
    ready: Vec<Option<R>>,
    /// Set when an item panicked or the caller left its fold loop (done,
    /// stopped by an error, or unwinding): no further index is claimed.
    stop: bool,
    /// The payload of the first item that panicked.
    panic: Option<Box<dyn Any + Send>>,
}

/// The window plus the two conditions its waiters sleep on.
struct Shared<R> {
    window: Mutex<Window<R>>,
    /// Signalled when `folded` advances (a claim may fit) or work stops.
    claimable: Condvar,
    /// Signalled when the result the caller waits for lands, or an item
    /// panicked.
    filled: Condvar,
}

impl<R> Shared<R> {
    /// Locks the window. No code outside this module runs under the lock
    /// and every update is a single field write, so a lock poisoned by a
    /// panic elsewhere still guards a consistent window.
    fn lock(&self) -> MutexGuard<'_, Window<R>> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker: claims the next index while it lies within `ahead` of
    /// the caller, runs it outside the lock, and parks the result.
    fn worker(&self, count: usize, ahead: usize, work: &(impl Fn(usize) -> R + Sync)) {
        let mut w = self.lock();
        loop {
            if w.stop || w.claimed == count {
                return;
            }
            if w.claimed >= w.folded + ahead {
                w = self
                    .claimable
                    .wait(w)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let i = w.claimed;
            w.claimed += 1;
            drop(w);
            let result = catch_unwind(AssertUnwindSafe(|| work(i)));
            w = self.lock();
            match result {
                Ok(result) => {
                    w.ready[i % ahead] = Some(result);
                    if i == w.folded {
                        self.filled.notify_one();
                    }
                }
                Err(payload) => {
                    w.stop = true;
                    // Keep the first payload; a later one is dropped on
                    // return, after the unlock.
                    if w.panic.is_none() {
                        w.panic = Some(payload);
                    }
                    drop(w);
                    self.filled.notify_one();
                    self.claimable.notify_all();
                    return;
                }
            }
        }
    }

    /// The result of index `i` once it lands, after marking every index
    /// before it folded; `None` when an item panicked first.
    fn next_result(&self, i: usize, ahead: usize) -> Option<R> {
        let mut w = self.lock();
        w.folded = i;
        self.claimable.notify_one();
        loop {
            if let Some(result) = w.ready[i % ahead].take() {
                return Some(result);
            }
            if w.stop {
                return None;
            }
            w = self.filled.wait(w).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Stops the workers when the caller leaves its fold loop — done, stopped
/// by an error from `fold`, or unwinding from a panic in it — so none
/// waits for a claim that can no longer fit.
struct StopOnDrop<'a, R>(&'a Shared<R>);

impl<R> Drop for StopOnDrop<'_, R> {
    fn drop(&mut self) {
        self.0.lock().stop = true;
        self.0.claimable.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq = parallel_map(1, &items, |i, &x| x * 2 + i as u64);
        let par = parallel_map(8, &items, |i, &x| x * 2 + i as u64);
        assert_eq!(seq, par);
        assert_eq!(seq[3], 9);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    use std::hint::black_box;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    /// Whether [`fold_in_order`] spawns workers for these arguments.
    fn spawns(threads: usize, count: usize, ahead: usize) -> bool {
        threads.min(count).min(ahead) >= 2
    }

    /// Folds `0..count`, with item 0 finishing only after every other item
    /// the bound lets run beside it.
    fn folded_with_slow_head(threads: usize, count: usize, ahead: usize) -> Vec<usize> {
        let beside = count.min(ahead).saturating_sub(1);
        let finished = AtomicUsize::new(0);
        let mut out = Vec::new();
        let work = |i| {
            if i == 0 && spawns(threads, count, ahead) {
                while finished.load(SeqCst) < beside {
                    std::thread::yield_now();
                }
            } else if i > 0 {
                finished.fetch_add(1, SeqCst);
            }
            i
        };
        let fold = |i| {
            assert_eq!(i, out.len(), "folded out of order");
            out.push(i);
            Ok::<(), Infallible>(())
        };
        let Ok(()) = fold_in_order(threads, count, ahead, work, fold);
        out
    }

    #[test]
    fn fold_in_order_folds_in_index_order_behind_a_slow_head() {
        for threads in 1..=8 {
            for count in [0, 1, 2, 3, 7, 40] {
                for ahead in [1, 2, 3, 8, 100] {
                    let want: Vec<usize> = (0..count).collect();
                    let got = folded_with_slow_head(threads, count, ahead);
                    assert_eq!(got, want, "threads={threads} count={count} ahead={ahead}");
                }
            }
        }
    }

    #[test]
    fn fold_in_order_never_claims_past_the_bound() {
        const COUNT: usize = 64;
        for threads in 1..=8 {
            for ahead in [1, 2, 3, 5] {
                // Folds completed so far.
                let folded = AtomicUsize::new(0);
                // One past the highest index claimed so far.
                let reach = AtomicUsize::new(0);
                let work = |i: usize| {
                    reach.fetch_max(i + 1, SeqCst);
                    let done = folded.load(SeqCst);
                    assert!(
                        i < done + ahead,
                        "claimed {i} with {done} folded, ahead {ahead}"
                    );
                    (0..(i % 5) * 500).fold(0u64, |a, b| a ^ black_box(b as u64));
                    i
                };
                let fold = |i: usize| {
                    assert_eq!(folded.load(SeqCst), i, "folded out of order");
                    // Hold the fold of `i` until the workers have claimed
                    // every index the bound allows: the test then sees the
                    // bound reached, not merely respected.
                    if spawns(threads, COUNT, ahead) {
                        let allowed = (i + ahead).min(COUNT);
                        while reach.load(SeqCst) < allowed {
                            std::thread::yield_now();
                        }
                    }
                    folded.fetch_add(1, SeqCst);
                    Ok::<(), Infallible>(())
                };
                let Ok(()) = fold_in_order(threads, COUNT, ahead, work, fold);
                assert_eq!(
                    folded.into_inner(),
                    COUNT,
                    "threads={threads} ahead={ahead}"
                );
            }
        }
    }

    #[test]
    fn fold_in_order_reraises_a_panic_from_the_caller() {
        for threads in [1, 2, 8] {
            let work = |i| {
                if i == 9 {
                    panic!("item 9 failed");
                }
                i
            };
            let caught = catch_unwind(|| fold_in_order(threads, 50, 4, work, |_| Ok::<(), ()>(())));
            let payload = caught.expect_err("the item's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 9 failed"));

            let fold = |i| {
                assert_ne!(i, 9, "fold of item 9 failed");
                Ok::<(), ()>(())
            };
            let caught = catch_unwind(|| fold_in_order(threads, 50, 4, |i| i, fold));
            assert!(caught.is_err(), "the fold's panic must reach the caller");
        }
    }

    #[test]
    fn fold_in_order_stops_at_the_first_fold_error() {
        const AHEAD: usize = 4;
        for threads in 1..=8 {
            // One past the highest index claimed so far.
            let reach = AtomicUsize::new(0);
            let work = |i: usize| {
                reach.fetch_max(i + 1, SeqCst);
                i
            };
            let mut folded = Vec::new();
            let fold = |i: usize| {
                folded.push(i);
                // Items 9 and 11 both fail; 11 may finish first.
                if i == 9 || i == 11 {
                    return Err(i);
                }
                Ok(())
            };
            assert_eq!(fold_in_order(threads, 50, AHEAD, work, fold), Err(9));
            assert_eq!(folded, (0..=9).collect::<Vec<_>>(), "threads={threads}");
            let reach = reach.into_inner();
            if threads == 1 {
                assert_eq!(reach, 10, "the 1-thread loop stops at the error");
            } else {
                assert!(
                    reach <= 9 + AHEAD,
                    "claimed up to {reach} past an error at 9"
                );
            }
        }
    }

    #[test]
    fn join_runs_the_side_task_beside_the_caller() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 8] {
            // With a helper, each side waits for the other to start, so
            // the two must run at once; with one thread they run in turn.
            let started = AtomicUsize::new(0);
            let meet = || {
                started.fetch_add(1, SeqCst);
                while threads > 1 && started.load(SeqCst) < 2 {
                    std::thread::yield_now();
                }
            };
            let side = || {
                meet();
                (std::thread::current().id() == caller, 'a')
            };
            let main = || {
                meet();
                assert_eq!(std::thread::current().id(), caller);
                'b'
            };
            let ((inline, a), b) = join(threads, side, main);
            assert_eq!((a, b), ('a', 'b'));
            assert_eq!(inline, threads == 1, "threads={threads}");
        }
    }

    #[test]
    fn join_reraises_either_sides_panic() {
        for threads in [1, 2] {
            let caught = catch_unwind(|| join(threads, || panic!("side failed"), || 1));
            let payload = caught.expect_err("the side task's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"side failed"));
            let caught = catch_unwind(|| join(threads, || 1, || panic!("main failed")));
            let payload = caught.expect_err("the caller's panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"main failed"));
        }
    }

    #[test]
    fn one_worker_folds_inline_on_the_caller() {
        let caller = std::thread::current().id();
        for (threads, count, ahead) in [(1, 5, 5), (8, 5, 1), (8, 1, 8)] {
            let log = Mutex::new(Vec::new());
            let work = |i| {
                assert_eq!(std::thread::current().id(), caller);
                log.lock().expect("test log").push(('w', i));
                i
            };
            let fold = |i| {
                log.lock().expect("test log").push(('f', i));
                Ok::<(), Infallible>(())
            };
            let Ok(()) = fold_in_order(threads, count, ahead, work, fold);
            let want: Vec<_> = (0..count).flat_map(|i| [('w', i), ('f', i)]).collect();
            assert_eq!(log.into_inner().expect("test log"), want);
        }
    }
}
