//! The wall-clock boundary of the observability layer.
//!
//! Deterministic crates never read time; anything that wants a duration
//! takes a [`Clock`] and the *caller* decides whether that clock is the
//! replayable [`ManualClock`] (tests, golden sessions, deterministic
//! services) or the real [`WallClock`] (bench bins, the `arcc-serve`
//! binary, `repro_all --profile`). Both banned-token sites below are
//! allowlisted in `audit/allowlist.toml` with schedule-invariance
//! justifications: the `Cell` is `!Sync` single-threaded state, and
//! `Instant::now` is quarantined here so no deterministic crate links it.

use std::cell::Cell;
use std::time::Instant;

/// A monotonic nanosecond clock.
///
/// `Debug` is a supertrait so services can hold a `Box<dyn Clock>`
/// inside `#[derive(Debug)]` state without a hand-written impl.
pub trait Clock: std::fmt::Debug {
    /// Nanoseconds since the clock's origin.
    fn now_nanos(&self) -> u64;
}

/// A deterministic clock that only moves when told to.
///
/// Backed by a `Cell<u64>` so callers can set it through a shared
/// reference; `Cell` is `!Sync`, so the state is single-threaded by
/// construction and cannot introduce schedule dependence.
#[derive(Default, Debug)]
pub struct ManualClock {
    nanos: Cell<u64>,
}

impl ManualClock {
    /// A clock at nanosecond zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock to an absolute nanosecond value.
    pub fn set(&self, nanos: u64) {
        self.nanos.set(nanos);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.get()
    }
}

/// The real monotonic clock, anchored at construction time.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        // Truncation after ~584 years of uptime is acceptable.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Seconds elapsed on `clock` since `start_nanos`.
pub fn elapsed_secs(clock: &dyn Clock, start_nanos: u64) -> f64 {
    clock.now_nanos().saturating_sub(start_nanos) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_replayable() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_nanos(), 0);
        clock.set(12);
        assert_eq!(clock.now_nanos(), 12);
        clock.set(3);
        assert_eq!(clock.now_nanos(), 3);
        clock.set(u64::MAX);
        assert_eq!(clock.now_nanos(), u64::MAX);
        assert!((elapsed_secs(&clock, 0) - u64::MAX as f64 / 1e9).abs() < 1.0);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::default();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
        assert!(elapsed_secs(&clock, a) >= 0.0);
    }
}
