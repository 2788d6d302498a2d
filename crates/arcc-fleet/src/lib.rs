//! **`arcc-fleet`** — a sharded, event-driven fleet lifetime engine with
//! streaming aggregation (re-exported as `arcc::fleet`).
//!
//! The paper's §7.1 evaluation samples 10 000 channels over 7 years by
//! materialising every channel's full fault vector and replaying it
//! eagerly. That caps the scale far below operator questions like "how
//! many spares do a million channels need?" — rare-event tails (DUEs,
//! silent corruptions, spare-pool exhaustion) only resolve at fleet
//! scale. This crate replaces the eager replay with a discrete-event
//! simulation:
//!
//! * a [`FleetSpec`] describes the fleet — mixed [`DimmPopulation`]s
//!   (weights, FIT-rate multipliers, scrub cadences, core counts), a
//!   horizon, and an [`OperatorPolicy`] (none / replace-on-DUE /
//!   finite spare pool);
//! * each shard runs a time-ordered event queue ([`engine::ShardEngine`])
//!   over its channels: fault arrivals are drawn lazily one exponential
//!   gap at a time ([`arcc_faults::exp_interarrival`]), scrub detections
//!   upgrade pages at exactly the `arcc-reliability` scrub ticks, and
//!   policy replacements are granted in detection order — **O(1) memory
//!   per in-flight channel**, no fault vectors;
//! * the default scheduler is a **calendar/bucket queue keyed on scrub
//!   epochs** ([`SchedulerKind::Bucket`]): channels whose first
//!   lazily-drawn arrival falls past the horizon — at field rates, the
//!   overwhelming majority — are dispatched with one uniform draw
//!   against a precomputed `1 - exp(-rate·H)` threshold and never touch
//!   the queue, state table, or a logarithm; the heap scheduler remains
//!   as the reference, and both produce **byte-identical** results
//!   (pinned by `tests/sched_ab.rs`), so checkpoints cross schedulers;
//! * the sharded runner ([`run_fleet`]) executes shards on the
//!   workspace's deterministic `parallel_map`/`cell_seed` contract and
//!   folds fixed-size [`FleetStats`] aggregates through an associative
//!   merge in shard order — peak memory is `O(threads × shard)`,
//!   independent of fleet size, and parallel runs are byte-identical to
//!   sequential ones;
//! * one entry point, [`run_until`], runs any span of a run: it takes
//!   the arrival source, a [`FleetCheckpoint`] prefix, the shard to stop
//!   at, and an `arcc-obs` recorder that receives each shard's
//!   deterministic [`EngineMetrics`] (events popped, horizon-bypass
//!   hits/misses, queue occupancy, compactions) in shard order, so a
//!   split run's stats and snapshot equal the one-shot run's
//!   ([`run_fleet_observed`]) bit for bit. A checkpoint of another run
//!   is refused with [`ReplayError::CheckpointMismatch`]; checkpoints
//!   serialise bit-exactly and persist atomically, so a durable run is a
//!   loop of [`FleetCheckpoint::load`], [`run_until`], and `write_atomic`;
//! * arrivals are **dual-source** ([`source`]): the synthetic lazy draws
//!   above, or a [`ReplayArrivals`] set of *observed* arrivals
//!   ([`run_replay`], fed by the `arcc-replay` crate's fault-log
//!   parser) replayed through the same scheduler/stats/checkpoint
//!   machinery while detection, upgrade, and policy stay simulated — a
//!   log generated from a spec replays **bit-identically** under
//!   no-repair; [`extend_replay`] grows a replay checkpoint with its log.
//!
//! The engine is pinned against the paper-path Monte Carlo: at the
//! paper's 10 000-channel scale its lifetime failure probabilities agree
//! with `arcc-reliability` within CI tolerance (see `tests/golden.rs`).
//!
//! # Example: a million-channel what-if in a few lines
//!
//! ```
//! use arcc_fleet::{run_fleet, DimmPopulation, FleetSpec, OperatorPolicy};
//!
//! // 20k channels keeps the doctest quick; the same code runs 1M+.
//! let spec = FleetSpec::baseline(20_000)
//!     .years(7.0)
//!     .policy(OperatorPolicy::SparePool { spares_per_10k: 50 })
//!     .population(DimmPopulation::paper("hot_aisle").weight(0.25).rate_multiplier(4.0));
//! let stats = run_fleet(4, &spec);
//! assert_eq!(stats.channels, 20_000);
//! // A minority of channels ever see a fault, even with a 4x hot aisle...
//! assert!(stats.fault_probability() < 0.5);
//! // ...and the fleet-average upgraded (full-power) page mass stays small.
//! assert!(stats.avg_upgraded_fraction() < 0.10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod runner;
mod sched;
pub mod source;
pub mod spec;
pub mod stats;

pub use checkpoint::{CheckpointError, FleetCheckpoint, PersistError};
pub use engine::EngineMetrics;
pub use runner::{
    extend_replay, run_fleet, run_fleet_observed, run_replay, run_shard, run_shard_replay,
    run_until,
};
pub use source::{ReplayArrivals, ReplayError};
pub use spec::{
    DimmPopulation, FleetSpec, OperatorPolicy, SchedulerKind, DEFAULT_SCHEME,
    DEFAULT_SHARD_CHANNELS,
};
pub use stats::{FleetStats, PopulationStats, MODE_COUNT};
