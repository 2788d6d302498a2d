//! The sharded fleet runner: shards streamed through one in-order fold.
//!
//! Shards execute on the workspace's deterministic [`fold_in_order`]:
//! workers are spawned once per span and claim shards in order, never
//! `threads * WINDOW_FACTOR` or more past the next unfolded one, and the
//! calling thread folds each shard's aggregate into the running total, in
//! shard order, as soon as it lands. There is no barrier, so a slow shard
//! holds back only the claims past that bound. Peak memory is
//! `O(threads * shard_channels)` channel states plus `O(threads)` shard
//! aggregates — independent of fleet size. Because the fold is always in
//! shard order and every shard derives its RNG streams from
//! `cell_seed(spec.seed, shard)`, a parallel run is byte-identical to a
//! sequential one, and a resumed run byte-identical to an uninterrupted
//! one.
//!
//! One span loop serves every entry point: [`run_until`] runs any span of
//! either arrival source into any [`Recorder`], the one-shot runs run it
//! from an empty checkpoint, and [`extend_replays`] grows several twin
//! checkpoints with their shared log in one fold ([`extend_replay`] is
//! its one-checkpoint case).

use std::convert::Infallible;

use arcc_core::par::fold_in_order;
use arcc_obs::{MetricsSnapshot, NoopRecorder, Recorder, SnapshotRecorder};

use crate::checkpoint::FleetCheckpoint;
use crate::engine::ShardEngine;
use crate::source::{ReplayArrivals, ReplayError};
use crate::spec::FleetSpec;
use crate::stats::FleetStats;

/// Shards in flight (claimed but not yet folded), as a multiple of the
/// worker count.
const WINDOW_FACTOR: usize = 4;

/// Runs one shard to completion (the unit the runner parallelises).
pub fn run_shard(spec: &FleetSpec, shard: u64) -> FleetStats {
    ShardEngine::new(spec, shard).run().0
}

/// Runs one shard in replay mode.
///
/// # Panics
///
/// `arrivals` must already be
/// [validated](ReplayArrivals::validate_for) against `spec` — an
/// arrival set covering fewer channels than the spec simulates panics
/// on an out-of-bounds channel lookup. The fleet-level entry points
/// ([`run_replay`], [`run_until`], [`extend_replay`]) validate first and
/// return a typed [`ReplayError`] instead.
pub fn run_shard_replay(spec: &FleetSpec, shard: u64, arrivals: &ReplayArrivals) -> FleetStats {
    ShardEngine::new_replay(spec, shard, arrivals).run().0
}

/// Runs the whole fleet on up to `threads` workers and returns the merged
/// aggregate.
pub fn run_fleet(threads: usize, spec: &FleetSpec) -> FleetStats {
    let start = FleetCheckpoint::start(spec);
    run_span(threads, spec, None, start, u64::MAX, &mut NoopRecorder).stats
}

/// [`run_fleet`] plus a deterministic metric snapshot (`fleet.*` event
/// counts). The snapshot is schedule-invariant: any `threads` value
/// yields byte-identical metrics, and merging the snapshots of a split
/// run ([`run_until`]) reproduces the one-shot snapshot — the same
/// contract the stats themselves carry.
pub fn run_fleet_observed(threads: usize, spec: &FleetSpec) -> (FleetStats, MetricsSnapshot) {
    let start = FleetCheckpoint::start(spec);
    let mut rec = SnapshotRecorder::new();
    let done = run_span(threads, spec, None, start, u64::MAX, &mut rec);
    (done.stats, rec.into_snapshot())
}

/// Replays an observed arrival set through the fleet engine: logged
/// arrivals in `(time, seq)` order, detection/upgrade/policy simulated.
///
/// # Errors
///
/// Returns a [`ReplayError`] when `arrivals` does not cover `spec`'s
/// channels or names populations outside its mix.
pub fn run_replay(
    threads: usize,
    spec: &FleetSpec,
    arrivals: &ReplayArrivals,
) -> Result<FleetStats, ReplayError> {
    let start = FleetCheckpoint::start_replay(spec, arrivals);
    let noop = &mut NoopRecorder;
    Ok(run_until(threads, spec, Some(arrivals), start, u64::MAX, noop)?.stats)
}

/// Runs shards `[ckpt.shards_done, until)` of a synthetic run
/// (`arrivals` is `None`) or a replay run (`Some`), records each shard's
/// [`EngineMetrics`](crate::EngineMetrics) into `rec` in shard order,
/// and returns the extended checkpoint.
///
/// `until` is clamped to the shard count, so `u64::MAX` runs to
/// completion, and an `until` at or below `ckpt.shards_done` returns the
/// checkpoint unchanged. Feeding the result back in with a larger
/// `until` continues the same run: the stats come out bit-identical to a
/// one-shot run, and the snapshots the spans record merge to the
/// one-shot snapshot. Start a synthetic run from
/// [`FleetCheckpoint::start`] and a replay run from
/// [`FleetCheckpoint::start_replay`].
///
/// A durable run is three calls per step: [`FleetCheckpoint::load`]
/// (or a fresh start when no file exists), `run_until`, and
/// [`FleetCheckpoint::write_atomic`]. Call `run_until` before trusting
/// even a finished file: that call is what checks it belongs to the run.
///
/// # Errors
///
/// [`ReplayError::CheckpointMismatch`] when `ckpt` belongs to another
/// run. A synthetic run expects [`FleetSpec::fingerprint`] and a replay
/// run [`ReplayArrivals::run_fingerprint`], so a checkpoint of one
/// source never resumes the other. A replay run also returns the
/// [`ReplayArrivals::validate_for`] errors.
pub fn run_until(
    threads: usize,
    spec: &FleetSpec,
    arrivals: Option<&ReplayArrivals>,
    ckpt: FleetCheckpoint,
    until: u64,
    rec: &mut dyn Recorder,
) -> Result<FleetCheckpoint, ReplayError> {
    let expected = match arrivals {
        Some(arrivals) => {
            arrivals.validate_for(spec)?;
            arrivals.run_fingerprint(spec)
        }
        None => spec.fingerprint(),
    };
    if ckpt.fingerprint != expected {
        return Err(ReplayError::CheckpointMismatch {
            expected: ckpt.fingerprint,
            actual: expected,
        });
    }
    Ok(run_span(threads, spec, arrivals, ckpt, until, rec))
}

/// Extends a checkpointed replay run whose arrival set has *grown*
/// ([`ReplayArrivals::extend`]) since the checkpoint was taken: verifies
/// that `ckpt` is the prefix of `arrivals` it claims to be (the prefix
/// run fingerprint of its first `shards_done` shards), runs every newly
/// **complete** shard, and returns the checkpoint re-stamped for the new
/// covered prefix. Repeated calls as segments land cost the same total
/// simulation work as one one-shot [`run_replay`] of the final log. This
/// is [`extend_replays`] over one run.
///
/// The trailing partial shard — channels past the last complete shard
/// boundary — is deliberately *not* folded in: a shard's spare pool
/// couples its channels, so a partially populated shard cannot be run
/// now and topped up later. Aggregate the tail on demand with
/// [`run_shard_replay`] (shard id `ckpt.shards_done`) and merge it into
/// a *copy* of `ckpt.stats`; the digital-twin service in `arcc-serve`
/// does exactly that per query.
///
/// Start a fresh twin from [`FleetCheckpoint::start_twin`]; fork a
/// counterfactual by starting a twin under a different policy spec and
/// extending it over the same arrivals.
///
/// # Errors
///
/// [`ReplayError::CheckpointMismatch`] when `ckpt` does not carry the
/// prefix fingerprint of its `shards_done` shards over (`spec`,
/// `arrivals`) — a checkpoint from a different log or spec, or one
/// claiming more complete shards than the set holds (reported against
/// the full-set fingerprint) — plus the [`run_replay`] validations.
pub fn extend_replay(
    threads: usize,
    spec: &FleetSpec,
    arrivals: &ReplayArrivals,
    ckpt: FleetCheckpoint,
) -> Result<FleetCheckpoint, ReplayError> {
    let mut ckpt = ckpt;
    extend_replays(threads, arrivals, &mut [(spec, &mut ckpt)])?;
    Ok(ckpt)
}

/// [`extend_replay`] for several runs over one arrival set at once — a
/// twin's branches, each a `(spec, checkpoint)` pair — in one
/// [`fold_in_order`] call, so the workers stay busy across runs instead
/// of idling at the end of each.
///
/// Every run is checked first, in slice order, as [`extend_replay`]
/// checks it. Then every run's newly complete shards, run by run and in
/// shard order within each, go through a single fold that merges each
/// shard into its own run's checkpoint. Each checkpoint therefore comes
/// out bit-identical to its own [`extend_replay`] call, whatever
/// `threads` is. Returns the number of shards run, over every run.
///
/// # Errors
///
/// The error of the first run, in slice order, that [`extend_replay`]
/// would refuse. No checkpoint is changed then, so a failed call leaves
/// every run as it was.
pub fn extend_replays(
    threads: usize,
    arrivals: &ReplayArrivals,
    runs: &mut [(&FleetSpec, &mut FleetCheckpoint)],
) -> Result<u64, ReplayError> {
    let mut stamps = Vec::with_capacity(runs.len());
    let mut ran = 0;
    for (spec, ckpt) in runs.iter() {
        arrivals.validate_for(spec)?;
        let shard = u64::from(spec.shard_channels);
        let complete = spec.channels / shard;
        let expected = if ckpt.shards_done > complete {
            arrivals.run_fingerprint(spec)
        } else {
            arrivals.run_fingerprint_prefix(spec, ckpt.shards_done * shard)
        };
        if ckpt.shards_done > complete || ckpt.fingerprint != expected {
            return Err(ReplayError::CheckpointMismatch {
                expected: ckpt.fingerprint,
                actual: expected,
            });
        }
        ran += complete - ckpt.shards_done;
        stamps.push((
            arrivals.run_fingerprint_prefix(spec, complete * shard),
            complete,
        ));
    }
    let mut spans: Vec<Span<'_>> = runs
        .iter_mut()
        .zip(stamps)
        .map(|((spec, ckpt), (fingerprint, complete))| {
            ckpt.fingerprint = fingerprint;
            Span {
                spec,
                ckpt,
                until: complete,
            }
        })
        .collect();
    run_spans(threads, Some(arrivals), &mut spans, &mut NoopRecorder);
    Ok(ran)
}

/// One run's part of a [`run_spans`] call: its spec, the checkpoint the
/// span extends in place, and the shard it stops before (clamped to the
/// spec's shard count).
struct Span<'a> {
    spec: &'a FleetSpec,
    ckpt: &'a mut FleetCheckpoint,
    until: u64,
}

/// [`run_spans`] over one span, returning its extended checkpoint.
fn run_span(
    threads: usize,
    spec: &FleetSpec,
    arrivals: Option<&ReplayArrivals>,
    mut ckpt: FleetCheckpoint,
    until: u64,
    rec: &mut dyn Recorder,
) -> FleetCheckpoint {
    let span = Span {
        spec,
        ckpt: &mut ckpt,
        until,
    };
    run_spans(threads, arrivals, &mut [span], rec);
    ckpt
}

/// The span loop behind every entry point: runs each span's shards
/// `[ckpt.shards_done, until)`, span after span, through one
/// [`fold_in_order`] call, and folds every shard's stats into its own
/// span's checkpoint and its metrics into `rec`, in that order. Neither
/// depends on `threads`, on how a run is split into spans, or on which
/// other spans share the call.
fn run_spans(
    threads: usize,
    arrivals: Option<&ReplayArrivals>,
    spans: &mut [Span<'_>],
    rec: &mut dyn Recorder,
) {
    // The spans' first shards, and where each span starts in the fold's
    // index space.
    let mut firsts = Vec::with_capacity(spans.len());
    let mut starts = Vec::with_capacity(spans.len());
    let mut count = 0;
    for span in spans.iter() {
        let first = span.ckpt.shards_done;
        firsts.push((span.spec, first));
        starts.push(count);
        count += span
            .until
            .min(span.spec.shard_count())
            .saturating_sub(first) as usize;
    }
    let locate = |i: usize| {
        let k = starts.partition_point(|&start| start <= i) - 1;
        (k, i - starts[k])
    };
    let ahead = threads.max(1) * WINDOW_FACTOR;
    let run = |i: usize| {
        let (k, offset) = locate(i);
        let (spec, first) = firsts[k];
        let shard = first + offset as u64;
        let engine = match arrivals {
            Some(arrivals) => ShardEngine::new_replay(spec, shard, arrivals),
            None => ShardEngine::new(spec, shard),
        };
        (k, engine.run())
    };
    let folded = fold_in_order(threads, count, ahead, run, |(k, (stats, metrics))| {
        let ckpt = &mut spans[k].ckpt;
        ckpt.stats.merge(&stats);
        metrics.record_into(rec);
        ckpt.shards_done += 1;
        Ok::<(), Infallible>(())
    });
    let Ok(()) = folded;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::PersistError;
    use crate::source::ArrivalCsr;
    use crate::spec::{DimmPopulation, OperatorPolicy};
    use std::path::{Path, PathBuf};

    fn spec() -> FleetSpec {
        // 5 shards, one partial; hot rates so every counter moves.
        FleetSpec::baseline(2_100)
            .populations(vec![DimmPopulation::paper("hot").rate_multiplier(8.0)])
            .shard_channels(512)
            .seed(0xBEEF)
    }

    /// [`run_until`] without a recorder.
    fn until(
        threads: usize,
        spec: &FleetSpec,
        arrivals: Option<&ReplayArrivals>,
        ckpt: FleetCheckpoint,
        until: u64,
    ) -> Result<FleetCheckpoint, ReplayError> {
        run_until(threads, spec, arrivals, ckpt, until, &mut NoopRecorder)
    }

    #[test]
    fn parallel_equals_sequential_bit_for_bit() {
        let s = spec();
        let seq = run_fleet(1, &s);
        let par = run_fleet(8, &s);
        assert_eq!(seq, par);
        assert_eq!(
            seq.channel_hours.to_bits(),
            par.channel_hours.to_bits(),
            "float sums must fold in shard order regardless of parallelism"
        );
        assert_eq!(seq.channels, 2_100);
        assert!(seq.faults > 0);
    }

    #[test]
    fn fleet_equals_manual_shard_merge() {
        let s = spec();
        let fleet = run_fleet(4, &s);
        let mut manual = FleetStats::empty(s.epochs(), s.populations.len());
        for shard in 0..s.shard_count() {
            manual.merge(&run_shard(&s, shard));
        }
        assert_eq!(fleet, manual);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let s = spec();
        let full = run_fleet(4, &s);
        // Stop after 2 shards, round-trip through text, resume.
        let half = until(4, &s, None, FleetCheckpoint::start(&s), 2).expect("prefix");
        assert_eq!(half.shards_done, 2);
        let parsed = FleetCheckpoint::from_text(&half.to_text()).expect("round trip");
        let resumed = until(4, &s, None, parsed, u64::MAX).expect("resume");
        assert_eq!(resumed.stats, full);
    }

    #[test]
    fn mismatched_checkpoint_is_refused() {
        let s = spec();
        let other = s.clone().seed(1);
        assert_eq!(
            until(1, &s, None, FleetCheckpoint::start(&other), u64::MAX),
            Err(ReplayError::CheckpointMismatch {
                expected: other.fingerprint(),
                actual: s.fingerprint(),
            })
        );
    }

    #[test]
    fn until_clamps_to_shard_count() {
        let s = spec();
        let done = until(2, &s, None, FleetCheckpoint::start(&s), 999).expect("run");
        assert_eq!(done.shards_done, s.shard_count());
        assert_eq!(done.stats, run_fleet(2, &s));
    }

    use arcc_faults::montecarlo::FaultSampler;
    use arcc_faults::{FaultGeometry, FitRates};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Hand-built observed arrivals: `faults_at[c]` lists channel `c`'s
    /// arrival times.
    fn arrivals_at(channels: u64, faults_at: &[(u64, &[f64])]) -> ReplayArrivals {
        let sampler = FaultSampler::new(FaultGeometry::paper_channel(), FitRates::sridharan_sc12());
        let mut per_channel = vec![Vec::new(); channels as usize];
        let mut rng = StdRng::seed_from_u64(0xD1A6);
        for (c, times) in faults_at {
            for &t in *times {
                per_channel[*c as usize].push(sampler.draw_fault(&mut rng, t));
            }
        }
        ReplayArrivals::new(vec![0; channels as usize], per_channel).expect("valid arrivals")
    }

    #[test]
    fn replay_delivers_logged_arrivals_and_truncates_at_horizon() {
        // 700 channels over 2 shards; three observed faults, one of them
        // past the 7-year horizon (must be ignored, not an error).
        let s = FleetSpec::baseline(700).shard_channels(512).seed(3);
        let horizon = s.horizon_hours();
        let arrivals = arrivals_at(700, &[(3, &[100.0, 2000.0]), (600, &[50.0, horizon + 5.0])]);
        let stats = run_replay(2, &s, &arrivals).expect("replay");
        assert_eq!(stats.channels, 700);
        assert_eq!(stats.faults, 3, "in-horizon logged arrivals only");
        assert_eq!(stats.channels_with_faults, 2);
        assert_eq!(stats.populations[0].channels, 700);
        // Replay is deterministic and thread-count-independent.
        let again = run_replay(1, &s, &arrivals).expect("replay");
        assert!(stats.bitwise_eq(&again));
    }

    #[test]
    fn replay_checkpoint_round_trips_and_refuses_the_other_source() {
        let s = FleetSpec::baseline(700).shard_channels(256).seed(9);
        let arrivals = arrivals_at(700, &[(1, &[10.0, 11.0, 12.0]), (400, &[99.5])]);
        let full = run_replay(2, &s, &arrivals).expect("replay");
        let start = FleetCheckpoint::start_replay(&s, &arrivals);
        let half = until(2, &s, Some(&arrivals), start.clone(), 1).expect("prefix");
        assert_eq!(half.shards_done, 1);
        let parsed = FleetCheckpoint::from_text(&half.to_text()).expect("round trip");
        let resumed = until(2, &s, Some(&arrivals), parsed, u64::MAX).expect("resume");
        assert!(resumed.stats.bitwise_eq(&full));
        // A synthetic checkpoint must not resume a replay run...
        assert_eq!(
            until(1, &s, Some(&arrivals), FleetCheckpoint::start(&s), u64::MAX),
            Err(ReplayError::CheckpointMismatch {
                expected: s.fingerprint(),
                actual: arrivals.run_fingerprint(&s),
            })
        );
        // ...nor a replay checkpoint a synthetic run...
        assert_eq!(
            until(1, &s, None, start, u64::MAX),
            Err(ReplayError::CheckpointMismatch {
                expected: arrivals.run_fingerprint(&s),
                actual: s.fingerprint(),
            })
        );
        // ...and a replay set of the wrong width is refused outright.
        let narrow = arrivals_at(500, &[]);
        assert!(matches!(
            run_replay(1, &s, &narrow),
            Err(ReplayError::ChannelCountMismatch {
                spec: 700,
                arrivals: 500
            })
        ));
    }

    #[test]
    fn incremental_extension_matches_one_shot_replay() {
        // A 700-channel log lands in three segments (300 + 250 + 150)
        // over 256-channel shards; extending after each segment must
        // reproduce the one-shot replay bit for bit, running each
        // complete shard exactly once.
        let sampler = FaultSampler::new(FaultGeometry::paper_channel(), FitRates::sridharan_sc12());
        let mut rng = StdRng::seed_from_u64(0x7117);
        let mut stream = |n: usize, faults: &[(usize, f64)]| {
            let mut per = vec![Vec::new(); n];
            for &(c, t) in faults {
                per[c].push(sampler.draw_fault(&mut rng, t));
            }
            per
        };
        let seg_a = stream(300, &[(3, 100.0), (3, 2000.0), (120, 50.0)]);
        let seg_b = stream(250, &[(10, 7.0), (200, 30_000.0)]);
        let seg_c = stream(150, &[(0, 1.5), (149, 61_000.0)]);
        let spec_for = |channels: u64| FleetSpec::baseline(channels).shard_channels(256).seed(21);

        // One-shot ground truth over the concatenated log.
        let mut all = seg_a.clone();
        all.extend(seg_b.iter().cloned());
        all.extend(seg_c.iter().cloned());
        let full_spec = spec_for(700);
        let oneshot = ReplayArrivals::new(vec![0; 700], all).expect("arrivals");
        let truth = run_replay(2, &full_spec, &oneshot).expect("one-shot");

        // Incremental: start a twin, extend per segment.
        let mut arrivals = ReplayArrivals::new(Vec::new(), Vec::new()).expect("empty");
        let mut ckpt = FleetCheckpoint::start_twin(&spec_for(0), &arrivals);
        let mut shard_runs = Vec::new();
        for seg in [seg_a, seg_b, seg_c] {
            let n = seg.len();
            arrivals
                .extend(vec![0; n], ArrivalCsr::from_streams(seg))
                .expect("extend arrivals");
            let spec = spec_for(arrivals.channels());
            ckpt = extend_replay(2, &spec, &arrivals, ckpt).expect("extend replay");
            shard_runs.push(ckpt.shards_done);
        }
        // 300 → 1 complete shard, 550 → 2, 700 → 2 (tail of 188 pending).
        assert_eq!(shard_runs, vec![1, 2, 2]);
        // Fold the pending tail shard on demand.
        let mut stats = ckpt.stats.clone();
        stats.merge(&run_shard_replay(&full_spec, ckpt.shards_done, &oneshot));
        assert!(stats.bitwise_eq(&truth), "incremental != one-shot");

        // Counterfactual fork: a twin under a different policy, extended
        // over the same arrivals, equals that policy's one-shot replay.
        let forked_spec = full_spec.clone().policy(OperatorPolicy::ReplaceOnDue);
        let fork = FleetCheckpoint::start_twin(&forked_spec, &arrivals);
        let fork = extend_replay(2, &forked_spec, &arrivals, fork).expect("fork extend");
        let mut fork_stats = fork.stats.clone();
        fork_stats.merge(&run_shard_replay(&forked_spec, fork.shards_done, &oneshot));
        let fork_truth = run_replay(2, &forked_spec, &oneshot).expect("fork one-shot");
        assert!(fork_stats.bitwise_eq(&fork_truth));
    }

    /// A run of [`extend_replays`]: its spec and its checkpoint.
    type Run = (FleetSpec, FleetCheckpoint);

    /// The spec of every run in [`staggered_runs`].
    fn staggered_spec(channels: u64, policy: OperatorPolicy) -> FleetSpec {
        FleetSpec::baseline(channels)
            .shard_channels(64)
            .seed(33)
            .policy(policy)
    }

    /// Runs of one growing twin log, each taken at a different length:
    /// the final 700-channel arrival set over 64-channel shards (10
    /// complete), and four runs over it under three policies, at 4, 8,
    /// 10 and 0 shards done. The run at 10 has nothing left to run.
    fn staggered_runs() -> (ReplayArrivals, Vec<Run>) {
        let sampler = FaultSampler::new(FaultGeometry::paper_channel(), FitRates::sridharan_sc12());
        let mut rng = StdRng::seed_from_u64(0x5A66);
        let mut segment = |n: usize| {
            let per: Vec<Vec<_>> = (0..n)
                .map(|c| match c % 7 {
                    0 => vec![sampler.draw_fault(&mut rng, 40.0 + c as f64)],
                    3 => vec![
                        sampler.draw_fault(&mut rng, 5.0),
                        sampler.draw_fault(&mut rng, 9_000.0 + c as f64),
                    ],
                    _ => Vec::new(),
                })
                .collect();
            ArrivalCsr::from_streams(per)
        };
        let policies = [
            OperatorPolicy::None,
            OperatorPolicy::SparePool { spares_per_10k: 50 },
            OperatorPolicy::ReplaceOnDue,
            OperatorPolicy::SparePool { spares_per_10k: 20 },
        ];
        let mut arrivals = ReplayArrivals::default();
        let mut runs = Vec::new();
        // Run k is started and extended once the log holds `taken[k]`
        // channels, then left behind while the log grows.
        for (n, taken) in [(300, &[0][..]), (250, &[1]), (150, &[2, 3])] {
            arrivals.extend(vec![0; n], segment(n)).expect("segment");
            for &k in taken {
                let spec = staggered_spec(arrivals.channels(), policies[k]);
                let start = FleetCheckpoint::start_twin(&spec, &arrivals);
                let ckpt = if k == 3 {
                    start
                } else {
                    extend_replay(1, &spec, &arrivals, start).expect("extend")
                };
                runs.push((spec, ckpt));
            }
        }
        for (spec, _) in &mut runs {
            spec.channels = arrivals.channels();
        }
        let done: Vec<u64> = runs.iter().map(|(_, c)| c.shards_done).collect();
        assert_eq!(done, vec![4, 8, 10, 0]);
        (arrivals, runs)
    }

    /// [`extend_replay`] over each run in turn, stopping at the first
    /// error: the per-run loop [`extend_replays`] must match.
    fn one_by_one(
        arrivals: &ReplayArrivals,
        runs: &[Run],
    ) -> Result<Vec<FleetCheckpoint>, ReplayError> {
        runs.iter()
            .map(|(spec, ckpt)| extend_replay(1, spec, arrivals, ckpt.clone()))
            .collect()
    }

    /// [`extend_replays`] over copies of `runs`: the checkpoints after
    /// the call, and its result.
    fn all_at_once(
        threads: usize,
        arrivals: &ReplayArrivals,
        runs: &[Run],
    ) -> (Vec<FleetCheckpoint>, Result<u64, ReplayError>) {
        let mut ckpts: Vec<FleetCheckpoint> = runs.iter().map(|(_, c)| c.clone()).collect();
        let mut pairs: Vec<_> = runs.iter().map(|(s, _)| s).zip(&mut ckpts).collect();
        let result = extend_replays(threads, arrivals, &mut pairs);
        (ckpts, result)
    }

    #[test]
    fn extending_runs_together_equals_extending_each_in_turn() {
        let (arrivals, runs) = staggered_runs();
        let want = one_by_one(&arrivals, &runs).expect("every run extends");
        let ran: u64 = want
            .iter()
            .zip(&runs)
            .map(|(after, (_, before))| after.shards_done - before.shards_done)
            .sum();
        // Run 2 has no shard left to run.
        assert_eq!(ran, 6 + 2 + 10);
        for threads in [1, 2, 8] {
            let (got, result) = all_at_once(threads, &arrivals, &runs);
            assert_eq!(result, Ok(ran), "threads={threads}");
            for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_text(), b.to_text(), "run {k}, threads={threads}");
                assert!(a.stats.bitwise_eq(&b.stats), "run {k}, threads={threads}");
            }
        }
    }

    #[test]
    fn extending_runs_together_fails_as_the_first_run_in_turn_fails() {
        let (arrivals, runs) = staggered_runs();
        // Run 1 carries a foreign fingerprint and run 3 a spec narrower
        // than the log; then run 3 alone is wrong.
        let mut both = runs.clone();
        both[1].1.fingerprint ^= 1;
        both[3].0 = staggered_spec(640, OperatorPolicy::None);
        let mut last = runs.clone();
        last[3].0 = staggered_spec(640, OperatorPolicy::None);
        for broken in [both, last] {
            let want = one_by_one(&arrivals, &broken).expect_err("a run is refused");
            for threads in [1, 2, 8] {
                let (got, result) = all_at_once(threads, &arrivals, &broken);
                assert_eq!(result, Err(want.clone()), "threads={threads}");
                let untouched: Vec<_> = broken.iter().map(|(_, c)| c.clone()).collect();
                assert_eq!(got, untouched, "no run may move, threads={threads}");
            }
        }
    }

    #[test]
    fn extend_refuses_foreign_and_overrun_checkpoints() {
        let arrivals = arrivals_at(700, &[(1, &[10.0]), (400, &[99.5])]);
        let s = FleetSpec::baseline(700).shard_channels(256).seed(5);
        // A twin from a different seed is a typed mismatch, not a panic.
        let foreign = FleetCheckpoint::start_twin(&s.clone().seed(6), &arrivals);
        assert!(matches!(
            extend_replay(1, &s, &arrivals, foreign),
            Err(ReplayError::CheckpointMismatch { .. })
        ));
        // A checkpoint claiming more complete shards than the arrival
        // set holds is refused the same way.
        let mut overrun = FleetCheckpoint::start_twin(&s, &arrivals);
        overrun.shards_done = 99;
        assert!(matches!(
            extend_replay(1, &s, &arrivals, overrun),
            Err(ReplayError::CheckpointMismatch { .. })
        ));
        // A fully-extended checkpoint extends again as a no-op.
        let ckpt = extend_replay(2, &s, &arrivals, FleetCheckpoint::start_twin(&s, &arrivals))
            .expect("extend");
        assert_eq!(ckpt.shards_done, 2);
        let again = extend_replay(2, &s, &arrivals, ckpt.clone()).expect("re-extend");
        assert_eq!(again, ckpt);
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("arcc-fleet-{}-{name}", std::process::id()))
    }

    /// The durable loop a caller writes around [`run_until`]: resume
    /// whatever checkpoint `path` holds (or start fresh), then advance
    /// `every` shards at a time, persisting each step atomically. The
    /// first step always runs, so a finished file is still checked
    /// against the run before its stats are returned.
    fn run_durable(
        threads: usize,
        spec: &FleetSpec,
        arrivals: Option<&ReplayArrivals>,
        path: &Path,
        every: u64,
    ) -> Result<FleetStats, ReplayError> {
        let loaded = FleetCheckpoint::load(path).expect("readable checkpoint");
        let mut ckpt = loaded.unwrap_or_else(|| match arrivals {
            Some(arrivals) => FleetCheckpoint::start_replay(spec, arrivals),
            None => FleetCheckpoint::start(spec),
        });
        loop {
            let next = ckpt.shards_done + every;
            ckpt = until(threads, spec, arrivals, ckpt, next)?;
            ckpt.write_atomic(path).expect("write checkpoint");
            if ckpt.shards_done == spec.shard_count() {
                return Ok(ckpt.stats);
            }
        }
    }

    #[test]
    fn checkpointed_run_persists_and_resumes_from_disk() {
        let s = spec();
        let path = temp_path("persist.ckpt");
        let _ = std::fs::remove_file(&path);
        let full = run_fleet(4, &s);
        // A "killed" run: two shards done, checkpoint flushed to disk. A
        // fresh process loads the file and finishes the run.
        let partial = until(4, &s, None, FleetCheckpoint::start(&s), 2).expect("prefix");
        partial.write_atomic(&path).expect("write");
        let loaded = FleetCheckpoint::load(&path).expect("load").expect("exists");
        let done = until(4, &s, None, loaded, u64::MAX).expect("resume from disk");
        assert_eq!(done.stats, full);
        // A finished file runs nothing more and returns the same stats.
        done.write_atomic(&path).expect("write");
        assert_eq!(run_durable(4, &s, None, &path, 1), Ok(full));
        // A different spec must refuse the file, not silently restart.
        let other = s.clone().seed(1);
        assert_eq!(
            run_durable(1, &other, None, &path, 1),
            Err(ReplayError::CheckpointMismatch {
                expected: s.fingerprint(),
                actual: other.fingerprint(),
            })
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn checkpointed_run_from_scratch_matches_and_gates_garbage() {
        let s = spec();
        let path = temp_path("scratch.ckpt");
        let _ = std::fs::remove_file(&path);
        // From scratch, flushing every two shards; no tmp file is left.
        assert_eq!(run_durable(2, &s, None, &path, 2), Ok(run_fleet(2, &s)));
        let tmp = PathBuf::from(format!("{}.tmp.{}", path.display(), std::process::id()));
        assert!(!tmp.exists(), "atomic write must rename its tmp file away");
        // Garbage at the path is a parse error, never a silent restart.
        std::fs::write(&path, "definitely not a checkpoint").expect("write garbage");
        assert!(matches!(
            FleetCheckpoint::load(&path),
            Err(PersistError::Parse(_))
        ));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn replay_checkpointed_run_persists_with_mixed_fingerprint() {
        let s = FleetSpec::baseline(700).shard_channels(256).seed(11);
        let arrivals = arrivals_at(700, &[(2, &[40.0]), (300, &[1.0, 2.0])]);
        let path = temp_path("replay.ckpt");
        let _ = std::fs::remove_file(&path);
        let direct = run_replay(2, &s, &arrivals).expect("replay");
        let persisted = run_durable(2, &s, Some(&arrivals), &path, 1).expect("persisted");
        assert!(direct.bitwise_eq(&persisted));
        // A synthetic run must refuse the replay checkpoint file.
        assert!(matches!(
            run_durable(1, &s, None, &path, 1),
            Err(ReplayError::CheckpointMismatch { .. })
        ));
        std::fs::remove_file(&path).expect("cleanup");
    }
}
