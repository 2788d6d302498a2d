//! Checkpoint compatibility pins.
//!
//! The scheme-zoo refactor added `scheme` and `large_fault_multiplier`
//! to [`DimmPopulation`]. Checkpoints identify their spec by
//! [`FleetSpec::fingerprint`], so these tests pin the fingerprints of
//! three specs that shipped *before* the zoo existed — if any pin moves,
//! every checkpoint written by an earlier release refuses to resume.
//!
//! Replay checkpoints also carry the arrival-set fingerprint. Version 2
//! folds each channel once into a rolling state; the v2 value of a fixed
//! arrival set is pinned here, and checkpoints stamped with its version 1
//! value must be refused with typed errors, never resumed.

use arcc_core::splitmix64;
use arcc_faults::{AddressSet, DimSel, FaultEvent, FaultMode};
use arcc_fleet::{
    extend_replay, run_fleet, run_replay, run_until, ArrivalCsr, DimmPopulation, FleetCheckpoint,
    FleetSpec, OperatorPolicy, ReplayArrivals, ReplayError,
};
use arcc_obs::NoopRecorder;

/// [`run_until`] with no recorder: runs `ckpt` on to shard `until`.
fn resume(
    spec: &FleetSpec,
    arrivals: Option<&ReplayArrivals>,
    ckpt: FleetCheckpoint,
    until: u64,
) -> Result<FleetCheckpoint, ReplayError> {
    run_until(2, spec, arrivals, ckpt, until, &mut NoopRecorder)
}

/// The mixed-population spec used by the `arcc-serve` golden session.
fn serve_mixed_spec() -> FleetSpec {
    FleetSpec::baseline(80)
        .populations(vec![
            DimmPopulation::paper("hot").rate_multiplier(55.0),
            DimmPopulation::paper("cold").rate_multiplier(12.0),
        ])
        .shard_channels(32)
        .seed(0xC0FFEE)
}

/// A spare-pool spec exercised by the PR 6 checkpoint tests.
fn sparepool_spec() -> FleetSpec {
    FleetSpec::baseline(4096)
        .years(3.0)
        .seed(99)
        .policy(OperatorPolicy::SparePool { spares_per_10k: 25 })
}

#[test]
fn pre_zoo_fingerprints_are_pinned() {
    // Captured on the commit immediately before the scheme-zoo refactor.
    assert_eq!(FleetSpec::baseline(1000).fingerprint(), 0x233bdbdd3aedf881);
    assert_eq!(serve_mixed_spec().fingerprint(), 0x77216f07ac8b409d);
    assert_eq!(sparepool_spec().fingerprint(), 0xd9571daf54fa78dc);
}

#[test]
fn pre_zoo_checkpoint_text_loads_and_resumes() {
    // A checkpoint written before the refactor is byte-identical to one
    // written today for the same (default-scheme) spec: same fingerprint,
    // same stats layout. Serialise a partial run, re-parse it, and resume
    // — and make sure the text really carries the pre-zoo fingerprint.
    let spec = serve_mixed_spec();
    let partial = resume(&spec, None, FleetCheckpoint::start(&spec), 1).expect("partial run");
    assert_eq!(partial.shards_done, 1);
    let text = partial.to_text();
    assert!(
        text.contains(&format!("{:016x}", 0x77216f07ac8b409du64)),
        "checkpoint text must carry the pre-zoo fingerprint:\n{text}"
    );
    let reloaded = FleetCheckpoint::from_text(&text).expect("reload");
    let resumed = resume(&spec, None, reloaded, u64::MAX).expect("resume");
    assert_eq!(resumed.stats, run_fleet(2, &spec));
}

#[test]
fn zoo_specs_refuse_pre_zoo_checkpoints() {
    // The flip side: a population that *does* use a zoo scheme must not
    // accept a default-scheme checkpoint (the histories differ).
    let old = serve_mixed_spec();
    let ckpt = FleetCheckpoint::start(&old);
    let new = old.clone().populations(vec![
        DimmPopulation::paper("hot")
            .rate_multiplier(55.0)
            .scheme("sccdcd"),
        DimmPopulation::paper("cold").rate_multiplier(12.0),
    ]);
    assert_ne!(ckpt.fingerprint, new.fingerprint());
    assert_eq!(
        resume(&new, None, ckpt, 1),
        Err(ReplayError::CheckpointMismatch {
            expected: old.fingerprint(),
            actual: new.fingerprint(),
        })
    );
}

/// The version 1 `fingerprint()` of [`pinned_arrivals`], captured on the
/// last commit that folded arrival sets that way.
const V1_ARRIVALS_FINGERPRINT: u64 = 0x86df_2b14_84f2_070f;

/// The version 2 `fingerprint()` of [`pinned_arrivals`].
const V2_ARRIVALS_FINGERPRINT: u64 = 0x1543_12b0_0a9c_cbca;

fn event(
    time_h: f64,
    mode: FaultMode,
    rank: Option<u32>,
    device_pos: u32,
    set: AddressSet,
) -> FaultEvent {
    FaultEvent {
        time_h,
        mode,
        transient: false,
        rank,
        device_pos,
        set,
    }
}

/// A small arrival set built by hand, so the pins depend on no RNG.
fn pinned_arrivals() -> ReplayArrivals {
    let one = |banks: u64, rows: u64, cols: u64| AddressSet {
        banks: DimSel::One(banks),
        rows: DimSel::One(rows),
        cols: DimSel::One(cols),
    };
    ReplayArrivals::new(
        vec![0, 1, 1, 0],
        vec![
            vec![
                FaultEvent {
                    transient: true,
                    ..event(12.5, FaultMode::SingleBit, Some(0), 3, one(2, 1007, 55))
                },
                event(
                    4_000.25,
                    FaultMode::SingleColumn,
                    Some(1),
                    17,
                    AddressSet {
                        banks: DimSel::One(5),
                        rows: DimSel::All,
                        cols: DimSel::Half(1),
                    },
                ),
            ],
            vec![],
            vec![event(
                61_000.0,
                FaultMode::MultiRank,
                None,
                35,
                AddressSet::all(),
            )],
            vec![event(
                300.0,
                FaultMode::SingleRow,
                Some(0),
                0,
                AddressSet {
                    cols: DimSel::All,
                    ..one(7, 31_000, 0)
                },
            )],
        ],
    )
    .expect("valid arrivals")
}

/// Two populations over `channels` channels in 2-channel shards.
fn pinned_spec(channels: u64) -> FleetSpec {
    FleetSpec::baseline(channels)
        .populations(vec![DimmPopulation::paper("a"), DimmPopulation::paper("b")])
        .shard_channels(2)
        .seed(0x5EED)
}

/// What a version 1 build stamped into a replay checkpoint of
/// [`pinned_arrivals`] under `spec`: the spec and arrival fingerprints
/// mixed, exactly as `run_fingerprint` mixes them.
fn v1_run_fingerprint(spec: &FleetSpec) -> u64 {
    splitmix64(spec.fingerprint() ^ V1_ARRIVALS_FINGERPRINT)
}

#[test]
fn arrival_fingerprint_v2_is_pinned() {
    let arrivals = pinned_arrivals();
    assert_eq!(arrivals.fingerprint(), V2_ARRIVALS_FINGERPRINT);
    assert_ne!(arrivals.fingerprint(), V1_ARRIVALS_FINGERPRINT);
    // The spec half of the mix did not move.
    assert_eq!(pinned_spec(4).fingerprint(), 0x5d19_8f41_c77f_d695);
}

#[test]
fn v1_stamped_replay_checkpoints_are_refused_not_resumed() {
    let arrivals = pinned_arrivals();
    let spec = pinned_spec(4);
    let v1 = v1_run_fingerprint(&spec);
    assert_ne!(v1, arrivals.run_fingerprint(&spec));

    // A half-done replay checkpoint written by a version 1 build.
    let start = FleetCheckpoint::start_replay(&spec, &arrivals);
    let mut partial = resume(&spec, Some(&arrivals), start, 1).expect("partial run");
    partial.fingerprint = v1;
    assert_eq!(
        resume(&spec, Some(&arrivals), partial.clone(), u64::MAX),
        Err(ReplayError::CheckpointMismatch {
            expected: v1,
            actual: arrivals.run_fingerprint(&spec),
        })
    );

    // A twin checkpoint covering the whole set, stamped by a version 1
    // build, refuses to extend once the set grows by one channel.
    let mut twin = extend_replay(
        1,
        &spec,
        &arrivals,
        FleetCheckpoint::start_twin(&spec, &arrivals),
    )
    .expect("twin");
    assert_eq!(twin.shards_done, 2);
    twin.fingerprint = v1;
    let mut grown = arrivals.clone();
    grown
        .extend(vec![1], ArrivalCsr::from_streams(vec![vec![]]))
        .expect("grow");
    let grown_spec = pinned_spec(5);
    assert_eq!(
        extend_replay(1, &grown_spec, &grown, twin),
        Err(ReplayError::CheckpointMismatch {
            expected: v1,
            actual: grown.run_fingerprint_prefix(&grown_spec, 4),
        })
    );

    // Loaded from disk, the file is refused and left alone.
    let path = std::env::temp_dir().join(format!("arcc-compat-{}-v1.ckpt", std::process::id()));
    partial.write_atomic(&path).expect("write");
    let before = std::fs::read(&path).expect("read");
    let loaded = FleetCheckpoint::load(&path).expect("load").expect("exists");
    assert_eq!(
        resume(&spec, Some(&arrivals), loaded, u64::MAX),
        Err(ReplayError::CheckpointMismatch {
            expected: v1,
            actual: arrivals.run_fingerprint(&spec),
        })
    );
    assert_eq!(std::fs::read(&path).expect("read"), before);
    std::fs::remove_file(&path).expect("cleanup");

    // The v2 stamp of the same prefix resumes to the one-shot result.
    let mut current = partial;
    current.fingerprint = arrivals.run_fingerprint(&spec);
    let resumed = resume(&spec, Some(&arrivals), current, u64::MAX).expect("resume");
    let one_shot = run_replay(1, &spec, &arrivals).expect("one-shot");
    assert!(resumed.stats.bitwise_eq(&one_shot));
}
