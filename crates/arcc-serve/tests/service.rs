//! The digital twin's acceptance goldens: incremental ingestion matches
//! one-shot replay bit for bit, what-ifs never rerun the shared prefix,
//! memoised responses are byte-identical, and durable state survives a
//! reopen but refuses tampering with a typed error.

use std::path::{Path, PathBuf};

use arcc_fleet::{run_replay, DimmPopulation, FleetSpec, OperatorPolicy};
use arcc_replay::generate_log;
use arcc_serve::{Service, TwinEngine, BASELINE_BRANCH};

const SHARD: u32 = 64;
const SEED: u64 = 0x7315;

/// A busy little fleet: 200 channels over 64-channel shards, split into
/// three uneven ingestion segments (the last one leaves a partial tail).
fn sample() -> (arcc_replay::FaultLog, Vec<String>) {
    let spec = FleetSpec::baseline(200)
        .populations(vec![
            DimmPopulation::paper("hot").rate_multiplier(60.0),
            DimmPopulation::paper("cold").rate_multiplier(10.0),
        ])
        .shard_channels(SHARD)
        .seed(0xFEED);
    let log = generate_log(&spec);
    // split_channels gives equal chunks; splitting twice gives the
    // uneven 90 + 80 + 30 arrival pattern a real fleet would see.
    let mut segments: Vec<String> = Vec::new();
    let halves = log.split_channels(90);
    segments.push(halves[0].to_text());
    let rest = &halves[1..];
    // 90 + 80 + 30: split the 90-channel second chunk into 80 + 10-joined-with-20.
    let second = rest[0].split_channels(80);
    segments.push(second[0].to_text());
    let mut tail = second[1].clone();
    if rest.len() > 1 {
        tail.append_segment(&rest[1]).expect("tail merge");
    }
    segments.push(tail.to_text());
    (log, segments)
}

fn ingest_all(engine: &mut TwinEngine, segments: &[String]) {
    for seg in segments {
        engine.ingest(seg).expect("ingest");
    }
}

#[test]
fn incremental_ingest_matches_one_shot_replay_bit_for_bit() {
    let (log, segments) = sample();
    let mut engine = TwinEngine::new(2, SEED).shard_channels(SHARD);
    ingest_all(&mut engine, &segments);
    assert_eq!(engine.channels(), 200);
    assert_eq!(
        engine.complete_shards(),
        3,
        "200 channels over 64-channel shards"
    );

    let incremental = engine.stats(BASELINE_BRANCH).expect("stats");
    let one_shot = run_replay(
        2,
        &log.replay_spec(SEED).shard_channels(SHARD),
        &log.arrivals().expect("arrivals"),
    )
    .expect("one-shot replay");
    assert!(
        incremental.bitwise_eq(&one_shot),
        "incremental ingestion diverged from one-shot replay\n\
         incremental: {incremental:?}\none-shot: {one_shot:?}"
    );

    // The work ledger shows appends, not reruns: each complete shard was
    // simulated exactly once across all three ingests, plus the one
    // on-demand tail fold for the query.
    let c = engine.counters();
    assert_eq!(c.ingests, 3);
    assert_eq!(c.shards_run, 3 + 1);
    assert_eq!(c.queries, 1);
}

#[test]
fn whatif_runs_only_divergent_work_and_memoises_bytes() {
    let (log, segments) = sample();
    let mut service = Service::new(TwinEngine::new(2, SEED).shard_channels(SHARD));
    for seg in &segments {
        let request = format!("ingest lines={}", seg.lines().count());
        let reply = service.handle(&request, Some(seg));
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    let before = service.engine().counters();
    assert_eq!(
        before.shards_run, 3,
        "three complete shards folded by ingestion"
    );

    // Cold what-if: fork pays the divergent prefix (3 shards) plus the
    // tail fold — and nothing more. The shared baseline prefix is not
    // rerun (its 3 shards are already banked above).
    let cold = service.handle("whatif policy=replace-on-due", None);
    assert!(
        cold.starts_with("{\"ok\":true,\"cmd\":\"whatif\""),
        "{cold}"
    );
    let after_cold = service.engine().counters();
    assert_eq!(after_cold.forks, 1);
    assert_eq!(after_cold.shards_run - before.shards_run, 3 + 1);

    // Re-issue: answered from the memo table byte-identically, with no
    // simulation at all.
    let warm = service.handle("whatif policy=replace-on-due", None);
    assert_eq!(cold, warm, "cached response must be byte-identical");
    let after_warm = service.engine().counters();
    assert_eq!(after_warm.shards_run, after_cold.shards_run);
    assert_eq!(after_warm.memo_hits, 1);

    // The counterfactual answer itself is the from-zero truth.
    let mut engine = TwinEngine::new(2, SEED).shard_channels(SHARD);
    for seg in &segments {
        engine.ingest(seg).expect("ingest");
    }
    let (_, via_twin, _) = engine.whatif(OperatorPolicy::ReplaceOnDue).expect("whatif");
    let from_zero = run_replay(
        2,
        &log.replay_spec(SEED)
            .policy(OperatorPolicy::ReplaceOnDue)
            .shard_channels(SHARD),
        &log.arrivals().expect("arrivals"),
    )
    .expect("from-zero replay");
    assert!(via_twin.bitwise_eq(&from_zero));
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arcc-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Replaces the state file at `path` with a non-empty directory, which
/// no rename can replace.
fn block(path: &Path) {
    let _ = std::fs::remove_file(path);
    std::fs::create_dir_all(path.join("occupied")).expect("block");
}

/// The names in `dir`, sorted.
fn dir_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("state dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// This process's `*.tmp.<pid>` files in `dir`.
fn tmp_files(dir: &Path) -> Vec<String> {
    let suffix = format!(".tmp.{}", std::process::id());
    let mut names = dir_names(dir);
    names.retain(|name| name.ends_with(&suffix));
    names
}

/// The segment files in `dir`.
fn segment_files(dir: &Path) -> Vec<String> {
    let mut names = dir_names(dir);
    names.retain(|name| name.starts_with("segment-") && name.ends_with(".log"));
    names
}

/// The what-if policies of a six-branch twin, forked in this order.
const WHATIF: [&str; 5] = [
    "replace-on-due",
    "spare-pool:5",
    "spare-pool:10",
    "spare-pool:20",
    "spare-pool:40",
];

/// Ingests `segments` into `engine`, answering every [`WHATIF`] policy
/// (which forks its branch) before segment `fork_at`.
fn ingest_forking_at(engine: &mut TwinEngine, segments: &[String], fork_at: usize) {
    for (i, seg) in segments.iter().enumerate() {
        if i == fork_at {
            for policy in WHATIF {
                let policy = arcc_serve::parse_policy(policy).expect("policy");
                engine.whatif(policy).expect("whatif");
            }
        }
        engine.ingest(seg).expect("ingest");
    }
}

#[test]
fn failed_state_writes_leave_no_tmp_files() {
    // Renaming onto a non-empty directory fails, so blocking a state file
    // with one fails the ingest; the failed write must remove its tmp
    // sibling. The segment is staged by the ingest itself, the branch
    // checkpoints are written together.
    let (_, segments) = sample();
    let branch = format!("branch-{BASELINE_BRANCH}.ckpt");
    for (name, blocked) in [("segment", "segment-00000.log"), ("branch", &branch)] {
        let dir = state_dir(&format!("blocked-{name}"));
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
        std::fs::create_dir_all(dir.join(blocked).join("occupied")).expect("block");
        assert!(engine.ingest(&segments[0]).is_err(), "{blocked} is blocked");
        assert_eq!(tmp_files(&dir), Vec::<String>::new(), "{blocked}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Six branches, one checkpoint blocked: the ingest fails after its
    // commit point, every other tmp file is gone, and once the block is
    // lifted a reopen answers as an engine that ingested normally.
    let segments = forty_channel_segments(6);
    for threads in [1, 2] {
        let dir = state_dir(&format!("blocked-one-of-six-{threads}"));
        let mut engine = TwinEngine::open(threads, SEED, SHARD, &dir).expect("open fresh");
        ingest_forking_at(&mut engine, &segments[..5], 3);
        let blocked = dir.join("branch-whatif:spare-pool:10.ckpt");
        block(&blocked);
        match engine.ingest(&segments[5]) {
            Err(arcc_serve::ServeError::State { detail }) => {
                assert!(detail.contains("whatif:spare-pool:10"), "{detail}");
            }
            other => panic!("a blocked checkpoint must fail the ingest, got {other:?}"),
        }
        assert_eq!(tmp_files(&dir), Vec::<String>::new(), "{threads} threads");
        assert_eq!(segment_files(&dir).len(), 6, "the segment is committed");
        drop(engine);
        std::fs::remove_dir_all(&blocked).expect("unblock");
        let mut reopened = TwinEngine::open(threads, SEED, SHARD, &dir).expect("reopen");
        let mut reference = TwinEngine::new(threads, SEED).shard_channels(SHARD);
        ingest_forking_at(&mut reference, &segments, 3);
        let names: Vec<String> = reference
            .branch_names()
            .iter()
            .map(|b| b.to_string())
            .collect();
        assert_eq!(reopened.branch_names(), names);
        for name in &names {
            let (got, want) = (reopened.stats(name), reference.stats(name));
            assert!(
                got.expect("stats").bitwise_eq(&want.expect("stats")),
                "{name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A refused segment leaves neither a tmp file nor a segment file.
    let dir = state_dir("refused-segment");
    let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
    engine.ingest(&segments[0]).expect("ingest");
    let refused = engine.ingest(&corrupt_line(&segments[1], 5));
    assert!(
        matches!(refused, Err(arcc_serve::ServeError::Segment(_))),
        "{refused:?}"
    );
    assert_eq!(tmp_files(&dir), Vec::<String>::new());
    assert_eq!(segment_files(&dir), vec!["segment-00000.log"]);
    let _ = std::fs::remove_dir_all(&dir);

    // A segment that cannot even be staged fails before the engine moves.
    let dir = state_dir("unstaged-segment");
    let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
    let tmp = format!("segment-00000.log.tmp.{}", std::process::id());
    std::fs::create_dir_all(dir.join(&tmp).join("occupied")).expect("block");
    match engine.ingest(&segments[0]) {
        Err(arcc_serve::ServeError::State { detail }) => {
            assert!(detail.contains("segment-00000.log"), "{detail}");
        }
        other => panic!("an unstageable segment must fail the ingest, got {other:?}"),
    }
    assert_eq!(engine.channels(), 0, "the engine must not move");
    assert_eq!(segment_files(&dir), Vec::<String>::new());
    let _ = std::fs::remove_dir_all(&dir);

    // `twin.meta` and `branches.txt` are written only when their text
    // changes, so an ingest that forks nothing never touches them.
    for file in ["twin.meta", "branches.txt"] {
        let dir = state_dir(&format!("unchanged-{file}"));
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
        engine.ingest(&segments[0]).expect("ingest");
        block(&dir.join(file));
        engine
            .ingest(&segments[1])
            .expect("an unchanged file is not rewritten");
        assert_eq!(tmp_files(&dir), Vec::<String>::new(), "{file}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn an_ingest_that_fails_after_absorbing_its_segment_drops_memoised_replies() {
    // Blocking the second segment file fails that ingest after the
    // segment was absorbed and every branch extended: the engine has
    // moved, so the reply memoised before it must not be served again.
    let (_, segments) = sample();
    let ingest = |service: &mut Service, seg: &str| {
        let reply = service.handle(&format!("ingest lines={}", seg.lines().count()), Some(seg));
        reply.starts_with("{\"ok\":true")
    };
    let query = "query-stats branch=baseline";
    let dir = state_dir("stale-memo");
    let mut service = Service::new(TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh"));
    assert!(ingest(&mut service, &segments[0]));
    let before = service.handle(query, None);
    std::fs::create_dir_all(dir.join("segment-00001.log").join("occupied")).expect("block");
    assert!(
        !ingest(&mut service, &segments[1]),
        "segment-00001.log is blocked"
    );
    assert_eq!(service.engine().channels(), 170, "the segment was absorbed");
    let hits = service.engine().counters().memo_hits;
    let after = service.handle(query, None);
    assert_eq!(service.engine().counters().memo_hits, hits, "a memo hit");
    assert_ne!(after, before);
    // The reply is the stats of an engine that took both segments.
    let mut fresh = Service::new(TwinEngine::new(2, SEED).shard_channels(SHARD));
    for seg in &segments[..2] {
        assert!(ingest(&mut fresh, seg));
    }
    assert_eq!(after, fresh.handle(query, None));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_state_appends_segments_without_renumbering() {
    let (_, segments) = sample();
    let dir = state_dir("append");

    {
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
        engine.ingest(&segments[0]).expect("ingest");
    }
    let seg0 = std::fs::read(dir.join("segment-00000.log")).expect("segment 0");

    // The first ingest after a reopen must number its segment file after
    // the replayed ones — reusing segment-00000.log would silently
    // corrupt the durable history.
    {
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("reopen");
        engine.ingest(&segments[1]).expect("ingest");
    }
    assert_eq!(
        std::fs::read(dir.join("segment-00000.log")).expect("segment 0"),
        seg0,
        "reopen + ingest must leave already-persisted segments untouched"
    );
    assert!(
        dir.join("segment-00001.log").exists(),
        "the post-reopen ingest must append the next segment file"
    );

    // A second reopen replays the uncorrupted two-segment history and
    // agrees with an ephemeral engine fed the same segments.
    let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("second reopen");
    assert_eq!(engine.channels(), 170);
    let reopened = engine.stats(BASELINE_BRANCH).expect("stats");
    let mut reference = TwinEngine::new(2, SEED).shard_channels(SHARD);
    ingest_all(&mut reference, &segments[..2]);
    let expected = reference.stats(BASELINE_BRANCH).expect("stats");
    assert!(reopened.bitwise_eq(&expected));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_state_reopens_extends_and_refuses_tampering() {
    let (_, segments) = sample();
    let dir = state_dir("durable");

    // Session 1: ingest two segments, fork a counterfactual.
    {
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
        engine.ingest(&segments[0]).expect("ingest");
        engine.ingest(&segments[1]).expect("ingest");
        engine
            .fork(
                "pool",
                arcc_serve::parse_policy("spare-pool:50").expect("policy"),
            )
            .expect("fork");
    }

    // Session 2: everything is back, and ingestion picks up where the
    // last process stopped — for every branch.
    let stats_after_all = {
        let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("reopen");
        assert_eq!(engine.channels(), 170);
        assert_eq!(
            engine.branch_names(),
            vec!["baseline", "pool"],
            "branch table survived the restart"
        );
        engine.ingest(&segments[2]).expect("ingest");
        engine.stats("pool").expect("stats")
    };

    // From-zero reference for the forked branch.
    let mut reference = TwinEngine::new(2, SEED).shard_channels(SHARD);
    ingest_all(&mut reference, &segments);
    let (_, expected, _) = reference
        .whatif(arcc_serve::parse_policy("spare-pool:50").expect("policy"))
        .expect("whatif");
    assert!(stats_after_all.bitwise_eq(&expected));

    // A different seed is a different fleet: refused, typed.
    match TwinEngine::open(2, SEED + 1, SHARD, &dir) {
        Err(arcc_serve::ServeError::State { detail }) => {
            assert!(detail.contains("seed"), "{detail}");
        }
        other => panic!("foreign seed must be refused, got {other:?}"),
    }
    // A different shard size would re-grid every checkpoint: refused.
    match TwinEngine::open(2, SEED, SHARD * 2, &dir) {
        Err(arcc_serve::ServeError::State { detail }) => {
            assert!(detail.contains("shard"), "{detail}");
        }
        other => panic!("foreign shard size must be refused, got {other:?}"),
    }

    // Tamper with a persisted checkpoint: reopening refuses it as a
    // typed CheckpointMismatch instead of silently extending.
    let ckpt_path = dir.join("branch-pool.ckpt");
    let text = std::fs::read_to_string(&ckpt_path).expect("read checkpoint");
    let tampered: String = text
        .lines()
        .map(|line| {
            let line = match line.strip_prefix("fingerprint=0x") {
                Some(hex) => {
                    // Flip the last nibble so the value stays parseable.
                    let (head, last) = hex.split_at(hex.len() - 1);
                    let flipped = if last == "0" { "1" } else { "0" };
                    format!("fingerprint=0x{head}{flipped}")
                }
                None => line.to_string(),
            };
            format!("{line}\n")
        })
        .collect();
    assert_ne!(
        text, tampered,
        "fixture must actually change the fingerprint"
    );
    std::fs::write(&ckpt_path, tampered).expect("tamper");
    match TwinEngine::open(2, SEED, SHARD, &dir) {
        Err(arcc_serve::ServeError::CheckpointMismatch { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("tampered checkpoint must be refused, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fresh_open_writes_nothing_until_the_first_ingest() {
    let (_, segments) = sample();
    let dir = state_dir("fresh");
    let engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
    assert_eq!(
        dir_names(&dir),
        Vec::<String>::new(),
        "a fresh open writes nothing"
    );
    // The snapshot still names what an open that persisted no branch
    // counted.
    let metrics: Vec<(&str, u64)> = engine
        .metrics()
        .iter()
        .map(|(name, _)| (name, engine.metrics().counter(name)))
        .collect();
    assert_eq!(
        metrics,
        [
            ("serve.persist.checkpoint_bytes", 0),
            ("serve.shards_run", 0)
        ]
    );
    drop(engine);
    let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("reopen empty");
    assert_eq!(dir_names(&dir), Vec::<String>::new());

    // The first ingest writes the segment, the checkpoint, the listing
    // and the meta.
    engine.ingest(&segments[0]).expect("ingest");
    assert_eq!(
        dir_names(&dir),
        [
            "branch-baseline.ckpt",
            "branches.txt",
            "segment-00000.log",
            "twin.meta"
        ]
    );
    assert_eq!(read_in(&dir, "branches.txt"), "baseline none\n");
    assert_eq!(
        read_in(&dir, "twin.meta"),
        format!("arcc-serve-state v2\nseed={SEED}\nshard={SHARD}\n")
    );
    drop(engine);
    match TwinEngine::open(2, SEED + 1, SHARD, &dir) {
        Err(arcc_serve::ServeError::State { detail }) => {
            assert!(detail.contains("seed"), "{detail}");
        }
        other => panic!("foreign seed must be refused, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A version 1 meta over no segment is checked, left as it is by the
    // open, and migrated by the first ingest.
    let dir = state_dir("fresh-v1");
    std::fs::create_dir_all(&dir).expect("state dir");
    let v1 = format!("arcc-serve-state v1\nseed={SEED}\nshard={SHARD}\n");
    std::fs::write(dir.join("twin.meta"), &v1).expect("write meta");
    assert!(TwinEngine::open(2, SEED + 1, SHARD, &dir).is_err());
    let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open v1");
    assert_eq!(read_in(&dir, "twin.meta"), v1);
    engine.ingest(&segments[0]).expect("ingest");
    assert_eq!(
        read_in(&dir, "twin.meta"),
        format!("arcc-serve-state v2\nseed={SEED}\nshard={SHARD}\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The text of `file` in `dir`.
fn read_in(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file)).expect(file)
}

/// A version 1 state directory, written before arrival fingerprints
/// became rolling: the golden session's two segments under seed 7 and
/// 32-channel shards, with the baseline and a `pool` branch
/// (`spare-pool:50`) forked after the first segment.
fn v1_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-state")
}

#[test]
fn v1_state_dirs_migrate_to_v2() {
    let fixture = v1_fixture();
    let dir = state_dir("migrate");
    std::fs::create_dir_all(&dir).expect("state dir");
    for entry in std::fs::read_dir(&fixture).expect("fixture") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
    }
    let read =
        |dir: &std::path::Path, file: &str| std::fs::read_to_string(dir.join(file)).expect(file);

    let mut engine = TwinEngine::open(2, 7, 32, &dir).expect("a v1 directory migrates");
    assert_eq!(engine.branch_names(), vec!["baseline", "pool"]);

    // Every branch equals a from-zero replay of the persisted segments.
    let parse = |file: &str| arcc_replay::FaultLog::parse(&read(&fixture, file)).expect(file);
    let mut log = parse("segment-00000.log");
    log.append_segment(&parse("segment-00001.log"))
        .expect("append");
    let arrivals = log.arrivals().expect("arrivals");
    for (name, policy) in [
        ("baseline", OperatorPolicy::None),
        ("pool", OperatorPolicy::SparePool { spares_per_10k: 50 }),
    ] {
        let spec = log.replay_spec(7).policy(policy).shard_channels(32);
        let truth = run_replay(2, &spec, &arrivals).expect("from-zero replay");
        assert!(
            engine.stats(name).expect("stats").bitwise_eq(&truth),
            "{name}"
        );
    }

    // Segments are kept byte for byte, the directory is now version 2,
    // and only the fingerprint lines of the checkpoints changed.
    for file in ["segment-00000.log", "segment-00001.log"] {
        assert_eq!(read(&dir, file), read(&fixture, file), "{file}");
    }
    assert_eq!(
        read(&dir, "twin.meta"),
        "arcc-serve-state v2\nseed=7\nshard=32\n"
    );
    let kept = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with("fingerprint="))
            .map(str::to_string)
            .collect()
    };
    for file in ["branch-baseline.ckpt", "branch-pool.ckpt"] {
        let (old, new) = (read(&fixture, file), read(&dir, file));
        assert_ne!(old, new, "{file} still carries its v1 fingerprint");
        assert_eq!(kept(&old), kept(&new), "{file}");
    }

    // The migrated directory reopens as version 2 without rerunning a
    // shard, and an unknown header is still refused.
    drop(engine);
    let reopened = TwinEngine::open(2, 7, 32, &dir).expect("reopen");
    assert_eq!(reopened.counters().shards_run, 0);
    drop(reopened);
    std::fs::write(
        dir.join("twin.meta"),
        "arcc-serve-state v9\nseed=7\nshard=32\n",
    )
    .expect("write meta");
    match TwinEngine::open(2, 7, 32, &dir) {
        Err(arcc_serve::ServeError::State { detail }) => {
            assert!(detail.contains("unknown header"), "{detail}");
        }
        other => panic!("an unknown header must be refused, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fork_that_fails_to_persist_drops_memoised_replies() {
    // Blocking `branch-a.ckpt` fails the fork of `a` after the branch was
    // inserted: `whatif` now answers from `a`, so the reply memoised
    // before the fork must not be served again.
    let (_, segments) = sample();
    let dir = state_dir("stale-fork");
    let mut service = Service::new(TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh"));
    let seg = &segments[0];
    let reply = service.handle(&format!("ingest lines={}", seg.lines().count()), Some(seg));
    assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    std::fs::create_dir_all(dir.join("branch-a.ckpt").join("occupied")).expect("block");
    let whatif = "whatif policy=replace-on-due";
    let before = service.handle(whatif, None);
    assert!(
        before.contains("\"branch\":\"whatif:replace-on-due\""),
        "{before}"
    );
    let fork = service.handle("fork name=a policy=replace-on-due", None);
    assert!(fork.contains("\"kind\":\"State\""), "{fork}");
    assert_eq!(
        service.engine().branch_names(),
        vec!["a", "baseline", "whatif:replace-on-due"],
        "the failed fork inserted its branch"
    );
    let hits = service.engine().counters().memo_hits;
    let after = service.handle(whatif, None);
    assert_eq!(service.engine().counters().memo_hits, hits, "a memo hit");
    assert!(after.contains("\"branch\":\"a\""), "{after}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `count` segments of a `40 * count`-channel fleet, 40 channels each.
fn forty_channel_segments(count: usize) -> Vec<String> {
    let spec = FleetSpec::baseline(40 * count as u64)
        .populations(vec![
            DimmPopulation::paper("hot").rate_multiplier(60.0),
            DimmPopulation::paper("cold").rate_multiplier(10.0),
        ])
        .shard_channels(SHARD)
        .seed(0xD1CE);
    let segments = generate_log(&spec).split_channels(40);
    assert_eq!(segments.len(), count);
    segments.iter().map(|s| s.to_text()).collect()
}

/// Segments of a 280-channel fleet, 40 channels each: six to persist
/// and a seventh for the first ingest after a reopen.
fn seven_segments() -> Vec<String> {
    forty_channel_segments(7)
}

#[test]
fn six_branches_extend_alike_at_every_thread_count() {
    // 8 segments of 40 channels over 64-channel shards, the five what-if
    // branches forked before segment 4 (160 channels, 2 complete shards).
    let segments = forty_channel_segments(8);
    let mut seen = Vec::new();
    for threads in [1, 2, 8] {
        let dir = state_dir(&format!("six-branches-{threads}"));
        let mut engine = TwinEngine::open(threads, SEED, SHARD, &dir).expect("open fresh");
        ingest_forking_at(&mut engine, &segments, 4);
        let metrics = engine.metrics().clone();
        // Baseline 2 shards, each fork 2 plus its tail query, then 3 more
        // for every branch over segments 4-7 (5 complete shards).
        assert_eq!(metrics.counter("serve.shards_run"), 2 + 5 * 3 + 6 * 3);
        let names: Vec<String> = engine
            .branch_names()
            .iter()
            .map(|b| b.to_string())
            .collect();
        assert_eq!(names.len(), 6);
        let stats: Vec<_> = names
            .iter()
            .map(|b| engine.stats(b).expect("stats"))
            .collect();
        let files: Vec<Vec<u8>> = names
            .iter()
            .map(|b| std::fs::read(dir.join(format!("branch-{b}.ckpt"))).expect("checkpoint"))
            .collect();
        seen.push((threads, stats, files, metrics));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (_, stats, files, metrics) = &seen[0];
    for (threads, other_stats, other_files, other_metrics) in &seen[1..] {
        for (a, b) in stats.iter().zip(other_stats) {
            assert!(a.bitwise_eq(b), "stats at {threads} threads");
        }
        assert_eq!(files, other_files, "checkpoints at {threads} threads");
        assert_eq!(metrics, other_metrics, "metrics at {threads} threads");
    }
    // Every branch equals a from-zero replay of the whole log.
    let mut log = arcc_replay::FaultLog::parse(&segments[0]).expect("segment");
    for seg in &segments[1..] {
        log.append_segment(&arcc_replay::FaultLog::parse(seg).expect("segment"))
            .expect("append");
    }
    let arrivals = log.arrivals().expect("arrivals");
    let policies = std::iter::once("none").chain(WHATIF);
    let mut truths: Vec<(String, _)> = policies
        .map(|token| {
            let policy = arcc_serve::parse_policy(token).expect("policy");
            let name = match policy {
                OperatorPolicy::None => BASELINE_BRANCH.to_string(),
                _ => format!("whatif:{}", arcc_serve::policy_token(policy)),
            };
            let spec = log.replay_spec(SEED).policy(policy).shard_channels(SHARD);
            (name, run_replay(2, &spec, &arrivals).expect("replay"))
        })
        .collect();
    truths.sort_by(|a, b| a.0.cmp(&b.0));
    for ((name, truth), got) in truths.iter().zip(stats) {
        assert!(got.bitwise_eq(truth), "{name}");
    }
}

/// A state directory holding the first six of `segments`, the baseline
/// and a `pool` branch forked after the third.
fn six_segment_state(name: &str, segments: &[String]) -> PathBuf {
    let dir = state_dir(name);
    let mut engine = TwinEngine::open(2, SEED, SHARD, &dir).expect("open fresh");
    for (i, seg) in segments[..6].iter().enumerate() {
        engine.ingest(seg).expect("ingest");
        if i == 2 {
            let policy = arcc_serve::parse_policy("spare-pool:50").expect("policy");
            engine.fork("pool", policy).expect("fork");
        }
    }
    dir
}

/// A copy of the state directory `from` (plain files only).
fn copy_state(from: &std::path::Path, name: &str) -> PathBuf {
    let to = state_dir(name);
    std::fs::create_dir_all(&to).expect("state dir");
    for entry in std::fs::read_dir(from).expect("state") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, to.join(path.file_name().expect("file name"))).expect("copy");
    }
    to
}

#[test]
fn pipelined_reopen_matches_the_sequential_loop_at_every_thread_count() {
    let segments = seven_segments();
    let state = six_segment_state("pipelined", &segments);
    let mut seen = Vec::new();
    for threads in [1, 2, 8] {
        let dir = copy_state(&state, &format!("pipelined-{threads}"));
        let mut engine = TwinEngine::open(threads, SEED, SHARD, &dir).expect("reopen");
        assert_eq!(engine.channels(), 240);
        assert_eq!(engine.branch_names(), vec!["baseline", "pool"]);
        let metrics = engine.metrics().clone();
        assert_eq!(metrics.counter("replay.ingest.segments"), 5);
        let stats: Vec<_> = ["baseline", "pool"]
            .iter()
            .map(|b| engine.stats(b).expect("stats"))
            .collect();
        engine.ingest(&segments[6]).expect("ingest after reopen");
        let next = std::fs::read_to_string(dir.join("segment-00006.log")).expect("next segment");
        assert_eq!(next, segments[6]);
        let checkpoints: Vec<_> = ["baseline", "pool"]
            .iter()
            .map(|b| std::fs::read(dir.join(format!("branch-{b}.ckpt"))).expect("checkpoint"))
            .collect();
        seen.push((threads, stats, metrics, next, checkpoints));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (_, stats, metrics, next, checkpoints) = &seen[0];
    for (threads, other_stats, other_metrics, other_next, other_checkpoints) in &seen[1..] {
        for (a, b) in stats.iter().zip(other_stats) {
            assert!(a.bitwise_eq(b), "stats at {threads} threads");
        }
        assert_eq!(metrics, other_metrics, "metrics at {threads} threads");
        assert_eq!(next, other_next, "next segment at {threads} threads");
        assert_eq!(
            checkpoints, other_checkpoints,
            "checkpoints at {threads} threads"
        );
    }
    // The reopened engines equal one that ingested the six segments.
    let mut reference = TwinEngine::new(2, SEED).shard_channels(SHARD);
    ingest_all(&mut reference, &segments[..6]);
    let policy = arcc_serve::parse_policy("spare-pool:50").expect("policy");
    let (_, pool, _) = reference.whatif(policy).expect("whatif");
    assert!(stats[1].bitwise_eq(&pool));
    let baseline = reference.stats(BASELINE_BRANCH).expect("stats");
    assert!(stats[0].bitwise_eq(&baseline));
    let _ = std::fs::remove_dir_all(&state);
}

/// `text` with line `line` (1-based) replaced by a line no parser takes.
fn corrupt_line(text: &str, line: usize) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines[line - 1] = "not a fault-log line";
    lines.join("\n") + "\n"
}

#[test]
fn reopen_reports_the_first_failing_segment_in_index_order() {
    use arcc_replay::{FaultLog, SegmentError};
    use arcc_serve::ServeError;
    let segments = seven_segments();
    let state = six_segment_state("first-failure", &segments);
    let file = |k: usize| format!("segment-{k:05}.log");
    // Segment 4 fails to parse at its fifth line in every case, while
    // the segment two before it fails first: to parse (at a later line),
    // to read (it is a directory), or to append (it repeats segment 1).
    let late = corrupt_line(&segments[4], 5);
    let early = corrupt_line(&segments[2], 9);
    let early_error = FaultLog::parse(&early).expect_err("corrupt");
    assert_ne!(Some(&early_error), FaultLog::parse(&late).err().as_ref());
    for first in ["parse", "read", "append"] {
        for threads in [1, 2, 8] {
            let dir = copy_state(&state, &format!("first-failure-{first}-{threads}"));
            std::fs::write(dir.join(file(4)), &late).expect("corrupt segment 4");
            let at = dir.join(file(2));
            match first {
                "parse" => std::fs::write(&at, &early).expect("corrupt segment 2"),
                "read" => {
                    std::fs::remove_file(&at).expect("remove segment 2");
                    std::fs::create_dir_all(at.join("occupied")).expect("block segment 2");
                }
                _ => std::fs::write(&at, &segments[1]).expect("repeat segment 1"),
            }
            let opened = TwinEngine::open(threads, SEED, SHARD, &dir);
            let what = format!("{first} failure, {threads} threads: {opened:?}");
            match (first, opened) {
                ("parse", Err(ServeError::Segment(SegmentError::Parse(e)))) => {
                    assert_eq!(e, early_error, "{what}");
                }
                ("read", Err(ServeError::State { detail })) => {
                    assert!(detail.contains(&file(2)), "{what}");
                }
                ("append", Err(ServeError::Segment(SegmentError::DuplicateDimm { .. }))) => {}
                _ => panic!("{what}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn a_segment_path_that_is_a_directory_is_a_state_error_not_the_end() {
    let segments = seven_segments();
    let state = six_segment_state("segment-dir", &segments);
    for threads in [1, 2, 8] {
        let dir = copy_state(&state, &format!("segment-dir-{threads}"));
        std::fs::create_dir_all(dir.join("segment-00006.log")).expect("directory");
        match TwinEngine::open(threads, SEED, SHARD, &dir) {
            Err(arcc_serve::ServeError::State { detail }) => {
                assert!(detail.contains("segment-00006.log"), "{detail}");
            }
            other => panic!("{threads} threads: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn a_missing_segment_index_ends_the_replay() {
    // Five segments on disk, then a gap, then a stray sixth: the replay
    // stops at the gap at every thread count, and the next ingest fills
    // it.
    let segments = seven_segments();
    let state = state_dir("segment-gap");
    {
        let mut engine = TwinEngine::open(2, SEED, SHARD, &state).expect("open fresh");
        ingest_all(&mut engine, &segments[..5]);
    }
    std::fs::write(state.join("segment-00006.log"), &segments[6]).expect("stray segment");
    for threads in [1, 2, 8] {
        let dir = copy_state(&state, &format!("segment-gap-{threads}"));
        let mut engine = TwinEngine::open(threads, SEED, SHARD, &dir).expect("reopen");
        assert_eq!(engine.channels(), 200, "{threads} threads");
        engine.ingest(&segments[5]).expect("ingest");
        let filled = std::fs::read_to_string(dir.join("segment-00005.log")).expect("gap filled");
        assert_eq!(filled, segments[5]);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&state);
}
