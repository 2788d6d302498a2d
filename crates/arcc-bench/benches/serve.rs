//! Criterion benchmarks for the digital-twin service: segment ingest
//! (the incremental parse + extend path) and the two what-if flavours
//! (warm branch re-query vs memoised protocol re-issue). The
//! `BENCH_serve.json` record is written and gated by `bench serve`.

use arcc_fleet::FleetSpec;
use arcc_replay::generate_log;
use arcc_serve::{Service, TwinEngine};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// The serve benches pin the engine seed (results are not timed work).
const SEED: u64 = 0x5E21;

fn segments_for(channels: u64, count: usize) -> Vec<String> {
    let log = generate_log(&FleetSpec::baseline(channels));
    let per_segment = (log.dimms.len() / count).max(1);
    log.split_channels(per_segment)
        .iter()
        .map(|s| s.to_text())
        .collect()
}

fn ingest_all(threads: usize, segments: &[String]) -> Service {
    let mut service = Service::new(TwinEngine::new(threads, SEED).shard_channels(4096));
    for text in segments {
        let request = format!("ingest lines={}", text.lines().count());
        let reply = service.handle(&request, Some(text));
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    service
}

fn bench_ingest(c: &mut Criterion) {
    let segments = segments_for(8_000, 4);
    let mut g = c.benchmark_group("serve_ingest");
    g.throughput(Throughput::Elements(8_000));
    g.bench_function("ingest_8k_channels_in_4_segments", |b| {
        b.iter(|| ingest_all(black_box(2), black_box(&segments)))
    });
    g.finish();
}

fn bench_whatif(c: &mut Criterion) {
    let segments = segments_for(8_000, 4);
    let mut g = c.benchmark_group("serve_whatif");

    // Warm: the branch exists; at most the tail shard is simulated.
    let mut warm = ingest_all(2, &segments);
    warm.handle("whatif policy=replace-on-due", None);
    g.bench_function("whatif_warm_branch_query", |b| {
        b.iter(|| black_box(warm.handle("query-stats branch=whatif:replace-on-due", None)))
    });

    // Memoised: the protocol answers from the BTreeMap, no simulation.
    let mut memo = ingest_all(2, &segments);
    memo.handle("whatif policy=replace-on-due", None);
    g.bench_function("whatif_memoised_reissue", |b| {
        b.iter(|| black_box(memo.handle("whatif policy=replace-on-due", None)))
    });
    g.finish();
}

criterion_group!(benches, bench_ingest, bench_whatif);
criterion_main!(benches);
