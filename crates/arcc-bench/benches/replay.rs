//! Criterion benchmarks for the trace-driven replay pipeline: log
//! parsing and a small replayed fleet. The `BENCH_replay.json` record is
//! written and gated by `bench replay`.

use arcc_fleet::{run_replay, FleetSpec, ReplayArrivals};
use arcc_replay::{generate_log, FaultLog};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn ingest(channels: u64) -> (FleetSpec, ReplayArrivals) {
    let spec = FleetSpec::baseline(channels);
    let arrivals = generate_log(&spec).arrivals().expect("generated arrivals");
    (spec, arrivals)
}

fn bench_parse(c: &mut Criterion) {
    let spec = FleetSpec::baseline(20_000);
    let text = generate_log(&spec).to_text();
    let mut g = c.benchmark_group("replay_parse");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("parse_20k_channel_log", |b| {
        b.iter(|| FaultLog::parse(black_box(&text)).expect("valid log"))
    });
    g.finish();
}

fn bench_replay(c: &mut Criterion) {
    let (spec, arrivals) = ingest(20_000);
    let mut g = c.benchmark_group("replay_run");
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("replayed_20k_channels", |b| {
        b.iter(|| run_replay(black_box(4), black_box(&spec), black_box(&arrivals)).expect("replay"))
    });
    g.finish();
}

criterion_group!(benches, bench_parse, bench_replay);
criterion_main!(benches);
