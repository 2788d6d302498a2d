//! Criterion benchmarks for the `arcc-fleet` event engine: one shard and
//! a small sharded fleet. The `BENCH_fleet.json` record is written and
//! gated by `bench fleet`.

use arcc_fleet::{run_fleet, run_shard, FleetSpec};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_shard(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_shard");
    g.throughput(Throughput::Elements(4096));
    let spec = FleetSpec::baseline(4096);
    g.bench_function("one_shard_4096_channels", |b| {
        b.iter(|| run_shard(black_box(&spec), 0))
    });
    g.finish();
}

fn bench_fleet(c: &mut Criterion) {
    let spec = FleetSpec::baseline(20_000);
    let mut g = c.benchmark_group("fleet_run");
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("sharded_20k_channels", |b| {
        b.iter(|| run_fleet(black_box(4), black_box(&spec)))
    });
    g.finish();
}

criterion_group!(benches, bench_shard, bench_fleet);
criterion_main!(benches);
