//! Criterion benchmarks for the `arcc-fleet` event engine, plus the
//! `BENCH_fleet.json` throughput record.
//!
//! The criterion groups time one shard and a small sharded fleet; after
//! they run, a custom `main` measures end-to-end channels/second at 10k,
//! 100k, 1M, and 10M channels and writes `BENCH_fleet.json` (path
//! overridable via `ARCC_BENCH_OUT`) so the perf trajectory of the
//! engine is recorded. The 1M rung is the calendar queue's acceptance
//! artefact: ≥2x the ~8M channels/sec of the original heap-queue engine.

use arcc_bench::{bench_record_json, best_of};
use arcc_fleet::{run_fleet, run_shard, FleetSpec};
use criterion::{black_box, criterion_group, Criterion, Throughput};

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

/// Measures one fleet run end to end, returning (seconds, channels/sec).
/// Best-of-three: the committed record is a baseline for the CI
/// regression gate, so scheduler noise must not understate it.
fn measure(channels: u64) -> (f64, f64) {
    let threads = arcc_core::default_threads();
    let spec = FleetSpec::baseline(channels);
    let (best, stats) = best_of(3, || run_fleet(threads, &spec));
    assert_eq!(stats.channels, channels);
    (best, channels as f64 / best)
}

fn main() {
    benches();

    // `cargo bench` passes `--bench`; anything else (notably `cargo test`,
    // which runs harness = false bench targets as smoke tests) gets a tiny
    // ladder and no throughput record.
    if !std::env::args().any(|a| a == "--bench") {
        let (secs, _) = measure(1_000);
        println!("fleet smoke: 1000 channels in {secs:.3}s");
        return;
    }

    let sizes = [10_000u64, 100_000u64, 1_000_000u64, 10_000_000u64];
    let mut rungs = Vec::new();
    for &channels in &sizes {
        let (secs, rate) = measure(channels);
        println!("fleet throughput: {channels} channels in {secs:.3}s ({rate:.0} channels/sec)");
        rungs.push((channels, secs, rate));
    }
    let json = bench_record_json("fleet", arcc_core::default_threads(), &rungs);
    // Benches run with the package as CWD; anchor the record at the
    // workspace root where the trajectory tooling looks for it.
    let path = std::env::var("ARCC_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("fleet throughput record written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
