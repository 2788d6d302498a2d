//! Criterion micro-benchmarks for the line codecs, plus the
//! `BENCH_codec.json` throughput record.
//!
//! The criterion groups time the Reed–Solomon primitives and every
//! registry codec's roundtrip; after they run, a custom `main` measures
//! encode + clean-decode lines/second per registry codec (best-of-3)
//! and writes `BENCH_codec.json` (path overridable via
//! `ARCC_BENCH_OUT`) — the baseline the `codec` bin's CI gate compares
//! against.

use arcc_bench::{bench_record_json, codec_rung_id, measure_codec};
use arcc_gf::chipkill::LineCodec;
use arcc_gf::codec::codec_registry;
use arcc_gf::{Gf256, ReedSolomon};
use criterion::{black_box, criterion_group, Criterion, Throughput};

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode_line");
    for (name, codec) in [
        ("relaxed_rs18_16", LineCodec::relaxed_x8()),
        ("sccdcd_rs36_32", LineCodec::sccdcd_x4()),
        ("upgraded_rs36_32", LineCodec::upgraded_two_channel()),
        ("upgraded2_rs72_64", LineCodec::upgraded_four_channel()),
    ] {
        let data: Vec<u8> = (0..codec.data_bytes()).map(|i| i as u8).collect();
        g.throughput(Throughput::Bytes(codec.data_bytes() as u64));
        g.bench_function(name, |b| {
            b.iter(|| codec.encode_line(black_box(&data)).expect("valid geometry"))
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode_line");
    for (name, codec) in [
        ("clean_relaxed", LineCodec::relaxed_x8()),
        ("clean_upgraded", LineCodec::upgraded_two_channel()),
    ] {
        let data: Vec<u8> = (0..codec.data_bytes()).map(|i| i as u8).collect();
        let enc = codec.encode_line(&data).expect("valid geometry");
        g.throughput(Throughput::Bytes(codec.data_bytes() as u64));
        g.bench_function(name, |b| {
            b.iter_batched(
                || enc.clone(),
                |mut e| codec.decode_line(black_box(&mut e), &[], 1).expect("clean"),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    // Decode with dead devices: one is the single-symbol solver's case;
    // two at limit 2 go through Berlekamp–Massey, Chien and Forney.
    for (name, codec, dead, limit) in [
        ("chipkill_relaxed", LineCodec::relaxed_x8(), &[3][..], 1),
        (
            "chipkill_upgraded",
            LineCodec::upgraded_two_channel(),
            &[3],
            1,
        ),
        (
            "chipkill_upgraded2",
            LineCodec::upgraded_four_channel(),
            &[3],
            1,
        ),
        ("chipkill_sccdcd", LineCodec::sccdcd_x4(), &[3], 1),
        (
            "double_chipkill_upgraded2",
            LineCodec::upgraded_four_channel(),
            &[3, 40],
            2,
        ),
    ] {
        let data: Vec<u8> = (0..codec.data_bytes()).map(|i| i as u8).collect();
        let mut enc = codec.encode_line(&data).expect("valid geometry");
        for &device in dead {
            enc.kill_device(device, 0xFF);
        }
        g.throughput(Throughput::Bytes(codec.data_bytes() as u64));
        g.bench_function(name, |b| {
            b.iter_batched(
                || enc.clone(),
                |mut e| {
                    codec
                        .decode_line(black_box(&mut e), &[], limit)
                        .expect("correctable")
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_syndromes(c: &mut Criterion) {
    let rs = ReedSolomon::<Gf256>::new(36, 32).expect("valid parameters");
    let cw = rs.encode_to_codeword(&[7u8; 32]).expect("valid length");
    c.bench_function("syndromes_rs36_32", |b| {
        b.iter(|| rs.syndromes(black_box(&cw)))
    });
}

fn bench_registry_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec_roundtrip");
    for codec in codec_registry() {
        let data: Vec<u8> = (0..codec.data_bytes()).map(|i| i as u8).collect();
        g.throughput(Throughput::Bytes(codec.data_bytes() as u64));
        g.bench_function(codec.name(), |b| {
            b.iter(|| {
                let mut line = codec.encode(black_box(&data)).expect("sized payload");
                codec.decode(&mut line, &[]).expect("clean line")
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_syndromes,
    bench_registry_roundtrip
);

fn main() {
    benches();

    // `cargo bench` passes `--bench`; anything else (notably `cargo
    // test`, which runs harness = false bench targets as smoke tests)
    // gets a tiny ladder and no throughput record.
    let lines: u64 = if std::env::args().any(|a| a == "--bench") {
        20_000
    } else {
        let codec = arcc_gf::codec::RsChipkill::arcc_relaxed();
        let (secs, _) = measure_codec(&codec, 200);
        println!("codec smoke: 200 arcc-relaxed roundtrips in {secs:.3}s");
        return;
    };

    let mut rungs = Vec::new();
    for codec in codec_registry() {
        let id = codec_rung_id(codec.name()).expect("every registry codec has a rung id");
        let (secs, rate) = measure_codec(codec.as_ref(), lines);
        println!(
            "codec throughput: {} {lines} roundtrips in {secs:.3}s ({rate:.0} lines/sec)",
            codec.name()
        );
        rungs.push((id, secs, rate));
    }
    let json = bench_record_json("codec", 1, &rungs);
    // Benches run with the package as CWD; anchor the record at the
    // workspace root where the trajectory tooling looks for it.
    let path = std::env::var("ARCC_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("codec throughput record written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
