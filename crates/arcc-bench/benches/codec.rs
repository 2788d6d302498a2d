//! Criterion micro-benchmarks for the Reed–Solomon line-codec
//! primitives. Every registry codec's encode + clean-decode roundtrip
//! is the `bench codec` ladder, which writes and gates
//! `BENCH_codec.json`.

use arcc_gf::chipkill::LineCodec;
use arcc_gf::{Gf256, ReedSolomon};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

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

criterion_group!(benches, bench_encode, bench_decode, bench_syndromes);
criterion_main!(benches);
