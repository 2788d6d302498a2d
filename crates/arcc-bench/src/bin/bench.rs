//! `bench <codec|fleet|replay|serve> [--record FILE] [--gate FILE]`:
//! measures one layer's throughput ladder, best of 3 per rung, and
//! prints, records or gates that one measurement (see
//! [`arcc_bench::bench_main`]).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(arcc_bench::bench_main(&args));
}
