//! A benchmark of its own workspace, driving the fixture's crates.

fn main() {
    println!("{}", fix_dead::from_perfbench());
}
