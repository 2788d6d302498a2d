//! An example of `fix-dead`.

fn main() {
    println!("{}", fix_dead::from_example());
}
