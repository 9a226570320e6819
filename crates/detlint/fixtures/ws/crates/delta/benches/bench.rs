//! Fixture bench: names one delta item.

fn main() {
    println!("{}", delta::from_bench());
}
