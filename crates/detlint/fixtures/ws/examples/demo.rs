//! Fixture example: names one delta item.

fn main() {
    println!("{}", delta::from_example());
}
