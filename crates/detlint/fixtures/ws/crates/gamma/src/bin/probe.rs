//! Seeded-violation fixture: a binary naming one delta item.
#![forbid(unsafe_code)]

fn main() {
    println!("{}", delta::from_other_bin());
}
