//! Seeded-violation fixture: a binary whose root lacks the forbid
//! attribute (L004). L001 is off in binaries.

fn main() {
    let n: u32 = "3".parse().unwrap(); // detlint-allow(L001): the pattern matches, so not stale
    let m: u32 = "4".parse().expect("a digit");
    println!("{}", n + m);
}
