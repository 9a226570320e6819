//! Seeded-violation fixture for the layering rules (L001–L005): a
//! library crate that no determinism root reaches.

#![forbid(unsafe_code)]

/// L001 fires on the unwaived unwrap only.
pub fn parse_count(v: Option<u32>) -> u32 {
    let a = v.unwrap(); // detlint-allow(L001): checked by the caller
    // detlint-allow(L001): also checked by the caller
    let b = v.expect("present");
    a + b + v.unwrap()
}

/// L003: a raw thread outside the runtime crate.
pub fn fork_worker() {
    let _ = std::thread::spawn(|| ());
}

// detlint-allow(L002): the clock read below was removed
pub fn fixed_epoch() -> u64 {
    0
}

/// L005 fires on the unwaived allocations inside the marked region.
pub fn hour_loop(n: usize) -> usize {
    let mut total = Vec::new();
    // detlint-hot-start(fixture hour loop)
    for i in 0..n {
        let scratch: Vec<usize> = Vec::new();
        let row = vec![i; 2];
        // detlint-allow(L005): sized once per run
        let seed = vec![0; n];
        total.push(scratch.len() + row.len() + seed.len());
    }
    // detlint-hot-end
    let label = "detlint-hot-start";
    let after = vec![label.len()];
    total.len() + after.len()
}

#[cfg(test)]
mod tests {
    // detlint-allow(L001): test code is exempt, so this waiver is never stale
    fn exempt() {
        let _ = Some(1).unwrap();
        let _ = std::time::Instant::now();
        let _ = std::thread::spawn(|| ());
    }
}
