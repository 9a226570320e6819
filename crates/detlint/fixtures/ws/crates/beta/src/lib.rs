//! Seeded-violation fixture: tainted helpers reached from alpha's root
//! through a multi-hop chain, plus one unreachable taint that must stay
//! silent.
#![forbid(unsafe_code)]
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Stamps a sample, mixing in ambient state (deliberately tainted).
pub fn stamp() -> f64 {
    let base = inner_clock();
    base + config() + thread_tag()
}

fn inner_clock() -> f64 {
    let t = Instant::now();
    t.elapsed().as_secs_f64()
}

fn config() -> f64 {
    match std::env::var("BETA_SCALE") {
        Ok(v) => v.len() as f64,
        Err(_) => 1.0,
    }
}

fn thread_tag() -> f64 {
    let name_len = std::thread::current().name().map_or(0, str::len);
    name_len as f64
}

/// Hashes a seed with the default random-state hasher.
pub fn seeded_hash(seed: u64) -> f64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    h.finish() as f64
}

/// Never called from any root: its wall-clock read must not be
/// reported.
pub fn dead_clock() -> f64 {
    use std::time::SystemTime;
    let _ = SystemTime::now();
    0.0
}

/// Passes delta's function as a value, which U001 counts as naming it.
/// Naming `mentioned_in_prose` in a comment or a string does not count.
fn apply_delta(xs: &[u32]) -> Vec<u32> {
    let _ = "delta::mentioned_in_prose";
    xs.iter().copied().map(delta::as_value).collect()
}
