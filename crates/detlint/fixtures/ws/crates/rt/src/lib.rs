//! Seeded-violation fixture: the runtime crate may read the wall clock
//! and spawn raw threads, so neither L002 nor L003 fires here.

#![forbid(unsafe_code)]

/// Times one spawned worker.
pub fn timed_worker() -> f64 {
    let start = std::time::Instant::now();
    let _ = std::thread::spawn(|| ()).join();
    start.elapsed().as_secs_f64()
}
