//! Telemetry primitives under the `billcap-rt` pool: work counters must
//! be thread-count invariant, and a `WindowedHistogram` behind a mutex
//! must stay coherent while workers record against concurrent
//! rotate/merge — the exact shape the serve daemon uses.
//!
//! Instance [`Recorder`]s (not the process-global one) keep these tests
//! independent of the global tracing switch and of each other.

use billcap_obs::{Recorder, WindowedHistogram};
use billcap_rt::{par_map_threads, run_workers, Rng, Xoshiro256pp};
use std::sync::{Mutex, PoisonError};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the same counted workload at several thread counts; the merged
/// work counters and histogram bucket counts must be identical because
/// they are functions of the item set, never of the schedule.
#[test]
fn work_counters_are_thread_count_invariant() {
    let items: Vec<u64> = (0..512).collect();
    let mut baseline: Option<(u64, Vec<u64>)> = None;
    for threads in [1usize, 4, 32] {
        let r = Recorder::new();
        let out = par_map_threads(&items, threads, |&x| {
            r.counter("pool.work", 1);
            r.observe_with("pool.val", x as f64, &[127.0, 255.0, 383.0]);
            x + 1
        });
        assert_eq!(out.len(), items.len());
        let snap = r.snapshot();
        let shape = (
            snap.counters["pool.work"],
            snap.histograms["pool.val"].counts.clone(),
        );
        assert_eq!(shape.0, 512, "threads={threads}");
        assert_eq!(shape.1, vec![128, 128, 128, 128], "threads={threads}");
        match &baseline {
            None => baseline = Some(shape),
            Some(b) => assert_eq!(*b, shape, "threads={threads} drifted"),
        }
    }
}

/// Workers hammer a shared `WindowedHistogram` while another worker
/// rotates and merges concurrently. Every merge observed mid-flight
/// must be internally coherent (count equals the bucket sum), and the
/// rotation tick must equal the number of rotations performed.
#[test]
fn windowed_histogram_stays_coherent_under_concurrent_rotation() {
    const ROTATIONS: u64 = 50;
    const RECORDERS: usize = 4;
    const PER_WORKER: usize = 2_000;
    let wh = Mutex::new(WindowedHistogram::new(&[10.0, 100.0, 1_000.0], 4));

    run_workers(RECORDERS + 1, |w| {
        if w == 0 {
            for _ in 0..ROTATIONS {
                let mut g = lock(&wh);
                let m = g.merged();
                assert_eq!(
                    m.count,
                    m.counts.iter().sum::<u64>(),
                    "merge tore mid-rotation"
                );
                g.rotate();
                drop(g);
                std::thread::yield_now();
            }
        } else {
            let mut rng = Xoshiro256pp::seed_from_u64(w as u64);
            for _ in 0..PER_WORKER {
                let v = (rng.next_u64() % 2_000) as f64;
                lock(&wh).record(v);
            }
        }
    });

    let g = lock(&wh);
    assert_eq!(g.tick(), ROTATIONS);
    let m = g.merged();
    assert_eq!(m.count, m.counts.iter().sum::<u64>());
    // Rotation only forgets; it never invents observations.
    assert!(m.count as usize <= RECORDERS * PER_WORKER);
}

/// Seeded fuzz loop interleaving record / rotate / scrape on one
/// driver: whatever the interleaving, every scrape counts exactly what
/// was recorded before it and every merged view stays coherent.
#[test]
fn fuzzed_interleaving_of_scrape_rotate_record_conserves_counts() {
    let r = Recorder::new();
    let mut wh = WindowedHistogram::new(&[1.0, 10.0], 3);
    let mut rng = Xoshiro256pp::seed_from_u64(0x7e1e);

    let mut recorded = 0u64;
    for _ in 0..5_000 {
        match rng.random_usize_in(0, 3) {
            0 => {
                r.counter("fuzz.n", 1);
                recorded += 1;
            }
            1 => {
                wh.record((rng.next_u64() % 100) as f64);
                let m = wh.merged();
                assert_eq!(m.count, m.counts.iter().sum::<u64>());
            }
            2 => wh.rotate(),
            _ => {
                let scraped = r.snapshot().counters.get("fuzz.n").copied();
                assert_eq!(scraped.unwrap_or(0), recorded);
            }
        }
    }
    assert_eq!(r.snapshot().counters["fuzz.n"], recorded);
}
