//! Scoped worker-pool execution: the workspace's replacement for rayon.
//!
//! Everything is built on `std::thread::scope`, so borrowed data flows
//! into workers without `Arc` gymnastics and no thread outlives its
//! call. Three entry points cover the workspace's fan-out patterns:
//!
//! * [`par_map_threads`] — map a function over a slice in parallel,
//!   results in input order (what `par_iter().map().collect::<Vec<_>>()`
//!   did).
//! * [`try_par_map`] — the fallible variant; returns the error of the
//!   *earliest* failing item, so outcomes are deterministic even though
//!   scheduling is not (what `collect::<Result<Vec<_>, _>>()` did).
//! * [`try_par_map_init_threads`] — the fallible map with per-worker
//!   state, which the risk engine fans its month simulations out with.
//!
//! Every map runs on that last one's claim/collect loop; the stateless
//! maps pass unit state.
//!
//! Work is distributed by an atomic cursor over the input slice, which
//! balances uneven item costs (month simulations vary severalfold) at
//! the price of one fetch-add per item — noise next to the multi-ms
//! items this pool runs.
//!
//! [`run_workers`] is the low-level escape hatch for custom topologies;
//! the decision server's reader and decider workers run on it.
//!
//! ## Telemetry
//!
//! When `billcap-obs` tracing is enabled, the parallel map paths set
//! three advisory gauges (no-ops otherwise, behind one relaxed atomic
//! load): `rt.pool.workers` (pool size), `rt.pool.queue_depth` (items
//! still unclaimed at each claim), and `rt.pool.worker_items` (items
//! each worker processed — the gauge's min/max spread is the
//! utilization imbalance). Gauges are wall-clock-free but reflect
//! scheduling, so they are advisory, never part of the deterministic
//! work-counter set.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Default worker count: the machine's available parallelism (1 if
/// unknown). Callers that want another count pass it explicitly (the
/// CLI's `--threads` and `--workers`).
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Spawns `threads` scoped workers running `body(worker_index)` and
/// joins them all. Panics in workers propagate to the caller.
pub fn run_workers<F>(threads: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        body(0);
        return;
    }
    std::thread::scope(|scope| {
        let body = &body;
        // Join each worker explicitly rather than relying on the scope's
        // implicit wait: the implicit wait is signalled when the worker
        // closure returns, *before* the OS thread has torn down its
        // thread-locals, while an explicit join targets the native
        // thread and therefore also waits for TLS destructors. Callers
        // (notably billcap-obs) rely on destructors having run — e.g.
        // per-thread metric buffers that flush on thread exit — by the
        // time this function returns.
        let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || body(w))).collect();
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Maps `f` over `items` on `threads` workers; results are returned in
/// input order. `threads == 1` degenerates to a plain sequential map
/// (no threads spawned), so callers can keep one code path.
pub fn par_map_threads<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    match try_par_map_threads(items, threads, |item| Ok::<U, Never>(f(item))) {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// Uninhabited error type for the infallible wrappers.
enum Never {}

/// Fallible parallel map. On success returns results in input order; on
/// failure returns the error produced by the failing item with the
/// smallest index (so the outcome matches what a sequential loop that
/// stops at the first error would report). Remaining items may be
/// skipped once a failure is observed.
pub fn try_par_map_threads<T, U, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    try_par_map_init_threads(items, threads, || (), |(), item| f(item))
}

/// [`try_par_map_threads`] with the default worker count.
pub fn try_par_map<T, U, E, F>(items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    try_par_map_threads(items, num_threads(), f)
}

/// [`try_par_map_threads`] with reusable per-worker state: each worker
/// calls `init()` once and threads the resulting scratch value through
/// every item it claims. The per-item closure therefore takes `&mut S`,
/// which the stateless maps cannot offer (their closures are `Fn`).
///
/// Results are in input order, so as long as each item's output depends
/// only on the item (the scratch being a pure accelerator — buffers,
/// warm models — whose contents never leak into results), the returned
/// vector is identical at every thread count. Error selection matches
/// [`try_par_map_threads`]: the failing item with the smallest index
/// wins, so the outcome is what a sequential loop stopping at the first
/// error would report.
pub fn try_par_map_init_threads<T, U, S, E, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    f: F,
) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> Result<U, E> + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let cursor = AtomicUsize::new(0);
    // Index of the earliest error seen so far; workers stop claiming
    // items past it. usize::MAX = no error.
    let first_error_idx = AtomicUsize::new(usize::MAX);
    let error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));

    billcap_obs::gauge("rt.pool.workers", threads as f64);
    run_workers(threads, |_| {
        let mut state = init();
        let mut local: Vec<(usize, U)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() || i > first_error_idx.load(Ordering::Acquire) {
                break;
            }
            billcap_obs::gauge("rt.pool.queue_depth", (items.len() - i - 1) as f64);
            match f(&mut state, &items[i]) {
                Ok(v) => local.push((i, v)),
                Err(e) => {
                    first_error_idx.fetch_min(i, Ordering::AcqRel);
                    let mut slot = error.lock().unwrap_or_else(PoisonError::into_inner);
                    if slot.as_ref().map(|(j, _)| i < *j).unwrap_or(true) {
                        *slot = Some((i, e));
                    }
                }
            }
        }
        billcap_obs::gauge("rt.pool.worker_items", local.len() as f64);
        results
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(local);
    });

    if let Some((_, e)) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    let mut collected = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    collected.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), items.len());
    Ok(collected.into_iter().map(|(_, v)| v).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map_threads(&items, 8, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let items: Vec<i64> = (-50..50).collect();
        let seq = par_map_threads(&items, 1, |&x| x * 3 - 1);
        let par = par_map_threads(&items, 7, |&x| x * 3 - 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = Vec::new();
        assert!(par_map_threads(&items, 4, |&x| x).is_empty());
    }

    #[test]
    fn error_is_earliest_failing_index() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let r: Result<Vec<usize>, usize> =
                try_par_map_threads(
                    &items,
                    threads,
                    |&x| {
                        if x % 7 == 3 {
                            Err(x)
                        } else {
                            Ok(x)
                        }
                    },
                );
            assert_eq!(r.unwrap_err(), 3, "threads={threads}");
        }
    }

    #[test]
    fn success_collects_everything() {
        let items: Vec<usize> = (0..64).collect();
        let r: Result<Vec<usize>, ()> = try_par_map_threads(&items, 5, |&x| Ok(x + 1));
        assert_eq!(r.unwrap(), (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn run_workers_covers_all_ids() {
        let seen = Mutex::new(Vec::new());
        run_workers(6, |w| seen.lock().unwrap().push(w));
        let mut ids = seen.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn init_map_reuses_state_and_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4, 9] {
            // The scratch counts items seen by this worker; results must
            // not depend on it, and the order must match the input.
            let out: Result<Vec<u64>, ()> = try_par_map_init_threads(
                &items,
                threads,
                || 0u64,
                |seen, &x| {
                    *seen += 1;
                    assert!(*seen >= 1);
                    Ok(x * 2)
                },
            );
            let expect: Vec<u64> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(out.unwrap(), expect, "threads={threads}");
        }
    }

    #[test]
    fn init_map_error_is_earliest_failing_index() {
        let items: Vec<usize> = (0..80).collect();
        for threads in [1, 3, 8] {
            let r: Result<Vec<usize>, usize> = try_par_map_init_threads(
                &items,
                threads,
                || (),
                |(), &x| if x % 11 == 5 { Err(x) } else { Ok(x) },
            );
            assert_eq!(r.unwrap_err(), 5, "threads={threads}");
        }
    }

    #[test]
    fn init_runs_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u32> = (0..64).collect();
        let inits = AtomicUsize::new(0);
        let out: Result<Vec<u32>, ()> = try_par_map_init_threads(
            &items,
            4,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, &x| Ok(x),
        );
        assert_eq!(out.unwrap(), items);
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still all complete.
        let items: Vec<u64> = (0..40).collect();
        let out = par_map_threads(&items, 4, |&x| {
            let spin = if x % 13 == 0 { 20_000 } else { 10 };
            (0..spin).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        });
        assert_eq!(out.len(), 40);
    }
}
