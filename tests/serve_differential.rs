//! Differential test for the decision server: a 168-hour simulated week
//! (the paper's scenario under the stringent monthly budget) replayed
//! through `billcap::serve` must produce responses **bitwise-identical**
//! to sequential fresh-model `decide_hour` calls — at 1 and 4 workers,
//! with and without the decision cache. This is the server's whole
//! correctness contract: the daemon is never allowed to drift from the
//! CLI, not even in the last ulp.
//!
//! The expensive part — building the 168-hour ground-truth plan with a
//! fresh `BillCapper` per the simulator's budget-feedback loop — runs
//! once and is shared by every test via `OnceLock`.

use billcap::serve::{
    build_plan, encode_requests, read_frame, run_replay, verify_replay, Response, ServeConfig,
    MAX_FRAME,
};
use billcap::sim::Scenario;
use std::io::Cursor;
use std::sync::OnceLock;

const HOURS: usize = 168;

fn plan() -> &'static billcap::serve::ReplayPlan {
    static PLAN: OnceLock<billcap::serve::ReplayPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        build_plan(1, 42, HOURS, Some(Scenario::STRINGENT_BUDGET))
            .expect("ground-truth plan builds")
    })
}

fn config(workers: usize, cache: bool) -> ServeConfig {
    ServeConfig {
        workers,
        cache,
        ..ServeConfig::default()
    }
}

fn replay_and_verify(workers: usize, cache: bool) {
    let plan = plan();
    let outcome = run_replay(&config(workers, cache), plan).expect("replay runs");
    verify_replay(plan, &outcome).unwrap_or_else(|e| {
        panic!("workers={workers} cache={cache}: {e}");
    });
    assert_eq!(outcome.stats.decisions as usize, HOURS);
    assert_eq!(outcome.stats.errors, 0);
    // The cache counters are exact work counts: 168 distinct hours mean
    // 168 misses, zero hits, and (capacity 744 > 168) zero evictions —
    // at every worker count.
    if cache {
        assert_eq!(outcome.stats.cache_hits, 0, "workers={workers}");
        assert_eq!(
            outcome.stats.cache_misses, HOURS as u64,
            "workers={workers}"
        );
        assert_eq!(outcome.stats.cache_evictions, 0, "workers={workers}");
    } else {
        assert_eq!(outcome.stats.cache_hits, 0);
        assert_eq!(outcome.stats.cache_misses, 0);
        assert_eq!(outcome.stats.cache_evictions, 0);
    }
}

#[test]
fn one_worker_no_cache_is_bitwise_identical() {
    replay_and_verify(1, false);
}

#[test]
fn one_worker_with_cache_is_bitwise_identical() {
    replay_and_verify(1, true);
}

#[test]
fn four_workers_no_cache_is_bitwise_identical() {
    replay_and_verify(4, false);
}

#[test]
fn four_workers_with_cache_is_bitwise_identical() {
    replay_and_verify(4, true);
}

/// The same week submitted twice in one connection: the second pass must
/// be answered from the decision cache (every request is an exact bit
/// pattern repeat) and remain bitwise-identical to the fresh decisions.
///
/// The exact hit count is asserted with one worker, where the schedule
/// is deterministic: the whole first pass is decided (168 misses) before
/// the second pass is dequeued (168 hits). With two workers a
/// descheduled worker can still be solving a first-pass hour when the
/// other dequeues that hour's second-pass twin, which then misses too,
/// so the hit count depends on the schedule; that run checks the
/// decisions bit for bit and that every lookup was a hit or a miss.
#[test]
fn cached_second_pass_stays_bitwise_identical() {
    let plan = plan();
    let mut input = encode_requests(plan);
    let second = encode_requests(plan);
    input.extend_from_slice(&second);

    for workers in [1, 2] {
        let mut out = Vec::new();
        let stats =
            billcap::serve::serve(&config(workers, true), Cursor::new(input.clone()), &mut out);
        assert_eq!(stats.decisions as usize, 2 * HOURS, "workers={workers}");
        assert_eq!(stats.errors, 0, "workers={workers}");
        if workers == 1 {
            assert_eq!(stats.cache_hits, HOURS as u64, "one worker: cache hits");
            assert_eq!(stats.cache_misses, HOURS as u64, "one worker: cache misses");
        }
        // Every lookup is either a hit or a miss; nothing is ever evicted
        // (2*168 requests name only 168 distinct keys, capacity 744).
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            2 * HOURS as u64,
            "workers={workers}"
        );
        assert_eq!(stats.cache_evictions, 0, "workers={workers}");

        let mut per_hour_count = vec![0usize; HOURS];
        let mut cur = Cursor::new(out);
        while let Some(frame) = read_frame(&mut cur, MAX_FRAME).expect("server frames parse") {
            match Response::parse(&frame).expect("server responses parse") {
                Response::Decision(msg) => {
                    let t = msg.id as usize;
                    per_hour_count[t] += 1;
                    msg.bitwise_matches(&plan.expected[t]).unwrap_or_else(|e| {
                        panic!("workers={workers} hour {t} (cached={}): {e}", msg.cached)
                    });
                }
                Response::Error { id, message } => panic!("error for {id:?}: {message}"),
                other => panic!("unexpected control response: {other:?}"),
            }
        }
        assert!(
            per_hour_count.iter().all(|&c| c == 2),
            "workers={workers}: every hour answered twice"
        );
    }
}
