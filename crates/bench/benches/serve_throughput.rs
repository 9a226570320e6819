//! Decision-server throughput: per-decision strategy benches (cold
//! model build vs. retained models vs. cache hits), the wire-protocol
//! decoders and decision renderer, a burst of frames over a Unix socket
//! pair, and an
//! end-to-end replay table — decisions/sec for a
//! simulated week fired through the in-process server at 1 and 4
//! workers, the numbers the EXPERIMENTS.md "Decision server
//! throughput" table quotes.

use billcap_bench::serve_bench;
use billcap_rt::Harness;
use billcap_serve::{build_plan, run_replay, verify_replay, ReplayPlan, ServeConfig};
use billcap_sim::Scenario;

fn fast() -> bool {
    std::env::var("BILLCAP_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// One end-to-end replay, verified bitwise against the sequential
/// fresh decisions; prints decisions/sec.
fn replay_row(plan: &ReplayPlan, workers: usize, cache: bool) {
    let cfg = ServeConfig {
        workers,
        cache,
        ..ServeConfig::default()
    };
    let outcome = run_replay(&cfg, plan).expect("replay runs");
    assert_eq!(outcome.decisions.len(), plan.requests.len());
    verify_replay(plan, &outcome).expect("bitwise-identical responses");
    let mode = if cache {
        "incremental+cache"
    } else {
        "incremental"
    };
    println!(
        "  workers={workers:<2} {mode:<18} {:>9.1} decisions/sec  (verified bitwise)",
        outcome.decisions_per_sec(),
    );
}

fn replay_table() {
    let hours = if fast() { 24 } else { 168 };
    eprintln!("building {hours}-hour ground-truth plan ...");
    let plan = build_plan(1, 42, hours, Some(Scenario::STRINGENT_BUDGET)).expect("plan builds");
    println!("serve_replay/{hours}h (policy 1, seed 42, stringent budget):");
    for workers in [1usize, 4] {
        replay_row(&plan, workers, false);
        replay_row(&plan, workers, true);
    }
}

fn main() {
    let mut h = Harness::from_args();
    serve_bench::bench_decide_strategies(&mut h);
    serve_bench::bench_replay_telemetry(&mut h);
    let plan = build_plan(1, 42, 24, Some(Scenario::STRINGENT_BUDGET)).expect("plan builds");
    serve_bench::bench_protocol(&mut h, &plan);
    #[cfg(unix)]
    serve_bench::bench_socket_burst(&mut h, &plan).expect("serve telemetry opens");
    h.finish();
    replay_table();
}
