//! Regenerates the committed performance trajectory (`BENCH_solver.json`).
//!
//! Runs the headline solver benchmarks on the in-repo harness, then a
//! traced one-week capping run whose deterministic work aggregates
//! (branch-and-bound nodes, LP iterations, per-phase wall totals) are
//! recorded next to the bench medians. The output feeds the `perf-gate`
//! binary: commit a fresh baseline with
//!
//! ```text
//! cargo run --release -p billcap-bench --bin bench_trajectory -- \
//!     --out BENCH_solver.json
//! ```
//!
//! and compare a later run against it with `perf-gate`. Set
//! `BILLCAP_BENCH_FAST=1` for a quick smoke run (CI does; the committed
//! baseline should come from a full run).

#![forbid(unsafe_code)]

use billcap_core::{BillCapper, CostMinimizer, DataCenterSystem};
use billcap_milp::MipSolver;
use billcap_obs_analyze::trajectory::{BenchPoint, BenchTrajectory, TraceAggregates};
use billcap_rt::{BenchConfig, Harness};
use billcap_sim::experiments::synthetic_system;
use billcap_sim::{
    run_month, run_month_fresh, run_month_scratch, MonthScratch, RiskConfig, RiskEngine, Scenario,
    Strategy,
};
use std::hint::black_box;
use std::process::ExitCode;

/// Hours in the traced reference run (one week keeps a full-accuracy
/// run under a minute while exercising every solver path).
const REFERENCE_HOURS: usize = 168;

fn bench_solvers(h: &mut Harness) {
    // Step-1 MILP by network size (the paper's Section IV-C axis).
    for n in [3usize, 5, 8, 13] {
        let system = synthetic_system(n);
        let d: Vec<f64> = (0..n).map(|i| 330.0 + 40.0 * (i % 3) as f64).collect();
        let minimizer = CostMinimizer::default();
        h.bench(&format!("step1_milp_by_sites/{n}"), || {
            let alloc = minimizer
                .solve(black_box(&system), black_box(1e8), black_box(&d))
                .expect("feasible");
            black_box(alloc.total_cost)
        });
    }

    // The full two-step decision on the paper's 3-site system.
    let system = DataCenterSystem::paper_system(1);
    let capper = BillCapper::default();
    h.bench("decide_hour/paper", || {
        let decision = capper
            .decide_hour(
                black_box(&system),
                black_box(6.0e8),
                black_box(4.8e8),
                black_box(&[360.0, 410.0, 430.0]),
                black_box(2_000.0),
            )
            .expect("feasible hour");
        black_box(decision.premium_served)
    });

    // A hard 10-site x 10-level branch-and-bound instance.
    let sys = DataCenterSystem::synthetic(10, 10);
    let background: Vec<f64> = (0..sys.len()).map(|i| 5.0 + 3.0 * i as f64).collect();
    let lambda = 0.45 * sys.total_capacity();
    let minimizer = CostMinimizer::default();
    h.bench("bnb_10x10/default_threads", || {
        let alloc = minimizer
            .solve(black_box(&sys), black_box(lambda), black_box(&background))
            .expect("feasible");
        black_box(alloc.total_cost)
    });

    // The same instance with warm starts disabled: every node cold-starts
    // from the all-slack dual basis, isolating what the parent-basis
    // warm-start protocol buys on a deep tree.
    let cold = CostMinimizer {
        solver: MipSolver {
            warm_start: false,
            ..MipSolver::default()
        },
    };
    h.bench("bnb_10x10/cold_start", || {
        let alloc = cold
            .solve(black_box(&sys), black_box(lambda), black_box(&background))
            .expect("feasible");
        black_box(alloc.total_cost)
    });
}

/// Month-loop and Monte-Carlo benches: the fresh-allocation oracle vs
/// the scratch-reuse production path on identical inputs (the
/// allocation-reuse refactor's headline number), plus a small risk run.
fn bench_month_runs(h: &mut Harness) {
    const HOURS: usize = 48;
    let scenario = Scenario::paper_default(1, 42).first_hours(HOURS);
    let budget = Some(Scenario::STRINGENT_BUDGET * HOURS as f64 / 720.0);

    h.bench("month_run/fresh", || {
        let report = run_month_fresh(
            black_box(&scenario),
            Strategy::CostCapping,
            black_box(budget),
            false,
            None,
        )
        .expect("month simulates");
        black_box(report.total_cost())
    });

    let mut scratch = MonthScratch::new();
    h.bench("month_run/scratch", || {
        let report = run_month_scratch(
            black_box(&scenario),
            Strategy::CostCapping,
            black_box(budget),
            false,
            None,
            &mut scratch,
        )
        .expect("month simulates");
        black_box(report.total_cost())
    });

    // A small Monte-Carlo risk run: 4 perturbed 24-hour samples on 2
    // workers (fixed thread count so the number is comparable across
    // machines).
    let config = RiskConfig {
        samples: 4,
        hours: 24,
        threads: 2,
        monthly_budget: Some(Scenario::STRINGENT_BUDGET * 24.0 / 720.0),
        ..RiskConfig::default()
    };
    let engine = RiskEngine::new(config);
    h.bench("risk_engine/4x24h", || {
        let (_, summary) = engine.run().expect("risk run");
        black_box(summary.bill.p99)
    });
}

/// Runs the traced one-week capping reference and returns its work
/// aggregates.
fn traced_reference_run() -> Result<TraceAggregates, String> {
    billcap_obs::set_enabled(true);
    billcap_obs::reset();
    let scenario = Scenario::paper_default(1, 42).first_hours(REFERENCE_HOURS);
    // The stringent monthly budget, prorated to the sliced horizon, so
    // the reference run exercises throttled hours (step 2) as well as
    // within-budget ones.
    let budget = Scenario::STRINGENT_BUDGET * REFERENCE_HOURS as f64 / 720.0;
    run_month(&scenario, Strategy::CostCapping, Some(budget))
        .map_err(|e| format!("reference run failed: {e}"))?;
    let snap = billcap_obs::snapshot();
    billcap_obs::set_enabled(false);
    Ok(TraceAggregates::from_snapshot(&snap))
}

fn run() -> Result<(), String> {
    let mut out: Option<String> = None;
    // detlint-allow(D004): CLI argv parsing in the bench binary; not decision state
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                out = Some(args.next().ok_or("--out needs a file path")?);
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}; usage: bench_trajectory [--out FILE]"
                ))
            }
        }
    }

    let mut h = Harness::with_config(BenchConfig::default());
    bench_solvers(&mut h);
    bench_month_runs(&mut h);
    // The decision-server strategy benches (cold vs incremental vs
    // cached) — the serve subsystem's perf claim lives in this file —
    // the telemetry-overhead replay pair (disabled vs enabled), the
    // wire-protocol decoders and decision renderer, and a burst of
    // frames over a Unix socket pair (the socket path end to end).
    billcap_bench::serve_bench::bench_decide_strategies(&mut h);
    billcap_bench::serve_bench::bench_replay_telemetry(&mut h);
    let plan = billcap_serve::build_plan(1, 42, 24, Some(Scenario::STRINGENT_BUDGET))
        .map_err(|e| format!("building the protocol benches' plan: {e}"))?;
    billcap_bench::serve_bench::bench_protocol(&mut h, &plan);
    #[cfg(unix)]
    billcap_bench::serve_bench::bench_socket_burst(&mut h, &plan)
        .map_err(|e| format!("opening the socket bench's telemetry: {e}"))?;
    let benches: Vec<BenchPoint> = h
        .results()
        .iter()
        .map(|r| BenchPoint {
            name: r.name.clone(),
            median_ns: r.median_ns,
            min_ns: r.min_ns,
            mean_ns: r.mean_ns,
            samples: r.samples as u64,
            iters_per_sample: r.iters_per_sample,
        })
        .collect();

    eprintln!("running traced {REFERENCE_HOURS}-hour reference ...");
    let aggregates = traced_reference_run()?;
    let trajectory = BenchTrajectory::new(benches, aggregates);
    let json = trajectory.render_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path:?}: {e}"))?;
            eprintln!("trajectory written to {path}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
