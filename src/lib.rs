//! # billcap
//!
//! A production-quality Rust reproduction of **"Electricity Bill Capping
//! for Cloud-Scale Data Centers that Impact the Power Markets"**
//! (Zhang, Wang & Wang, ICPP 2012).
//!
//! Cloud-scale data centers draw enough power to *move* locational
//! electricity prices (LMP): they are price makers, not price takers.
//! This crate implements the paper's two-step bill-capping algorithm —
//! price-aware cost minimization plus throughput maximization within a
//! monthly budget — together with every substrate the paper relies on:
//!
//! | module | contents |
//! |---|---|
//! | [`milp`] | revised simplex LP + branch-and-bound MILP solver |
//! | [`market`] | DC-OPF, the PJM five-bus system, step pricing policies |
//! | [`queueing`] | G/G/m Allen–Cunneen response-time model and sizing |
//! | [`power`] | server, k-ary fat-tree networking, and cooling power |
//! | [`workload`] | synthetic traces, background demand, the budgeter |
//! | [`core`] | cost minimizer, throughput maximizer, bill capper, baselines |
//! | [`sim`] | monthly simulation harness and per-figure experiments |
//! | [`serve`] | decide-hour daemon: framed JSON protocol, worker-pool server, differential replay |
//! | [`rt`] | deterministic RNG, worker pool, and bench harness (no external deps) |
//! | [`obs`] | tracing spans, counters and histograms (`set_enabled`; the CLI's `--trace`) |
//! | [`obs_analyze`] | trace consumers: span-tree profiler, flamegraph export, trace diffing, perf-trajectory gate |
//!
//! ## Quickstart
//!
//! ```
//! use billcap::core::{BillCapper, DataCenterSystem};
//!
//! // The paper's three-data-center system under pricing Policy 1.
//! let system = DataCenterSystem::paper_system(1);
//!
//! // One hour: 600M requests offered, 80% premium, regional background
//! // demand per site, and a $2,000 budget for the hour.
//! let capper = BillCapper::default();
//! let decision = capper
//!     .decide_hour(&system, 6.0e8, 4.8e8, &[360.0, 410.0, 430.0], 2_000.0)
//!     .expect("feasible hour");
//!
//! // Premium customers are always served in full.
//! assert_eq!(decision.premium_served, 4.8e8);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `cargo run --release -p billcap-sim --bin paper_experiments` for the
//! full figure-by-figure reproduction.

#![forbid(unsafe_code)]

pub use billcap_core as core;
pub use billcap_market as market;
pub use billcap_milp as milp;
pub use billcap_obs as obs;
pub use billcap_obs_analyze as obs_analyze;
pub use billcap_power as power;
pub use billcap_queueing as queueing;
pub use billcap_rt as rt;
pub use billcap_serve as serve;
pub use billcap_sim as sim;
pub use billcap_workload as workload;
