//! # billcap-sim
//!
//! Simulation harness for the `billcap` reproduction of *Electricity Bill
//! Capping for Cloud-Scale Data Centers that Impact the Power Markets*
//! (ICPP 2012): hourly month-long runs of the bill capper and the Min-Only
//! baselines over the synthetic Wikipedia-like workload and RECO-like
//! background demand, plus one experiment runner per figure of the paper's
//! evaluation (Section VII).
//!
//! * [`scenario`] — the paper's simulated setup: three data centers,
//!   pricing policies, two months of workload (history + evaluation),
//!   background demand, 80/20 premium split, and the $-budget family.
//! * [`runner`] — the hour loop: budgeter → capper (or baseline) →
//!   realized billing → metrics. Two interchangeable implementations:
//!   the scratch-reuse production loop and the fresh-allocation
//!   reference oracle, bitwise-identical by contract.
//! * [`metrics`] — per-hour records and monthly aggregates.
//! * [`corpus`] — the 144-month decision corpus: one digest per month,
//!   committed in `baselines/corpus.txt` to prove a change moves no
//!   decision bit, and a per-hour dump and diff that name the hours a
//!   change does move.
//! * [`risk`] — the Monte-Carlo risk engine: N perturbed-seed month
//!   simulations fanned across the worker pool, aggregated into
//!   P50/P95/P99 bill and violation distributions.
//! * [`experiments`] — `fig1` … `fig10`, `solver_scaling`, and the
//!   ablation studies; each returns structured data and renders the same
//!   rows/series the paper reports.
//!
//! Parameter sweeps (policy families, budget ladders) fan out on the
//! `billcap-rt` worker pool — each month simulation is independent.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod experiments;
pub mod export;
pub mod metrics;
pub mod risk;
pub mod runner;
pub mod scenario;
pub mod table;

pub use metrics::{HourRecord, HourTrace, MonthlyReport};
pub use risk::{RiskConfig, RiskEngine, RiskSample, RiskSummary, ScheduleSpec};
pub use runner::{run_month, run_month_fresh, run_month_scratch, MonthScratch, Strategy};
pub use scenario::Scenario;
