//! # billcap-core
//!
//! The primary contribution of *Electricity Bill Capping for Cloud-Scale
//! Data Centers that Impact the Power Markets* (ICPP 2012): a two-step
//! electricity-bill-capping algorithm for a network of geographically
//! distributed data centers whose power draw moves the locational price.
//!
//! **Step 1 — [`CostMinimizer`]** (paper Section IV): split the hourly
//! request rate `λ` across data centers to minimize `Σ Pr_i · p_i`, where
//! `Pr_i = F_i(p_i + d_i)` is a locational *step* pricing policy of the
//! total regional load, `p_i` covers servers + networking + cooling, each
//! site has a power cap, and a G/G/m response-time constraint fixes the
//! servers needed per unit of traffic. The step policy is linearized with
//! one binary per price level and level-restricted power variables,
//! yielding a MILP (solved by `billcap-milp`).
//!
//! **Step 2 — [`ThroughputMaximizer`]** (paper Section V): when the
//! minimized cost exceeds the hour's budget, maximize admitted throughput
//! subject to `Σ cost_i ≤ budget`. Premium customers are always served:
//! before throttling, step 1 re-runs on premium traffic only, and if even
//! that busts the budget its allocation is enforced and the hour's
//! budget knowingly violated (step 2 then never runs).
//!
//! **[`DecisionEngine`]** runs the steps each hour, keeping its models
//! between hours, and is the one place a step model is built, linted,
//! solved and certified; **[`BillCapper`]** is its one-shot front for a
//! decision, and the two optimizers are its one-shot fronts for a
//! single step;
//! **[`MinOnly`]** implements the state-of-the-art baseline the paper
//! compares against (constant prices, server-only power model); and
//! **[`evaluate_allocation`]** applies the *true* cost model to any
//! allocation so that baseline decisions are billed at real market prices.
//!
//! ## Example
//!
//! Decide one hour for the paper's three-site system under a tight budget:
//!
//! ```
//! use billcap_core::{BillCapper, DataCenterSystem, HourOutcome};
//!
//! let system = DataCenterSystem::paper_system(1); // pricing policy 1
//! let background = vec![330.0, 410.0, 280.0];    // regional demand, MW
//!
//! let capper = BillCapper::default();
//! let decision = capper
//!     .decide_hour(&system, 6e8, 4.8e8, &background, 25_000.0)
//!     .unwrap();
//!
//! // Premium traffic is always served, whatever the outcome branch.
//! assert_eq!(decision.premium_served, 4.8e8);
//! if decision.outcome != HourOutcome::PremiumOverride {
//!     assert!(decision.cost() <= 25_000.0 * (1.0 + 1e-9));
//! }
//! // Solver effort is recorded on every decision.
//! assert!(decision.trace.solves >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod baselines;
pub mod cache;
pub mod capper;
pub mod capsched;
pub mod engine;
pub mod error;
pub mod evaluate;
pub mod hetero;
pub mod hierarchical;
pub mod maximize;
pub mod minimize;
pub mod spec;
pub mod speclint;

pub use audit::{AuditReport, PlanAuditor, PlanViolation};
pub use baselines::{MinOnly, PriceAssumption};
pub use cache::{system_fingerprint, DecisionCache, DecisionKey};
pub use capper::{validate_hour_inputs, BillCapper, DecisionTrace, HourDecision, HourOutcome};
pub use capsched::CapSchedule;
pub use engine::{DecisionEngine, EngineStats};
pub use error::CoreError;
pub use evaluate::{evaluate_allocation, RealizedCost};
pub use hierarchical::HierarchicalMinimizer;
pub use maximize::ThroughputMaximizer;
pub use minimize::{step1_cost_floor, Allocation, CostMinimizer};
pub use spec::{DataCenterSpec, DataCenterSystem};
pub use speclint::{lint_budget_weights, lint_premium_fraction, lint_system, SpecReport};
