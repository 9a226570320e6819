//! # billcap-market
//!
//! Power-market substrate for the `billcap` reproduction of *Electricity
//! Bill Capping for Cloud-Scale Data Centers that Impact the Power Markets*
//! (ICPP 2012).
//!
//! The paper's central premise is that cloud-scale data centers are **price
//! makers**: under the Locational Marginal Pricing (LMP) methodology the
//! electricity price at a bus is a step function of the regional load,
//! jumping whenever a new generation or transmission constraint becomes
//! binding. The paper derives its pricing policies (its Figure 1) from the
//! canonical PJM five-bus example system.
//!
//! This crate rebuilds that chain from first principles:
//!
//! * [`network`] — a DC power-flow network model (buses, lines with
//!   reactances and thermal limits, generators with capacities and marginal
//!   costs) and the PTDF (power transfer distribution factor) matrix,
//!   computed with an in-crate dense Gaussian elimination.
//! * [`opf`] — economic dispatch as an LP (solved by `billcap-milp`) and
//!   LMP extraction by marginal-load perturbation.
//! * [`fivebus`] — the PJM five-bus instance (Alta, Park City, Solitude,
//!   Sundance, Brighton; consumers at buses B, C and D) used by the paper.
//! * [`policy`] — [`StepPolicy`], the piecewise-constant locational pricing
//!   policy consumed by the bill-capping optimizer, including the paper's
//!   printed Policy 1 and its scaled Policies 2/3, the flat Policy 0, and
//!   the price-taker reductions (average/lowest price) used by the
//!   Min-Only baselines.

#![forbid(unsafe_code)]

pub mod fivebus;
pub mod linalg;
pub mod network;
pub mod opf;
pub mod policy;

pub use fivebus::{pjm_five_bus, FiveBusConsumer};
pub use network::{Bus, BusId, Generator, Grid, Line};
pub use opf::{DispatchResult, LmpDecomposition, OpfError, OpfSolver};
pub use policy::{PricingPolicySet, StepPolicy};
