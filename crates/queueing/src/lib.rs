//! # billcap-queueing
//!
//! Queueing-theoretic performance models for the `billcap` reproduction of
//! *Electricity Bill Capping for Cloud-Scale Data Centers that Impact the
//! Power Markets* (ICPP 2012).
//!
//! The paper models each data center as a **G/G/m queue**: `m` homogeneous
//! servers with service rate `μ`, generally distributed inter-arrival times
//! (squared coefficient of variation `C²_A`) and service times (`C²_B`).
//! Its equation (3) is the Allen–Cunneen approximation, further simplified
//! with the observation that a local optimizer keeps active servers near
//! full utilization (`ρ ≈ 1`):
//!
//! ```text
//! R  =  1/μ  +  (C²_A + C²_B)/2 · 1/(nμ − λ)
//! ```
//!
//! That form is linear in `λ` once solved for the server count `n`, which
//! is what makes the paper's cost-minimization MILP linear:
//!
//! ```text
//! R ≤ Rs   ⇔   n ≥ λ/μ + K/(μ·(Rs − 1/μ)),   K = (C²_A + C²_B)/2
//! ```
//!
//! This crate provides that simplified model ([`GgmModel`]), the *full*
//! Allen–Cunneen approximation with the Erlang-C waiting probability
//! ([`GgmModel::response_time_full`], used to validate how tight the
//! simplification is), exact M/M/m formulas for cross-checks ([`mmm`]),
//! and an exact discrete-event G/G/m simulator ([`des`]) that serves as
//! ground truth: its tests confirm that the full Allen–Cunneen form
//! tracks simulation within ~15 % and that the paper's conservative
//! server sizing meets its response-time targets empirically.
//!
//! ## Example
//!
//! Size a site for an offered rate and check the resulting response time:
//!
//! ```
//! use billcap_queueing::GgmModel;
//!
//! // 1000 requests/hour/server, C²_A = 4 (bursty), C²_B = 1.
//! let model = GgmModel::new(1000.0, 4.0, 1.0);
//! let target = 2.0 * model.service_time(); // twice the bare service time
//!
//! // Servers the local optimizer starts for 1M requests/hour...
//! let servers = model.min_servers(1e6, target).unwrap();
//! // ...and the simplified Allen–Cunneen response time they achieve.
//! let response = model.response_time(servers, 1e6).unwrap();
//! assert!(response <= target);
//! // One server fewer misses the target (or is outright unstable).
//! let worse = model.response_time(servers - 1, 1e6).unwrap_or(f64::INFINITY);
//! assert!(worse > target);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod ggm;
pub mod mmm;
#[cfg(test)]
mod scv;

pub use des::{Distribution, QueueSim, SimStats};
pub use ggm::{GgmModel, QueueingError};
pub use mmm::erlang_c;
