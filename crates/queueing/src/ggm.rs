//! The G/G/m model of a data center (paper Section IV-B).

use crate::mmm::erlang_c;
use std::fmt;

/// Errors from the queueing model.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueingError {
    /// The target response time is not achievable at any server count
    /// (it is at or below the bare service time `1/μ`).
    UnreachableTarget {
        /// The requested response-time target.
        target: f64,
        /// The bare service time `1/μ` it cannot beat.
        service_time: f64,
    },
    /// The system is unstable: arrivals exceed the service capacity.
    Unstable {
        /// Offered arrival rate.
        arrival_rate: f64,
        /// Total service capacity `nμ`.
        capacity: f64,
    },
}

impl fmt::Display for QueueingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueingError::UnreachableTarget {
                target,
                service_time,
            } => write!(
                f,
                "response-time target {target} is not above the service time {service_time}"
            ),
            QueueingError::Unstable {
                arrival_rate,
                capacity,
            } => write!(
                f,
                "arrival rate {arrival_rate} exceeds service capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for QueueingError {}

/// A G/G/m data-center model with homogeneous servers.
///
/// Units are the caller's choice but must be consistent: if `service_rate`
/// is requests/hour/server, arrival rates are requests/hour and response
/// times are hours. The `billcap` experiments use hours throughout.
///
/// ```
/// use billcap_queueing::GgmModel;
///
/// // Paper DC1: 500 requests/hour/server, Poisson-ish traffic.
/// let model = GgmModel::new(500.0, 1.0, 1.0);
/// let target = 1.5 / 500.0; // 50% above the bare service time
///
/// // The local optimizer's sizing rule (paper eq. 3 solved for n):
/// let servers = model.min_servers(1.0e8, target).unwrap();
/// assert!(model.response_time(servers, 1.0e8).unwrap() <= target);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GgmModel {
    /// Service rate `μ` of a single server (requests per unit time).
    pub service_rate: f64,
    /// Squared coefficient of variation of inter-arrival times (`C²_A`).
    pub scv_arrival: f64,
    /// Squared coefficient of variation of service times (`C²_B`).
    pub scv_service: f64,
}

impl GgmModel {
    /// Creates a model; panics on non-positive service rate or negative SCVs.
    pub fn new(service_rate: f64, scv_arrival: f64, scv_service: f64) -> Self {
        assert!(service_rate > 0.0, "service rate must be positive");
        assert!(
            scv_arrival >= 0.0 && scv_service >= 0.0,
            "SCVs must be non-negative"
        );
        Self {
            service_rate,
            scv_arrival,
            scv_service,
        }
    }

    /// The variability factor `K = (C²_A + C²_B) / 2`.
    pub fn variability(&self) -> f64 {
        (self.scv_arrival + self.scv_service) / 2.0
    }

    /// Bare service time `1/μ`.
    pub fn service_time(&self) -> f64 {
        1.0 / self.service_rate
    }

    /// Mean response time with `servers` active and arrival rate `lambda`,
    /// using the paper's simplified Allen–Cunneen form (eq. 3 with `ρ ≈ 1`):
    /// `R = 1/μ + K/(nμ − λ)`.
    ///
    /// Errors with [`QueueingError::Unstable`] when `λ ≥ nμ`.
    pub fn response_time(&self, servers: u64, lambda: f64) -> Result<f64, QueueingError> {
        let capacity = servers as f64 * self.service_rate;
        if lambda >= capacity {
            return Err(QueueingError::Unstable {
                arrival_rate: lambda,
                capacity,
            });
        }
        if lambda <= 0.0 {
            return Ok(self.service_time());
        }
        Ok(self.service_time() + self.variability() / (capacity - lambda))
    }

    /// Mean response time using the full Allen–Cunneen approximation,
    /// `R = 1/μ + K · C(m, λ/μ) / (mμ − λ)` with `C` the Erlang-C waiting
    /// probability. Used to validate the simplified form (the two agree as
    /// utilization approaches one, which the local optimizer enforces).
    pub fn response_time_full(&self, servers: u64, lambda: f64) -> Result<f64, QueueingError> {
        let capacity = servers as f64 * self.service_rate;
        if lambda >= capacity {
            return Err(QueueingError::Unstable {
                arrival_rate: lambda,
                capacity,
            });
        }
        if lambda <= 0.0 {
            return Ok(self.service_time());
        }
        let offered = lambda / self.service_rate;
        let p_wait = erlang_c(servers, offered);
        Ok(self.service_time() + self.variability() * p_wait / (capacity - lambda))
    }

    /// Minimum number of servers needed to meet mean response-time target
    /// `target` at arrival rate `lambda`, per the paper's closed form:
    /// `n = ceil(λ/μ + K / (μ·(Rs − 1/μ)))`.
    ///
    /// This is exactly what each data center's *local optimizer* computes.
    pub fn min_servers(&self, lambda: f64, target: f64) -> Result<u64, QueueingError> {
        let headroom = self.servers_fractional(lambda, target)?;
        Ok(headroom.ceil().max(0.0) as u64)
    }

    /// The continuous (un-rounded) server requirement `λ/μ + c`, where
    /// `c = K/(μ·(Rs − 1/μ))` is the QoS headroom constant. This is the
    /// quantity the MILP uses directly (power is proportional to it).
    fn servers_fractional(&self, lambda: f64, target: f64) -> Result<f64, QueueingError> {
        if lambda < 0.0 {
            return Err(QueueingError::Unstable {
                arrival_rate: lambda,
                capacity: 0.0,
            });
        }
        Ok(lambda / self.service_rate + self.qos_headroom(target)?)
    }

    /// The constant `c = K/(μ·(Rs − 1/μ))` — extra (fractional) servers
    /// needed beyond the pure capacity term to meet the QoS target.
    pub fn qos_headroom(&self, target: f64) -> Result<f64, QueueingError> {
        let slack = target - self.service_time();
        if slack <= 0.0 {
            return Err(QueueingError::UnreachableTarget {
                target,
                service_time: self.service_time(),
            });
        }
        Ok(self.variability() / (self.service_rate * slack))
    }

    /// True when `servers` meet the mean response-time `target` at arrival
    /// rate `lambda`, treating an unstable system (`λ ≥ nμ`) as a miss.
    /// This is the audit layer's QoS primitive: a plan whose server count
    /// cannot even stabilize the queue must not pass on a technicality.
    pub fn meets_target(&self, servers: u64, lambda: f64, target: f64) -> bool {
        self.response_time(servers, lambda)
            .is_ok_and(|r| r <= target)
    }

    /// Maximum arrival rate `n` servers can carry while meeting `target`:
    /// the inverse of `GgmModel::servers_fractional`,
    /// `λ_max = nμ − K/(Rs − 1/μ)` (clamped at zero).
    pub fn max_arrival_rate(&self, servers: u64, target: f64) -> Result<f64, QueueingError> {
        let headroom = self.qos_headroom(target)?;
        Ok(((servers as f64 - headroom) * self.service_rate).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GgmModel {
        GgmModel::new(500.0, 1.0, 1.0) // paper DC1: 500 req/h per server
    }

    #[test]
    fn response_time_has_service_time_floor() {
        let m = model();
        let r = m.response_time(100, 0.0).unwrap();
        assert_eq!(r, 1.0 / 500.0);
    }

    #[test]
    fn response_time_increases_with_load() {
        let m = model();
        let r1 = m.response_time(100, 10_000.0).unwrap();
        let r2 = m.response_time(100, 40_000.0).unwrap();
        assert!(r2 > r1);
    }

    #[test]
    fn response_time_decreases_with_servers() {
        let m = model();
        let r1 = m.response_time(100, 40_000.0).unwrap();
        let r2 = m.response_time(200, 40_000.0).unwrap();
        assert!(r2 < r1);
    }

    #[test]
    fn unstable_system_is_an_error() {
        let m = model();
        assert!(matches!(
            m.response_time(10, 5_000.0),
            Err(QueueingError::Unstable { .. })
        ));
        assert!(matches!(
            m.response_time(10, 6_000.0),
            Err(QueueingError::Unstable { .. })
        ));
    }

    #[test]
    fn min_servers_meets_target() {
        let m = model();
        let target = 2.0 * m.service_time();
        let lambda = 123_456.0;
        let n = m.min_servers(lambda, target).unwrap();
        let r = m.response_time(n, lambda).unwrap();
        assert!(r <= target + 1e-12, "R = {r} > {target}");
    }

    #[test]
    fn min_servers_is_tight() {
        // One server fewer must violate the target (or be unstable).
        let m = model();
        let target = 1.5 * m.service_time();
        let lambda = 98_765.0;
        let n = m.min_servers(lambda, target).unwrap();
        assert!(n > 0);
        match m.response_time(n - 1, lambda) {
            Ok(r) => assert!(r > target),
            Err(QueueingError::Unstable { .. }) => {}
            Err(e) => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn unreachable_target_is_rejected() {
        let m = model();
        let err = m.min_servers(1000.0, m.service_time());
        assert!(matches!(err, Err(QueueingError::UnreachableTarget { .. })));
    }

    #[test]
    fn meets_target_bounds_min_servers() {
        let m = model();
        let target = 2.0 * m.service_time();
        let lambda = 123_456.0;
        let n = m.min_servers(lambda, target).unwrap();
        assert!(m.meets_target(n, lambda, target));
        assert!(!m.meets_target(n.saturating_sub(1), lambda, target));
        // An unstable configuration is a miss, not an error.
        assert!(!m.meets_target(1, lambda, target));
        // A zero-load site meets any target above the bare service time.
        assert!(m.meets_target(1, 0.0, target));
    }

    #[test]
    fn max_arrival_rate_inverts_min_servers() {
        let m = model();
        let target = 2.0 * m.service_time();
        let n = 1000;
        let lambda = m.max_arrival_rate(n, target).unwrap();
        // That arrival rate must be servable by exactly n servers.
        let needed = m.min_servers(lambda, target).unwrap();
        assert!(needed <= n, "needed {needed} > {n}");
        // And a slightly higher rate must need more than n.
        let needed_more = m.min_servers(lambda + 1.0, target).unwrap();
        assert!(needed_more >= n, "needed_more {needed_more} < {n}");
    }

    #[test]
    fn full_allen_cunneen_close_to_simplified_at_high_utilization() {
        let m = model();
        let n = 200u64;
        let target_util = 0.999;
        let lambda = target_util * n as f64 * m.service_rate;
        let simplified = m.response_time(n, lambda).unwrap();
        let full = m.response_time_full(n, lambda).unwrap();
        // As utilization approaches 1 the Erlang-C waiting probability
        // approaches 1, so the forms converge.
        let rel = (simplified - full).abs() / full;
        assert!(rel < 0.02, "relative gap {rel}");
    }

    #[test]
    fn full_form_never_exceeds_simplified() {
        // Erlang-C is a probability <= 1, so the full form's waiting term
        // is at most the simplified one's.
        let m = model();
        for util in [0.3, 0.6, 0.9, 0.99] {
            let n = 150u64;
            let lambda = util * n as f64 * m.service_rate;
            let s = m.response_time(n, lambda).unwrap();
            let f = m.response_time_full(n, lambda).unwrap();
            assert!(f <= s + 1e-12, "util {util}: full {f} > simplified {s}");
        }
    }

    #[test]
    fn higher_variability_needs_more_servers() {
        let smooth = GgmModel::new(500.0, 0.5, 0.5);
        let bursty = GgmModel::new(500.0, 4.0, 2.0);
        let target = 2.0 * smooth.service_time();
        let lambda = 50_000.0;
        let n_smooth = smooth.min_servers(lambda, target).unwrap();
        let n_bursty = bursty.min_servers(lambda, target).unwrap();
        assert!(n_bursty >= n_smooth);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_service_rate_rejected() {
        GgmModel::new(0.0, 1.0, 1.0);
    }
}
