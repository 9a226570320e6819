//! Exact M/M/m formulas, used to cross-check the G/G/m approximations.

/// Erlang-C formula: probability that an arriving request must wait in an
/// M/M/m queue with `m` servers and offered load `a = λ/μ` (in Erlangs).
///
/// Computed with the numerically stable iterative form of the Erlang-B
/// recursion followed by the B→C conversion, which avoids factorials and
/// is exact for all practical `m`.
///
/// Returns 1.0 when the system is saturated (`a >= m`).
pub fn erlang_c(m: u64, a: f64) -> f64 {
    assert!(a >= 0.0, "offered load must be non-negative");
    if m == 0 {
        return 1.0;
    }
    let m_f = m as f64;
    if a >= m_f {
        return 1.0;
    }
    if a == 0.0 {
        return 0.0;
    }
    // Erlang-B by recursion: B(0) = 1; B(k) = a*B(k-1) / (k + a*B(k-1)).
    let mut b = 1.0;
    for k in 1..=m {
        b = a * b / (k as f64 + a * b);
    }
    // C = B / (1 - (a/m)(1 - B)).
    let rho = a / m_f;
    b / (1.0 - rho * (1.0 - b))
}

/// Mean response time of an M/M/m queue: `1/μ + C(m, a)/(mμ − λ)`.
///
/// Returns `None` when unstable (`λ >= mμ`).
#[cfg(test)]
pub(crate) fn mmm_mean_response_time(m: u64, lambda: f64, mu: f64) -> Option<f64> {
    assert!(mu > 0.0);
    let capacity = m as f64 * mu;
    if lambda >= capacity {
        return None;
    }
    if lambda <= 0.0 {
        return Some(1.0 / mu);
    }
    let c = erlang_c(m, lambda / mu);
    Some(1.0 / mu + c / (capacity - lambda))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_c_single_server_is_utilization() {
        // For M/M/1, P(wait) = rho.
        for rho in [0.1, 0.5, 0.9] {
            let c = erlang_c(1, rho);
            assert!((c - rho).abs() < 1e-12, "rho {rho}: {c}");
        }
    }

    #[test]
    fn erlang_c_known_value() {
        // Classic tabulated value: m = 10, a = 7 Erlangs -> C ≈ 0.2217.
        let c = erlang_c(10, 7.0);
        assert!((c - 0.2217).abs() < 5e-4, "{c}");
    }

    #[test]
    fn erlang_c_monotone_in_load() {
        let mut prev = 0.0;
        for i in 1..20 {
            let a = i as f64;
            let c = erlang_c(20, a);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn erlang_c_bounds() {
        for m in [1u64, 5, 50, 500] {
            for frac in [0.1, 0.5, 0.9, 0.99] {
                let a = frac * m as f64;
                let c = erlang_c(m, a);
                assert!((0.0..=1.0).contains(&c), "m={m} a={a}: {c}");
            }
        }
    }

    #[test]
    fn saturated_system_always_waits() {
        assert_eq!(erlang_c(10, 10.0), 1.0);
        assert_eq!(erlang_c(10, 15.0), 1.0);
        assert_eq!(erlang_c(0, 0.5), 1.0);
    }

    #[test]
    fn mm1_response_time_matches_closed_form() {
        // M/M/1: R = 1/(μ − λ).
        let mu = 2.0;
        let lambda = 1.5;
        let r = mmm_mean_response_time(1, lambda, mu).unwrap();
        assert!((r - 1.0 / (mu - lambda)).abs() < 1e-12);
    }

    #[test]
    fn unstable_returns_none() {
        assert!(mmm_mean_response_time(2, 5.0, 2.0).is_none());
    }

    #[test]
    fn zero_load_is_pure_service_time() {
        assert_eq!(mmm_mean_response_time(4, 0.0, 2.0), Some(0.5));
    }

    #[test]
    fn large_server_count_is_stable_numerically() {
        // 300k servers (paper scale): must not overflow or lose precision.
        let c = erlang_c(300_000, 299_000.0);
        assert!((0.0..=1.0).contains(&c));
        let c2 = erlang_c(300_000, 100_000.0);
        assert!(
            c2 < 1e-6,
            "lightly loaded huge farm should rarely queue: {c2}"
        );
    }
}
