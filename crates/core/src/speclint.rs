//! Static spec analyzer: paper invariants re-derived before any solve.
//!
//! [`lint_system`] checks a [`DataCenterSystem`] — sites, pricing
//! policies, and their interplay — against the invariants the paper's
//! formulation silently assumes, without building or solving a MILP.
//! Findings reuse the stable-coded [`Finding`] shape of
//! [`billcap_milp::lint`], with spec *field paths* as locations
//! (`sites[0].power_cap_mw`) so a bad scenario reads like a compiler
//! diagnostic.
//!
//! | code | severity | invariant |
//! |------|----------|-----------|
//! | S001 | Error   | step-price breakpoints strictly increasing, positive, finite |
//! | S002 | Error   | one more price than breakpoints; prices finite, ≥ 0 |
//! | S003 | Error   | budget weights sum to 1 and are non-negative |
//! | S004 | Error   | premium fraction ∈ (0, 1] |
//! | S005 | Error   | QoS target achievable at zero load (headroom exists) |
//! | S006 | Error   | power cap covers the idle (QoS headroom) power |
//! | S007 | Error   | one pricing policy per site |
//! | S008 | Warning | site has zero deliverable capacity |
//! | S009 | Info    | price level unreachable within the site's power cap |
//!
//! The same idea guards every capper model: [`billcap_milp::lint_gate`]
//! (the model lint's refusing checks) runs on each model when it is
//! built, and a model with Error-severity findings is refused (see
//! [`crate::audit`]).

use crate::spec::DataCenterSystem;
use billcap_milp::lint::{Finding, Severity};
use std::fmt;

/// Result of linting a spec: findings only (a spec has no coefficient
/// matrix to summarize). Same JSONL conventions as
/// [`billcap_milp::LintReport`].
#[derive(Debug, Clone, Default)]
pub struct SpecReport {
    /// All findings, in check order (S001 … S009).
    pub findings: Vec<Finding>,
}

impl SpecReport {
    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Whether the report carries no `Error`-severity finding.
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: &str) -> bool {
        self.findings.iter().any(|f| f.code == code)
    }

    /// Appends another report's findings.
    pub fn extend(&mut self, other: SpecReport) {
        self.findings.extend(other.findings);
    }

    /// The findings as JSONL (one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_json().render());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for SpecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        Ok(())
    }
}

/// Lints a full system spec: per-policy structure (S001/S002), per-site
/// physics (S005/S006/S008), the site↔policy pairing (S007), and
/// cross-checks between each site's cap and its policy's levels (S009).
/// Never panics, even on deliberately corrupted specs.
pub fn lint_system(system: &DataCenterSystem) -> SpecReport {
    let mut findings = Vec::new();

    if system.sites.len() != system.policies.policies.len() {
        findings.push(Finding {
            code: "S007",
            severity: Severity::Error,
            location: "policies".into(),
            message: format!(
                "{} sites but {} pricing policies; every site needs exactly one",
                system.sites.len(),
                system.policies.policies.len()
            ),
        });
    }

    for (i, policy) in system.policies.policies.iter().enumerate() {
        lint_policy(i, policy, &mut findings);
    }

    for (i, site) in system.sites.iter().enumerate() {
        let headroom = match site.queue.qos_headroom(site.response_target) {
            Ok(h) => h,
            Err(e) => {
                findings.push(Finding {
                    code: "S005",
                    severity: Severity::Error,
                    location: format!("sites[{i}].response_target"),
                    message: format!(
                        "QoS target {} h is unreachable even at zero load ({e}); \
                         raise the target above the bare service time {:.3e} h",
                        site.response_target,
                        site.queue.service_time()
                    ),
                });
                continue;
            }
        };
        let base_mw = site.power.watts_per_server() * headroom / 1e6;
        if !site.power_cap_mw.is_finite() || site.power_cap_mw < base_mw {
            findings.push(Finding {
                code: "S006",
                severity: Severity::Error,
                location: format!("sites[{i}].power_cap_mw"),
                message: format!(
                    "cap {} MW is below the idle (QoS headroom) power {base_mw:.6} MW; \
                     the site cannot even sit idle within its cap",
                    site.power_cap_mw
                ),
            });
            continue;
        }
        // Deliverable capacity, recomputed without panicking accessors.
        let a = site.mw_per_request();
        let by_servers = (site.max_servers as f64 - headroom).max(0.0) * site.queue.service_rate;
        let by_power = if a > 0.0 {
            ((site.power_cap_mw - base_mw) / a).max(0.0)
        } else {
            f64::INFINITY
        };
        if by_servers.min(by_power) <= 0.0 {
            findings.push(Finding {
                code: "S008",
                severity: Severity::Warning,
                location: format!("sites[{i}]"),
                message: format!(
                    "site can serve zero requests (server bound {by_servers:.3}, \
                     power bound {by_power:.3} req/h); it only burns idle power"
                ),
            });
        }
        // S009: levels this site can never reach on its own draw.
        if let Some(policy) = system.policies.policies.get(i) {
            let bps = policy.breakpoints();
            if policy.prices().len() == bps.len() + 1
                && bps.windows(2).all(|w| w[0] < w[1])
                && bps.iter().all(|&b| b > 0.0 && b.is_finite())
            {
                for (k, &lo) in bps.iter().enumerate() {
                    if lo > site.power_cap_mw {
                        findings.push(Finding {
                            code: "S009",
                            severity: Severity::Info,
                            location: format!("policies[{i}].breakpoints[{k}]"),
                            message: format!(
                                "level {} starts at {lo} MW, beyond the site's \
                                 {} MW cap; only background demand can reach it",
                                k + 1,
                                site.power_cap_mw
                            ),
                        });
                        break; // higher levels are unreachable a fortiori
                    }
                }
            }
        }
    }

    SpecReport { findings }
}

fn lint_policy(i: usize, policy: &billcap_market::StepPolicy, findings: &mut Vec<Finding>) {
    let bps = policy.breakpoints();
    let prices = policy.prices();
    if prices.len() != bps.len() + 1 {
        findings.push(Finding {
            code: "S002",
            severity: Severity::Error,
            location: format!("policies[{i}].prices"),
            message: format!(
                "{} breakpoints need exactly {} prices, got {}; \
                 levels and prices are misaligned",
                bps.len(),
                bps.len() + 1,
                prices.len()
            ),
        });
    }
    for (k, w) in bps.windows(2).enumerate() {
        // NaN breakpoints must also trip this check, so avoid `>=`.
        if w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less) {
            findings.push(Finding {
                code: "S001",
                severity: Severity::Error,
                location: format!("policies[{i}].breakpoints[{}]", k + 1),
                message: format!(
                    "breakpoint {} MW does not exceed its predecessor {} MW; \
                     steps must be strictly increasing",
                    w[1], w[0]
                ),
            });
        }
    }
    for (k, &b) in bps.iter().enumerate() {
        if !(b > 0.0 && b.is_finite()) {
            findings.push(Finding {
                code: "S001",
                severity: Severity::Error,
                location: format!("policies[{i}].breakpoints[{k}]"),
                message: format!("breakpoint {b} MW must be positive and finite"),
            });
        }
    }
    for (k, &p) in prices.iter().enumerate() {
        if !(p.is_finite() && p >= 0.0) {
            findings.push(Finding {
                code: "S002",
                severity: Severity::Error,
                location: format!("policies[{i}].prices[{k}]"),
                message: format!("price {p} $/MWh must be finite and non-negative"),
            });
        }
    }
}

/// S003: budget weights must be non-negative and sum to 1 (they split a
/// weekly budget across hours; a bad sum silently re-scales the budget).
pub fn lint_budget_weights(weights: &[f64]) -> SpecReport {
    let mut findings = Vec::new();
    // detlint-allow(D006): sequential fixed-order sum over a short weight slice; bitwise-stable
    let sum: f64 = weights.iter().sum();
    if !sum.is_finite() || (sum - 1.0).abs() > 1e-6 {
        findings.push(Finding {
            code: "S003",
            severity: Severity::Error,
            location: "budgeter.weights".into(),
            message: format!(
                "weights sum to {sum:.9}, not 1; the weekly budget would be \
                 silently re-scaled by that factor"
            ),
        });
    }
    if let Some(k) = weights.iter().position(|w| *w < 0.0 || !w.is_finite()) {
        findings.push(Finding {
            code: "S003",
            severity: Severity::Error,
            location: format!("budgeter.weights[{k}]"),
            message: format!(
                "weight {} is negative or non-finite; hourly budgets must be ≥ 0",
                weights[k]
            ),
        });
    }
    SpecReport { findings }
}

/// S004: the premium share of offered traffic must lie in `(0, 1]` — the
/// paper's premium class exists (> 0) and cannot exceed the total.
pub fn lint_premium_fraction(frac: f64) -> SpecReport {
    let mut findings = Vec::new();
    if !(frac > 0.0 && frac <= 1.0) {
        findings.push(Finding {
            code: "S004",
            severity: Severity::Error,
            location: "scenario.premium_fraction".into(),
            message: format!(
                "premium fraction {frac} outside (0, 1]; premium traffic is \
                 a share of the offered rate"
            ),
        });
    }
    SpecReport { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use billcap_market::{PricingPolicySet, StepPolicy};

    fn paper() -> DataCenterSystem {
        DataCenterSystem::paper_system(1)
    }

    #[test]
    fn paper_systems_lint_clean() {
        for policy in 0..4 {
            let r = lint_system(&DataCenterSystem::paper_system(policy));
            assert!(r.is_clean(), "policy {policy}:\n{r}");
        }
        let r = lint_system(&DataCenterSystem::synthetic(10, 10));
        assert!(r.is_clean(), "synthetic:\n{r}");
    }

    #[test]
    fn flags_non_monotone_breakpoints() {
        let mut sys = paper();
        sys.policies.policies[1] =
            StepPolicy::new_unchecked(vec![450.0, 200.0, 600.0], vec![1.0, 2.0, 3.0, 4.0]);
        let r = lint_system(&sys);
        let f = r.findings.iter().find(|f| f.code == "S001").expect("S001");
        assert!(f.location.starts_with("policies[1].breakpoints"), "{f}");
        assert!(!r.is_clean());
    }

    #[test]
    fn flags_price_vector_mismatch() {
        let mut sys = paper();
        sys.policies.policies[0] = StepPolicy::new_unchecked(vec![200.0], vec![1.0, 2.0, 3.0]);
        let r = lint_system(&sys);
        assert!(r.has("S002"), "{r}");
    }

    #[test]
    fn flags_negative_price() {
        let mut sys = paper();
        sys.policies.policies[2] = StepPolicy::new_unchecked(vec![200.0], vec![10.0, -4.0]);
        let r = lint_system(&sys);
        let f = r.findings.iter().find(|f| f.code == "S002").expect("S002");
        assert_eq!(f.location, "policies[2].prices[1]");
    }

    #[test]
    fn flags_bad_weights() {
        let r = lint_budget_weights(&[0.5, 0.4]);
        assert!(r.has("S003") && !r.is_clean());
        let r = lint_budget_weights(&[1.5, -0.5]);
        assert!(r.has("S003"));
        let uniform = vec![1.0 / 168.0; 168];
        assert!(lint_budget_weights(&uniform).is_clean());
    }

    #[test]
    fn flags_bad_premium_fraction() {
        assert!(!lint_premium_fraction(0.0).is_clean());
        assert!(!lint_premium_fraction(1.5).is_clean());
        assert!(!lint_premium_fraction(f64::NAN).is_clean());
        assert!(lint_premium_fraction(0.8).is_clean());
        assert!(lint_premium_fraction(1.0).is_clean());
    }

    #[test]
    fn flags_unreachable_qos_target() {
        let mut sys = paper();
        // Target below the bare service time: unreachable at any load.
        sys.sites[0].response_target = 0.1 / sys.sites[0].queue.service_rate;
        let r = lint_system(&sys);
        let f = r.findings.iter().find(|f| f.code == "S005").expect("S005");
        assert_eq!(f.location, "sites[0].response_target");
    }

    #[test]
    fn flags_cap_below_idle_power() {
        let mut sys = paper();
        sys.sites[1].power_cap_mw = 1e-9; // idle draw is a few kW
        let r = lint_system(&sys);
        let f = r.findings.iter().find(|f| f.code == "S006").expect("S006");
        assert_eq!(f.location, "sites[1].power_cap_mw");
        assert!(!r.is_clean());
    }

    #[test]
    fn flags_policy_count_mismatch() {
        let mut sys = paper();
        sys.policies = PricingPolicySet::policy1(2);
        let r = lint_system(&sys);
        assert!(r.has("S007"), "{r}");
    }

    #[test]
    fn flags_zero_capacity_site() {
        let mut sys = paper();
        sys.sites[2].max_servers = 0;
        let r = lint_system(&sys);
        assert!(r.has("S008"), "{r}");
        assert!(r.is_clean(), "S008 is a warning: {r}");
    }

    #[test]
    fn reports_unreachable_levels() {
        let mut sys = paper();
        // dc2's cap is 65 MW; its policy's upper breakpoints (200+) are
        // unreachable on the site's own draw.
        sys.sites[1].power_cap_mw = 65.0;
        let r = lint_system(&sys);
        assert!(r.has("S009"), "{r}");
        assert!(r.is_clean());
    }

    #[test]
    fn corrupt_spec_never_panics_the_linter() {
        let mut sys = paper();
        sys.sites[0].response_target = -1.0;
        sys.sites[1].power_cap_mw = f64::NAN;
        sys.sites[2].max_servers = 0;
        sys.policies.policies[0] = StepPolicy::new_unchecked(vec![], vec![]);
        sys.policies.policies[2] =
            StepPolicy::new_unchecked(vec![f64::INFINITY], vec![f64::NAN, 1.0]);
        let r = lint_system(&sys);
        assert!(!r.is_clean());
        assert!(r.findings.len() >= 4, "{r}");
    }

    #[test]
    fn jsonl_export_is_parseable() {
        let mut sys = paper();
        sys.sites[1].power_cap_mw = 0.0;
        let r = lint_system(&sys);
        for line in r.to_jsonl().lines() {
            let v = billcap_obs::json::Value::parse(line).expect("valid JSON");
            assert!(v.get("code").is_some());
        }
    }
}
