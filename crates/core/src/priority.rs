//! N-class priority admission (generalizing the paper's premium/ordinary
//! split).
//!
//! The paper notes its 80/20 premium/ordinary proportion "is orthogonal to
//! our algorithm and other methods to define premium users can be easily
//! integrated". This module does that integration: any number of traffic
//! classes in strict priority order, with an arbitrary prefix marked
//! *guaranteed* (served regardless of budget, like the paper's premium
//! class). The decision is the paper's three steps with the guaranteed
//! prefix in the premium role; the rate they serve is then handed out in
//! priority order.

use crate::capper::{BillCapper, HourOutcome};
use crate::engine::DecisionEngine;
use crate::error::CoreError;
use crate::minimize::Allocation;
use crate::spec::DataCenterSystem;

/// One traffic class.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityClass {
    /// Class name (for reports).
    pub name: String,
    /// Offered rate (requests/hour).
    pub rate: f64,
    /// Guaranteed classes are served in full even if the budget breaks.
    /// All guaranteed classes must precede non-guaranteed ones.
    pub guaranteed: bool,
}

impl PriorityClass {
    /// A guaranteed (paying) class.
    pub fn guaranteed(name: impl Into<String>, rate: f64) -> Self {
        Self {
            name: name.into(),
            rate,
            guaranteed: true,
        }
    }

    /// A best-effort class.
    pub fn best_effort(name: impl Into<String>, rate: f64) -> Self {
        Self {
            name: name.into(),
            rate,
            guaranteed: false,
        }
    }
}

/// Outcome of a multi-class hour.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecision {
    /// Admitted rate per class (same order as the input).
    pub admitted: Vec<f64>,
    /// The enforced allocation.
    pub allocation: Allocation,
    /// True when guaranteed traffic forced the budget to be exceeded.
    pub budget_violated: bool,
}

impl BillCapper {
    /// Decides one hour for an ordered list of priority classes
    /// (highest priority first; guaranteed classes must form a prefix).
    ///
    /// Semantics generalize [`BillCapper::decide_hour`]: the same three
    /// steps on a one-shot engine, with the guaranteed prefix's total
    /// rate in the premium role:
    /// 1. minimize cost for the whole offered load — if it fits the
    ///    budget, everyone is served;
    /// 2. otherwise minimize the cost of the guaranteed prefix alone —
    ///    if even that busts the budget, serve exactly the guaranteed
    ///    traffic at that cost and report a violation;
    /// 3. otherwise maximize throughput within the budget and hand it
    ///    out in priority order.
    ///
    /// An empty class list, a class rate that is negative or not finite,
    /// and guaranteed classes that do not form a prefix are
    /// [`CoreError::InvalidInput`], as are hour inputs that break
    /// [`crate::capper::validate_hour_inputs`].
    pub fn decide_hour_classes(
        &self,
        system: &DataCenterSystem,
        classes: &[PriorityClass],
        background_mw: &[f64],
        hourly_budget: f64,
    ) -> Result<ClassDecision, CoreError> {
        let invalid = |msg: String| Err(CoreError::InvalidInput(msg));
        if classes.is_empty() {
            return invalid("need at least one class".into());
        }
        if let Some(c) = classes.iter().find(|c| !c.rate.is_finite() || c.rate < 0.0) {
            return invalid(format!(
                "class '{}' rate {} must be finite and >= 0",
                c.name, c.rate
            ));
        }
        let first_best_effort = classes
            .iter()
            .position(|c| !c.guaranteed)
            .unwrap_or(classes.len());
        if classes[first_best_effort..].iter().any(|c| c.guaranteed) {
            return invalid("guaranteed classes must form a prefix of the priority order".into());
        }

        let guaranteed_rate: f64 = classes[..first_best_effort].iter().map(|c| c.rate).sum();
        let offered: f64 = classes.iter().map(|c| c.rate).sum();
        let mut engine = DecisionEngine::new(system.clone());
        let (decision, served) =
            engine.decide(offered, guaranteed_rate, background_mw, hourly_budget)?;
        Ok(ClassDecision {
            admitted: distribute(classes, served),
            allocation: decision.allocation,
            budget_violated: decision.outcome == HourOutcome::PremiumOverride,
        })
    }
}

/// Hands `throughput` out to classes in priority order.
fn distribute(classes: &[PriorityClass], throughput: f64) -> Vec<f64> {
    let mut remaining = throughput;
    classes
        .iter()
        .map(|c| {
            let take = c.rate.min(remaining.max(0.0));
            remaining -= take;
            take
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DataCenterSystem;

    fn background() -> Vec<f64> {
        vec![360.0, 410.0, 430.0]
    }

    fn classes() -> Vec<PriorityClass> {
        vec![
            PriorityClass::guaranteed("enterprise", 3e8),
            PriorityClass::guaranteed("pro", 2e8),
            PriorityClass::best_effort("free", 2e8),
            PriorityClass::best_effort("batch", 1e8),
        ]
    }

    #[test]
    fn generous_budget_serves_all_classes() {
        let sys = DataCenterSystem::paper_system(1);
        let d = BillCapper::default()
            .decide_hour_classes(&sys, &classes(), &background(), 1e9)
            .unwrap();
        assert_eq!(d.admitted, vec![3e8, 2e8, 2e8, 1e8]);
        assert!(!d.budget_violated);
    }

    #[test]
    fn tight_budget_sheds_lowest_priority_first() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let capper = BillCapper::default();
        let full_cost = capper
            .decide_hour_classes(&sys, &classes(), &d, f64::INFINITY)
            .unwrap()
            .allocation
            .total_cost;
        let dec = capper
            .decide_hour_classes(&sys, &classes(), &d, 0.95 * full_cost)
            .unwrap();
        // Guaranteed classes intact.
        assert_eq!(dec.admitted[0], 3e8);
        assert_eq!(dec.admitted[1], 2e8);
        // Batch (lowest) sheds before free.
        assert!(dec.admitted[3] < 1e8 - 1.0, "batch {:?}", dec.admitted);
        if dec.admitted[3] > 0.0 {
            assert!((dec.admitted[2] - 2e8).abs() < 1.0, "free must fill first");
        }
        assert!(!dec.budget_violated);
    }

    #[test]
    fn starvation_budget_serves_exactly_the_guaranteed_prefix() {
        let sys = DataCenterSystem::paper_system(1);
        let dec = BillCapper::default()
            .decide_hour_classes(&sys, &classes(), &background(), 1.0)
            .unwrap();
        assert_eq!(dec.admitted, vec![3e8, 2e8, 0.0, 0.0]);
        assert!(dec.budget_violated);
    }

    #[test]
    fn two_classes_reduce_to_the_paper_scheme() {
        // premium/ordinary via the class API must match decide_hour bit
        // for bit: both are the same three steps.
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let offered = 8e8;
        let premium = 0.8 * offered;
        let capper = BillCapper::default();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for budget in [1.0, 2500.0, 1e9] {
            let classic = capper
                .decide_hour(&sys, offered, premium, &d, budget)
                .unwrap();
            let classy = capper
                .decide_hour_classes(
                    &sys,
                    &[
                        PriorityClass::guaranteed("premium", premium),
                        PriorityClass::best_effort("ordinary", offered - premium),
                    ],
                    &d,
                    budget,
                )
                .unwrap();
            let ctx = format!("budget {budget}");
            assert_eq!(
                bits(&classy.admitted),
                bits(&[classic.premium_served, classic.ordinary_served]),
                "{ctx}: admitted"
            );
            let (x, y) = (&classy.allocation, &classic.allocation);
            assert_eq!(bits(&x.lambda), bits(&y.lambda), "{ctx}: lambda");
            assert_eq!(x.servers, y.servers, "{ctx}: servers");
            assert_eq!(bits(&x.power_mw), bits(&y.power_mw), "{ctx}: power");
            assert_eq!(bits(&x.cost), bits(&y.cost), "{ctx}: cost");
            assert_eq!(x.level, y.level, "{ctx}: level");
            assert_eq!(
                classy.budget_violated,
                classic.outcome == HourOutcome::PremiumOverride,
                "{ctx}: violation iff premium override"
            );
        }
    }

    #[test]
    fn guaranteed_beyond_capacity_errors() {
        let sys = DataCenterSystem::paper_system(1);
        let too_much = vec![PriorityClass::guaranteed("big", 1e13)];
        assert!(matches!(
            BillCapper::default().decide_hour_classes(&sys, &too_much, &background(), 1e9),
            Err(CoreError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn interleaved_guarantees_rejected() {
        let sys = DataCenterSystem::paper_system(1);
        for (bad, needle) in [
            (
                vec![
                    PriorityClass::best_effort("free", 1e8),
                    PriorityClass::guaranteed("paid", 1e8),
                ],
                "prefix",
            ),
            (vec![], "at least one class"),
            (
                vec![
                    PriorityClass::guaranteed("paid", 1e8),
                    PriorityClass::best_effort("free", f64::NAN),
                ],
                "rate",
            ),
            (vec![PriorityClass::guaranteed("paid", -1e8)], "rate"),
        ] {
            match BillCapper::default().decide_hour_classes(&sys, &bad, &background(), 1e9) {
                Err(CoreError::InvalidInput(msg)) => assert!(msg.contains(needle), "{msg}"),
                r => panic!("{bad:?}: {r:?}"),
            }
        }
    }
}
