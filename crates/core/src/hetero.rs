//! Heterogeneous data centers (paper Section IX, future work).
//!
//! The paper assumes homogeneous servers per site and flags heterogeneity —
//! multiple server generations with different service rates and power
//! draws — as an open extension. This module implements the natural local
//! optimizer for that case: given a site-level request rate, activate
//! server classes in order of energy-per-request efficiency, and expose an
//! *effective* linearized power coefficient so the heterogeneous site can
//! participate in the same MILP formulation.

use billcap_queueing::GgmModel;

/// One class of servers inside a heterogeneous data center.
#[derive(Debug, Clone)]
pub struct ServerClass {
    /// Human-readable class name (e.g. a server generation).
    pub name: String,
    /// Per-server power at the packed operating point (W).
    pub watts: f64,
    /// Service rate (requests/hour/server).
    pub service_rate: f64,
    /// Installed count.
    pub count: u64,
}

impl ServerClass {
    /// Energy efficiency: watt-hours per request.
    pub fn watt_hours_per_request(&self) -> f64 {
        self.watts / self.service_rate
    }
}

/// A plan entry: how many servers of a class to activate and the rate they
/// carry.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationEntry {
    /// Index into [`HeteroDataCenter::classes`].
    pub class_index: usize,
    /// Servers of that class to activate.
    pub servers: u64,
    /// Request rate those servers carry (requests/hour).
    pub rate: f64,
}

/// The local optimizer's activation plan for one hour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActivationPlan {
    /// Per-class activations, in activation (efficiency) order.
    pub entries: Vec<ActivationEntry>,
    /// Total server power (W).
    pub power_w: f64,
    /// Total rate carried (requests/hour).
    pub rate: f64,
}

/// A heterogeneous data center: several server classes sharing one G/G/m
/// response-time target.
#[derive(Debug, Clone)]
pub struct HeteroDataCenter {
    /// The site's server classes.
    pub classes: Vec<ServerClass>,
    /// Response-time target (hours), interpreted per class against its own
    /// service rate (a class whose bare service time exceeds the target is
    /// unusable and skipped).
    pub response_target: f64,
    /// Traffic variability `(C²_A + C²_B)/2` shared by all classes.
    pub variability: f64,
}

impl HeteroDataCenter {
    /// Creates a heterogeneous site.
    pub fn new(classes: Vec<ServerClass>, response_target: f64, variability: f64) -> Self {
        assert!(!classes.is_empty(), "need at least one server class");
        assert!(response_target > 0.0, "target must be positive");
        Self {
            classes,
            response_target,
            variability,
        }
    }

    /// Classes ordered most-efficient-first, excluding classes that cannot
    /// meet the response-time target at all.
    fn usable_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.classes.len())
            .filter(|&i| 1.0 / self.classes[i].service_rate < self.response_target)
            .collect();
        idx.sort_by(|&a, &b| {
            self.classes[a]
                .watt_hours_per_request()
                .total_cmp(&self.classes[b].watt_hours_per_request())
        });
        idx
    }

    /// G/G/m model for one class.
    fn class_queue(&self, i: usize) -> GgmModel {
        GgmModel::new(
            self.classes[i].service_rate,
            self.variability,
            self.variability,
        )
    }

    /// Maximum rate a class can carry within the QoS target.
    pub fn class_capacity(&self, i: usize) -> f64 {
        let q = self.class_queue(i);
        q.max_arrival_rate(self.classes[i].count, self.response_target)
            .unwrap_or(0.0)
    }

    /// Total rate the site can carry.
    pub fn capacity(&self) -> f64 {
        (0..self.classes.len())
            .map(|i| self.class_capacity(i))
            .sum()
    }

    /// Greedy efficiency-first activation: fill the most efficient class to
    /// its QoS capacity, then the next. Returns `None` when `rate` exceeds
    /// the site capacity.
    pub fn activate(&self, rate: f64) -> Option<ActivationPlan> {
        assert!(rate >= 0.0, "rate must be non-negative");
        let mut remaining = rate;
        let mut plan = ActivationPlan::default();
        for i in self.usable_order() {
            if remaining <= 0.0 {
                break;
            }
            let cap = self.class_capacity(i);
            let take = remaining.min(cap);
            if take <= 0.0 {
                continue;
            }
            let q = self.class_queue(i);
            let servers = q
                .min_servers(take, self.response_target)
                .ok()?
                .min(self.classes[i].count);
            plan.entries.push(ActivationEntry {
                class_index: i,
                servers,
                rate: take,
            });
            plan.power_w += servers as f64 * self.classes[i].watts;
            plan.rate += take;
            remaining -= take;
        }
        if remaining > 1e-9 {
            return None; // over capacity
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> HeteroDataCenter {
        HeteroDataCenter::new(
            vec![
                ServerClass {
                    name: "old".into(),
                    watts: 90.0,
                    service_rate: 400.0,
                    count: 1000,
                }, // 0.225 Wh/req
                ServerClass {
                    name: "new".into(),
                    watts: 60.0,
                    service_rate: 600.0,
                    count: 500,
                }, // 0.100 Wh/req
            ],
            1.5 / 400.0, // reachable by both classes
            1.0,
        )
    }

    #[test]
    fn efficiency_order_prefers_new_servers() {
        let s = site();
        let plan = s.activate(100_000.0).unwrap();
        assert_eq!(plan.entries[0].class_index, 1, "new servers first");
    }

    #[test]
    fn spills_to_less_efficient_class_when_full() {
        let s = site();
        let cap_new = s.class_capacity(1);
        let plan = s.activate(cap_new + 50_000.0).unwrap();
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.entries[1].class_index, 0);
        assert!((plan.rate - (cap_new + 50_000.0)).abs() < 1e-6);
    }

    #[test]
    fn over_capacity_returns_none() {
        let s = site();
        assert!(s.activate(s.capacity() * 1.01).is_none());
    }

    #[test]
    fn capacity_is_sum_of_class_capacities() {
        let s = site();
        let sum = s.class_capacity(0) + s.class_capacity(1);
        assert!((s.capacity() - sum).abs() < 1e-9);
    }

    #[test]
    fn power_grows_with_rate() {
        let s = site();
        let p1 = s.activate(50_000.0).unwrap().power_w;
        let p2 = s.activate(150_000.0).unwrap().power_w;
        assert!(p2 > p1);
    }

    #[test]
    fn unusable_class_is_skipped() {
        // A class too slow for the target gets no traffic.
        let s = HeteroDataCenter::new(
            vec![
                ServerClass {
                    name: "slow".into(),
                    watts: 10.0,
                    service_rate: 100.0,
                    count: 1000,
                },
                ServerClass {
                    name: "fast".into(),
                    watts: 80.0,
                    service_rate: 800.0,
                    count: 100,
                },
            ],
            1.2 / 800.0, // only the fast class can meet this
            1.0,
        );
        let plan = s.activate(10_000.0).unwrap();
        assert!(plan.entries.iter().all(|e| e.class_index == 1));
    }

    #[test]
    fn homogeneous_site_matches_ggm_sizing() {
        // With one class, activation must agree with the plain G/G/m
        // local optimizer.
        let s = HeteroDataCenter::new(
            vec![ServerClass {
                name: "only".into(),
                watts: 88.88,
                service_rate: 500.0,
                count: 100_000,
            }],
            1.5 / 500.0,
            1.0,
        );
        let rate = 1e7;
        let plan = s.activate(rate).unwrap();
        let q = GgmModel::new(500.0, 1.0, 1.0);
        let expect = q.min_servers(rate, 1.5 / 500.0).unwrap();
        assert_eq!(plan.entries[0].servers, expect);
    }
}
