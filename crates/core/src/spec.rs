//! Data-center and system specifications.

use crate::error::CoreError;
use billcap_market::{PricingPolicySet, StepPolicy};
use billcap_power::{CoolingModel, DcPowerModel, FatTree, ServerModel, SwitchPower};
use billcap_queueing::GgmModel;

/// Static description of one data-center site.
#[derive(Debug, Clone)]
pub struct DataCenterSpec {
    /// Site name (e.g. the paper's "DC-East").
    pub name: String,
    /// G/G/m performance model; service rate in requests/hour/server.
    pub queue: GgmModel,
    /// Composite power model (servers + networking + cooling).
    pub power: DcPowerModel,
    /// Response-time set point `Rs_i` (hours).
    pub response_target: f64,
    /// Site power cap `Ps_i` (MW) imposed by the supplier.
    pub power_cap_mw: f64,
    /// Hosted server count ceiling.
    pub max_servers: u64,
}

impl DataCenterSpec {
    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), CoreError> {
        // Target must be reachable (checked by the queueing model).
        self.queue.qos_headroom(self.response_target)?;
        Ok(())
    }

    /// Linear power coefficient `a_i`: MW drawn per unit of arrival rate
    /// (requests/hour), through the server→switch→cooling chain.
    pub(crate) fn mw_per_request(&self) -> f64 {
        self.power.watts_per_server() / (self.queue.service_rate * 1e6)
    }

    /// Constant power offset `b_i` (MW): the QoS headroom servers kept
    /// active regardless of load (a handful of machines).
    pub(crate) fn base_power_mw(&self) -> f64 {
        let headroom = self
            .queue
            .qos_headroom(self.response_target)
            .expect("validated spec"); // detlint-allow(L001): spec checked at construction
        self.power.watts_per_server() * headroom / 1e6
    }

    /// Power (MW, linearized) when carrying `lambda` requests/hour.
    pub fn power_for_rate_mw(&self, lambda: f64) -> f64 {
        self.mw_per_request() * lambda + self.base_power_mw()
    }

    /// Maximum arrival rate servable within QoS, server inventory, and the
    /// site power cap.
    pub fn max_rate(&self) -> f64 {
        let headroom = self
            .queue
            .qos_headroom(self.response_target)
            .expect("validated spec"); // detlint-allow(L001): spec checked at construction
                                       // Server-inventory bound.
        let by_servers = (self.max_servers as f64 - headroom).max(0.0) * self.queue.service_rate;
        // Power-cap bound: a_i * lambda + b_i <= Ps_i.
        let a = self.mw_per_request();
        let by_power = ((self.power_cap_mw - self.base_power_mw()) / a).max(0.0);
        by_servers.min(by_power)
    }

    /// Active servers the local optimizer starts for `lambda` requests/hour.
    pub fn servers_for_rate(&self, lambda: f64) -> u64 {
        self.queue
            .min_servers(lambda, self.response_target)
            .expect("validated spec") // detlint-allow(L001): spec checked at construction
            .min(self.max_servers)
    }

    /// Returns a copy of this spec with a different cooling efficiency —
    /// used by weather-aware simulations where `coe` varies hourly with
    /// the outside-air temperature.
    pub fn with_cooling_efficiency(&self, coe: f64) -> Self {
        let mut out = self.clone();
        out.power = DcPowerModel::new(
            out.power.server,
            out.power.operating_utilization,
            out.power.network,
            CoolingModel::with_form(coe, out.power.cooling.form),
        );
        out
    }

    /// One of the paper's three simulated data centers (`i` is 0-based).
    ///
    /// Per-server powers (88.88 / 34.0 / 49.9 W), processing capacity
    /// coefficients (500 / 300 / 725), switch powers and cooling
    /// efficiencies follow the paper's Section VI; service rates are taken
    /// per hour and the fleet ceiling is raised to 10⁶ servers/site so the
    /// simulated bills land in the paper's own $M/month budget range (see
    /// DESIGN.md calibration notes).
    pub fn paper_dc(i: usize) -> Self {
        let (name, watts, rate, switch, coe, cap_mw) = match i {
            0 => (
                "dc1-athlon",
                88.88,
                500.0,
                SwitchPower {
                    edge_w: 84.0,
                    aggregation_w: 84.0,
                    core_w: 240.0,
                },
                1.94,
                120.0,
            ),
            1 => (
                "dc2-pentium4",
                34.0,
                300.0,
                SwitchPower {
                    edge_w: 70.0,
                    aggregation_w: 70.0,
                    core_w: 260.0,
                },
                1.39,
                65.0,
            ),
            2 => (
                "dc3-pentiumd",
                49.9,
                725.0,
                SwitchPower {
                    edge_w: 75.0,
                    aggregation_w: 75.0,
                    core_w: 240.0,
                },
                1.74,
                85.0,
            ),
            _ => panic!("the paper simulates three data centers (i in 0..3)"),
        };
        let max_servers = 1_000_000;
        let queue = GgmModel::new(rate, 1.0, 1.0);
        Self {
            name: name.to_string(),
            queue,
            power: DcPowerModel::new(
                ServerModel::at_operating_point(watts, 1.0),
                1.0,
                FatTree::for_capacity(max_servers, switch),
                CoolingModel::new(coe),
            ),
            // QoS: 50 % above the bare service time, i.e. Rs = 1.5/μ.
            response_target: 1.5 / rate,
            power_cap_mw: cap_mw,
            max_servers,
        }
    }
}

/// A network of data centers with their locational pricing policies.
#[derive(Debug, Clone)]
pub struct DataCenterSystem {
    /// The sites.
    pub sites: Vec<DataCenterSpec>,
    /// One pricing policy per site, index-aligned with `sites`.
    pub policies: PricingPolicySet,
}

impl DataCenterSystem {
    /// Builds a system; validates per-site consistency and policy count.
    pub fn new(sites: Vec<DataCenterSpec>, policies: PricingPolicySet) -> Result<Self, CoreError> {
        if sites.len() != policies.policies.len() {
            return Err(CoreError::Dimension {
                expected: sites.len(),
                got: policies.policies.len(),
            });
        }
        for s in &sites {
            s.validate()?;
        }
        Ok(Self { sites, policies })
    }

    /// The paper's simulated system: three data centers under the given
    /// pricing-policy family (0..=3).
    pub fn paper_system(policy: usize) -> Self {
        let sites = (0..3).map(DataCenterSpec::paper_dc).collect();
        // detlint-allow(L001): constants from the paper
        Self::new(sites, PricingPolicySet::by_index(policy, 3)).expect("paper system is valid")
    }

    /// A scale-up synthetic system for solver benchmarks: `n_sites` sites (cycling the paper's
    /// three hardware profiles) under step policies with `levels` price
    /// levels each.
    ///
    /// The policies are deliberately adversarial for branch-and-bound:
    /// prices zigzag with load, so cheap levels exist at high loads and
    /// the LP relaxation blends levels fractionally, forcing deep
    /// branching. Every site's prices carry a distinct multiplicative
    /// perturbation, which breaks site symmetry and makes the optimum
    /// unique and well separated.
    pub fn synthetic(n_sites: usize, levels: usize) -> Self {
        assert!(n_sites >= 1, "need at least one site");
        assert!(levels >= 2, "need at least two price levels");
        let sites: Vec<DataCenterSpec> = (0..n_sites)
            .map(|i| {
                let mut s = DataCenterSpec::paper_dc(i % 3);
                s.name = format!("syn{i}-{}", s.name);
                s
            })
            .collect();
        let policies = PricingPolicySet {
            policies: sites
                .iter()
                .enumerate()
                .map(|(i, site)| {
                    // Spread the breakpoints across the site's reachable
                    // load band so (almost) every level is in play.
                    let step = (site.power_cap_mw + 20.0) / levels as f64;
                    let breakpoints: Vec<f64> = (1..levels).map(|k| k as f64 * step).collect();
                    let perturb = 1.0 + 0.01 * (i as f64 + 1.0);
                    let prices: Vec<f64> = (0..levels)
                        .map(|k| {
                            let zig = if k % 2 == 0 {
                                10.0 + 2.0 * k as f64
                            } else {
                                30.0 - 1.5 * k as f64
                            };
                            zig.max(1.0) * perturb
                        })
                        .collect();
                    StepPolicy::new(breakpoints, prices)
                })
                .collect(),
        };
        Self::new(sites, policies).expect("synthetic system is valid") // detlint-allow(L001): generated spec is valid
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the system has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Pricing policy of site `i`.
    pub fn policy(&self, i: usize) -> &StepPolicy {
        &self.policies.policies[i]
    }

    /// Total request-rate capacity (requests/hour) across sites.
    pub fn total_capacity(&self) -> f64 {
        self.sites.iter().map(|s| s.max_rate()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dcs_validate() {
        for i in 0..3 {
            DataCenterSpec::paper_dc(i).validate().unwrap();
        }
    }

    #[test]
    fn linear_power_matches_exact_model_at_scale() {
        for i in 0..3 {
            let dc = DataCenterSpec::paper_dc(i);
            let lambda = 0.5 * dc.max_rate();
            let linear = dc.power_for_rate_mw(lambda);
            let exact = dc.power.total_mw(dc.servers_for_rate(lambda));
            let rel = (linear - exact).abs() / exact;
            assert!(rel < 2e-3, "dc{i}: rel {rel}");
        }
    }

    #[test]
    fn max_rate_respects_power_cap() {
        for i in 0..3 {
            let dc = DataCenterSpec::paper_dc(i);
            let p = dc.power_for_rate_mw(dc.max_rate());
            assert!(
                p <= dc.power_cap_mw + 1e-6,
                "dc{i}: {p} MW > cap {} MW",
                dc.power_cap_mw
            );
        }
    }

    #[test]
    fn paper_sites_draw_price_moving_power() {
        // The premise of the paper: each site can draw tens of MW, enough
        // to cross the 200-MW-spaced price breakpoints.
        for i in 0..3 {
            let dc = DataCenterSpec::paper_dc(i);
            let peak_mw = dc.power_for_rate_mw(dc.max_rate());
            assert!(peak_mw > 30.0, "dc{i} peak {peak_mw} MW too small");
        }
    }

    #[test]
    fn system_construction_checks_dimensions() {
        let sites = vec![DataCenterSpec::paper_dc(0)];
        let policies = PricingPolicySet::policy1(3);
        assert!(matches!(
            DataCenterSystem::new(sites, policies),
            Err(CoreError::Dimension { .. })
        ));
    }

    #[test]
    fn paper_system_has_three_sites_and_capacity() {
        let sys = DataCenterSystem::paper_system(1);
        assert_eq!(sys.len(), 3);
        assert!(
            sys.total_capacity() > 1e9,
            "capacity {}",
            sys.total_capacity()
        );
    }

    #[test]
    fn servers_for_rate_monotone() {
        let dc = DataCenterSpec::paper_dc(0);
        let n1 = dc.servers_for_rate(1e7);
        let n2 = dc.servers_for_rate(5e7);
        assert!(n2 > n1);
    }

    #[test]
    fn synthetic_system_scales_sites_and_levels() {
        let sys = DataCenterSystem::synthetic(10, 12);
        assert_eq!(sys.len(), 10);
        for i in 0..10 {
            assert_eq!(sys.policy(i).num_levels(), 12);
        }
        // Per-site perturbation breaks price symmetry between sites that
        // share a hardware profile.
        assert_ne!(sys.policy(0).avg_price(), sys.policy(3).avg_price());
        // Breakpoints stay within reach of the site's power band.
        for (i, site) in sys.sites.iter().enumerate() {
            let last_lo = sys
                .policy(i)
                .levels()
                .map(|(lo, _, _)| lo)
                .fold(0.0f64, f64::max);
            assert!(last_lo < site.power_cap_mw + 20.0 + 1e-9);
        }
    }
}
