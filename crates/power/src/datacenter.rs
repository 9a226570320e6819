//! Composite data-center power model (paper eq. 4).

use crate::cooling::CoolingModel;
use crate::fattree::FatTree;
use crate::server::ServerModel;

/// Breakdown of a data center's power draw (all in watts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcPowerBreakdown {
    pub servers_w: f64,
    pub networking_w: f64,
    pub cooling_w: f64,
}

impl DcPowerBreakdown {
    /// Total power (W).
    fn total_w(&self) -> f64 {
        self.servers_w + self.networking_w + self.cooling_w
    }

    /// Total power (MW) — the unit the pricing policies speak.
    pub fn total_mw(&self) -> f64 {
        self.total_w() / 1e6
    }
}

/// Full power model of one data center: servers + fat-tree networking +
/// cooling, all driven by the active-server count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcPowerModel {
    pub server: ServerModel,
    /// Utilization the local optimizer packs active servers to.
    pub operating_utilization: f64,
    pub network: FatTree,
    pub cooling: CoolingModel,
}

impl DcPowerModel {
    /// Creates the composite model.
    pub fn new(
        server: ServerModel,
        operating_utilization: f64,
        network: FatTree,
        cooling: CoolingModel,
    ) -> Self {
        assert!(
            operating_utilization > 0.0 && operating_utilization <= 1.0,
            "operating utilization must be in (0, 1]"
        );
        Self {
            server,
            operating_utilization,
            network,
            cooling,
        }
    }

    /// Per-server power at the packed operating point (W).
    fn server_watts(&self) -> f64 {
        self.server.power_at(self.operating_utilization)
    }

    /// Exact power breakdown for `active_servers` (integral switch counts).
    fn breakdown(&self, active_servers: u64) -> DcPowerBreakdown {
        let servers_w = active_servers as f64 * self.server_watts();
        let networking_w = self.network.networking_power_w(active_servers);
        let cooling_w = self.cooling.cooling_power_w(servers_w + networking_w);
        DcPowerBreakdown {
            servers_w,
            networking_w,
            cooling_w,
        }
    }

    /// Exact total power in MW for `active_servers`.
    pub fn total_mw(&self, active_servers: u64) -> f64 {
        self.breakdown(active_servers).total_mw()
    }

    /// Linearized total watts per active server — the single coefficient
    /// the MILP multiplies by the (continuous) server count:
    /// `(sp + net_per_server) · (1 + cooling overhead)`.
    pub fn watts_per_server(&self) -> f64 {
        (self.server_watts() + self.network.watts_per_server()) * self.cooling.overhead_factor()
    }

    /// Server-only watts per server (what the Min-Only baselines model:
    /// they ignore networking and cooling).
    pub fn server_only_watts_per_server(&self) -> f64 {
        self.server_watts()
    }

    /// Maximum servers this data center can host (topology bound).
    pub fn max_servers(&self) -> u64 {
        self.network.max_servers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::SwitchPower;

    fn dc1() -> DcPowerModel {
        // Paper DC1: 88.88 W/server, switches (84, 84, 240) W, coe 1.94.
        DcPowerModel::new(
            ServerModel::at_operating_point(88.88, 1.0),
            1.0,
            FatTree::for_capacity(
                300_000,
                SwitchPower {
                    edge_w: 84.0,
                    aggregation_w: 84.0,
                    core_w: 240.0,
                },
            ),
            CoolingModel::new(1.94),
        )
    }

    #[test]
    fn breakdown_components_sum() {
        let m = dc1();
        let b = m.breakdown(100_000);
        assert!((b.total_w() - (b.servers_w + b.networking_w + b.cooling_w)).abs() < 1e-9);
        assert!(b.servers_w > 0.0 && b.networking_w > 0.0 && b.cooling_w > 0.0);
    }

    #[test]
    fn server_power_dominates_but_not_alone() {
        // The paper's motivation: cooling + networking are up to ~50 % of
        // the total, so ignoring them misprices the optimization.
        let m = dc1();
        let b = m.breakdown(200_000);
        let non_server = b.networking_w + b.cooling_w;
        let share = non_server / b.total_w();
        assert!(
            share > 0.2 && share < 0.6,
            "non-server share {share} out of expected band"
        );
    }

    #[test]
    fn linear_coefficient_is_accurate_at_scale() {
        let m = dc1();
        for n in [10_000u64, 100_000, 250_000] {
            let exact = m.breakdown(n).total_w();
            let linear = m.watts_per_server() * n as f64;
            let rel = (exact - linear).abs() / exact;
            assert!(rel < 1e-3, "n={n}: rel err {rel}");
        }
    }

    #[test]
    fn total_mw_scale_matches_paper_claims() {
        // 300k active servers should draw tens of MW (paper Section I).
        let m = dc1();
        let mw = m.total_mw(300_000);
        assert!(mw > 10.0 && mw < 100.0, "total {mw} MW");
    }

    #[test]
    fn zero_servers_zero_power() {
        let m = dc1();
        assert_eq!(m.total_mw(0), 0.0);
    }
}
