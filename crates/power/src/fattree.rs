//! k-ary fat-tree networking power (paper eq. 6).
//!
//! A k-ary fat tree has `k` pods of `k/2` edge and `k/2` aggregation
//! switches each, plus `(k/2)²` core switches, and supports `k³/4` servers.
//! Per active server the topology therefore needs `2/k` edge, `2/k`
//! aggregation and `1/k` core switches. With ElasticTree-style
//! consolidation the number of *active* switches tracks the active-server
//! count at exactly these ratios (rounded up to whole switches), and since
//! today's switches are not energy proportional each active switch draws
//! its full constant power.

/// Power of one switch at each tier (W). The paper's three data centers
/// use (84, 84, 240), (70, 70, 260) and (75, 75, 240).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchPower {
    pub edge_w: f64,
    pub aggregation_w: f64,
    pub core_w: f64,
}

/// Active switch counts at each tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchCounts {
    pub edge: u64,
    pub aggregation: u64,
    pub core: u64,
}

impl SwitchCounts {
    /// Total active switches.
    pub fn total(&self) -> u64 {
        self.edge + self.aggregation + self.core
    }
}

/// A k-ary fat tree with per-tier switch powers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTree {
    /// Port count / arity `k` (must be even and at least 2).
    pub k: u64,
    pub switch_power: SwitchPower,
}

impl FatTree {
    /// Creates a fat tree of arity `k`.
    pub fn new(k: u64, switch_power: SwitchPower) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and >= 2"
        );
        Self { k, switch_power }
    }

    /// Picks the smallest even `k` whose fat tree hosts at least
    /// `min_servers` servers.
    pub fn for_capacity(min_servers: u64, switch_power: SwitchPower) -> Self {
        let mut k = 4u64;
        while k * k * k / 4 < min_servers {
            k += 2;
        }
        Self::new(k, switch_power)
    }

    /// Maximum servers the topology supports (`k³/4`).
    pub fn max_servers(&self) -> u64 {
        self.k * self.k * self.k / 4
    }

    /// Total switches when fully built out.
    fn total_switches(&self) -> SwitchCounts {
        SwitchCounts {
            edge: self.k * self.k / 2,
            aggregation: self.k * self.k / 2,
            core: self.k * self.k / 4,
        }
    }

    /// Active switches needed for `active_servers` (ceil of the
    /// proportional requirement, clamped to the physical total).
    fn active_switches(&self, active_servers: u64) -> SwitchCounts {
        let totals = self.total_switches();
        let need = |per_server_num: u64, cap: u64| -> u64 {
            // per-server ratio is per_server_num / k.
            let exact = (active_servers as f64) * per_server_num as f64 / self.k as f64;
            (exact.ceil() as u64).min(cap)
        };
        SwitchCounts {
            edge: need(2, totals.edge),
            aggregation: need(2, totals.aggregation),
            core: need(1, totals.core),
        }
    }

    /// Networking power (W) for `active_servers`, with integral switch
    /// counts — paper eq. (6).
    pub fn networking_power_w(&self, active_servers: u64) -> f64 {
        let c = self.active_switches(active_servers);
        c.edge as f64 * self.switch_power.edge_w
            + c.aggregation as f64 * self.switch_power.aggregation_w
            + c.core as f64 * self.switch_power.core_w
    }

    /// Linearized networking power per active server (W/server): the
    /// coefficient used by the MILP. Exact power differs from
    /// `coefficient * n` by at most three switches' worth (the ceils).
    pub fn watts_per_server(&self) -> f64 {
        (2.0 * self.switch_power.edge_w
            + 2.0 * self.switch_power.aggregation_w
            + self.switch_power.core_w)
            / self.k as f64
    }

    /// Networking power with *no* ElasticTree consolidation: every switch
    /// of the built-out topology stays powered regardless of load. The
    /// paper's networking model assumes consolidation tracks the active
    /// servers; this is the baseline ElasticTree (NSDI'10) improves on,
    /// used by the networking-consolidation ablation.
    pub fn always_on_power_w(&self) -> f64 {
        let t = self.total_switches();
        t.edge as f64 * self.switch_power.edge_w
            + t.aggregation as f64 * self.switch_power.aggregation_w
            + t.core as f64 * self.switch_power.core_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> SwitchPower {
        SwitchPower {
            edge_w: 84.0,
            aggregation_w: 84.0,
            core_w: 240.0,
        }
    }

    #[test]
    fn k4_structure_matches_al_fares() {
        // The canonical k=4 example: 16 servers, 8 edge, 8 agg, 4 core.
        let t = FatTree::new(4, sp());
        assert_eq!(t.max_servers(), 16);
        let total = t.total_switches();
        assert_eq!((total.edge, total.aggregation, total.core), (8, 8, 4));
    }

    #[test]
    fn full_load_activates_every_switch() {
        let t = FatTree::new(4, sp());
        assert_eq!(t.active_switches(16), t.total_switches());
    }

    #[test]
    fn zero_servers_need_no_switches() {
        let t = FatTree::new(8, sp());
        assert_eq!(t.active_switches(0).total(), 0);
        assert_eq!(t.networking_power_w(0), 0.0);
    }

    #[test]
    fn switch_counts_monotone_in_servers() {
        let t = FatTree::new(16, sp());
        let mut prev = 0;
        for n in 0..=t.max_servers() {
            let c = t.active_switches(n).total();
            assert!(c >= prev, "n={n}");
            prev = c;
        }
    }

    #[test]
    fn linear_coefficient_tracks_exact_power() {
        let t = FatTree::for_capacity(300_000, sp());
        let coeff = t.watts_per_server();
        for n in [1_000u64, 50_000, 150_000, 299_999] {
            let exact = t.networking_power_w(n);
            let linear = coeff * n as f64;
            // Ceils cost at most one switch per tier.
            let max_err = sp().edge_w + sp().aggregation_w + sp().core_w;
            assert!(
                (exact - linear).abs() <= max_err,
                "n={n}: exact {exact} vs linear {linear}"
            );
        }
    }

    #[test]
    fn capacity_picker_is_tight() {
        let t = FatTree::for_capacity(300_000, sp());
        assert!(t.max_servers() >= 300_000);
        // One size smaller must not suffice.
        let smaller = t.k - 2;
        assert!(smaller * smaller * smaller / 4 < 300_000);
    }

    #[test]
    fn networking_power_is_positive_and_bounded() {
        let t = FatTree::for_capacity(300_000, sp());
        let full = t.networking_power_w(t.max_servers());
        let totals = t.total_switches();
        let expected = totals.edge as f64 * 84.0
            + totals.aggregation as f64 * 84.0
            + totals.core as f64 * 240.0;
        assert_eq!(full, expected);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_arity_rejected() {
        FatTree::new(5, sp());
    }

    #[test]
    fn always_on_dominates_consolidated() {
        let t = FatTree::for_capacity(300_000, sp());
        let always = t.always_on_power_w();
        for n in [0u64, 1_000, 150_000, t.max_servers()] {
            assert!(t.networking_power_w(n) <= always + 1e-9, "n={n}");
        }
        // At full build-out the two coincide.
        assert_eq!(t.networking_power_w(t.max_servers()), always);
    }
}
