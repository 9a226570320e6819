//! Locational step pricing policies.
//!
//! A [`StepPolicy`] is the piecewise-constant function `Pr = F(P)` mapping
//! total regional load (MW) to the electricity price ($/MWh) — the paper's
//! Figure 1. The bill capper's MILP linearizes this function with one
//! binary per level (Section IV-C of the paper); the Min-Only baselines
//! collapse it to a constant via [`StepPolicy::avg_price`] /
//! [`StepPolicy::min_price`].

/// A piecewise-constant price policy.
///
/// `prices.len() == breakpoints.len() + 1`; level `k` applies on
/// `[breakpoints[k-1], breakpoints[k])` (with `breakpoints[-1] = 0` and
/// `breakpoints[len] = +inf`). Breakpoints are strictly increasing.
///
/// ```
/// use billcap_market::StepPolicy;
///
/// // The paper's printed Policy 1 for data center 1.
/// let policy = StepPolicy::paper_policy(0);
/// assert_eq!(policy.price_at(100.0), 10.00);  // light regional load
/// assert_eq!(policy.price_at(500.0), 15.00);  // two steps up
/// // Min-Only (Avg) collapses it to 16.98 $/MWh:
/// assert!((policy.avg_price() - 16.98).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepPolicy {
    breakpoints: Vec<f64>,
    prices: Vec<f64>,
}

impl StepPolicy {
    /// Builds a policy from breakpoints (strictly increasing, in MW) and
    /// per-level prices ($/MWh). Panics on malformed input; use
    /// [`StepPolicy::try_new`] to get the violation as a value instead.
    pub fn new(breakpoints: Vec<f64>, prices: Vec<f64>) -> Self {
        match Self::try_new(breakpoints, prices) {
            Ok(p) => p,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Non-panicking constructor: returns a message naming the first
    /// violated invariant. The spec linter builds on this so malformed
    /// policies become diagnostics rather than panics.
    pub fn try_new(breakpoints: Vec<f64>, prices: Vec<f64>) -> Result<Self, String> {
        if prices.len() != breakpoints.len() + 1 {
            return Err(format!(
                "need exactly one more price than breakpoints \
                 ({} breakpoints, {} prices)",
                breakpoints.len(),
                prices.len()
            ));
        }
        if !breakpoints.windows(2).all(|w| w[0] < w[1]) {
            return Err("breakpoints must be strictly increasing".to_string());
        }
        if !breakpoints.iter().all(|&b| b > 0.0 && b.is_finite()) {
            return Err("breakpoints must be positive and finite".to_string());
        }
        if !prices.iter().all(|&p| p.is_finite() && p >= 0.0) {
            return Err("prices must be finite and non-negative".to_string());
        }
        Ok(Self {
            breakpoints,
            prices,
        })
    }

    /// Builds without checking any invariant. Only for constructing
    /// deliberately malformed policies (lint corruption tests); every
    /// accessor other than [`StepPolicy::breakpoints`] /
    /// [`StepPolicy::prices`] may panic or return nonsense on the result.
    pub fn new_unchecked(breakpoints: Vec<f64>, prices: Vec<f64>) -> Self {
        Self {
            breakpoints,
            prices,
        }
    }

    /// The raw breakpoints (MW). Safe on any policy, checked or not.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// The raw per-level prices ($/MWh). Safe on any policy.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// A flat (load-independent) policy — the paper's Policy 0, i.e. the
    /// price-taker assumption of the Min-Only baselines.
    pub fn flat(price: f64) -> Self {
        Self {
            breakpoints: Vec::new(),
            prices: vec![price],
        }
    }

    /// Price at a given total regional load.
    pub fn price_at(&self, load_mw: f64) -> f64 {
        let k = self.breakpoints.partition_point(|&b| b <= load_mw);
        self.prices[k]
    }

    /// Number of price levels.
    pub fn num_levels(&self) -> usize {
        self.prices.len()
    }

    /// Iterates `(level_lo, level_hi, price)` over the levels; the last
    /// level's `hi` is `f64::INFINITY`.
    pub fn levels(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        (0..self.prices.len()).map(move |k| {
            let lo = if k == 0 { 0.0 } else { self.breakpoints[k - 1] };
            let hi = if k == self.breakpoints.len() {
                f64::INFINITY
            } else {
                self.breakpoints[k]
            };
            (lo, hi, self.prices[k])
        })
    }

    /// Mean of the level prices — the price constant assumed by
    /// Min-Only (Avg).
    pub fn avg_price(&self) -> f64 {
        // detlint-allow(D006): sequential fixed-order sum over the fixed price ladder; bitwise-stable
        self.prices.iter().sum::<f64>() / self.prices.len() as f64
    }

    /// Lowest level price — the price constant assumed by Min-Only (Low).
    pub fn min_price(&self) -> f64 {
        self.prices.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Highest level price.
    pub fn max_price(&self) -> f64 {
        self.prices
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Scales the price *increments over the base (first-level) price* by
    /// `factor` for every level whose lower bound is at least
    /// `above_load_mw`. This constructs the paper's Policies 2 and 3
    /// (double / triple the price increase above 200 MW).
    pub fn scale_increments(&self, factor: f64, above_load_mw: f64) -> Self {
        let base = self.prices[0];
        let prices = self
            .levels()
            .map(|(lo, _hi, p)| {
                if lo >= above_load_mw {
                    base + factor * (p - base)
                } else {
                    p
                }
            })
            .collect();
        Self {
            breakpoints: self.breakpoints.clone(),
            prices,
        }
    }

    /// Fits a step policy to a `(load, price)` series (as produced by an
    /// LMP sweep): consecutive points whose prices differ by at most
    /// `price_tol` are merged into one level, with the level price being
    /// their mean and the breakpoint placed at the first load of the new
    /// level.
    pub(crate) fn fit_from_series(series: &[(f64, f64)], price_tol: f64) -> Self {
        assert!(!series.is_empty(), "cannot fit an empty series");
        let mut breakpoints = Vec::new();
        let mut prices = Vec::new();
        let mut level_prices = vec![series[0].1];
        for w in series.windows(2) {
            let (load, price) = w[1];
            // detlint-allow(D006): sequential fixed-order sum over a level window; bitwise-stable
            let current_mean: f64 = level_prices.iter().sum::<f64>() / level_prices.len() as f64;
            if (price - current_mean).abs() > price_tol {
                prices.push(current_mean);
                breakpoints.push(load);
                level_prices.clear();
            }
            level_prices.push(price);
        }
        // detlint-allow(D006): sequential fixed-order sum over a level window; bitwise-stable
        prices.push(level_prices.iter().sum::<f64>() / level_prices.len() as f64);
        Self {
            breakpoints,
            prices,
        }
    }

    /// The paper's printed Policy 1 for its three data-center locations
    /// (`dc` is 0-based). Data center 1's prices are given verbatim in the
    /// paper (Section VII-B: 10.00, 13.90, 15.00, 22.00, 24.00 $/MWh);
    /// locations 2 and 3 follow the same five-level structure with the
    /// locational spreads of Figure 1 (higher congestion components at C
    /// and D). Location 2 has the lowest base price but the steepest
    /// escalation; location 3 starts higher but escalates gently — this is
    /// what separates the two price-taker baselines: Min-Only (Low) chases
    /// location 2's teaser price into its expensive upper levels, while
    /// Min-Only (Avg) over-concentrates on location 3. Breakpoints place
    /// the first step at 200 MW (the load the paper scales Policies 2/3
    /// above) and the last near the 711.8 MW line-limit step reported for
    /// the five-bus system.
    pub fn paper_policy(dc: usize) -> Self {
        match dc {
            0 => StepPolicy::new(
                vec![200.0, 450.0, 600.0, 711.8],
                vec![10.00, 13.90, 15.00, 22.00, 24.00],
            ),
            1 => StepPolicy::new(
                vec![200.0, 450.0, 600.0, 711.8],
                vec![2.00, 6.00, 44.00, 62.00, 74.00],
            ),
            2 => StepPolicy::new(
                vec![200.0, 450.0, 600.0, 711.8],
                vec![16.00, 20.00, 32.00, 44.00, 52.00],
            ),
            _ => panic!("the paper simulates three data centers (dc in 0..3)"),
        }
    }
}

/// The set of policies used by an experiment, one per data center, plus
/// constructors for the paper's Policy 0–3 families.
#[derive(Debug, Clone, PartialEq)]
pub struct PricingPolicySet {
    pub policies: Vec<StepPolicy>,
}

impl PricingPolicySet {
    /// Policy 0: flat prices (no load impact). The flat level of each
    /// location is set to that location's average step price so that the
    /// comparison against Policies 1–3 is anchored to the same scale.
    pub fn policy0(num_dcs: usize) -> Self {
        let base = Self::policy1(num_dcs);
        Self {
            policies: base
                .policies
                .iter()
                .map(|p| StepPolicy::flat(p.avg_price()))
                .collect(),
        }
    }

    /// Policy 1: the basic locational policies from the five-bus system.
    pub fn policy1(num_dcs: usize) -> Self {
        Self {
            policies: (0..num_dcs).map(StepPolicy::paper_policy).collect(),
        }
    }

    /// Policy 2: double the price increase above 200 MW.
    pub fn policy2(num_dcs: usize) -> Self {
        Self::policy1(num_dcs).scaled(2.0)
    }

    /// Policy 3: triple the price increase above 200 MW.
    pub fn policy3(num_dcs: usize) -> Self {
        Self::policy1(num_dcs).scaled(3.0)
    }

    /// The paper's policy family, by index 0..=3.
    pub fn by_index(policy: usize, num_dcs: usize) -> Self {
        match policy {
            0 => Self::policy0(num_dcs),
            1 => Self::policy1(num_dcs),
            2 => Self::policy2(num_dcs),
            3 => Self::policy3(num_dcs),
            _ => panic!("the paper defines pricing policies 0 through 3"),
        }
    }

    fn scaled(&self, factor: f64) -> Self {
        Self {
            policies: self
                .policies
                .iter()
                .map(|p| p.scale_increments(factor, 200.0))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_lookup_respects_level_boundaries() {
        let p = StepPolicy::new(vec![100.0, 200.0], vec![10.0, 20.0, 30.0]);
        assert_eq!(p.price_at(0.0), 10.0);
        assert_eq!(p.price_at(99.9), 10.0);
        assert_eq!(p.price_at(100.0), 20.0); // boundary belongs to upper level
        assert_eq!(p.price_at(150.0), 20.0);
        assert_eq!(p.price_at(200.0), 30.0);
        assert_eq!(p.price_at(1e9), 30.0);
    }

    #[test]
    fn paper_policy2_matches_printed_numbers() {
        // Paper: DC1 Policy 2 prices are (10.00, 17.80, 20.00, 34.00, 38.00).
        let p2 = StepPolicy::paper_policy(0).scale_increments(2.0, 200.0);
        let prices: Vec<f64> = p2.levels().map(|(_, _, p)| p).collect();
        let expect = [10.00, 17.80, 20.00, 34.00, 38.00];
        for (a, b) in prices.iter().zip(expect) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn paper_policy3_matches_printed_numbers() {
        // Paper: DC1 Policy 3 prices are (10.00, 21.70, 25.00, 46.00, 52.00).
        let p3 = StepPolicy::paper_policy(0).scale_increments(3.0, 200.0);
        let prices: Vec<f64> = p3.levels().map(|(_, _, p)| p).collect();
        let expect = [10.00, 21.70, 25.00, 46.00, 52.00];
        for (a, b) in prices.iter().zip(expect) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn avg_price_matches_paper_example() {
        // Paper: Min-Only (Avg) price for DC1 is (10+13.9+15+22+24)/5 = 16.98.
        let p = StepPolicy::paper_policy(0);
        assert!((p.avg_price() - 16.98).abs() < 1e-9);
        assert_eq!(p.min_price(), 10.0);
        assert_eq!(p.max_price(), 24.0);
    }

    #[test]
    fn flat_policy_is_constant() {
        let p = StepPolicy::flat(42.0);
        assert_eq!(p.price_at(0.0), 42.0);
        assert_eq!(p.price_at(1e6), 42.0);
        assert_eq!(p.num_levels(), 1);
        assert_eq!(p.avg_price(), 42.0);
    }

    #[test]
    fn levels_partition_the_load_axis() {
        let p = StepPolicy::paper_policy(0);
        let levels: Vec<_> = p.levels().collect();
        assert_eq!(levels.first().unwrap().0, 0.0);
        assert_eq!(levels.last().unwrap().1, f64::INFINITY);
        for w in levels.windows(2) {
            assert_eq!(w[0].1, w[1].0, "levels must tile contiguously");
        }
    }

    #[test]
    fn fit_recovers_exact_steps() {
        let truth = StepPolicy::new(vec![100.0, 300.0], vec![5.0, 9.0, 12.0]);
        let series: Vec<(f64, f64)> = (1..50)
            .map(|i| {
                let load = i as f64 * 10.0;
                (load, truth.price_at(load))
            })
            .collect();
        let fitted = StepPolicy::fit_from_series(&series, 0.01);
        assert_eq!(fitted.num_levels(), 3);
        for &(load, price) in &series {
            assert!((fitted.price_at(load) - price).abs() < 1e-9);
        }
    }

    #[test]
    fn scale_increments_leaves_low_levels_alone() {
        let p = StepPolicy::new(vec![100.0, 300.0], vec![10.0, 12.0, 20.0]);
        let s = p.scale_increments(2.0, 250.0);
        let prices: Vec<f64> = s.levels().map(|(_, _, q)| q).collect();
        assert_eq!(prices, vec![10.0, 12.0, 30.0]);
    }

    #[test]
    fn policy_set_family() {
        let p0 = PricingPolicySet::by_index(0, 3);
        let p1 = PricingPolicySet::by_index(1, 3);
        assert_eq!(p0.policies.len(), 3);
        assert!(p0.policies.iter().all(|p| p.num_levels() == 1));
        assert!(p1.policies.iter().all(|p| p.num_levels() == 5));
        // Policy 0's flat price anchors to Policy 1's average.
        assert!((p0.policies[0].price_at(0.0) - p1.policies[0].avg_price()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_breakpoints() {
        StepPolicy::new(vec![200.0, 100.0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "one more price")]
    fn rejects_mismatched_lengths() {
        StepPolicy::new(vec![100.0], vec![1.0, 2.0, 3.0]);
    }
}
