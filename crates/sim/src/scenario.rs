//! The paper's simulated scenario (Section VI).

use billcap_core::DataCenterSystem;
use billcap_workload::{BackgroundDemand, CustomerSplit, HourlyTrace, TraceConfig, TraceGenerator};

/// Everything an experiment needs: the data-center network, two months of
/// workload (history for budgeting, evaluation month to simulate),
/// per-site background demand, and the premium/ordinary split.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub system: DataCenterSystem,
    /// October: budgeting history (31 days hourly).
    pub history: HourlyTrace,
    /// November: the simulated month (30 days hourly).
    pub workload: HourlyTrace,
    /// Background regional demand per site, aligned with `workload`.
    pub background: Vec<HourlyTrace>,
    pub split: CustomerSplit,
}

impl Scenario {
    /// Mean request rate (requests/hour) calibrated so the minimized
    /// monthly bill lands between the paper's "insufficient" ($1.5 M) and
    /// "sufficient" ($2.5 M) budgets (see DESIGN.md calibration notes).
    pub const MEAN_RATE: f64 = 7.0e8;

    /// The paper's monthly budget ladder (Figure 10), in dollars.
    pub const BUDGET_LADDER: [f64; 5] = [
        500_000.0,
        1_000_000.0,
        1_500_000.0,
        2_000_000.0,
        2_500_000.0,
    ];

    /// The "sufficient" budget of Figures 5/6.
    pub(crate) const ABUNDANT_BUDGET: f64 = 2_500_000.0;

    /// The "insufficient" budget of Figures 7/8/9.
    pub const STRINGENT_BUDGET: f64 = 1_500_000.0;

    /// Builds the paper's scenario under pricing-policy family
    /// `policy` (0..=3) with a deterministic seed.
    pub fn paper_default(policy: usize, seed: u64) -> Self {
        Self::with_mean_rate(policy, seed, Self::MEAN_RATE)
    }

    /// Same, with an explicit mean workload (used by calibration tests and
    /// stress experiments).
    fn with_mean_rate(policy: usize, seed: u64, mean_rate: f64) -> Self {
        let system = DataCenterSystem::paper_system(policy);
        let generator = TraceGenerator::new(TraceConfig::wikipedia_like(mean_rate, seed));
        let (history, workload) = generator.generate_two_months();
        let horizon = workload.len();
        let background = (0..system.len())
            .map(|i| BackgroundDemand::reco_like(i, seed).generate(horizon))
            .collect();
        Self {
            system,
            history,
            workload,
            background,
            split: CustomerSplit::paper_default(),
        }
    }

    /// Hours in the simulated month.
    pub fn horizon(&self) -> usize {
        self.workload.len()
    }

    /// The scenario cut to its first `n` hours, or to all of them when
    /// `n` is at least the horizon: the one way to simulate a short
    /// month. The budgeting history stays whole.
    pub fn first_hours(mut self, n: usize) -> Self {
        let n = n.min(self.horizon());
        self.workload = self.workload.slice(0, n);
        for b in &mut self.background {
            *b = b.slice(0, n);
        }
        self
    }

    /// Background demand vector for hour `t` (MW per site).
    pub fn background_at(&self, t: usize) -> Vec<f64> {
        self.background.iter().map(|b| b.at(t)).collect()
    }

    /// [`Self::background_at`] into a caller-owned buffer — the hot-loop
    /// variant ([`MonthScratch`](crate::MonthScratch) reuses one buffer
    /// for a whole month instead of allocating per hour).
    pub(crate) fn background_at_into(&self, t: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.background.iter().map(|b| b.at(t)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_shape() {
        let s = Scenario::paper_default(1, 42);
        assert_eq!(s.system.len(), 3);
        assert_eq!(s.history.len(), 31 * 24);
        assert_eq!(s.workload.len(), 30 * 24);
        assert_eq!(s.background.len(), 3);
        assert_eq!(s.background[0].len(), s.workload.len());
    }

    #[test]
    fn deterministic() {
        let a = Scenario::paper_default(1, 7);
        let b = Scenario::paper_default(1, 7);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.background[2], b.background[2]);
    }

    #[test]
    fn workload_fits_capacity() {
        // Even the flash-crowd peak must stay within deliverable capacity,
        // otherwise step 1 (which must serve everything) is infeasible.
        let s = Scenario::paper_default(1, 42);
        let capacity = s.system.total_capacity();
        let peak = s.workload.peak();
        assert!(
            peak < capacity,
            "peak {peak} req/h exceeds capacity {capacity}"
        );
    }

    #[test]
    fn first_hours_cuts_the_month_and_keeps_the_history() {
        let s = Scenario::paper_default(1, 42);
        let short = s.clone().first_hours(48);
        assert_eq!(short.horizon(), 48);
        assert_eq!(short.history, s.history);
        for (cut, full) in short.background.iter().zip(&s.background) {
            assert_eq!(cut.values(), &full.values()[..48]);
        }
        assert_eq!(short.workload.values(), &s.workload.values()[..48]);
        assert_eq!(s.clone().first_hours(10_000).horizon(), s.horizon());
    }

    #[test]
    fn background_at_returns_per_site_values() {
        let s = Scenario::paper_default(1, 42);
        let d = s.background_at(100);
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|&x| x > 100.0));
    }
}
