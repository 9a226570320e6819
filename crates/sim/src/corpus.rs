//! The decision corpus: 144 capped months, one digest each.
//!
//! The golden digests pin one month and one risk run. A change that
//! claims to keep decisions bit for bit needs more than that: solver
//! changes have moved hours that lay outside the pinned month. The
//! corpus covers Policies 1–3 × seeds 42–49 × {$1.5 M, $2.5 M, no
//! budget} × {flat caps, afternoon derating at depth 0.25}: 144 Cost
//! Capping months, 103,680 hours.
//!
//! Each month folds into one FNV-1a digest (the 32-bit-half fold of the
//! golden digests) over every hour's outcome, `realized_cost`,
//! `believed_cost`, `ordinary_served`, `hourly_budget` and the per-site
//! `lambda`, `power_mw` and `price`. [`run_corpus`] renders one line per
//! month; `baselines/corpus.txt` holds the committed lines, and
//! `billcap corpus` prints the current ones.

use crate::metrics::MonthlyReport;
use crate::risk::{fnv, FNV_OFFSET};
use crate::runner::{run_month_scratch, MonthScratch, Strategy};
use crate::scenario::Scenario;
use billcap_core::{CapSchedule, CoreError, HourOutcome};
use billcap_rt::try_par_map;
use std::fmt;

/// Depth of the corpus's afternoon cap derating.
const DERATE_DEPTH: f64 = 0.25;

/// One month of the corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusMonth {
    /// Pricing-policy family (1..=3).
    pub policy: usize,
    /// Scenario seed; it also seeds the derating schedule.
    pub seed: u64,
    /// Monthly budget, `None` for an uncapped month.
    pub budget: Option<f64>,
    /// Caps derated every afternoon ([`CapSchedule::derating`]) rather
    /// than flat.
    pub derated: bool,
}

impl CorpusMonth {
    /// The 144 months, in the order [`run_corpus`] prints them: policy,
    /// then seed, then budget ($1.5 M, $2.5 M, none), then caps (flat,
    /// derated).
    pub fn all() -> Vec<CorpusMonth> {
        let mut months = Vec::with_capacity(144);
        for policy in 1..=3 {
            for seed in 42..=49 {
                for budget in [
                    Some(Scenario::STRINGENT_BUDGET),
                    Some(Scenario::ABUNDANT_BUDGET),
                    None,
                ] {
                    for derated in [false, true] {
                        months.push(CorpusMonth {
                            policy,
                            seed,
                            budget,
                            derated,
                        });
                    }
                }
            }
        }
        months
    }

    /// Simulates the month under Cost Capping and digests it.
    pub fn run(&self) -> Result<MonthDigest, CoreError> {
        let scenario = Scenario::paper_default(self.policy, self.seed);
        let schedule = self.derated.then(|| {
            let caps: Vec<f64> = scenario
                .system
                .sites
                .iter()
                .map(|s| s.power_cap_mw)
                .collect();
            CapSchedule::derating(&caps, scenario.horizon(), DERATE_DEPTH, self.seed)
        });
        let report = run_month_scratch(
            &scenario,
            Strategy::CostCapping,
            self.budget,
            false,
            schedule.as_ref(),
            &mut MonthScratch::new(),
        )?;
        // Every Cost Capping hour has an outcome; the "none" tag falls
        // outside the three slots.
        let mut outcomes = [0usize; 3];
        for hour in &report.hours {
            if let Some(slot) = outcomes.get_mut(outcome_tag(hour.outcome) as usize) {
                *slot += 1;
            }
        }
        Ok(MonthDigest {
            month: *self,
            outcomes,
            digest: month_digest(&report),
        })
    }
}

/// One month's corpus line: the month, its outcome counts and its
/// digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonthDigest {
    /// The month digested.
    pub month: CorpusMonth,
    /// Hours within budget, throttled and overridden.
    pub outcomes: [usize; 3],
    /// FNV-1a over every decision bit of the month: per hour, the
    /// outcome, `realized_cost`, `believed_cost`, `ordinary_served`,
    /// `hourly_budget` (all ones when no budget was in force), then each
    /// site's `lambda`, `power_mw` and `price`, every float by its bit
    /// pattern.
    pub digest: u64,
}

impl fmt::Display for MonthDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = &self.month;
        let budget = match m.budget {
            Some(b) => format!("{b}"),
            None => "none".into(),
        };
        let caps = if m.derated { "derated" } else { "flat" };
        let [within, throttled, overridden] = self.outcomes;
        write!(
            f,
            "policy={} seed={} budget={budget} caps={caps} within={within} \
             throttled={throttled} override={overridden} digest={:016x}",
            m.policy, m.seed, self.digest
        )
    }
}

/// [`MonthDigest::digest`] of a month's report.
fn month_digest(report: &MonthlyReport) -> u64 {
    report.hours.iter().fold(FNV_OFFSET, |h, hour| {
        let h = fnv(h, outcome_tag(hour.outcome));
        let h = [hour.realized_cost, hour.believed_cost, hour.ordinary_served]
            .iter()
            .fold(h, |h, v| fnv(h, v.to_bits()));
        let h = fnv(h, hour.hourly_budget.map_or(u64::MAX, f64::to_bits));
        hour.lambda
            .iter()
            .chain(&hour.power_mw)
            .chain(&hour.price)
            .fold(h, |h, v| fnv(h, v.to_bits()))
    })
}

/// Runs every corpus month on the worker pool and renders one line per
/// month, newline-terminated, in [`CorpusMonth::all`] order.
pub fn run_corpus() -> Result<String, CoreError> {
    let digests = try_par_map(&CorpusMonth::all(), CorpusMonth::run)?;
    Ok(digests.iter().map(|d| format!("{d}\n")).collect())
}

fn outcome_tag(outcome: Option<HourOutcome>) -> u64 {
    match outcome {
        Some(HourOutcome::WithinBudget) => 0,
        Some(HourOutcome::Throttled) => 1,
        Some(HourOutcome::PremiumOverride) => 2,
        None => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_corpus_has_144_distinct_months() {
        let months = CorpusMonth::all();
        assert_eq!(months.len(), 144);
        for (i, a) in months.iter().enumerate() {
            assert!(!months[i + 1..].contains(a), "{a:?} repeats");
        }
    }

    #[test]
    fn lines_name_the_month() {
        let line = MonthDigest {
            month: CorpusMonth {
                policy: 2,
                seed: 43,
                budget: None,
                derated: true,
            },
            outcomes: [700, 0, 20],
            digest: 0xab,
        }
        .to_string();
        assert_eq!(
            line,
            "policy=2 seed=43 budget=none caps=derated within=700 throttled=0 \
             override=20 digest=00000000000000ab"
        );
    }
}
