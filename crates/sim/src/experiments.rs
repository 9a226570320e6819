//! One runner per figure of the paper's evaluation (Section VII), plus the
//! solver-scaling measurement (Section IV-C) and the ablation studies
//! called out in DESIGN.md.
//!
//! Every runner returns structured data with a `render()` producing the
//! same rows/series the paper reports. Sweeps over independent month
//! simulations fan out on the `billcap-rt` worker pool.

use crate::metrics::MonthlyReport;
use crate::risk::distort_history;
use crate::runner::{run_month, Strategy};
use crate::scenario::Scenario;
use crate::table::{dollars, percent, render_table};
use billcap_core::{
    evaluate_allocation, CoreError, CostMinimizer, DataCenterSpec, DataCenterSystem,
};
use billcap_market::{fivebus, FiveBusConsumer, PricingPolicySet, StepPolicy};
use billcap_obs::Stopwatch;
use billcap_power::{CoolingModel, DcPowerModel, FatTree, ServerModel, SwitchPower};
use billcap_rt::try_par_map;

/// Default seed used by the experiment suite (any seed reproduces the same
/// qualitative shapes; this one is the suite's reference).
pub const DEFAULT_SEED: u64 = 42;

// ---------------------------------------------------------------------------
// Figure 1: locational pricing policies from the five-bus system
// ---------------------------------------------------------------------------

/// Figure 1: LMP step policies at consumers B, C, D of the PJM five-bus
/// system, derived from first principles by a DC-OPF load sweep.
pub struct Fig1 {
    /// Per consumer: the `(system load MW, LMP $/MWh)` sweep series.
    pub series: Vec<(FiveBusConsumer, Vec<(f64, f64)>)>,
    /// Step policies fitted to each series.
    pub policies: Vec<StepPolicy>,
}

/// Runs the Figure 1 sweep (0–900 MW in 10 MW steps).
pub fn fig1() -> Fig1 {
    let derived = fivebus::derive_policies(900.0, 10.0).expect("five-bus system is connected"); // detlint-allow(L001): reference grid
    let mut series = Vec::new();
    let mut policies = Vec::new();
    for (c, s, p) in derived {
        series.push((c, s));
        policies.push(p);
    }
    Fig1 { series, policies }
}

impl Fig1 {
    /// Renders the sampled price curves (every 100 MW) and the fitted
    /// step policies.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        if let Some((_, first)) = self.series.first() {
            for (i, &(load, _)) in first.iter().enumerate() {
                if load % 100.0 != 0.0 {
                    continue;
                }
                let mut row = vec![format!("{load:.0}")];
                for (_, s) in &self.series {
                    row.push(format!("{:.2}", s[i].1));
                }
                rows.push(row);
            }
        }
        let mut out = String::from("Figure 1: locational pricing policies (five-bus LMP sweep)\n");
        out.push_str(&render_table(
            &["load (MW)", "price@B", "price@C", "price@D"],
            &rows,
        ));
        for ((c, _), p) in self.series.iter().zip(&self.policies) {
            let levels: Vec<String> = p
                .levels()
                .map(|(lo, hi, r)| {
                    if hi.is_finite() {
                        format!("[{lo:.0},{hi:.0}):{r:.2}")
                    } else {
                        format!("[{lo:.0},inf):{r:.2}")
                    }
                })
                .collect();
            out.push_str(&format!("{c:?}: {}\n", levels.join("  ")));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Figure 3: hourly cost, Cost Capping vs Min-Only
// ---------------------------------------------------------------------------

/// Figure 3: hourly electricity cost of the three strategies over the
/// evaluation month (no budget; Policy 1).
pub struct Fig3 {
    pub capping: MonthlyReport,
    pub min_only_avg: MonthlyReport,
    pub min_only_low: MonthlyReport,
}

/// Runs Figure 3.
pub fn fig3(seed: u64) -> Result<Fig3, CoreError> {
    let scenario = Scenario::paper_default(1, seed);
    let mut results: Vec<MonthlyReport> =
        try_par_map(&Strategy::ALL, |&s| run_month(&scenario, s, None))?;
    let min_only_low = results.pop().expect("three strategies"); // detlint-allow(L001): ALL has 3 entries
    let min_only_avg = results.pop().expect("three strategies"); // detlint-allow(L001): ALL has 3 entries
    let capping = results.pop().expect("three strategies"); // detlint-allow(L001): ALL has 3 entries
    Ok(Fig3 {
        capping,
        min_only_avg,
        min_only_low,
    })
}

impl Fig3 {
    /// Cost savings of Cost Capping relative to a baseline report.
    pub fn savings_vs(&self, baseline: &MonthlyReport) -> f64 {
        1.0 - self.capping.total_cost() / baseline.total_cost()
    }

    /// Renders the first day's hourly costs and the monthly summary.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for t in 0..24 {
            rows.push(vec![
                format!("{t}"),
                dollars(self.capping.hours[t].realized_cost),
                dollars(self.min_only_avg.hours[t].realized_cost),
                dollars(self.min_only_low.hours[t].realized_cost),
            ]);
        }
        let mut out = String::from("Figure 3: hourly electricity cost (first day shown; $/hour)\n");
        out.push_str(&render_table(
            &["hour", "Cost Capping", "Min-Only (Avg)", "Min-Only (Low)"],
            &rows,
        ));
        out.push_str(&format!(
            "monthly: capping {}  avg {}  low {}\n",
            dollars(self.capping.total_cost()),
            dollars(self.min_only_avg.total_cost()),
            dollars(self.min_only_low.total_cost()),
        ));
        out.push_str(&format!(
            "savings: {} vs Min-Only (Avg), {} vs Min-Only (Low)  [paper: 17.9%, 33.5%]\n",
            percent(self.savings_vs(&self.min_only_avg)),
            percent(self.savings_vs(&self.min_only_low)),
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Figure 4: monthly bills under Policies 0-3
// ---------------------------------------------------------------------------

/// Figure 4: monthly bill per pricing policy per strategy.
pub struct Fig4 {
    /// `bills[policy][strategy]` in dollars, strategies in
    /// [`Strategy::ALL`] order.
    pub bills: Vec<[f64; 3]>,
}

/// Runs Figure 4 (4 policies x 3 strategies, in parallel).
pub fn fig4(seed: u64) -> Result<Fig4, CoreError> {
    let cells: Vec<(usize, usize)> = (0..4).flat_map(|p| (0..3).map(move |s| (p, s))).collect();
    let costs: Vec<((usize, usize), f64)> = try_par_map(&cells, |&(p, s)| {
        let scenario = Scenario::paper_default(p, seed);
        run_month(&scenario, Strategy::ALL[s], None).map(|r| ((p, s), r.total_cost()))
    })?;
    let mut bills = vec![[0.0; 3]; 4];
    for ((p, s), c) in costs {
        bills[p][s] = c;
    }
    Ok(Fig4 { bills })
}

impl Fig4 {
    /// Renders the policy-by-strategy bill matrix.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .bills
            .iter()
            .enumerate()
            .map(|(p, row)| {
                vec![
                    format!("Policy {p}"),
                    dollars(row[0]),
                    dollars(row[1]),
                    dollars(row[2]),
                ]
            })
            .collect();
        let mut out = String::from("Figure 4: monthly electricity bills under Policies 0-3\n");
        out.push_str(&render_table(
            &["policy", "Cost Capping", "Min-Only (Avg)", "Min-Only (Low)"],
            &rows,
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Figures 5/6 and 7/8: budgeted months
// ---------------------------------------------------------------------------

/// A budgeted Cost Capping month: throughput split (Figs. 5/7) and hourly
/// cost vs. hourly budget (Figs. 6/8).
pub struct BudgetedMonth {
    pub report: MonthlyReport,
    pub monthly_budget: f64,
}

/// Runs a budgeted Cost Capping month (Figures 5/6 use the abundant
/// $2.5 M budget, Figures 7/8 the stringent $1.5 M).
fn budgeted_month(seed: u64, monthly_budget: f64) -> Result<BudgetedMonth, CoreError> {
    let scenario = Scenario::paper_default(1, seed);
    let report = run_month(&scenario, Strategy::CostCapping, Some(monthly_budget))?;
    Ok(BudgetedMonth {
        report,
        monthly_budget,
    })
}

/// Figures 5 and 6.
pub fn fig5_6(seed: u64) -> Result<BudgetedMonth, CoreError> {
    budgeted_month(seed, Scenario::ABUNDANT_BUDGET)
}

/// Figures 7 and 8.
pub fn fig7_8(seed: u64) -> Result<BudgetedMonth, CoreError> {
    budgeted_month(seed, Scenario::STRINGENT_BUDGET)
}

impl BudgetedMonth {
    /// Hours in which no ordinary requests were served.
    pub fn starved_hours(&self) -> usize {
        self.report
            .hours
            .iter()
            .filter(|h| h.ordinary_offered > 0.0 && h.ordinary_served <= 0.0)
            .count()
    }

    /// Renders a daily sample of throughput and cost-vs-budget plus the
    /// monthly aggregates.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for h in self.report.hours.iter().step_by(24) {
            rows.push(vec![
                format!("{}", h.hour),
                format!("{:.1}", h.premium_offered / 1e6),
                format!("{:.1}", h.premium_served / 1e6),
                format!("{:.1}", h.ordinary_offered / 1e6),
                format!("{:.1}", h.ordinary_served / 1e6),
                dollars(h.realized_cost),
                dollars(h.hourly_budget.unwrap_or(f64::NAN)),
            ]);
        }
        let mut out = format!(
            "Budgeted month at {} (daily samples; rates in Mreq/h)\n",
            dollars(self.monthly_budget)
        );
        out.push_str(&render_table(
            &[
                "hour", "prem off", "prem srv", "ord off", "ord srv", "cost", "budget",
            ],
            &rows,
        ));
        out.push_str(&format!(
            "premium throughput {}  ordinary throughput {}  monthly cost {}  \
             budget utilization {}  hourly violations {}  starved hours {}\n",
            percent(self.report.premium_throughput()),
            percent(self.report.ordinary_throughput()),
            dollars(self.report.total_cost()),
            percent(self.report.budget_utilization().unwrap_or(f64::NAN)),
            self.report.hourly_violations(),
            self.starved_hours(),
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Figure 9: cost and throughput comparison at the stringent budget
// ---------------------------------------------------------------------------

/// Figure 9: normalized cost and throughput of the three strategies under
/// the $1.5 M budget.
pub struct Fig9 {
    /// Per strategy ([`Strategy::ALL`] order): `(cost / budget,
    /// premium throughput, ordinary throughput)`.
    pub rows: [(f64, f64, f64); 3],
    pub budget: f64,
}

/// Runs Figure 9.
pub fn fig9(seed: u64) -> Result<Fig9, CoreError> {
    let scenario = Scenario::paper_default(1, seed);
    let budget = Scenario::STRINGENT_BUDGET;
    let reports: Vec<MonthlyReport> =
        try_par_map(&Strategy::ALL, |&s| run_month(&scenario, s, Some(budget)))?;
    let mut rows = [(0.0, 0.0, 0.0); 3];
    for (i, r) in reports.iter().enumerate() {
        rows[i] = (
            r.total_cost() / budget,
            r.premium_throughput(),
            r.ordinary_throughput(),
        );
    }
    Ok(Fig9 { rows, budget })
}

impl Fig9 {
    /// Renders the normalized comparison.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = Strategy::ALL
            .iter()
            .zip(&self.rows)
            .map(|(s, &(cost, prem, ord))| {
                vec![
                    s.name().to_string(),
                    format!("{:.3}", cost),
                    percent(prem),
                    percent(ord),
                ]
            })
            .collect();
        let mut out = format!(
            "Figure 9: cost and throughput under a {} monthly budget\n",
            dollars(self.budget)
        );
        out.push_str(&render_table(
            &["strategy", "cost/budget", "premium tput", "ordinary tput"],
            &rows,
        ));
        out.push_str(
            "[paper: Min-Only (Avg) +23.3% and (Low) +39.5% over budget; \
             Capping 100% premium, up to 80.3% ordinary, 98.5% utilization]\n",
        );
        out
    }
}

// ---------------------------------------------------------------------------
// Figure 10: throughput across the budget ladder
// ---------------------------------------------------------------------------

/// Figure 10: monthly throughput under the budget ladder.
pub struct Fig10 {
    /// `(budget, premium throughput, ordinary throughput, utilization)`.
    pub rows: Vec<(f64, f64, f64, f64)>,
}

/// Runs Figure 10 (the five budgets in parallel).
pub fn fig10(seed: u64) -> Result<Fig10, CoreError> {
    let scenario = Scenario::paper_default(1, seed);
    let rows: Vec<(f64, f64, f64, f64)> = try_par_map(&Scenario::BUDGET_LADDER, |&b| {
        run_month(&scenario, Strategy::CostCapping, Some(b)).map(|r| {
            (
                b,
                r.premium_throughput(),
                r.ordinary_throughput(),
                r.budget_utilization().unwrap_or(f64::NAN),
            )
        })
    })?;
    Ok(Fig10 { rows })
}

impl Fig10 {
    /// Renders the ladder.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|&(b, prem, ord, util)| {
                vec![
                    dollars(b),
                    percent(prem),
                    percent(ord),
                    format!("{util:.3}"),
                ]
            })
            .collect();
        let mut out = String::from("Figure 10: monthly throughput vs. cost budget\n");
        out.push_str(&render_table(
            &["budget", "premium tput", "ordinary tput", "cost/budget"],
            &rows,
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Solver scalability (paper Section IV-C)
// ---------------------------------------------------------------------------

/// Solver-time measurement for growing data-center networks.
pub struct SolverScaling {
    /// `(data centers, price levels, median microseconds per solve)`.
    pub rows: Vec<(usize, usize, f64)>,
}

/// Builds an `n`-site system by cycling the paper's three data centers,
/// each with its five-level policy.
pub fn synthetic_system(n: usize) -> DataCenterSystem {
    let sites: Vec<DataCenterSpec> = (0..n)
        .map(|i| {
            let mut dc = DataCenterSpec::paper_dc(i % 3);
            dc.name = format!("dc{i}");
            dc
        })
        .collect();
    let policies = PricingPolicySet {
        policies: (0..n).map(|i| StepPolicy::paper_policy(i % 3)).collect(),
    };
    // detlint-allow(L001): generator emits valid specs by construction
    DataCenterSystem::new(sites, policies).expect("synthetic system is valid")
}

/// Measures the median step-1 solve time for systems of 3..=13 sites
/// (the paper reports <= ~2 ms at 13 sites and 5 levels with 1e8 requests).
pub fn solver_scaling(repetitions: usize) -> SolverScaling {
    let minimizer = CostMinimizer::default();
    let mut rows = Vec::new();
    for n in [3usize, 5, 8, 13] {
        let system = synthetic_system(n);
        let background: Vec<f64> = (0..n).map(|i| 330.0 + 40.0 * (i % 3) as f64).collect();
        let lambda = 1e8;
        let mut times: Vec<f64> = (0..repetitions.max(1))
            .map(|_| {
                let t = Stopwatch::start();
                let alloc = minimizer
                    .solve(&system, lambda, &background)
                    .expect("synthetic instance is feasible"); // detlint-allow(L001): sized to stay feasible
                assert!(alloc.total_lambda > 0.0);
                t.elapsed_secs() * 1e6
            })
            .collect();
        times.sort_by(f64::total_cmp);
        rows.push((n, 5, times[times.len() / 2]));
    }
    SolverScaling { rows }
}

impl SolverScaling {
    /// Renders solver timings.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|&(n, l, us)| vec![format!("{n}"), format!("{l}"), format!("{us:.0}")])
            .collect();
        let mut out = String::from(
            "Solver scalability: step-1 MILP at 1e8 requests (paper: <= ~2 ms at 13 sites)\n",
        );
        out.push_str(&render_table(&["sites", "levels", "median us"], &rows));
        out
    }
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// Ablation: optimize with a server-only power model (the Min-Only blind
/// spot) while being billed for the full power chain. Quantifies the
/// paper's claim that ignoring cooling/networking misprices the decision.
pub struct PowerModelAblation {
    pub full_model_cost: f64,
    pub server_only_cost: f64,
}

/// Replaces each site's power model with a server-only variant (zero-power
/// switches, effectively-free cooling) for *decision making*.
fn server_only_system(system: &DataCenterSystem) -> DataCenterSystem {
    let sites = system
        .sites
        .iter()
        .map(|s| {
            let mut blinded = s.clone();
            blinded.power = DcPowerModel::new(
                ServerModel::new(s.power.server.idle_w, s.power.server.peak_w),
                s.power.operating_utilization,
                FatTree::new(
                    s.power.network.k,
                    SwitchPower {
                        edge_w: 0.0,
                        aggregation_w: 0.0,
                        core_w: 0.0,
                    },
                ),
                CoolingModel::new(1e9), // effectively free cooling
            );
            blinded
        })
        .collect();
    // detlint-allow(L001): blinding only changes prices, validity is unchanged
    DataCenterSystem::new(sites, system.policies.clone()).expect("blinded system stays valid")
}

/// Runs the power-model ablation over the evaluation month.
pub fn ablation_power_model(seed: u64) -> Result<PowerModelAblation, CoreError> {
    let scenario = Scenario::paper_default(1, seed);
    let blinded = server_only_system(&scenario.system);
    let minimizer = CostMinimizer::default();
    let mut full_cost = 0.0;
    let mut blind_cost = 0.0;
    for t in 0..scenario.horizon() {
        let lambda = scenario
            .workload
            .at(t)
            .min(scenario.system.total_capacity());
        let d = scenario.background_at(t);
        let full = minimizer.solve(&scenario.system, lambda, &d)?;
        full_cost += evaluate_allocation(&scenario.system, &full.lambda, &d).total_cost;
        let lambda_blind = lambda.min(blinded.total_capacity());
        let blind = minimizer.solve(&blinded, lambda_blind, &d)?;
        // Billed under the TRUE system either way.
        blind_cost += evaluate_allocation(&scenario.system, &blind.lambda, &d).total_cost;
    }
    Ok(PowerModelAblation {
        full_model_cost: full_cost,
        server_only_cost: blind_cost,
    })
}

impl PowerModelAblation {
    /// Extra cost caused by the server-only blind spot.
    pub fn penalty(&self) -> f64 {
        self.server_only_cost / self.full_model_cost - 1.0
    }

    /// Renders the ablation summary.
    pub fn render(&self) -> String {
        format!(
            "Power-model ablation: full-model decisions cost {}, server-only decisions \
             billed fully cost {} (+{})\n",
            dollars(self.full_model_cost),
            dollars(self.server_only_cost),
            percent(self.penalty()),
        )
    }
}

/// Ablation: budgeter history length. Compares hourly-budget violation
/// counts and ordinary throughput at the stringent budget when the
/// budgeter learns from 1, 2 or 4 weeks of history.
pub struct BudgeterAblation {
    /// `(label, ordinary throughput, hourly violations)`.
    pub rows: Vec<(String, f64, usize)>,
}

/// Runs the budgeter-history ablation.
pub fn ablation_budget_history(seed: u64) -> Result<BudgeterAblation, CoreError> {
    let base = Scenario::paper_default(1, seed);
    let variants: Vec<(String, usize)> = vec![
        ("1 week".into(), 168),
        ("2 weeks".into(), 336),
        ("4 weeks".into(), 672),
    ];
    let mut rows: Vec<(String, f64, usize)> = try_par_map(&variants, |(label, hours)| {
        let mut s = base.clone();
        let start = s.history.len() - hours;
        s.history = s.history.slice(start, *hours);
        run_month(&s, Strategy::CostCapping, Some(Scenario::STRINGENT_BUDGET)).map(|r| {
            (
                label.clone(),
                r.ordinary_throughput(),
                r.hourly_violations(),
            )
        })
    })?;
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(BudgeterAblation { rows })
}

impl BudgeterAblation {
    /// Renders the ablation table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(label, tput, v)| vec![label.clone(), percent(*tput), format!("{v}")])
            .collect();
        let mut out = String::from("Budgeter history-length ablation ($1.5M budget)\n");
        out.push_str(&render_table(
            &["history", "ordinary tput", "hourly violations"],
            &rows,
        ));
        out
    }
}

/// Ablation: prediction-error robustness (paper Section IX). The
/// budgeter's history is distorted with multiplicative noise of growing
/// amplitude before it learns its hour-of-week weights; the stringent
/// budget month then measures how much mis-budgeting costs.
pub struct PredictionErrorAblation {
    /// `(noise amplitude, ordinary throughput, hourly violations,
    /// budget utilization)`.
    pub rows: Vec<(f64, f64, usize, f64)>,
}

/// Runs the prediction-error ablation.
pub fn ablation_prediction_error(seed: u64) -> Result<PredictionErrorAblation, CoreError> {
    let base = Scenario::paper_default(1, seed);
    let amplitudes = [0.0, 0.1, 0.25, 0.5];
    let rows: Vec<(f64, f64, usize, f64)> = try_par_map(&amplitudes, |&amp| {
        let mut s = base.clone();
        s.history = distort_history(&base.history, amp, seed);
        run_month(&s, Strategy::CostCapping, Some(Scenario::STRINGENT_BUDGET)).map(|r| {
            (
                amp,
                r.ordinary_throughput(),
                r.hourly_violations(),
                r.budget_utilization().unwrap_or(f64::NAN),
            )
        })
    })?;
    Ok(PredictionErrorAblation { rows })
}

impl PredictionErrorAblation {
    /// Renders the robustness table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|&(amp, tput, v, util)| {
                vec![
                    format!("{:.0}%", amp * 100.0),
                    percent(tput),
                    format!("{v}"),
                    format!("{util:.3}"),
                ]
            })
            .collect();
        let mut out =
            String::from("Prediction-error robustness ($1.5M budget; noisy budgeting history)\n");
        out.push_str(&render_table(
            &[
                "history noise",
                "ordinary tput",
                "violations",
                "cost/budget",
            ],
            &rows,
        ));
        out
    }
}

/// Hierarchical vs. centralized cost minimization (paper Section IX):
/// per-hour solve time and realized-cost gap as the fleet grows.
pub struct HierarchicalComparison {
    /// `(sites, centralized µs, hierarchical µs, cost gap fraction)`.
    pub rows: Vec<(usize, f64, f64, f64)>,
}

/// Runs the hierarchical comparison over synthetic fleets (regions of 3).
pub fn hierarchical_comparison(repetitions: usize) -> HierarchicalComparison {
    use billcap_core::HierarchicalMinimizer;
    let minimizer = CostMinimizer::default();
    let mut rows = Vec::new();
    for n in [3usize, 9, 15, 27] {
        let system = synthetic_system(n);
        let background: Vec<f64> = (0..n).map(|i| 330.0 + 40.0 * (i % 3) as f64).collect();
        let lambda = 0.4 * system.total_capacity();
        let hier = HierarchicalMinimizer::evenly(n, 3);

        let mut central_times = Vec::new();
        let mut hier_times = Vec::new();
        let mut central_cost = 0.0;
        let mut hier_cost = 0.0;
        for _ in 0..repetitions.max(1) {
            let t = Stopwatch::start();
            central_cost = minimizer
                .solve(&system, lambda, &background)
                .expect("feasible") // detlint-allow(L001): demand sized below capacity
                .total_cost;
            central_times.push(t.elapsed_secs() * 1e6);
            let t = Stopwatch::start();
            hier_cost = hier
                .solve(&system, lambda, &background)
                .expect("feasible") // detlint-allow(L001): demand sized below capacity
                .total_cost;
            hier_times.push(t.elapsed_secs() * 1e6);
        }
        central_times.sort_by(f64::total_cmp);
        hier_times.sort_by(f64::total_cmp);
        rows.push((
            n,
            central_times[central_times.len() / 2],
            hier_times[hier_times.len() / 2],
            hier_cost / central_cost - 1.0,
        ));
    }
    HierarchicalComparison { rows }
}

impl HierarchicalComparison {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|&(n, c_us, h_us, gap)| {
                vec![
                    format!("{n}"),
                    format!("{c_us:.0}"),
                    format!("{h_us:.0}"),
                    percent(gap),
                ]
            })
            .collect();
        let mut out =
            String::from("Hierarchical vs centralized cost minimization (regions of 3 sites)\n");
        out.push_str(&render_table(
            &["sites", "central us", "hierarchical us", "cost gap"],
            &rows,
        ));
        out
    }
}

/// Ablation: ElasticTree-style networking consolidation (the paper's
/// networking model) vs. always-on switches. Decisions are unchanged; the
/// delta power of a non-consolidated fabric is billed post-hoc at each
/// hour's realized price (a conservative estimate — extra draw could also
/// tip price levels).
pub struct NetworkConsolidationAblation {
    /// Monthly bill with consolidation (the paper's model), $.
    pub consolidated_cost: f64,
    /// Monthly bill with every switch always on, $.
    pub always_on_cost: f64,
    /// Networking energy saved by consolidation over the month (MWh).
    pub energy_saved_mwh: f64,
}

/// Runs the networking-consolidation ablation.
pub fn ablation_network_consolidation(
    seed: u64,
) -> Result<NetworkConsolidationAblation, CoreError> {
    let scenario = Scenario::paper_default(1, seed);
    let minimizer = CostMinimizer::default();
    let mut consolidated_cost = 0.0;
    let mut always_on_cost = 0.0;
    let mut energy_saved_mwh = 0.0;
    for t in 0..scenario.horizon() {
        let lambda = scenario
            .workload
            .at(t)
            .min(scenario.system.total_capacity());
        let d = scenario.background_at(t);
        let alloc = minimizer.solve(&scenario.system, lambda, &d)?;
        let real = evaluate_allocation(&scenario.system, &alloc.lambda, &d);
        consolidated_cost += real.total_cost;
        always_on_cost += real.total_cost;
        for (i, site) in scenario.system.sites.iter().enumerate() {
            let n = site.servers_for_rate(alloc.lambda[i]);
            let consolidated_w = site.power.network.networking_power_w(n);
            let always_w = site.power.network.always_on_power_w();
            // The extra switch heat also needs cooling.
            let delta_mw = (always_w - consolidated_w) * site.power.cooling.overhead_factor() / 1e6;
            energy_saved_mwh += delta_mw; // one hour at delta_mw
            always_on_cost += real.price[i] * delta_mw;
        }
    }
    Ok(NetworkConsolidationAblation {
        consolidated_cost,
        always_on_cost,
        energy_saved_mwh,
    })
}

impl NetworkConsolidationAblation {
    /// Fractional bill increase without consolidation.
    pub fn penalty(&self) -> f64 {
        self.always_on_cost / self.consolidated_cost - 1.0
    }

    /// Renders the ablation summary.
    pub fn render(&self) -> String {
        format!(
            "Networking-consolidation ablation: consolidated bill {}, always-on bill {} \
             (+{}); consolidation saves {:.0} MWh of networking+cooling energy per month\n",
            dollars(self.consolidated_cost),
            dollars(self.always_on_cost),
            percent(self.penalty()),
            self.energy_saved_mwh,
        )
    }
}

/// Extension: weather-aware routing. The paper fixes each site's cooling
/// efficiency; here `coe` varies hourly with the outside-air temperature
/// (economizer curve anchored at the paper's printed values), and a
/// weather-aware optimizer — which sees the hourly efficiencies — is
/// compared against a weather-blind one that optimizes with the static
/// values but is billed under the true hourly efficiencies.
pub struct WeatherAblation {
    pub aware_cost: f64,
    pub blind_cost: f64,
    /// Mean absolute hourly difference in load placed at the coolest site
    /// (requests/hour): how much the weather actually moves traffic.
    pub mean_shift: f64,
}

/// Runs the weather-aware-routing ablation.
pub fn ablation_weather(seed: u64) -> Result<WeatherAblation, CoreError> {
    use billcap_workload::{EconomizerCurve, TemperatureModel};
    let scenario = Scenario::paper_default(1, seed);
    let horizon = scenario.horizon();
    let static_coes = [1.94, 1.39, 1.74];
    let anchors = [6.0, 16.0, 11.0]; // mean November temperature per site
    let temps: Vec<_> = (0..3)
        .map(|i| TemperatureModel::paper_location(i, seed).generate(horizon))
        .collect();
    let curves: Vec<_> = (0..3)
        .map(|i| EconomizerCurve::anchored(static_coes[i], anchors[i]))
        .collect();

    let minimizer = CostMinimizer::default();
    let mut aware_cost = 0.0;
    let mut blind_cost = 0.0;
    let mut total_shift = 0.0;
    for t in 0..horizon {
        let d = scenario.background_at(t);
        // The true world this hour: weather-driven efficiencies.
        let true_sites: Vec<DataCenterSpec> = scenario
            .system
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| s.with_cooling_efficiency(curves[i].coe_at(temps[i].at(t))))
            .collect();
        let true_system = DataCenterSystem::new(true_sites, scenario.system.policies.clone())?;
        let lambda = scenario
            .workload
            .at(t)
            .min(true_system.total_capacity())
            .min(scenario.system.total_capacity());

        let aware = minimizer.solve(&true_system, lambda, &d)?;
        aware_cost += evaluate_allocation(&true_system, &aware.lambda, &d).total_cost;

        let blind = minimizer.solve(&scenario.system, lambda, &d)?;
        blind_cost += evaluate_allocation(&true_system, &blind.lambda, &d).total_cost;

        total_shift += (aware.lambda[0] - blind.lambda[0]).abs();
    }
    Ok(WeatherAblation {
        aware_cost,
        blind_cost,
        mean_shift: total_shift / horizon as f64,
    })
}

impl WeatherAblation {
    /// Fractional saving of weather awareness.
    pub fn saving(&self) -> f64 {
        1.0 - self.aware_cost / self.blind_cost
    }

    /// Renders the ablation summary.
    pub fn render(&self) -> String {
        format!(
            "Weather-aware routing: aware bill {}, blind bill {} (saving {}); \
             weather moves {:.1}M req/h at the coolest site on average\n",
            dollars(self.aware_cost),
            dollars(self.blind_cost),
            percent(self.saving()),
            self.mean_shift / 1e6,
        )
    }
}

/// Seed-stability study: the headline Figure-3 savings re-measured across
/// independent random worlds (different trace noise, flash timing
/// retained, different background weather), to show the qualitative
/// result is not an artifact of one seed.
pub struct SeedStability {
    /// Per seed: `(seed, savings vs Avg, savings vs Low)`.
    pub rows: Vec<(u64, f64, f64)>,
}

/// Runs Figure 3 for `seeds` independent seeds (in parallel).
pub fn seed_stability(seeds: &[u64]) -> Result<SeedStability, CoreError> {
    let rows: Vec<(u64, f64, f64)> = try_par_map(seeds, |&seed| {
        fig3(seed).map(|f| {
            (
                seed,
                f.savings_vs(&f.min_only_avg),
                f.savings_vs(&f.min_only_low),
            )
        })
    })?;
    Ok(SeedStability { rows })
}

impl SeedStability {
    /// `(min, mean, max)` of the savings vs a baseline (0 = Avg, 1 = Low).
    pub fn stats(&self, baseline: usize) -> (f64, f64, f64) {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .map(|r| if baseline == 0 { r.1 } else { r.2 })
            .collect();
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // detlint-allow(D006): sequential fixed-order mean over per-seed values; bitwise-stable
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        (min, mean, max)
    }

    /// Renders the stability table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|&(seed, a, l)| vec![format!("{seed}"), percent(a), percent(l)])
            .collect();
        let mut out = String::from("Seed stability of the Figure-3 savings\n");
        out.push_str(&render_table(&["seed", "vs Avg", "vs Low"], &rows));
        let (amin, amean, amax) = self.stats(0);
        let (lmin, lmean, lmax) = self.stats(1);
        out.push_str(&format!(
            "vs Avg: min {} mean {} max {}   vs Low: min {} mean {} max {}\n",
            percent(amin),
            percent(amean),
            percent(amax),
            percent(lmin),
            percent(lmean),
            percent(lmax),
        ));
        out
    }
}

/// Predictor accuracy on the evaluation month (paper Section IX assumes a
/// "accurate enough" predictor; this quantifies the candidates).
pub struct PredictorAccuracy {
    /// `(predictor name, MAPE)`.
    pub rows: Vec<(String, f64)>,
}

/// Runs the predictor-accuracy comparison.
pub fn predictor_accuracy(seed: u64) -> PredictorAccuracy {
    use billcap_workload::{mape, EwmaSeasonalPredictor, HourOfWeekPredictor, NaivePredictor};
    let scenario = Scenario::paper_default(1, seed);
    let mut rows = Vec::new();
    let mut naive = NaivePredictor::default();
    rows.push((
        "naive (last hour)".to_string(),
        mape(&mut naive, &scenario.workload),
    ));
    let mut seasonal = HourOfWeekPredictor::from_history(&scenario.history);
    rows.push((
        "hour-of-week".to_string(),
        mape(&mut seasonal, &scenario.workload),
    ));
    let mut ewma = EwmaSeasonalPredictor::from_history(&scenario.history, 0.2);
    rows.push((
        "hour-of-week + EWMA".to_string(),
        mape(&mut ewma, &scenario.workload),
    ));
    PredictorAccuracy { rows }
}

impl PredictorAccuracy {
    /// Renders the accuracy table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(name, err)| vec![name.clone(), percent(*err)])
            .collect();
        let mut out = String::from("Workload predictor accuracy (evaluation month)\n");
        out.push_str(&render_table(&["predictor", "MAPE"], &rows));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_produces_three_rising_policies() {
        let f = fig1();
        assert_eq!(f.series.len(), 3);
        assert_eq!(f.policies.len(), 3);
        for p in &f.policies {
            assert!(p.num_levels() >= 2);
            assert!(p.max_price() > p.min_price());
        }
        let rendered = f.render();
        assert!(rendered.contains("price@B"));
    }

    #[test]
    fn synthetic_systems_scale() {
        for n in [3, 5, 13] {
            let s = synthetic_system(n);
            assert_eq!(s.len(), n);
            assert!(s.total_capacity() > 0.0);
        }
    }

    #[test]
    fn solver_scaling_is_fast() {
        let s = solver_scaling(3);
        assert_eq!(s.rows.len(), 4);
        for &(n, _, us) in &s.rows {
            // The paper reports <= ~2 ms; allow a generous 250 ms here so
            // debug builds on slow machines still pass.
            assert!(us < 250_000.0, "{n} sites took {us} us");
        }
        assert!(s.render().contains("sites"));
    }

    #[test]
    fn predictor_accuracy_orders_sensibly() {
        let p = predictor_accuracy(7);
        assert_eq!(p.rows.len(), 3);
        let naive = p.rows[0].1;
        let seasonal = p.rows[1].1;
        assert!(seasonal < naive, "seasonal {seasonal} vs naive {naive}");
        assert!(p.render().contains("MAPE"));
    }

    #[test]
    fn hierarchical_comparison_small() {
        let h = hierarchical_comparison(1);
        assert_eq!(h.rows.len(), 4);
        for &(n, _, _, gap) in &h.rows {
            assert!(gap >= -1e-6, "{n} sites: negative gap {gap}");
            assert!(gap < 0.2, "{n} sites: gap {gap} too large");
        }
    }

    // Full-month experiment correctness is covered by the integration
    // tests at the workspace root (tests/paper_experiments.rs); the unit
    // tests here only exercise the cheap runners.
}
