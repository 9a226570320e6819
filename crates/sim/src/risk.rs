//! Monte-Carlo risk engine: bill and violation *distributions*, not
//! point estimates.
//!
//! A single month simulation answers "what does November cost under this
//! seed"; an operator deciding a budget needs "what is the P99 bill, and
//! with what probability does the capper blow the budget anyway". The
//! risk engine answers the latter by fanning `samples` perturbed-seed
//! month simulations across the `billcap-rt` worker pool and aggregating
//! the per-sample [`MonthlyReport`](crate::MonthlyReport)s into quantile
//! summaries (see `docs/METHODOLOGY.md` for the sampling model).
//!
//! Each sample perturbs the *inputs* the paper treats as uncertain:
//!
//! * workload level and growth (mean-rate and trend jitter),
//! * flash crowds (an extra surge with a fixed probability),
//! * background regional demand (per-site mean jitter),
//! * predictor error (multiplicative distortion of the budgeting
//!   history, so the budgeter plans from an imperfect forecast).
//!
//! The system spec itself is *not* perturbed — that is what makes the
//! per-worker [`MonthScratch`] engine reusable across every sample a
//! worker claims.
//!
//! ## Determinism contract
//!
//! Sample `i` is seeded with [`SeedStream::seed`]`(i)` from the root
//! seed — an O(1) indexed derivation, so a sample's perturbations depend
//! only on `(root_seed, i)`, never on which worker ran it or what ran
//! before it. Results come back in input order and every aggregate is
//! reduced with `stable_sum` in that order, so the entire
//! [`RiskSummary`] is bitwise identical at any thread count.

use crate::metrics::stable_sum;
use crate::runner::{run_month_scratch, MonthScratch, Strategy};
use crate::scenario::Scenario;
use crate::table;
use billcap_core::{CapSchedule, CoreError, DataCenterSystem};
use billcap_obs::json::Value;
use billcap_rt::{try_par_map_init_threads, Rng, SeedStream, Xoshiro256pp};
use billcap_workload::{
    BackgroundDemand, CustomerSplit, FlashCrowd, HourlyTrace, TraceConfig, TraceGenerator,
};

/// How the time-varying power caps for a risk run are produced.
///
/// The schedule is part of the *scenario*, not a random variable: one
/// schedule is built per run (from the root seed) and every sample is
/// simulated under it, so the distributions isolate input uncertainty
/// from cap policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleSpec {
    /// Static nameplate caps (no schedule).
    Flat,
    /// Afternoon-peaked thermal derating of the given depth (fractional
    /// cap reduction at the worst hour; see [`CapSchedule::derating`]).
    Derate {
        /// Maximum fractional cap reduction, in `[0, 1)`.
        depth: f64,
    },
}

impl ScheduleSpec {
    /// Parses `"none"`, `"derate"` (default depth 0.3) or
    /// `"derate:<depth>"` — the `--cap-schedule` CLI syntax.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" | "flat" => Ok(Self::Flat),
            "derate" => Ok(Self::Derate { depth: 0.3 }),
            _ => match s.strip_prefix("derate:") {
                Some(raw) => {
                    let depth: f64 = raw
                        .parse()
                        .map_err(|_| format!("invalid derate depth {raw:?}"))?;
                    if !(0.0..1.0).contains(&depth) {
                        return Err(format!("derate depth {depth} outside [0, 1)"));
                    }
                    Ok(Self::Derate { depth })
                }
                None => Err(format!(
                    "unknown cap schedule {s:?} (expected none | derate | derate:<depth>)"
                )),
            },
        }
    }

    /// Builds the schedule for `system` over `hours`, or `None` for
    /// [`ScheduleSpec::Flat`].
    pub fn build(&self, system: &DataCenterSystem, hours: usize, seed: u64) -> Option<CapSchedule> {
        match *self {
            Self::Flat => None,
            Self::Derate { depth } => {
                let base: Vec<f64> = system.sites.iter().map(|s| s.power_cap_mw).collect();
                Some(CapSchedule::derating(&base, hours.max(1), depth, seed))
            }
        }
    }
}

/// Configuration of a Monte-Carlo risk run.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskConfig {
    /// Number of perturbed month simulations.
    pub samples: usize,
    /// Root seed of the [`SeedStream`]; sample `i` uses `seed(i)`.
    pub root_seed: u64,
    /// Worker threads (0 = the machine's available parallelism).
    pub threads: usize,
    /// Pricing-policy family (0..=3), as in [`Scenario::paper_default`].
    pub policy: usize,
    /// Hours to simulate (0 = the full 720-hour month). The truncated
    /// horizon keeps the *front* of the month; `monthly_budget` is used
    /// as-is for whatever horizon runs, so callers shortening the month
    /// should scale the budget themselves.
    pub hours: usize,
    /// Monthly budget handed to the capper (`None` = uncapped).
    pub monthly_budget: Option<f64>,
    /// Time-varying power caps for the run.
    pub schedule: ScheduleSpec,
}

impl Default for RiskConfig {
    fn default() -> Self {
        Self {
            samples: 100,
            root_seed: 42,
            threads: 0,
            policy: 1,
            hours: 0,
            monthly_budget: Some(Scenario::STRINGENT_BUDGET),
            schedule: ScheduleSpec::Flat,
        }
    }
}

/// One simulated month under one perturbation seed: the capper's month
/// next to the budget-unaware Min-Only (Avg) baseline on the *same*
/// perturbed inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskSample {
    /// Sample index (also the [`SeedStream`] index).
    pub index: usize,
    /// The derived per-sample seed.
    pub seed: u64,
    /// Capper's realized monthly bill ($).
    pub capper_bill: f64,
    /// Whether the capper's bill exceeded the monthly budget.
    pub violates_budget: bool,
    /// Total overrun across budget-violating hours ($).
    pub violation_magnitude: f64,
    /// Hours whose realized cost exceeded their hourly budget.
    pub hourly_violations: usize,
    /// Fraction of hours where premium demand was not fully served.
    pub premium_miss_rate: f64,
    /// Capper's premium requests served over the month.
    pub premium_throughput: f64,
    /// Capper's ordinary requests served over the month.
    pub ordinary_throughput: f64,
    /// Min-Only (Avg) realized monthly bill on the same inputs ($).
    pub min_only_bill: f64,
    /// `(min_only_bill - capper_bill) / min_only_bill` — positive when
    /// capping is cheaper.
    pub savings_ratio: f64,
}

/// Order statistics of one per-sample metric (nearest-rank quantiles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean (`stable_sum`-reduced).
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Quantiles {
    /// Computes the statistics of `values` (must be non-empty). Sorting
    /// uses `f64::total_cmp`, so the result is deterministic for any
    /// input order.
    fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "quantiles of an empty sample set");
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let nearest = |q: f64| -> f64 {
            // Nearest-rank: the smallest value with cumulative frequency
            // >= q; rank ceil(q·n), 1-based.
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Self {
            p50: nearest(0.50),
            p95: nearest(0.95),
            p99: nearest(0.99),
            mean: stable_sum(sorted.iter().copied()) / sorted.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }

    fn to_json(self) -> Value {
        Value::Obj(vec![
            ("p50".into(), Value::Float(self.p50)),
            ("p95".into(), Value::Float(self.p95)),
            ("p99".into(), Value::Float(self.p99)),
            ("mean".into(), Value::Float(self.mean)),
            ("min".into(), Value::Float(self.min)),
            ("max".into(), Value::Float(self.max)),
        ])
    }

    fn fold_bits(&self, h: u64) -> u64 {
        [self.p50, self.p95, self.p99, self.mean, self.min, self.max]
            .iter()
            .fold(h, |h, v| fnv(h, v.to_bits()))
    }
}

/// Distribution summary of a risk run.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskSummary {
    /// Number of samples aggregated.
    pub samples: usize,
    /// Root seed the samples were derived from.
    pub root_seed: u64,
    /// Capper monthly-bill distribution ($).
    pub bill: Quantiles,
    /// Min-Only (Avg) monthly-bill distribution ($).
    pub min_only_bill: Quantiles,
    /// Savings-ratio distribution (capper vs Min-Only).
    pub savings_ratio: Quantiles,
    /// Premium-QoS-miss-rate distribution.
    pub premium_miss_rate: Quantiles,
    /// Budget-overrun-magnitude distribution ($).
    pub violation_magnitude: Quantiles,
    /// Fraction of samples whose capper bill exceeded the monthly
    /// budget.
    pub violation_probability: f64,
    /// Mean count of hourly budget violations per sample.
    pub mean_hourly_violations: f64,
}

impl RiskSummary {
    /// Aggregates per-sample results. Panics on an empty sample set.
    fn from_samples(samples: &[RiskSample], root_seed: u64) -> Self {
        assert!(!samples.is_empty(), "risk summary of zero samples");
        let pick = |f: fn(&RiskSample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
        let n = samples.len() as f64;
        Self {
            samples: samples.len(),
            root_seed,
            bill: Quantiles::from_values(&pick(|s| s.capper_bill)),
            min_only_bill: Quantiles::from_values(&pick(|s| s.min_only_bill)),
            savings_ratio: Quantiles::from_values(&pick(|s| s.savings_ratio)),
            premium_miss_rate: Quantiles::from_values(&pick(|s| s.premium_miss_rate)),
            violation_magnitude: Quantiles::from_values(&pick(|s| s.violation_magnitude)),
            violation_probability: samples.iter().filter(|s| s.violates_budget).count() as f64 / n,
            mean_hourly_violations: stable_sum(samples.iter().map(|s| s.hourly_violations as f64))
                / n,
        }
    }

    /// A bitwise digest of every statistic in the summary (FNV-1a over
    /// the `f64` bit patterns). Two runs whose digests match produced
    /// identical distributions down to the last ULP — the determinism
    /// tests compare this across thread counts.
    pub fn digest(&self) -> String {
        let mut h = fnv(FNV_OFFSET, self.samples as u64);
        h = fnv(h, self.root_seed);
        for q in [
            &self.bill,
            &self.min_only_bill,
            &self.savings_ratio,
            &self.premium_miss_rate,
            &self.violation_magnitude,
        ] {
            h = q.fold_bits(h);
        }
        h = fnv(h, self.violation_probability.to_bits());
        h = fnv(h, self.mean_hourly_violations.to_bits());
        format!("{h:016x}")
    }

    /// The summary as a JSON object (the last line of the JSONL export).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("kind".into(), Value::Str("summary".into())),
            ("samples".into(), Value::Int(self.samples as i64)),
            (
                "root_seed".into(),
                Value::Str(format!("{:#x}", self.root_seed)),
            ),
            ("bill".into(), self.bill.to_json()),
            ("min_only_bill".into(), self.min_only_bill.to_json()),
            ("savings_ratio".into(), self.savings_ratio.to_json()),
            ("premium_miss_rate".into(), self.premium_miss_rate.to_json()),
            (
                "violation_magnitude".into(),
                self.violation_magnitude.to_json(),
            ),
            (
                "violation_probability".into(),
                Value::Float(self.violation_probability),
            ),
            (
                "mean_hourly_violations".into(),
                Value::Float(self.mean_hourly_violations),
            ),
            ("digest".into(), Value::Str(self.digest())),
        ])
    }

    /// Renders the summary as the ASCII table the CLI prints.
    pub fn render_table(&self) -> String {
        let money = |q: &Quantiles| -> Vec<String> {
            [q.p50, q.p95, q.p99, q.mean, q.min, q.max]
                .iter()
                .map(|&v| table::dollars(v))
                .collect()
        };
        let pct = |q: &Quantiles| -> Vec<String> {
            [q.p50, q.p95, q.p99, q.mean, q.min, q.max]
                .iter()
                .map(|&v| table::percent(v))
                .collect()
        };
        let row = |name: &str, mut cells: Vec<String>| -> Vec<String> {
            let mut r = vec![name.to_string()];
            r.append(&mut cells);
            r
        };
        let rows = vec![
            row("capper bill", money(&self.bill)),
            row("min-only bill", money(&self.min_only_bill)),
            row("savings ratio", pct(&self.savings_ratio)),
            row("premium miss rate", pct(&self.premium_miss_rate)),
            row("violation magnitude", money(&self.violation_magnitude)),
        ];
        let mut out = table::render_table(
            &["metric", "P50", "P95", "P99", "mean", "min", "max"],
            &rows,
        );
        out.push_str(&format!(
            "samples: {}   budget-violation probability: {}   mean hourly violations: {:.2}\n",
            self.samples,
            table::percent(self.violation_probability),
            self.mean_hourly_violations,
        ));
        out
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds 32-bit halves, unlike `billcap_core`'s byte-wise FNV-1a: the golden digests pin its bits.
pub(crate) fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for shift in [0u32, 32] {
        h = (h ^ ((x >> shift) & 0xffff_ffff)).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Renders samples plus summary as JSONL: one `{"kind":"sample",...}`
/// line per sample followed by one `{"kind":"summary",...}` line.
pub fn to_jsonl(samples: &[RiskSample], summary: &RiskSummary) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&s.to_json().render());
        out.push('\n');
    }
    out.push_str(&summary.to_json().render());
    out.push('\n');
    out
}

impl RiskSample {
    /// The sample as a JSON object (one JSONL line).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("kind".into(), Value::Str("sample".into())),
            ("index".into(), Value::Int(self.index as i64)),
            ("seed".into(), Value::Str(format!("{:#x}", self.seed))),
            ("capper_bill".into(), Value::Float(self.capper_bill)),
            ("violates_budget".into(), Value::Bool(self.violates_budget)),
            (
                "violation_magnitude".into(),
                Value::Float(self.violation_magnitude),
            ),
            (
                "hourly_violations".into(),
                Value::Int(self.hourly_violations as i64),
            ),
            (
                "premium_miss_rate".into(),
                Value::Float(self.premium_miss_rate),
            ),
            (
                "premium_throughput".into(),
                Value::Float(self.premium_throughput),
            ),
            (
                "ordinary_throughput".into(),
                Value::Float(self.ordinary_throughput),
            ),
            ("min_only_bill".into(), Value::Float(self.min_only_bill)),
            ("savings_ratio".into(), Value::Float(self.savings_ratio)),
        ])
    }
}

/// The Monte-Carlo risk engine. See the module docs for the sampling
/// model and the determinism contract.
#[derive(Debug, Clone)]
pub struct RiskEngine {
    config: RiskConfig,
}

impl RiskEngine {
    /// Creates an engine; panics on zero samples.
    pub fn new(config: RiskConfig) -> Self {
        assert!(config.samples > 0, "risk run needs at least one sample");
        Self { config }
    }

    /// The run configuration.
    pub fn config(&self) -> &RiskConfig {
        &self.config
    }

    /// Runs the configured number of samples with [`SeedStream`]-derived
    /// seeds and aggregates them.
    pub fn run(&self) -> Result<(Vec<RiskSample>, RiskSummary), CoreError> {
        let stream = SeedStream::new(self.config.root_seed);
        let seeds: Vec<u64> = (0..self.config.samples as u64)
            .map(|i| stream.seed(i))
            .collect();
        self.run_with_seeds(&seeds)
    }

    /// Runs one sample per entry of `seeds` (exposed for the degenerate
    /// determinism tests — e.g. all-identical seeds must yield identical
    /// samples).
    pub fn run_with_seeds(
        &self,
        seeds: &[u64],
    ) -> Result<(Vec<RiskSample>, RiskSummary), CoreError> {
        assert!(!seeds.is_empty(), "risk run needs at least one seed");
        let cfg = &self.config;
        let threads = if cfg.threads == 0 {
            billcap_rt::num_threads()
        } else {
            cfg.threads
        };
        let horizon = if cfg.hours == 0 { 30 * 24 } else { cfg.hours };
        let base_system = DataCenterSystem::paper_system(cfg.policy);
        let schedule = cfg.schedule.build(&base_system, horizon, cfg.root_seed);
        let sched = schedule.as_ref();

        let indexed: Vec<(usize, u64)> = seeds.iter().copied().enumerate().collect();
        let mut run_span = billcap_obs::span("risk_run");
        let samples = try_par_map_init_threads(
            &indexed,
            threads,
            MonthScratch::new,
            |scratch, &(index, seed)| run_sample(cfg, sched, index, seed, scratch),
        )?;
        if billcap_obs::enabled() {
            billcap_obs::counter("sim.risk.samples", samples.len() as u64);
        }
        let summary = RiskSummary::from_samples(&samples, cfg.root_seed);
        run_span.field("samples", samples.len() as f64);
        run_span.field("p99_bill", summary.bill.p99);
        Ok((samples, summary))
    }
}

/// Simulates one perturbed sample: capper and Min-Only (Avg) on the same
/// inputs, sharing the worker's scratch.
fn run_sample(
    cfg: &RiskConfig,
    schedule: Option<&CapSchedule>,
    index: usize,
    seed: u64,
    scratch: &mut MonthScratch,
) -> Result<RiskSample, CoreError> {
    let scenario = sample_scenario(cfg, seed);
    let capper = run_month_scratch(
        &scenario,
        Strategy::CostCapping,
        cfg.monthly_budget,
        false,
        schedule,
        scratch,
    )?;
    let min_only = run_month_scratch(
        &scenario,
        Strategy::MinOnlyAvg,
        None,
        false,
        schedule,
        scratch,
    )?;

    let capper_bill = capper.total_cost();
    let min_only_bill = min_only.total_cost();
    let misses = capper
        .hours
        .iter()
        .filter(|h| h.premium_served < h.premium_offered * (1.0 - 1e-6))
        .count();
    let savings_ratio = if min_only_bill > 0.0 {
        (min_only_bill - capper_bill) / min_only_bill
    } else {
        0.0
    };
    Ok(RiskSample {
        index,
        seed,
        capper_bill,
        violates_budget: capper.violates_monthly_budget(),
        violation_magnitude: capper.violation_magnitude(),
        hourly_violations: capper.hourly_violations(),
        premium_miss_rate: misses as f64 / capper.hours.len().max(1) as f64,
        premium_throughput: capper.premium_throughput(),
        ordinary_throughput: capper.ordinary_throughput(),
        min_only_bill,
        savings_ratio,
    })
}

// The sampling model's widths. They are conservative: even a
// jittered-up sample with an extra flash crowd on top of a scheduled
// derate must keep premium demand within deliverable capacity (step 1
// errors out otherwise, which fails the whole run by design).

/// Relative half-width of the per-sample perturbation of the mean
/// workload [`Scenario::MEAN_RATE`] (0.04 = ±4 %).
const WORKLOAD_JITTER: f64 = 0.04;
/// Absolute half-width of the per-sample growth-trend perturbation.
const GROWTH_JITTER: f64 = 0.01;
/// Probability that a sample gets one extra flash crowd on top of the
/// two the Wikipedia-like trace always carries.
const FLASH_PROB: f64 = 0.25;
/// Relative half-width of the per-site background-demand mean
/// perturbation.
const BACKGROUND_JITTER: f64 = 0.05;
/// Relative half-width of the predictor error, the distortion of the
/// budgeting history ([`distort_history`]).
const PREDICTOR_ERROR: f64 = 0.05;

/// A uniform draw in `[-1, 1]`.
fn unit(rng: &mut Xoshiro256pp) -> f64 {
    rng.random::<f64>() * 2.0 - 1.0
}

/// The budgeting history a predictor with relative error `amplitude`
/// hands the budgeter: each hour's rate times `1 + amplitude·u`, with
/// `u` uniform in `[-1, 1]` from the `seed ^ 0xbad5eed` stream and the
/// factor floored at 0.05, so no rate changes sign. At amplitude 0
/// every factor is exactly 1 and the history comes back bit for bit.
pub(crate) fn distort_history(history: &HourlyTrace, amplitude: f64, seed: u64) -> HourlyTrace {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xbad5eed);
    HourlyTrace::new(
        history
            .values()
            .iter()
            .map(|&v| v * (1.0 + amplitude * unit(&mut rng)).max(0.05))
            .collect(),
    )
}

/// Builds the perturbed scenario for one sample seed.
///
/// The draw schedule is fixed: the flash-crowd variates are drawn
/// whether a surge is added or not, so no perturbation shifts the
/// randomness seen by the others.
fn sample_scenario(cfg: &RiskConfig, seed: u64) -> Scenario {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let u_rate = unit(&mut rng);
    let u_growth = unit(&mut rng);
    let u_flash = rng.random::<f64>();
    let u_flash_start = rng.random::<f64>();
    let u_flash_mag = rng.random::<f64>();
    let u_flash_dur = rng.random::<f64>();

    let system = DataCenterSystem::paper_system(cfg.policy);
    let mean_rate = Scenario::MEAN_RATE * (1.0 + WORKLOAD_JITTER * u_rate);
    let mut trace_cfg = TraceConfig::wikipedia_like(mean_rate, seed);
    trace_cfg.growth = (trace_cfg.growth + GROWTH_JITTER * u_growth).max(0.0);
    if u_flash < FLASH_PROB {
        // A third, milder surge somewhere in the evaluation month. The
        // magnitude ceiling (1.15) keeps premium demand deliverable even
        // when the surge lands on the built-in flash crowds under a
        // derated cap schedule.
        let eval_start = 31 * 24;
        let duration_hours = 2 + (u_flash_dur * 4.0) as usize;
        let span = 30 * 24 - duration_hours;
        trace_cfg.flash_crowds.push(FlashCrowd {
            start_hour: eval_start + (u_flash_start * span as f64) as usize,
            magnitude: 1.05 + 0.10 * u_flash_mag,
            duration_hours,
        });
    }
    let (history, workload) = TraceGenerator::new(trace_cfg).generate_two_months();

    let horizon = if cfg.hours == 0 {
        workload.len()
    } else {
        cfg.hours
    };
    let background = (0..system.len())
        .map(|i| {
            let mut bg = BackgroundDemand::reco_like(i, seed);
            bg.mean_mw *= 1.0 + BACKGROUND_JITTER * unit(&mut rng);
            bg.generate(horizon)
        })
        .collect();

    // Predictor error: the budgeter plans from a distorted history, as in
    // the prediction-error ablation (experiments.rs).
    let history = distort_history(&history, PREDICTOR_ERROR, seed);

    // The background is generated at the horizon already; the cut
    // brings the workload to it.
    Scenario {
        system,
        history,
        workload,
        background,
        split: CustomerSplit::paper_default(),
    }
    .first_hours(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(samples: usize) -> RiskConfig {
        RiskConfig {
            samples,
            hours: 48,
            monthly_budget: Some(Scenario::STRINGENT_BUDGET * 48.0 / 720.0),
            ..RiskConfig::default()
        }
    }

    fn assert_samples_bitwise_equal(a: &[RiskSample], b: &[RiskSample]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.capper_bill.to_bits(), y.capper_bill.to_bits());
            assert_eq!(x.min_only_bill.to_bits(), y.min_only_bill.to_bits());
            assert_eq!(x.savings_ratio.to_bits(), y.savings_ratio.to_bits());
            assert_eq!(
                x.violation_magnitude.to_bits(),
                y.violation_magnitude.to_bits()
            );
            assert_eq!(x.hourly_violations, y.hourly_violations);
            assert_eq!(x.violates_budget, y.violates_budget);
        }
    }

    #[test]
    fn schedule_spec_parsing() {
        assert_eq!(ScheduleSpec::parse("none").unwrap(), ScheduleSpec::Flat);
        assert_eq!(ScheduleSpec::parse("flat").unwrap(), ScheduleSpec::Flat);
        assert_eq!(
            ScheduleSpec::parse("derate").unwrap(),
            ScheduleSpec::Derate { depth: 0.3 }
        );
        assert_eq!(
            ScheduleSpec::parse("derate:0.15").unwrap(),
            ScheduleSpec::Derate { depth: 0.15 }
        );
        assert!(ScheduleSpec::parse("derate:1.5").is_err());
        assert!(ScheduleSpec::parse("derate:x").is_err());
        assert!(ScheduleSpec::parse("bogus").is_err());
    }

    #[test]
    fn distort_history_matches_both_former_clamps() {
        let seed = 42;
        let history = Scenario::paper_default(1, seed).history;
        let bits = |t: &HourlyTrace| t.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&distort_history(&history, 0.0, seed)), bits(&history));
        // Flooring the factor or the product gives the same bits: on
        // rates near 1e8 with amplitudes up to 0.5 neither floor fires.
        for a in [0.05, 0.1, 0.25, 0.5] {
            let former = |floor_product: bool| {
                let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xbad5eed);
                let values = history.values().iter().map(|&v| {
                    let u = rng.random::<f64>() * 2.0 - 1.0;
                    if floor_product {
                        (v * (1.0 + a * u)).max(0.05)
                    } else {
                        v * (1.0 + a * u).max(0.05)
                    }
                });
                values.map(f64::to_bits).collect::<Vec<_>>()
            };
            let got = bits(&distort_history(&history, a, seed));
            assert_eq!(got, former(false), "amplitude {a}");
            assert_eq!(got, former(true), "amplitude {a}");
            assert_ne!(got, bits(&history), "amplitude {a}");
        }
    }

    #[test]
    fn quantiles_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let q = Quantiles::from_values(&values);
        assert_eq!(q.p50, 50.0);
        assert_eq!(q.p95, 95.0);
        assert_eq!(q.p99, 99.0);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.max, 100.0);
        assert!((q.mean - 50.5).abs() < 1e-12);
        // Degenerate single-value set: every statistic collapses to it.
        let one = Quantiles::from_values(&[7.5]);
        assert_eq!(one.p50, 7.5);
        assert_eq!(one.p99, 7.5);
        assert_eq!(one.mean, 7.5);
    }

    #[test]
    fn thread_count_does_not_change_the_distribution() {
        let mut cfg = quick_config(4);
        cfg.threads = 1;
        let (s1, sum1) = RiskEngine::new(cfg.clone()).run().unwrap();
        cfg.threads = 3;
        let (s3, sum3) = RiskEngine::new(cfg).run().unwrap();
        assert_samples_bitwise_equal(&s1, &s3);
        assert_eq!(sum1.digest(), sum3.digest());
    }

    #[test]
    fn identical_seeds_give_identical_samples() {
        let engine = RiskEngine::new(quick_config(3));
        let (samples, summary) = engine.run_with_seeds(&[99, 99, 99]).unwrap();
        assert_eq!(
            samples[0].capper_bill.to_bits(),
            samples[1].capper_bill.to_bits()
        );
        assert_eq!(
            samples[1].capper_bill.to_bits(),
            samples[2].capper_bill.to_bits()
        );
        assert_eq!(summary.bill.min.to_bits(), summary.bill.max.to_bits());
    }

    #[test]
    fn samples_actually_differ_across_seeds() {
        let mut cfg = quick_config(3);
        cfg.threads = 1;
        let (samples, _) = RiskEngine::new(cfg).run().unwrap();
        assert!(
            samples[0].capper_bill != samples[1].capper_bill
                || samples[1].capper_bill != samples[2].capper_bill,
            "perturbations had no effect on the bill"
        );
        for s in &samples {
            assert!(s.capper_bill > 0.0);
            assert!(s.min_only_bill > 0.0);
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let mut cfg = quick_config(2);
        cfg.threads = 1;
        let (samples, summary) = RiskEngine::new(cfg).run().unwrap();
        let jsonl = to_jsonl(&samples, &summary);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = Value::parse(line).expect("line parses as JSON");
            assert!(v.get("kind").is_some());
        }
        let last = Value::parse(lines[2]).unwrap();
        assert_eq!(last.get("kind").unwrap().as_str(), Some("summary"));
        assert_eq!(
            last.get("digest").unwrap().as_str(),
            Some(summary.digest().as_str())
        );
        let table = summary.render_table();
        assert!(table.contains("capper bill"));
        assert!(table.contains("P99"));
    }

    #[test]
    fn derate_schedule_changes_the_bill_distribution() {
        let mut flat = quick_config(2);
        flat.threads = 1;
        let mut derated = flat.clone();
        derated.schedule = ScheduleSpec::Derate { depth: 0.25 };
        let (a, _) = RiskEngine::new(flat).run().unwrap();
        let (b, _) = RiskEngine::new(derated).run().unwrap();
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.capper_bill != y.capper_bill),
            "derating the caps left every sample's bill unchanged"
        );
    }
}
