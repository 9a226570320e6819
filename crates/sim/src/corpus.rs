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
//!
//! A digest says that a month moved, not where. [`run_corpus`] can also
//! dump every hour's folded values as one JSONL line
//! (`billcap corpus --dump FILE`), and [`diff_dumps`] compares two dumps
//! value by value (`billcap corpus-diff OLD NEW`): it names each moved
//! hour and field, old → new, with the relative change.

use crate::metrics::{HourRecord, MonthlyReport};
use crate::risk::{fnv, FNV_OFFSET};
use crate::runner::{run_month_scratch, MonthScratch, Strategy};
use crate::scenario::Scenario;
use billcap_core::{CapSchedule, CoreError, HourOutcome};
use billcap_obs::json::Value;
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
        self.simulate().map(|report| self.digest(&report))
    }

    /// The month's Cost Capping report.
    fn simulate(&self) -> Result<MonthlyReport, CoreError> {
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
        run_month_scratch(
            &scenario,
            Strategy::CostCapping,
            self.budget,
            false,
            schedule.as_ref(),
            &mut MonthScratch::new(),
        )
    }

    fn digest(&self, report: &MonthlyReport) -> MonthDigest {
        // Every Cost Capping hour has an outcome; the "none" tag falls
        // outside the three slots.
        let mut outcomes = [0usize; 3];
        for hour in &report.hours {
            if let Some(slot) = outcomes.get_mut(outcome_tag(hour.outcome) as usize) {
                *slot += 1;
            }
        }
        MonthDigest {
            month: *self,
            outcomes,
            digest: month_digest(report),
        }
    }

    fn caps(&self) -> &'static str {
        if self.derated {
            "derated"
        } else {
            "flat"
        }
    }

    /// Appends one JSONL dump line per hour of `report`: the month, the
    /// hour, then every value [`month_digest`] folds, under the names
    /// [`diff_dumps`] reads.
    fn dump_into(&self, report: &MonthlyReport, out: &mut Vec<u8>) {
        let opt = |x: Option<f64>| x.map_or(Value::Null, Value::Float);
        let arr = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| Value::Float(x)).collect());
        for hour in &report.hours {
            let HourRecord {
                realized_cost,
                believed_cost,
                ordinary_served,
                hourly_budget,
                ..
            } = *hour;
            let outcome = outcome_name(hour.outcome).map_or(Value::Null, |n| Value::Str(n.into()));
            let fields = [
                ("policy", Value::Int(self.policy as i64)),
                ("seed", Value::Int(self.seed as i64)),
                ("budget", opt(self.budget)),
                ("caps", Value::Str(self.caps().into())),
                ("hour", Value::Int(hour.hour as i64)),
                ("outcome", outcome),
                ("realized_cost", Value::Float(realized_cost)),
                ("believed_cost", Value::Float(believed_cost)),
                ("ordinary_served", Value::Float(ordinary_served)),
                ("hourly_budget", opt(hourly_budget)),
                ("lambda", arr(&hour.lambda)),
                ("power_mw", arr(&hour.power_mw)),
                ("price", arr(&hour.price)),
            ];
            Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect()).render_into(out);
            out.push(b'\n');
        }
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
        let caps = m.caps();
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
/// month, newline-terminated, in [`CorpusMonth::all`] order. With
/// `dump`, it also returns every hour's JSONL dump line in the same
/// order: 720 lines per month.
pub fn run_corpus(dump: bool) -> Result<(String, Option<Vec<u8>>), CoreError> {
    let months = try_par_map(&CorpusMonth::all(), |month| -> Result<_, CoreError> {
        let report = month.simulate()?;
        let mut lines = Vec::new();
        if dump {
            month.dump_into(&report, &mut lines);
        }
        Ok((month.digest(&report), lines))
    })?;
    let digests = months.iter().map(|(d, _)| format!("{d}\n")).collect();
    let lines = dump.then(|| months.into_iter().flat_map(|(_, lines)| lines).collect());
    Ok((digests, lines))
}

fn outcome_tag(outcome: Option<HourOutcome>) -> u64 {
    match outcome {
        Some(HourOutcome::WithinBudget) => 0,
        Some(HourOutcome::Throttled) => 1,
        Some(HourOutcome::PremiumOverride) => 2,
        None => 3,
    }
}

/// The outcome's name in a dump line, as the digest lines spell it.
fn outcome_name(outcome: Option<HourOutcome>) -> Option<&'static str> {
    match outcome? {
        HourOutcome::WithinBudget => Some("within"),
        HourOutcome::Throttled => Some("throttled"),
        HourOutcome::PremiumOverride => Some("override"),
    }
}

/// A dump line's fields that name its hour; two dumps must list the same
/// hours in the same order.
const DUMP_KEYS: [&str; 5] = ["policy", "seed", "budget", "caps", "hour"];

/// A dump line's decision fields, in the order [`CorpusDiff`] counts
/// them: the outcome, four scalars, then three per-site arrays.
const DUMP_FIELDS: [&str; 8] = [
    "outcome",
    "realized_cost",
    "believed_cost",
    "ordinary_served",
    "hourly_budget",
    "lambda",
    "power_mw",
    "price",
];

/// One decision value that differs between two dumps.
#[derive(Debug, Clone)]
struct MovedValue {
    /// `policy=… seed=… budget=… caps=… hour=…`, as the digest lines
    /// name a month.
    hour: String,
    /// The hour's outcome in the new dump.
    outcome: String,
    /// The field, with the site index for a per-site array (`lambda[1]`).
    field: String,
    old: String,
    new: String,
    /// `|new − old| / |old|` when both values are numbers.
    rel: Option<f64>,
}

/// Per decision field: values moved and the largest relative change.
#[derive(Debug, Default)]
struct FieldMoves {
    moved: usize,
    largest: Option<MovedValue>,
}

/// The values that differ between two corpus dumps ([`diff_dumps`]).
/// Its [`Display`](fmt::Display) form is a count and the largest
/// relative change per field, then the table of every moved value (so
/// `| head` keeps the summary).
#[derive(Debug, Default)]
pub struct CorpusDiff {
    hours: usize,
    moved_hours: usize,
    moved_months: usize,
    moved_values: usize,
    /// Every moved value, in dump order.
    rows: Vec<MovedValue>,
    /// One entry per [`DUMP_FIELDS`] name.
    fields: [FieldMoves; DUMP_FIELDS.len()],
}

impl CorpusDiff {
    /// Whether no decision value moved.
    fn is_empty(&self) -> bool {
        self.moved_values == 0
    }

    /// Counts a moved value and keeps it. A field's largest move is the
    /// first one with the largest relative change; a move with none (an
    /// outcome, or a null budget) stands only until a numeric move comes.
    fn record(&mut self, field: usize, moved: MovedValue) {
        self.moved_values += 1;
        let f = &mut self.fields[field];
        f.moved += 1;
        let larger = match (&f.largest, moved.rel) {
            (None, _) => true,
            (Some(best), Some(rel)) => best.rel.is_none_or(|b| rel > b),
            (Some(_), None) => false,
        };
        if larger {
            f.largest = Some(moved.clone());
        }
        self.rows.push(moved);
    }
}

impl fmt::Display for CorpusDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "moved: {} values in {} of {} hours, {} months",
            self.moved_values, self.moved_hours, self.hours, self.moved_months
        )?;
        if self.is_empty() {
            return Ok(());
        }
        let rel = |r: Option<f64>| r.map_or("-".into(), |r| format!("{r:.3e}"));
        writeln!(f, "\nfield | moved | largest rel | at")?;
        for (name, moves) in DUMP_FIELDS.iter().zip(&self.fields) {
            match &moves.largest {
                Some(m) => writeln!(
                    f,
                    "{name} | {} | {} | {} {}: {} -> {}",
                    moves.moved,
                    rel(m.rel),
                    m.hour,
                    m.field,
                    m.old,
                    m.new
                )?,
                None => writeln!(f, "{name} | 0 | - |")?,
            }
        }
        writeln!(f, "\nhour | outcome | field | old -> new | rel")?;
        for m in &self.rows {
            writeln!(
                f,
                "{} | {} | {} | {} -> {} | {}",
                m.hour,
                m.outcome,
                m.field,
                m.old,
                m.new,
                rel(m.rel)
            )?;
        }
        Ok(())
    }
}

/// Compares two corpus dumps ([`run_corpus`] with `dump`) hour by hour
/// and value by value, by bit pattern. Both must list the same hours in
/// the same order.
pub fn diff_dumps(old: &str, new: &str) -> Result<CorpusDiff, String> {
    let mut diff = CorpusDiff::default();
    let (mut old_lines, mut new_lines) = (old.lines(), new.lines());
    // The month (the first four `DUMP_KEYS` values) of the last moved hour.
    let mut month_moved = None;
    loop {
        let (o, n) = match (old_lines.next(), new_lines.next()) {
            (None, None) => return Ok(diff),
            (Some(o), Some(n)) => (o, n),
            _ => {
                return Err(format!(
                    "the dumps differ in length after {} hours",
                    diff.hours
                ))
            }
        };
        diff.hours += 1;
        let line = diff.hours;
        let parse = |text: &str, which: &str| {
            Value::parse(text).map_err(|e| format!("{which} line {line}: {e}"))
        };
        let (o, n) = (parse(o, "old")?, parse(n, "new")?);
        let key = |v: &Value| DUMP_KEYS.map(|k| v.get(k).cloned());
        let hour_key = key(&n);
        if key(&o) != hour_key {
            return Err(format!("line {line}: the dumps name different hours"));
        }
        let hour = hour_label(&n).ok_or_else(|| format!("line {line}: no month or hour"))?;
        let moved_before = diff.moved_values;
        for (field, name) in DUMP_FIELDS.iter().enumerate() {
            let (ov, nv) = (o.get(name), n.get(name));
            let pairs: Vec<(String, Option<&Value>, Option<&Value>)> =
                match (ov.and_then(Value::as_arr), nv.and_then(Value::as_arr)) {
                    (Some(oa), Some(na)) => (0..oa.len().max(na.len()))
                        .map(|i| (format!("{name}[{i}]"), oa.get(i), na.get(i)))
                        .collect(),
                    _ => vec![(name.to_string(), ov, nv)],
                };
            for (label, ov, nv) in pairs {
                if same_bits(ov, nv) {
                    continue;
                }
                let moved = MovedValue {
                    hour: hour.clone(),
                    outcome: shown(n.get("outcome")),
                    field: label,
                    old: shown(ov),
                    new: shown(nv),
                    rel: relative_change(ov, nv),
                };
                diff.record(field, moved);
            }
        }
        if diff.moved_values > moved_before {
            diff.moved_hours += 1;
            let [policy, seed, budget, caps, _] = hour_key;
            let month = Some([policy, seed, budget, caps]);
            if month_moved != month {
                diff.moved_months += 1;
                month_moved = month;
            }
        }
    }
}

/// `policy=… seed=… budget=… caps=… hour=…` for a dump line.
fn hour_label(v: &Value) -> Option<String> {
    let budget = match v.get("budget")? {
        Value::Null => "none".to_string(),
        b => format!("{}", b.as_f64()?),
    };
    Some(format!(
        "policy={} seed={} budget={budget} caps={} hour={}",
        v.get("policy")?.as_u64()?,
        v.get("seed")?.as_u64()?,
        v.get("caps")?.as_str()?,
        v.get("hour")?.as_u64()?
    ))
}

/// Whether two dump values are the same to the bit: floats compare by
/// bit pattern, so `0.0` and `-0.0` differ.
fn same_bits(a: Option<&Value>, b: Option<&Value>) -> bool {
    match (a, b) {
        (Some(Value::Float(x)), Some(Value::Float(y))) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn shown(v: Option<&Value>) -> String {
    match v {
        None => "absent".into(),
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Float(x)) => format!("{x:?}"),
        Some(v) => v.render(),
    }
}

fn relative_change(old: Option<&Value>, new: Option<&Value>) -> Option<f64> {
    let (o, n) = (old?.as_f64()?, new?.as_f64()?);
    Some(if o == 0.0 {
        if n == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((n - o) / o).abs()
    })
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

    fn three_hours() -> MonthlyReport {
        let hour = |h: usize| HourRecord {
            hour: h,
            offered: 1e8,
            premium_offered: 8e7,
            ordinary_offered: 2e7,
            premium_served: 8e7,
            ordinary_served: 1.5e7 + h as f64,
            realized_cost: 1800.25 + h as f64,
            believed_cost: 1799.5,
            hourly_budget: (h != 1).then_some(2000.0),
            outcome: Some(HourOutcome::WithinBudget),
            lambda: vec![3e7, 0.1 + 0.2, 6e7],
            power_mw: vec![120.5, 0.0, 240.125],
            price: vec![30.0, 45.0, 60.0],
            trace: None,
        };
        MonthlyReport {
            strategy_name: "Cost Capping".into(),
            monthly_budget: Some(Scenario::STRINGENT_BUDGET),
            hours: (0..3).map(hour).collect(),
        }
    }

    fn dump(month: &CorpusMonth, report: &MonthlyReport) -> String {
        let mut out = Vec::new();
        month.dump_into(report, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn a_one_ulp_move_is_named_and_identical_dumps_diff_empty() {
        let month = CorpusMonth::all()[0];
        let old = three_hours();
        let old_dump = dump(&month, &old);
        assert_eq!(old_dump.lines().count(), 3);

        let same = diff_dumps(&old_dump, &old_dump).unwrap();
        assert!(same.is_empty());
        assert_eq!(
            same.to_string(),
            "moved: 0 values in 0 of 3 hours, 0 months\n"
        );

        let mut new = old.clone();
        let x = &mut new.hours[2].lambda[1];
        *x = f64::from_bits(x.to_bits() + 1);
        assert_ne!(month.digest(&old).digest, month.digest(&new).digest);
        let diff = diff_dumps(&old_dump, &dump(&month, &new)).unwrap();
        assert!(!diff.is_empty());
        assert_eq!(
            (diff.moved_values, diff.moved_hours, diff.moved_months),
            (1, 1, 1)
        );
        let row = &diff.rows[0];
        assert_eq!(row.hour, "policy=1 seed=42 budget=1500000 caps=flat hour=2");
        assert_eq!(row.field, "lambda[1]");
        assert_eq!(
            (row.old.as_str(), row.new.as_str()),
            ("0.30000000000000004", "0.3000000000000001")
        );
        assert!(row.rel.unwrap() > 0.0 && row.rel.unwrap() < 1e-15);
        let text = diff.to_string();
        assert!(
            text.contains(
                "hour=2 | within | lambda[1] | 0.30000000000000004 -> 0.3000000000000001"
            ),
            "{text}"
        );
        assert!(text.contains("\nlambda | 1 | "), "{text}");
        assert!(text.contains("\nprice | 0 | - |"), "{text}");
    }

    #[test]
    fn the_diff_names_outcome_and_budget_moves_and_lists_every_one() {
        let month = CorpusMonth::all()[0];
        let old = three_hours();
        let mut new = old.clone();
        new.hours[0].outcome = Some(HourOutcome::PremiumOverride);
        new.hours[1].hourly_budget = Some(2000.0);
        new.hours[1].realized_cost = 0.0;
        new.hours[2].hourly_budget = Some(2500.0);
        let diff = diff_dumps(&dump(&month, &old), &dump(&month, &new)).unwrap();
        assert_eq!(
            (diff.moved_values, diff.moved_hours, diff.moved_months),
            (4, 3, 1)
        );
        let fields: Vec<&str> = diff.rows.iter().map(|r| r.field.as_str()).collect();
        assert_eq!(
            fields,
            ["outcome", "realized_cost", "hourly_budget", "hourly_budget"]
        );
        assert_eq!(
            (diff.rows[0].old.as_str(), diff.rows[0].new.as_str()),
            ("within", "override")
        );
        assert_eq!(diff.rows[0].rel, None);
        // The null -> 2000 budget move comes first and has no relative
        // change; the later numeric move replaces it as the largest.
        assert_eq!(
            (diff.rows[2].old.as_str(), diff.rows[2].rel),
            ("null", None)
        );
        let budget = diff.fields[4].largest.as_ref().unwrap();
        assert_eq!((budget.old.as_str(), budget.rel), ("2000.0", Some(0.25)));
        assert_eq!(diff.fields[1].largest.as_ref().unwrap().rel, Some(1.0));
        let text = diff.to_string();
        assert!(text.contains("\nhourly_budget | 2 | 2.500e-1 | "), "{text}");
        assert!(
            text.contains("hour=1 | within | hourly_budget | null -> 2000.0 | -"),
            "{text}"
        );
        assert!(
            text.find("\nfield | moved").unwrap() < text.find("\nhour | outcome").unwrap(),
            "{text}"
        );
    }

    #[test]
    fn dumps_of_different_hours_do_not_diff() {
        let months = CorpusMonth::all();
        let report = three_hours();
        let a = dump(&months[0], &report);
        let b = dump(&months[1], &report);
        assert!(diff_dumps(&a, &b).unwrap_err().contains("different hours"));
        let short: String = a.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(diff_dumps(&a, &short).unwrap_err().contains("length"));
        assert!(diff_dumps("{", "{").unwrap_err().starts_with("old line 1"));
    }
}
