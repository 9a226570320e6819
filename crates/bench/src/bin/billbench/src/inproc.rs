//! The in-process workloads: a month of bills, and a Monte-Carlo risk
//! run under a derated cap schedule. No serve code runs on these paths.

use crate::calib::Speeds;
use crate::ledger::record_traced;
use crate::report::Outcome;
use crate::stats::{median, rank, sorted};
use crate::RunArgs;
use billcap_core::HourOutcome;
use billcap_obs::{Stopwatch, TraceSnapshot};
use billcap_sim::{
    run_month_fresh, run_month_scratch, MonthScratch, RiskConfig, RiskEngine, Scenario,
    ScheduleSpec, Strategy,
};
use std::cell::RefCell;
use std::hint::black_box;

/// Timed set-ups per run; `setup_s` is their median. A set-up takes
/// tens of milliseconds, so one descheduling of the vCPU moves it by
/// half, and whatever slows one set-up lasts seconds: the set-ups are
/// spread over the run rather than made back to back.
const SETUPS: usize = 20;
/// Repetitions in the traced pass at most, a multiple of both input
/// counts below so every input is traced equally often.
const TRACED_REPS: usize = 24;
/// Outcome split (within budget, throttled, premium override) of the
/// month at seed 42, which the seed-42 run checks.
const SEED_42_SPLIT: [usize; 3] = [654, 28, 38];

/// Scenario seeds per month run and root seeds per risk run
/// (`seed..seed + 8` each). Repetitions cycle through them, so a
/// run's timing averages over several inputs instead of resting on one:
/// a risk run's cost varies by a fifth from one root seed to the next.
const MONTH_SCENARIOS: u64 = 8;
const RISK_ROOTS: u64 = 8;

/// Risk workload shape: samples × hours, $350 k budget, caps derated by
/// up to 25% each afternoon.
const RISK_SAMPLES: usize = 4;
const RISK_HOURS: usize = 168;
const RISK_BUDGET: f64 = 350_000.0;
const RISK_DERATE: f64 = 0.25;

/// `run_month_scratch` over the 720-hour Policy-1 month at the
/// stringent budget, with a fresh `MonthScratch` per repetition as
/// `billcap simulate-month` does. Every repetition's hourly costs must
/// equal, bit for bit, a `run_month_fresh` oracle of its scenario.
pub fn month_workload(a: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let budget = Some(Scenario::STRINGENT_BUDGET);
    let seeds: Vec<u64> = (0..MONTH_SCENARIOS)
        .map(|i| a.seed.wrapping_add(i))
        .collect();
    let watch = Stopwatch::start();
    let mut oracles = Vec::with_capacity(seeds.len());
    for &seed in &seeds {
        let scenario = Scenario::paper_default(1, seed);
        match run_month_fresh(&scenario, Strategy::CostCapping, budget, false, None) {
            Ok(r) => oracles.push(r),
            Err(e) => {
                o.problem(format!("oracle month for seed {seed}: {e}"));
                return o;
            }
        }
    }
    o.set("bench.oracle_s", watch.elapsed_secs());
    let mut split = [0usize; 3];
    for h in &oracles[0].hours {
        match h.outcome {
            Some(HourOutcome::WithinBudget) => split[0] += 1,
            Some(HourOutcome::Throttled) => split[1] += 1,
            Some(HourOutcome::PremiumOverride) => split[2] += 1,
            None => {}
        }
    }
    o.note(format!(
        "seed {}: outcome split {} / {} / {} (within budget / throttled / premium override)",
        a.seed, split[0], split[1], split[2]
    ));
    if a.seed == 42 && split != SEED_42_SPLIT {
        o.problem(format!(
            "seed 42 outcome split {split:?}, expected {SEED_42_SPLIT:?}"
        ));
    }
    let costs: Vec<Vec<u64>> = oracles
        .iter()
        .map(|r| r.hours.iter().map(|h| h.realized_cost.to_bits()).collect())
        .collect();
    measure(
        &mut o,
        a,
        costs[0].len() as f64,
        seeds.len(),
        || {
            Ok(seeds
                .iter()
                .map(|&s| Scenario::paper_default(1, s))
                .collect::<Vec<_>>())
        },
        |scenarios, i| {
            let k = i % scenarios.len();
            let mut scratch = MonthScratch::new();
            let report = run_month_scratch(
                black_box(&scenarios[k]),
                Strategy::CostCapping,
                budget,
                false,
                None,
                &mut scratch,
            )
            .map_err(|e| e.to_string())?;
            let got = report.hours.iter().map(|h| h.realized_cost.to_bits());
            if !got.eq(costs[k].iter().copied()) {
                return Err(format!(
                    "seed {}: hourly costs differ from the run_month_fresh oracle",
                    seeds[k]
                ));
            }
            Ok(())
        },
    );
    o
}

/// `RiskEngine` with 4 samples × 168 h under a 25% derate. Hourly cap
/// changes make the engine's model LRU rebuild structure instead of
/// syncing values.
///
/// The timed repetitions run on one thread. On the two-vCPU reference
/// machine a two-thread run's time swung between 17 and 36 ms from one
/// second to the next, as the second vCPU came and went, while one
/// thread held 30 ± 1 ms. Every repetition's summary digest must equal
/// the first one of its root seed, and after timing a two-thread run of
/// every root seed (the pool fan-out) must give that digest too, so the
/// digest's thread-count invariance is checked on every run. That run
/// comes last because the memory a second thread's allocator keeps
/// would otherwise vary the peak RSS of the timed loop by a tenth.
pub fn risk_workload(a: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let configs: Vec<RiskConfig> = (0..RISK_ROOTS)
        .map(|i| RiskConfig {
            samples: RISK_SAMPLES,
            hours: RISK_HOURS,
            threads: 1,
            root_seed: a.seed.wrapping_add(i),
            monthly_budget: Some(RISK_BUDGET),
            schedule: ScheduleSpec::Derate { depth: RISK_DERATE },
            ..RiskConfig::default()
        })
        .collect();
    let digests: RefCell<Vec<Option<String>>> = RefCell::new(vec![None; configs.len()]);
    measure(
        &mut o,
        a,
        (RISK_SAMPLES * RISK_HOURS) as f64,
        configs.len(),
        || {
            Ok(configs
                .iter()
                .cloned()
                .map(RiskEngine::new)
                .collect::<Vec<_>>())
        },
        |engines, i| {
            let k = i % engines.len();
            let (_, summary) = black_box(&engines[k]).run().map_err(|e| e.to_string())?;
            let got = summary.digest();
            match &mut digests.borrow_mut()[k] {
                Some(want) if *want != got => Err(format!(
                    "root seed {}: digest {got} differs from the first repetition's {want}",
                    configs[k].root_seed
                )),
                Some(_) => Ok(()),
                first @ None => {
                    *first = Some(got);
                    Ok(())
                }
            }
        },
    );

    let watch = Stopwatch::start();
    // A traced run records the pool's per-worker item counts here.
    billcap_obs::reset();
    billcap_obs::set_enabled(a.trace);
    let digests = digests.into_inner();
    for (c, want) in configs.iter().zip(&digests) {
        let fanned = RiskEngine::new(RiskConfig {
            threads: 2,
            ..c.clone()
        });
        let problem = match fanned.run() {
            Ok((_, summary)) if want.as_ref() == Some(&summary.digest()) => None,
            Ok((_, summary)) => Some(format!(
                "root seed {}: two-thread digest {} differs from the one-thread {want:?}",
                c.root_seed,
                summary.digest()
            )),
            Err(e) => Some(format!("two-thread run of root seed {}: {e}", c.root_seed)),
        };
        o.absorb(
            1,
            u64::from(problem.is_some()),
            problem.into_iter().collect(),
        );
    }
    billcap_obs::set_enabled(false);
    if let Some(items) = billcap_obs::snapshot().gauges.get("rt.pool.worker_items") {
        o.set("pool.items_max", items.max);
        o.set("pool.items_min", items.min);
    }
    billcap_obs::reset();
    o.set("bench.oracle_s", watch.elapsed_secs());
    if let Some(Some(d)) = digests.first() {
        o.note(format!(
            "root seed {}: digest {d} at one and two threads",
            a.seed
        ));
    }
    o
}

/// The shared timing loop. One set-up (`build` plus one warm
/// repetition) makes the state; then repetitions `0, 1, 2, …` run back to
/// back for the run's seconds (half of them when traced, and a traced
/// pass follows), with [`SETUPS`] timed set-ups spread among them. Every
/// time is scaled to the reference machine's speed (see `calib.rs`).
fn measure<S>(
    o: &mut Outcome,
    a: &RunArgs,
    hours_per_rep: f64,
    inputs: usize,
    build: impl Fn() -> Result<S, String>,
    rep: impl Fn(&S, usize) -> Result<(), String>,
) {
    billcap_obs::set_enabled(false);
    if let Err(e) = crate::reset_peak_rss() {
        o.note(format!("{e}: peak_rss_mb includes the oracle"));
    }
    let set_up = || -> Result<(S, f64), String> {
        let watch = Stopwatch::start();
        let s = build()?;
        rep(&s, 0)?;
        Ok((s, watch.elapsed_secs()))
    };
    let state = match set_up() {
        Ok((s, _)) => s,
        Err(e) => {
            o.absorb(1, 1, vec![format!("set-up: {e}")]);
            return;
        }
    };
    let timed_set_up = || set_up().map(|(_, secs)| secs);

    // A traced run reports no set-up time and times no set-ups.
    let (secs, set_ups) = if a.trace {
        (a.seconds / 2.0, None)
    } else {
        (
            a.seconds,
            Some(&timed_set_up as &dyn Fn() -> Result<f64, String>),
        )
    };
    let untraced = repeat_for(secs, usize::MAX, &state, &rep, o, None, set_ups);
    let reps = untraced.ms.len() as u64;
    o.absorb(
        reps + untraced.setups.len() as u64,
        untraced.failed,
        Vec::new(),
    );
    if !untraced.setups.is_empty() {
        o.set("setup_s", median(&untraced.setups));
    }
    let p50 = typical_ms(&untraced.ms, inputs);
    // The p95, not the p99: a few hundred repetitions leave ten or more
    // samples beyond the p95 but only a handful beyond the p99.
    let p95 = rank(&sorted(&untraced.ms), 0.95);
    let block_rates: Vec<f64> = untraced
        .blocks
        .iter()
        .filter(|&&(n, _)| n > 0)
        .map(|&(n, ms)| hours_per_rep * n as f64 / (ms / 1e3))
        .collect();
    let rate = median(&block_rates);
    o.set("p50_ms", p50);
    o.set("latency.tail_ms", p95);
    o.set("rate_per_s", rate);
    o.set("bench.speed_factor", untraced.speed);
    o.note(format!(
        "{reps} repetitions: p50 {p50:.3} ms, p95 {p95:.3} ms, {rate:.0} decision-hours/s \
         (at reference speed; this machine ran at {:.3}x)",
        untraced.speed
    ));
    if reps < 200 {
        o.note(format!(
            "only {reps} repetitions: the p95 has fewer than ten samples beyond it"
        ));
    }

    if a.trace {
        let mut snap = TraceSnapshot::default();
        billcap_obs::reset();
        billcap_obs::set_enabled(true);
        let traced = repeat_for(
            a.seconds / 4.0,
            TRACED_REPS,
            &state,
            &rep,
            o,
            Some(&mut snap),
            None,
        );
        billcap_obs::set_enabled(false);
        o.absorb(traced.ms.len() as u64, traced.failed, Vec::new());
        o.set(
            "obs.trace_overhead_pct",
            100.0 * (typical_ms(&traced.ms, inputs) / p50 - 1.0),
        );
        let dir = a.out.join(&a.workload);
        record_traced(o, &snap, traced.ms.len() as f64, &dir, &a.workload);
    }
    match crate::peak_rss_mb() {
        Ok(mb) => o.set("peak_rss_mb", mb),
        Err(e) => o.problem(e),
    }
}

/// The typical repetition time: each input's median, averaged over the
/// inputs. Repetition `i` ran input `i % inputs`; the inputs differ in
/// cost, so one median over the mixture would jump from one input's
/// cost to another's between runs.
fn typical_ms(ms: &[f64], inputs: usize) -> f64 {
    let medians: Vec<f64> = (0..inputs.min(ms.len()))
        .map(|k| {
            median(
                &ms.iter()
                    .skip(k)
                    .step_by(inputs)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    // detlint-allow(D006): a benchmark statistic over at most eight medians, not a decision input
    medians.iter().fold(0.0, |acc, m| acc + m) / medians.len().max(1) as f64
}

/// Seconds between speed calibrations in a timing loop: the machine's
/// speed drifts over seconds, not within one. Each calibration closes a
/// block, and `rate_per_s` is the median of the blocks' throughputs, so
/// a stretch in which the vCPU was taken away moves it little.
const CALIBRATE_EVERY_S: f64 = 0.5;

/// Repetition and set-up times, at the reference speed.
struct Reps {
    /// Each repetition's time, ms.
    ms: Vec<f64>,
    /// Each block's repetitions and their total time, ms.
    blocks: Vec<(usize, f64)>,
    /// Each timed set-up's time, s.
    setups: Vec<f64>,
    failed: u64,
    /// The median speed factor measured during the loop.
    speed: f64,
}

/// Runs `rep` back to back until `secs` pass or `max_reps` ran,
/// calibrating between repetitions every [`CALIBRATE_EVERY_S`] and,
/// given `set_up`, timing [`SETUPS`] set-ups spread evenly over the
/// loop, each in a block of its own. With a trace accumulator, each
/// repetition runs inside a `rep` span and its trace is merged into
/// `trace` without the per-span events, so a traced pass holds little
/// memory.
fn repeat_for<S>(
    secs: f64,
    max_reps: usize,
    state: &S,
    rep: &impl Fn(&S, usize) -> Result<(), String>,
    o: &mut Outcome,
    mut trace: Option<&mut TraceSnapshot>,
    set_up: Option<&dyn Fn() -> Result<f64, String>>,
) -> Reps {
    let mut speeds = Speeds::default();
    let mut block = speeds.mark();
    let clock = Stopwatch::start();
    let mut next_mark = CALIBRATE_EVERY_S;
    let mut next_set_up = 0.0;
    let mut raw: Vec<(f64, usize)> = Vec::new();
    let mut setups: Vec<(f64, usize)> = Vec::new();
    let mut failed = 0;
    while raw.len() < max_reps && (raw.is_empty() || clock.elapsed_secs() < secs) {
        if let Some(set_up) = set_up.filter(|_| clock.elapsed_secs() >= next_set_up) {
            match set_up() {
                Ok(t) => setups.push((t, block)),
                Err(e) => {
                    failed += 1;
                    o.problem(format!("set-up: {e}"));
                }
            }
            block = speeds.mark();
            next_set_up += secs / SETUPS as f64;
        }
        if clock.elapsed_secs() >= next_mark {
            block = speeds.mark();
            next_mark += CALIBRATE_EVERY_S;
        }
        let watch = Stopwatch::start();
        let result = {
            let _span = billcap_obs::span("rep");
            rep(state, raw.len())
        };
        raw.push((watch.elapsed_ns() as f64 / 1e6, block));
        if let Err(e) = result {
            failed += 1;
            o.problem(e);
        }
        if let Some(acc) = trace.as_deref_mut() {
            let mut snap = billcap_obs::snapshot();
            billcap_obs::reset();
            snap.events.clear();
            acc.merge(&snap);
        }
    }
    speeds.mark();
    let ms: Vec<f64> = raw.iter().map(|&(ms, b)| ms * speeds.block(b)).collect();
    let mut blocks = vec![(0, 0.0); block + 1];
    for (&(_, b), &t) in raw.iter().zip(&ms) {
        blocks[b].0 += 1;
        blocks[b].1 += t;
    }
    Reps {
        ms,
        blocks,
        setups: setups.iter().map(|&(t, b)| t * speeds.block(b)).collect(),
        failed,
        speed: speeds.median(),
    }
}
