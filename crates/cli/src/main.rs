//! `billcap` — command-line interface to the bill-capping toolkit.
//!
//! ```text
//! billcap decide-hour --offered 6e8 --premium-frac 0.8 \
//!         --background 360,410,430 --budget 2000 [--policy 1]
//! billcap simulate-month --strategy capping [--budget 1.5e6] [--seed 42]
//!         [--policy 1] [--csv month.csv]
//! billcap derive-policies [--max-load 900] [--step 10]
//! billcap corpus
//! billcap export-trace --kind workload [--hours 720] [--seed 42]
//! billcap analyze-trace month.jsonl [--flame out.folded] [--top 5]
//! billcap diff-trace base.jsonl current.jsonl [--threshold 10]
//! billcap simulate-risk [--samples 1000] [--seed 42] [--threads 4]
//!         [--cap-schedule derate:0.3] [--hours 168] [--json risk.jsonl]
//! billcap solve-lp model.lp
//! billcap serve [--socket /tmp/billcap.sock] [--workers 4]
//!         [--metrics-stream metrics.jsonl]
//! billcap replay [--hours 168] [--check]
//! billcap watch --socket /tmp/billcap.sock [--count 10] [--interval-ms 1000]
//! billcap analyze-series metrics.jsonl [--slo "request_us.p99<=5000"]
//! billcap help
//! ```

#![forbid(unsafe_code)]

mod args;

use args::{ArgError, Args};
use billcap_core::{BillCapper, DataCenterSystem, HourOutcome};
use billcap_milp::{parse_lp, MipSolver};
use billcap_serve::{build_plan, run_replay_with, verify_replay, ServeConfig, ServerTelemetry};
use billcap_sim::corpus::run_corpus;
use billcap_sim::export::monthly_report_csv;
use billcap_sim::risk::to_jsonl;
use billcap_sim::{run_month, RiskConfig, RiskEngine, Scenario, ScheduleSpec, Strategy};
use billcap_workload::{BackgroundDemand, TemperatureModel, TraceConfig, TraceGenerator};
use std::process::ExitCode;

const HELP: &str = "\
billcap — electricity bill capping for cloud-scale data centers
(reproduction of Zhang, Wang & Wang, ICPP 2012)

USAGE:
  billcap decide-hour --offered R --premium-frac F --budget D
          [--background MW,MW,MW] [--policy 0..3] [--trace FILE]
      Decide one hour's workload dispatch for the paper's 3-site system.

  billcap simulate-month --strategy capping|min-only-avg|min-only-low
          [--budget DOLLARS] [--policy 0..3] [--seed N] [--csv FILE]
          [--hours N] [--quiet] [--trace FILE]
      Simulate the evaluation month and print the summary
      (optionally dumping the hourly series as CSV).

      With --trace FILE, solver tracing is enabled for the run and the
      merged trace (per-hour spans, B&B node counters, price-level
      histograms) is written to FILE as JSONL. With --hours N, only the
      first N hours of the month are simulated (--budget then covers
      just those hours).

  billcap simulate-risk [--samples N] [--seed N] [--threads N]
          [--cap-schedule none|derate|derate:DEPTH] [--hours N]
          [--budget DOLLARS | --uncapped] [--policy 0..3]
          [--json FILE] [--quiet]
      Monte-Carlo risk run: N perturbed-seed month simulations (workload
      level/growth jitter, extra flash crowds, background-demand shifts,
      predictor error on the budgeting history) fanned across the worker
      pool, aggregated into P50/P95/P99 bill and violation distributions
      for the capper next to the Min-Only baseline. Sample i is seeded
      from a SplitMix64 seed stream, so results are bitwise identical at
      any --threads value. With --hours N only the first N hours of each
      month run (the default budget is scaled to match); --cap-schedule
      derate:D applies an afternoon-peaked thermal derating of depth D
      to every site's power cap. --json FILE writes per-sample JSONL
      plus a summary line; --quiet prints one machine-friendly line
      (P50 P95 P99 violation-probability digest).

  billcap analyze-trace FILE [--flame OUT] [--top N]
      Reconstruct the span tree from a JSONL trace and print a profile:
      per-node call counts, inclusive/self time, the hot path, and the
      top N self-time nodes (default 5). With --flame OUT, also write
      collapsed stacks (`a;b;c N`) for flamegraph.pl / inferno.

  billcap diff-trace BASE CURRENT [--threshold PCT]
          [--count-threshold PCT] [--warn-only]
      Compare two JSONL traces: span times and histogram means gate on
      --threshold (default 10%), deterministic work counters (B&B
      nodes, LP iterations) on --count-threshold (default 0% = exact).
      Exits non-zero on regressions; --warn-only downgrades timing
      regressions (work-counter regressions still fail — they are
      deterministic, never noise).

  billcap derive-policies [--max-load MW] [--step MW]
      Derive the locational step pricing policies from the PJM
      five-bus system (the paper's Figure 1).

  billcap corpus
      Simulate the 144-month decision corpus (Cost Capping under
      policies 1-3 x seeds 42-49 x budgets $1.5M, $2.5M and none x flat
      and afternoon-derated caps) and print one line per month: its
      outcome counts and an FNV-1a digest of every hour's decision bits.
      The output must equal baselines/corpus.txt byte for byte unless a
      change moves decisions on purpose.

  billcap export-trace --kind workload|background0|background1|background2|
          temperature0|temperature1|temperature2
          [--hours N] [--seed N] [--mean-rate R]
      Print a synthetic trace as CSV.

  billcap solve-lp FILE
      Solve a CPLEX LP-format model with the built-in MILP solver.

  billcap lint-model FILE [--json]
      Statically analyze a CPLEX LP-format model without solving it:
      coefficient conditioning, loose big-M rows, broken exactly-one
      groups, duplicate/contradictory rows, dangling variables, and
      bound-propagation infeasibility proofs (codes M001–M010). Exits
      non-zero on Error-severity findings; --json emits JSONL.

  billcap lint-spec [--policy 0..3 | --synthetic N,L]
          [--premium-frac F] [--json]
      Re-derive the paper's spec invariants for a system without
      solving: step-price monotonicity, price-vector shape, budget
      weights, premium fraction, QoS reachability, cap-vs-idle power,
      site/policy pairing (codes S001–S009). Exits non-zero on
      Error-severity findings; --json emits JSONL.

  billcap serve [--socket PATH [--once]] [--workers N] [--no-cache]
          [--integral] [--metrics-stream FILE]
          [--window-requests N] [--no-telemetry]
      Run the decide-hour daemon. Clients send framed JSON requests
      (4-byte big-endian length prefix + JSON body) on stdin and read
      framed responses on stdout; with --socket PATH a Unix socket is
      served instead (--once exits after the first connection).
      Requests shard across N decision workers (default: the CPU
      count), each keeping its MILP models between requests and
      rewriting only their values. --no-cache disables the shared
      decision cache.

      The server answers in-band `{\"op\":\"metrics\"}` and
      `{\"op\":\"health\"}` control frames from the reader thread without
      occupying a decision worker. With --metrics-stream FILE, one
      metrics document is appended to FILE as JSONL every
      --window-requests requests (default 64), ready for
      `analyze-series`. --no-telemetry disables latency recording and
      window rotation (work counters are always kept).

  billcap watch --socket PATH [--count N] [--interval-ms MS] [--json]
      Attach to a running daemon and scrape its `metrics` control frame
      periodically, rendering a live table of work counters and latency
      quantiles (microseconds). --count N stops after N scrapes
      (default 0 = until the server closes the connection); --json
      prints raw metrics documents as JSONL instead of the table —
      pipe-able straight into `analyze-series`.

  billcap analyze-series FILE [--slo SPEC]
      Analyze a streamed metrics log (JSONL of per-window metrics
      documents, as written by `serve --metrics-stream` or captured by
      `watch --json`): per-window table plus totals. With
      --slo \"SERIES.QUANTILE<=THRESHOLD [over N] [allow F]\" (e.g.
      \"request_us.p99<=5000 over 12 allow 0.1\"), evaluate SLO burn
      over the windows, print a machine-readable verdict line, and exit
      non-zero when the burn exceeds the allowance.

  billcap replay [--hours N] [--seed N] [--policy 0..3] [--workers N]
          [--budget DOLLARS | --uncapped] [--no-cache] [--check]
      Fire a simulated month (default: 168 hours, the paper's stringent
      monthly budget) through an in-process decision server and report
      throughput. With --check, verify every response bitwise against
      the sequential fresh-model decisions and fail on any mismatch.

  billcap help
      Show this message.

Every decision is checked, in every build and on every command: each
MILP model is linted once, when it is built (refusing Error findings,
codes M001-M010), each solution is certified, and each hour's plan is
audited against the paper's invariants (power caps, G/G/m response
time, step-price level, budget rules, premium always served). A failed
check is an error, never a decision.

BILLCAP_TRACE=1 enables tracing, and BILLCAP_TRACE=FILE also acts as
--trace FILE. It is read once, at startup.
";

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let env = Env::parse(std::env::var("BILLCAP_TRACE").ok().as_deref());
    match run(tokens, &env) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `BILLCAP_TRACE`, read once by `main`: the only environment `billcap`
/// consults (no library crate reads any).
#[derive(Debug, Default, PartialEq)]
struct Env {
    /// `BILLCAP_TRACE` is set: enable global tracing.
    trace: bool,
    /// `BILLCAP_TRACE` names a file: the default `--trace` path.
    trace_path: Option<String>,
}

impl Env {
    /// Parses the raw variable value. It counts as set when it is
    /// present, non-empty and not `0`; a set value other than `1`,
    /// `true` or `on` is also a trace path.
    fn parse(trace: Option<&str>) -> Self {
        let trace = trace.filter(|v| !v.is_empty() && *v != "0");
        Self {
            trace: trace.is_some(),
            trace_path: trace
                .filter(|v| !matches!(*v, "1" | "true" | "on"))
                .map(String::from),
        }
    }
}

fn run(tokens: Vec<String>, env: &Env) -> Result<(), String> {
    if env.trace {
        billcap_obs::set_enabled(true);
    }
    let args = Args::parse(tokens);
    let command = args.positional().first().map(String::as_str);
    match command {
        Some("decide-hour") => decide_hour(&args, env).map_err(stringify),
        Some("simulate-month") => simulate_month(&args, env).map_err(stringify),
        Some("simulate-risk") => simulate_risk(&args).map_err(stringify),
        Some("derive-policies") => derive_policies(&args).map_err(stringify),
        Some("corpus") => corpus(&args).map_err(stringify),
        Some("export-trace") => export_trace(&args).map_err(stringify),
        Some("analyze-trace") => analyze_trace(&args).map_err(stringify),
        Some("diff-trace") => diff_trace(&args).map_err(stringify),
        Some("solve-lp") => solve_lp(&args),
        Some("lint-model") => lint_model_cmd(&args),
        Some("lint-spec") => lint_spec_cmd(&args),
        Some("serve") => serve_cmd(&args).map_err(stringify),
        Some("replay") => replay_cmd(&args).map_err(stringify),
        Some("watch") => watch_cmd(&args).map_err(stringify),
        Some("analyze-series") => analyze_series_cmd(&args).map_err(stringify),
        Some("help") | None => {
            println!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `billcap help`")),
    }
}

fn stringify(e: ArgError) -> String {
    e.0
}

/// Resolves the trace output path (`--trace FILE`, or a path-valued
/// `BILLCAP_TRACE`) and enables global tracing when one is found.
fn begin_trace(args: &Args, env: &Env) -> Option<String> {
    let path = args
        .get("trace")
        .map(String::from)
        .or_else(|| env.trace_path.clone());
    if path.is_some() {
        billcap_obs::set_enabled(true);
    }
    path
}

/// Writes the global trace snapshot to `path` as JSONL.
fn write_trace(path: &str) -> Result<(), ArgError> {
    let snap = billcap_obs::snapshot();
    std::fs::write(path, billcap_obs::export::to_jsonl(&snap))
        .map_err(|e| ArgError(format!("writing trace {path:?}: {e}")))?;
    eprintln!(
        "trace written to {path} ({} span events, {} counters)",
        snap.events.len(),
        snap.counters.len()
    );
    Ok(())
}

fn policy_arg(args: &Args) -> Result<usize, ArgError> {
    let p: usize = args.get_or("policy", 1)?;
    if p > 3 {
        return Err(ArgError("--policy must be 0..=3".into()));
    }
    Ok(p)
}

fn decide_hour(args: &Args, env: &Env) -> Result<(), ArgError> {
    args.check_known(&[
        "offered",
        "premium-frac",
        "budget",
        "background",
        "policy",
        "trace",
    ])?;
    let offered: f64 = args.require("offered")?;
    let premium_frac: f64 = args.get_or("premium-frac", 0.8)?;
    if !(0.0..=1.0).contains(&premium_frac) {
        return Err(ArgError("--premium-frac must be in [0, 1]".into()));
    }
    let budget: f64 = args.require("budget")?;
    let trace_path = begin_trace(args, env);
    let background = args
        .get_f64_list("background")?
        .unwrap_or_else(|| vec![360.0, 410.0, 430.0]);
    let system = DataCenterSystem::paper_system(policy_arg(args)?);
    if background.len() != system.len() {
        return Err(ArgError(format!(
            "--background needs {} comma-separated values",
            system.len()
        )));
    }
    let decision = BillCapper::default()
        .decide_hour(
            &system,
            offered,
            premium_frac * offered,
            &background,
            budget,
        )
        .map_err(|e| ArgError(e.to_string()))?;
    let outcome = match decision.outcome {
        HourOutcome::WithinBudget => "within budget",
        HourOutcome::Throttled => "throttled",
        HourOutcome::PremiumOverride => "premium override (budget violated)",
    };
    println!("outcome: {outcome}");
    println!(
        "served: premium {:.3e} req/h, ordinary {:.3e} req/h",
        decision.premium_served, decision.ordinary_served
    );
    for (i, site) in system.sites.iter().enumerate() {
        println!(
            "  {:<14} {:>10.3e} req/h  {:>8.2} MW  ${:>6.2}/MWh  ${:>10.2}",
            site.name,
            decision.allocation.lambda[i],
            decision.allocation.power_mw[i],
            decision.allocation.price[i],
            decision.allocation.cost[i]
        );
    }
    println!("hour cost ${:.2} vs budget ${budget:.2}", decision.cost());
    if let Some(path) = &trace_path {
        write_trace(path)?;
    }
    Ok(())
}

fn simulate_month(args: &Args, env: &Env) -> Result<(), ArgError> {
    args.check_known(&[
        "strategy", "budget", "policy", "seed", "csv", "hours", "quiet", "trace",
    ])?;
    let strategy = match args.get("strategy").unwrap_or("capping") {
        "capping" => Strategy::CostCapping,
        "min-only-avg" => Strategy::MinOnlyAvg,
        "min-only-low" => Strategy::MinOnlyLow,
        other => {
            return Err(ArgError(format!(
                "unknown strategy {other:?} (capping|min-only-avg|min-only-low)"
            )))
        }
    };
    let seed: u64 = args.get_or("seed", 42)?;
    let budget: Option<f64> = match args.get("budget") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| ArgError(format!("--budget: cannot parse {raw:?}")))?,
        ),
        None => None,
    };
    let trace_path = begin_trace(args, env);
    let mut scenario = Scenario::paper_default(policy_arg(args)?, seed);
    if let Some(raw) = args.get("hours") {
        let hours: usize = raw
            .parse()
            .map_err(|_| ArgError(format!("--hours: cannot parse {raw:?}")))?;
        if hours == 0 || hours > scenario.horizon() {
            return Err(ArgError(format!(
                "--hours must be in 1..={}",
                scenario.horizon()
            )));
        }
        scenario.workload = scenario.workload.slice(0, hours);
        scenario.background = scenario
            .background
            .iter()
            .map(|b| b.slice(0, hours))
            .collect();
    }
    let report = run_month(&scenario, strategy, budget).map_err(|e| ArgError(e.to_string()))?;
    if let Some(path) = &trace_path {
        write_trace(path)?;
    }
    if args.has("quiet") {
        // Machine-friendly single line: cost, premium tput, ordinary tput.
        println!(
            "{:.2} {:.6} {:.6}",
            report.total_cost(),
            report.premium_throughput(),
            report.ordinary_throughput()
        );
        if let Some(path) = args.get("csv") {
            std::fs::write(path, monthly_report_csv(&report))
                .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        }
        return Ok(());
    }
    println!("strategy: {}", report.strategy_name);
    println!("monthly cost: ${:.2}", report.total_cost());
    println!(
        "throughput: premium {:.1}%, ordinary {:.1}%",
        100.0 * report.premium_throughput(),
        100.0 * report.ordinary_throughput()
    );
    if let Some(util) = report.budget_utilization() {
        println!(
            "budget: ${:.0} (utilization {:.1}%, {} hourly violations)",
            budget.unwrap_or(f64::NAN),
            100.0 * util,
            report.hourly_violations()
        );
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, monthly_report_csv(&report))
            .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        println!("hourly series written to {path}");
    }
    Ok(())
}

fn simulate_risk(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[
        "samples",
        "seed",
        "threads",
        "cap-schedule",
        "hours",
        "budget",
        "uncapped",
        "policy",
        "json",
        "quiet",
    ])?;
    let samples: usize = args.get_or("samples", 100)?;
    if samples == 0 {
        return Err(ArgError("--samples must be at least 1".into()));
    }
    let root_seed: u64 = args.get_or("seed", 42)?;
    let threads: usize = args.get_or("threads", 0)?;
    let hours: usize = args.get_or("hours", 0)?;
    if hours > 30 * 24 {
        return Err(ArgError(format!("--hours must be in 0..={}", 30 * 24)));
    }
    let schedule =
        ScheduleSpec::parse(args.get("cap-schedule").unwrap_or("none")).map_err(ArgError)?;
    // The default budget covers the simulated horizon: the full-month
    // stringent budget, pro-rated when --hours truncates the run.
    let horizon_frac = if hours == 0 {
        1.0
    } else {
        hours as f64 / (30.0 * 24.0)
    };
    let monthly_budget = if args.has("uncapped") {
        if args.get("budget").is_some() {
            return Err(ArgError("--budget and --uncapped are exclusive".into()));
        }
        None
    } else {
        Some(args.get_or("budget", Scenario::STRINGENT_BUDGET * horizon_frac)?)
    };
    let config = RiskConfig {
        samples,
        root_seed,
        threads,
        policy: policy_arg(args)?,
        hours,
        monthly_budget,
        schedule,
        ..RiskConfig::default()
    };
    let (sample_results, summary) = RiskEngine::new(config)
        .run()
        .map_err(|e| ArgError(e.to_string()))?;
    if let Some(path) = args.get("json") {
        std::fs::write(path, to_jsonl(&sample_results, &summary))
            .map_err(|e| ArgError(format!("writing {path:?}: {e}")))?;
        if !args.has("quiet") {
            eprintln!("per-sample JSONL written to {path}");
        }
    }
    if args.has("quiet") {
        // Machine-friendly: bill quantiles, violation probability, and
        // the bitwise digest (what the CI determinism smoke compares).
        println!(
            "{:.2} {:.2} {:.2} {:.4} {}",
            summary.bill.p50,
            summary.bill.p95,
            summary.bill.p99,
            summary.violation_probability,
            summary.digest()
        );
    } else {
        print!("{}", summary.render_table());
        println!("digest: {}", summary.digest());
    }
    Ok(())
}

fn derive_policies(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["max-load", "step"])?;
    let max_load: f64 = args.get_or("max-load", 900.0)?;
    let step: f64 = args.get_or("step", 10.0)?;
    let derived = billcap_market::fivebus::derive_policies(max_load, step)
        .map_err(|e| ArgError(e.to_string()))?;
    for (consumer, _, policy) in &derived {
        let levels: Vec<String> = policy
            .levels()
            .map(|(lo, hi, p)| {
                if hi.is_finite() {
                    format!("[{lo:.0},{hi:.0}):{p:.2}")
                } else {
                    format!("[{lo:.0},inf):{p:.2}")
                }
            })
            .collect();
        println!("{consumer:?}: {}", levels.join("  "));
    }
    Ok(())
}

fn corpus(args: &Args) -> Result<(), ArgError> {
    args.check_known(&[])?;
    let lines = run_corpus().map_err(|e| ArgError(e.to_string()))?;
    print!("{lines}");
    Ok(())
}

fn export_trace(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["kind", "hours", "seed", "mean-rate"])?;
    let kind = args.get("kind").unwrap_or("workload");
    let hours: usize = args.get_or("hours", 720)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let mean_rate: f64 = args.get_or("mean-rate", Scenario::MEAN_RATE)?;
    let trace = match kind {
        "workload" => {
            TraceGenerator::new(TraceConfig::wikipedia_like(mean_rate, seed)).generate(hours)
        }
        "background0" => BackgroundDemand::reco_like(0, seed).generate(hours),
        "background1" => BackgroundDemand::reco_like(1, seed).generate(hours),
        "background2" => BackgroundDemand::reco_like(2, seed).generate(hours),
        "temperature0" => TemperatureModel::paper_location(0, seed).generate(hours),
        "temperature1" => TemperatureModel::paper_location(1, seed).generate(hours),
        "temperature2" => TemperatureModel::paper_location(2, seed).generate(hours),
        other => {
            return Err(ArgError(format!(
                "unknown trace kind {other:?} (workload|background0..2|temperature0..2)"
            )))
        }
    };
    print!("{}", trace.to_csv());
    Ok(())
}

/// Reads and parses a JSONL trace, with one-line actionable errors for
/// missing files and malformed lines.
fn read_trace_snapshot(path: &str) -> Result<billcap_obs::TraceSnapshot, ArgError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("reading trace {path:?}: {e}")))?;
    billcap_obs::export::parse_jsonl(&text)
        .map_err(|e| ArgError(format!("parsing trace {path:?}: {e}")))
}

fn analyze_trace(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["flame", "top"])?;
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("analyze-trace needs a trace file (JSONL)".into()))?;
    let top: usize = args.get_or("top", 5)?;
    let snap = read_trace_snapshot(path)?;
    let profile = billcap_obs_analyze::Profile::from_snapshot(&snap);
    if profile.root().children.is_empty() {
        return Err(ArgError(format!(
            "trace {path:?} contains no spans; was it recorded with tracing enabled?"
        )));
    }
    print!("{}", profile.to_table());
    let hot: Vec<&str> = profile.hot_path().iter().map(|n| n.name.as_str()).collect();
    println!("\nhot path: {}", hot.join(" > "));
    println!("top {top} by self time:");
    for node in profile.top_self(top) {
        println!(
            "  {:<28} {:>10}  ({} calls)",
            node.path,
            billcap_obs_analyze::fmt_ns(node.self_ns),
            node.count
        );
    }
    if !profile.counters.is_empty() {
        println!("counters:");
        for (name, value) in &profile.counters {
            println!("  {name:<28} {value:>12}");
        }
    }
    if let Some(out) = args.get("flame") {
        std::fs::write(out, billcap_obs_analyze::to_collapsed(&profile))
            .map_err(|e| ArgError(format!("writing flamegraph stacks {out:?}: {e}")))?;
        println!("collapsed stacks written to {out}");
    }
    Ok(())
}

fn diff_trace(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["threshold", "count-threshold", "warn-only"])?;
    let base_path = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("diff-trace needs BASE and CURRENT trace files".into()))?;
    let cur_path = args
        .positional()
        .get(2)
        .ok_or_else(|| ArgError("diff-trace needs BASE and CURRENT trace files".into()))?;
    let time_pct: f64 = args.get_or("threshold", 10.0)?;
    let count_pct: f64 = args.get_or("count-threshold", 0.0)?;
    if time_pct < 0.0 || count_pct < 0.0 {
        return Err(ArgError(
            "thresholds must be non-negative percentages".into(),
        ));
    }
    let base = read_trace_snapshot(base_path)?;
    let cur = read_trace_snapshot(cur_path)?;
    let cfg = billcap_obs_analyze::DiffConfig {
        time_rel: time_pct / 100.0,
        count_rel: count_pct / 100.0,
        ..Default::default()
    };
    let report = billcap_obs_analyze::diff_snapshots(&base, &cur, &cfg);
    print!("{}", report.render());
    if report.has_regressions() {
        // --warn-only forgives wall-clock jitter only; work counters
        // are deterministic for a fixed seed, so those always fail.
        let work = report
            .regressed()
            .iter()
            .filter(|e| !e.kind.is_wall_clock())
            .count();
        if !args.has("warn-only") {
            return Err(ArgError(format!(
                "{} metrics regressed past the threshold (see above; pass --warn-only to \
                 downgrade timing regressions)",
                report.regressed().len()
            )));
        }
        if work > 0 {
            return Err(ArgError(format!(
                "{work} deterministic work metric(s) regressed (--warn-only covers timing \
                 metrics only; see above)"
            )));
        }
        eprintln!("warning: timing regressions past the threshold (warn-only mode)");
    }
    Ok(())
}

fn solve_lp(args: &Args) -> Result<(), String> {
    args.check_known(&[]).map_err(stringify)?;
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| "solve-lp needs a file path".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let model = parse_lp(&text).map_err(|e| e.to_string())?;
    let sol = MipSolver::default()
        .solve(&model)
        .map_err(|e| e.to_string())?;
    println!("status: {:?}", sol.status);
    println!("objective: {}", sol.objective);
    for (v, value) in model.variables().iter().zip(&sol.values) {
        println!("  {} = {}", v.name, value);
    }
    if let Some(stats) = sol.mip {
        println!(
            "nodes: {}, lp iterations: {}, gap: {:.2e}",
            stats.nodes, stats.trace.lp.iterations, stats.gap
        );
    }
    Ok(())
}

fn lint_model_cmd(args: &Args) -> Result<(), String> {
    args.check_known(&["json"]).map_err(stringify)?;
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| "lint-model needs a file path".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let model = parse_lp(&text).map_err(|e| e.to_string())?;
    let report = billcap_milp::lint_model(&model);
    if args.has("json") {
        print!("{}", report.to_jsonl());
    } else {
        print!("{report}");
    }
    let errors = report.errors().count();
    if errors == 0 {
        Ok(())
    } else {
        Err(format!("{errors} error-severity finding(s)"))
    }
}

fn lint_spec_cmd(args: &Args) -> Result<(), String> {
    args.check_known(&["policy", "synthetic", "premium-frac", "json"])
        .map_err(stringify)?;
    let system = if let Some(spec) = args.get("synthetic") {
        let (n, l) = spec
            .split_once(',')
            .and_then(|(n, l)| Some((n.parse::<usize>().ok()?, l.parse::<usize>().ok()?)))
            .ok_or_else(|| "--synthetic needs N,L (sites, price levels)".to_string())?;
        DataCenterSystem::synthetic(n, l)
    } else {
        DataCenterSystem::paper_system(policy_arg(args).map_err(stringify)?)
    };
    let mut report = billcap_core::lint_system(&system);
    // The default month-long budgeter's hour-of-week weights (S003).
    let budgeter = billcap_workload::Budgeter::uniform(1.0, 720);
    report.extend(billcap_core::lint_budget_weights(budgeter.weights()));
    let premium_frac: f64 = args.get_or("premium-frac", 0.8).map_err(stringify)?;
    report.extend(billcap_core::lint_premium_fraction(premium_frac));
    if args.has("json") {
        print!("{}", report.to_jsonl());
    } else if report.findings.is_empty() {
        println!("spec lint: clean ({} sites)", system.len());
    } else {
        print!("{report}");
    }
    let errors = report.errors().count();
    if errors == 0 {
        Ok(())
    } else {
        Err(format!("{errors} error-severity finding(s)"))
    }
}

/// Builds a [`ServeConfig`] from the flags `serve` and `replay` share.
fn serve_config(args: &Args) -> Result<ServeConfig, ArgError> {
    let mut cfg = ServeConfig::default();
    if let Some(raw) = args.get("workers") {
        let workers: usize = raw
            .parse()
            .map_err(|_| ArgError(format!("--workers: cannot parse {raw:?}")))?;
        if workers == 0 {
            return Err(ArgError("--workers must be at least 1".into()));
        }
        cfg.workers = workers;
    }
    cfg.cache = !args.has("no-cache");
    cfg.capper.integral_servers = args.has("integral");
    cfg.telemetry = !args.has("no-telemetry");
    cfg.window_requests = args.get_or("window-requests", cfg.window_requests)?;
    if let Some(path) = args.get("metrics-stream") {
        cfg.metrics_stream = Some(std::path::PathBuf::from(path));
    }
    Ok(cfg)
}

/// The flags [`serve_config`] consumes, shared by `serve` and `replay`.
const SERVE_CONFIG_FLAGS: [&str; 6] = [
    "workers",
    "no-cache",
    "integral",
    "no-telemetry",
    "window-requests",
    "metrics-stream",
];

fn serve_cmd(args: &Args) -> Result<(), ArgError> {
    let mut known = vec!["socket", "once"];
    known.extend_from_slice(&SERVE_CONFIG_FLAGS);
    args.check_known(&known)?;
    let cfg = serve_config(args)?;
    if let Some(path) = args.get("socket") {
        #[cfg(unix)]
        {
            let stats =
                billcap_serve::serve_unix(&cfg, std::path::Path::new(path), args.has("once"))
                    .map_err(|e| ArgError(format!("serving on {path:?}: {e}")))?;
            for (i, s) in stats.iter().enumerate() {
                eprintln!(
                    "connection {i}: {} requests, {} decisions ({} cached), {} errors",
                    s.requests, s.decisions, s.cache_hits, s.errors
                );
            }
            return Ok(());
        }
        #[cfg(not(unix))]
        {
            return Err(ArgError(format!(
                "--socket {path:?}: Unix sockets are not available on this platform"
            )));
        }
    }
    if args.has("once") {
        return Err(ArgError("--once requires --socket".into()));
    }
    let tele = ServerTelemetry::open(&cfg).map_err(|e| ArgError(e.to_string()))?;
    // The unlocked handles: the lock guards are not Send, and the
    // server moves reader/writer onto pool threads.
    let stats = billcap_serve::serve_with(&cfg, std::io::stdin(), std::io::stdout(), &tele);
    eprintln!(
        "served {} requests: {} decisions ({} cached), {} errors",
        stats.requests, stats.decisions, stats.cache_hits, stats.errors
    );
    if let Some(fe) = stats.frame_error {
        return Err(ArgError(format!("stream terminated: {fe}")));
    }
    Ok(())
}

fn replay_cmd(args: &Args) -> Result<(), ArgError> {
    let mut known = vec!["hours", "seed", "policy", "budget", "uncapped", "check"];
    known.extend_from_slice(&SERVE_CONFIG_FLAGS);
    args.check_known(&known)?;
    let hours: usize = args.get_or("hours", 168)?;
    if hours == 0 {
        return Err(ArgError("--hours must be at least 1".into()));
    }
    let seed: u64 = args.get_or("seed", 42)?;
    let policy = policy_arg(args)?;
    let budget = if args.has("uncapped") {
        if args.get("budget").is_some() {
            return Err(ArgError("--budget and --uncapped are exclusive".into()));
        }
        None
    } else {
        Some(args.get_or("budget", Scenario::STRINGENT_BUDGET)?)
    };
    let cfg = serve_config(args)?;
    // Open the metrics stream first: a bad path fails before the plan,
    // a whole budgeted simulation, is built.
    let tele = ServerTelemetry::open(&cfg).map_err(|e| ArgError(e.to_string()))?;

    eprintln!("building {hours}-hour plan (policy {policy}, seed {seed})...");
    let plan = build_plan(policy, seed, hours, budget).map_err(|e| ArgError(e.to_string()))?;
    let outcome = run_replay_with(&cfg, &plan, &tele).map_err(ArgError)?;
    println!(
        "replayed {} hours on {} workers: {:.1} decisions/sec ({} cached, {} errors)",
        outcome.decisions.len(),
        cfg.workers,
        outcome.decisions_per_sec(),
        outcome.stats.cache_hits,
        outcome.errors.len()
    );
    if args.has("check") {
        verify_replay(&plan, &outcome).map_err(ArgError)?;
        println!(
            "check: all {} decisions bitwise-identical to the fresh solver",
            outcome.decisions.len()
        );
    } else if !outcome.errors.is_empty() {
        return Err(ArgError(format!(
            "{} request(s) failed; first: {:?}",
            outcome.errors.len(),
            outcome.errors[0]
        )));
    }
    Ok(())
}

/// Table header shared by `watch` and `analyze-series`.
const SERIES_HEADER: &str =
    "  tick   uptime  requests decisions errors  queue        request_us           solve_us\n\
     \u{20}                                                 p50/p95/p99 (us)    p50/p95/p99 (us)";

/// One table row for a metrics document.
fn series_row(doc: &billcap_obs::MetricsDoc) -> String {
    let c = |k: &str| doc.counters.get(k).copied().unwrap_or(0);
    let q = |k: &str| match doc.latency.get(k) {
        Some(q) if q.count > 0 => format!("{:>5.0}/{:>5.0}/{:>5.0}", q.p50, q.p95, q.p99),
        _ => "    -/    -/    -".into(),
    };
    format!(
        "{:>6} {:>7.1}s {:>9} {:>9} {:>6} {:>6.0}  {:>17}   {:>17}",
        doc.tick,
        doc.uptime_ns as f64 / 1e9,
        c("serve.requests"),
        c("serve.decisions"),
        c("serve.errors"),
        doc.gauges.get("serve.queue_depth").copied().unwrap_or(0.0),
        q("request_us"),
        q("solve_us"),
    )
}

fn watch_cmd(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["socket", "count", "interval-ms", "json"])?;
    #[cfg(unix)]
    {
        use billcap_serve::{read_frame, write_frame, ControlMsg, Response, MAX_FRAME};
        use std::io::Write as _;

        let path: String = args.require("socket")?;
        let count: u64 = args.get_or("count", 0)?;
        let interval_ms: u64 = args.get_or("interval-ms", 1_000)?;
        let json = args.has("json");

        let mut stream = std::os::unix::net::UnixStream::connect(&path)
            .map_err(|e| ArgError(format!("connecting to {path:?}: {e}")))?;
        if !json {
            println!("{SERIES_HEADER}");
        }
        let mut scrapes = 0u64;
        while count == 0 || scrapes < count {
            if scrapes > 0 && interval_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
            let payload = ControlMsg::Metrics { id: Some(scrapes) }
                .to_value()
                .render();
            write_frame(&mut stream, payload.as_bytes())
                .and_then(|()| stream.flush())
                .map_err(|e| ArgError(format!("scraping {path:?}: {e}")))?;
            let frame = match read_frame(&mut stream, MAX_FRAME) {
                Ok(Some(frame)) => frame,
                Ok(None) => break, // server closed the connection
                Err(e) => return Err(ArgError(format!("reading from {path:?}: {e}"))),
            };
            match Response::parse(&frame).map_err(ArgError)? {
                Response::Metrics { doc, .. } => {
                    if json {
                        println!("{}", doc.render_json());
                    } else {
                        println!("{}", series_row(&doc));
                    }
                }
                other => {
                    return Err(ArgError(format!(
                        "unexpected response to a metrics scrape: {other:?}"
                    )))
                }
            }
            scrapes += 1;
        }
        Ok(())
    }
    #[cfg(not(unix))]
    {
        Err(ArgError(
            "watch needs Unix sockets, which are not available on this platform".into(),
        ))
    }
}

fn analyze_series_cmd(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["slo"])?;
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("analyze-series needs a metrics log (JSONL)".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("reading metrics log {path:?}: {e}")))?;
    let series = billcap_obs_analyze::MetricsSeries::parse_jsonl(&text)
        .map_err(|e| ArgError(format!("parsing {path:?}: {e}")))?;
    if series.is_empty() {
        return Err(ArgError(format!(
            "{path:?} contains no metrics documents; was the server run with --metrics-stream?"
        )));
    }

    println!("{SERIES_HEADER}");
    for doc in &series.docs {
        println!("{}", series_row(doc));
    }
    let requests = series.counter_deltas("serve.requests");
    println!(
        "\n{} windows, {} requests total",
        series.len(),
        requests.iter().sum::<u64>()
    );

    if let Some(spec) = args.get("slo") {
        let spec = billcap_obs_analyze::SloSpec::parse(spec).map_err(ArgError)?;
        let report = spec.evaluate(&series);
        println!("{}", report.render_json());
        if !report.ok {
            return Err(ArgError(format!(
                "SLO violated: {} of {} windows over threshold (burn {:.3} > allow {})",
                report.violations, report.windows, report.burn, spec.allow
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<(), String> {
        run_vec(s.split_whitespace().map(String::from).collect())
    }

    fn run_vec(tokens: Vec<String>) -> Result<(), String> {
        run(tokens, &Env::default())
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_str("help").is_ok());
        assert!(run_vec(vec![]).is_ok());
        assert!(run_str("frobnicate").is_err());
    }

    #[test]
    fn decide_hour_happy_path() {
        assert!(run_str("decide-hour --offered 6e8 --premium-frac 0.8 --budget 1e9").is_ok());
    }

    #[test]
    fn decide_hour_is_always_audited() {
        assert!(run_str("decide-hour --offered 6e8 --premium-frac 0.8 --budget 1e9").is_ok());
        // A starvation budget takes the premium-override branch; the
        // engine's plan audit must accept the sanctioned overrun.
        assert!(run_str("decide-hour --offered 6e8 --premium-frac 0.8 --budget 1").is_ok());
        // The checks have no switch: `--audit` is an unknown flag.
        for cmd in [
            "decide-hour --offered 6e8 --budget 1e9 --audit",
            "simulate-month --hours 1 --quiet --audit",
            "simulate-risk --samples 1 --hours 1 --audit",
        ] {
            let err = run_str(cmd).unwrap_err();
            assert!(err.contains("unknown flag(s) --audit"), "{cmd}: {err}");
        }
    }

    #[test]
    fn decide_hour_validation() {
        assert!(run_str("decide-hour --budget 1").is_err()); // missing --offered
        assert!(run_str("decide-hour --offered 1e8 --budget 1 --premium-frac 2.0").is_err());
        assert!(run_str("decide-hour --offered 1e8 --budget 1e9 --background 1,2").is_err()); // wrong arity
        assert!(run_str("decide-hour --offered 1e8 --budget 1e9 --policy 7").is_err());
    }

    #[test]
    fn derive_policies_runs() {
        assert!(run_str("derive-policies --max-load 700 --step 100").is_ok());
    }

    #[test]
    fn export_trace_kinds() {
        assert!(run_str("export-trace --kind workload --hours 24").is_ok());
        assert!(run_str("export-trace --kind temperature1 --hours 24").is_ok());
        assert!(run_str("export-trace --kind nope").is_err());
    }

    #[test]
    fn solve_lp_roundtrip() {
        let dir = std::env::temp_dir().join("billcap_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.lp");
        std::fs::write(
            &path,
            "Minimize\n obj: 2 a + 3 b\nSubject To\n c1: a + b >= 4\nBounds\n a >= 0\n b >= 0\nEnd\n",
        )
        .unwrap();
        assert!(run_str(&format!("solve-lp {}", path.display())).is_ok());
        assert!(run_str("solve-lp /nonexistent/file.lp").is_err());
        assert!(run_str("solve-lp").is_err());
    }

    #[test]
    fn lint_spec_committed_systems_are_clean() {
        for p in 0..4 {
            assert!(run_str(&format!("lint-spec --policy {p}")).is_ok());
        }
        assert!(run_str("lint-spec --synthetic 6,4 --json").is_ok());
        assert!(run_str("lint-spec --synthetic nope").is_err());
        // An impossible premium fraction is an Error-severity finding.
        assert!(run_str("lint-spec --premium-frac 1.5").is_err());
    }

    #[test]
    fn lint_model_flags_contradictory_rows() {
        let dir = std::env::temp_dir().join("billcap_cli_lint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.lp");
        std::fs::write(
            &clean,
            "Minimize\n obj: 2 a + 3 b\nSubject To\n c1: a + b >= 4\nBounds\n a >= 0\n b >= 0\nEnd\n",
        )
        .unwrap();
        assert!(run_str(&format!("lint-model {}", clean.display())).is_ok());
        assert!(run_str(&format!("lint-model {} --json", clean.display())).is_ok());

        // x >= 4 and x <= 1 cannot both hold: bound propagation proves it.
        let bad = dir.join("bad.lp");
        std::fs::write(
            &bad,
            "Minimize\n obj: a\nSubject To\n c1: a >= 4\n c2: a <= 1\nBounds\n a >= 0\nEnd\n",
        )
        .unwrap();
        assert!(run_str(&format!("lint-model {}", bad.display())).is_err());
        assert!(run_str("lint-model /nonexistent/file.lp").is_err());
        assert!(run_str("lint-model").is_err());
    }

    #[test]
    fn simulate_month_validation() {
        assert!(run_str("simulate-month --strategy bogus").is_err());
    }

    #[test]
    fn unknown_flags_fail_on_every_subcommand() {
        for cmd in [
            "decide-hour --offered 6e8 --budget 1e9 --bogus 1",
            "simulate-month --quiet --bogus 1",
            "simulate-risk --quiet --bogus 1",
            "derive-policies --bogus 1",
            "corpus --bogus 1",
            "export-trace --bogus 1",
            "analyze-trace x.jsonl --bogus 1",
            "diff-trace a.jsonl b.jsonl --bogus 1",
            "solve-lp x.lp --bogus 1",
            "lint-model x.lp --bogus 1",
            "lint-spec --bogus 1",
            "serve --bogus 1",
            "replay --bogus 1",
            "watch --socket /tmp/x.sock --bogus 1",
            "analyze-series x.jsonl --bogus 1",
        ] {
            let err = run_str(cmd).unwrap_err();
            assert!(err.contains("--bogus"), "{cmd}: {err}");
        }
    }

    #[test]
    fn replay_short_run_checks_bitwise() {
        assert!(
            run_str("replay --hours 2 --workers 2 --seed 7 --check").is_ok(),
            "short replay with --check must verify"
        );
    }

    #[test]
    fn replay_validation() {
        assert!(run_str("replay --hours 0").is_err());
        assert!(run_str("replay --hours nope").is_err());
        assert!(run_str("replay --workers 0").is_err());
        assert!(run_str("replay --policy 9").is_err());
        assert!(run_str("replay --budget 1e6 --uncapped").is_err());
    }

    #[test]
    fn serve_validation() {
        assert!(run_str("serve --once").is_err()); // --once needs --socket
        assert!(run_str("serve --workers 0").is_err());
        assert!(run_str("serve --workers nope").is_err());
    }

    #[test]
    fn analyze_and_diff_trace_round_trip() {
        let dir = std::env::temp_dir().join("billcap_cli_analyze_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("hour.jsonl");
        let flame = dir.join("hour.folded");
        assert!(run_str(&format!(
            "decide-hour --offered 6e8 --premium-frac 0.8 --budget 1e9 --trace {}",
            trace.display()
        ))
        .is_ok());

        assert!(run_str(&format!(
            "analyze-trace {} --top 3 --flame {}",
            trace.display(),
            flame.display()
        ))
        .is_ok());
        // The collapsed stacks re-parse into a profile with spans.
        let folded = std::fs::read_to_string(&flame).unwrap();
        let profile = billcap_obs_analyze::parse_collapsed(&folded).unwrap();
        assert!(!profile.root().children.is_empty());

        // A trace diffed against itself has no regressions.
        assert!(run_str(&format!(
            "diff-trace {} {}",
            trace.display(),
            trace.display()
        ))
        .is_ok());
    }

    #[test]
    fn analyze_trace_file_errors_are_actionable() {
        let err = run_str("analyze-trace /nonexistent/trace.jsonl").unwrap_err();
        assert!(err.contains("/nonexistent/trace.jsonl"), "{err}");
        assert!(run_str("analyze-trace").is_err()); // missing positional

        // A corrupt trace reports the offending line.
        let dir = std::env::temp_dir().join("billcap_cli_analyze_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"type\":\"counter\",\"name\":}\n").unwrap();
        let err = run_str(&format!("analyze-trace {}", bad.display())).unwrap_err();
        assert!(err.contains("line 1"), "{err}");

        // An empty (span-less) trace is rejected with a hint.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let err = run_str(&format!("analyze-trace {}", empty.display())).unwrap_err();
        assert!(err.contains("no spans"), "{err}");
    }

    #[test]
    fn diff_trace_validation() {
        assert!(run_str("diff-trace").is_err()); // needs two files
        assert!(run_str("diff-trace one.jsonl").is_err());
        let err = run_str("diff-trace /missing/a.jsonl /missing/b.jsonl").unwrap_err();
        assert!(err.contains("/missing/a.jsonl"), "{err}");
    }

    #[test]
    fn diff_trace_warn_only_still_fails_on_work_regressions() {
        let dir = std::env::temp_dir().join("billcap_cli_warnonly_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.jsonl");
        run_str(&format!(
            "decide-hour --offered 6e8 --premium-frac 0.8 --budget 1e9 --trace {}",
            base.display()
        ))
        .unwrap();
        let snap =
            billcap_obs::export::parse_jsonl(&std::fs::read_to_string(&base).unwrap()).unwrap();

        // Inflated wall time alone is forgiven under --warn-only (and
        // still fails without it).
        let mut slow = snap.clone();
        for s in slow.spans.values_mut() {
            s.total_ns += 50_000_000; // past the 1 ms abs floor and 10% rel
        }
        let slow_path = dir.join("slow.jsonl");
        std::fs::write(&slow_path, billcap_obs::export::to_jsonl(&slow)).unwrap();
        assert!(run_str(&format!(
            "diff-trace {} {} --warn-only",
            base.display(),
            slow_path.display()
        ))
        .is_ok());
        assert!(run_str(&format!(
            "diff-trace {} {}",
            base.display(),
            slow_path.display()
        ))
        .is_err());

        // An inflated deterministic work counter is never forgiven.
        let mut inflated = snap.clone();
        *inflated.counters.get_mut("milp.bnb.nodes").unwrap() *= 2;
        let bad = dir.join("inflated.jsonl");
        std::fs::write(&bad, billcap_obs::export::to_jsonl(&inflated)).unwrap();
        let err = run_str(&format!(
            "diff-trace {} {} --warn-only",
            base.display(),
            bad.display()
        ))
        .unwrap_err();
        assert!(err.contains("work metric"), "{err}");
    }

    #[test]
    fn simulate_risk_validation() {
        assert!(run_str("simulate-risk --samples 0").is_err());
        assert!(run_str("simulate-risk --hours 999999").is_err());
        assert!(run_str("simulate-risk --cap-schedule bogus").is_err());
        assert!(run_str("simulate-risk --cap-schedule derate:2.0").is_err());
        assert!(run_str("simulate-risk --budget 1e6 --uncapped").is_err());
        assert!(run_str("simulate-risk --policy 9").is_err());
    }

    #[test]
    fn simulate_risk_writes_jsonl() {
        let dir = std::env::temp_dir().join("billcap_cli_risk_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("risk.jsonl");
        assert!(run_str(&format!(
            "simulate-risk --samples 2 --hours 24 --threads 2 --quiet --json {}",
            path.display()
        ))
        .is_ok());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // 2 samples + 1 summary
        let last = billcap_obs::json::Value::parse(lines[2]).unwrap();
        assert_eq!(last.get("kind").unwrap().as_str(), Some("summary"));
        assert!(last.get("digest").is_some());
    }

    #[test]
    fn simulate_month_hours_validation() {
        assert!(run_str("simulate-month --hours 0 --quiet").is_err());
        assert!(run_str("simulate-month --hours 999999 --quiet").is_err());
        assert!(run_str("simulate-month --hours nope --quiet").is_err());
    }

    #[test]
    fn decide_hour_trace_writes_jsonl() {
        let dir = std::env::temp_dir().join("billcap_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hour.jsonl");
        assert!(run_str(&format!(
            "decide-hour --offered 6e8 --premium-frac 0.8 --budget 1e9 --trace {}",
            path.display()
        ))
        .is_ok());
        let text = std::fs::read_to_string(&path).unwrap();
        let snap = billcap_obs::export::parse_jsonl(&text).unwrap();
        assert!(snap.spans.keys().any(|p| p.contains("step1")));
        assert!(snap.counters.contains_key("milp.bnb.nodes"));
    }

    #[test]
    fn env_is_parsed_once_at_the_edge() {
        for off in [None, Some(""), Some("0")] {
            assert_eq!(Env::parse(off), Env::default());
        }
        for switch in ["1", "true", "on"] {
            let env = Env::parse(Some(switch));
            let only_switches = Env {
                trace: true,
                trace_path: None,
            };
            assert_eq!(env, only_switches);
            // A switch value enables tracing and names no file.
            assert!(run(
                "decide-hour --offered 6e8 --budget 1e9"
                    .split_whitespace()
                    .map(String::from)
                    .collect(),
                &env
            )
            .is_ok());
            assert!(billcap_obs::enabled());
        }
        // A path value enables tracing and is where the trace goes.
        let dir = std::env::temp_dir().join("billcap_cli_env_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hour.jsonl");
        let _ = std::fs::remove_file(&path);
        let env = Env::parse(path.to_str());
        assert!(env.trace);
        assert_eq!(env.trace_path.as_deref(), path.to_str());
        let tokens = "decide-hour --offered 6e8 --budget 1e9";
        assert!(run(tokens.split_whitespace().map(String::from).collect(), &env).is_ok());
        let text = std::fs::read_to_string(&path).unwrap();
        let snap = billcap_obs::export::parse_jsonl(&text).unwrap();
        assert!(snap.spans.keys().any(|p| p.contains("step1")));
    }

    #[test]
    fn watch_validation() {
        let err = run_str("watch").unwrap_err();
        assert!(err.contains("--socket"), "got: {err}");
        assert!(run_str("watch --socket /nonexistent/billcap.sock --count 1").is_err());
        assert!(run_str("watch --socket /tmp/x.sock --count nope").is_err());
    }

    /// Builds a small metrics JSONL log whose `request_us` latency sits
    /// around `center_us` in every window.
    fn write_series_fixture(path: &std::path::Path, centers: &[f64]) {
        use billcap_obs::{MetricsDoc, QuantileSummary, WindowedHistogram};
        let mut text = String::new();
        for (i, &center) in centers.iter().enumerate() {
            let mut doc = MetricsDoc::new(i as u64, (i as u64 + 1) * 1_000_000);
            doc.counters
                .insert("serve.requests".into(), (i as u64 + 1) * 16);
            doc.gauges.insert("serve.queue_depth".into(), 1.0);
            let mut h = WindowedHistogram::new(&[100.0, 1_000.0, 10_000.0, 100_000.0], 1);
            for k in 0..10 {
                h.record(center + k as f64);
            }
            doc.latency.insert(
                "request_us".into(),
                QuantileSummary::from_histogram(&h.merged()),
            );
            text.push_str(&doc.render_json());
            text.push('\n');
        }
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn analyze_series_evaluates_slo_burn() {
        let dir = std::env::temp_dir().join("billcap_cli_series_test");
        std::fs::create_dir_all(&dir).unwrap();

        let clean = dir.join("clean.jsonl");
        write_series_fixture(&clean, &[200.0, 250.0, 300.0]);
        // No SLO: plain table, success.
        assert!(run_str(&format!("analyze-series {}", clean.display())).is_ok());
        // Clean baseline passes its SLO.
        assert!(run_vec(vec![
            "analyze-series".into(),
            clean.display().to_string(),
            "--slo".into(),
            "request_us.p99<=100000".into(),
        ])
        .is_ok());

        // An injected violation window flips the verdict.
        let burned = dir.join("burned.jsonl");
        write_series_fixture(&burned, &[200.0, 50_000.0, 200.0]);
        let err = run_vec(vec![
            "analyze-series".into(),
            burned.display().to_string(),
            "--slo".into(),
            "request_us.p99<=10000".into(),
        ])
        .unwrap_err();
        assert!(err.contains("SLO violated"), "got: {err}");
        // ... unless the error budget allows it.
        assert!(run_vec(vec![
            "analyze-series".into(),
            burned.display().to_string(),
            "--slo".into(),
            "request_us.p99<=10000 allow 0.5".into(),
        ])
        .is_ok());
    }

    #[test]
    fn analyze_series_file_errors_are_actionable() {
        assert!(run_str("analyze-series").is_err()); // missing positional
        assert!(run_str("analyze-series /nonexistent/metrics.jsonl").is_err());
        let dir = std::env::temp_dir().join("billcap_cli_series_test");
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let err = run_str(&format!("analyze-series {}", empty.display())).unwrap_err();
        assert!(err.contains("no metrics documents"), "got: {err}");
        let clean = dir.join("spec.jsonl");
        write_series_fixture(&clean, &[200.0]);
        let err = run_vec(vec![
            "analyze-series".into(),
            clean.display().to_string(),
            "--slo".into(),
            "request_us.p42<=1".into(),
        ])
        .unwrap_err();
        assert!(err.contains("quantile"), "got: {err}");
    }

    /// End-to-end: a live `serve --socket` daemon scraped by `watch`.
    #[cfg(unix)]
    #[test]
    fn watch_scrapes_a_live_socket_server() {
        let sock =
            std::env::temp_dir().join(format!("billcap-cli-watch-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let sock_server = sock.clone();
        let watch_result: std::sync::Mutex<Option<Result<(), String>>> =
            std::sync::Mutex::new(None);
        billcap_rt::run_workers(2, |w| {
            if w == 0 {
                let cfg = ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                };
                billcap_serve::serve_unix(&cfg, &sock_server, true).expect("server binds");
            } else {
                // The listener creates the socket file at bind time. Be
                // very patient: on a loaded single-core runner the
                // server thread can be starved for seconds.
                let mut tries = 0u32;
                while !sock.exists() && tries < 60_000 {
                    tries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let res = if sock.exists() {
                    run_vec(vec![
                        "watch".into(),
                        "--socket".into(),
                        sock.display().to_string(),
                        "--count".into(),
                        "2".into(),
                        "--interval-ms".into(),
                        "1".into(),
                    ])
                } else {
                    Err(format!("server never bound {sock:?}"))
                };
                if res.is_err() {
                    // Never panic here before the server's accept() has
                    // returned: a dummy connection unblocks it so the
                    // pool can join, and the failure is asserted below.
                    let _ = std::os::unix::net::UnixStream::connect(&sock);
                }
                *watch_result.lock().unwrap_or_else(|e| e.into_inner()) = Some(res);
            }
        });
        let _ = std::fs::remove_file(&sock);
        watch_result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("client ran")
            .expect("watch scrapes");
    }
}
