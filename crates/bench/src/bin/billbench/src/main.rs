//! `billbench`: the end-to-end benchmark of the billcap workspace.
//!
//! ```text
//! billbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--repeat N] [--smoke] [--out DIR]
//! ```
//!
//! Four workloads, each run in a child process of its own so set-up time
//! and peak memory are per workload:
//!
//! * `serve-fleets` and `serve-hot` drive a server child over a Unix
//!   socket (see `serve.rs`);
//! * `month-stringent` and `risk-derate` time month simulations and
//!   Monte-Carlo risk runs in process (see `inproc.rs`).
//!
//! Every output is checked against an oracle; any mismatch fails the run
//! and the exit status. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). A traced
//! run also writes `layers.json` and a collapsed flame file per workload
//! under `--out` (default `billbench-out`).
//!
//! `--repeat N` runs each workload with seeds `seed..seed + N` and prints
//! every metric's median and quartile spread; `--smoke` runs all four
//! workloads briefly, traced, as a quick end-to-end check.

#![forbid(unsafe_code)]

mod calib;
mod inproc;
mod ledger;
mod loadgen;
mod report;
mod serve;
mod stats;

use billcap_obs::json::Value;
use billcap_obs::Stopwatch;
use billcap_rt::run_workers;
use loadgen::lock;
use report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, ExitStatus, Stdio};
use std::sync::Mutex;
use std::time::Duration;

/// The workloads, in run order.
const WORKLOADS: [&str; 4] = [
    "serve-fleets",
    "serve-hot",
    "month-stringent",
    "risk-derate",
];
/// Measured seconds per workload when `--seconds` is not given; the
/// same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Measured seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 1.5;

const USAGE: &str = "usage: billbench [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat N] [--smoke] [--out DIR]";

/// One workload run's settings, as its child process receives them.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for sockets, traces and ledgers.
    pub out: PathBuf,
    /// The CPU a serve workload's server child is pinned to; the parent
    /// pins the workload child (the load generator) to another.
    pub server_cpu: Option<usize>,
}

enum Cli {
    /// Run workloads, each in a child, and report.
    Parent {
        workloads: Vec<String>,
        run: RunArgs,
        repeat: u64,
    },
    /// Run one workload in this process and print its record.
    Child(RunArgs),
    /// Serve one connection on a socket, then report peak memory.
    ServeChild {
        socket: PathBuf,
        trace_out: Option<PathBuf>,
    },
    /// Time the calibration kernel and print its ns.
    Calibrate,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    const VALUED: [&str; 10] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--repeat",
        "--out",
        "--child",
        "--serve-child",
        "--trace-out",
        "--server-cpu",
    ];
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_str();
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--calibrate" && args.len() == 1 {
            return Ok(Cli::Calibrate);
        } else if VALUED.contains(&arg) {
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            if flags.insert(arg, value).is_some() {
                return Err(format!("{arg} given twice"));
            }
        } else {
            return Err(format!("unknown argument {arg:?}\n{USAGE}"));
        }
    }
    if let Some(socket) = flags.get("--serve-child") {
        return Ok(Cli::ServeChild {
            socket: PathBuf::from(socket),
            trace_out: flags.get("--trace-out").map(PathBuf::from),
        });
    }
    let known = |w: &str| {
        WORKLOADS
            .contains(&w)
            .then(|| w.to_string())
            .ok_or_else(|| format!("unknown workload {w:?} (one of {})", WORKLOADS.join(", ")))
    };
    let seed = match flags.get("--seed") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed {s:?} is not a u64"))?,
        None => 42,
    };
    let seconds = match (flags.get("--seconds"), smoke) {
        (Some(_), true) => return Err("--smoke sets its own --seconds".into()),
        (Some(s), false) => s
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("--seconds {s:?} is not a positive number"))?,
        (None, true) => SMOKE_SECONDS,
        (None, false) => DEFAULT_SECONDS,
    };
    let trace = match flags.get("--trace").copied() {
        None => smoke,
        Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace {t:?} must be 0 or 1")),
    };
    let mut run = RunArgs {
        workload: String::new(),
        seed,
        seconds,
        trace,
        out: PathBuf::from(flags.get("--out").copied().unwrap_or("billbench-out")),
        server_cpu: None,
    };
    if let Some(w) = flags.get("--child") {
        run.workload = known(w)?;
        if let Some(cpu) = flags.get("--server-cpu") {
            let cpu = cpu
                .parse()
                .map_err(|_| format!("--server-cpu {cpu:?} is not a CPU number"))?;
            run.server_cpu = Some(cpu);
        }
        return Ok(Cli::Child(run));
    }
    let workloads = match flags.get("--workload").copied() {
        None | Some("all") => WORKLOADS.iter().map(|w| w.to_string()).collect(),
        Some(_) if smoke => return Err("--smoke runs every workload".into()),
        Some(w) => vec![known(w)?],
    };
    let repeat = match flags.get("--repeat") {
        Some(n) => n
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--repeat {n:?} is not a positive integer"))?,
        None => 1,
    };
    Ok(Cli::Parent {
        workloads,
        run,
        repeat,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Restarts the peak-RSS count (`VmHWM`) from the current RSS, so
/// `peak_rss_mb` leaves out the oracle a workload computes first.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// The CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status`; empty when it cannot be read.
fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        })
        .unwrap_or_default()
}

/// Parses a kernel CPU list such as `0-3,8,10-11`.
fn parse_cpu_list(text: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in text.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// A command that runs `exe` on `cpu` alone (through `taskset`), or
/// anywhere when `cpu` is `None`.
pub fn command_on(exe: &Path, cpu: Option<usize>) -> Command {
    match cpu {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.arg("-c").arg(cpu.to_string()).arg(exe);
            cmd
        }
        None => Command::new(exe),
    }
}

/// Removes the `BILLCAP_*` variables the library crates read, so a child
/// measures the default configuration whatever the caller's environment.
pub fn scrub_env(cmd: &mut Command) {
    // detlint-allow(D004): the benchmark scrubs its children's environment; no decision reads it
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BILLCAP_") {
            cmd.env_remove(key);
        }
    }
}

/// A workload child still running this long after it started is stuck:
/// it is killed and its run fails, so the benchmark always ends.
fn child_limit_s(seconds: f64) -> f64 {
    60.0 + 4.0 * seconds
}

/// Reads `child`'s standard output to its end while waiting for it to
/// exit, killing it once it has run `limit_s` seconds.
fn wait_within(mut child: Child, limit_s: f64) -> Result<(String, ExitStatus), String> {
    let pipe = Mutex::new(child.stdout.take());
    let child = Mutex::new(child);
    let text = Mutex::new(String::new());
    let status = Mutex::new(Err("the child was not waited for".to_string()));
    run_workers(2, |w| {
        if w == 0 {
            let pipe = lock(&pipe).take();
            if let Some(mut pipe) = pipe {
                let mut read = String::new();
                // A failed read leaves the text short; the missing result
                // line is reported.
                let _ = pipe.read_to_string(&mut read);
                *lock(&text) = read;
            }
            return;
        }
        let watch = Stopwatch::start();
        loop {
            let polled = lock(&child).try_wait();
            *lock(&status) = match polled {
                Ok(Some(s)) => Ok(s),
                Ok(None) if watch.elapsed_secs() < limit_s => {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
                Ok(None) => {
                    let mut c = lock(&child);
                    let _ = c.kill();
                    let _ = c.wait();
                    Err(format!("killed after {limit_s:.0} s"))
                }
                Err(e) => Err(format!("waiting: {e}")),
            };
            return;
        }
    });
    let status = std::mem::replace(&mut *lock(&status), Err(String::new()))?;
    let text = std::mem::take(&mut *lock(&text));
    Ok((text, status))
}

/// Runs one workload in a child process and reads back its record.
///
/// A serve workload's load generator and server share two vCPUs on the
/// reference machine. Left to the scheduler, their four busy threads
/// settle into placements whose throughput differs by half, and a run
/// keeps the placement it starts with. So the generator is pinned to
/// one allowed CPU and the server to another, as if on separate hosts.
/// An in-process workload is pinned to the second CPU, which it then
/// calibrates alone: the host slows its two vCPUs unequally, and over
/// eight runs of `month-stringent` pinning halved the spread of its
/// times. Without `taskset` or a second CPU the run goes unpinned.
fn run_child(a: &RunArgs) -> Outcome {
    let mut o = Outcome::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            o.problem(format!("current_exe: {e}"));
            return o;
        }
    };
    // The workload child's CPU, and a serve workload's server CPU.
    let pins = match allowed_cpus()[..] {
        [client, server, ..] if a.workload.starts_with("serve-") => Some((client, Some(server))),
        [_, cpu, ..] => Some((cpu, None)),
        _ => None,
    };
    let spawn = |pins: Option<(usize, Option<usize>)>| {
        let mut cmd = command_on(&exe, pins.map(|p| p.0));
        cmd.arg("--child")
            .arg(&a.workload)
            .arg("--seed")
            .arg(a.seed.to_string())
            .arg("--seconds")
            .arg(a.seconds.to_string())
            .arg("--trace")
            .arg(if a.trace { "1" } else { "0" })
            .arg("--out")
            .arg(&a.out)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some((_, Some(server))) = pins {
            cmd.arg("--server-cpu").arg(server.to_string());
        }
        scrub_env(&mut cmd);
        cmd.spawn()
    };
    let (child, pins) = match spawn(pins) {
        Err(e) if pins.is_some() && e.kind() == std::io::ErrorKind::NotFound => (spawn(None), None),
        r => (r, pins),
    };
    let waited = child
        .map_err(|e| e.to_string())
        .and_then(|child| wait_within(child, child_limit_s(a.seconds)));
    let (stdout, status) = match waited {
        Ok(done) => done,
        Err(e) => {
            o.problem(format!("running the {} child: {e}", a.workload));
            return o;
        }
    };
    match stdout.lines().last().map(Outcome::from_child_json) {
        Some(Ok(child)) => o = child,
        Some(Err(e)) => o.problem(e),
        None => o.problem(format!("the {} child printed no result", a.workload)),
    }
    if !status.success() {
        o.problem(format!("the {} child exited with {status}", a.workload));
    }
    o.note(match pins {
        Some((client, Some(server))) => {
            format!("generator on CPU {client}, server on CPU {server}")
        }
        Some((cpu, None)) => format!("workload on CPU {cpu}"),
        None => "unpinned (no taskset or no second CPU)".into(),
    });
    o
}

fn print_run(a: &RunArgs, o: &Outcome) {
    let traced = if a.trace { ", traced" } else { "" };
    println!(
        "== {} (seed {}, {} s{traced}) ==",
        a.workload, a.seed, a.seconds
    );
    for line in &o.notes {
        println!("  {line}");
    }
    let show = |m: &MetricDef, absent: &str| match o.values.get(m.name) {
        Some(v) => println!("  {:<26} {:>14.4} {}", m.name, v, m.unit),
        None => println!("  {:<26} {:>14} {}", m.name, absent, m.unit),
    };
    println!("  -- end to end --");
    for m in &END_TO_END {
        show(m, if a.trace { "n/a" } else { "missing" });
    }
    let fail_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!("  {:<26} {:>14.4} ratio", "fail_frac", fail_frac);
    if a.trace {
        println!("  -- per layer --");
        for m in &PER_LAYER {
            show(m, "n/a");
        }
    }
    let verdict = if o.correct() { "correct" } else { "INCORRECT" };
    println!(
        "  {verdict}: {} attempted, {} failed",
        o.attempted, o.failed
    );
    for p in &o.problems {
        println!("  problem: {p}");
    }
}

/// Prints every metric's median and quartile spread over a workload's
/// repeated runs and returns the medians.
fn print_spread(workload: &str, runs: &[Outcome], names: &[&str]) -> BTreeMap<String, f64> {
    println!("== {workload}: {} runs ==", runs.len());
    println!(
        "  {:<26} {:>12} {:>12} {:>12} {:>8}  unit (better)",
        "metric", "median", "q1", "q3", "spread"
    );
    let mut medians = BTreeMap::new();
    for &name in names {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|o| o.values.get(name).copied())
            .collect();
        if values.len() < runs.len() {
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(&values);
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
        let (unit, better) = match report::lookup(name) {
            Some(m) if m.higher_is_better => (m.unit, "higher"),
            Some(m) => (m.unit, "lower"),
            None => ("", ""),
        };
        println!(
            "  {:<26} {:>12.4} {:>12.4} {:>12.4} {:>7.1}%  {unit} ({better})",
            name,
            q2,
            q1,
            q3,
            100.0 * spread,
        );
        medians.insert(name.to_string(), q2);
    }
    medians
}

fn parent(workloads: &[String], run: &RunArgs, repeat: u64) -> ExitCode {
    let watch = Stopwatch::start();
    let group: &[MetricDef] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(if run.trace { &PER_LAYER[..] } else { &[] })
        .map(|m| m.name)
        .collect();
    let mut all: Vec<(String, Vec<Outcome>)> = Vec::new();
    for w in workloads {
        let mut runs = Vec::new();
        for r in 0..repeat {
            let a = RunArgs {
                workload: w.clone(),
                seed: run.seed.wrapping_add(r),
                seconds: run.seconds,
                trace: run.trace,
                out: run.out.clone(),
                server_cpu: None,
            };
            let o = run_child(&a);
            print_run(&a, &o);
            runs.push(o);
        }
        all.push((w.clone(), runs));
    }

    let correct = all.iter().flat_map(|(_, r)| r).all(Outcome::correct);
    if let [(_, runs)] = all.as_mut_slice() {
        if let [one] = runs.as_mut_slice() {
            // The single-run result line.
            println!("{}", one.result_json(run.trace));
            return exit_code(one.correct());
        }
    }
    let mut metrics = Vec::new();
    for (w, runs) in &all {
        let medians = if repeat > 1 {
            print_spread(w, runs, &names)
        } else {
            runs[0].values.clone()
        };
        for m in group {
            if let Some(v) = medians.get(m.name) {
                metrics.push((
                    format!("{w}/{}", m.name),
                    Value::Obj(vec![
                        ("value".into(), Value::Float(*v)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                ));
            }
        }
    }
    let runs = all.iter().flat_map(|(_, r)| r);
    let attempted: u64 = runs.clone().map(|o| o.attempted).sum();
    let failed: u64 = runs.map(|o| o.failed).sum();
    eprintln!("billbench: {:.1} s", watch.elapsed_secs());
    println!(
        "{}",
        Value::Obj(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::Int(attempted.max(1) as i64)),
            ("failed".into(), Value::Int(failed as i64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .render()
    );
    exit_code(correct)
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The server child: serves one connection, then prints its peak memory
/// (and writes its trace, when traced) for the workload child to read.
fn serve_child(socket: &Path, trace_out: Option<&Path>) -> Result<(), String> {
    billcap_obs::set_enabled(trace_out.is_some());
    let cfg = billcap_serve::ServeConfig {
        workers: 1,
        ..billcap_serve::ServeConfig::default()
    };
    billcap_serve::serve_unix(&cfg, socket, true)
        .map_err(|e| format!("serving on {}: {e}", socket.display()))?;
    if let Some(path) = trace_out {
        let mut snap = billcap_obs::snapshot();
        snap.events.clear();
        std::fs::write(path, billcap_obs::export::to_jsonl(&snap))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mb = peak_rss_mb()?;
    println!(
        "{}",
        Value::Obj(vec![("vmhwm_kb".into(), Value::Float(mb * 1024.0))]).render()
    );
    Ok(())
}

fn main() -> ExitCode {
    // detlint-allow(D004): command-line arguments of the benchmark binary; no decision reads them
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("billbench: {e}");
            return ExitCode::from(2);
        }
    };
    match cli {
        Cli::Calibrate => {
            println!("{}", calib::kernel_ns());
            ExitCode::SUCCESS
        }
        Cli::ServeChild { socket, trace_out } => match serve_child(&socket, trace_out.as_deref()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("billbench server: {e}");
                ExitCode::FAILURE
            }
        },
        Cli::Child(a) => {
            billcap_obs::set_enabled(false);
            let o = match a.workload.as_str() {
                "serve-fleets" => serve::serve_workload(&a, false),
                "serve-hot" => serve::serve_workload(&a, true),
                "month-stringent" => inproc::month_workload(&a),
                _ => inproc::risk_workload(&a),
            };
            println!("{}", o.to_child_json());
            ExitCode::SUCCESS
        }
        Cli::Parent {
            workloads,
            run,
            repeat,
        } => parent(&workloads, &run, repeat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn harness_arguments_parse() {
        let Ok(Cli::Parent {
            workloads,
            run,
            repeat,
        }) = cli(&[
            "--workload",
            "serve-hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        else {
            panic!("parent mode");
        };
        assert_eq!(workloads, ["serve-hot"]);
        assert_eq!(
            (run.seed, run.seconds, run.trace, repeat),
            (7, 10.0, true, 1)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--smoke", "--seconds", "3"],
            &["--repeat", "0"],
            &["--frobnicate"],
            &["--calibrate", "--seed", "1"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn calibrate_stands_alone() {
        assert!(matches!(cli(&["--calibrate"]), Ok(Cli::Calibrate)));
    }

    #[test]
    fn stuck_children_are_killed() {
        let echo = Command::new("echo")
            .arg("done")
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let (text, status) = wait_within(echo, 10.0).unwrap();
        assert_eq!((text.as_str(), status.success()), ("done\n", true));
        let sleeper = Command::new("sleep")
            .arg("30")
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let watch = Stopwatch::start();
        let err = wait_within(sleeper, 0.2).unwrap_err();
        assert!(err.starts_with("killed after"), "{err}");
        assert!(watch.elapsed_secs() < 5.0);
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list(" 0-2,8,10-11"), [0, 1, 2, 8, 10, 11]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn smoke_runs_every_workload_traced() {
        let Ok(Cli::Parent { workloads, run, .. }) = cli(&["--smoke"]) else {
            panic!("parent mode");
        };
        assert_eq!(workloads.len(), WORKLOADS.len());
        assert!(run.trace);
        assert_eq!(run.seconds, SMOKE_SECONDS);
    }
}
