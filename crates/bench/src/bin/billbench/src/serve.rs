//! The serve workloads: open-loop Poisson traffic over one Unix-socket
//! connection into a server child running `billcap_serve::serve_unix`
//! with one decision worker, the configuration of
//! `billcap serve --socket P --once --workers 1`.
//!
//! * `serve-fleets` cycles through 5,760 distinct requests (eight
//!   720-hour fleets, interleaved hour by hour) against a 744-entry
//!   decision cache, so nearly every request is solved:
//!   decode → queue → cache miss → engine → milp → render.
//! * `serve-hot` draws uniformly from 256 distinct hours after a pass
//!   that fills the cache, so the solve is bypassed and framing, JSON,
//!   queueing and thread wake-ups are the whole cost.

use crate::calib::Speeds;
use crate::ledger::record_traced;
use crate::loadgen::{rung_passes, session, Ladder, Order, Pacer, PhaseStats, Spliced, Target};
use crate::report::Outcome;
use crate::stats::{mean, median, rank, sorted};
use crate::RunArgs;
use billcap_core::HourDecision;
use billcap_obs::json::Value;
use billcap_obs::{MetricsDoc, Stopwatch, TraceSnapshot};
use billcap_rt::try_par_map_threads;
use billcap_serve::{build_plan, DecisionMsg, Request};
use billcap_sim::Scenario;
use std::hint::black_box;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Stdio};
use std::time::Duration;

/// Fleets served: policies 1–3 cycled, scenario seeds `seed..seed + 8`.
const FLEETS: usize = 8;
/// Hours per fleet plan.
const HOURS: usize = 720;
/// Hours per fleet in the hot set: 8 × 32 = 256 distinct requests,
/// fewer than the cache's 744 entries.
const HOT_HOURS: usize = 32;
/// The latency objective of the ladder: p99 within 10 ms.
const P99_LIMIT_MS: f64 = 10.0;
/// A fixed-rate phase whose sends ran later than this at the p99 is
/// marked invalid: the generator, not the server, set its latency.
const LAG_LIMIT_US: f64 = 1000.0;

/// Requests kept outstanding while measuring capacity: enough queued
/// work that the server never idles between the pacer's top-ups.
const CAPACITY_DEPTH: u64 = 256;
/// The ladder's first rung, as a share of the measured capacity: close
/// enough below the knee that a few rungs bracket it.
const LADDER_START: f64 = 0.7;

/// Requests written at once in a burst, as when many fleets ask at the
/// top of the hour. Half a burst's requests wait behind 128 others, so
/// the median latency is mostly decision work, which calibration scales,
/// and little thread wake-up, which it cannot: at the low rate a request
/// waits behind no other, and wake-ups on the shared host moved its
/// median latency by a third from one run to the next.
const BURST: u64 = 256;

/// An untraced run alternates burst and capacity blocks, calibrating the
/// server CPU's speed between blocks. Interleaving spreads both
/// measurements over the whole run, so a slow stretch of the machine
/// touches both alike. The host's speed changes within a second, so the
/// blocks are short: a calibration on either side of a block tracks its
/// speed better the less time lies between them.
const BLOCKS: usize = 40;
/// Timed set-ups of another server, one before every fourth pair of
/// blocks: whatever slows a fresh server lasts seconds, so set-ups made
/// back to back would share it.
const SETUPS: usize = 10;
/// Shares of an untraced run's seconds.
const BURST_SHARE: f64 = 0.4;
const CAPACITY_SHARE: f64 = 0.6;
/// Shares of a traced run's seconds: the low rate untraced, the high
/// rate, a short capacity probe that places the ladder's first rung,
/// the ladder (at most its share), and the low rate against a traced
/// server.
const TRACED_LO_SHARE: f64 = 0.2;
const HI_SHARE: f64 = 0.2;
const PROBE_SHARE: f64 = 0.05;
const LADDER_SHARE: f64 = 0.25;
const TRACED_SHARE: f64 = 0.2;

/// The fixed open-loop rates, req/s. Measured at seed 42 on the 2-core
/// reference machine (see the README), then frozen: the low rate keeps
/// the server mostly idle, the high one sits well below the knee.
struct Rates {
    lo: f64,
    hi: f64,
}
const FLEETS_RATES: Rates = Rates {
    lo: 2_000.0,
    hi: 6_000.0,
};
const HOT_RATES: Rates = Rates {
    lo: 5_000.0,
    hi: 30_000.0,
};

/// Runs `serve-fleets` (`hot == false`) or `serve-hot`.
pub fn serve_workload(a: &RunArgs, hot: bool) -> Outcome {
    let mut o = Outcome::default();
    if let Err(e) = serve_inner(&mut o, a, hot) {
        o.problem(e);
    }
    o
}

fn serve_inner(o: &mut Outcome, a: &RunArgs, hot: bool) -> Result<(), String> {
    let rates = if hot { HOT_RATES } else { FLEETS_RATES };
    let watch = Stopwatch::start();
    let (requests, expected) = oracle(a.seed, if hot { HOT_HOURS } else { HOURS })?;
    o.set("bench.oracle_s", watch.elapsed_secs());
    let payloads = requests
        .iter()
        .map(Spliced::new)
        .collect::<Result<Vec<_>, _>>()?;
    let target = Target {
        payloads: &payloads,
        expected: &expected,
        order: if hot {
            Order::Uniform(a.seed)
        } else {
            Order::Cyclic
        },
    };
    if a.trace {
        protocol_costs(o, &requests, &expected);
    }
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;

    let epoch = Stopwatch::start();
    let (server, stream) = Server::launch(a, "m", false)?;
    let s = session(stream, &target, epoch, a.seed, |p| {
        measured_script(p, &rates, a.seconds, a.trace, a.server_cpu, &|| {
            set_up(a, &target)
        })
    });
    o.absorb(s.sent, s.sent - s.ok, s.problems);
    let (peak_mb, _) = server.finish()?;
    let mut m = s.result?;
    let last = s.last_scrape.ok_or("no final scrape")?;
    if !m.setups.is_empty() {
        let mut setups = Vec::with_capacity(m.setups.len());
        for (su, f) in std::mem::take(&mut m.setups) {
            o.absorb(su.sent, su.failed, su.problems);
            setups.push(su.secs * f);
        }
        o.set("setup_s", median(&setups));
        o.note(format!("set-ups (s, at reference speed): {setups:.4?}"));
    }
    o.set("peak_rss_mb", peak_mb);
    o.set("bench.speed_factor", m.speed);
    o.set("loadgen.sent", s.sent as f64);
    o.set("loadgen.answered", s.ok as f64);

    if !m.bursts.is_empty() {
        let all = pooled(&m.bursts);
        o.set("p50_ms", rank(&all, 0.5));
        o.note(format!(
            "bursts of {BURST}: {} blocks, {} requests, p50 {:.3} ms, p99 {:.3} ms \
             (at reference speed; this machine ran at {:.3}x)",
            m.bursts.len(),
            all.len(),
            rank(&all, 0.5),
            rank(&all, 0.99),
            m.speed
        ));
    }
    let lo = pooled(&m.lo);
    if !lo.is_empty() {
        o.set("loadgen.p50_lo_ms", rank(&lo, 0.5));
        let block_p99: Vec<f64> = m.lo.iter().map(|(b, f)| b.p99_ms() * f).collect();
        o.set("latency.tail_ms", median(&block_p99));
        o.note(format!(
            "lo {:.0}/s: {} requests, p50 {:.3} ms, p99 {:.3} ms (at reference speed; \
             this machine ran at {:.3}x)",
            rates.lo,
            lo.len(),
            rank(&lo, 0.5),
            rank(&lo, 0.99),
            m.speed
        ));
    }
    if !m.capacity.is_empty() {
        // The mean, not the median: block rates scatter unevenly (a few
        // blocks run far faster than the rest), and over sixteen runs the
        // mean of a run's blocks varied less between runs than their
        // median did.
        let cap: Vec<f64> = m.capacity.iter().map(|(b, f)| b.rate / f).collect();
        o.set("rate_per_s", mean(&cap));
        let c = sorted(&cap);
        o.note(format!(
            "capacity at depth {CAPACITY_DEPTH}: {} blocks, min {:.0} mean {:.0} max {:.0} req/s \
             (at reference speed)",
            c.len(),
            c[0],
            mean(&c),
            c[c.len() - 1]
        ));
    }

    let paced = m.lo.iter().chain(&m.hi).map(|(b, _)| b);
    o.set(
        "loadgen.lag_p99_us",
        paced.clone().fold(0.0, |acc: f64, b| acc.max(b.lag_p99_us)),
    );
    let invalid = paced.filter(|b| b.lag_p99_us > LAG_LIMIT_US).count();
    o.set("loadgen.invalid_phases", invalid as f64);
    let blocks = m.lo.iter().chain(&m.bursts).chain(&m.capacity).chain(&m.hi);
    for phase in blocks.map(|(b, _)| b).chain(&m.rungs) {
        let mut line = phase.line();
        if phase.lag_p99_us > LAG_LIMIT_US {
            line.push_str("  INVALID: generator lag p99 over 1 ms");
        }
        o.note(line);
    }
    if let Some((hi, f)) = &m.hi {
        o.set("loadgen.p50_hi_ms", hi.p50_ms() * f);
        o.set("loadgen.p99_hi_ms", hi.p99_ms() * f);
        let ladder = match m.max_rate {
            Some(r) => {
                o.set("loadgen.max_rate_rps", r);
                let bound = if m.bracketed {
                    ""
                } else {
                    " (ran out of time: a lower bound)"
                };
                format!("ladder: max rate {r:.0} req/s{bound}")
            }
            None => "ladder: no rung met p99 <= 10 ms without a backlog".into(),
        };
        o.note(ladder);
    }
    scrape_metrics(o, &m, &last);

    if a.trace {
        let epoch = Stopwatch::start();
        let (server, stream) = Server::launch(a, "t", true)?;
        let s = session(stream, &target, epoch, a.seed, |p| {
            p.warm()?;
            let mut speeds = Speeds::default();
            speeds.mark_on(a.server_cpu)?;
            let traced = p.fixed("traced", rates.lo, TRACED_SHARE * a.seconds)?;
            speeds.mark_on(a.server_cpu)?;
            Ok((traced, speeds.block(0)))
        });
        o.absorb(s.sent, s.sent - s.ok, s.problems);
        let (_, snap) = server.finish()?;
        let (traced, f) = s.result?;
        o.note(traced.line());
        o.set(
            "obs.trace_overhead_pct",
            100.0 * (traced.p50_ms() * f / rank(&lo, 0.5) - 1.0),
        );
        let snap = snap.ok_or("traced server wrote no trace")?;
        record_traced(o, &snap, 1.0, &a.out.join(&a.workload), &a.workload);
    }
    Ok(())
}

/// One timed set-up: how long a fresh server child took from spawn until
/// it had answered one pass over every distinct request (until then it
/// is still building engine models and filling its cache), and what the
/// set-up's own session counted.
struct SetUp {
    secs: f64,
    sent: u64,
    failed: u64,
    problems: Vec<String>,
}

fn set_up(a: &RunArgs, target: &Target) -> Result<SetUp, String> {
    let epoch = Stopwatch::start();
    let (server, stream) = Server::launch(a, "s", false)?;
    let s = session(stream, target, epoch, a.seed, |p| {
        p.warm()?;
        Ok(p.now_ns())
    });
    server.finish()?;
    Ok(SetUp {
        secs: s.result? as f64 / 1e9,
        sent: s.sent,
        failed: s.sent - s.ok,
        problems: s.problems,
    })
}

/// Every latency of `blocks`, each scaled by its block's speed factor,
/// sorted.
fn pooled(blocks: &[(PhaseStats, f64)]) -> Vec<f64> {
    let all: Vec<f64> = blocks
        .iter()
        .flat_map(|(b, f)| b.latency_ms.iter().map(move |l| l * f))
        .collect();
    sorted(&all)
}

/// The fleets' requests and the decisions they must return: eight
/// `build_plan` plans (fresh `BillCapper` per hour, stringent monthly
/// budget), interleaved hour by hour and cut at `hours` per fleet.
fn oracle(seed: u64, hours: usize) -> Result<(Vec<Request>, Vec<HourDecision>), String> {
    let fleets: Vec<(usize, u64)> = (0..FLEETS)
        .map(|f| (1 + f % 3, seed.wrapping_add(f as u64)))
        .collect();
    let plans = try_par_map_threads(&fleets, 2, |&(policy, s)| {
        build_plan(policy, s, HOURS, Some(Scenario::STRINGENT_BUDGET))
    })
    .map_err(|e| format!("build_plan: {e}"))?;
    let mut requests = Vec::with_capacity(FLEETS * hours);
    let mut expected = Vec::with_capacity(FLEETS * hours);
    for t in 0..hours {
        for plan in &plans {
            requests.push(plan.requests[t].clone());
            expected.push(plan.expected[t].clone());
        }
    }
    Ok((requests, expected))
}

/// What the measured session saw. Each block carries the speed factor
/// that scales its times to the reference machine.
struct Measured {
    /// Timed set-ups; an untraced run only.
    setups: Vec<(SetUp, f64)>,
    after_warm: MetricsDoc,
    /// Low-rate blocks; a traced run only.
    lo: Vec<(PhaseStats, f64)>,
    /// Burst and capacity blocks; an untraced run only.
    bursts: Vec<(PhaseStats, f64)>,
    capacity: Vec<(PhaseStats, f64)>,
    /// The high fixed rate and the ladder run only in traced runs.
    hi: Option<(PhaseStats, f64)>,
    rungs: Vec<PhaseStats>,
    max_rate: Option<f64>,
    bracketed: bool,
    hi_scrapes: Vec<MetricsDoc>,
    all_scrapes: Vec<MetricsDoc>,
    /// Median speed factor over the session.
    speed: f64,
}

/// Warm-up, then: untraced, [`BLOCKS`] pairs of a burst block and a
/// capacity block, each pair after a timed set-up of another server;
/// traced, the low rate, the high rate, a capacity probe and the
/// ladder, which starts at [`LADDER_START`] of the probe's rate and runs
/// within its share of the time.
fn measured_script(
    p: &mut Pacer,
    rates: &Rates,
    secs: f64,
    traced: bool,
    cpu: Option<usize>,
    set_up: &dyn Fn() -> Result<SetUp, String>,
) -> Result<Measured, String> {
    p.warm()?;
    let warm_done_ns = p.now_ns();
    let after_warm = p.scrape_now()?;
    let mut speeds = Speeds::default();
    let (mut lo, mut bursts, mut capacity) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hi, mut setups) = (None, Vec::new());
    let (mut rungs, mut hi_window) = (Vec::new(), (0, 0));
    let (mut max_rate, mut bracketed) = (None, false);
    if traced {
        let b = speeds.mark_on(cpu)?;
        lo.push((p.fixed("lo", rates.lo, TRACED_LO_SHARE * secs)?, b));
        let b = speeds.mark_on(cpu)?;
        let h = p.fixed("hi", rates.hi, HI_SHARE * secs)?;
        hi_window = (h.start_ns, h.end_ns);
        hi = Some((h, b));
        speeds.mark_on(cpu)?;
        let probe = p.saturate(CAPACITY_DEPTH, PROBE_SHARE * secs)?;
        let mut ladder = Ladder::new(LADDER_START * probe.rate, rates.lo);
        let rung_secs = (0.1 * secs).clamp(0.15, 0.5);
        let deadline = p.now_ns() + (LADDER_SHARE * secs * 1e9) as u64;
        while let Some(rate) = ladder.next_rate() {
            if !rungs.is_empty() && p.now_ns() + (rung_secs * 1e9) as u64 > deadline {
                break;
            }
            let rung = p.fixed("rung", rate, rung_secs)?;
            ladder.record(
                rate,
                rung_passes(rate, rung.p99_ms(), rung.outstanding, P99_LIMIT_MS),
            );
            rungs.push(rung);
        }
        (max_rate, bracketed) = (ladder.best(), ladder.bracketed());
    } else {
        let block_secs = secs / BLOCKS as f64;
        for k in 0..BLOCKS {
            if k % (BLOCKS / SETUPS) == 0 {
                let b = speeds.mark_on(cpu)?;
                setups.push((set_up()?, b));
            }
            let b = speeds.mark_on(cpu)?;
            bursts.push((p.bursts(BURST, BURST_SHARE * block_secs)?, b));
            let b = speeds.mark_on(cpu)?;
            capacity.push((p.saturate(CAPACITY_DEPTH, CAPACITY_SHARE * block_secs)?, b));
        }
    }
    speeds.mark_on(cpu)?;
    let scale = |blocks: Vec<(PhaseStats, usize)>| -> Vec<(PhaseStats, f64)> {
        blocks
            .into_iter()
            .map(|(s, b)| (s, speeds.block(b)))
            .collect()
    };
    Ok(Measured {
        setups: setups
            .into_iter()
            .map(|(su, b)| (su, speeds.block(b)))
            .collect(),
        hi_scrapes: p.scrapes_between(hi_window.0, hi_window.1),
        all_scrapes: p.scrapes_between(warm_done_ns, p.now_ns()),
        after_warm,
        lo: scale(lo),
        bursts: scale(bursts),
        capacity: scale(capacity),
        hi: hi.map(|(s, b)| (s, speeds.block(b))),
        rungs,
        max_rate,
        bracketed,
        speed: speeds.median(),
    })
}

/// Server-side metrics from the in-band scrapes: latency quantiles
/// during the high-rate phase, the deepest queue seen, the final exact
/// counters, and cache behaviour after warm-up.
fn scrape_metrics(o: &mut Outcome, m: &Measured, last: &MetricsDoc) {
    let quantile = |series: &str, p99: bool| {
        let v: Vec<f64> = m
            .hi_scrapes
            .iter()
            .filter_map(|d| d.latency.get(series))
            .filter(|q| q.count > 0)
            .map(|q| if p99 { q.p99 } else { q.p50 })
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    o.set("server.request_us_p50", quantile("request_us", false));
    o.set("server.request_us_p99", quantile("request_us", true));
    o.set("server.solve_us_p50", quantile("solve_us", false));
    o.set("server.solve_us_p99", quantile("solve_us", true));
    let backlog = m
        .all_scrapes
        .iter()
        .filter_map(|d| d.gauges.get("serve.queue_depth"))
        .fold(0.0, |a: f64, &b| a.max(b));
    o.set("server.backlog_max", backlog);
    let count = |d: &MetricsDoc, k: &str| d.counters.get(k).copied().unwrap_or(0);
    for (metric, key) in [
        ("server.requests", "serve.requests"),
        ("server.decisions", "serve.decisions"),
        ("server.errors", "serve.errors"),
    ] {
        o.set(metric, count(last, key) as f64);
    }
    let delta = |k: &str| count(last, k).saturating_sub(count(&m.after_warm, k));
    let (hits, misses) = (delta("serve.cache.hit"), delta("serve.cache.miss"));
    if hits + misses > 0 {
        o.set("cache.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    o.set("cache.evictions", delta("serve.cache.evict") as f64);
}

/// Times `Request::parse` and the decision-response render over the
/// workload's own frames: ns per frame, and mean payload bytes.
fn protocol_costs(o: &mut Outcome, requests: &[Request], expected: &[HourDecision]) {
    const ROUNDS: usize = 5;
    const MIN_FRAMES: usize = 8192;
    let frames: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Request {
                id: i as u64,
                ..r.clone()
            }
            .to_value()
            .render()
        })
        .collect();
    let passes = MIN_FRAMES.div_ceil(frames.len().max(1));
    let per_frame = (passes * frames.len()) as f64;
    let (mut decode, mut render) = (Vec::new(), Vec::new());
    let mut resp_bytes = 0;
    for _ in 0..ROUNDS {
        let watch = Stopwatch::start();
        for _ in 0..passes {
            for f in &frames {
                if black_box(Request::parse(black_box(f.as_bytes()))).is_err() {
                    o.problem("a rendered request failed to parse");
                }
            }
        }
        decode.push(watch.elapsed_ns() as f64 / per_frame);
        let watch = Stopwatch::start();
        resp_bytes = 0;
        for _ in 0..passes {
            for (i, d) in expected.iter().enumerate() {
                let msg = DecisionMsg::from_decision(i as u64, d, false);
                resp_bytes += black_box(msg.to_value().render()).len();
            }
        }
        render.push(watch.elapsed_ns() as f64 / per_frame);
    }
    let req_bytes: usize = frames.iter().map(String::len).sum();
    o.set("protocol.decode_ns", median(&decode));
    o.set("protocol.render_ns", median(&render));
    o.set(
        "protocol.req_bytes",
        req_bytes as f64 / frames.len().max(1) as f64,
    );
    o.set("protocol.resp_bytes", resp_bytes as f64 / per_frame);
}

/// A server child: `billbench --serve-child SOCKET [--trace-out FILE]`.
/// Dropping it kills a child that is still running and removes its files.
struct Server {
    child: Option<Child>,
    socket: PathBuf,
    trace: Option<PathBuf>,
}

impl Server {
    /// Starts a server child, on the run's server CPU when it has one,
    /// and connects to it. The socket path stays
    /// relative to the working directory, within the 108-byte limit of a
    /// Unix socket address however deep the checkout lies.
    fn launch(a: &RunArgs, tag: &str, traced: bool) -> Result<(Server, UnixStream), String> {
        let pid = std::process::id();
        let socket = a.out.join(format!("{tag}-{pid}.sock"));
        let trace = traced.then(|| a.out.join(format!("{tag}-{pid}.trace.jsonl")));
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = crate::command_on(&exe, a.server_cpu);
        cmd.arg("--serve-child").arg(&socket);
        if let Some(t) = &trace {
            cmd.arg("--trace-out").arg(t);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        crate::scrub_env(&mut cmd);
        let child = cmd
            .spawn()
            .map_err(|e| format!("starting the server: {e}"))?;
        let mut server = Server {
            child: Some(child),
            socket,
            trace,
        };
        let stream = server.connect()?;
        Ok((server, stream))
    }

    /// Connects once the child has bound its socket.
    fn connect(&mut self) -> Result<UnixStream, String> {
        let watch = Stopwatch::start();
        loop {
            let err = match UnixStream::connect(&self.socket) {
                Ok(s) => return Ok(s),
                Err(e) => e,
            };
            if let Some(Ok(Some(status))) = self.child.as_mut().map(Child::try_wait) {
                return Err(format!("server exited ({status}) before accepting"));
            }
            if watch.elapsed_secs() > 10.0 {
                return Err(format!("connecting to {}: {err}", self.socket.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Waits for the child to exit after its connection closed, and
    /// returns its peak RSS (MB) and, for a traced server, its trace.
    fn finish(mut self) -> Result<(f64, Option<TraceSnapshot>), String> {
        let mut child = self.child.take().ok_or("server already finished")?;
        let watch = Stopwatch::start();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if watch.elapsed_secs() < 30.0 => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after its connection closed".into());
                }
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        };
        let mut stdout = String::new();
        if let Some(mut pipe) = child.stdout.take() {
            pipe.read_to_string(&mut stdout)
                .map_err(|e| format!("server stdout: {e}"))?;
        }
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        let report = Value::parse(stdout.trim()).map_err(|e| format!("server report: {e}"))?;
        let kb = report
            .get("vmhwm_kb")
            .and_then(Value::as_f64)
            .ok_or("server report lacks vmhwm_kb")?;
        let snap = match &self.trace {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                Some(
                    billcap_obs::export::parse_jsonl(&text)
                        .map_err(|e| format!("server trace: {e}"))?,
                )
            }
            None => None,
        };
        Ok((kb / 1024.0, snap))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
        if let Some(t) = &self.trace {
            let _ = std::fs::remove_file(t);
        }
    }
}
