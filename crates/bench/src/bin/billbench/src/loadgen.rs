//! The open-loop load generator: one Unix-socket connection, a sender
//! thread that paces Poisson arrivals by sleeping, and a receiver thread
//! that timestamps and verifies every response.
//!
//! Latency runs from each request's *intended* send time, so a stall
//! that delays later sends is charged to them instead of vanishing (no
//! coordinated omission). A request that is never answered, answered
//! with an error, or answered with a decision that is not bitwise equal
//! to its oracle counts as +∞.
//!
//! The pacer only sleeps. A spinning pacer would take a core from the
//! server on a two-core machine and slow what it measures.

use crate::stats::{rank, sorted};
use billcap_core::HourDecision;
use billcap_obs::{MetricsDoc, Stopwatch};
use billcap_rt::{run_workers, Rng, SeedStream, Xoshiro256pp};
use billcap_serve::{read_frame, write_frame, ControlMsg, Request, Response, MAX_FRAME};
use std::io::{BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Interval between in-band `metrics` scrapes, as `billcap watch` sends them.
const SCRAPE_EVERY_NS: u64 = 250_000_000;
/// A wait for responses gives up after this long without progress.
const STALL_NS: u64 = 2_000_000_000;
/// Sleep between checks while waiting for responses.
const POLL: Duration = Duration::from_millis(1);
/// A phase's first arrival is due this long after its schedule is drawn.
const LEAD_NS: u64 = 1_000_000;

/// Arrival offsets, ns from the phase start, of `count` Poisson arrivals
/// at `rate` per second. The same seed gives the same schedule.
pub fn poisson_schedule(rate: f64, count: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate * 1e9;
            t as u64
        })
        .collect()
}

/// A request payload pre-rendered around its `id`, so a send costs a
/// copy and an integer format instead of a JSON render.
pub struct Spliced {
    head: Vec<u8>,
    tail: Vec<u8>,
}

impl Spliced {
    /// Renders `req` once with id 0 and splits the payload at the id.
    pub fn new(req: &Request) -> Result<Spliced, String> {
        let text = Request {
            id: 0,
            ..req.clone()
        }
        .to_value()
        .render();
        let cut = text
            .find("\"id\":0")
            .map(|p| p + "\"id\":".len())
            .filter(|&c| !text[c + 1..].starts_with(|ch: char| ch.is_ascii_digit()))
            .ok_or_else(|| format!("request render has no splittable id: {text}"))?;
        Ok(Spliced {
            head: text.as_bytes()[..cut].to_vec(),
            tail: text.as_bytes()[cut + 1..].to_vec(),
        })
    }

    /// Appends the frame of this request under id `seq` to `out`.
    fn frame_into(&self, seq: u64, out: &mut Vec<u8>) {
        let mut digits = [0u8; 20];
        let mut n = 0;
        let mut rest = seq;
        loop {
            digits[n] = b'0' + (rest % 10) as u8;
            n += 1;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let len = self.head.len() + n + self.tail.len();
        out.extend_from_slice(&(len as u32).to_be_bytes());
        out.extend_from_slice(&self.head);
        out.extend(digits[..n].iter().rev());
        out.extend_from_slice(&self.tail);
    }
}

/// Which oracle entry request `seq` carries.
#[derive(Clone, Copy)]
pub enum Order {
    /// Entries in order, wrapping around.
    Cyclic,
    /// One pass in order, then uniform draws keyed by `(seed, seq)`.
    Uniform(u64),
}

/// The requests a session may send and the decisions they must return.
pub struct Target<'a> {
    pub payloads: &'a [Spliced],
    pub expected: &'a [HourDecision],
    pub order: Order,
}

impl Target<'_> {
    /// The oracle entry of request `seq`.
    pub fn entry(&self, seq: u64) -> usize {
        let n = self.payloads.len() as u64;
        let i = match self.order {
            Order::Uniform(seed) if seq >= n => SeedStream::new(seed).seed(seq) % n,
            _ => seq % n,
        };
        i as usize
    }
}

/// One received answer to a data request.
struct Reply {
    seq: u64,
    at_ns: u64,
    ok: bool,
}

/// State the sender and receiver share.
struct Shared {
    epoch: Stopwatch,
    /// Data requests answered (decisions and errors).
    answered: AtomicU64,
    /// Data requests answered with an error.
    errors: AtomicU64,
    /// The receiver saw end of stream.
    closed: AtomicBool,
    replies: Mutex<Vec<Reply>>,
    scrapes: Mutex<Vec<(u64, u64, MetricsDoc)>>,
    problems: Mutex<Vec<String>>,
}

/// Locks `m`, recovering the data if a panicking thread held it: every
/// update under these locks is a single push, take or assignment.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn problem(&self, message: String) {
        let mut p = lock(&self.problems);
        if p.len() < 20 {
            p.push(message);
        }
    }

    fn reply(&self, seq: u64, at_ns: u64, ok: bool) {
        lock(&self.replies).push(Reply { seq, at_ns, ok });
        self.answered.fetch_add(1, Ordering::SeqCst);
    }
}

/// Splits a response frame at its first `"id":<digits>` field: the id,
/// and the bytes before and after the digits.
fn split_id(frame: &[u8]) -> Option<(u64, &[u8], &[u8])> {
    const KEY: &[u8] = b"\"id\":";
    let start = frame.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = frame[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    let text = std::str::from_utf8(&frame[start..start + digits]).ok()?;
    Some((
        text.parse().ok()?,
        &frame[..start],
        &frame[start + digits..],
    ))
}

/// Reads every response until end of stream. A decision frame equal,
/// apart from its id, to one already checked for the same entry is
/// verified by that comparison; any other frame is parsed, and a
/// decision is checked with `DecisionMsg::bitwise_matches`.
fn receive(stream: UnixStream, target: &Target, shared: &Shared) {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut verified: Vec<Vec<Vec<u8>>> = vec![Vec::new(); target.payloads.len()];
    loop {
        let frame = match read_frame(&mut reader, MAX_FRAME) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(e) => {
                shared.problem(format!("response stream: {e}"));
                break;
            }
        };
        let at_ns = shared.epoch.elapsed_ns();
        if let Some((seq, before, after)) = split_id(&frame) {
            let known = verified[target.entry(seq)].iter().any(|k| {
                k.len() == before.len() + after.len()
                    && k[..before.len()] == *before
                    && k[before.len()..] == *after
            });
            if known {
                shared.reply(seq, at_ns, true);
                continue;
            }
        }
        match Response::parse(&frame) {
            Ok(Response::Decision(msg)) => {
                let entry = target.entry(msg.id);
                let ok = match msg.bitwise_matches(&target.expected[entry]) {
                    Ok(()) => true,
                    Err(e) => {
                        shared.problem(format!("request {}: {e}", msg.id));
                        false
                    }
                };
                if let (true, Some((_, before, after))) = (ok, split_id(&frame)) {
                    verified[entry].push([before, after].concat());
                }
                shared.reply(msg.id, at_ns, ok);
            }
            Ok(Response::Error {
                id: Some(seq),
                message,
            }) => {
                shared.errors.fetch_add(1, Ordering::SeqCst);
                shared.problem(format!("request {seq}: server error: {message}"));
                shared.reply(seq, at_ns, false);
            }
            Ok(Response::Metrics { id, doc }) => {
                lock(&shared.scrapes).push((id.unwrap_or(u64::MAX), at_ns, doc));
            }
            Ok(other) => shared.problem(format!("unexpected response {other:?}")),
            Err(e) => shared.problem(format!("unparseable response: {e}")),
        }
    }
    shared.closed.store(true, Ordering::SeqCst);
}

/// Measurements of one phase of paced (or back-to-back) requests.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub name: &'static str,
    /// Target rate, req/s (0 for a back-to-back warm-up); for a
    /// saturated phase, the measured answer rate.
    pub rate: f64,
    pub sent: u64,
    /// Requests answered with a verified decision.
    pub ok: u64,
    /// Every request's latency, ms, sorted, +∞ for a failure.
    pub latency_ms: Vec<f64>,
    /// 99th percentile of how late the pacer sent, µs.
    pub lag_p99_us: f64,
    /// Requests still unanswered when the phase's last one was sent.
    pub outstanding: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl PhaseStats {
    pub fn p50_ms(&self) -> f64 {
        rank(&self.latency_ms, 0.5)
    }

    pub fn p99_ms(&self) -> f64 {
        rank(&self.latency_ms, 0.99)
    }

    pub fn line(&self) -> String {
        format!(
            "{:<8} {:>7.0}/s sent {:>7} ok {:>7}  p50 {:>7.3} ms  p99 {:>7.3} ms  lag p99 {:>6.0} us  backlog {}",
            self.name,
            self.rate,
            self.sent,
            self.ok,
            self.p50_ms(),
            self.p99_ms(),
            self.lag_p99_us,
            self.outstanding
        )
    }
}

/// The sender's half of a session: paces requests, sends scrapes,
/// waits for answers and summarizes phases.
pub struct Pacer<'a> {
    out: UnixStream,
    target: &'a Target<'a>,
    shared: &'a Shared,
    seed: u64,
    next_seq: u64,
    phases: u64,
    ok_total: u64,
    next_scrape_ns: u64,
    scrape_ids: u64,
    buf: Vec<u8>,
}

impl<'a> Pacer<'a> {
    /// Nanoseconds since the session epoch.
    pub fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed_ns()
    }

    fn flush(&mut self) -> Result<(), String> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let sent = self.out.write_all(&self.buf);
        self.buf.clear();
        sent.map_err(|e| format!("send: {e}"))
    }

    fn push_scrape(&mut self) -> u64 {
        let id = self.scrape_ids;
        self.scrape_ids += 1;
        let payload = ControlMsg::Metrics { id: Some(id) }.to_value().render();
        // Writing to a Vec cannot fail.
        let _ = write_frame(&mut self.buf, payload.as_bytes());
        id
    }

    fn tick_scrape(&mut self, now: u64) {
        if now >= self.next_scrape_ns {
            self.push_scrape();
            self.next_scrape_ns = now + SCRAPE_EVERY_NS;
        }
    }

    /// Sleeps until every request sent so far is answered.
    fn drain(&mut self) -> Result<(), String> {
        let mut seen = (u64::MAX, 0u64);
        loop {
            let answered = self.shared.answered.load(Ordering::SeqCst);
            if answered >= self.next_seq {
                return Ok(());
            }
            if self.shared.closed.load(Ordering::SeqCst) {
                return Err(format!(
                    "connection closed with {} requests unanswered",
                    self.next_seq - answered
                ));
            }
            let now = self.now_ns();
            if answered != seen.0 {
                seen = (answered, now);
            } else if now - seen.1 > STALL_NS {
                return Err(format!(
                    "{} requests unanswered after {} s without progress",
                    self.next_seq - answered,
                    STALL_NS / 1_000_000_000
                ));
            }
            self.tick_scrape(now);
            self.flush()?;
            std::thread::sleep(POLL);
        }
    }

    /// Latency of every request in `first..first + intended.len()`, ms,
    /// from its intended send time; +∞ for a failure.
    fn collect(&mut self, first: u64, intended: &[u64]) -> Vec<f64> {
        let mut got = vec![None; intended.len()];
        for r in std::mem::take(&mut *lock(&self.shared.replies)) {
            if let Some(slot) = r
                .seq
                .checked_sub(first)
                .and_then(|i| got.get_mut(i as usize))
            {
                *slot = r.ok.then_some(r.at_ns);
            }
        }
        got.iter()
            .zip(intended)
            .map(|(at, due)| match at {
                Some(at) => at.saturating_sub(*due) as f64 / 1e6,
                None => f64::INFINITY,
            })
            .collect()
    }

    fn summarize(
        &mut self,
        name: &'static str,
        rate: f64,
        first: u64,
        intended: &[u64],
        lags_ns: &[f64],
        outstanding: u64,
    ) -> PhaseStats {
        let end_ns = self.now_ns();
        let latency_ms = sorted(&self.collect(first, intended));
        let ok = latency_ms.iter().filter(|l| l.is_finite()).count() as u64;
        self.ok_total += ok;
        PhaseStats {
            name,
            rate,
            sent: intended.len() as u64,
            ok,
            latency_ms,
            lag_p99_us: rank(&sorted(lags_ns), 0.99) / 1e3,
            outstanding,
            start_ns: intended.first().copied().unwrap_or(end_ns),
            end_ns,
        }
    }

    /// Sends every distinct request once, in order, back to back, and
    /// waits for every answer (each is still verified and counted).
    pub fn warm(&mut self) -> Result<(), String> {
        let count = self.target.payloads.len() as u64;
        let first = self.next_seq;
        let now = self.now_ns();
        for seq in first..first + count {
            self.target.payloads[self.target.entry(seq)].frame_into(seq, &mut self.buf);
        }
        self.next_seq += count;
        self.flush()?;
        self.drain()?;
        let intended = vec![now; count as usize];
        self.summarize("warm", 0.0, first, &intended, &[0.0], 0);
        Ok(())
    }

    /// One open-loop phase: `round(rate × secs)` Poisson arrivals at
    /// `rate` req/s, then a wait for every answer.
    pub fn fixed(
        &mut self,
        name: &'static str,
        rate: f64,
        secs: f64,
    ) -> Result<PhaseStats, String> {
        let count = ((rate * secs).round() as usize).max(1);
        let offsets = poisson_schedule(rate, count, SeedStream::new(self.seed).seed(self.phases));
        self.phases += 1;
        let first = self.next_seq;
        let start = self.now_ns() + LEAD_NS;
        let intended: Vec<u64> = offsets.iter().map(|o| start + o).collect();
        let mut lags_ns = Vec::with_capacity(count);
        let mut k = 0;
        while k < count {
            let now = self.now_ns();
            self.tick_scrape(now);
            if intended[k] > now {
                self.flush()?;
                let wake = intended[k].min(self.next_scrape_ns.max(now + 1));
                std::thread::sleep(Duration::from_nanos(wake - now));
                continue;
            }
            while k < count && intended[k] <= now {
                let seq = first + k as u64;
                self.target.payloads[self.target.entry(seq)].frame_into(seq, &mut self.buf);
                lags_ns.push((now - intended[k]) as f64);
                k += 1;
            }
            self.next_seq = first + k as u64;
            self.flush()?;
        }
        let outstanding = self.next_seq - self.shared.answered.load(Ordering::SeqCst);
        self.drain()?;
        Ok(self.summarize(name, rate, first, &intended, &lags_ns, outstanding))
    }

    /// Bursts of `size` requests written at once for `secs`, each burst
    /// sent once the one before it is answered. A request's latency runs
    /// from its burst's send time. The phase's `rate` is the requests
    /// answered per second over the phase.
    pub fn bursts(&mut self, size: u64, secs: f64) -> Result<PhaseStats, String> {
        let first = self.next_seq;
        let start = self.now_ns();
        let end = start + (secs * 1e9) as u64;
        let mut intended = Vec::new();
        let mut now = start;
        while intended.is_empty() || now < end {
            self.tick_scrape(now);
            for _ in 0..size {
                let seq = self.next_seq;
                self.target.payloads[self.target.entry(seq)].frame_into(seq, &mut self.buf);
                intended.push(now);
                self.next_seq += 1;
            }
            self.flush()?;
            self.drain()?;
            now = self.now_ns();
        }
        let rate = intended.len() as f64 / ((now - start) as f64 / 1e9);
        Ok(self.summarize("burst", rate, first, &intended, &[0.0], 0))
    }

    /// Keeps `depth` requests outstanding for `secs`, topping up every
    /// poll, so the server's queue never empties: the answer rate is its
    /// capacity. The phase's `rate` is that measured rate, req/s.
    pub fn saturate(&mut self, depth: u64, secs: f64) -> Result<PhaseStats, String> {
        let first = self.next_seq;
        let start = self.now_ns();
        let end = start + (secs * 1e9) as u64;
        let mut intended = Vec::new();
        let mut now = start;
        while now < end {
            self.tick_scrape(now);
            let outstanding = self.next_seq - self.shared.answered.load(Ordering::SeqCst);
            for _ in outstanding..depth {
                let seq = self.next_seq;
                self.target.payloads[self.target.entry(seq)].frame_into(seq, &mut self.buf);
                intended.push(now);
                self.next_seq += 1;
            }
            self.flush()?;
            if self.shared.closed.load(Ordering::SeqCst) {
                return Err("connection closed while saturating".into());
            }
            std::thread::sleep(POLL);
            now = self.now_ns();
        }
        let answered = self.shared.answered.load(Ordering::SeqCst) - first;
        let rate = answered as f64 / ((now - start) as f64 / 1e9);
        self.drain()?;
        Ok(self.summarize("capacity", rate, first, &intended, &[0.0], depth))
    }

    /// Sends a `metrics` scrape and waits for its answer.
    pub fn scrape_now(&mut self) -> Result<MetricsDoc, String> {
        let id = self.push_scrape();
        self.flush()?;
        let asked = self.now_ns();
        loop {
            if let Some((_, _, doc)) = lock(&self.shared.scrapes).iter().find(|s| s.0 == id) {
                return Ok(doc.clone());
            }
            if self.shared.closed.load(Ordering::SeqCst) || self.now_ns() - asked > STALL_NS {
                return Err("metrics scrape went unanswered".into());
            }
            std::thread::sleep(POLL);
        }
    }

    /// Scrapes answered between two session times.
    pub fn scrapes_between(&self, from_ns: u64, to_ns: u64) -> Vec<MetricsDoc> {
        lock(&self.shared.scrapes)
            .iter()
            .filter(|s| s.1 >= from_ns && s.1 <= to_ns)
            .map(|s| s.2.clone())
            .collect()
    }

    /// The closing check: every request answered, and a final scrape
    /// whose exact counters agree with what this side sent and received.
    fn finish(&mut self) -> Result<MetricsDoc, String> {
        self.drain()?;
        let doc = self.scrape_now()?;
        let errors = self.shared.errors.load(Ordering::SeqCst);
        let decisions = self.shared.answered.load(Ordering::SeqCst) - errors;
        let counter = |k: &str| doc.counters.get(k).copied().unwrap_or(u64::MAX);
        for (key, want) in [
            ("serve.requests", self.next_seq),
            ("serve.decisions", decisions),
            ("serve.errors", 0),
        ] {
            if counter(key) != want {
                return Err(format!(
                    "final scrape: {key} = {} but the client counted {want}",
                    counter(key)
                ));
            }
        }
        Ok(doc)
    }
}

/// What a session sent, got back, and found wrong.
pub struct Session<R> {
    /// The script's result, or why it stopped.
    pub result: Result<R, String>,
    /// The final scrape, when the session ended cleanly.
    pub last_scrape: Option<MetricsDoc>,
    pub sent: u64,
    pub ok: u64,
    pub problems: Vec<String>,
}

/// Runs `script` on the sender thread of a fresh two-thread session over
/// `stream`, then closes the connection after the final scrape. Times
/// are ns on `epoch`; `seed` keys the phases' arrival schedules.
pub fn session<R: Send>(
    stream: UnixStream,
    target: &Target,
    epoch: Stopwatch,
    seed: u64,
    script: impl Fn(&mut Pacer) -> Result<R, String> + Sync,
) -> Session<R> {
    let shared = Shared {
        epoch,
        answered: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        closed: AtomicBool::new(false),
        replies: Mutex::new(Vec::new()),
        scrapes: Mutex::new(Vec::new()),
        problems: Mutex::new(Vec::new()),
    };
    let reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            return Session {
                result: Err(format!("socket clone: {e}")),
                last_scrape: None,
                sent: 0,
                ok: 0,
                problems: Vec::new(),
            }
        }
    };
    let slots = Mutex::new((Some(stream), Some(reader)));
    let done: Mutex<Option<Session<R>>> = Mutex::new(None);
    run_workers(2, |w| {
        if w == 1 {
            // A separate statement: in `if let` the guard would live on
            // through `receive`, and the sender could never take its slot.
            let reader = lock(&slots).1.take();
            if let Some(r) = reader {
                receive(r, target, &shared);
            }
            return;
        }
        let Some(out) = lock(&slots).0.take() else {
            return;
        };
        let mut pacer = Pacer {
            out,
            target,
            shared: &shared,
            seed,
            next_seq: 0,
            phases: 0,
            ok_total: 0,
            next_scrape_ns: 0,
            scrape_ids: 0,
            buf: Vec::with_capacity(1 << 16),
        };
        let result = script(&mut pacer);
        let last = match &result {
            Ok(_) => pacer.finish(),
            Err(e) => Err(e.clone()),
        };
        // Half-close so the server drains and closes; if it never does,
        // closing both directions ends the receiver's blocked read.
        let _ = pacer.out.shutdown(Shutdown::Write);
        let waited = pacer.now_ns();
        while !shared.closed.load(Ordering::SeqCst) && pacer.now_ns() - waited < 5 * STALL_NS {
            std::thread::sleep(POLL);
        }
        let _ = pacer.out.shutdown(Shutdown::Both);
        let (result, last_scrape) = match (result, last) {
            (Ok(r), Ok(doc)) => (Ok(r), Some(doc)),
            (Err(e), _) | (Ok(_), Err(e)) => (Err(e), None),
        };
        *lock(&done) = Some(Session {
            result,
            last_scrape,
            sent: pacer.next_seq,
            ok: pacer.ok_total,
            problems: Vec::new(),
        });
    });
    let mut session = lock(&done).take().unwrap_or_else(|| Session {
        result: Err("sender did not run".into()),
        last_scrape: None,
        sent: 0,
        ok: 0,
        problems: Vec::new(),
    });
    session.problems = std::mem::take(&mut *lock(&shared.problems));
    session
}

/// The step between ladder rungs: each rung is 8% faster than the last.
pub const LADDER_STEP: f64 = 1.08;
/// Bisection probes after the pass/fail boundary is bracketed.
const REFINE_PROBES: u32 = 2;

/// Whether one ladder rung meets the service objective: p99 latency
/// within `p99_limit_ms`, and fewer than `rate × 10 ms` requests still
/// outstanding when its last request was sent (no growing backlog).
pub fn rung_passes(rate: f64, p99_ms: f64, outstanding: u64, p99_limit_ms: f64) -> bool {
    p99_ms <= p99_limit_ms && (outstanding as f64) <= rate * 0.010
}

/// Searches for the highest rate that passes: climb (or descend) in
/// [`LADDER_STEP`] rungs until one passing and one failing rate bracket
/// the boundary, then bisect the bracket geometrically.
pub struct Ladder {
    floor: f64,
    best: Option<f64>,
    fail: Option<f64>,
    next: Option<f64>,
    refined: u32,
}

impl Ladder {
    /// A ladder whose first rung is `start`; it never descends below `floor`.
    pub fn new(start: f64, floor: f64) -> Ladder {
        Ladder {
            floor,
            best: None,
            fail: None,
            next: Some(start),
            refined: 0,
        }
    }

    /// The next rate to probe, or `None` when the search is over.
    pub fn next_rate(&self) -> Option<f64> {
        self.next
    }

    /// Records a probe's verdict.
    pub fn record(&mut self, rate: f64, pass: bool) {
        if self.best.is_some() && self.fail.is_some() {
            self.refined += 1;
        }
        if pass {
            self.best = Some(self.best.map_or(rate, |b| b.max(rate)));
        } else {
            self.fail = Some(self.fail.map_or(rate, |f| f.min(rate)));
        }
        self.next = match (self.best, self.fail) {
            (Some(b), Some(f)) => (self.refined < REFINE_PROBES && f > b).then(|| (b * f).sqrt()),
            (Some(b), None) => Some(b * LADDER_STEP),
            (None, Some(f)) => Some(f / LADDER_STEP).filter(|&r| r >= self.floor),
            (None, None) => None,
        };
    }

    /// The highest passing rate probed so far.
    pub fn best(&self) -> Option<f64> {
        self.best
    }

    /// Whether a failing rate above the best passing one has been seen,
    /// so [`Ladder::best`] is not merely a lower bound.
    pub fn bracketed(&self) -> bool {
        self.best.is_some() && self.fail.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(1000.0, 5000, 42);
        assert_eq!(a, poisson_schedule(1000.0, 5000, 42));
        assert_ne!(a, poisson_schedule(1000.0, 5000, 43));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets are sorted");
        // 5000 arrivals at 1000/s span about five seconds.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((4.7..5.3).contains(&span_s), "{span_s}");
    }

    #[test]
    fn spliced_frames_equal_rendered_requests() {
        let req = Request {
            id: 17,
            policy: 2,
            offered: 5.5e8,
            premium_offered: 3.25e8,
            background_mw: vec![330.5, 410.0, 280.125],
            hourly_budget: f64::INFINITY,
        };
        let spliced = Spliced::new(&req).unwrap();
        for seq in [0u64, 7, 10, 123_456_789] {
            let mut want = Vec::new();
            let r = Request {
                id: seq,
                ..req.clone()
            };
            write_frame(&mut want, r.to_value().render().as_bytes()).unwrap();
            let mut got = Vec::new();
            spliced.frame_into(seq, &mut got);
            assert_eq!(got, want, "seq {seq}");
        }
    }

    #[test]
    fn split_id_finds_the_first_id() {
        let frame = br#"{"type":"decision","id":42,"cached":true}"#;
        let (id, before, after) = split_id(frame).unwrap();
        assert_eq!(id, 42);
        assert_eq!(before, br#"{"type":"decision","id":"#);
        assert_eq!(after, br#","cached":true}"#);
        assert!(split_id(br#"{"type":"error","id":null}"#).is_none());
    }

    #[test]
    fn rung_rule_needs_latency_and_no_backlog() {
        // 8000 req/s: the backlog limit is 80 requests.
        assert!(rung_passes(8000.0, 9.9, 80, 10.0));
        assert!(!rung_passes(8000.0, 10.1, 0, 10.0));
        assert!(!rung_passes(8000.0, 2.0, 81, 10.0));
        assert!(!rung_passes(8000.0, f64::INFINITY, 0, 10.0));
    }

    /// Drives a ladder against a server that passes every rate up to
    /// `capacity`, returning the rates probed and the verdict.
    fn search(start: f64, capacity: f64) -> (Vec<f64>, Option<f64>) {
        let mut ladder = Ladder::new(start, 100.0);
        let mut probed = Vec::new();
        while let Some(rate) = ladder.next_rate() {
            probed.push(rate);
            ladder.record(rate, rate <= capacity);
            assert!(probed.len() < 100, "ladder must terminate");
        }
        (probed, ladder.best())
    }

    #[test]
    fn ladder_climbs_then_bisects() {
        let (probed, best) = search(1000.0, 1200.0);
        // 1000, 1080, 1166.4 pass; 1259.7 fails; two bisection probes.
        assert_eq!(probed.len(), 6, "{probed:?}");
        let best = best.unwrap();
        assert!(best <= 1200.0 && best > 1200.0 / 1.03, "{best}");
    }

    #[test]
    fn ladder_descends_when_the_start_fails() {
        let (probed, best) = search(1000.0, 800.0);
        assert!(probed[1] < probed[0], "{probed:?}");
        let best = best.unwrap();
        assert!(best <= 800.0 && best > 800.0 / 1.03, "{best}");
    }

    #[test]
    fn ladder_gives_up_at_the_floor() {
        let (probed, best) = search(1000.0, 10.0);
        assert!(best.is_none());
        assert!(probed.iter().all(|&r| r >= 100.0), "{probed:?}");
    }
}
