//! Continuous telemetry under load: the paper's 168-hour week replayed
//! through a live Unix-socket server while a client scrapes `metrics`
//! frames mid-run. The scraped **work counters** must be bitwise
//! identical at 1 and 4 workers, and the final scrape must equal the
//! server's own [`ServeStats`] — the telemetry path is held to the same
//! determinism contract as the decisions themselves.

#![cfg(unix)]

use billcap::serve::{
    build_plan, read_frame, serve_unix, write_frame, ControlMsg, ReplayPlan, Response, ServeConfig,
    ServeStats, MAX_FRAME,
};
use billcap::sim::Scenario;
use billcap_obs::MetricsDoc;
use billcap_rt::run_workers;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::sync::{Mutex, OnceLock, PoisonError};

const HOURS: usize = 168;
const MID_SCRAPE_AFTER: usize = 100;

fn plan() -> &'static ReplayPlan {
    static PLAN: OnceLock<ReplayPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        build_plan(1, 42, HOURS, Some(Scenario::STRINGENT_BUDGET)).expect("plan builds")
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the client thread hands back: mid-run doc, final doc, health
/// verdict and reasons.
type ClientOutcome = (MetricsDoc, MetricsDoc, bool, Vec<String>);

struct ScrapedRun {
    mid_doc: MetricsDoc,
    final_doc: MetricsDoc,
    health_ok: bool,
    health_reasons: Vec<String>,
    stats: ServeStats,
}

/// Replays the week through a socket server with `workers` deciders,
/// scraping once mid-stream and once after every decision response has
/// been read back.
fn run_scraped(workers: usize, stream_path: Option<&std::path::Path>) -> ScrapedRun {
    let plan = plan();
    let path = std::env::temp_dir().join(format!(
        "billcap-telemetry-{}-{workers}.sock",
        std::process::id()
    ));
    let cfg = ServeConfig {
        workers,
        window_requests: 16,
        // 168 data frames rotate 10 times, producing windows 0..=10.
        // Retain them all so the end-of-stream summary's merged latency
        // holds exactly HOURS observations regardless of which window
        // each solve happened to land in (with the default ring of 8,
        // a solve finishing early enough lands in an evicted window —
        // observed with the pre-solve lint gate on, where solves are
        // slower).
        latency_windows: 16,
        metrics_stream: stream_path.map(|p| p.to_path_buf()),
        ..ServeConfig::default()
    };
    let path_server = path.clone();
    let outcome: Mutex<Option<ClientOutcome>> = Mutex::new(None);
    let server_stats: Mutex<Vec<ServeStats>> = Mutex::new(Vec::new());

    run_workers(2, |w| {
        if w == 0 {
            let stats = serve_unix(&cfg, &path_server, true).expect("server binds");
            *lock(&server_stats) = stats;
        } else {
            // Be very patient: on a loaded single-core runner the
            // server thread can be starved for seconds before it binds.
            let mut tries = 0u32;
            let stream = loop {
                match UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(_) if tries < 60_000 => {
                        tries += 1;
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Err(e) => panic!("connect: {e}"),
                }
            };
            let mut writer = stream.try_clone().expect("clone socket");
            let mut reader = stream;
            let send = |w: &mut UnixStream, payload: &str| {
                write_frame(w, payload.as_bytes()).expect("client write");
                w.flush().expect("client flush");
            };

            // First 100 hours, then a mid-run scrape, then the rest.
            for r in &plan.requests[..MID_SCRAPE_AFTER] {
                send(&mut writer, &r.to_value().render());
            }
            send(
                &mut writer,
                &ControlMsg::Metrics { id: Some(9_000) }.to_value().render(),
            );
            for r in &plan.requests[MID_SCRAPE_AFTER..] {
                send(&mut writer, &r.to_value().render());
            }

            // Read until all decisions and the mid-run doc arrived.
            let mut decisions = 0usize;
            let mut mid_doc = None;
            while decisions < HOURS || mid_doc.is_none() {
                let frame = read_frame(&mut reader, MAX_FRAME)
                    .expect("client read")
                    .expect("stream open");
                match Response::parse(&frame).expect("response parses") {
                    Response::Decision(_) => decisions += 1,
                    Response::Metrics { id, doc } => {
                        assert_eq!(id, Some(9_000));
                        mid_doc = Some(doc);
                    }
                    other => panic!("unexpected response: {other:?}"),
                }
            }

            // Every response is in: the final scrape sees final totals.
            send(
                &mut writer,
                &ControlMsg::Metrics { id: Some(9_001) }.to_value().render(),
            );
            let frame = read_frame(&mut reader, MAX_FRAME)
                .expect("client read")
                .expect("stream open");
            let final_doc = match Response::parse(&frame).expect("response parses") {
                Response::Metrics { id, doc } => {
                    assert_eq!(id, Some(9_001));
                    doc
                }
                other => panic!("unexpected response: {other:?}"),
            };

            send(
                &mut writer,
                &ControlMsg::Health { id: None }.to_value().render(),
            );
            let frame = read_frame(&mut reader, MAX_FRAME)
                .expect("client read")
                .expect("stream open");
            let (ok, reasons) = match Response::parse(&frame).expect("response parses") {
                Response::Health { ok, reasons, .. } => (ok, reasons),
                other => panic!("unexpected response: {other:?}"),
            };
            *lock(&outcome) = Some((mid_doc.expect("mid-run doc"), final_doc, ok, reasons));
            // Dropping both socket halves gives the server its EOF.
        }
    });
    let _ = std::fs::remove_file(&path);

    let (mid_doc, final_doc, health_ok, health_reasons) =
        lock(&outcome).take().expect("client finished");
    let stats = lock(&server_stats)
        .first()
        .cloned()
        .expect("server produced stats");
    ScrapedRun {
        mid_doc,
        final_doc,
        health_ok,
        health_reasons,
        stats,
    }
}

fn expected_final_counters(run: &ScrapedRun) {
    let c = &run.final_doc.counters;
    assert_eq!(c["serve.requests"], HOURS as u64);
    assert_eq!(c["serve.decisions"], HOURS as u64);
    assert_eq!(c["serve.errors"], 0);
    // 168 distinct hours: all misses, no hits, no evictions.
    assert_eq!(c["serve.cache.hit"], 0);
    assert_eq!(c["serve.cache.miss"], HOURS as u64);
    assert_eq!(c["serve.cache.evict"], 0);
    assert!(
        c["core.engine.rebuilds_unique"] > 0,
        "the week must build at least one step model"
    );
    // Scrape equals the server's own books.
    assert_eq!(c["serve.requests"], run.stats.requests);
    assert_eq!(c["serve.decisions"], run.stats.decisions);
    assert_eq!(c["serve.errors"], run.stats.errors);
    assert_eq!(c["serve.cache.hit"], run.stats.cache_hits);
    assert_eq!(c["serve.cache.miss"], run.stats.cache_misses);
    assert_eq!(c["serve.cache.evict"], run.stats.cache_evictions);
}

#[test]
fn scraped_work_counters_are_thread_count_invariant() {
    let stream_path = std::env::temp_dir().join(format!(
        "billcap-telemetry-stream-{}.jsonl",
        std::process::id()
    ));
    let one = run_scraped(1, Some(&stream_path));
    let four = run_scraped(4, None);

    expected_final_counters(&one);
    expected_final_counters(&four);

    // The entire final counter map — not just a few fields — must be
    // bitwise-equal across worker counts.
    let c1: &BTreeMap<String, u64> = &one.final_doc.counters;
    let c4: &BTreeMap<String, u64> = &four.final_doc.counters;
    assert_eq!(c1, c4, "work counters drifted between 1 and 4 workers");

    // Mid-run scrapes are answered by the reader after it has enqueued
    // the first 100 data frames: the request counter is exact even
    // mid-flight, whatever the workers are doing.
    assert_eq!(
        one.mid_doc.counters["serve.requests"],
        MID_SCRAPE_AFTER as u64
    );
    assert_eq!(
        four.mid_doc.counters["serve.requests"],
        MID_SCRAPE_AFTER as u64
    );

    // A healthy server reports so in-band.
    assert!(one.health_ok, "degraded: {:?}", one.health_reasons);
    assert!(four.health_ok, "degraded: {:?}", four.health_reasons);

    // The streamed JSONL is parseable, tick-ordered, and reflects the
    // deterministic rotation schedule (one line per 16 data frames,
    // plus the end-of-stream summary line flushed after the pool
    // joins).
    let text = std::fs::read_to_string(&stream_path).expect("stream file written");
    let _ = std::fs::remove_file(&stream_path);
    let docs: Vec<MetricsDoc> = text
        .lines()
        .map(|l| MetricsDoc::parse_json(l).expect("stream line parses"))
        .collect();
    assert_eq!(docs.len(), HOURS / 16 + 1);
    for (i, d) in docs.iter().enumerate() {
        assert_eq!(d.tick, i as u64, "stream lines must be tick-ordered");
        assert_eq!(
            d.counters["serve.requests"],
            (((i + 1) * 16).min(HOURS)) as u64
        );
    }
    let summary = docs.last().expect("summary line");
    assert_eq!(summary.counters["serve.decisions"], HOURS as u64);
    assert_eq!(summary.latency["solve_us"].count, HOURS as u64);
    // Latency series carry real observations by the final scrape.
    assert!(one.final_doc.latency["solve_us"].count > 0);
    assert!(one.final_doc.latency["request_us"].count > 0);
}
