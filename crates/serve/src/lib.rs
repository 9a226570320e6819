//! # billcap-serve
//!
//! A zero-dependency decide-hour daemon. Clients send framed JSON
//! requests (4-byte big-endian length prefix + UTF-8 JSON body) over
//! stdio or a Unix socket; the server shards them across a
//! `billcap-rt` worker pool and answers with the same decision the CLI
//! `decide-hour` subcommand would print — bitwise-identical, by
//! construction, when the basis-reuse speedup is off (the default).
//!
//! Three layers:
//!
//! * [`protocol`] — framing, request/response schema, the direct
//!   decision-frame renderer ([`protocol::render_decision_body`],
//!   [`protocol::render_decision_frame`]), and the
//!   [`protocol::DecisionMsg::bitwise_matches`] differential check.
//! * [`server`] — the reader/worker pool: a buffered reader,
//!   per-worker [`billcap_core::DecisionEngine`]s (each keeps its
//!   models and rewrites their values), a shared [`billcap_core::DecisionCache`] of rendered
//!   response bodies, whole response frames written one `write_all`
//!   per batch (a decider writes its batch before it blocks on an
//!   empty queue, at 16 KiB and when it exits), and in-band error
//!   responses for malformed input.
//! * [`replay`] — a differential harness that replays a simulated
//!   month through the server and verifies every response against
//!   sequential fresh-model decisions.
//!
//! ## Example
//!
//! Serve two requests over in-memory buffers:
//!
//! ```
//! use billcap_serve::protocol::{write_frame, read_frame, Request, Response, MAX_FRAME};
//! use billcap_serve::server::{serve, ServeConfig};
//! use std::io::Cursor;
//!
//! let req = Request {
//!     id: 1,
//!     policy: 1,
//!     offered: 5e8,
//!     premium_offered: 3e8,
//!     background_mw: vec![330.0, 410.0, 280.0],
//!     hourly_budget: f64::INFINITY,
//! };
//! let mut input = Vec::new();
//! write_frame(&mut input, req.to_value().render().as_bytes()).unwrap();
//!
//! let mut output = Vec::new();
//! let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
//! let stats = serve(&cfg, Cursor::new(input), &mut output);
//! assert_eq!(stats.decisions, 1);
//!
//! let frame = read_frame(&mut Cursor::new(output), MAX_FRAME).unwrap().unwrap();
//! match Response::parse(&frame).unwrap() {
//!     Response::Decision(msg) => assert_eq!(msg.id, 1),
//!     other => panic!("{other:?}"),
//! }
//! ```
//!
//! ## Telemetry
//!
//! The server continuously maintains exact work counters, advisory
//! counts and windowed latency histograms ([`server::ServerTelemetry`],
//! every count one row of one ledger table). Clients scrape
//! them in-band with `{"op":"metrics"}` / `{"op":"health"}` control
//! frames ([`protocol::ControlMsg`]), answered by the reader thread
//! without touching the decision workers; a configured
//! `metrics_stream` additionally receives one JSONL
//! [`billcap_obs::MetricsDoc`] per window rotation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod replay;
pub mod server;

pub use protocol::{
    read_frame, write_frame, ControlMsg, DecisionMsg, FrameError, Request, RequestError, Response,
    MAX_FRAME,
};
pub use replay::{
    build_plan, encode_requests, run_replay, run_replay_with, verify_replay, ReplayOutcome,
    ReplayPlan,
};
pub use server::{serve, serve_with, ServeConfig, ServeStats, ServerTelemetry};

#[cfg(unix)]
pub use server::serve_unix;
