//! # billcap-bench
//!
//! Benchmark targets for the `billcap` reproduction, built on the
//! in-repo [`billcap_rt::Harness`] (no external benchmarking framework;
//! the workspace builds fully offline). Each target is a
//! `harness = false` binary that registers closures and prints a
//! median/min summary table. Each one regenerates part of the paper's
//! evaluation:
//!
//! * `solver_scalability` — the Section IV-C claim: step-1 MILP solve time
//!   versus network size (paper: ≤ ~2 ms at 13 sites, 5 price levels,
//!   10⁸ requests), solver variants, and a raw simplex solve of
//!   relaxation size.
//! * `figures` — wall-clock cost of regenerating every evaluation figure
//!   (Figures 1, 3, 4, 5/6, 7/8, 9, 10); each iteration runs the same
//!   experiment code as the `paper_experiments` binary and the
//!   integration tests.
//! * `components` — substrate microbenches: Erlang-C / G/G/m sizing, step
//!   policy lookup, DC-OPF dispatch and LMP extraction, trace generation,
//!   budgeting, and realized-cost evaluation.
//! * `ablations` — design-choice costs: step-2 budgets, the power-model
//!   blind spot, budgeter history, network consolidation, weather and
//!   hierarchical regions.
//!
//! Run everything with `cargo bench --workspace`; pass a substring to
//! filter bench names (`cargo bench --bench solver_scalability --
//! step1_milp`), and set `BILLCAP_BENCH_FAST=1` for a quick smoke run.
//! The figure benches also print their experiment summaries once per
//! process so a bench run doubles as a results regeneration.

#![forbid(unsafe_code)]

/// Shared helpers for the bench targets.
pub mod helpers {
    use billcap_core::DataCenterSystem;

    /// The paper's reference background demand vector.
    pub fn background() -> Vec<f64> {
        vec![360.0, 410.0, 430.0]
    }

    /// The paper system under Policy 1.
    pub fn paper_system() -> DataCenterSystem {
        DataCenterSystem::paper_system(1)
    }
}

/// The decision-server throughput benches, shared between the
/// `serve_throughput` bench target and the `bench_trajectory` baseline
/// generator (so `BENCH_solver.json` records the cold-vs-incremental
/// ratio the serve subsystem's perf claim rests on).
pub mod serve_bench {
    use billcap_core::{BillCapper, DecisionCache, DecisionEngine, DecisionKey};
    use billcap_rt::Harness;
    use std::hint::black_box;

    /// A small cycle of hour inputs: varying offered load, premium
    /// share, background demand (crossing step-price breakpoints so
    /// level structure occasionally changes), and budget tightness
    /// covering all three outcome branches.
    pub(crate) fn hour_cycle() -> Vec<(f64, f64, Vec<f64>, f64)> {
        (0..8)
            .map(|h| {
                let t = h as f64;
                let offered = 4.5e8 + 3.0e7 * t;
                let premium = 0.6 * offered;
                let background = vec![330.0 + 8.0 * t, 410.0 + 2.0 * t, 280.0 + 15.0 * t];
                let budget = match h % 3 {
                    0 => f64::INFINITY,
                    1 => 2_300.0,
                    _ => 1.0,
                };
                (offered, premium, background, budget)
            })
            .collect()
    }

    /// Registers the decide-hour strategy benches: one full decision per
    /// iteration, cycling through `hour_cycle`.
    ///
    /// * `serve_decide/cold` — a one-shot [`BillCapper`] decision: a new
    ///   engine, and so a model build, per hour.
    /// * `serve_decide/incremental` — a retained [`DecisionEngine`]
    ///   (value-only model mutation, bitwise-identical answers).
    /// * `serve_decide/cached` — repeat hours answered from a [`DecisionCache`].
    pub fn bench_decide_strategies(h: &mut Harness) {
        let system = super::helpers::paper_system();
        let hours = hour_cycle();

        let capper = BillCapper::default();
        let mut i = 0usize;
        let hours_cold = hours.clone();
        let sys_cold = system.clone();
        h.bench("serve_decide/cold", move || {
            let (offered, premium, bg, budget) = &hours_cold[i % hours_cold.len()];
            i += 1;
            let d = capper
                .decide_hour(
                    black_box(&sys_cold),
                    black_box(*offered),
                    black_box(*premium),
                    black_box(bg),
                    black_box(*budget),
                )
                // detlint-allow(L001): bench inputs are feasible by construction
                .expect("feasible hour");
            black_box(d.allocation.total_cost)
        });

        let mut engine = DecisionEngine::new(system.clone());
        let mut i = 0usize;
        let hours_inc = hours.clone();
        h.bench("serve_decide/incremental", move || {
            let (offered, premium, bg, budget) = &hours_inc[i % hours_inc.len()];
            i += 1;
            let d = engine
                .decide_hour(
                    black_box(*offered),
                    black_box(*premium),
                    black_box(bg),
                    black_box(*budget),
                )
                // detlint-allow(L001): bench inputs are feasible by construction
                .expect("feasible hour");
            black_box(d.allocation.total_cost)
        });

        let mut cache = DecisionCache::new(64);
        let mut engine = DecisionEngine::new(system.clone());
        let mut i = 0usize;
        h.bench("serve_decide/cached", move || {
            let (offered, premium, bg, budget) = &hours[i % hours.len()];
            i += 1;
            let key = DecisionKey::new(engine.system(), *offered, *premium, bg, *budget);
            let d = match cache.get(&key).cloned() {
                Some(hit) => hit,
                None => {
                    let fresh = engine
                        .decide_hour(*offered, *premium, bg, *budget)
                        // detlint-allow(L001): bench inputs are feasible by construction
                        .expect("feasible hour");
                    cache.insert(key, fresh.clone());
                    fresh
                }
            };
            black_box(d.allocation.total_cost)
        });
    }

    /// Registers the wire-protocol codec benches over the frames of a
    /// replay plan, one frame per iteration:
    ///
    /// * `protocol/decode_request` — [`Request::parse`] of a request
    ///   frame, the server's per-request decode.
    /// * `protocol/parse_response` — [`Response::parse`] of a decision
    ///   response frame, the client's per-response decode.
    /// * `protocol/render_decision` — [`render_decision_body`] of a
    ///   decision, then [`render_decision_frame`] of its frame into a
    ///   reused buffer: the render work of a cache miss.
    ///
    /// [`Request::parse`]: billcap_serve::protocol::Request::parse
    /// [`Response::parse`]: billcap_serve::protocol::Response::parse
    /// [`render_decision_body`]: billcap_serve::protocol::render_decision_body
    /// [`render_decision_frame`]: billcap_serve::protocol::render_decision_frame
    pub fn bench_protocol(h: &mut Harness, plan: &billcap_serve::ReplayPlan) {
        use billcap_serve::protocol::{
            render_decision_body, render_decision_frame, DecisionMsg, Request, Response,
        };

        let requests: Vec<String> = plan
            .requests
            .iter()
            .map(|r| r.to_value().render())
            .collect();
        let responses: Vec<String> = plan
            .expected
            .iter()
            .enumerate()
            .map(|(i, d)| {
                Response::Decision(DecisionMsg::from_decision(i as u64, d, false))
                    .to_value()
                    .render()
            })
            .collect();
        let mut i = 0usize;
        h.bench("protocol/decode_request", move || {
            let frame = &requests[i % requests.len()];
            i += 1;
            black_box(Request::parse(black_box(frame.as_bytes())).is_ok())
        });
        let mut i = 0usize;
        h.bench("protocol/parse_response", move || {
            let frame = &responses[i % responses.len()];
            i += 1;
            black_box(Response::parse(black_box(frame.as_bytes())).is_ok())
        });
        let decisions = plan.expected.clone();
        let mut frame = Vec::new();
        let mut i = 0usize;
        h.bench("protocol/render_decision", move || {
            let body = render_decision_body(black_box(&decisions[i % decisions.len()]));
            let rendered = render_decision_frame(&mut frame, i as u64, false, &body);
            i += 1;
            black_box(rendered.map(|()| frame.len()).ok())
        });
    }

    /// Frames in the [`bench_socket_burst`] burst.
    const SOCKET_BURST: usize = 256;

    /// Registers `serve_socket/burst`: 256 request frames, cycling
    /// through the plan's hours, sent at once through [`serve_with`]
    /// over a connected Unix socket pair (two workers, the decision
    /// cache on), every answer read and counted. One iteration is one
    /// connection, so its engines build their models and its cache
    /// fills from empty; the plan's hours repeat, so most answers are
    /// cache hits, which exercise the socket path: framing, queueing,
    /// wake-ups and response writes.
    ///
    /// [`serve_with`]: billcap_serve::serve_with
    #[cfg(unix)]
    pub fn bench_socket_burst(
        h: &mut Harness,
        plan: &billcap_serve::ReplayPlan,
    ) -> std::io::Result<()> {
        use billcap_serve::{encode_requests, ReplayPlan, Request, ServeConfig, ServerTelemetry};

        let burst = encode_requests(&ReplayPlan {
            requests: plan
                .requests
                .iter()
                .cycle()
                .take(SOCKET_BURST)
                .enumerate()
                .map(|(i, r)| Request {
                    id: i as u64,
                    ..r.clone()
                })
                .collect(),
            ..plan.clone()
        });
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let tele = ServerTelemetry::open(&cfg)?;
        h.bench("serve_socket/burst", move || {
            let answered = socket_burst(&cfg, &tele, &burst);
            assert!(
                matches!(answered, Ok(SOCKET_BURST)),
                "{SOCKET_BURST} answers expected: {answered:?}"
            );
            black_box(answered)
        });
        Ok(())
    }

    /// Serves one connection of `burst` over a socket pair and returns
    /// how many answers came back. Each thread owns its end, so when
    /// either finishes the other sees end-of-stream.
    #[cfg(unix)]
    fn socket_burst(
        cfg: &billcap_serve::ServeConfig,
        tele: &billcap_serve::ServerTelemetry,
        burst: &[u8],
    ) -> std::io::Result<usize> {
        use std::os::unix::net::UnixStream;
        use std::sync::{Mutex, PoisonError};

        let (server, client) = UnixStream::pair()?;
        let ends = [Mutex::new(Some(server)), Mutex::new(Some(client))];
        let answered = Mutex::new(Ok(0));
        billcap_rt::run_workers(2, |w| {
            let end = ends[w]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            match (w, end) {
                (0, Some(server)) => {
                    billcap_serve::serve_with(cfg, &server, &server, tele);
                }
                (_, Some(client)) => {
                    *answered.lock().unwrap_or_else(PoisonError::into_inner) =
                        send_and_count(client, burst);
                }
                (_, None) => {}
            }
        });
        answered
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes `burst`, closes the sending half and counts the frames
    /// that come back until the server closes the connection.
    #[cfg(unix)]
    fn send_and_count(
        mut stream: std::os::unix::net::UnixStream,
        burst: &[u8],
    ) -> std::io::Result<usize> {
        use billcap_serve::{read_frame, MAX_FRAME};
        use std::io::Write;

        stream.write_all(burst)?;
        stream.shutdown(std::net::Shutdown::Write)?;
        let mut answered = 0;
        while read_frame(&mut stream, MAX_FRAME)
            .map_err(|e| std::io::Error::other(e.to_string()))?
            .is_some()
        {
            answered += 1;
        }
        Ok(answered)
    }

    /// Registers the telemetry-overhead pair: the same short in-process
    /// replay (one worker, identical request stream) with latency
    /// recording and window rotation disabled vs. enabled. The two
    /// medians bound what the hot path pays for continuous telemetry —
    /// the tentpole's "< 3% replay regression" claim is the ratio of
    /// these rows in `BENCH_solver.json`.
    pub fn bench_replay_telemetry(h: &mut Harness) {
        use billcap_serve::{build_plan, run_replay, ServeConfig};

        let plan = std::sync::Arc::new(
            build_plan(1, 42, 24, None)
                // detlint-allow(L001): the paper scenario always builds
                .expect("plan builds"),
        );
        for (label, telemetry) in [("off", false), ("on", true)] {
            let plan = plan.clone();
            let cfg = ServeConfig {
                workers: 1,
                telemetry,
                window_requests: 4,
                ..ServeConfig::default()
            };
            h.bench(&format!("serve_replay/telemetry_{label}"), move || {
                let outcome = run_replay(&cfg, &plan)
                    // detlint-allow(L001): replay of a valid plan cannot fail
                    .expect("replay runs");
                assert_eq!(outcome.decisions.len(), plan.requests.len());
                black_box(outcome.stats.decisions)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::helpers;

    #[test]
    fn helpers_build() {
        assert_eq!(helpers::background().len(), helpers::paper_system().len());
    }

    #[test]
    fn hour_cycle_exercises_all_budget_classes() {
        let hours = super::serve_bench::hour_cycle();
        assert!(hours.iter().any(|(_, _, _, b)| b.is_infinite()));
        assert!(hours.iter().any(|(_, _, _, b)| *b == 1.0));
        assert!(hours.iter().any(|(_, _, _, b)| b.is_finite() && *b > 1.0));
    }
}
