//! Differential replay: drive the server with a simulated month and
//! check every response bitwise against the sequential fresh-model
//! decisions the simulator would have made.
//!
//! [`build_plan`] replicates `billcap_sim::run_month`'s Cost Capping
//! loop exactly — same [`Scenario`], same [`Budgeter`] spend-feedback,
//! same per-hour inputs — but records the *requests* alongside the
//! expected [`HourDecision`]s. [`run_replay`] then fires the whole plan
//! through [`serve_with`] as one frame stream (a 168-hour "firehose"), and
//! [`verify_replay`] demands bitwise identity on every answer.
//!
//! Budget feedback is why the plan must be built sequentially: hour
//! `t`'s budget depends on the realized cost of hours `0..t`. The
//! server itself is order-free — each request carries its own budget.

use crate::protocol::{read_frame, write_frame, DecisionMsg, Response, MAX_FRAME};
use crate::server::{serve_with, ServeConfig, ServeStats, ServerTelemetry};
use billcap_core::{evaluate_allocation, BillCapper, CoreError, DataCenterSystem, HourDecision};
use billcap_sim::Scenario;
use billcap_workload::Budgeter;
use std::io::Cursor;

/// A request stream plus the ground-truth decisions it must reproduce.
#[derive(Debug, Clone)]
pub struct ReplayPlan {
    /// Pricing-policy family the requests name (0..=3).
    pub policy: usize,
    /// One request per hour, `id == t`.
    pub requests: Vec<crate::protocol::Request>,
    /// Sequential fresh-model decisions, indexed by hour.
    pub expected: Vec<HourDecision>,
    /// The system the expectations were computed against.
    pub system: DataCenterSystem,
}

/// Builds an `hours`-long replay plan by running the simulator's Cost
/// Capping loop sequentially with a fresh [`BillCapper`].
///
/// `monthly_budget = None` means uncapped hours (budget `+∞`);
/// `Some(b)` engages the [`Budgeter`] with `hours` as its horizon, so
/// short replays see the same per-hour budgets a short month would.
pub fn build_plan(
    policy: usize,
    seed: u64,
    hours: usize,
    monthly_budget: Option<f64>,
) -> Result<ReplayPlan, CoreError> {
    let scenario = Scenario::paper_default(policy, seed);
    let hours = hours.min(scenario.horizon());
    let mut budgeter = monthly_budget.map(|b| Budgeter::from_history(b, &scenario.history, hours));
    let capper = BillCapper::default();

    let mut requests = Vec::with_capacity(hours);
    let mut expected = Vec::with_capacity(hours);
    for t in 0..hours {
        let offered = scenario.workload.at(t);
        let premium = scenario.split.premium(offered);
        let d = scenario.background_at(t);
        let hourly_budget = budgeter
            .as_ref()
            .map(Budgeter::hourly_budget)
            .unwrap_or(f64::INFINITY);

        let decision = capper.decide_hour(&scenario.system, offered, premium, &d, hourly_budget)?;
        let realized = evaluate_allocation(&scenario.system, &decision.allocation.lambda, &d);
        if let Some(b) = budgeter.as_mut() {
            b.record_spend(realized.total_cost);
        }

        requests.push(crate::protocol::Request {
            id: t as u64,
            policy,
            offered,
            premium_offered: premium,
            background_mw: d,
            hourly_budget,
        });
        expected.push(decision);
    }
    Ok(ReplayPlan {
        policy,
        requests,
        expected,
        system: scenario.system,
    })
}

/// Encodes every request in the plan as one contiguous frame stream.
pub fn encode_requests(plan: &ReplayPlan) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in &plan.requests {
        let payload = r.to_value().render();
        // Writing to a Vec cannot fail.
        write_frame(&mut buf, payload.as_bytes()).unwrap_or_else(|e| {
            debug_assert!(false, "vec write failed: {e}");
        });
    }
    buf
}

/// What a replay run produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Decision responses, sorted by request id.
    pub decisions: Vec<DecisionMsg>,
    /// Error responses `(id, message)` in arrival order.
    pub errors: Vec<(Option<u64>, String)>,
    /// Server-side counters for the run.
    pub stats: ServeStats,
    /// Wall-clock time for the whole stream, submit to last response.
    pub elapsed_ns: u64,
}

impl ReplayOutcome {
    /// Decisions per wall-clock second over the run.
    pub fn decisions_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.decisions.len() as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// Fires the plan's request stream through an in-process [`serve_with`]
/// call and collects the responses. Fails when `cfg.metrics_stream`
/// cannot be created ([`ServerTelemetry::open`]) and on unparseable
/// response frames — the server must never emit those.
pub fn run_replay(cfg: &ServeConfig, plan: &ReplayPlan) -> Result<ReplayOutcome, String> {
    let tele = ServerTelemetry::open(cfg).map_err(|e| e.to_string())?;
    run_replay_with(cfg, plan, &tele)
}

/// [`run_replay`] against caller-opened telemetry, so a caller can
/// refuse an unopenable metrics stream before it builds the plan.
pub fn run_replay_with(
    cfg: &ServeConfig,
    plan: &ReplayPlan,
    tele: &ServerTelemetry,
) -> Result<ReplayOutcome, String> {
    let input = encode_requests(plan);
    let mut out: Vec<u8> = Vec::new();
    let watch = billcap_obs::Stopwatch::start();
    let stats = serve_with(cfg, Cursor::new(input), &mut out, tele);
    let elapsed_ns = watch.elapsed_ns();

    let mut decisions = Vec::new();
    let mut errors = Vec::new();
    let mut cur = Cursor::new(out);
    while let Some(frame) = read_frame(&mut cur, MAX_FRAME).map_err(|e| e.to_string())? {
        match Response::parse(&frame)? {
            Response::Decision(msg) => decisions.push(msg),
            Response::Error { id, message } => errors.push((id, message)),
            // The replay stream sends no control frames; a control
            // response here means the server misrouted something.
            Response::Metrics { .. } | Response::Health { .. } => {
                return Err("unexpected control response in replay stream".into())
            }
        }
    }
    decisions.sort_by_key(|m| m.id);
    Ok(ReplayOutcome {
        decisions,
        errors,
        stats,
        elapsed_ns,
    })
}

/// Checks a replay outcome against its plan: no errors, one response
/// per request, and every decision bitwise-identical to the sequential
/// fresh-model expectation. Returns the first mismatch, described.
pub fn verify_replay(plan: &ReplayPlan, outcome: &ReplayOutcome) -> Result<(), String> {
    if let Some((id, message)) = outcome.errors.first() {
        return Err(format!("server error for id {id:?}: {message}"));
    }
    if let Some(fe) = &outcome.stats.frame_error {
        return Err(format!("frame error: {fe}"));
    }
    if outcome.decisions.len() != plan.expected.len() {
        return Err(format!(
            "expected {} decisions, got {}",
            plan.expected.len(),
            outcome.decisions.len()
        ));
    }
    for (t, msg) in outcome.decisions.iter().enumerate() {
        if msg.id != t as u64 {
            return Err(format!("hour {t}: response id {} out of order", msg.id));
        }
        msg.bitwise_matches(&plan.expected[t])
            .map_err(|e| format!("hour {t}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_replay_is_bitwise_identical() {
        let plan = build_plan(1, 42, 6, Some(Scenario::STRINGENT_BUDGET)).unwrap();
        assert_eq!(plan.requests.len(), 6);
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let outcome = run_replay(&cfg, &plan).unwrap();
        verify_replay(&plan, &outcome).unwrap();
        assert_eq!(outcome.stats.decisions, 6);
    }

    #[test]
    fn plan_budgets_follow_recorded_spend() {
        let plan = build_plan(1, 42, 8, Some(Scenario::STRINGENT_BUDGET)).unwrap();
        // Budgets must vary hour to hour (spend feedback), and stay finite.
        let budgets: Vec<f64> = plan.requests.iter().map(|r| r.hourly_budget).collect();
        assert!(budgets.iter().all(|b| b.is_finite()));
        assert!(
            budgets.windows(2).any(|w| w[0] != w[1]),
            "budgets never moved: {budgets:?}"
        );
    }

    #[test]
    fn uncapped_plan_ships_infinite_budgets() {
        let plan = build_plan(0, 7, 3, None).unwrap();
        assert!(plan
            .requests
            .iter()
            .all(|r| r.hourly_budget == f64::INFINITY));
        let outcome = run_replay(
            &ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            &plan,
        )
        .unwrap();
        verify_replay(&plan, &outcome).unwrap();
    }
}
