//! Differential replay: drive the server with a simulated month and
//! check every response bitwise against the sequential fresh-model
//! decisions the simulator would have made.
//!
//! [`build_plan`] runs the month on the simulator's own Cost Capping
//! loop (`billcap_sim::run_month`) and turns each hour's record into a
//! request, with the hour's offered load, premium load and budget, plus
//! the [`HourDecision`] a one-shot [`BillCapper`] makes for it.
//! [`run_replay`] then fires the whole plan through [`serve_with`] as
//! one frame stream (a 168-hour "firehose"), and [`verify_replay`]
//! demands bitwise identity on every answer.
//!
//! Budget feedback is why the plan comes from a sequential month: hour
//! `t`'s budget depends on the realized cost of hours `0..t`. The
//! server itself is order-free — each request carries its own budget.

use crate::protocol::{read_frame, write_frame, DecisionMsg, Response, MAX_FRAME};
use crate::server::{serve_with, ServeConfig, ServeStats, ServerTelemetry};
use billcap_core::{BillCapper, CoreError, DataCenterSystem, HourDecision};
use billcap_sim::{run_month, Scenario, Strategy};
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

/// Builds an `hours`-long replay plan (at most a month) from the
/// simulator's Cost Capping month over the scenario's first `hours`
/// hours, deciding each hour again with a fresh [`BillCapper`].
///
/// `monthly_budget = None` means uncapped hours (budget `+∞`);
/// `Some(b)` budgets the short month with `hours` as its horizon, so
/// short replays see the same per-hour budgets a short month would. A
/// budget the month refuses (not positive, or a month of no hours) is
/// [`CoreError::InvalidInput`].
pub fn build_plan(
    policy: usize,
    seed: u64,
    hours: usize,
    monthly_budget: Option<f64>,
) -> Result<ReplayPlan, CoreError> {
    let scenario = Scenario::paper_default(policy, seed).first_hours(hours);
    let month = run_month(&scenario, Strategy::CostCapping, monthly_budget)?;
    let capper = BillCapper::default();

    let mut requests = Vec::with_capacity(month.hours.len());
    let mut expected = Vec::with_capacity(month.hours.len());
    for h in &month.hours {
        let background_mw = scenario.background_at(h.hour);
        let hourly_budget = h.hourly_budget.unwrap_or(f64::INFINITY);
        expected.push(capper.decide_hour(
            &scenario.system,
            h.offered,
            h.premium_offered,
            &background_mw,
            hourly_budget,
        )?);
        requests.push(crate::protocol::Request {
            id: h.hour as u64,
            policy,
            offered: h.offered,
            premium_offered: h.premium_offered,
            background_mw,
            hourly_budget,
        });
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
    fn a_budget_the_month_refuses_is_an_error() {
        for budget in [0.0, -5.0, f64::NAN] {
            let err = build_plan(2, 1, 4, Some(budget)).unwrap_err();
            assert!(matches!(err, CoreError::InvalidInput(_)), "{budget}: {err}");
        }
        let err = build_plan(2, 1, 0, Some(1e6)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput(_)), "{err}");
        assert!(build_plan(2, 1, 0, None).unwrap().requests.is_empty());
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
