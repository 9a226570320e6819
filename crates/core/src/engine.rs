//! The decision engine: the bill capper's three steps (paper Section
//! III, see [`crate::capper`]) over MILPs it keeps between hours.
//!
//! This is the only implementation of the steps. [`crate::BillCapper`]
//! and the class decider ([`crate::BillCapper::decide_hour_classes`])
//! build a one-shot engine per call; the month loops, the risk engine
//! and the decision server keep one for many hours. A one-shot engine
//! builds both step models from scratch. The models' *shape* barely
//! moves from hour to hour, though: variables and rows are fixed by the
//! data-center spec, and only the kept price-level set per site (a
//! function of the background demand `d` and the power cap relative to
//! the policy breakpoints) changes structure. A retained engine exploits
//! that: it builds each step's model once, and between hours rewrites
//! only the values that depend on the inputs —
//!
//! * the `z` coefficients of the `lvl_hi_{i}_{k}` / `lvl_lo_{i}_{k}`
//!   interval rows (functions of `d_i` and the cap),
//! * the `demand` / `offered` row RHS (`λ / RATE_SCALE`),
//! * the `budget` row RHS,
//! * per site whose power cap moved since the model last served (a
//!   [`crate::CapSchedule`] hour): the `lam_{i}` and `q_{i}_{k}` upper
//!   bounds and the `cap_{i}` RHS.
//!
//! When a background or cap change moves a site across a breakpoint the
//! kept level set changes, and the engine switches to a model built for
//! that key — structure is never patched in place. Built models are
//! retained in a small per-step cache keyed by the kept levels alone: a
//! diurnal background revisits the same few kept sets over and over, so
//! after the first day a month-long run stops rebuilding entirely, with
//! flat or hourly-moving caps alike.
//!
//! Every value is written by row index (the builders return the indices
//! in `PiecewiseVars`) into a plain [`Model`], and every solve of every
//! step runs cold from the model in the engine's one [`MipWorkspace`],
//! whose buffers are refilled rather than reallocated.
//!
//! **Bitwise contract:** a retained engine decides exactly like a
//! one-shot engine on the same inputs, and each step's allocation
//! matches [`crate::CostMinimizer::solve`] (steps 1 and 3) or
//! [`crate::ThroughputMaximizer::solve`] (step 2) bit for bit. All three
//! share the model builders (`minimize::cost_min_model`,
//! `maximize::throughput_max_model`) and the level and cap math
//! (`minimize::site_level_params`, `minimize::site_cap_values`), the
//! value writes put in the exact floats the builders would, and a kept
//! workspace solves bitwise like a fresh one, so the solver sees an
//! identical model and returns identical bits either way.
//!
//! The engine takes its settings from the [`CapperConfig`] it is built
//! with: `integral_servers` shapes the models,
//! and `audit` lints each model before a solve and certifies each
//! solution.

use crate::audit::checked_solve;
use crate::cache::Fnv;
use crate::capper::{validate_hour_inputs, CapperConfig, DecisionTrace, HourDecision, HourOutcome};
use crate::error::CoreError;
use crate::maximize::throughput_max_model;
use crate::minimize::{
    cost_min_model, extract_allocation, site_cap_values, site_level_params, Allocation, LevelParam,
    PiecewiseVars, RATE_SCALE,
};
use crate::spec::DataCenterSystem;
use billcap_milp::{MipSolver, MipWorkspace, Model, Solution, SolveError};
use billcap_obs::Stopwatch;
use std::collections::BTreeSet;

/// The two retained model shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    /// Cost minimization: steps 1 and 3 (they differ only in the
    /// demand RHS).
    CostMin,
    /// Throughput maximization within the budget: step 2.
    ThruMax,
}

/// One retained step model: the model, its variable handles and row
/// indices, the key its structure was built for, and the caps its
/// values were last written for.
struct StepModel {
    model: Model,
    vars: PiecewiseVars,
    /// Kept price-level indices per site — the structural key. When the
    /// hour's key differs the engine switches models, never patches
    /// structure. Cap-driven pruning shows up here, so caps need no key
    /// of their own.
    kept: Vec<Vec<usize>>,
    /// Per-site power caps (bit patterns) the cap-dependent values —
    /// `lam` and `q` upper bounds, `cap_i` RHS — were last written for.
    /// A site whose current cap has the same bits skips the rewrite;
    /// bit equality (not `==` on floats) keeps a NaN cap deterministic.
    caps: Vec<u64>,
    /// LRU stamp for cache eviction.
    last_used: u64,
}

/// Retained models per step, capped at this many distinct kept-level
/// keys; least-recently-used entries are evicted. A diurnal background
/// cycles through a dozen-odd kept-set phases (each site crosses a few
/// breakpoints up and back per day), so 24 keeps a steady month fully
/// resident, cap schedule or not, while still bounding memory on an
/// adversarial background.
const STEP_CACHE_CAP: usize = 24;

/// The retained solver state behind a [`DecisionEngine`]: one solve per
/// step, each on a cached model synced to the hour's inputs.
struct EngineCore {
    integral_servers: bool,
    /// Lint and certify every solve ([`CapperConfig::audit`]).
    audit: bool,
    /// Runs every step's solve.
    solver: MipSolver,
    /// The buffers every solve of every step refills.
    ws: MipWorkspace,
    cost_min: Vec<StepModel>,
    thru_max: Vec<StepModel>,
    /// Monotonic use counter driving the caches' LRU eviction.
    stamp: u64,
    /// Step-model cache telemetry across both steps' caches.
    stats: EngineStats,
    /// Fingerprints of the distinct structures built since the last
    /// [`DecisionEngine::drain_built_keys`], for the server's
    /// unique-rebuild registry. A set, so an engine nobody drains holds
    /// one entry per distinct structure, however often LRU churn
    /// rebuilds it.
    built_keys: BTreeSet<u64>,
}

/// Step-model LRU telemetry for one engine: exact work counters,
/// deterministic for a fixed decision sequence on this engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Lookups that found a retained model (LRU hit).
    pub hits: u64,
    /// Lookups that required a full model build. Equals the number of
    /// rebuilds: every miss builds.
    pub misses: u64,
    /// Retained models evicted to make room (LRU full).
    pub evictions: u64,
}

/// The bill capper for one system, keeping its MILPs alive between
/// hours. See the module docs for the reuse strategy and the bitwise
/// contract.
pub struct DecisionEngine {
    system: DataCenterSystem,
    core: EngineCore,
}

impl DecisionEngine {
    /// Builds an engine for `system` with the given capper config.
    /// Models are built lazily on the first decision.
    pub fn new(system: DataCenterSystem, config: CapperConfig) -> Self {
        Self {
            system,
            core: EngineCore {
                integral_servers: config.integral_servers,
                audit: config.audit,
                solver: MipSolver::default(),
                ws: MipWorkspace::default(),
                cost_min: Vec::new(),
                thru_max: Vec::new(),
                stamp: 0,
                stats: EngineStats::default(),
                built_keys: BTreeSet::new(),
            },
        }
    }

    /// Step-model cache counters accumulated by this engine.
    pub fn cache_stats(&self) -> EngineStats {
        self.core.stats
    }

    /// Removes and returns the fingerprints of the distinct model
    /// structures built since the previous call, in ascending order
    /// (empty when only cached models served). A fingerprint is a pure
    /// function of `(step, kept levels)`, so the *set* of fingerprints
    /// drained over a request sequence is independent of how the
    /// sequence was sharded across engines — the server aggregates them
    /// into a thread-count-invariant unique-rebuild counter.
    pub fn drain_built_keys(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.core.built_keys)
            .into_iter()
            .collect()
    }

    /// The system this engine decides for.
    pub fn system(&self) -> &DataCenterSystem {
        &self.system
    }

    /// Re-caps every site for the next decisions (a
    /// [`crate::CapSchedule`] hour). Caps are *values* of the retained
    /// models: the next [`Self::decide_hour`] rewrites the `lam` and `q`
    /// upper bounds and the `cap_i` RHS of each site whose cap bits
    /// moved since the served model last saw them, and switches models
    /// only when a cap prunes or restores a price level (the kept-level
    /// key). Decisions stay independent of cap history: a served model
    /// is bitwise-identical to a fresh build for the current inputs.
    ///
    /// Bad caps (NaN, infinite, below base power) are accepted here and
    /// fail or succeed in the decision exactly as they do for a one-shot
    /// engine. A model whose cap rewrite fails part-way is dropped from
    /// the cache, never served half-written.
    ///
    /// # Panics
    ///
    /// Panics when `caps.len()` differs from the system's site count.
    pub fn set_site_caps(&mut self, caps: &[f64]) {
        assert_eq!(
            caps.len(),
            self.system.sites.len(),
            "got {} caps for {} sites",
            caps.len(),
            self.system.sites.len()
        );
        for (site, &cap) in self.system.sites.iter_mut().zip(caps) {
            site.power_cap_mw = cap;
        }
    }

    /// Decides one hour's allocation (the steps are listed in
    /// [`crate::capper`]).
    ///
    /// `offered` is the total arrival rate, `premium_offered` the premium
    /// share (`<= offered`), `background_mw` the regional non-DC demand,
    /// and `hourly_budget` the budgeter's allotment for this hour. Inputs
    /// that break [`validate_hour_inputs`] are rejected.
    ///
    /// If the offered load exceeds deliverable capacity (an extreme flash
    /// crowd), ordinary traffic is shed first to bring it within capacity;
    /// premium beyond capacity is an error.
    pub fn decide_hour(
        &mut self,
        offered: f64,
        premium_offered: f64,
        background_mw: &[f64],
        hourly_budget: f64,
    ) -> Result<HourDecision, CoreError> {
        let steps = self.decide(offered, premium_offered, background_mw, hourly_budget)?;
        Ok(HourDecision {
            outcome: steps.outcome,
            offered: steps.offered,
            premium_offered,
            premium_served: premium_offered,
            // Premium never exceeds the clamped offered rate, so this
            // clamps only a step-2 admission a hair under the premium.
            ordinary_served: (steps.served - premium_offered).max(0.0),
            budget: hourly_budget,
            allocation: steps.allocation,
            trace: steps.trace,
        })
    }

    /// The three steps, for every front: `guaranteed` is the rate served
    /// whatever the budget (the premium rate, or the guaranteed prefix of
    /// a class decision).
    pub(crate) fn decide(
        &mut self,
        offered: f64,
        guaranteed: f64,
        background_mw: &[f64],
        hourly_budget: f64,
    ) -> Result<Steps, CoreError> {
        validate_hour_inputs(offered, guaranteed, background_mw, hourly_budget)?;
        let (core, system) = (&mut self.core, &self.system);
        let capacity = system.total_capacity();
        if guaranteed > capacity {
            return Err(CoreError::InsufficientCapacity {
                demanded: guaranteed,
                capacity,
            });
        }
        // Capacity clamp: shed un-servable ordinary traffic up front.
        let offered = offered.min(capacity);
        let mut trace = DecisionTrace::default();
        let (outcome, served, allocation) = 'steps: {
            // Step 1: cost minimization over the whole offered load.
            let t0 = Stopwatch::start();
            let mut span1 = billcap_obs::span("step1");
            let step1 = core.minimize(system, offered, background_mw)?;
            span1.field("cost", step1.total_cost);
            drop(span1);
            trace.step1_ns = t0.elapsed_ns();
            trace.absorb(&step1);
            if step1.total_cost <= hourly_budget {
                break 'steps (HourOutcome::WithinBudget, offered, step1);
            }

            // Step 2: throughput maximization within the budget.
            let t0 = Stopwatch::start();
            let mut span2 = billcap_obs::span("step2");
            let step2 = match core.maximize(system, offered, background_mw, hourly_budget) {
                Ok(a) => Some(a),
                // A budget below the unavoidable base-power cost is
                // infeasible; treat as zero achievable throughput.
                Err(CoreError::Solver(SolveError::Infeasible)) => None,
                Err(e) => return Err(e),
            };
            if let Some(a) = &step2 {
                span2.field("admitted", a.total_lambda);
            }
            drop(span2);
            trace.step2_ns = t0.elapsed_ns();
            if let Some(step2) = step2 {
                trace.absorb(&step2);
                if step2.total_lambda >= guaranteed - 1e-6 {
                    break 'steps (HourOutcome::Throttled, step2.total_lambda, step2);
                }
            }

            // Guaranteed override: serve the guaranteed rate at minimum
            // cost, budget be damned.
            let t0 = Stopwatch::start();
            let mut span3 = billcap_obs::span("step3");
            let step3 = core.minimize(system, guaranteed, background_mw)?;
            span3.field("cost", step3.total_cost);
            drop(span3);
            trace.step3_ns = t0.elapsed_ns();
            trace.absorb(&step3);
            (HourOutcome::PremiumOverride, guaranteed, step3)
        };
        record_outcome(outcome, &allocation, hourly_budget);
        Ok(Steps {
            outcome,
            offered,
            served,
            allocation,
            trace,
        })
    }
}

/// What the three steps decided, for a front to map onto its own
/// decision type.
pub(crate) struct Steps {
    /// Which step's allocation is enforced.
    pub(crate) outcome: HourOutcome,
    /// The offered rate after the capacity clamp.
    pub(crate) offered: f64,
    /// The total rate served: the clamped offered rate (step 1), the
    /// admitted rate (step 2) or the guaranteed rate (step 3).
    pub(crate) served: f64,
    /// The enforced allocation.
    pub(crate) allocation: Allocation,
    /// Solver effort across the steps that ran.
    pub(crate) trace: DecisionTrace,
}

/// Emits the per-hour outcome counters, the budget-slack gauge, and the
/// price-level-selection histogram when tracing is enabled.
fn record_outcome(outcome: HourOutcome, alloc: &Allocation, budget: f64) {
    if !billcap_obs::enabled() {
        return;
    }
    let name = match outcome {
        HourOutcome::WithinBudget => "core.capper.within_budget",
        HourOutcome::Throttled => "core.capper.throttled",
        HourOutcome::PremiumOverride => "core.capper.premium_override",
    };
    billcap_obs::counter(name, 1);
    if budget.is_finite() {
        billcap_obs::gauge("core.capper.budget_slack", budget - alloc.total_cost);
    }
    // One observation per site-hour: which price level the site landed in.
    const LEVEL_BOUNDS: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];
    for &k in &alloc.level {
        billcap_obs::observe_with("core.capper.price_level", k as f64, &LEVEL_BOUNDS);
    }
}

impl StepModel {
    /// Keeps a freshly built model, recording the caps it was built for.
    /// It is validated by its first solve, which drops it from the cache
    /// if it is invalid (see [`EngineCore::solve_step`]).
    fn new(
        model: Model,
        vars: PiecewiseVars,
        kept: &[Vec<usize>],
        system: &DataCenterSystem,
        stamp: u64,
    ) -> Self {
        Self {
            model,
            vars,
            kept: kept.to_vec(),
            caps: system
                .sites
                .iter()
                .map(|s| s.power_cap_mw.to_bits())
                .collect(),
            last_used: stamp,
        }
    }

    /// Rewrites the cap-dependent values of every site whose cap bits
    /// differ from those the model was last written for. The kept key
    /// already matches, so the `q` handles line up with this hour's
    /// levels. An upper bound that is NaN or below its zero lower bound,
    /// or a non-finite `cap_i` RHS, fails the sync as it would fail
    /// [`Model::validate`].
    fn sync_caps(&mut self, system: &DataCenterSystem) -> Result<(), CoreError> {
        for (i, site) in system.sites.iter().enumerate() {
            let bits = site.power_cap_mw.to_bits();
            if self.caps[i] == bits {
                continue;
            }
            let v = site_cap_values(site);
            for ub in [v.lam_ub, v.q_ub] {
                if ub.is_nan() || ub < 0.0 {
                    return Err(CoreError::Solver(SolveError::InvalidModel(format!(
                        "invalid bounds [0, {ub}] for site {i}"
                    ))));
                }
            }
            self.model.set_var_bounds(self.vars.lam[i], 0.0, v.lam_ub);
            for &(_, _, q, _) in &self.vars.levels[i] {
                self.model.set_var_bounds(q, 0.0, v.q_ub);
            }
            self.model
                .set_constraint_rhs(self.vars.cap_rows[i], v.cap_rhs)?;
            self.caps[i] = bits;
        }
        Ok(())
    }

    /// Rewrites the interval-row `z` coefficients to this hour's values.
    /// Only called when the kept key matches, so every `(site, slot)`
    /// pair lines up with a retained `(q, z)` pair and the builder's
    /// `(lvl_hi, lvl_lo)` row pair.
    fn sync_levels(&mut self, params: &[Vec<LevelParam>]) -> Result<(), CoreError> {
        for (i, site_params) in params.iter().enumerate() {
            let slots = self.vars.levels[i].iter().zip(&self.vars.lvl_rows[i]);
            for (p, (&(_, _, _, z), &(hi, lo))) in site_params.iter().zip(slots) {
                self.model.set_constraint_coeff(hi, z, p.zcoef_hi)?;
                self.model.set_constraint_coeff(lo, z, p.zcoef_lo)?;
            }
        }
        Ok(())
    }
}

impl EngineCore {
    /// Per-site kept-level parameters for this hour's background vector.
    fn level_params(system: &DataCenterSystem, background_mw: &[f64]) -> Vec<Vec<LevelParam>> {
        system
            .sites
            .iter()
            .enumerate()
            .map(|(i, site)| site_level_params(site, system.policy(i), background_mw[i]))
            .collect()
    }

    fn kept_key(params: &[Vec<LevelParam>]) -> Vec<Vec<usize>> {
        params
            .iter()
            .map(|ps| ps.iter().map(|p| p.k).collect())
            .collect()
    }

    fn cache(&mut self, step: Step) -> &mut Vec<StepModel> {
        match step {
            Step::CostMin => &mut self.cost_min,
            Step::ThruMax => &mut self.thru_max,
        }
    }

    /// Returns the cache index of the entry matching `kept`, refreshing
    /// its LRU stamp, or `None` on a miss.
    fn cache_lookup(cache: &mut [StepModel], kept: &[Vec<usize>], stamp: u64) -> Option<usize> {
        let idx = cache.iter().position(|s| s.kept == kept)?;
        cache[idx].last_used = stamp;
        Some(idx)
    }

    /// Inserts a freshly built model, evicting the least-recently-used
    /// entry when the cache is full. Returns the new entry's index and
    /// whether an eviction happened.
    fn cache_insert(cache: &mut Vec<StepModel>, entry: StepModel) -> (usize, bool) {
        let mut evicted = false;
        if cache.len() >= STEP_CACHE_CAP {
            let evict = cache
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .unwrap_or(0);
            cache.swap_remove(evict);
            evicted = true;
        }
        cache.push(entry);
        (cache.len() - 1, evicted)
    }

    /// FNV-1a fingerprint of one step model's structural key. Depends
    /// only on `(step, kept)` — never on caps, engine identity or build
    /// order — which makes sets of fingerprints comparable across
    /// engines and thread counts.
    fn structure_fingerprint(step: Step, kept: &[Vec<usize>]) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(match step {
            Step::CostMin => 1,
            Step::ThruMax => 2,
        });
        h.write_u64(kept.len() as u64);
        for site in kept {
            h.write_u64(site.len() as u64);
            for &k in site {
                h.write_u64(k as u64);
            }
        }
        h.0
    }

    /// Bumps the telemetry for a step-cache hit.
    fn note_hit(&mut self) {
        self.stats.hits += 1;
        if billcap_obs::enabled() {
            billcap_obs::counter("core.engine.cache.hit", 1);
        }
    }

    /// Bumps the telemetry for a step-cache miss and remembers the
    /// built structure's fingerprint. Every miss builds a model, so the
    /// one event is emitted under both names the readers use:
    /// `core.engine.cache.miss` next to the hit and evict counters, and
    /// `core.engine.rebuilds`, the full-build count the perf gate and
    /// the benchmark ledger track.
    fn note_miss(&mut self, step: Step, kept: &[Vec<usize>]) {
        self.stats.misses += 1;
        self.built_keys
            .insert(Self::structure_fingerprint(step, kept));
        if billcap_obs::enabled() {
            billcap_obs::counter("core.engine.cache.miss", 1);
            billcap_obs::counter("core.engine.rebuilds", 1);
        }
    }

    /// Bumps the telemetry when an insert evicted a retained model.
    fn note_eviction(&mut self, evicted: bool) {
        if evicted {
            self.stats.evictions += 1;
            if billcap_obs::enabled() {
                billcap_obs::counter("core.engine.cache.evict", 1);
            }
        }
    }

    /// Returns the cache index of the `step` model for this hour's kept
    /// levels with its caps and interval rows synced, building it on a
    /// cache miss with the step's model builder. The per-solve RHS
    /// (demand, offered, budget) is left for the caller to set.
    fn step_model(
        &mut self,
        step: Step,
        system: &DataCenterSystem,
        background_mw: &[f64],
    ) -> Result<usize, CoreError> {
        let params = Self::level_params(system, background_mw);
        let kept = Self::kept_key(&params);
        self.stamp += 1;
        let stamp = self.stamp;
        let idx = match Self::cache_lookup(self.cache(step), &kept, stamp) {
            Some(idx) => {
                self.note_hit();
                idx
            }
            None => {
                self.note_miss(step, &kept);
                let (m, vars) = match step {
                    Step::CostMin => {
                        cost_min_model(system, 0.0, background_mw, self.integral_servers)
                    }
                    Step::ThruMax => {
                        throughput_max_model(system, 0.0, background_mw, 0.0, self.integral_servers)
                    }
                };
                let entry = StepModel::new(m, vars, &kept, system, stamp);
                let (idx, evicted) = Self::cache_insert(self.cache(step), entry);
                self.note_eviction(evicted);
                idx
            }
        };
        let cache = self.cache(step);
        if let Err(e) = cache[idx].sync_caps(system) {
            // Some of this site's values may already be rewritten: drop
            // the model so the next lookup rebuilds it.
            cache.swap_remove(idx);
            return Err(e);
        }
        cache[idx].sync_levels(&params)?;
        Ok(idx)
    }

    /// Solves the retained `step` model at cache index `idx` as its RHS
    /// stands. The solve validates the model; one it refuses as
    /// [`SolveError::InvalidModel`] (a fresh build for a NaN or infinite
    /// cap) is dropped, as after a failed cap sync, so it never stays
    /// cached and the next lookup rebuilds it.
    fn solve_step(&mut self, step: Step, idx: usize) -> Result<Solution, CoreError> {
        let (solver, ws) = (&self.solver, &mut self.ws);
        let cache = match step {
            Step::CostMin => &mut self.cost_min,
            Step::ThruMax => &mut self.thru_max,
        };
        let model = &cache[idx].model;
        let result = checked_solve(self.audit, model, || {
            solver.solve_in(model, None, ws).map(|(sol, _)| sol)
        });
        if let Err(CoreError::Solver(SolveError::InvalidModel(_))) = result {
            cache.swap_remove(idx);
        }
        result
    }
}

impl EngineCore {
    /// Steps 1 and 3: cost-minimize serving `lambda` requests/hour.
    fn minimize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
    ) -> Result<Allocation, CoreError> {
        if background_mw.len() != system.len() {
            return Err(CoreError::Dimension {
                expected: system.len(),
                got: background_mw.len(),
            });
        }
        let capacity = system.total_capacity();
        if lambda > capacity {
            return Err(CoreError::InsufficientCapacity {
                demanded: lambda,
                capacity,
            });
        }
        let idx = self.step_model(Step::CostMin, system, background_mw)?;
        let step = &mut self.cost_min[idx];
        step.model
            .set_constraint_rhs(step.vars.rate_row, lambda / RATE_SCALE)?;
        let sol = self.solve_step(Step::CostMin, idx)?;
        Ok(extract_allocation(system, &self.cost_min[idx].vars, &sol))
    }

    /// Step 2: maximize admitted throughput within `budget`.
    fn maximize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
        budget: f64,
    ) -> Result<Allocation, CoreError> {
        if background_mw.len() != system.len() {
            return Err(CoreError::Dimension {
                expected: system.len(),
                got: background_mw.len(),
            });
        }
        let idx = self.step_model(Step::ThruMax, system, background_mw)?;
        let step = &mut self.thru_max[idx];
        step.model
            .set_constraint_rhs(step.vars.rate_row, lambda / RATE_SCALE)?;
        if let Some(row) = step.vars.budget_row {
            step.model.set_constraint_rhs(row, budget.max(0.0))?;
        }
        let sol = self.solve_step(Step::ThruMax, idx)?;
        Ok(extract_allocation(system, &self.thru_max[idx].vars, &sol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capper::BillCapper;
    use crate::capsched::CapSchedule;
    use crate::maximize::ThroughputMaximizer;
    use crate::minimize::CostMinimizer;

    /// Bitwise equality on everything deterministic in a decision
    /// (wall-clock ns fields are machine noise and excluded).
    fn assert_decisions_bitwise_equal(a: &HourDecision, b: &HourDecision, ctx: &str) {
        assert_eq!(a.outcome, b.outcome, "{ctx}: outcome");
        assert_eq!(a.offered.to_bits(), b.offered.to_bits(), "{ctx}: offered");
        assert_eq!(
            a.premium_served.to_bits(),
            b.premium_served.to_bits(),
            "{ctx}: premium_served"
        );
        assert_eq!(
            a.ordinary_served.to_bits(),
            b.ordinary_served.to_bits(),
            "{ctx}: ordinary_served"
        );
        assert_eq!(a.budget.to_bits(), b.budget.to_bits(), "{ctx}: budget");
        assert_eq!(a.trace.solves, b.trace.solves, "{ctx}: solves");
        assert_eq!(a.trace.nodes, b.trace.nodes, "{ctx}: nodes");
        assert_eq!(
            a.trace.lp_iterations, b.trace.lp_iterations,
            "{ctx}: lp_iterations"
        );
        assert_allocations_bitwise_equal(&a.allocation, &b.allocation, ctx);
    }

    /// Bitwise equality of two allocations' dispatch, prices and costs.
    fn assert_allocations_bitwise_equal(x: &Allocation, y: &Allocation, ctx: &str) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.lambda), bits(&y.lambda), "{ctx}: lambda");
        assert_eq!(x.servers, y.servers, "{ctx}: servers");
        assert_eq!(bits(&x.power_mw), bits(&y.power_mw), "{ctx}: power");
        assert_eq!(bits(&x.price), bits(&y.price), "{ctx}: price");
        assert_eq!(x.level, y.level, "{ctx}: level");
        assert_eq!(bits(&x.cost), bits(&y.cost), "{ctx}: cost");
        assert_eq!(
            x.total_cost.to_bits(),
            y.total_cost.to_bits(),
            "{ctx}: total_cost"
        );
        assert_eq!(
            x.total_lambda.to_bits(),
            y.total_lambda.to_bits(),
            "{ctx}: total_lambda"
        );
    }

    /// A day-long sweep that exercises all three outcomes and drags
    /// site backgrounds across price breakpoints (forcing kept-level
    /// rebuilds between mutate-only hours). Budgets are anchored to the
    /// hour's actual minimized cost so the throttled branch really runs.
    fn sweep(sys: &DataCenterSystem) -> Vec<(f64, f64, Vec<f64>, f64)> {
        let minimizer = CostMinimizer::default();
        let mut hours = Vec::new();
        for h in 0..24u32 {
            let t = f64::from(h);
            let offered = 4e8 + 3e8 * (t / 23.0);
            let premium = 0.6 * offered;
            // Site 0 crosses its 450-MW breakpoint mid-sweep; site 1
            // wanders within a level; site 2 crosses twice.
            let background = vec![
                330.0 + 10.0 * t,
                410.0 + 2.0 * t,
                280.0 + 25.0 * (t * 0.7).sin().abs() * t.min(8.0),
            ];
            let full_cost = minimizer
                .solve(sys, offered, &background)
                .unwrap()
                .total_cost;
            let budget = match h % 4 {
                0 => f64::INFINITY,
                1 => 0.93 * full_cost,
                2 => 0.8 * full_cost,
                _ => 1.0,
            };
            hours.push((offered, premium, background, budget));
        }
        hours
    }

    #[test]
    fn engine_matches_fresh_capper_bitwise() {
        let sys = DataCenterSystem::paper_system(1);
        let capper = BillCapper::default();
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        let mut outcomes = [0usize; 3];
        for (h, (offered, premium, background, budget)) in sweep(&sys).into_iter().enumerate() {
            let fresh = capper
                .decide_hour(&sys, offered, premium, &background, budget)
                .unwrap();
            let served = engine
                .decide_hour(offered, premium, &background, budget)
                .unwrap();
            assert_decisions_bitwise_equal(&served, &fresh, &format!("hour {h}"));
            outcomes[match fresh.outcome {
                HourOutcome::WithinBudget => 0,
                HourOutcome::Throttled => 1,
                HourOutcome::PremiumOverride => 2,
            }] += 1;
        }
        assert!(
            outcomes.iter().all(|&c| c > 0),
            "sweep must exercise all outcomes, got {outcomes:?}"
        );
    }

    /// The capper's step models over the sweep's inputs, with relaxed
    /// and integral server counts, each with a context label: step 1
    /// every hour, step 2 in the hours with a finite budget.
    fn sweep_models(sys: &DataCenterSystem) -> Vec<(String, Model)> {
        let mut models = Vec::new();
        for integral_servers in [false, true] {
            for (h, (offered, _, background, budget)) in sweep(sys).into_iter().enumerate() {
                let mut step = vec![cost_min_model(sys, offered, &background, integral_servers).0];
                if budget.is_finite() {
                    step.push(
                        throughput_max_model(sys, offered, &background, budget, integral_servers).0,
                    );
                }
                for m in step {
                    models.push((
                        format!("hour {h} {} integral {integral_servers}", m.name),
                        m,
                    ));
                }
            }
        }
        models
    }

    /// Two integral step-1 models of the sweep need ~110k nodes, so the
    /// path comparisons below stop at this cap and must report the same
    /// node limit there.
    const SWEEP_NODE_CAP: usize = 2_000;

    /// Warm- and cold-started branch-and-bound on the capper's own
    /// models: both solves certify, agree on the verdict and agree on
    /// the objective within certificate tolerance. Equal bits are not
    /// required: a cold search can end on another tied optimum.
    #[test]
    fn cold_starts_agree_with_warm_starts_on_capper_models() {
        let sys = DataCenterSystem::paper_system(1);
        let warm = MipSolver {
            max_nodes: SWEEP_NODE_CAP,
            ..MipSolver::default()
        };
        let cold = MipSolver {
            warm_start: false,
            ..warm.clone()
        };
        let (mut optima, mut warm_starts, mut cold_starts) = (0, 0, 0);
        for (ctx, m) in &sweep_models(&sys) {
            match (warm.solve(m), cold.solve(m)) {
                (Ok(w), Ok(c)) => {
                    for (path, sol) in [("warm", &w), ("cold", &c)] {
                        let report = billcap_milp::certify_solution(m, sol);
                        assert!(report.certified(), "{ctx} {path}: {report}");
                    }
                    let tol = 1e-6 * (1.0 + w.objective.abs());
                    assert!(
                        (w.objective - c.objective).abs() <= tol,
                        "{ctx}: warm {} vs cold {}",
                        w.objective,
                        c.objective
                    );
                    optima += 1;
                    warm_starts += w.mip.map_or(0, |s| s.trace.warm_starts);
                    cold_starts += c.mip.map_or(0, |s| s.trace.warm_starts);
                }
                (w, c) => assert_eq!(w.err(), c.err(), "{ctx}: verdicts differ"),
            }
        }
        assert!(optima >= 48, "only {optima} optimal models");
        assert!(warm_starts > 0, "the warm path never warm-started");
        assert_eq!(cold_starts, 0, "the cold path warm-started");
    }

    /// The capper's step models, solved by default (the revised simplex
    /// updates `x_B` and the duals between refactorizations) and with
    /// `refactor_every: 1` (a refactorization, and so a rebuild of both,
    /// after every pivot): the same verdict and status, objectives within
    /// 1e-9 relative, and both solutions certified.
    #[test]
    fn pivot_updates_agree_with_per_pivot_rebuilds_on_capper_models() {
        let sys = DataCenterSystem::paper_system(1);
        let solver = MipSolver {
            max_nodes: SWEEP_NODE_CAP,
            ..MipSolver::default()
        };
        let rebuild = billcap_milp::RevisedOptions {
            refactor_every: 1,
            ..billcap_milp::RevisedOptions::default()
        };
        let mut optima = 0;
        for (ctx, m) in &sweep_models(&sys) {
            let mut ws = billcap_milp::MipWorkspace::with_lp_options(rebuild);
            let rebuilt = solver.solve_in(m, None, &mut ws).map(|(sol, _)| sol);
            match (solver.solve(m), rebuilt) {
                (Ok(u), Ok(r)) => {
                    for (path, sol) in [("updated", &u), ("rebuilt", &r)] {
                        let report = billcap_milp::certify_solution(m, sol);
                        assert!(report.certified(), "{ctx} {path}: {report}");
                    }
                    assert_eq!(u.status, r.status, "{ctx}: status");
                    let tol = 1e-9 * u.objective.abs().max(1.0);
                    assert!(
                        (u.objective - r.objective).abs() <= tol,
                        "{ctx}: updated {} vs rebuilt {}",
                        u.objective,
                        r.objective
                    );
                    optima += 1;
                }
                (u, r) => assert_eq!(u.err(), r.err(), "{ctx}: verdicts differ"),
            }
        }
        assert!(optima >= 48, "only {optima} optimal models");
    }

    /// A negative site cap contradicts the `lvl_lo` row of the site's
    /// zero-power level (lint code M004). An audited solve refuses the
    /// model before the solver sees it; with `audit: false`, in either
    /// build profile, the solver runs and proves it infeasible. Both
    /// optimizers built from a config and both engine steps honour the
    /// switch.
    #[test]
    fn audit_switch_reaches_every_solve() {
        let mut sys = DataCenterSystem::paper_system(1);
        sys.sites[0].power_cap_mw = -5.0;
        let bg = [330.0, 410.0, 280.0];
        for audit in [true, false] {
            let config = CapperConfig {
                audit,
                ..CapperConfig::default()
            };
            let minimizer = CostMinimizer::new(&config);
            let maximizer = ThroughputMaximizer::new(&config);
            let mut engine = DecisionEngine::new(sys.clone(), config);
            let results = [
                ("minimizer", minimizer.solve(&sys, 1e8, &bg)),
                ("maximizer", maximizer.solve(&sys, 1e8, &bg, 1e4)),
                ("engine step 1", engine.core.minimize(&sys, 1e8, &bg)),
                ("engine step 2", engine.core.maximize(&sys, 1e8, &bg, 1e4)),
            ];
            for (path, r) in results {
                match (audit, r) {
                    (true, Err(CoreError::Lint(msg))) => assert!(msg.contains("M004"), "{msg}"),
                    (false, Err(CoreError::Solver(SolveError::Infeasible))) => {}
                    (_, r) => panic!("{path} with audit {audit}: {r:?}"),
                }
            }
        }
    }

    /// The step-level reference: every engine step against the optimizer
    /// that builds and solves the same model from scratch — steps 1 and
    /// 3 against [`CostMinimizer::solve`], step 2 against
    /// [`ThroughputMaximizer::solve`] — bit for bit, solver effort
    /// included. One retained engine per run serves the sweep, so cache
    /// hits, rebuilds and cap syncs are all compared. Relaxed models run
    /// every hour and integral ones every 6th, each under flat caps and
    /// under an afternoon derate.
    #[test]
    fn engine_steps_match_the_optimizers_bitwise() {
        let sys = DataCenterSystem::paper_system(1);
        let base_caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        let derate = CapSchedule::derating(&base_caps, 24, 0.35, 42);
        let hours = sweep(&sys);
        let mut compared = [0usize; 2];
        for integral_servers in [false, true] {
            let config = CapperConfig {
                integral_servers,
                ..CapperConfig::default()
            };
            let minimizer = CostMinimizer::new(&config);
            let maximizer = ThroughputMaximizer::new(&config);
            let every = if integral_servers { 6 } else { 1 };
            for derated in [false, true] {
                let mut engine = DecisionEngine::new(sys.clone(), config.clone());
                for (h, (offered, premium, bg, budget)) in hours.iter().enumerate().step_by(every) {
                    let mut capped = sys.clone();
                    if derated {
                        derate.apply(&mut capped, h);
                        engine.set_site_caps(derate.caps_at(h));
                    }
                    let ctx = format!("hour {h} integral {integral_servers} derated {derated}");
                    for (step, lambda) in [("step 1", *offered), ("step 3", *premium)] {
                        let served = engine.core.minimize(&engine.system, lambda, bg);
                        let built = minimizer.solve(&capped, lambda, bg);
                        assert_step_results_equal(&served, &built, &format!("{ctx} {step}"));
                    }
                    if budget.is_finite() {
                        let served = engine.core.maximize(&engine.system, *offered, bg, *budget);
                        let built = maximizer.solve(&capped, *offered, bg, *budget);
                        assert_step_results_equal(&served, &built, &format!("{ctx} step 2"));
                    }
                    compared[usize::from(integral_servers)] += 1;
                }
            }
        }
        assert_eq!(compared, [48, 8], "hours compared (relaxed, integral)");
    }

    /// Both step results fail alike, or both succeed with bitwise-equal
    /// allocations and equal solver effort.
    fn assert_step_results_equal(
        served: &Result<Allocation, CoreError>,
        built: &Result<Allocation, CoreError>,
        ctx: &str,
    ) {
        match (served, built) {
            (Ok(x), Ok(y)) => {
                assert_allocations_bitwise_equal(x, y, ctx);
                let effort =
                    |a: &Allocation| a.stats.as_ref().map(|s| (s.nodes, s.trace.lp.iterations));
                assert_eq!(effort(x), effort(y), "{ctx}: solver effort");
            }
            (x, y) => assert_eq!(x.as_ref().err(), y.as_ref().err(), "{ctx}: verdicts"),
        }
    }

    #[test]
    fn engine_matches_fresh_capper_with_integral_servers() {
        let sys = DataCenterSystem::paper_system(1);
        let config = CapperConfig {
            integral_servers: true,
            ..CapperConfig::default()
        };
        let capper = BillCapper::new(config.clone());
        let mut engine = DecisionEngine::new(sys.clone(), config);
        for (h, (offered, premium, background, budget)) in
            sweep(&sys).into_iter().step_by(6).enumerate()
        {
            let fresh = capper
                .decide_hour(&sys, offered, premium, &background, budget)
                .unwrap();
            let served = engine
                .decide_hour(offered, premium, &background, budget)
                .unwrap();
            assert_decisions_bitwise_equal(&served, &fresh, &format!("integral hour {h}"));
        }
    }

    #[test]
    fn engine_matches_fresh_capper_under_a_cap_schedule() {
        let sys = DataCenterSystem::paper_system(1);
        let base_caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        let sched = CapSchedule::derating(&base_caps, 24, 0.35, 42);
        let capper = BillCapper::default();
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        for (h, (offered, premium, background, budget)) in sweep(&sys).into_iter().enumerate() {
            // Fresh path: mutate a working copy of the spec.
            let mut capped = sys.clone();
            sched.apply(&mut capped, h);
            let fresh = capper
                .decide_hour(&capped, offered, premium, &background, budget)
                .unwrap();
            // Engine path: re-cap in place; caps sync as model values.
            engine.set_site_caps(sched.caps_at(h));
            let served = engine
                .decide_hour(offered, premium, &background, budget)
                .unwrap();
            assert_decisions_bitwise_equal(&served, &fresh, &format!("capped hour {h}"));
        }
    }

    #[test]
    fn cap_change_actually_changes_the_decision() {
        let sys = DataCenterSystem::paper_system(1);
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        let background = vec![330.0, 410.0, 280.0];
        let before = engine
            .decide_hour(7e8, 4.2e8, &background, f64::INFINITY)
            .unwrap();
        // Squeeze the most-loaded site hard; the allocation must shift.
        let loaded = before
            .allocation
            .lambda
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        caps[loaded] *= 0.25;
        engine.set_site_caps(&caps);
        let after = engine
            .decide_hour(7e8, 4.2e8, &background, f64::INFINITY)
            .unwrap();
        assert_ne!(
            before.allocation.lambda, after.allocation.lambda,
            "a 4x cap squeeze must move traffic"
        );
        // And restoring the caps restores the original decision bitwise.
        engine.set_site_caps(&sys.sites.iter().map(|s| s.power_cap_mw).collect::<Vec<_>>());
        let restored = engine
            .decide_hour(7e8, 4.2e8, &background, f64::INFINITY)
            .unwrap();
        assert_decisions_bitwise_equal(&restored, &before, "restored caps");
    }

    #[test]
    fn cache_stats_and_built_keys_track_the_lru() {
        let sys = DataCenterSystem::paper_system(1);
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        assert_eq!(engine.cache_stats(), EngineStats::default());
        let hours = sweep(&sys);
        for (offered, premium, background, budget) in &hours {
            engine
                .decide_hour(*offered, *premium, background, *budget)
                .unwrap();
        }
        let stats = engine.cache_stats();
        assert!(stats.misses > 0, "first day must build models");
        assert!(stats.hits > 0, "revisited kept-sets must hit");
        assert_eq!(stats.evictions, 0, "a day's keys fit in the cache");
        let keys = engine.drain_built_keys();
        assert_eq!(keys.len() as u64, stats.misses, "one key per rebuild");
        assert!(engine.drain_built_keys().is_empty(), "drain empties");

        // The fingerprints are a pure function of the request sequence:
        // a fresh engine fed the same hours produces the same keys.
        let mut fresh = DecisionEngine::new(sys.clone(), CapperConfig::default());
        for (offered, premium, background, budget) in &hours {
            fresh
                .decide_hour(*offered, *premium, background, *budget)
                .unwrap();
        }
        assert_eq!(fresh.drain_built_keys(), keys);
        assert_eq!(fresh.cache_stats(), stats);

        // Under a per-hour cap schedule the caps are synced values, so
        // the engine builds once per distinct (step, kept) key, however
        // many cap vectors the schedule mints.
        let base_caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        let sched = CapSchedule::derating(&base_caps, 24, 0.35, 42);
        let run = |engine: &mut DecisionEngine| {
            let mut kept_keys = BTreeSet::new();
            let mut cap_keys = BTreeSet::new();
            for (h, (offered, premium, background, budget)) in hours.iter().enumerate() {
                engine.set_site_caps(sched.caps_at(h));
                let decision = engine
                    .decide_hour(*offered, *premium, background, *budget)
                    .unwrap();
                let kept =
                    EngineCore::kept_key(&EngineCore::level_params(engine.system(), background));
                let caps: Vec<u64> = sched.caps_at(h).iter().map(|c| c.to_bits()).collect();
                let mut steps = vec![Step::CostMin];
                if decision.outcome != HourOutcome::WithinBudget {
                    steps.push(Step::ThruMax);
                }
                for step in steps {
                    kept_keys.insert((step, kept.clone()));
                    cap_keys.insert((step, kept.clone(), caps.clone()));
                }
            }
            (kept_keys, cap_keys)
        };
        let mut scheduled = DecisionEngine::new(sys.clone(), CapperConfig::default());
        let (kept_keys, cap_keys) = run(&mut scheduled);
        let stats = scheduled.cache_stats();
        assert_eq!(
            stats.misses,
            kept_keys.len() as u64,
            "one build per kept key"
        );
        assert_eq!(stats.evictions, 0, "caps never mint cache entries");
        assert!(
            kept_keys.len() < cap_keys.len(),
            "the schedule must revisit kept keys under new caps"
        );
        let keys = scheduled.drain_built_keys();
        let expected: BTreeSet<u64> = kept_keys
            .iter()
            .map(|(step, kept)| EngineCore::structure_fingerprint(*step, kept))
            .collect();
        assert_eq!(keys.iter().copied().collect::<BTreeSet<_>>(), expected);
        let mut twin = DecisionEngine::new(sys.clone(), CapperConfig::default());
        run(&mut twin);
        assert_eq!(twin.drain_built_keys(), keys);
        assert_eq!(twin.cache_stats(), stats);
    }

    #[test]
    fn undrained_built_keys_hold_each_distinct_structure_once() {
        // More distinct step-1 kept-level keys than the cache holds,
        // visited twice in order: the LRU evicts each before its repeat,
        // so every visit rebuilds. An engine nobody drains (a month loop,
        // the risk engine, the CLI) must hold one key per distinct
        // structure, not one per build.
        let sys = DataCenterSystem::paper_system(1);
        let wanted = STEP_CACHE_CAP + 6;
        let grid = || (0..=12).map(|k| 50.0 * f64::from(k));
        let mut seen = BTreeSet::new();
        let mut backgrounds = Vec::new();
        for d0 in grid() {
            for d1 in grid() {
                for d2 in grid() {
                    let background = vec![d0, d1, d2];
                    let kept = EngineCore::kept_key(&EngineCore::level_params(&sys, &background));
                    if backgrounds.len() < wanted && seen.insert(kept) {
                        backgrounds.push(background);
                    }
                }
            }
        }
        assert_eq!(backgrounds.len(), wanted, "the grid has enough keys");

        let mut engine = DecisionEngine::new(sys, CapperConfig::default());
        let mut distinct = BTreeSet::new();
        for background in backgrounds.iter().chain(&backgrounds) {
            engine
                .decide_hour(2e8, 1e8, background, f64::INFINITY)
                .unwrap();
            distinct.insert(EngineCore::kept_key(&EngineCore::level_params(
                engine.system(),
                background,
            )));
            assert!(engine.core.built_keys.len() <= distinct.len());
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 2 * wanted as u64, "every visit rebuilt");
        assert!(stats.evictions > 0);
        assert_eq!(engine.drain_built_keys().len(), wanted);
    }

    /// Asserts two models have the same structure and values, every
    /// float compared by bit pattern.
    fn assert_models_bitwise_equal(a: &Model, b: &Model, ctx: &str) {
        assert_eq!(a.name, b.name, "{ctx}: model name");
        assert_eq!(a.sense, b.sense, "{ctx}: sense");
        assert_eq!(a.num_vars(), b.num_vars(), "{ctx}: variable count");
        for (x, y) in a.variables().iter().zip(b.variables()) {
            assert_eq!(x.name, y.name, "{ctx}: variable name");
            assert_eq!(x.var_type, y.var_type, "{ctx}: type of {}", x.name);
            assert_eq!(x.lb.to_bits(), y.lb.to_bits(), "{ctx}: lb of {}", x.name);
            assert_eq!(x.ub.to_bits(), y.ub.to_bits(), "{ctx}: ub of {}", x.name);
        }
        let term_bits = |t: &[(billcap_milp::VarId, f64)]| {
            t.iter().map(|&(v, c)| (v, c.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(a.num_constraints(), b.num_constraints(), "{ctx}: row count");
        for (x, y) in a.constraints().iter().zip(b.constraints()) {
            assert_eq!(x.name, y.name, "{ctx}: row name");
            assert_eq!(x.op, y.op, "{ctx}: op of {}", x.name);
            assert_eq!(
                term_bits(&x.terms),
                term_bits(&y.terms),
                "{ctx}: {}",
                x.name
            );
            assert_eq!(x.rhs.to_bits(), y.rhs.to_bits(), "{ctx}: rhs of {}", x.name);
        }
        assert_eq!(
            term_bits(a.objective()),
            term_bits(b.objective()),
            "{ctx}: objective"
        );
        assert_eq!(
            a.objective_constant().to_bits(),
            b.objective_constant().to_bits(),
            "{ctx}: objective constant"
        );
    }

    #[test]
    fn cap_sync_leaves_models_identical_to_fresh_builds() {
        let sys = DataCenterSystem::paper_system(1);
        let base: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        let with = |edits: &[(usize, f64)]| {
            let mut caps = base.clone();
            for &(i, cap) in edits {
                caps[i] = cap;
            }
            caps
        };
        let bg = vec![330.0, 410.0, 280.0];
        // At 330 MW background site 0 keeps its 450-600 MW level while
        // the cap reaches 120 MW across the breakpoint; 100 MW prunes it.
        let hours = [
            (base.clone(), bg.clone()),                               // build
            (with(&[(1, 50.0), (2, 60.0)]), bg.clone()),              // derate
            (base.clone(), bg.clone()),                               // restored
            (with(&[(0, 100.0)]), bg.clone()),                        // prunes a level
            (with(&[(0, sys.sites[0].base_power_mw())]), bg.clone()), // cap = base power
            (with(&[(0, 100.0), (2, 60.0)]), vec![335.0, 405.0, 290.0]),
            (with(&[(2, 60.0)]), bg.clone()),
        ];
        for integral_servers in [false, true] {
            let config = CapperConfig {
                integral_servers,
                ..CapperConfig::default()
            };
            let mut engine = DecisionEngine::new(sys.clone(), config);
            let (mut misses, mut synced_hits) = (0, 0);
            for (h, (caps, bg)) in hours.iter().enumerate() {
                engine.set_site_caps(caps);
                let kept = EngineCore::kept_key(&EngineCore::level_params(&engine.system, bg));
                let cap_bits: Vec<u64> = caps.iter().map(|c| c.to_bits()).collect();
                for step in [Step::CostMin, Step::ThruMax] {
                    let ctx = format!("hour {h} {step:?} integral {integral_servers}");
                    let prior = engine
                        .core
                        .cache(step)
                        .iter()
                        .find(|s| s.kept == kept)
                        .map(|s| s.caps.clone());
                    let before = engine.core.stats;
                    let (lambda, budget) = (4e8, 3000.0);
                    let fresh = match step {
                        Step::CostMin => {
                            engine.core.minimize(&engine.system, lambda, bg).unwrap();
                            cost_min_model(&engine.system, lambda, bg, integral_servers).0
                        }
                        Step::ThruMax => {
                            engine
                                .core
                                .maximize(&engine.system, lambda, bg, budget)
                                .unwrap();
                            throughput_max_model(
                                &engine.system,
                                lambda,
                                bg,
                                budget,
                                integral_servers,
                            )
                            .0
                        }
                    };
                    let hit = engine.core.stats.hits > before.hits;
                    assert_eq!(hit, prior.is_some(), "{ctx}: hit iff a kept model existed");
                    match prior {
                        Some(prior) if prior != cap_bits => synced_hits += 1,
                        Some(_) => {}
                        None => misses += 1,
                    }
                    let served = engine.core.cache(step).iter().find(|s| s.kept == kept);
                    let served = served.map(|s| &s.model).expect("served model is cached");
                    assert_models_bitwise_equal(served, &fresh, &ctx);
                }
            }
            assert_eq!(misses, 4, "two kept keys per step");
            assert_eq!(
                synced_hits, 10,
                "every cap move after a build is a synced hit"
            );
        }
    }

    /// The outcome class of a decision: `Ok`, or the error variant (and
    /// the solver error's variant under [`CoreError::Solver`]).
    fn outcome_class(r: &Result<HourDecision, CoreError>) -> String {
        match r {
            Ok(_) => "ok".into(),
            Err(CoreError::Solver(e)) => format!("solver {:?}", std::mem::discriminant(e)),
            Err(e) => format!("{:?}", std::mem::discriminant(e)),
        }
    }

    #[test]
    fn bad_caps_fail_like_the_capper_on_hits_and_misses() {
        let sys = DataCenterSystem::paper_system(1);
        let base: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        let below_base = |f: f64| f * sys.sites[2].base_power_mw();
        let site2 = |cap: f64| {
            let mut caps = base.clone();
            caps[2] = cap;
            caps
        };
        // At 280 MW background site 2 keeps only its zero-power level for
        // any cap short of 170 MW, NaN included, so the bad caps below
        // land on the base model's kept key.
        let bg = [330.0, 410.0, 280.0];
        let caps = [
            base.clone(),
            site2(f64::NAN),
            site2(f64::NAN),
            site2(below_base(0.5)),
            site2(below_base(0.25)),
            site2(f64::NAN),
            site2(f64::INFINITY),
            base.clone(),
            site2(f64::NAN),
            base.clone(),
        ];
        let capper = BillCapper::default();
        for budget in [f64::INFINITY, 1.0] {
            let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
            let mut seen = BTreeSet::new();
            for (h, caps) in caps.iter().enumerate() {
                let mut capped = sys.clone();
                for (site, &cap) in capped.sites.iter_mut().zip(caps) {
                    site.power_cap_mw = cap;
                }
                let fresh = capper.decide_hour(&capped, 4e8, 2e8, &bg, budget);
                let before = engine.cache_stats();
                engine.set_site_caps(caps);
                let served = engine.decide_hour(4e8, 2e8, &bg, budget);
                let ctx = format!("budget {budget} hour {h} caps {caps:?}");
                assert_eq!(outcome_class(&served), outcome_class(&fresh), "{ctx}");
                if let (Ok(a), Ok(b)) = (&served, &fresh) {
                    assert_decisions_bitwise_equal(a, b, &ctx);
                }
                // A failing hour stops at step 1: one lookup, a hit or
                // a miss. An `Ok` hour counts as a hit only if nothing
                // was built.
                let hit = engine.cache_stats().misses == before.misses;
                seen.insert((caps[2].to_bits(), hit, served.is_ok()));
            }
            let (nan, low, lower) = (
                f64::NAN.to_bits(),
                below_base(0.5).to_bits(),
                below_base(0.25).to_bits(),
            );
            assert!(seen.contains(&(nan, true, false)), "NaN on a kept-key hit");
            assert!(seen.contains(&(nan, false, false)), "NaN on a miss");
            assert!(seen.contains(&(lower, true, false)), "below base on a hit");
            assert!(seen.contains(&(low, false, false)), "below base on a miss");
            assert!(
                seen.contains(&(base[2].to_bits(), false, true)),
                "rebuilt after a drop"
            );
        }
    }

    #[test]
    fn engine_rejects_bad_inputs_like_the_capper() {
        let sys = DataCenterSystem::paper_system(1);
        let mut engine = DecisionEngine::new(sys.clone(), CapperConfig::default());
        let capacity = sys.total_capacity();
        assert!(matches!(
            engine.decide_hour(3.0 * capacity, 1.5 * capacity, &[330.0, 410.0, 280.0], 1e9),
            Err(CoreError::InsufficientCapacity { .. })
        ));
        assert!(matches!(
            engine.decide_hour(1e8, 5e7, &[330.0], 1e9),
            Err(CoreError::Dimension { .. })
        ));
        // Inputs that would otherwise panic or decide against a NaN.
        let bg = [330.0, 410.0, 280.0];
        for (offered, premium, budget, needle) in [
            (-1e8, 0.0, 1e9, "offered rate"),
            (f64::NAN, f64::NAN, 1e9, "offered rate"),
            (1e8, 2e8, 1e9, "exceeds offered"),
            (1e8, 5e7, f64::NAN, "budget"),
            (1e8, 5e7, f64::NEG_INFINITY, "budget"),
        ] {
            match engine.decide_hour(offered, premium, &bg, budget) {
                Err(CoreError::InvalidInput(msg)) => assert!(msg.contains(needle), "{msg}"),
                r => panic!("({offered}, {premium}, {budget}): {r:?}"),
            }
        }
        assert!(matches!(
            engine.decide_hour(1e8, 5e7, &[330.0, f64::NAN, 280.0], 1e9),
            Err(CoreError::InvalidInput(_))
        ));
        // The engine still works after the error paths.
        engine
            .decide_hour(4e8, 2e8, &[330.0, 410.0, 280.0], f64::INFINITY)
            .unwrap();
    }
}
