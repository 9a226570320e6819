//! The decision engine: the bill capper's three steps (paper Section
//! III, see [`crate::capper`]) over MILPs it keeps between hours.
//!
//! This is the only implementation of the steps. [`crate::BillCapper`]
//! builds a one-shot engine per call; the month loops, the risk engine
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
//!   interval rows (functions of `d_i` and the cap; a site's first kept
//!   level has no `lvl_lo` row, its floor being 0 by construction),
//! * the `demand` / `offered` row RHS (`λ / RATE_SCALE`),
//! * the `budget` row RHS,
//! * per site whose power cap moved since the model last served (a
//!   [`crate::CapSchedule`] hour): the `lam_{i}` and `q_{i}_{k}` upper
//!   bounds. The cap has no row of its own: it reaches the model through
//!   the `lvl_hi` ceilings, which the interval sync already rewrites.
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
//! one-shot engine on the same inputs. Both build their step models
//! with the same builders (`minimize::cost_min_model`,
//! `maximize::throughput_max_model`) and write values with the same
//! level and cap math (`minimize::site_level_params`,
//! `minimize::site_cap_values`), so a synced model carries the exact
//! floats a fresh build would; and a kept workspace solves bitwise like
//! a fresh one, so the solver sees an identical model and returns
//! identical bits either way. [`crate::CostMinimizer::solve`] (steps 1
//! and 3) and [`crate::ThroughputMaximizer::solve`] (step 2) are
//! one-shot fronts over a single step of this path.
//!
//! The engine has no settings, and its checks take none: it lints each
//! model once, when it builds it, certifies every solution, and audits
//! every decision against the paper's invariants before it returns it
//! (see [`crate::audit`]). This is the one place a step model is built,
//! linted, solved and certified.

use crate::audit::{audited_plan, checked_solve, lint_built};
use crate::cache::Fnv;
use crate::capper::{
    validate_background, validate_caps, validate_hour_inputs, DecisionTrace, HourDecision,
    HourOutcome,
};
use crate::error::CoreError;
use crate::maximize::throughput_max_model;
use crate::minimize::{
    cost_floor, cost_min_model, extract_allocation, level_params, site_cap_values, Allocation,
    LevelParam, PiecewiseVars, RATE_SCALE,
};
use crate::spec::DataCenterSystem;
use billcap_milp::{MipSolver, MipWorkspace, Model};
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
    /// Per-site power caps (bit patterns) the cap-dependent bounds —
    /// `lam` and `q` upper bounds — were last written for.
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
/// step, each on a cached model synced to the hour's inputs. The step
/// optimizers each run one step on a core of their own.
pub(crate) struct EngineCore {
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
    /// Builds an engine for `system`. Models are built lazily on the
    /// first decision.
    pub fn new(system: DataCenterSystem) -> Self {
        Self {
            system,
            core: EngineCore::new(MipSolver::default()),
        }
    }

    /// Removes and returns the step-model cache counters accumulated
    /// since the previous call (or since the engine was built), leaving
    /// them at zero: a caller that folds them into its own totals reads
    /// each event once.
    pub fn drain_cache_stats(&mut self) -> EngineStats {
        std::mem::take(&mut self.core.stats)
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
    /// upper bounds of each site whose cap bits moved since the served
    /// model last saw them (the `lvl_hi` ceilings, which the cap clamps,
    /// are rewritten every hour), and switches models only when a cap
    /// prunes or restores a price level (the kept-level key). Decisions stay independent of cap history: a served model
    /// is bitwise-identical to a fresh build for the current inputs.
    ///
    /// Bad caps (NaN, infinite, below base power) are accepted here; the
    /// next decision refuses them as [`CoreError::InvalidInput`] before
    /// it looks up a model, as a one-shot engine does.
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
    /// that break [`validate_hour_inputs`] are rejected, as are power caps
    /// that are not finite or sit below a site's base power.
    ///
    /// If the offered load exceeds deliverable capacity (an extreme flash
    /// crowd), ordinary traffic is shed first to bring it within capacity;
    /// premium beyond capacity is an error. The decision is audited by
    /// [`crate::PlanAuditor`] before it is returned (a failed audit is
    /// [`CoreError::Audit`]).
    pub fn decide_hour(
        &mut self,
        offered: f64,
        premium_offered: f64,
        background_mw: &[f64],
        hourly_budget: f64,
    ) -> Result<HourDecision, CoreError> {
        validate_hour_inputs(offered, premium_offered, background_mw, hourly_budget)?;
        validate_caps(&self.system)?;
        let (core, system) = (&mut self.core, &self.system);
        let capacity = system.total_capacity();
        if premium_offered > capacity {
            return Err(CoreError::InsufficientCapacity {
                demanded: premium_offered,
                capacity,
            });
        }
        let levels = HourLevels::new(system, background_mw)?;
        // Capacity clamp: shed un-servable ordinary traffic up front.
        let offered = offered.min(capacity);
        // A budget under the certified floor of step 1's cost would be
        // busted by step 1 for certain: skip straight to step 3.
        let step1_bounded =
            cost_floor(system, &levels.params, offered).is_some_and(|floor| hourly_budget < floor);
        let mut trace = DecisionTrace::default();
        let (outcome, served, allocation) = 'steps: {
            // Step 1: cost minimization over the whole offered load.
            if !step1_bounded {
                let t0 = Stopwatch::start();
                let mut span1 = billcap_obs::span("step1");
                let step1 =
                    core.solve_at(Step::CostMin, system, background_mw, &levels, offered, 0.0)?;
                span1.field("cost", step1.total_cost);
                drop(span1);
                trace.step1_ns = t0.elapsed_ns();
                trace.absorb(&step1);
                if step1.total_cost <= hourly_budget {
                    break 'steps (HourOutcome::WithinBudget, offered, step1);
                }
            }

            // Step 3: price the guaranteed load alone. If even that busts
            // the budget, serve it at minimum cost, budget be damned.
            let t0 = Stopwatch::start();
            let mut span3 = billcap_obs::span("step3");
            let step3 = core.solve_at(
                Step::CostMin,
                system,
                background_mw,
                &levels,
                premium_offered,
                0.0,
            )?;
            span3.field("cost", step3.total_cost);
            drop(span3);
            trace.step3_ns = t0.elapsed_ns();
            trace.absorb(&step3);
            if step3.total_cost > hourly_budget {
                break 'steps (HourOutcome::PremiumOverride, premium_offered, step3);
            }

            // Step 2: throughput maximization within the budget. Step 3's
            // allocation fits the budget and serves the guaranteed load,
            // so step 2 is feasible and admits at least that much; a
            // solver that says otherwise is wrong, not the budget.
            let t0 = Stopwatch::start();
            let mut span2 = billcap_obs::span("step2");
            let step2 = core.solve_at(
                Step::ThruMax,
                system,
                background_mw,
                &levels,
                offered,
                hourly_budget,
            )?;
            span2.field("admitted", step2.total_lambda);
            drop(span2);
            trace.step2_ns = t0.elapsed_ns();
            trace.absorb(&step2);
            if step2.total_lambda < premium_offered - 1e-6 {
                return Err(CoreError::Audit(format!(
                    "step 2 admitted {} of the guaranteed {premium_offered}, which step 3 \
                     serves within the budget {hourly_budget} at cost {}",
                    step2.total_lambda, step3.total_cost
                )));
            }
            (HourOutcome::Throttled, step2.total_lambda, step2)
        };
        let decision = HourDecision {
            outcome,
            offered,
            premium_offered,
            premium_served: premium_offered,
            // The premium rate never exceeds the clamped offered rate,
            // so this clamps only a step-2 admission a hair under it.
            ordinary_served: (served - premium_offered).max(0.0),
            budget: hourly_budget,
            allocation,
            trace,
        };
        audited_plan(system, &decision, background_mw)?;
        record_outcome(outcome, step1_bounded, &decision.allocation, hourly_budget);
        Ok(decision)
    }
}

/// Emits the per-hour outcome counters (with
/// `core.capper.step1_bounded` for an hour that skipped step 1), the
/// budget-slack gauge, and the price-level-selection histogram when
/// tracing is enabled.
fn record_outcome(outcome: HourOutcome, step1_bounded: bool, alloc: &Allocation, budget: f64) {
    if !billcap_obs::enabled() {
        return;
    }
    if step1_bounded {
        billcap_obs::counter("core.capper.step1_bounded", 1);
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

/// One hour's kept price levels, computed once per decision: the
/// interval-row values every step's model sync writes, the key every
/// step's cache lookup matches, and the prices step 1's cost floor
/// reads.
struct HourLevels {
    params: Vec<Vec<LevelParam>>,
    kept: Vec<Vec<usize>>,
}

impl HourLevels {
    /// The hour's levels, or [`CoreError::Dimension`] when
    /// `background_mw` does not have one entry per site, or
    /// [`CoreError::InvalidInput`] when an entry is negative or not
    /// finite. Every step model is looked up through these levels, so
    /// every build sees a checked background.
    fn new(system: &DataCenterSystem, background_mw: &[f64]) -> Result<Self, CoreError> {
        if background_mw.len() != system.len() {
            return Err(CoreError::Dimension {
                expected: system.len(),
                got: background_mw.len(),
            });
        }
        validate_background(background_mw)?;
        let params = level_params(system, background_mw);
        let kept = EngineCore::kept_key(&params);
        Ok(Self { params, kept })
    }
}

impl StepModel {
    /// Keeps a freshly built model that passed its lint, recording the
    /// caps it was built for.
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

    /// Rewrites every value of a retained model that depends on the
    /// hour's inputs, writing the exact floats the builders would:
    ///
    /// * per site whose cap bits differ from those the model was last
    ///   written for, the `lam` and `q` upper bounds. The kept key
    ///   already matches, so the `q` handles line up with this hour's
    ///   levels;
    /// * the interval-row `z` coefficients. Every `(site, slot)` pair
    ///   lines up with a retained `(q, z)` pair and the builder's
    ///   `(lvl_hi, lvl_lo)` row pair. Slot 0 has no `lvl_lo` row: the
    ///   same key puts the background-holding level first, whose floor
    ///   coefficient is 0 in every hour;
    /// * the rate row RHS `lambda / RATE_SCALE`, and the budget row RHS
    ///   `budget.max(0.0)` when the model has one.
    fn sync(
        &mut self,
        system: &DataCenterSystem,
        params: &[Vec<LevelParam>],
        lambda: f64,
        budget: f64,
    ) -> Result<(), CoreError> {
        for (i, site) in system.sites.iter().enumerate() {
            let bits = site.power_cap_mw.to_bits();
            if self.caps[i] == bits {
                continue;
            }
            let v = site_cap_values(site);
            self.model.set_var_bounds(self.vars.lam[i], 0.0, v.lam_ub);
            for &(_, _, q, _) in &self.vars.levels[i] {
                self.model.set_var_bounds(q, 0.0, v.q_ub);
            }
            self.caps[i] = bits;
        }
        for (i, site_params) in params.iter().enumerate() {
            let slots = self.vars.levels[i].iter().zip(&self.vars.lvl_rows[i]);
            for (p, (&(_, _, _, z), &(hi, lo))) in site_params.iter().zip(slots) {
                self.model.set_constraint_coeff(hi, z, p.zcoef_hi)?;
                if let Some(lo) = lo {
                    self.model.set_constraint_coeff(lo, z, p.zcoef_lo)?;
                }
            }
        }
        self.model
            .set_constraint_rhs(self.vars.rate_row, lambda / RATE_SCALE)?;
        if let Some(row) = self.vars.budget_row {
            self.model.set_constraint_rhs(row, budget.max(0.0))?;
        }
        Ok(())
    }
}

impl EngineCore {
    /// A core with no models yet, solving with `solver`.
    pub(crate) fn new(solver: MipSolver) -> Self {
        Self {
            solver,
            ws: MipWorkspace::default(),
            cost_min: Vec::new(),
            thru_max: Vec::new(),
            stamp: 0,
            stats: EngineStats::default(),
            built_keys: BTreeSet::new(),
        }
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
    /// `levels`, synced to the hour: caps, interval rows, the rate row
    /// (`lambda`) and, in step 2's model, the budget row. A cache miss
    /// builds the model with the step's builder at these values and
    /// lints it ([`lint_built`]); a model the lint refuses is not kept. A
    /// retained model is never linted again: its structure is its key's,
    /// and a hit rewrites only values, from inputs
    /// [`DecisionEngine::decide_hour`] has validated.
    fn step_model(
        &mut self,
        step: Step,
        system: &DataCenterSystem,
        background_mw: &[f64],
        levels: &HourLevels,
        lambda: f64,
        budget: f64,
    ) -> Result<usize, CoreError> {
        let kept = &levels.kept;
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(idx) = Self::cache_lookup(self.cache(step), kept, stamp) {
            self.note_hit();
            let cache = self.cache(step);
            if let Err(e) = cache[idx].sync(system, &levels.params, lambda, budget) {
                // Some values may already be rewritten: drop the model so
                // the next lookup rebuilds it.
                cache.swap_remove(idx);
                return Err(e);
            }
            return Ok(idx);
        }
        self.note_miss(step, kept);
        let (m, vars) = match step {
            Step::CostMin => cost_min_model(system, lambda, background_mw),
            Step::ThruMax => throughput_max_model(system, lambda, background_mw, budget),
        };
        lint_built(&m)?;
        let entry = StepModel::new(m, vars, kept, system, stamp);
        let (idx, evicted) = Self::cache_insert(self.cache(step), entry);
        self.note_eviction(evicted);
        Ok(idx)
    }

    /// One step's solve: the `step` model synced to this hour's inputs
    /// ([`Self::step_model`]), solved cold in the engine's workspace,
    /// certified, and read back as an allocation. `budget` reaches step
    /// 2's model only.
    fn solve_at(
        &mut self,
        step: Step,
        system: &DataCenterSystem,
        background_mw: &[f64],
        levels: &HourLevels,
        lambda: f64,
        budget: f64,
    ) -> Result<Allocation, CoreError> {
        let idx = self.step_model(step, system, background_mw, levels, lambda, budget)?;
        let cache = match step {
            Step::CostMin => &self.cost_min,
            Step::ThruMax => &self.thru_max,
        };
        let StepModel { model, vars, .. } = &cache[idx];
        let (solver, ws) = (&self.solver, &mut self.ws);
        let sol = checked_solve(model, || {
            solver.solve_in(model, None, ws).map(|(sol, _)| sol)
        })?;
        Ok(extract_allocation(system, vars, &sol))
    }

    /// One step-1/3 solve on its own: minimizes the cost of serving
    /// `lambda` requests/hour against `background_mw`, after the input
    /// checks a decision runs before its first lookup.
    /// [`crate::CostMinimizer::solve`] runs it on a one-shot core.
    pub(crate) fn minimize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
    ) -> Result<Allocation, CoreError> {
        let levels = HourLevels::new(system, background_mw)?;
        let capacity = system.total_capacity();
        if lambda > capacity {
            return Err(CoreError::InsufficientCapacity {
                demanded: lambda,
                capacity,
            });
        }
        validate_caps(system)?;
        self.solve_at(Step::CostMin, system, background_mw, &levels, lambda, 0.0)
    }

    /// One step-2 solve on its own: maximizes the rate admitted out of
    /// `lambda` within `budget`, after the same checks.
    /// [`crate::ThroughputMaximizer::solve`] runs it on a one-shot core.
    pub(crate) fn maximize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
        budget: f64,
    ) -> Result<Allocation, CoreError> {
        let levels = HourLevels::new(system, background_mw)?;
        validate_caps(system)?;
        self.solve_at(
            Step::ThruMax,
            system,
            background_mw,
            &levels,
            lambda,
            budget,
        )
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
        let mut engine = DecisionEngine::new(sys.clone());
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

    /// The capper's step models over the sweep's inputs, each with a
    /// context label: step 1 every hour, step 2 in the hours with a
    /// finite budget.
    fn sweep_models(sys: &DataCenterSystem) -> Vec<(String, Model)> {
        let mut models = Vec::new();
        for (h, (offered, _, background, budget)) in sweep(sys).into_iter().enumerate() {
            let mut step = vec![cost_min_model(sys, offered, &background).0];
            if budget.is_finite() {
                step.push(throughput_max_model(sys, offered, &background, budget).0);
            }
            for m in step {
                models.push((format!("hour {h} {}", m.name), m));
            }
        }
        models
    }

    /// Every step model of the sweep solves to a proven optimum within
    /// [`SWEEP_NODE_BOUND`] nodes. They take 56 nodes in all, at most 7
    /// each.
    #[test]
    fn sweep_models_solve_within_a_node_bound() {
        let sys = DataCenterSystem::paper_system(1);
        for (ctx, m) in &sweep_models(&sys) {
            let sol = MipSolver::default()
                .solve(m)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(sol.status, billcap_milp::Status::Optimal, "{ctx}");
            let nodes = sol.mip.map_or(0, |s| s.nodes);
            assert!(nodes <= SWEEP_NODE_BOUND, "{ctx}: {nodes} nodes");
        }
    }

    /// The most nodes any sweep model may take: about twice the largest
    /// measured (7).
    const SWEEP_NODE_BOUND: usize = 16;

    /// Warm- and cold-started branch-and-bound on the capper's own
    /// models, each searched to completion: both solves certify and
    /// agree on the objective within certificate tolerance. Equal bits
    /// are not required: a cold search can end on another tied optimum.
    #[test]
    fn cold_starts_agree_with_warm_starts_on_capper_models() {
        let sys = DataCenterSystem::paper_system(1);
        let warm = MipSolver::default();
        let cold = MipSolver {
            warm_start: false,
            ..warm.clone()
        };
        let (mut warm_starts, mut cold_starts) = (0, 0);
        for (ctx, m) in &sweep_models(&sys) {
            let w = warm.solve(m).unwrap_or_else(|e| panic!("{ctx} warm: {e}"));
            let c = cold.solve(m).unwrap_or_else(|e| panic!("{ctx} cold: {e}"));
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
            warm_starts += w.mip.map_or(0, |s| s.trace.warm_starts);
            cold_starts += c.mip.map_or(0, |s| s.trace.warm_starts);
        }
        assert!(warm_starts > 0, "the warm path never warm-started");
        assert_eq!(cold_starts, 0, "the cold path warm-started");
    }

    /// The capper's step models, solved to completion by default (the
    /// revised simplex updates `x_B` and the duals between
    /// refactorizations) and with `refactor_every: 1` (a
    /// refactorization, and so a rebuild of both, after every pivot):
    /// the same status, objectives within 1e-9 relative, and both
    /// solutions certified.
    #[test]
    fn pivot_updates_agree_with_per_pivot_rebuilds_on_capper_models() {
        let sys = DataCenterSystem::paper_system(1);
        let solver = MipSolver::default();
        let rebuild = billcap_milp::RevisedOptions {
            refactor_every: 1,
            ..billcap_milp::RevisedOptions::default()
        };
        for (ctx, m) in &sweep_models(&sys) {
            let mut ws = billcap_milp::MipWorkspace::with_lp_options(rebuild);
            let u = solver
                .solve(m)
                .unwrap_or_else(|e| panic!("{ctx} updated: {e}"));
            let r = solver
                .solve_in(m, None, &mut ws)
                .map(|(sol, _)| sol)
                .unwrap_or_else(|e| panic!("{ctx} rebuilt: {e}"));
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
        }
    }

    /// A negative or non-finite background is refused as input by both
    /// one-shot optimizers, as a decision refuses it, before any model
    /// is built: the models' structure assumes it (a site's first kept
    /// level holds the background).
    #[test]
    fn bad_background_is_invalid_input_on_the_optimizers() {
        let sys = DataCenterSystem::paper_system(1);
        for d in [-1.0, f64::NAN, f64::INFINITY] {
            let bg = [330.0, d, 280.0];
            let results = [
                CostMinimizer::default().solve(&sys, 1e8, &bg).map(drop),
                ThroughputMaximizer::default()
                    .solve(&sys, 1e8, &bg, 1e4)
                    .map(drop),
            ];
            for r in results {
                match r {
                    Err(CoreError::InvalidInput(msg)) => {
                        assert!(msg.contains("background[1]"), "{msg}")
                    }
                    r => panic!("background {d}: {r:?}"),
                }
            }
        }
    }

    /// A negative site cap is refused as input on every engine step,
    /// every decision and both optimizers, before any model is looked up.
    #[test]
    fn negative_cap_is_invalid_input_on_every_engine_step() {
        let mut sys = DataCenterSystem::paper_system(1);
        sys.sites[0].power_cap_mw = -5.0;
        let bg = [330.0, 410.0, 280.0];
        let mut engine = DecisionEngine::new(sys.clone());
        let results = [
            (
                "engine step 1",
                engine.core.minimize(&sys, 1e8, &bg).map(drop),
            ),
            (
                "engine step 2",
                engine.core.maximize(&sys, 1e8, &bg, 1e4).map(drop),
            ),
            ("decision", engine.decide_hour(1e8, 5e7, &bg, 1e4).map(drop)),
            (
                "minimizer",
                CostMinimizer::default().solve(&sys, 1e8, &bg).map(drop),
            ),
            (
                "maximizer",
                ThroughputMaximizer::default()
                    .solve(&sys, 1e8, &bg, 1e4)
                    .map(drop),
            ),
        ];
        for (path, r) in results {
            match r {
                Err(CoreError::InvalidInput(msg)) => assert!(msg.contains("site 0"), "{msg}"),
                r => panic!("{path}: {r:?}"),
            }
        }
        assert_eq!(engine.drain_cache_stats(), EngineStats::default());
    }

    /// The step-level reference: every engine step against the optimizer
    /// that builds and solves the same model from scratch — steps 1 and
    /// 3 against [`CostMinimizer::solve`], step 2 against
    /// [`ThroughputMaximizer::solve`] — bit for bit, solver effort
    /// included. One retained engine per run serves the sweep, so cache
    /// hits, rebuilds and cap syncs are all compared. Every hour runs
    /// under flat caps and under an afternoon derate.
    #[test]
    fn engine_steps_match_the_optimizers_bitwise() {
        let sys = DataCenterSystem::paper_system(1);
        let base_caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        let derate = CapSchedule::derating(&base_caps, 24, 0.35, 42);
        let hours = sweep(&sys);
        let (minimizer, maximizer) = (CostMinimizer::default(), ThroughputMaximizer::default());
        let mut compared = 0usize;
        for derated in [false, true] {
            let mut engine = DecisionEngine::new(sys.clone());
            for (h, (offered, premium, bg, budget)) in hours.iter().enumerate() {
                let mut capped = sys.clone();
                if derated {
                    derate.apply(&mut capped, h);
                    engine.set_site_caps(derate.caps_at(h));
                }
                let ctx = format!("hour {h} derated {derated}");
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
                compared += 1;
            }
        }
        assert_eq!(compared, 48, "hours compared");
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
    fn engine_matches_fresh_capper_under_a_cap_schedule() {
        let sys = DataCenterSystem::paper_system(1);
        let base_caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        let sched = CapSchedule::derating(&base_caps, 24, 0.35, 42);
        let capper = BillCapper::default();
        let mut engine = DecisionEngine::new(sys.clone());
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
        let mut engine = DecisionEngine::new(sys.clone());
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
        let mut engine = DecisionEngine::new(sys.clone());
        assert_eq!(engine.drain_cache_stats(), EngineStats::default());
        let hours = sweep(&sys);
        for (offered, premium, background, budget) in &hours {
            engine
                .decide_hour(*offered, *premium, background, *budget)
                .unwrap();
        }
        let stats = engine.drain_cache_stats();
        assert!(stats.misses > 0, "first day must build models");
        assert!(stats.hits > 0, "revisited kept-sets must hit");
        assert_eq!(stats.evictions, 0, "a day's keys fit in the cache");
        let keys = engine.drain_built_keys();
        assert_eq!(keys.len() as u64, stats.misses, "one key per rebuild");
        assert!(engine.drain_built_keys().is_empty(), "drain empties");

        // The fingerprints are a pure function of the request sequence:
        // a fresh engine fed the same hours produces the same keys.
        let mut fresh = DecisionEngine::new(sys.clone());
        for (offered, premium, background, budget) in &hours {
            fresh
                .decide_hour(*offered, *premium, background, *budget)
                .unwrap();
        }
        assert_eq!(fresh.drain_built_keys(), keys);
        assert_eq!(fresh.drain_cache_stats(), stats);
        assert_eq!(
            fresh.drain_cache_stats(),
            EngineStats::default(),
            "drain zeroes"
        );

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
                let kept = EngineCore::kept_key(&level_params(engine.system(), background));
                let caps: Vec<u64> = sched.caps_at(h).iter().map(|c| c.to_bits()).collect();
                // Steps 1 and 3 share the cost-min model; only a
                // throttled hour runs step 2.
                let mut steps = vec![Step::CostMin];
                if decision.outcome == HourOutcome::Throttled {
                    steps.push(Step::ThruMax);
                }
                for step in steps {
                    kept_keys.insert((step, kept.clone()));
                    cap_keys.insert((step, kept.clone(), caps.clone()));
                }
            }
            (kept_keys, cap_keys)
        };
        let mut scheduled = DecisionEngine::new(sys.clone());
        let (kept_keys, cap_keys) = run(&mut scheduled);
        let stats = scheduled.drain_cache_stats();
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
        let mut twin = DecisionEngine::new(sys.clone());
        run(&mut twin);
        assert_eq!(twin.drain_built_keys(), keys);
        assert_eq!(twin.drain_cache_stats(), stats);
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
                    let kept = EngineCore::kept_key(&level_params(&sys, &background));
                    if backgrounds.len() < wanted && seen.insert(kept) {
                        backgrounds.push(background);
                    }
                }
            }
        }
        assert_eq!(backgrounds.len(), wanted, "the grid has enough keys");

        let mut engine = DecisionEngine::new(sys);
        let mut distinct = BTreeSet::new();
        for background in backgrounds.iter().chain(&backgrounds) {
            engine
                .decide_hour(2e8, 1e8, background, f64::INFINITY)
                .unwrap();
            distinct.insert(EngineCore::kept_key(&level_params(
                engine.system(),
                background,
            )));
            assert!(engine.core.built_keys.len() <= distinct.len());
        }
        let stats = engine.drain_cache_stats();
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
        let mut engine = DecisionEngine::new(sys.clone());
        let (mut misses, mut synced_hits) = (0, 0);
        for (h, (caps, bg)) in hours.iter().enumerate() {
            engine.set_site_caps(caps);
            let kept = EngineCore::kept_key(&level_params(&engine.system, bg));
            let cap_bits: Vec<u64> = caps.iter().map(|c| c.to_bits()).collect();
            for step in [Step::CostMin, Step::ThruMax] {
                let ctx = format!("hour {h} {step:?}");
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
                        cost_min_model(&engine.system, lambda, bg).0
                    }
                    Step::ThruMax => {
                        engine
                            .core
                            .maximize(&engine.system, lambda, bg, budget)
                            .unwrap();
                        throughput_max_model(&engine.system, lambda, bg, budget).0
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

    /// The rows `build_piecewise_core` leaves out are implied, on seeded
    /// hours of Policies 1–3 with caps drawn between each site's base
    /// power and its spec cap: the first kept level of every site is the
    /// one holding the background, with a zero floor (its `lvl_lo` row
    /// would read `q ≥ 0`), and every kept ceiling is at most the cap
    /// (so a `Σ q ≤ cap` row would be slack). Every case decides bitwise
    /// alike on a retained engine and a one-shot capper. Every eighth
    /// case puts one site's cap within 1e-3 MW of its base power, where
    /// the idle-site widening meets the clamp, and every such decision
    /// passes the plan audit.
    #[test]
    fn dropped_rows_are_implied_on_seeded_hours() {
        use crate::audit::PlanAuditor;
        use crate::minimize::site_level_params;
        use billcap_rt::{Rng, Xoshiro256pp};

        let mut rng = Xoshiro256pp::seed_from_u64(0x5eed_0031);
        let capper = BillCapper::default();
        let (mut compared, mut corners) = (0, 0);
        for policy in 1..=3 {
            let sys = DataCenterSystem::paper_system(policy);
            let n = sys.len();
            let spec_caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
            let bases: Vec<f64> = sys.sites.iter().map(|s| s.base_power_mw()).collect();
            let mut engine = DecisionEngine::new(sys.clone());
            for case in 0..40usize {
                let background: Vec<f64> = (0..n).map(|_| rng.random_f64_in(0.0, 800.0)).collect();
                let mut caps: Vec<f64> = (0..n)
                    .map(|i| rng.random_f64_in(bases[i], spec_caps[i]))
                    .collect();
                let corner = case % 8 == 0;
                if corner {
                    caps[(case / 8) % n] = bases[(case / 8) % n] + 5e-4;
                }
                let mut capped = sys.clone();
                for (site, &cap) in capped.sites.iter_mut().zip(&caps) {
                    site.power_cap_mw = cap;
                }
                let ctx = format!("policy {policy} case {case} bg {background:?} caps {caps:?}");
                for (i, site) in capped.sites.iter().enumerate() {
                    let d = background[i];
                    let params = site_level_params(site, capped.policy(i), d);
                    let holding = capped
                        .policy(i)
                        .levels()
                        .position(|(lo, hi, _)| lo <= d && d < hi);
                    assert_eq!(Some(params[0].k), holding, "{ctx} site {i}: first level");
                    assert_eq!(params[0].zcoef_lo, 0.0, "{ctx} site {i}: first floor");
                    for p in &params {
                        assert!(-p.zcoef_hi <= caps[i], "{ctx} site {i} level {}", p.k);
                    }
                }
                let offered = capped.total_capacity() * rng.random_f64_in(0.1, 0.9);
                let premium = 0.5 * offered;
                let budget = if case % 3 == 0 {
                    f64::INFINITY
                } else {
                    rng.random_f64_in(0.0, 8000.0)
                };
                engine.set_site_caps(&caps);
                let served = engine
                    .decide_hour(offered, premium, &background, budget)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let fresh = capper
                    .decide_hour(&capped, offered, premium, &background, budget)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_decisions_bitwise_equal(&served, &fresh, &ctx);
                compared += 1;
                if corner {
                    let report = PlanAuditor.audit_decision(&capped, &served, &background);
                    assert!(report.passed(), "{ctx}: {report}");
                    corners += 1;
                }
            }
        }
        assert_eq!((compared, corners), (120, 15));
    }

    /// Every step model of the sweep, for Policies 1–3 under flat and
    /// derated caps — step 1 (the offered rate), step 3 (the premium
    /// rate) and step 2 (the hour's budget, or $10k for an uncapped
    /// hour) — is minimal and lints clean: no `cap_` row, no `lvl_lo`
    /// row on a site's first kept level, and no finding above Info. The
    /// pinned levels (`l = u`, e.g. Policy 1's site 0 at 330 MW) stay as
    /// M004 ranges, which are Info.
    #[test]
    fn every_sweep_model_is_minimal_and_lints_clean() {
        let mut linted = 0;
        for policy in 1..=3 {
            let sys = DataCenterSystem::paper_system(policy);
            let base_caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
            let derate = CapSchedule::derating(&base_caps, 24, 0.35, 42);
            let hours = sweep(&sys);
            for derated in [false, true] {
                for (h, (offered, premium, bg, budget)) in hours.iter().enumerate() {
                    let mut capped = sys.clone();
                    if derated {
                        derate.apply(&mut capped, h);
                    }
                    let step2_budget = if budget.is_finite() { *budget } else { 1e4 };
                    let models = [
                        ("step 1", cost_min_model(&capped, *offered, bg).0),
                        ("step 3", cost_min_model(&capped, *premium, bg).0),
                        (
                            "step 2",
                            throughput_max_model(&capped, *offered, bg, step2_budget).0,
                        ),
                    ];
                    let first_floors: Vec<String> = level_params(&capped, bg)
                        .iter()
                        .enumerate()
                        .map(|(i, params)| format!("lvl_lo_{i}_{}", params[0].k))
                        .collect();
                    for (step, m) in &models {
                        let ctx = format!("policy {policy} derated {derated} hour {h} {step}");
                        for row in m.constraints() {
                            assert!(!row.name.starts_with("cap_"), "{ctx}: {}", row.name);
                            assert!(!first_floors.contains(&row.name), "{ctx}: {}", row.name);
                        }
                        let report = billcap_milp::lint_model(m);
                        let loud: Vec<_> = report
                            .findings
                            .iter()
                            .filter(|f| f.severity > billcap_milp::Severity::Info)
                            .collect();
                        assert!(loud.is_empty(), "{ctx}:\n{report}");
                        assert!(billcap_milp::lint_gate(m).is_empty(), "{ctx}");
                        linted += 1;
                    }
                }
            }
        }
        assert_eq!(linted, 3 * 2 * 24 * 3);
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
        // would land on the base model's kept key.
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
            let mut engine = DecisionEngine::new(sys.clone());
            let mut builds = Vec::new();
            for (h, caps) in caps.iter().enumerate() {
                let mut capped = sys.clone();
                for (site, &cap) in capped.sites.iter_mut().zip(caps) {
                    site.power_cap_mw = cap;
                }
                let fresh = capper.decide_hour(&capped, 4e8, 2e8, &bg, budget);
                engine.drain_cache_stats();
                engine.set_site_caps(caps);
                let served = engine.decide_hour(4e8, 2e8, &bg, budget);
                let ctx = format!("budget {budget} hour {h} caps {caps:?}");
                assert_eq!(outcome_class(&served), outcome_class(&fresh), "{ctx}");
                if let (Ok(a), Ok(b)) = (&served, &fresh) {
                    assert_decisions_bitwise_equal(a, b, &ctx);
                }
                // A bad cap is refused before any lookup; a good hour
                // looks its models up, and builds only the first time.
                let stats = engine.drain_cache_stats();
                if caps == &base {
                    assert!(served.is_ok(), "{ctx}");
                    builds.push(stats.misses > 0);
                } else {
                    assert!(matches!(served, Err(CoreError::InvalidInput(_))), "{ctx}");
                    assert_eq!(stats, EngineStats::default(), "{ctx}: no lookup");
                }
            }
            assert_eq!(builds, [true, false, false], "budget {budget}");
        }
    }

    #[test]
    fn engine_rejects_bad_inputs_like_the_capper() {
        let sys = DataCenterSystem::paper_system(1);
        let mut engine = DecisionEngine::new(sys.clone());
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
