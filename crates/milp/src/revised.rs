//! Sparse revised simplex with bounded variables and a dual entry point.
//!
//! This is the one LP engine behind [`crate::MipSolver`]: every pure LP
//! and every branch-and-bound node relaxation solves here. Three
//! structural decisions drive it:
//!
//! * **Bounds leave the row space.** The model is solved as
//!   `min c·x  s.t.  A·x + s = b,  l ≤ (x,s) ≤ u`, where each row got a
//!   ranged slack (`≤` → `s ∈ [0,∞)`, `≥` → `s ∈ (−∞,0]`, `=` → `s ≡ 0`).
//!   Variable bounds are handled by the nonbasic-at-bound mechanism
//!   instead of explicit constraint rows, so the 441-row dense tableau of
//!   the 10×10 reference MILP collapses to a 231-row basis — and
//!   branch-and-bound *bound changes never touch the matrix*.
//! * **Dual simplex with a bound-flipping ratio test.** A parent node's
//!   optimal basis stays *dual feasible* in every child (reduced costs
//!   depend on the basis, not the bounds), so each child starts from the
//!   parent's basis and runs dual pivots only where the tightened bound
//!   broke primal feasibility — typically a handful of iterations instead
//!   of a full two-phase solve. The ratio test walks the dual
//!   breakpoints and *flips* boxed nonbasic variables to their opposite
//!   bound when that is cheaper than a pivot (counted in
//!   [`RevisedStats::bound_flips`]).
//! * **Update between refactorizations, recompute at the edges.** A
//!   pivot updates the basic solution and the duals instead of
//!   rebuilding them: `x_B` steps along the entering column's FTRAN
//!   image (already computed for the pivot check), plus one extra FTRAN
//!   of the flipped columns when the ratio test flips any, and the duals
//!   step along the leaving row `ρ` (already computed for pricing).
//!   Both are rebuilt from the factorization at the solve start and
//!   after every (re)factorization, and `x_B` once more before optimality
//!   is accepted — a violation there means drift, and the loop keeps
//!   pivoting. At exit every nonbasic reduced cost is checked against
//!   freshly computed duals; a violation is [`RevisedError::Numerical`],
//!   which callers retry cold. So drift can cost a pivot or a retry,
//!   never a wrong answer, and the returned values and duals always come
//!   from the final factorization.
//!
//! Cold starts place each structural variable on a bound whose reduced
//! cost sign is dual-feasible (a zero-cost free variable rests
//! [`ColStatus::Free`] at 0) and make every slack basic. A zero-cost
//! triangular crash then swaps the slack of each equality row it can
//! for a zero-cost structural column (see `RevisedEngine::crash`): the
//! start is still dual feasible,
//! and the pivots that would bring those columns in at ratio 0 are never
//! taken. A model with no
//! such placement (a free variable with nonzero cost, say) starts with a
//! dual phase 1 instead: the dual loop solves Fourer's auxiliary problem
//! — same matrix and costs, `b = 0`, every column boxed by the shape of
//! its bounds — and its optimal basis, verified dual feasible under the
//! real bounds, warm-starts the real solve. A basis that fails that check
//! proves no optimum exists, and one zero-cost solve then tells an
//! unbounded model from an infeasible one.
//!
//! Each verdict carries its proof. An optimum has its duals; an
//! infeasible verdict leaves the Farkas row `ρ = e_rᵀB⁻¹` of the row it
//! could not repair in the workspace (`RevisedEngine::farkas_row`);
//! an unbounded one carries phase 1's improving ray and the zero-cost
//! solve's feasible point. [`crate::certify`] checks all three without a
//! solver, which is how the test oracle [`crate::brute_force_solve`]
//! trusts this engine; `MipSolver { warm_start: false, .. }`
//! additionally forces every node onto the cold path for differential
//! testing.

use crate::basis::BasisFactorization;
use crate::model::{ConstraintOp, Model};
use crate::sparse::CscMat;

/// Pivot and reduced-cost zero tolerance.
const ZTOL: f64 = 1e-9;

/// Refuse (or retire) a basis whose pivot magnitudes fall below this.
const PIVOT_TOL: f64 = 1e-8;

/// Smallest entry the cold-start crash pivots on. A crashed column's
/// entry becomes a diagonal of the triangular start basis, so it stays
/// well clear of [`PIVOT_TOL`]; the models are pre-scaled, so an
/// absolute test suffices.
const CRASH_PIVOT_MIN: f64 = 1e-3;

/// Primal feasibility tolerance, absolute: the bill-capping models are
/// pre-scaled (see `RATE_SCALE` in `billcap-core`), so basic values stay
/// within a few orders of 1.
///
/// The two verdicts do not meet. The ratio test declares a row
/// infeasible ([`RevisedError::Infeasible`]) once the violation left
/// after every bound flip exceeds `FEAS_TOL`, while the certificate
/// accepts a point within [`crate::certify::PRIMAL_TOL`]`·(1 + largest
/// term)` of a row. Between the two the engine answers `Infeasible` (and
/// branch-and-bound prunes the node) although a certifiable point
/// exists: on `x ∈ [0, 1]` with `x ≥ 1 + 5e-7` the engine says
/// infeasible while `x = 1` certifies, and [`crate::brute_force_solve`]
/// refuses that verdict.
const FEAS_TOL: f64 = 1e-7;

/// Dual-pivot cap per solve; a warm solve that hits it is retried cold,
/// a cold one fails with [`RevisedError::IterationLimit`].
const MAX_ITERATIONS: usize = 10_000;

/// Reduced-cost sign tolerance when *verifying* an externally supplied
/// warm-start basis (see [`RevisedEngine::solve_warm_verified`]): the
/// primal tolerance's scale, absolute for the same reason.
const DUAL_TOL: f64 = FEAS_TOL;

/// Where a standard-form column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
    /// Nonbasic free column resting at 0; it may enter the basis in
    /// either direction.
    Free,
}

/// A warm-start basis: the status of every standard-form column
/// (structural variables first, then one slack per row). This is the
/// *entire* solver state a branch-and-bound child inherits — the basis
/// itself is refactorized from scratch, so a stale factorization can
/// never leak across nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisState {
    pub(crate) status: Vec<ColStatus>,
}

/// Tuning knobs for the revised simplex. The tests set them to reach
/// the paths a default solve rarely takes; the tolerance and the pivot
/// cap are the constants `FEAS_TOL` and `MAX_ITERATIONS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevisedOptions {
    /// Refactorize once this many eta updates have accumulated.
    pub refactor_every: usize,
    /// Switch to Bland's rule after this many *consecutive* degenerate
    /// pivots — the anti-cycling guard (see DESIGN.md).
    pub bland_after_degenerate: usize,
}

impl Default for RevisedOptions {
    fn default() -> Self {
        Self {
            refactor_every: 40,
            bland_after_degenerate: 16,
        }
    }
}

/// Work counters from one revised solve. Branch-and-bound sums them
/// over every solve of a search into [`crate::SolveTrace::lp`].
///
/// One table, `RevisedStats::COUNTERS`, lists every field once with
/// the name the trace recorder emits it under; `+=` and the emitter both
/// walk it, so a new counter is one field and one row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RevisedStats {
    /// Dual simplex pivots.
    pub iterations: usize,
    /// Pivots with a ~zero dual step.
    pub degenerate: usize,
    /// Nonbasic bound flips from the ratio test.
    pub bound_flips: usize,
    /// From-scratch basis factorizations.
    pub factorizations: usize,
    /// Mid-solve refactorizations (eta-file length or stability).
    pub refactorizations: usize,
    /// Cold starts that needed the dual phase 1 (no dual-feasible
    /// placement on the model's bounds).
    pub phase1_starts: usize,
    /// FTRAN solves (`B·z = b`): basic-solution rebuilds, entering
    /// columns and bound-flip corrections.
    pub ftran_calls: usize,
    /// BTRAN solves (`Bᵀ·y = c`): dual rebuilds, leaving rows and the
    /// duals of the returned solution.
    pub btran_calls: usize,
    /// Basic solutions rebuilt from the factorization rather than
    /// updated.
    pub xb_refreshes: usize,
    /// Dual-loop runs that switched to Bland's rule (at most one per
    /// run: the switch is sticky).
    pub bland_switches: usize,
    /// Optimal-looking exits whose fresh duals showed a nonbasic reduced
    /// cost of the wrong sign, reported as [`RevisedError::Numerical`].
    pub exit_dual_violations: usize,
    /// Structural columns a cold start's crash made basic in place of an
    /// equality row's slack.
    pub crash_columns: usize,
}

/// One [`RevisedStats`] counter, by mutable reference.
type StatField = fn(&mut RevisedStats) -> &mut usize;

impl RevisedStats {
    /// Every counter with the name the trace recorder emits it under.
    pub(crate) const COUNTERS: [(&'static str, StatField); 12] = [
        ("milp.lp.iterations", |s| &mut s.iterations),
        ("milp.lp.degenerate_pivots", |s| &mut s.degenerate),
        ("milp.lp.bound_flips", |s| &mut s.bound_flips),
        ("milp.lp.factorizations", |s| &mut s.factorizations),
        ("milp.lp.refactorizations", |s| &mut s.refactorizations),
        ("milp.lp.phase1_starts", |s| &mut s.phase1_starts),
        ("milp.lp.ftran_calls", |s| &mut s.ftran_calls),
        ("milp.lp.btran_calls", |s| &mut s.btran_calls),
        ("milp.lp.xb_refreshes", |s| &mut s.xb_refreshes),
        ("milp.lp.bland_switches", |s| &mut s.bland_switches),
        ("milp.lp.exit_dual_violations", |s| {
            &mut s.exit_dual_violations
        }),
        ("milp.lp.crash_columns", |s| &mut s.crash_columns),
    ];

    /// `(name, value)` of every counter, in [`Self::COUNTERS`] order.
    pub(crate) fn counters(mut self) -> impl Iterator<Item = (&'static str, usize)> {
        Self::COUNTERS
            .into_iter()
            .map(move |(name, field)| (name, *field(&mut self)))
    }
}

impl std::ops::AddAssign for RevisedStats {
    fn add_assign(&mut self, mut rhs: Self) {
        for (_, field) in Self::COUNTERS {
            *field(self) += *field(&mut rhs);
        }
    }
}

/// An optimal revised solve.
#[derive(Debug, Clone)]
pub struct RevisedSolution {
    /// Structural variable values, indexed like the model's variables.
    pub values: Vec<f64>,
    /// Constraint duals in the model's sense (`d obj / d rhs`).
    pub duals: Vec<f64>,
    /// The optimal basis, for warm-starting children.
    pub basis: BasisState,
    /// Work counters.
    pub stats: RevisedStats,
}

/// Why a revised solve returned no solution.
#[derive(Debug, Clone, PartialEq)]
pub enum RevisedError {
    /// The node's constraint set admits no feasible point: the dual
    /// simplex found a row whose violation no entering column repairs.
    /// `RevisedEngine::farkas_row` then holds that row of `B⁻¹`, the
    /// proof `crate::certify::certify_infeasible` checks.
    Infeasible {
        /// Work done before the verdict, still accounted for.
        stats: RevisedStats,
    },
    /// The objective improves without bound over a nonempty feasible
    /// set: phase 1 found no dual-feasible basis and a zero-cost solve
    /// found a feasible point. Both halves of the proof ride along.
    Unbounded {
        /// Work done before the verdict, still accounted for.
        stats: RevisedStats,
        /// The proof.
        ray: Box<UnboundedRay>,
    },
    /// Pivot cap reached; a warm attempt should be retried cold.
    IterationLimit {
        /// Work wasted before giving up.
        stats: RevisedStats,
    },
    /// Singular or unstable basis, or a warm-start basis that failed
    /// verification; a warm attempt should be retried cold.
    Numerical {
        /// Work wasted before giving up.
        stats: RevisedStats,
    },
}

/// The proof of an unbounded verdict, for
/// `crate::certify::certify_unbounded`: a feasible point and a
/// direction that stays feasible from it and improves the objective.
#[derive(Debug, Clone, PartialEq)]
pub struct UnboundedRay {
    /// An improving direction of the model's recession cone: phase 1's
    /// auxiliary optimum, structural variables only.
    pub direction: Vec<f64>,
    /// A feasible point: the zero-cost solve's optimum.
    pub point: Vec<f64>,
}

impl RevisedError {
    /// The work counters accumulated before the error, so callers can
    /// account for wasted pivots in their traces.
    pub fn stats(&self) -> RevisedStats {
        match self {
            Self::Infeasible { stats }
            | Self::Unbounded { stats, .. }
            | Self::IterationLimit { stats }
            | Self::Numerical { stats } => *stats,
        }
    }
}

/// Working storage of a solve, kept by the engine between solves — and,
/// inside a [`crate::branch::MipWorkspace`], across engine
/// [`load`](RevisedEngine::load)s of differently shaped models — so a
/// node solve allocates only its outputs: the factorization is rebuilt
/// in place and the vectors are cleared, resized to the current row
/// count and refilled before they are read.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// Basic column of each slot.
    basic: Vec<usize>,
    fact: BasisFactorization,
    /// Basic solution, slot-indexed.
    xb: Vec<f64>,
    /// Row-indexed duals `y = B⁻ᵀ·c_B`: rebuilt from the
    /// factorization, then updated by each pivot.
    y: Vec<f64>,
    /// Leaving row of `B⁻¹`.
    rho: Vec<f64>,
    /// FTRAN image of the entering column.
    w: Vec<f64>,
    /// FTRAN image of one pivot's bound flips, `B⁻¹·Σ aⱼ·Δxⱼ`.
    flip_delta: Vec<f64>,
    /// Entering candidates `(col, abar, rc, ratio)` of one pivot.
    eligible: Vec<(usize, f64, f64, f64)>,
    /// Columns the ratio test flips in one pivot.
    flips: Vec<usize>,
    /// Rows the cold-start crash has given a structural column.
    crashed: Vec<bool>,
    /// Whether the last solve ended infeasible, so `rho` holds its
    /// Farkas row.
    farkas: bool,
}

/// The standard-form problem plus mutable per-node bounds.
///
/// Loaded once per model solve; between node solves only
/// [`set_var_bounds`](Self::set_var_bounds) changes (branch-and-bound
/// tightens bounds, never the matrix), so the CSC matrix, costs and
/// right-hand side are shared across the whole search tree, and so is
/// the solve workspace. A load refills every array in place, so an
/// engine kept across solves (see [`crate::branch::MipWorkspace`])
/// stops allocating once its arrays have grown to the largest model it
/// has seen. The default engine holds the empty problem, ready for a
/// first load.
#[derive(Debug, Clone, Default)]
pub struct RevisedEngine {
    /// Rows.
    m: usize,
    /// Structural columns (model variables).
    nvars: usize,
    /// Total columns (`nvars + m` slacks).
    ncols: usize,
    /// `m × ncols` constraint matrix, slacks included as unit columns.
    a: CscMat,
    /// Minimization-space cost per column (slacks cost 0).
    cost: Vec<f64>,
    /// Column lower bounds.
    lb: Vec<f64>,
    /// Column upper bounds.
    ub: Vec<f64>,
    /// Row right-hand sides.
    b: Vec<f64>,
    /// `+1` for a `Minimize` model, `−1` for `Maximize`.
    obj_sign: f64,
    /// Tuning knobs.
    opts: RevisedOptions,
    /// Reused by every solve; holds no state a solve reads.
    ws: Workspace,
    /// Column cursors of the CSC placement pass, kept between loads.
    placement: Vec<usize>,
}

impl RevisedEngine {
    /// Builds the standard form for `model` (assumed validated — the
    /// public solver entry points validate before reaching here): a
    /// default engine with `opts`, loaded.
    pub fn new(model: &Model, opts: RevisedOptions) -> Self {
        let mut engine = Self::with_options(opts);
        engine.load(model);
        engine
    }

    /// An engine with `opts` holding the empty problem, ready for a
    /// first [`load`](Self::load).
    pub(crate) fn with_options(opts: RevisedOptions) -> Self {
        Self {
            opts,
            ..Self::default()
        }
    }

    /// Replaces the problem by `model`'s standard form (assumed
    /// validated), in place: the matrix, costs, bounds and right-hand
    /// side reuse their arrays, and the solve workspace is kept. Every
    /// per-model value is rewritten here, so nothing of the previous
    /// model survives into the next solve.
    pub(crate) fn load(&mut self, model: &Model) {
        let m = model.num_constraints();
        let nvars = model.num_vars();
        let ncols = nvars + m;
        self.m = m;
        self.nvars = nvars;
        self.ncols = ncols;
        // `[A | I]` straight from the rows: row `i`'s terms, then its
        // slack's unit entry.
        self.a.refill_from_rows(
            ncols,
            model.constraints().iter().enumerate().map(|(i, con)| {
                con.terms
                    .iter()
                    .map(|&(v, coef)| (v.index(), coef))
                    .chain(std::iter::once((nvars + i, 1.0)))
            }),
            &mut self.placement,
        );
        self.b.clear();
        self.b.extend(model.constraints().iter().map(|con| con.rhs));
        self.lb.clear();
        self.ub.clear();
        for v in model.variables() {
            self.lb.push(v.lb);
            self.ub.push(v.ub);
        }
        for con in model.constraints() {
            let (slb, sub) = match con.op {
                ConstraintOp::Le => (0.0, f64::INFINITY),
                ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            };
            self.lb.push(slb);
            self.ub.push(sub);
        }
        self.obj_sign = model.sense.sign();
        self.cost.clear();
        self.cost.resize(ncols, 0.0);
        for &(v, coef) in model.objective() {
            self.cost[v.index()] += self.obj_sign * coef;
        }
    }

    /// Installs per-node structural variable bounds (slack bounds are
    /// fixed by the row operators and never change).
    pub fn set_var_bounds(&mut self, bounds: &[(f64, f64)]) {
        debug_assert_eq!(bounds.len(), self.nvars);
        for (j, &(l, u)) in bounds.iter().enumerate() {
            self.lb[j] = l;
            self.ub[j] = u;
        }
    }

    /// Whether a dual-feasible cold-start placement exists under the
    /// current bounds, so that a cold [`solve`](Self::solve) skips the
    /// dual phase 1. Children only tighten bounds, which can never
    /// destroy startability.
    #[cfg(test)]
    pub(crate) fn cold_startable(&self) -> bool {
        (0..self.nvars).all(|j| self.cold_place(j).is_some())
    }

    /// Cold-start resting place of structural column `j`: the bound
    /// matching its reduced-cost sign (with an all-slack basis,
    /// `rc = c`), or `None` when that bound is infinite. A zero-cost
    /// column rests on a finite bound, or free at 0 when it has none.
    fn cold_place(&self, j: usize) -> Option<ColStatus> {
        let (l, u, c) = (self.lb[j], self.ub[j], self.cost[j]);
        if c > ZTOL {
            l.is_finite().then_some(ColStatus::Lower)
        } else if c < -ZTOL {
            u.is_finite().then_some(ColStatus::Upper)
        } else if l.is_finite() {
            Some(ColStatus::Lower)
        } else if u.is_finite() {
            Some(ColStatus::Upper)
        } else {
            Some(ColStatus::Free)
        }
    }

    /// Dual-feasible cold start: each structural column rests on its
    /// [`cold_place`](Self::cold_place), every slack becomes basic, and
    /// the [`crash`](Self::crash) then trades equality-row slacks for
    /// zero-cost columns.
    fn cold_status(&mut self, stats: &mut RevisedStats) -> Option<Vec<ColStatus>> {
        let mut status = Vec::with_capacity(self.ncols);
        for j in 0..self.nvars {
            status.push(self.cold_place(j)?);
        }
        status.extend(std::iter::repeat_n(ColStatus::Basic, self.m));
        stats.crash_columns += self.with_workspace(|e, ws| e.crash(&mut status, &mut ws.crashed));
        Some(status)
    }

    /// Zero-cost triangular crash of the all-slack start (after Bixby,
    /// "Implementing the Simplex Method: The Initial Basis", 1992). Rows
    /// are walked in index order; each equality row (fixed slack) takes
    /// the smallest-index nonbasic structural column whose cost is
    /// exactly 0, whose entry in the row is at least
    /// [`CRASH_PIVOT_MIN`] in magnitude, and which has no entry in a row
    /// crashed earlier. That column becomes basic and the slack rests on
    /// its zero bound; returns how many rows were crashed.
    ///
    /// Every basic cost stays 0, so the start's duals are exactly 0 and
    /// every reduced cost equals its cost: the cold placement stays dual
    /// feasible with nothing to verify. Ordered by crash, each crashed
    /// column is zero in the rows crashed before its own, and the
    /// remaining slacks are unit columns of uncrashed rows, so the basis
    /// is triangular and nonsingular. The choice reads only the matrix,
    /// the costs and the row types, so every caller of a model starts
    /// from the same basis. Without an equality row and a zero-cost
    /// column to match, the start stays all-slack.
    fn crash(&self, status: &mut [ColStatus], crashed: &mut Vec<bool>) -> usize {
        crashed.clear();
        crashed.resize(self.m, false);
        let mut count = 0;
        for row in 0..self.m {
            let slack = self.nvars + row;
            if self.lb[slack] != self.ub[slack] {
                continue;
            }
            let pick = (0..self.nvars).find(|&j| {
                if status[j] == ColStatus::Basic || self.cost[j] != 0.0 {
                    return false;
                }
                let (rows, vals) = self.a.col(j);
                let mut entry = 0.0;
                for (&r, &v) in rows.iter().zip(vals) {
                    if crashed[r] {
                        return false;
                    }
                    if r == row {
                        entry = v;
                    }
                }
                entry.abs() >= CRASH_PIVOT_MIN
            });
            if let Some(j) = pick {
                status[j] = ColStatus::Basic;
                status[slack] = ColStatus::Lower;
                crashed[row] = true;
                count += 1;
            }
        }
        count
    }

    /// Repairs a warm-start basis for the current bounds: a nonbasic column
    /// whose resting bound became infinite hops to the opposite finite
    /// bound, and a free column that gained a bound rests on it. Under
    /// branch-and-bound the first is a no-op (children only tighten) and
    /// the second keeps dual feasibility (a nonbasic free column's
    /// reduced cost is 0), but both keep arbitrary warm starts sound.
    /// `None` when the basis does not fit the model or cannot rest.
    fn repair(&self, warm: &BasisState) -> Option<Vec<ColStatus>> {
        if warm.status.len() != self.ncols {
            return None;
        }
        let mut status = warm.status.clone();
        for (j, s) in status.iter_mut().enumerate() {
            let (l, u) = (self.lb[j].is_finite(), self.ub[j].is_finite());
            *s = match *s {
                ColStatus::Basic => ColStatus::Basic,
                ColStatus::Lower if l => ColStatus::Lower,
                ColStatus::Upper if u => ColStatus::Upper,
                ColStatus::Free if l => ColStatus::Lower,
                ColStatus::Free if u => ColStatus::Upper,
                ColStatus::Free => ColStatus::Free,
                ColStatus::Lower if u => ColStatus::Upper,
                ColStatus::Upper if l => ColStatus::Lower,
                ColStatus::Lower | ColStatus::Upper => return None,
            };
        }
        Some(status)
    }

    /// Resting value of a nonbasic column.
    fn nb_value(&self, j: usize, s: ColStatus) -> f64 {
        let v = match s {
            ColStatus::Lower => self.lb[j],
            ColStatus::Upper => self.ub[j],
            ColStatus::Free => 0.0,
            ColStatus::Basic => unreachable!("basic column has no resting value"),
        };
        debug_assert!(
            v.is_finite(),
            "nonbasic column {j} rests on an infinite bound"
        );
        v
    }

    /// Solves the current-bounds LP. `warm` supplies a starting basis
    /// (typically the parent node's optimum); `None` cold-starts, through
    /// the dual phase 1 when some column's cold-start resting bound is
    /// infinite.
    pub fn solve(&mut self, warm: Option<&BasisState>) -> Result<RevisedSolution, RevisedError> {
        let out = self.start(warm);
        self.note_farkas(out)
    }

    fn start(&mut self, warm: Option<&BasisState>) -> Result<RevisedSolution, RevisedError> {
        let mut stats = RevisedStats::default();
        let status = match warm {
            Some(w) => self.repair(w).ok_or(RevisedError::Numerical { stats })?,
            None => match self.cold_status(&mut stats) {
                Some(status) => status,
                None => return self.phase1(),
            },
        };
        self.run(status, &mut stats)
    }

    /// Records whether `out` is an infeasible verdict. Every such
    /// verdict comes from the last dual-loop run of the solve, whose
    /// ratio test left the leaving row `ρ = e_rᵀB⁻¹` in the workspace.
    fn note_farkas(
        &mut self,
        out: Result<RevisedSolution, RevisedError>,
    ) -> Result<RevisedSolution, RevisedError> {
        self.ws.farkas = matches!(out, Err(RevisedError::Infeasible { .. }));
        out
    }

    /// The Farkas row of the last solve, when it ended
    /// [`RevisedError::Infeasible`]: `ρ = e_rᵀB⁻¹`, indexed by row, for
    /// the basic column `r` that no entering column could bring inside
    /// its bounds. Over the column boxes, `ρ·[A I]·(x, s)` cannot reach
    /// `ρ·b`, which [`crate::certify::certify_infeasible`] checks
    /// without a solver. `None` after any other outcome. Reading it
    /// allocates nothing.
    pub(crate) fn farkas_row(&self) -> Option<&[f64]> {
        self.ws.farkas.then_some(&self.ws.rho[..])
    }

    /// Like [`solve`](Self::solve) with `Some(warm)`, but *verifies* the
    /// basis is dual feasible under the current costs and matrix before
    /// entering the dual simplex. The main loop's exit test is primal
    /// feasibility alone — dual feasibility is an invariant the caller
    /// vouches for. That is sound inside branch-and-bound (children
    /// inherit a parent's optimal basis and only bounds change; reduced
    /// costs are bound-independent), but a basis carried *across models*
    /// — a root basis kept from the previous solve of a model whose
    /// matrix and objective values were edited since — can be dual infeasible, and trusting it would
    /// silently return a suboptimal point as "optimal". Any violation
    /// reports [`RevisedError::Numerical`], which warm-start callers
    /// already treat as "fall back to a cold start".
    pub(crate) fn solve_warm_verified(
        &mut self,
        warm: &BasisState,
    ) -> Result<RevisedSolution, RevisedError> {
        let out = self.start_verified(warm);
        self.note_farkas(out)
    }

    fn start_verified(&mut self, warm: &BasisState) -> Result<RevisedSolution, RevisedError> {
        let mut stats = RevisedStats::default();
        let numerical = |stats: RevisedStats| RevisedError::Numerical { stats };
        let status = self.repair(warm).ok_or(numerical(stats))?;
        if !self.dual_feasible(&status, &mut stats)? {
            return Err(numerical(stats));
        }
        self.run(status, &mut stats)
    }

    /// Dual phase 1 for a model with no dual-feasible cold placement
    /// (Fourer's auxiliary problem). The dual loop solves the model with
    /// `b = 0` and each column boxed by the shape of its bounds: free
    /// `[−1, 1]`, lower-bounded `[0, 1]`, upper-bounded `[−1, 0]`, boxed
    /// `[0, 0]`. Every box is finite, so the auxiliary problem cold-starts
    /// and, holding 0, has an optimum. Placed on the real bounds, that
    /// optimal basis is dual feasible exactly when the real model has a
    /// dual-feasible basis, and then it warm-starts the real solve. When
    /// it is not, the model has no optimum, and one zero-cost solve
    /// decides between [`RevisedError::Unbounded`] (a feasible point
    /// exists) and [`RevisedError::Infeasible`]. The auxiliary optimum
    /// is then an improving ray: its box keeps each column in the cone
    /// of its bounds and `b = 0` keeps each slack in its row's cone, and
    /// its cost is negative, or its basis would have been dual feasible.
    fn phase1(&mut self) -> Result<RevisedSolution, RevisedError> {
        let mut stats = RevisedStats {
            phase1_starts: 1,
            ..RevisedStats::default()
        };
        let (aux_lb, aux_ub): (Vec<f64>, Vec<f64>) = self
            .lb
            .iter()
            .zip(&self.ub)
            .map(|(l, u)| match (l.is_finite(), u.is_finite()) {
                (false, false) => (-1.0, 1.0),
                (true, false) => (0.0, 1.0),
                (false, true) => (-1.0, 0.0),
                (true, true) => (0.0, 0.0),
            })
            .unzip();
        let lb = std::mem::replace(&mut self.lb, aux_lb);
        let ub = std::mem::replace(&mut self.ub, aux_ub);
        let b = std::mem::replace(&mut self.b, vec![0.0; self.m]);
        let aux = self.cold_run(&mut stats);
        self.lb = lb;
        self.ub = ub;
        self.b = b;
        // The auxiliary problem is feasible and bounded, so any error is
        // numerical trouble, never a verdict on the real model.
        let aux = aux.map_err(|e| RevisedError::Numerical { stats: e.stats() })?;

        // Each nonbasic column rests where the real bounds allow it: a
        // boxed column on the bound its reduced-cost sign makes dual
        // feasible, a one-sided column on its finite bound, a free
        // column at 0. A column the auxiliary optimum left on an
        // artificial bound is dual feasible there only at reduced cost 0.
        let y: Vec<f64> = aux.duals.iter().map(|&d| self.obj_sign * d).collect();
        let mut status = aux.basis.status;
        for (j, s) in status.iter_mut().enumerate() {
            if *s == ColStatus::Basic {
                continue;
            }
            *s = match (self.lb[j].is_finite(), self.ub[j].is_finite()) {
                (true, true) if self.cost[j] - self.a.col_dot(j, &y) >= 0.0 => ColStatus::Lower,
                (true, true) => ColStatus::Upper,
                (true, false) => ColStatus::Lower,
                (false, true) => ColStatus::Upper,
                (false, false) => ColStatus::Free,
            };
        }
        if self.dual_feasible(&status, &mut stats)? {
            return self.run(status, &mut stats);
        }

        // No dual-feasible basis: the model has no optimum.
        let cost = std::mem::replace(&mut self.cost, vec![0.0; self.ncols]);
        let feasible = self.cold_run(&mut stats);
        self.cost = cost;
        match feasible {
            Ok(sol) => Err(RevisedError::Unbounded {
                stats,
                ray: Box::new(UnboundedRay {
                    direction: aux.values,
                    point: sol.values,
                }),
            }),
            Err(RevisedError::Infeasible { .. }) => Err(RevisedError::Infeasible { stats }),
            Err(e) => Err(e),
        }
    }

    /// A cold solve whose placement must exist (every column has a
    /// finite bound, or zero cost); a missing one is numerical trouble.
    fn cold_run(&mut self, stats: &mut RevisedStats) -> Result<RevisedSolution, RevisedError> {
        match self.cold_status(stats) {
            Some(status) => self.run(status, stats),
            None => Err(RevisedError::Numerical { stats: *stats }),
        }
    }

    /// Runs the dual simplex from the dual-feasible `status`, adding its
    /// work to `stats`; the solution carries the running total.
    fn run(
        &mut self,
        status: Vec<ColStatus>,
        stats: &mut RevisedStats,
    ) -> Result<RevisedSolution, RevisedError> {
        let (values, duals, basis) = self.with_workspace(|e, ws| e.optimize(ws, status, stats))?;
        Ok(RevisedSolution {
            values,
            duals,
            basis,
            stats: *stats,
        })
    }

    /// Whether `status` is dual feasible under the current costs: with
    /// `y = B⁻ᵀ·c_B`, every nonbasic reduced cost (in minimization space)
    /// has the sign its resting place needs — `rc ≥ 0` at a lower bound,
    /// `rc ≤ 0` at an upper bound, `rc = 0` free. Fixed columns
    /// (`l == u`) never enter, so their sign is irrelevant. A singular
    /// basis is [`RevisedError::Numerical`].
    fn dual_feasible(
        &mut self,
        status: &[ColStatus],
        stats: &mut RevisedStats,
    ) -> Result<bool, RevisedError> {
        self.with_workspace(|e, ws| {
            e.basic_slots(status, &mut ws.basic, stats)?;
            e.factor(&mut ws.fact, &ws.basic, stats)?;
            e.fresh_duals(&ws.basic, &mut ws.fact, &mut ws.y, stats);
            Ok(e.duals_fit(status, &ws.y))
        })
    }

    /// Whether every nonbasic reduced cost `rc = c − aᵀ·y` (minimization
    /// space) has the sign its resting place needs within [`DUAL_TOL`]:
    /// `rc ≥ 0` at a lower bound, `rc ≤ 0` at an upper bound, `rc = 0`
    /// free. Fixed columns (`l == u`) never enter, so their sign is
    /// irrelevant.
    fn duals_fit(&self, status: &[ColStatus], y: &[f64]) -> bool {
        status.iter().enumerate().all(|(j, &s)| {
            if s == ColStatus::Basic || self.lb[j] == self.ub[j] {
                return true;
            }
            let rc = self.cost[j] - self.a.col_dot(j, y);
            match s {
                ColStatus::Lower => rc >= -DUAL_TOL,
                ColStatus::Upper => rc <= DUAL_TOL,
                ColStatus::Free => rc.abs() <= DUAL_TOL,
                ColStatus::Basic => true,
            }
        })
    }

    /// Rebuilds the row-indexed duals `y = B⁻ᵀ·c_B` from the current
    /// factorization.
    fn fresh_duals(
        &self,
        basic: &[usize],
        fact: &mut BasisFactorization,
        y: &mut Vec<f64>,
        stats: &mut RevisedStats,
    ) {
        y.clear();
        y.extend(basic.iter().map(|&j| self.cost[j]));
        fact.btran(y);
        stats.btran_calls += 1;
    }

    /// Rebuilds the basic solution `x_B = B⁻¹(b − N·x_N)` from the
    /// current factorization.
    fn fresh_primal(
        &self,
        status: &[ColStatus],
        fact: &mut BasisFactorization,
        xb: &mut [f64],
        stats: &mut RevisedStats,
    ) {
        xb.copy_from_slice(&self.b);
        for (j, &s) in status.iter().enumerate() {
            if s != ColStatus::Basic {
                self.a.scatter_col(j, -self.nb_value(j, s), xb);
            }
        }
        fact.ftran(xb);
        stats.ftran_calls += 1;
        stats.xb_refreshes += 1;
    }

    /// Runs `f` with the workspace lent out, so `f` can read the engine
    /// while it writes the workspace.
    fn with_workspace<T>(&mut self, f: impl FnOnce(&Self, &mut Workspace) -> T) -> T {
        let mut ws = std::mem::take(&mut self.ws);
        let out = f(self, &mut ws);
        self.ws = ws;
        out
    }

    /// Fills `basic` with the basic columns of `status` in ascending
    /// column order — deterministic no matter what slot order the parent
    /// used internally. A basis of the wrong size is
    /// [`RevisedError::Numerical`].
    fn basic_slots(
        &self,
        status: &[ColStatus],
        basic: &mut Vec<usize>,
        stats: &RevisedStats,
    ) -> Result<(), RevisedError> {
        basic.clear();
        basic.extend((0..self.ncols).filter(|&j| status[j] == ColStatus::Basic));
        if basic.len() != self.m {
            return Err(RevisedError::Numerical { stats: *stats });
        }
        Ok(())
    }

    /// The dual simplex loop. `status` must be dual feasible (cold
    /// placement or an inherited optimal basis).
    #[allow(clippy::type_complexity)]
    fn optimize(
        &self,
        ws: &mut Workspace,
        mut status: Vec<ColStatus>,
        stats: &mut RevisedStats,
    ) -> Result<(Vec<f64>, Vec<f64>, BasisState), RevisedError> {
        let m = self.m;
        let Workspace {
            basic,
            fact,
            xb,
            y,
            rho,
            w,
            flip_delta,
            eligible,
            flips,
            crashed: _,
            farkas: _,
        } = ws;
        self.basic_slots(&status, basic, stats)?;
        self.factor(fact, basic, stats)?;
        let mut fresh = true; // no etas since the last factorization

        // Sized by the first solve; every element is written before it
        // is read (`y` is rebuilt to size by `fresh_duals`).
        for v in [&mut *xb, &mut *rho, &mut *w, &mut *flip_delta] {
            v.resize(m, 0.0);
        }
        self.fresh_primal(&status, fact, xb, stats);
        // `xb_fresh`: x_B was rebuilt from the current factorization and
        // no pivot has updated it since. `duals_valid`: `y` holds the
        // current basis's duals, rebuilt or updated; they are rebuilt
        // only when a pivot first needs them, so a solve that starts
        // optimal never pays for them.
        let mut xb_fresh = true;
        let mut duals_valid = false;
        let mut pivoted = false;
        let mut consecutive_degenerate = 0usize;
        let mut bland = false;

        // detlint-hot-start(dual simplex pivot loop): runs once per
        // pivot of every node solve; its vectors live outside the loop.
        loop {
            if fact.eta_count() >= self.opts.refactor_every {
                self.refactor(fact, basic, stats)?;
                fresh = true;
                self.fresh_primal(&status, fact, xb, stats);
                (xb_fresh, duals_valid) = (true, false);
            }

            // Leaving choice: the basic column with the largest bound
            // violation (Bland mode: the smallest-index violated column).
            let mut leave: Option<(usize, f64, f64)> = None; // (slot, viol, delta)
            for (slot, &j) in basic.iter().enumerate() {
                let x = xb[slot];
                let (l, u) = (self.lb[j], self.ub[j]);
                // Absolute tolerance: the bill-capping models are scaled
                // (rates in 1e6 req/h units) so basic values stay within
                // a few orders of 1, and a bound-relative tolerance was
                // observed to let basic values sit ~3e-5 over a bound —
                // enough to corrupt demand equalities by whole requests
                // once clamped.
                let (viol, delta) = if x < l - FEAS_TOL {
                    (l - x, -1.0)
                } else if x > u + FEAS_TOL {
                    (x - u, 1.0)
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    // Slots scan in ascending basic-column order, so
                    // "first hit wins ties" is the deterministic
                    // smallest-column rule in both modes.
                    Some((_, best, _)) => !bland && viol > best,
                };
                if better {
                    leave = Some((slot, viol, delta));
                }
                if bland {
                    break;
                }
            }
            let Some((r_slot, violation, delta)) = leave else {
                if !xb_fresh {
                    // Updated values look optimal: confirm on a rebuilt
                    // x_B, and keep pivoting if drift hid a violation.
                    self.fresh_primal(&status, fact, xb, stats);
                    xb_fresh = true;
                    continue;
                }
                // Primal feasible + dual feasible (invariant, re-checked
                // on fresh duals after any updated pivot) = optimal.
                return self.extract(status, basic, xb, y, fact, stats, pivoted);
            };

            if stats.iterations >= MAX_ITERATIONS {
                return Err(RevisedError::IterationLimit { stats: *stats });
            }

            // The duals, and the leaving row of B⁻¹.
            if !duals_valid {
                self.fresh_duals(basic, fact, y, stats);
                duals_valid = true;
            }
            rho.iter_mut().for_each(|v| *v = 0.0);
            rho[r_slot] = 1.0;
            fact.btran(rho); // row-indexed e_rᵀB⁻¹
            stats.btran_calls += 1;

            // Price the nonbasic columns: the entering candidate set.
            // `abar` is the leaving-row entry oriented so that moving an
            // eligible column off its bound *reduces* the violation.
            eligible.clear();
            for (j, &s) in status.iter().enumerate() {
                if s == ColStatus::Basic || self.lb[j] == self.ub[j] {
                    continue; // fixed columns never enter
                }
                let abar = delta * self.a.col_dot(j, rho);
                let ok = match s {
                    ColStatus::Lower => abar > ZTOL,
                    ColStatus::Upper => abar < -ZTOL,
                    ColStatus::Free => abar.abs() > ZTOL,
                    ColStatus::Basic => unreachable!(),
                };
                if !ok {
                    continue;
                }
                let rc = self.cost[j] - self.a.col_dot(j, y);
                let ratio = (rc / abar).max(0.0);
                eligible.push((j, abar, rc, ratio));
            }

            // Ratio test.
            flips.clear();
            let entering = if bland {
                // Bland: smallest-index column among the minimal ratios,
                // no bound flips. Guarantees finiteness.
                let min_ratio = eligible
                    .iter()
                    .map(|&(_, _, _, r)| r)
                    .fold(f64::INFINITY, f64::min);
                eligible
                    .iter()
                    .find(|&&(_, _, _, r)| r <= min_ratio + ZTOL)
                    .copied()
            } else {
                // Bound-flipping ratio test: walk breakpoints in ratio
                // order; boxed columns whose full flip still leaves the
                // row violated flip in place of a pivot.
                eligible.sort_by(|a, b| {
                    (a.3, a.0)
                        .partial_cmp(&(b.3, b.0))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut v = violation;
                let mut chosen = None;
                for &(j, abar, rc, ratio) in eligible.iter() {
                    let range = self.ub[j] - self.lb[j];
                    if range.is_finite() && v - abar.abs() * range > FEAS_TOL {
                        flips.push(j);
                        v -= abar.abs() * range;
                    } else {
                        chosen = Some((j, abar, rc, ratio));
                        break;
                    }
                }
                chosen
            };
            let Some((q, abar_q, rc_q, ratio_q)) = entering else {
                // No entering column can repair the violation even with
                // every boxed column flipped: the row is infeasible.
                return Err(RevisedError::Infeasible { stats: *stats });
            };

            // FTRAN the entering column and check the pivot.
            w.iter_mut().for_each(|v| *v = 0.0);
            self.a.scatter_col(q, 1.0, w);
            fact.ftran(w);
            stats.ftran_calls += 1;
            if w[r_slot].abs() <= PIVOT_TOL {
                if fresh {
                    return Err(RevisedError::Numerical { stats: *stats });
                }
                // Stale etas may be lying; refactorize and retry the
                // whole iteration from exact values.
                self.refactor(fact, basic, stats)?;
                fresh = true;
                self.fresh_primal(&status, fact, xb, stats);
                (xb_fresh, duals_valid) = (true, false);
                continue;
            }

            // Commit. Flips first: they move x_B by B⁻¹·Σ aⱼ·Δxⱼ, solved
            // through the outgoing factorization.
            if !flips.is_empty() {
                flip_delta.iter_mut().for_each(|v| *v = 0.0);
                for &j in flips.iter() {
                    let (range, flipped) = match status[j] {
                        ColStatus::Lower => (self.ub[j] - self.lb[j], ColStatus::Upper),
                        ColStatus::Upper => (self.lb[j] - self.ub[j], ColStatus::Lower),
                        // Only boxed columns flip.
                        ColStatus::Basic | ColStatus::Free => unreachable!(),
                    };
                    self.a.scatter_col(j, range, flip_delta);
                    status[j] = flipped;
                }
                fact.ftran(flip_delta);
                stats.ftran_calls += 1;
                for (x, d) in xb.iter_mut().zip(flip_delta.iter()) {
                    *x -= d;
                }
            }
            stats.bound_flips += flips.len();
            // Primal step: the entering column moves by θ_p, which lands
            // the leaving column on the bound it violated.
            let leaving_col = basic[r_slot];
            let (bound, leaves_at) = if delta > 0.0 {
                (self.ub[leaving_col], ColStatus::Upper)
            } else {
                (self.lb[leaving_col], ColStatus::Lower)
            };
            let theta_p = (xb[r_slot] - bound) / w[r_slot];
            let entering_value = self.nb_value(q, status[q]) + theta_p;
            for (x, wi) in xb.iter_mut().zip(w.iter()) {
                *x -= theta_p * wi;
            }
            xb[r_slot] = entering_value;
            // Dual step: y += θ_d·ρ zeroes the entering reduced cost
            // (αⱼ = aⱼ·ρ = delta·abar, so rcⱼ falls by θ_d·αⱼ).
            let theta_d = rc_q / (delta * abar_q);
            for (yi, ri) in y.iter_mut().zip(rho.iter()) {
                *yi += theta_d * ri;
            }
            xb_fresh = false;
            pivoted = true;
            status[leaving_col] = leaves_at;
            status[q] = ColStatus::Basic;
            basic[r_slot] = q;
            if fact.push_eta(r_slot, w) {
                fresh = false;
            } else {
                self.refactor(fact, basic, stats)?;
                fresh = true;
                self.fresh_primal(&status, fact, xb, stats);
                (xb_fresh, duals_valid) = (true, false);
            }

            stats.iterations += 1;
            if ratio_q <= ZTOL {
                stats.degenerate += 1;
                consecutive_degenerate += 1;
                if !bland && consecutive_degenerate >= self.opts.bland_after_degenerate {
                    bland = true; // sticky: stay safe for the rest of the solve
                    stats.bland_switches += 1;
                }
            } else {
                consecutive_degenerate = 0;
            }
        }
        // detlint-hot-end
    }

    /// Factorizes the basis columns `basic` into `fact`, reusing its
    /// arrays; a singular basis ends the solve as
    /// [`RevisedError::Numerical`].
    fn factor(
        &self,
        fact: &mut BasisFactorization,
        basic: &[usize],
        stats: &mut RevisedStats,
    ) -> Result<(), RevisedError> {
        stats.factorizations += 1;
        if !fact.factor(&self.a, basic) {
            return Err(RevisedError::Numerical { stats: *stats });
        }
        Ok(())
    }

    /// A mid-solve [`factor`](Self::factor) (eta-file length or
    /// stability), counted as a refactorization.
    fn refactor(
        &self,
        fact: &mut BasisFactorization,
        basic: &[usize],
        stats: &mut RevisedStats,
    ) -> Result<(), RevisedError> {
        self.factor(fact, basic, stats)?;
        stats.refactorizations += 1;
        Ok(())
    }

    /// Assembles the optimal solution: clamped structural values, duals
    /// in the model's sense, and the basis for warm-starting children.
    /// The duals are rebuilt from the final factorization; when the
    /// loop pivoted on updated duals (`check_duals`), a nonbasic reduced
    /// cost of the wrong sign under them is [`RevisedError::Numerical`].
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn extract(
        &self,
        status: Vec<ColStatus>,
        basic: &[usize],
        xb: &[f64],
        y: &mut Vec<f64>,
        fact: &mut BasisFactorization,
        stats: &mut RevisedStats,
        check_duals: bool,
    ) -> Result<(Vec<f64>, Vec<f64>, BasisState), RevisedError> {
        self.fresh_duals(basic, fact, y, stats);
        if check_duals && !self.duals_fit(&status, y) {
            stats.exit_dual_violations += 1;
            return Err(RevisedError::Numerical { stats: *stats });
        }
        let mut values = vec![0.0; self.nvars];
        for (slot, &j) in basic.iter().enumerate() {
            if j < self.nvars {
                values[j] = xb[slot];
            }
        }
        for (j, x) in values.iter_mut().enumerate() {
            if status[j] != ColStatus::Basic {
                *x = self.nb_value(j, status[j]);
            }
            // Basic values sit within FEAS_TOL of their bounds; clamping
            // keeps integer rounding and child bound ranges honest.
            *x = x.min(self.ub[j]).max(self.lb[j]);
        }
        let duals = y.iter().map(|&y| self.obj_sign * y + 0.0).collect();
        Ok((values, duals, BasisState { status }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    #[test]
    fn the_counter_table_names_every_field_once() {
        // A field missing from the table would never be summed or emitted.
        assert_eq!(
            std::mem::size_of::<RevisedStats>(),
            RevisedStats::COUNTERS.len() * std::mem::size_of::<usize>()
        );
        let mut distinct = RevisedStats::default();
        for (i, (_, field)) in RevisedStats::COUNTERS.into_iter().enumerate() {
            *field(&mut distinct) = i + 1;
        }
        let values: Vec<usize> = distinct.counters().map(|(_, v)| v).collect();
        assert_eq!(
            values,
            (1..=RevisedStats::COUNTERS.len()).collect::<Vec<_>>()
        );
        let names: std::collections::BTreeSet<_> = distinct.counters().map(|(n, _)| n).collect();
        assert_eq!(names.len(), RevisedStats::COUNTERS.len());
        let mut sum = distinct;
        sum += distinct;
        assert!(sum
            .counters()
            .zip(distinct.counters())
            .all(|(s, d)| s.1 == 2 * d.1));
    }

    fn solve_cold(model: &Model) -> RevisedSolution {
        let mut engine = RevisedEngine::new(model, RevisedOptions::default());
        assert!(engine.cold_startable());
        engine.solve(None).expect("solvable")
    }

    /// `x, y ∈ [0, 10]`, `x + y ≤ 4`, objective coefficients `(cx, cy)`.
    fn box_model(cx: f64, cy: f64) -> Model {
        let mut m = Model::new("box", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("cap", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        m.set_objective(vec![(x, cx), (y, cy)], 0.0);
        m
    }

    /// The cold start of `engine`, checked: the basis factors with no
    /// bump (it is triangular), and its duals are exactly 0 and fit
    /// every resting place. Returns the placement and the crash count.
    fn checked_cold_start(engine: &mut RevisedEngine) -> (Vec<ColStatus>, usize) {
        let mut stats = RevisedStats::default();
        let status = engine.cold_status(&mut stats).expect("cold startable");
        engine.with_workspace(|e, ws| {
            e.basic_slots(&status, &mut ws.basic, &stats)
                .expect("one basic column per row");
            e.factor(&mut ws.fact, &ws.basic, &mut stats)
                .expect("nonsingular");
            assert_eq!(ws.fact.bump_dim(), 0, "the crash basis is triangular");
            e.fresh_duals(&ws.basic, &mut ws.fact, &mut ws.y, &mut stats);
            assert!(ws.y.iter().all(|&y| y == 0.0), "duals {:?}", ws.y);
            assert!(e.duals_fit(&status, &ws.y));
        });
        (status, stats.crash_columns)
    }

    /// The crash's `(row, column)` pairs, read back from a placement:
    /// each basic structural column is paired with the first crashed row
    /// (an equality row whose slack left the basis) it has an entry in.
    /// Asserts the pairing is one-to-one onto the crashed rows, that is,
    /// no crashed column has an entry in a row crashed before its own,
    /// and that each pair passes the crash's cost and pivot tests.
    fn crash_pairs(engine: &RevisedEngine, status: &[ColStatus]) -> Vec<(usize, usize)> {
        let crashed: Vec<usize> = (0..engine.m)
            .filter(|&r| status[engine.nvars + r] != ColStatus::Basic)
            .collect();
        let mut pairs = Vec::new();
        for j in (0..engine.nvars).filter(|&j| status[j] == ColStatus::Basic) {
            let (rows, vals) = engine.a.col(j);
            let (row, entry) = rows
                .iter()
                .zip(vals)
                .filter(|&(r, _)| crashed.contains(r))
                .min_by_key(|&(&r, _)| r)
                .map(|(&r, &v)| (r, v))
                .expect("a crashed column has an entry in a crashed row");
            assert_eq!(engine.cost[j], 0.0, "column {j} costs nothing");
            assert!(entry.abs() >= CRASH_PIVOT_MIN, "column {j} pivot {entry}");
            pairs.push((row, j));
        }
        pairs.sort_unstable();
        let rows: Vec<usize> = pairs.iter().map(|&(r, _)| r).collect();
        assert_eq!(rows, crashed, "one crashed column per crashed row");
        pairs
    }

    #[test]
    fn crash_trades_equality_slacks_for_zero_cost_columns() {
        // x0..x3 cost 0, y costs 1. Row 0 takes x0. Row 1's smallest
        // zero-cost column is x0 again, but x0 sits in crashed row 0, so
        // it takes x2. Row 2 is an inequality. Row 3 offers only x1
        // (in crashed row 0) and the priced y, row 4 only y and an entry
        // too small to pivot on: both keep their slacks.
        let mut m = Model::new("crash", Sense::Minimize);
        let x: Vec<_> = (0..4)
            .map(|k| m.add_cont(format!("x{k}"), 0.0, 10.0))
            .collect();
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("r0", vec![(x[0], 1.0), (x[1], 1.0)], ConstraintOp::Eq, 3.0);
        m.add_constraint(
            "r1",
            vec![(x[0], 1.0), (x[2], 2.0), (y, 1.0)],
            ConstraintOp::Eq,
            2.0,
        );
        m.add_constraint("r2", vec![(x[1], 1.0), (x[2], 1.0)], ConstraintOp::Le, 5.0);
        m.add_constraint("r3", vec![(x[1], 1.0), (y, 1.0)], ConstraintOp::Eq, 3.0);
        m.add_constraint("r4", vec![(x[3], 1e-6), (y, 1.0)], ConstraintOp::Eq, 1.0);
        m.set_objective(vec![(y, 1.0)], 0.0);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        let (status, crashed) = checked_cold_start(&mut engine);
        assert_eq!(crashed, 2);
        assert_eq!(crash_pairs(&engine, &status), vec![(0, 0), (1, 2)]);
        // Both crashed slacks rest on their zero bound.
        assert_eq!(status[5..7], [ColStatus::Lower; 2]);
        let sol = engine.solve(None).expect("solvable");
        assert_eq!(sol.stats.crash_columns, 2);
        // y = 1 − 1e-6·x3 is smallest at x3 = 10.
        assert!((m.eval_objective(&sol.values) - (1.0 - 1e-5)).abs() < 1e-9);
    }

    #[test]
    fn no_zero_cost_column_keeps_the_all_slack_start() {
        // Every column on the equality rows is priced, and the one
        // zero-cost column sits in an inequality row only.
        let mut m = Model::new("priced", Sense::Minimize);
        let a = m.add_cont("a", 0.0, 10.0);
        let b = m.add_cont("b", 0.0, 10.0);
        let free = m.add_cont("free", 0.0, 10.0);
        m.add_constraint("sum", vec![(a, 1.0), (b, 1.0)], ConstraintOp::Eq, 4.0);
        m.add_constraint("gap", vec![(a, 1.0), (b, -1.0)], ConstraintOp::Eq, 0.0);
        m.add_constraint("cap", vec![(free, 1.0), (a, 1.0)], ConstraintOp::Le, 9.0);
        m.set_objective(vec![(a, 1.0), (b, 2.0)], 0.0);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        let (status, crashed) = checked_cold_start(&mut engine);
        assert_eq!(crashed, 0);
        let mut all_slack = vec![ColStatus::Lower; 3];
        all_slack.extend([ColStatus::Basic; 3]);
        assert_eq!(status, all_slack);
        let sol = engine.solve(None).expect("solvable");
        assert_eq!(sol.stats.crash_columns, 0);
        assert_eq!(sol.values, vec![2.0, 2.0, 0.0]);
    }

    #[test]
    fn crash_never_reuses_a_crashed_row() {
        // Seeded sparse models, most rows equalities and most columns
        // free of cost, with entries of mixed magnitude: every crash
        // pairs each crashed row with a column that has no entry in an
        // earlier crashed row, and its start is triangular with zero
        // duals.
        use billcap_rt::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let mut total = 0;
        for case in 0..200 {
            let nvars = rng.random_usize_in(2, 9);
            let nrows = rng.random_usize_in(1, 8);
            let mut m = Model::new(format!("case{case}"), Sense::Minimize);
            let vars: Vec<_> = (0..nvars)
                .map(|j| m.add_cont(format!("x{j}"), 0.0, 5.0))
                .collect();
            for r in 0..nrows {
                let mut terms = Vec::new();
                for &v in &vars {
                    if rng.random_below(2) == 0 {
                        terms.push((v, [1.0, -2.0, 0.5, 1e-4][rng.random_below(4) as usize]));
                    }
                }
                let op = [ConstraintOp::Eq, ConstraintOp::Eq, ConstraintOp::Le]
                    [rng.random_below(3) as usize];
                m.add_constraint(format!("r{r}"), terms, op, rng.random_f64_in(0.0, 3.0));
            }
            let obj = vars
                .iter()
                .filter(|_| rng.random_below(3) == 0)
                .map(|&v| (v, 1.0))
                .collect();
            m.set_objective(obj, 0.0);
            let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
            let (status, crashed) = checked_cold_start(&mut engine);
            assert_eq!(crash_pairs(&engine, &status).len(), crashed, "case {case}");
            total += crashed;
        }
        assert!(total > 200, "the sweep crashes rows ({total})");
    }

    #[test]
    fn warm_verified_accepts_an_optimal_basis() {
        let m = box_model(1.0, 1.0);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        let cold = engine.solve(None).expect("solvable");
        let warm = engine
            .solve_warm_verified(&cold.basis)
            .expect("own optimal basis verifies");
        assert_eq!(warm.values, cold.values);
        assert_eq!(warm.stats.iterations, 0);
    }

    #[test]
    fn warm_verified_rejects_dual_infeasible_basis() {
        // min x + y puts both structurals at their lower bound. Under the
        // flipped objective min −x − y that basis is primal feasible but
        // dual infeasible: the unverified dual simplex would exit
        // immediately and report the (suboptimal) origin as optimal. The
        // verified entry point must refuse instead.
        let mut cheap = RevisedEngine::new(&box_model(1.0, 1.0), RevisedOptions::default());
        let basis = cheap.solve(None).expect("solvable").basis;
        let mut flipped = RevisedEngine::new(&box_model(-1.0, -1.0), RevisedOptions::default());
        assert!(matches!(
            flipped.solve_warm_verified(&basis),
            Err(RevisedError::Numerical { .. })
        ));
        // And the cold solve of the flipped model finds the true optimum.
        let sol = flipped.solve(None).expect("solvable");
        let obj: f64 = sol.values[0] + sol.values[1];
        assert!((obj - 4.0).abs() < 1e-6, "sum {obj}");
    }

    #[test]
    fn warm_verified_accepts_still_dual_feasible_basis_across_rhs_change() {
        // RHS changes never affect reduced costs, so last-solve bases stay
        // dual feasible — the common case for a carried root basis.
        let m1 = box_model(1.0, -1.0);
        let mut e1 = RevisedEngine::new(&m1, RevisedOptions::default());
        let basis = e1.solve(None).expect("solvable").basis;
        let mut m2 = box_model(1.0, -1.0);
        m2.set_constraint_rhs(0, 2.0).expect("row exists");
        let mut e2 = RevisedEngine::new(&m2, RevisedOptions::default());
        let warm = e2.solve_warm_verified(&basis).expect("dual feasible");
        let cold = e2.solve(None).expect("solvable");
        assert_eq!(warm.values, cold.values);
    }

    #[test]
    fn bounded_lp_matches_known_optimum() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x,y <= 3.
        let mut m = Model::new("lp", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 3.0);
        let y = m.add_cont("y", 0.0, 3.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 3.0)], ConstraintOp::Le, 6.0);
        m.set_objective(vec![(x, 3.0), (y, 2.0)], 0.0);
        let sol = solve_cold(&m);
        let obj = m.eval_objective(&sol.values);
        assert!((obj - 11.0).abs() < 1e-6, "objective {obj}");
        assert!((sol.values[0] - 3.0).abs() < 1e-6);
        assert!((sol.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_rows() {
        // min x + 2y s.t. x + y = 5, x - y >= 1, 0 <= x,y <= 10.
        let mut m = Model::new("eq", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 5.0);
        m.add_constraint("gap", vec![(x, 1.0), (y, -1.0)], ConstraintOp::Ge, 1.0);
        m.set_objective(vec![(x, 1.0), (y, 2.0)], 0.0);
        let sol = solve_cold(&m);
        // Optimum pushes y down to the Ge row: x=3, y=2? No: min x+2y
        // wants y small: x - y >= 1 and x + y = 5 give y <= 2, so y=2
        // is the wrong direction — y can go to 0 with x=5.
        let obj = m.eval_objective(&sol.values);
        assert!((obj - 5.0).abs() < 1e-6, "objective {obj}");
        assert!((sol.values[0] - 5.0).abs() < 1e-6);
        assert!(sol.values[1].abs() < 1e-6);
    }

    #[test]
    fn infeasible_is_detected() {
        let mut m = Model::new("inf", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 1.0);
        m.add_constraint("hi", vec![(x, 1.0)], ConstraintOp::Ge, 2.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        assert!(matches!(
            engine.solve(None),
            Err(RevisedError::Infeasible { .. })
        ));
    }

    #[test]
    fn free_variable_is_not_cold_startable() {
        let mut m = Model::new("free", Sense::Minimize);
        let x = m.add_cont("x", f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint("row", vec![(x, 1.0)], ConstraintOp::Ge, 1.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        assert!(!engine.cold_startable());
        // The dual phase 1 starts it anyway: min x s.t. x >= 1 is 1, and
        // the row's dual is the cost of raising its right-hand side.
        let sol = engine.solve(None).expect("phase 1 starts a free model");
        assert_eq!(sol.stats.phase1_starts, 1);
        assert!((sol.values[0] - 1.0).abs() < 1e-9, "x = {}", sol.values[0]);
        assert!((sol.duals[0] - 1.0).abs() < 1e-9, "dual {}", sol.duals[0]);
        // Its basis warm-starts the same model with no phase 1 and no pivot.
        let again = engine.solve(Some(&sol.basis)).expect("optimal basis");
        assert_eq!((again.stats.phase1_starts, again.stats.iterations), (0, 0));
        assert_eq!(again.values, sol.values);
    }

    #[test]
    fn no_constraints_reads_bounds() {
        let mut m = Model::new("box", Sense::Minimize);
        m.add_cont("x", 2.0, 8.0);
        let x = m.variables()[0].lb;
        assert_eq!(x, 2.0);
        let v = m.add_cont("y", -3.0, 5.0);
        m.set_objective(vec![(v, -1.0)], 0.0);
        let sol = solve_cold(&m);
        assert_eq!(sol.values, vec![2.0, 5.0]); // x has cost 0, rests at lb
        assert!(sol.duals.is_empty());
    }

    #[test]
    fn warm_start_from_optimal_basis_is_instant() {
        let mut m = Model::new("warm", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 3.0);
        let y = m.add_cont("y", 0.0, 3.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        m.set_objective(vec![(x, 3.0), (y, 2.0)], 0.0);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        let first = engine.solve(None).expect("solvable");
        let again = engine.solve(Some(&first.basis)).expect("solvable");
        assert_eq!(again.stats.iterations, 0, "re-solving an optimum is free");
        assert_eq!(again.values, first.values);
    }

    #[test]
    fn warm_start_after_bound_tightening_repairs_quickly() {
        // The branch-and-bound usage pattern: tighten one bound, restart
        // from the parent basis.
        let mut m = Model::new("child", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 3.0);
        let y = m.add_cont("y", 0.0, 3.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(x, 2.0), (y, 1.0)], ConstraintOp::Le, 6.0);
        m.set_objective(vec![(x, 3.0), (y, 2.0)], 0.0);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        let parent = engine.solve(None).expect("solvable");
        engine.set_var_bounds(&[(0.0, 1.0), (0.0, 3.0)]); // branch: x <= 1
        let warm = engine.solve(Some(&parent.basis)).expect("solvable");
        let cold = engine.solve(None).expect("solvable");
        let wobj = m.eval_objective(&warm.values);
        let cobj = m.eval_objective(&cold.values);
        assert!((wobj - cobj).abs() < 1e-6, "warm {wobj} vs cold {cobj}");
        assert!(
            warm.stats.iterations <= 2,
            "one tightened bound should repair in a pivot or two, took {}",
            warm.stats.iterations
        );
    }

    #[test]
    fn duals_match_shadow_price_direction() {
        // min 2x s.t. x >= 3 → dual of the Ge row is 2 (cost rises with rhs).
        let mut m = Model::new("dual", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        m.add_constraint("lo", vec![(x, 1.0)], ConstraintOp::Ge, 3.0);
        m.set_objective(vec![(x, 2.0)], 0.0);
        let sol = solve_cold(&m);
        assert!((sol.values[0] - 3.0).abs() < 1e-9);
        assert!((sol.duals[0] - 2.0).abs() < 1e-9, "dual {}", sol.duals[0]);
    }

    #[test]
    fn one_pivot_costs_one_ftran_and_one_btran_between_rebuilds() {
        // min y s.t. x + y >= 1 on [0, 10] boxes: the zero-cost x enters
        // at ratio 0 (a degenerate pivot) and repairs the row.
        let mut m = Model::new("degenerate", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("cover", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        m.set_objective(vec![(y, 1.0)], 0.0);
        for (after, switches) in [(1, 1), (16, 0)] {
            let opts = RevisedOptions {
                bland_after_degenerate: after,
                ..RevisedOptions::default()
            };
            let sol = RevisedEngine::new(&m, opts).solve(None).expect("solvable");
            assert_eq!(sol.values, vec![1.0, 0.0]);
            let s = sol.stats;
            assert_eq!((s.iterations, s.degenerate), (1, 1));
            assert_eq!(s.bland_switches, switches, "Bland after {after}");
            // FTRANs: x_B at the start, the entering column, x_B again to
            // confirm the optimum. BTRANs: the duals at the first pivot,
            // the leaving row, the returned duals.
            assert_eq!((s.ftran_calls, s.btran_calls, s.xb_refreshes), (3, 3, 2));
            assert_eq!(s.exit_dual_violations, 0);
        }
    }

    #[test]
    fn exit_check_refuses_a_dual_infeasible_finish() {
        // min x + 2y − z s.t. x + y >= 1, boxes [0, 10], from a basis
        // with every structural at its lower bound: z (rc = −1) is dual
        // infeasible there. One pivot repairs the row without touching
        // z, and the fresh duals at exit expose the bad sign instead of
        // returning z = 0 as optimal.
        let mut m = Model::new("stale", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        let z = m.add_cont("z", 0.0, 10.0);
        m.add_constraint("cover", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        m.set_objective(vec![(x, 1.0), (y, 2.0), (z, -1.0)], 0.0);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        let mut status = vec![ColStatus::Lower; 3];
        status.push(ColStatus::Basic);
        match engine.solve(Some(&BasisState { status })) {
            Err(RevisedError::Numerical { stats }) => {
                assert_eq!((stats.iterations, stats.exit_dual_violations), (1, 1));
            }
            other => panic!("expected a refused exit, got {other:?}"),
        }
        let cold = engine.solve(None).expect("solvable");
        assert_eq!(cold.values, vec![1.0, 0.0, 10.0]);
        assert_eq!(cold.stats.exit_dual_violations, 0);
    }

    #[test]
    fn bound_flips_are_counted_on_a_boxed_instance() {
        // A row violated so badly that flipping one boxed column is
        // cheaper than pivoting it in: x + y + z >= 5 with boxes [0,2].
        let mut m = Model::new("flip", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 2.0);
        let y = m.add_cont("y", 0.0, 2.0);
        let z = m.add_cont("z", 0.0, 2.0);
        m.add_constraint(
            "cover",
            vec![(x, 1.0), (y, 1.0), (z, 1.0)],
            ConstraintOp::Ge,
            5.0,
        );
        // Costs break the tie: cheap columns flip first.
        m.set_objective(vec![(x, 1.0), (y, 2.0), (z, 3.0)], 0.0);
        let sol = solve_cold(&m);
        let obj = m.eval_objective(&sol.values);
        // Optimum: x=2, y=2, z=1 → 1·2 + 2·2 + 3·1 = 9.
        assert!((obj - 9.0).abs() < 1e-6, "objective {obj}");
        assert!(
            sol.stats.bound_flips >= 1,
            "expected the ratio test to flip at least one boxed column"
        );
    }
}
