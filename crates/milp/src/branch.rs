//! Best-first branch-and-bound over the simplex relaxation.
//!
//! The search is sequential: open nodes wait in a best-bound heap
//! (ties broken by depth), and each node branches on its most
//! fractional binary variable, or on its most fractional general
//! integer variable once every binary is integral. Node order is a
//! pure function of the model, so a solve returns the same bits on
//! every run.
//!
//! The root box is the model's declared bounds, integer bounds rounded
//! inward, and nothing else: no presolve tightens it. So every node
//! pruned as infeasible is a revised-simplex verdict, which carries a
//! Farkas row.

use crate::error::SolveError;
use crate::model::{Model, VarId, VarType};
use crate::revised::{BasisState, RevisedEngine, RevisedError, RevisedOptions, RevisedSolution};
use crate::solution::{MipStats, Solution, SolveTrace, Status};
use crate::{GAP_TOL, INT_TOL};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Branch-and-bound MILP solver over the revised simplex
/// ([`crate::revised`]), which also solves pure LPs directly.
///
/// Values within `INT_TOL` of an integer count as integral, and the
/// search stops at a relative gap of `GAP_TOL`.
#[derive(Debug, Clone)]
pub struct MipSolver {
    /// Hard cap on explored nodes.
    pub max_nodes: usize,
    /// Warm-start each child node's dual simplex from its parent's
    /// optimal basis instead of a cold all-slack basis. Default `true`;
    /// `false` runs every node cold, the differential oracle the tests
    /// compare the warm path against.
    pub warm_start: bool,
}

impl Default for MipSolver {
    fn default() -> Self {
        Self {
            max_nodes: 200_000,
            warm_start: true,
        }
    }
}

/// Every buffer a MILP solve refills, kept between solves so a caller
/// that solves model after model (the bill capper's decision engine
/// keeps one for all its steps) stops paying for set-up allocations
/// once the buffers have grown to its largest model: the revised
/// engine's CSC `[A | I]`, costs, bounds, right-hand side and CSC
/// placement scratch, plus its solve workspace (basis list, LU
/// factorization, eta file, `x_B`, the duals `y`, `ρ`, `w`, the
/// bound-flip image and the ratio-test buffers).
///
/// [`MipSolver::solve_in`] rewrites every one of these values before it
/// reads it, so a workspace serves models of any shape, in any order
/// and after any error, with results bitwise equal to a fresh
/// workspace's. The one value a solve reads first is whether the
/// workspace was used before, and it feeds only the
/// [`SolveTrace::workspace_reuses`] counter.
#[derive(Debug, Clone, Default)]
pub struct MipWorkspace {
    engine: RevisedEngine,
    /// Whether a solve has started on this workspace.
    used: bool,
}

impl MipWorkspace {
    /// An empty workspace whose LP engine runs with `opts` rather than
    /// [`RevisedOptions::default`]. The differential tests use it to
    /// solve with `refactor_every: 1`, which rebuilds the basic solution
    /// and the duals on every pivot instead of updating them.
    pub fn with_lp_options(opts: RevisedOptions) -> Self {
        Self {
            engine: RevisedEngine::with_options(opts),
            ..Self::default()
        }
    }
}

/// An open node: per-variable bound overrides plus the parent's bound.
struct Node {
    /// `(lb, ub)` for every variable (small models; the down child
    /// clones its parent's vector, the up child takes it over).
    bounds: Vec<(f64, f64)>,
    /// Relaxation bound inherited from the parent, in minimization space.
    bound: f64,
    depth: usize,
    /// The parent's optimal basis, for warm-starting this node's dual
    /// simplex. At the root, the basis carried from a previous solve,
    /// if any.
    basis: Option<BasisState>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    // BinaryHeap is a max-heap; invert so the *smallest* bound pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.depth.cmp(&other.depth))
    }
}

/// Solves the LP loaded in `engine` under its current bounds: from
/// `warm` when given, else cold. `verify_warm` runs the basis through
/// [`RevisedEngine::solve_warm_verified`] first — required when the basis
/// comes from *outside* this search tree (a previous solve of a mutated
/// model), where dual feasibility is no longer an invariant; in-tree
/// parent bases skip the check because bound changes cannot break dual
/// feasibility.
///
/// The chain is `warm → cold`: a warm attempt that fails numerically or
/// hits the pivot cap is retried cold, a complete and independent solve
/// of the same LP, so the retry costs time but never changes the answer.
/// A cold failure is the caller's error. Every attempt's counters, a
/// failed warm attempt's and an infeasible verdict's included, land in
/// `trace.lp`.
fn solve_lp(
    engine: &mut RevisedEngine,
    warm: Option<&BasisState>,
    verify_warm: bool,
    trace: &mut SolveTrace,
) -> Result<RevisedSolution, SolveError> {
    let pivots_before = trace.lp.iterations;
    let mut result = None;
    if let Some(w) = warm {
        let attempt = if verify_warm {
            engine.solve_warm_verified(w)
        } else {
            engine.solve(Some(w))
        };
        match attempt {
            Ok(_) | Err(RevisedError::Infeasible { .. }) => {
                trace.warm_starts += 1;
                result = Some(attempt);
            }
            Err(e) => trace.lp += e.stats(),
        }
    }
    match result.unwrap_or_else(|| engine.solve(None)) {
        Ok(sol) => {
            trace.lp += sol.stats;
            Ok(sol)
        }
        Err(e) => {
            trace.lp += e.stats();
            Err(match e {
                RevisedError::Infeasible { .. } => SolveError::Infeasible,
                RevisedError::Unbounded { .. } => SolveError::Unbounded,
                RevisedError::IterationLimit { .. } => SolveError::IterationLimit {
                    iterations: trace.lp.iterations - pivots_before,
                },
                RevisedError::Numerical { .. } => SolveError::Numerical,
            })
        }
    }
}

/// Stamps a search's totals on the solution it returns: the pivot
/// counts come from `trace.lp`, so they cover every LP the search ran.
fn with_stats(
    mut sol: Solution,
    nodes: usize,
    best_bound: f64,
    gap: f64,
    trace: SolveTrace,
) -> Solution {
    sol.iterations = trace.lp.iterations;
    sol.degenerate = trace.lp.degenerate;
    sol.mip = Some(MipStats {
        nodes,
        best_bound,
        gap,
        trace,
    });
    sol
}

impl MipSolver {
    /// Solves `model` to integer optimality (or best incumbent at the node
    /// limit, reported with [`Status::Feasible`]).
    pub fn solve(&self, model: &Model) -> Result<Solution, SolveError> {
        self.solve_in(model, None, &mut MipWorkspace::default())
            .map(|(sol, _)| sol)
    }

    /// [`solve`](Self::solve) in the buffers of `ws`, warm-starting the
    /// *root* relaxation from `root_basis` when given, and returning this
    /// solve's root-optimal basis for the next one — the one search
    /// behind every entry point.
    ///
    /// A caller that keeps `ws` between solves skips the set-up
    /// allocations; the result is bitwise the same as with a fresh
    /// workspace (see [`MipWorkspace`]).
    ///
    /// A caller that carries the basis must keep it with the model it
    /// came from, so the next solve sees the same structure. The
    /// supplied basis is for the same constraint/variable *structure*
    /// with possibly different coefficient *values* (RHS, objective,
    /// matrix entries, bounds), so dual feasibility is no longer an
    /// invariant; the root solve verifies it and silently cold-starts on
    /// any violation — a correctness guarantee, not best-effort. Child
    /// nodes still inherit in-tree parent bases unverified, exactly as
    /// without a root basis.
    ///
    /// The returned basis is `None` when the search stopped before its
    /// root relaxation was solved; callers then cold-start the next
    /// solve.
    pub fn solve_in(
        &self,
        model: &Model,
        root_basis: Option<&BasisState>,
        ws: &mut MipWorkspace,
    ) -> Result<(Solution, Option<BasisState>), SolveError> {
        // The span covers the set-up too: validation, bound rounding and
        // the engine load.
        let mut mip_span = billcap_obs::span("mip");
        let mut trace = SolveTrace {
            workspace_reuses: usize::from(ws.used),
            ..SolveTrace::default()
        };
        ws.used = true;
        model.validate()?;
        let int_vars = model.integer_vars();
        if int_vars.is_empty() {
            let (sol, basis) =
                self.solve_pure_lp_warm(model, root_basis, &mut ws.engine, &mut trace)?;
            let best_bound = sol.objective;
            let sol = with_stats(sol, 1, best_bound, 0.0, trace);
            finish_obs(&mut mip_span, Some(&sol));
            return Ok((sol, basis));
        }

        // Work in minimization space for pruning.
        let sign = model.sense.sign();

        // Root bounds, with integer bounds pre-rounded inward.
        let mut root_bounds = model.var_bounds();
        for &v in &int_vars {
            let (lb, ub) = root_bounds[v.index()];
            let lb = if lb.is_finite() {
                (lb - INT_TOL).ceil()
            } else {
                lb
            };
            let ub = if ub.is_finite() {
                (ub + INT_TOL).floor()
            } else {
                ub
            };
            if lb > ub {
                return Err(SolveError::Infeasible);
            }
            root_bounds[v.index()] = (lb, ub);
        }

        let engine = &mut ws.engine;
        engine.load(model);
        let mut frontier = BinaryHeap::new();
        frontier.push(Node {
            bounds: root_bounds,
            bound: f64::NEG_INFINITY,
            depth: 0,
            basis: root_basis.cloned(),
        });
        let mut root_basis_out: Option<BasisState> = None;

        let mut incumbent: Option<Solution> = None;
        let mut incumbent_key = f64::INFINITY;
        let mut nodes = 0usize;
        let obs_on = billcap_obs::enabled();

        // detlint-hot-start(branch-and-bound node loop): runs once per
        // node; the engine and node backend are built before it.
        while let Some(node) = frontier.pop() {
            if obs_on {
                billcap_obs::observe("milp.bnb.queue_depth", frontier.len() as f64);
            }
            // Global-bound prune (incumbent may have improved since push).
            if node.bound >= incumbent_key - self.prune_slack(incumbent_key) {
                trace.pruned_by_bound += 1;
                continue;
            }
            if nodes >= self.max_nodes {
                let sol = self.finish_at_limit(incumbent, nodes, sign, &frontier, trace);
                finish_obs(&mut mip_span, sol.as_ref().ok());
                return sol.map(|s| (s, root_basis_out));
            }
            nodes += 1;
            trace.max_depth = trace.max_depth.max(node.depth);

            engine.set_var_bounds(&node.bounds);
            let warm = node.basis.as_ref().filter(|_| self.warm_start);
            let pivots_before = trace.lp.iterations;
            // Only the root may carry an out-of-tree basis, so only the
            // root pays the dual-feasibility verification.
            let lp = solve_lp(engine, warm, node.depth == 0, &mut trace);
            if obs_on {
                // Every node's pivots, infeasible nodes' included.
                billcap_obs::observe(
                    "milp.lp.iterations_per_node",
                    (trace.lp.iterations - pivots_before) as f64,
                );
            }
            let lp_sol = match lp {
                Ok(s) => s,
                Err(SolveError::Infeasible) => {
                    trace.pruned_infeasible += 1;
                    continue;
                }
                // An unbounded relaxation: for the models produced in
                // this workspace that implies the MILP is unbounded too.
                Err(e) => return Err(e),
            };
            if node.depth == 0 {
                // The root relaxation's optimal basis is the warm-start
                // seed for the *next* solve of a mutated model.
                root_basis_out = Some(lp_sol.basis.clone());
            }
            let node_key = sign * model.eval_objective(&lp_sol.values);
            if node_key >= incumbent_key - self.prune_slack(incumbent_key) {
                trace.pruned_by_bound += 1;
                continue; // bound prune
            }

            // Find branching variable.
            let frac = self.select_branch_var(model, &int_vars, &lp_sol.values);
            match frac {
                None => {
                    // Integer feasible: round off float noise and accept.
                    let mut values = lp_sol.values;
                    for &v in &int_vars {
                        values[v.index()] = values[v.index()].round();
                    }
                    let objective = model.eval_objective(&values);
                    let key = sign * objective;
                    if key < incumbent_key {
                        incumbent_key = key;
                        trace.incumbent_updates += 1;
                        incumbent = Some(Solution {
                            status: Status::Optimal,
                            objective,
                            values,
                            iterations: 0,
                            degenerate: 0,
                            mip: None,
                            duals: None,
                        });
                    }
                }
                Some((v, x)) => {
                    let (lb, ub) = node.bounds[v.index()];
                    let down_ub = x.floor();
                    let up_lb = x.ceil();
                    if down_ub >= lb - INT_TOL {
                        let mut b = node.bounds.clone();
                        b[v.index()] = (lb, down_ub);
                        frontier.push(Node {
                            bounds: b,
                            bound: node_key,
                            depth: node.depth + 1,
                            basis: Some(lp_sol.basis.clone()),
                        });
                    }
                    if up_lb <= ub + INT_TOL {
                        let mut b = node.bounds;
                        b[v.index()] = (up_lb, ub);
                        frontier.push(Node {
                            bounds: b,
                            bound: node_key,
                            depth: node.depth + 1,
                            basis: Some(lp_sol.basis),
                        });
                    }
                }
            }
            trace.max_frontier = trace.max_frontier.max(frontier.len());

            // Gap-based early stop (best-bound search keeps the frontier's
            // minimum as a valid global dual bound).
            if let (Some(inc), Some(fb)) = (&incumbent, frontier.peek().map(|n| n.bound)) {
                // Pruned-but-unpopped nodes can leave the frontier minimum
                // above the incumbent; the incumbent is itself a valid
                // dual bound, so clamp before reporting.
                let fb = fb.min(incumbent_key);
                let gap = (incumbent_key - fb) / incumbent_key.abs().max(1.0);
                if gap <= GAP_TOL {
                    let sol = with_stats(inc.clone(), nodes, sign * fb, gap, trace);
                    finish_obs(&mut mip_span, Some(&sol));
                    return Ok((sol, root_basis_out));
                }
            }
        }
        // detlint-hot-end

        match incumbent {
            Some(sol) => {
                let best_bound = sol.objective;
                let sol = with_stats(sol, nodes, best_bound, 0.0, trace);
                finish_obs(&mut mip_span, Some(&sol));
                Ok((sol, root_basis_out))
            }
            None => Err(SolveError::Infeasible),
        }
    }

    /// A pure-LP solve (no integer variables) in `engine`, with audited
    /// duals. A carried basis is tried first via the *verified* warm path
    /// (it crossed a model mutation, so dual feasibility must be
    /// re-proven); rejection costs the wasted pivots and falls through to
    /// a cold start (see [`solve_lp`]).
    fn solve_pure_lp_warm(
        &self,
        model: &Model,
        warm: Option<&BasisState>,
        engine: &mut RevisedEngine,
        trace: &mut SolveTrace,
    ) -> Result<(Solution, Option<BasisState>), SolveError> {
        engine.load(model);
        let r = solve_lp(engine, warm.filter(|_| self.warm_start), true, trace)?;
        let sol = Solution {
            status: Status::Optimal,
            objective: model.eval_objective(&r.values),
            values: r.values,
            iterations: 0,
            degenerate: 0,
            mip: None,
            duals: Some(r.duals),
        };
        Ok((sol, Some(r.basis)))
    }

    /// Absolute slack used when pruning against the incumbent.
    fn prune_slack(&self, incumbent_key: f64) -> f64 {
        if incumbent_key.is_finite() {
            GAP_TOL * incumbent_key.abs().max(1.0)
        } else {
            0.0
        }
    }

    /// The branching variable: the most fractional `Binary`, or, when
    /// every binary is integral, the most fractional general `Integer`;
    /// the first in index order on a tie. `None` when every integer
    /// variable is integral.
    ///
    /// Binaries go first because in the capper's models they are the
    /// price-level choices, which carry the paper's step price and so
    /// drive the bound, while a general integer is a site's server
    /// count, where one server is about 10⁻⁵ of the site. Branching on
    /// server counts while a level choice is still fractional splits the
    /// tree on a detail that barely moves the bound.
    fn select_branch_var(
        &self,
        model: &Model,
        int_vars: &[VarId],
        values: &[f64],
    ) -> Option<(VarId, f64)> {
        let mut best: Option<(VarId, f64, bool, f64)> = None; // (var, value, binary, score)
        for &v in int_vars {
            let x = values[v.index()];
            let frac = (x - x.round()).abs();
            if frac > INT_TOL {
                let binary = model.variables()[v.index()].var_type == VarType::Binary;
                let score = (x - x.floor()).min(x.ceil() - x); // distance to nearest int
                let better = match best {
                    None => true,
                    Some((_, _, b, s)) => (binary && !b) || (binary == b && score > s),
                };
                if better {
                    best = Some((v, x, binary, score));
                }
            }
        }
        best.map(|(v, x, _, _)| (v, x))
    }

    fn finish_at_limit(
        &self,
        incumbent: Option<Solution>,
        nodes: usize,
        sign: f64,
        frontier: &BinaryHeap<Node>,
        trace: SolveTrace,
    ) -> Result<Solution, SolveError> {
        match incumbent {
            Some(mut sol) => {
                sol.status = Status::Feasible;
                let bound_key = frontier
                    .peek()
                    .map_or(sign * sol.objective, |n| n.bound)
                    .min(sign * sol.objective);
                let gap = (sign * sol.objective - bound_key).abs() / sol.objective.abs().max(1.0);
                Ok(with_stats(sol, nodes, sign * bound_key, gap, trace))
            }
            None => Err(SolveError::NodeLimit { nodes }),
        }
    }
}

/// Writes a finished solve's counters to the global trace recorder and
/// stamps summary fields on the solve's span. No-op when tracing is off.
fn record_obs(stats: &MipStats) {
    if !billcap_obs::enabled() {
        return;
    }
    let t = &stats.trace;
    let search = [
        ("milp.bnb.solves", 1),
        ("milp.bnb.nodes", stats.nodes),
        ("milp.bnb.pruned_bound", t.pruned_by_bound),
        ("milp.bnb.pruned_infeasible", t.pruned_infeasible),
        ("milp.bnb.incumbent_updates", t.incumbent_updates),
        ("milp.lp.warm_starts", t.warm_starts),
        ("milp.lp.workspace_reuses", t.workspace_reuses),
    ];
    for (name, value) in search.into_iter().chain(t.lp.counters()) {
        billcap_obs::counter(name, value as u64);
    }
}

/// Completes a solve's `mip` span: attaches the headline counters as
/// fields (when the span is live) and records the aggregate counters.
fn finish_obs(span: &mut billcap_obs::Span, sol: Option<&Solution>) {
    let Some(sol) = sol else { return };
    let Some(stats) = sol.mip.as_ref() else {
        return;
    };
    if span.is_enabled() {
        span.field("nodes", stats.nodes as f64);
        span.field("lp_iterations", stats.trace.lp.iterations as f64);
        span.field("incumbents", stats.trace.incumbent_updates as f64);
        span.field("max_depth", stats.trace.max_depth as f64);
    }
    record_obs(stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense, VarType};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6, binary.
        // best: a + c? 3+2=5 w=17; b+c: 4+2=6 w=20. => 20
        let mut m = Model::new("knap", Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint(
            "w",
            vec![(a, 3.0), (b, 4.0), (c, 2.0)],
            ConstraintOp::Le,
            6.0,
        );
        m.set_objective(vec![(a, 10.0), (b, 13.0), (c, 7.0)], 0.0);
        let s = MipSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 20.0);
        assert_eq!(s.try_int_value(b), Some(1));
        assert_eq!(s.try_int_value(c), Some(1));
        assert_eq!(s.try_int_value(a), Some(0));
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new("lp", Sense::Minimize);
        let x = m.add_cont("x", 2.0, 8.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let s = MipSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 2.0);
        assert!(s.mip.is_some());
    }

    #[test]
    fn pure_lp_trace_counts_engine_work_and_a_verified_carry() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x,y <= 3.
        let mut m = Model::new("lp", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 3.0);
        let y = m.add_cont("y", 0.0, 3.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 3.0)], ConstraintOp::Le, 6.0);
        m.set_objective(vec![(x, 3.0), (y, 2.0)], 0.0);
        let solver = MipSolver {
            warm_start: true,
            ..MipSolver::default()
        };
        let (cold, basis) = solver
            .solve_in(&m, None, &mut MipWorkspace::default())
            .unwrap();
        let trace = cold.mip.expect("stats").trace;
        assert!(trace.lp.factorizations >= 1, "{trace:?}");
        assert_eq!((trace.warm_starts, trace.lp.phase1_starts), (0, 0));
        // The carried basis is the optimum: verified, it counts as a warm
        // start and re-solves with no pivot.
        let (warm, _) = solver
            .solve_in(&m, basis.as_ref(), &mut MipWorkspace::default())
            .unwrap();
        let trace = warm.mip.expect("stats").trace;
        assert!(trace.lp.factorizations >= 1, "{trace:?}");
        assert_eq!(trace.warm_starts, 1);
        assert_eq!(warm.iterations, 0);
        assert_eq!(warm.values, cold.values);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 5, integer: LP gives 2.5, MIP gives 2.
        let mut m = Model::new("round", Sense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        let y = m.add_var("y", VarType::Integer, 0.0, 10.0);
        m.add_constraint("c", vec![(x, 2.0), (y, 2.0)], ConstraintOp::Le, 5.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        let s = MipSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 <= x <= 0.6, x integer: no integer in range.
        let mut m = Model::new("noint", Sense::Minimize);
        let x = m.add_var("x", VarType::Integer, 0.4, 0.6);
        m.set_objective(vec![(x, 1.0)], 0.0);
        assert_eq!(MipSolver::default().solve(&m), Err(SolveError::Infeasible));
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 4n + x  s.t. n >= 2.3 (integer), x >= 1.5 - fractional part covered by x
        // n integer >= 2.3 -> n = 3; x >= 0. obj = 12.
        let mut m = Model::new("mix", Sense::Minimize);
        let n = m.add_var("n", VarType::Integer, 0.0, 100.0);
        let x = m.add_cont("x", 0.0, 100.0);
        m.add_constraint("c1", vec![(n, 1.0)], ConstraintOp::Ge, 2.3);
        m.add_constraint("c2", vec![(x, 1.0), (n, 1.0)], ConstraintOp::Ge, 3.5);
        m.set_objective(vec![(n, 4.0), (x, 1.0)], 0.0);
        let s = MipSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 12.5); // n = 3, x = 0.5
        assert_eq!(s.try_int_value(n), Some(3));
    }

    #[test]
    fn node_limit_reports_error_without_incumbent() {
        let mut m = Model::new("lim", Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|i| m.add_binary(format!("x{i}"))).collect();
        // Equality that is hard to satisfy immediately.
        m.add_constraint(
            "c",
            vars.iter().map(|&v| (v, 7.0)).collect(),
            ConstraintOp::Eq,
            35.0,
        );
        m.set_objective(vars.iter().map(|&v| (v, 1.0)).collect(), 0.0);
        let solver = MipSolver {
            max_nodes: 1,
            ..Default::default()
        };
        // With a single node we either find an incumbent (possibly even a
        // proven optimum if the root LP lands on an integer vertex) or get
        // the limit error; all are acceptable terminations, never a hang.
        match solver.solve(&m) {
            Ok(s) => assert!(m.is_feasible(&s.values, 1e-6)),
            Err(SolveError::NodeLimit { nodes }) => assert_eq!(nodes, 1),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn stats_are_populated() {
        let mut m = Model::new("stats", Sense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        m.add_constraint("c", vec![(x, 3.0)], ConstraintOp::Le, 10.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let s = MipSolver::default().solve(&m).unwrap();
        let stats = s.mip.unwrap();
        assert!(stats.nodes >= 1);
        assert!(stats.gap <= 1e-9);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn binary_equality_partition() {
        // Exactly 2 of 4 binaries, minimize weighted sum.
        let mut m = Model::new("part", Sense::Minimize);
        let xs: Vec<_> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_constraint(
            "sum",
            xs.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Eq,
            2.0,
        );
        m.set_objective(
            xs.iter()
                .zip([5.0, 1.0, 3.0, 2.0])
                .map(|(&v, c)| (v, c))
                .collect(),
            0.0,
        );
        let s = MipSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 3.0); // picks weights 1 and 2
        assert_eq!(s.try_int_value(xs[1]), Some(1));
        assert_eq!(s.try_int_value(xs[3]), Some(1));
    }
}
