//! Economic dispatch (DC-OPF) and locational marginal price extraction.
//!
//! The dispatch LP minimizes total generation cost subject to the system
//! power balance, generator capacities, and line thermal limits expressed
//! through the PTDF matrix. The LMP at a bus is the marginal system cost of
//! serving one more megawatt there; we extract it by a forward-difference
//! perturbation (re-solving with a small extra load at the bus), which is
//! numerically equivalent to the balance-constraint dual for the step-cost
//! generators used here and avoids needing dual values from the simplex.

use crate::linalg::Matrix;
use crate::network::{BusId, Grid};
use billcap_milp::{ConstraintOp, MipSolver, Model, Sense, SolveError};
use std::fmt;

/// Errors from the dispatch solver.
#[derive(Debug, Clone, PartialEq)]
pub enum OpfError {
    /// Load exceeds deliverable generation (capacity or transmission).
    Infeasible,
    /// The network is electrically disconnected.
    Disconnected,
    /// Internal LP failure.
    Solver(SolveError),
}

impl fmt::Display for OpfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpfError::Infeasible => write!(f, "dispatch infeasible for the given load"),
            OpfError::Disconnected => write!(f, "network is disconnected"),
            OpfError::Solver(e) => write!(f, "dispatch LP failed: {e}"),
        }
    }
}

impl std::error::Error for OpfError {}

/// Result of an economic dispatch.
#[derive(Debug, Clone)]
pub struct DispatchResult {
    /// Output of each generator in MW (same order as [`Grid::generators`]).
    pub generation_mw: Vec<f64>,
    /// Flow on each line in MW, oriented `from -> to`.
    pub flows_mw: Vec<f64>,
    /// Total generation cost in $/h.
    pub total_cost: f64,
}

/// DC-OPF solver bound to a grid (caches the PTDF matrix).
pub struct OpfSolver {
    grid: Grid,
    ptdf: Matrix,
    /// Solves the dispatch LP (no integer variables, so no branching).
    solver: MipSolver,
}

/// Perturbation size (MW) for LMP extraction.
const EPSILON_MW: f64 = 0.1;

impl OpfSolver {
    /// Builds a solver for `grid`; fails if the network is disconnected.
    pub fn new(grid: Grid) -> Result<Self, OpfError> {
        let ptdf = grid.ptdf().ok_or(OpfError::Disconnected)?;
        Ok(Self {
            grid,
            ptdf,
            solver: MipSolver::default(),
        })
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Solves the dispatch for the given per-bus loads (MW, indexed by bus).
    pub fn dispatch(&self, loads_mw: &[f64]) -> Result<DispatchResult, OpfError> {
        self.dispatch_internal(loads_mw).map(|(d, _, _)| d)
    }

    /// Builds and solves the dispatch LP, additionally returning the
    /// constraint duals and, per line, the indices of its `lim+`/`lim-`
    /// rows in the constraint list (None for unconstrained lines).
    #[allow(clippy::type_complexity)]
    fn dispatch_internal(
        &self,
        loads_mw: &[f64],
    ) -> Result<(DispatchResult, Vec<f64>, Vec<Option<(usize, usize)>>), OpfError> {
        assert_eq!(loads_mw.len(), self.grid.buses.len(), "load vector size");
        // detlint-allow(D006): sequential fixed-order sum over bus loads; bitwise-stable
        let total_load: f64 = loads_mw.iter().sum();

        let mut m = Model::new("dispatch", Sense::Minimize);
        let gens: Vec<_> = self
            .grid
            .generators
            .iter()
            .map(|g| m.add_cont(format!("p_{}", g.name), 0.0, g.capacity_mw))
            .collect();

        // System balance.
        m.add_constraint(
            "balance",
            gens.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Eq,
            total_load,
        );

        // Line limits: flow_l = sum_b PTDF[l][b] * (gen_b - load_b).
        let mut line_rows: Vec<Option<(usize, usize)>> = Vec::with_capacity(self.grid.lines.len());
        let mut next_row = 1; // row 0 is the balance constraint
        for (li, line) in self.grid.lines.iter().enumerate() {
            if !line.limit_mw.is_finite() {
                line_rows.push(None);
                continue;
            }
            line_rows.push(Some((next_row, next_row + 1)));
            next_row += 2;
            let mut terms: Vec<(billcap_milp::VarId, f64)> = Vec::new();
            let mut fixed = 0.0;
            for (gi, g) in self.grid.generators.iter().enumerate() {
                let coeff = self.ptdf[(li, g.bus.0)];
                if coeff != 0.0 {
                    terms.push((gens[gi], coeff));
                }
            }
            for (b, &load) in loads_mw.iter().enumerate() {
                fixed -= self.ptdf[(li, b)] * load;
            }
            m.add_constraint(
                format!("lim+_{}", line.name),
                terms.clone(),
                ConstraintOp::Le,
                line.limit_mw - fixed,
            );
            m.add_constraint(
                format!("lim-_{}", line.name),
                terms,
                ConstraintOp::Ge,
                -line.limit_mw - fixed,
            );
        }

        m.set_objective(
            gens.iter()
                .zip(&self.grid.generators)
                .map(|(&v, g)| (v, g.cost_per_mwh))
                .collect(),
            0.0,
        );

        let sol = match self.solver.solve(&m) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => return Err(OpfError::Infeasible),
            Err(e) => return Err(OpfError::Solver(e)),
        };

        let generation_mw: Vec<f64> = gens.iter().map(|&v| sol.value(v)).collect();
        let mut flows_mw = vec![0.0; self.grid.lines.len()];
        for (li, flow) in flows_mw.iter_mut().enumerate() {
            let mut f = 0.0;
            for (gi, g) in self.grid.generators.iter().enumerate() {
                f += self.ptdf[(li, g.bus.0)] * generation_mw[gi];
            }
            for (b, &load) in loads_mw.iter().enumerate() {
                f -= self.ptdf[(li, b)] * load;
            }
            *flow = f;
        }
        let duals = sol.duals.clone().unwrap_or_default();
        Ok((
            DispatchResult {
                generation_mw,
                flows_mw,
                total_cost: sol.objective,
            },
            duals,
            line_rows,
        ))
    }

    /// LMP at `bus` for the given loading, in $/MWh: marginal cost of one
    /// additional megawatt served at that bus.
    ///
    /// Uses a forward difference; if the perturbed system is infeasible
    /// (at the edge of deliverability) falls back to a backward difference.
    pub fn lmp(&self, loads_mw: &[f64], bus: BusId) -> Result<f64, OpfError> {
        let base = self.dispatch(loads_mw)?;
        let mut up = loads_mw.to_vec();
        up[bus.0] += EPSILON_MW;
        match self.dispatch(&up) {
            Ok(pert) => Ok((pert.total_cost - base.total_cost) / EPSILON_MW),
            Err(OpfError::Infeasible) => {
                let mut down = loads_mw.to_vec();
                down[bus.0] = (down[bus.0] - EPSILON_MW).max(0.0);
                let pert = self.dispatch(&down)?;
                Ok((base.total_cost - pert.total_cost) / EPSILON_MW)
            }
            Err(e) => Err(e),
        }
    }

    /// Exact LMPs at every bus via the dispatch LP's duals, decomposed
    /// into the classic energy + congestion components:
    ///
    /// ```text
    /// LMP_b = y_balance + Σ_l PTDF[l][b] · (y_l⁺ + y_l⁻)
    /// ```
    ///
    /// where `y_balance` is the system-balance shadow price (the energy
    /// component, identical at every bus) and the line-limit duals supply
    /// the locational congestion component. This is both faster and more
    /// precise than the perturbation method (one LP instead of `n+1`),
    /// and degenerate ties aside the two agree — tested in this module.
    pub(crate) fn lmp_decomposition(&self, loads_mw: &[f64]) -> Result<LmpDecomposition, OpfError> {
        let (_, duals, line_rows) = self.dispatch_internal(loads_mw)?;
        let energy = duals.first().copied().unwrap_or(0.0);
        let n = self.grid.buses.len();
        let mut congestion = vec![0.0; n];
        for (li, rows) in line_rows.iter().enumerate() {
            let Some((up, down)) = rows else { continue };
            let y = duals[*up] + duals[*down];
            if y == 0.0 {
                continue;
            }
            for (b, c) in congestion.iter_mut().enumerate() {
                *c += self.ptdf[(li, b)] * y;
            }
        }
        let lmp = congestion.iter().map(|c| energy + c).collect();
        Ok(LmpDecomposition {
            energy,
            congestion,
            lmp,
        })
    }
}

/// Exact LMPs with the energy/congestion split (see
/// `OpfSolver::lmp_decomposition`).
#[derive(Debug, Clone, PartialEq)]
pub struct LmpDecomposition {
    /// System-wide energy component ($/MWh): the balance dual.
    pub energy: f64,
    /// Per-bus congestion component ($/MWh).
    pub congestion: Vec<f64>,
    /// Per-bus LMP = energy + congestion ($/MWh).
    pub lmp: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Grid;

    /// Two buses, cheap generator at slack, load remote: no congestion means
    /// a single system price equal to the marginal unit's cost.
    fn simple_grid(limit: f64) -> (Grid, BusId, BusId) {
        let mut g = Grid::new();
        let a = g.add_bus("A");
        let b = g.add_bus("B");
        g.add_line("AB", a, b, 0.1, limit);
        g.add_generator("cheap", a, 100.0, 10.0);
        g.add_generator("expensive", b, 100.0, 30.0);
        (g, a, b)
    }

    #[test]
    fn uncongested_price_is_cheapest_marginal() {
        let (g, _a, b) = simple_grid(f64::INFINITY);
        let opf = OpfSolver::new(g).unwrap();
        let loads = vec![0.0, 50.0];
        let d = opf.dispatch(&loads).unwrap();
        assert!((d.generation_mw[0] - 50.0).abs() < 1e-6);
        assert!((opf.lmp(&loads, b).unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn generation_limit_raises_price() {
        let (g, _a, b) = simple_grid(f64::INFINITY);
        let opf = OpfSolver::new(g).unwrap();
        // Load above the cheap unit's 100 MW: marginal unit is the $30 one.
        let loads = vec![0.0, 150.0];
        let d = opf.dispatch(&loads).unwrap();
        assert!((d.generation_mw[0] - 100.0).abs() < 1e-6);
        assert!((d.generation_mw[1] - 50.0).abs() < 1e-6);
        assert!((opf.lmp(&loads, b).unwrap() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn transmission_limit_creates_congestion_price() {
        let (g, a, b) = simple_grid(40.0);
        let opf = OpfSolver::new(g).unwrap();
        // 60 MW at B but only 40 MW can be imported: B pays the local unit.
        let loads = vec![0.0, 60.0];
        let d = opf.dispatch(&loads).unwrap();
        assert!((d.generation_mw[0] - 40.0).abs() < 1e-6);
        assert!((d.generation_mw[1] - 20.0).abs() < 1e-6);
        assert!((opf.lmp(&loads, b).unwrap() - 30.0).abs() < 1e-6);
        // The unconstrained side still sees the cheap price.
        assert!((opf.lmp(&loads, a).unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn flows_respect_limits() {
        let (g, _a, _b) = simple_grid(40.0);
        let opf = OpfSolver::new(g).unwrap();
        let d = opf.dispatch(&[0.0, 60.0]).unwrap();
        assert!(d.flows_mw[0].abs() <= 40.0 + 1e-6);
    }

    #[test]
    fn infeasible_when_load_exceeds_capacity() {
        let (g, _a, _b) = simple_grid(f64::INFINITY);
        let opf = OpfSolver::new(g).unwrap();
        assert!(matches!(
            opf.dispatch(&[0.0, 500.0]),
            Err(OpfError::Infeasible)
        ));
    }

    #[test]
    fn dual_lmp_matches_perturbation_lmp() {
        let (g, a, b) = simple_grid(40.0);
        let opf = OpfSolver::new(g).unwrap();
        for loads in [vec![0.0, 30.0], vec![0.0, 60.0], vec![20.0, 55.0]] {
            let dec = opf.lmp_decomposition(&loads).unwrap();
            for (bus, &exact) in [a, b].iter().zip(&dec.lmp) {
                let pert = opf.lmp(&loads, *bus).unwrap();
                assert!(
                    (exact - pert).abs() < 1e-6,
                    "loads {loads:?} bus {bus:?}: dual {exact} vs perturbation {pert}"
                );
            }
        }
    }

    #[test]
    fn decomposition_components_sum() {
        let (g, _a, _b) = simple_grid(40.0);
        let opf = OpfSolver::new(g).unwrap();
        let dec = opf.lmp_decomposition(&[0.0, 60.0]).unwrap();
        for (lmp, c) in dec.lmp.iter().zip(&dec.congestion) {
            assert!((lmp - (dec.energy + c)).abs() < 1e-12);
        }
        // Congested case: the import-limited bus pays a positive
        // congestion premium, the exporting bus a discount or zero.
        assert!(dec.congestion[1] > 1.0, "{dec:?}");
    }

    #[test]
    fn uncongested_decomposition_is_pure_energy() {
        let (g, _a, _b) = simple_grid(f64::INFINITY);
        let opf = OpfSolver::new(g).unwrap();
        let dec = opf.lmp_decomposition(&[0.0, 50.0]).unwrap();
        assert!((dec.energy - 10.0).abs() < 1e-9);
        assert!(dec.congestion.iter().all(|c| c.abs() < 1e-9));
    }

    #[test]
    fn dispatch_balances_supply_and_demand() {
        let (g, _a, _b) = simple_grid(f64::INFINITY);
        let opf = OpfSolver::new(g).unwrap();
        let loads = vec![20.0, 70.0];
        let d = opf.dispatch(&loads).unwrap();
        let total_gen: f64 = d.generation_mw.iter().sum();
        assert!((total_gen - 90.0).abs() < 1e-6);
    }
}
