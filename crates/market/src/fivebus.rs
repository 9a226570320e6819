//! The canonical PJM five-bus example system.
//!
//! This is the system the paper's Figure 1 pricing policies are derived
//! from (via F. Li's LMP step-change studies): five generators — Alta and
//! Park City at bus A, Solitude at bus C, Sundance at bus D, Brighton at
//! bus E — with the system load split uniformly across the three consumer
//! buses B, C and D. As the load grows, LMPs step upward whenever a
//! generator output limit or the Sundance–Brighton line limit becomes
//! binding, producing the piecewise-constant locational pricing policies
//! that the bill-capping algorithm consumes.

use crate::network::{BusId, Grid};
use crate::opf::{OpfError, OpfSolver};
use crate::policy::StepPolicy;

/// One consumer's derived pricing data: the `(system load MW, LMP)` sweep
/// series and the step policy fitted to it.
pub type DerivedPolicy = (FiveBusConsumer, Vec<(f64, f64)>, StepPolicy);

/// The three consumer buses of the five-bus system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FiveBusConsumer {
    B,
    C,
    D,
}

impl FiveBusConsumer {
    /// All consumers, in the paper's order (locations B, C, D map to the
    /// paper's data centers 1, 2, 3).
    pub const ALL: [FiveBusConsumer; 3] =
        [FiveBusConsumer::B, FiveBusConsumer::C, FiveBusConsumer::D];
}

/// Handles to the named buses of the five-bus system.
#[derive(Debug, Clone, Copy)]
pub struct FiveBus {
    pub a: BusId,
    pub b: BusId,
    pub c: BusId,
    pub d: BusId,
    pub e: BusId,
}

/// Builds the PJM five-bus grid. Returns the grid and the bus handles.
///
/// Generator and line data follow the PJM training-material example:
/// Alta 110 MW @ $14, Park City 100 MW @ $15 (bus A), Solitude 520 MW @
/// $30 (bus C), Sundance 200 MW @ $35 (bus D), Brighton 600 MW @ $10
/// (bus E); the Sundance–Brighton (D–E) line is limited to 240 MW, all
/// other lines unconstrained.
pub fn pjm_five_bus() -> (Grid, FiveBus) {
    let mut g = Grid::new();
    let a = g.add_bus("A");
    let b = g.add_bus("B");
    let c = g.add_bus("C");
    let d = g.add_bus("D");
    let e = g.add_bus("E");

    // Reactances in per-unit from the PJM example.
    g.add_line("AB", a, b, 0.0281, f64::INFINITY);
    g.add_line("AD", a, d, 0.0304, f64::INFINITY);
    g.add_line("AE", a, e, 0.0064, f64::INFINITY);
    g.add_line("BC", b, c, 0.0108, f64::INFINITY);
    g.add_line("CD", c, d, 0.0297, f64::INFINITY);
    g.add_line("DE", d, e, 0.0297, 240.0);

    g.add_generator("Alta", a, 110.0, 14.0);
    g.add_generator("ParkCity", a, 100.0, 15.0);
    g.add_generator("Solitude", c, 520.0, 30.0);
    g.add_generator("Sundance", d, 200.0, 35.0);
    g.add_generator("Brighton", e, 600.0, 10.0);

    (g, FiveBus { a, b, c, d, e })
}

/// Sweeps the five-bus system load over `[0, max_load_mw]` in `step_mw`
/// increments (uniformly split across B, C, D) and returns, per consumer,
/// the LMP series and a [`StepPolicy`] fitted to it.
///
/// This regenerates the paper's Figure 1 from first principles.
pub fn derive_policies(max_load_mw: f64, step_mw: f64) -> Result<Vec<DerivedPolicy>, OpfError> {
    let (grid, buses) = pjm_five_bus();
    let n_buses = grid.buses.len();
    let opf = OpfSolver::new(grid)?;

    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 3];
    let mut load = step_mw.max(1.0);
    while load <= max_load_mw {
        let mut loads = vec![0.0; n_buses];
        let share = load / 3.0;
        loads[buses.b.0] = share;
        loads[buses.c.0] = share;
        loads[buses.d.0] = share;
        // Exact dual-based LMPs: one LP per sweep point.
        match opf.lmp_decomposition(&loads) {
            Ok(dec) => {
                for (s, bus) in series.iter_mut().zip([buses.b, buses.c, buses.d]) {
                    s.push((load, dec.lmp[bus.0]));
                }
            }
            Err(OpfError::Infeasible) => break, // beyond deliverable load
            Err(e) => return Err(e),
        }
        load += step_mw;
    }

    Ok(FiveBusConsumer::ALL
        .iter()
        .zip(series)
        .map(|(&c, s)| {
            let policy = StepPolicy::fit_from_series(&s, 0.05);
            (c, s, policy)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_load_prices_at_brighton_cost() {
        let (grid, buses) = pjm_five_bus();
        let opf = OpfSolver::new(grid).unwrap();
        let mut loads = vec![0.0; 5];
        loads[buses.b.0] = 50.0;
        loads[buses.c.0] = 50.0;
        loads[buses.d.0] = 50.0;
        // 150 MW system load: Brighton ($10, 600 MW) serves everything.
        for bus in [buses.b, buses.c, buses.d] {
            let lmp = opf.lmp(&loads, bus).unwrap();
            assert!((lmp - 10.0).abs() < 1e-6, "lmp {lmp}");
        }
    }

    #[test]
    fn prices_step_up_with_load() {
        let policies = derive_policies(900.0, 25.0).unwrap();
        for (consumer, series, policy) in &policies {
            assert!(!series.is_empty(), "{consumer:?} series empty");
            let first = series.first().unwrap().1;
            let last = series.last().unwrap().1;
            assert!(
                last > first + 1.0,
                "{consumer:?}: price did not rise ({first} -> {last})"
            );
            assert!(policy.num_levels() >= 2, "{consumer:?} has a single level");
        }
    }

    #[test]
    fn fitted_policy_reproduces_series_prices() {
        let policies = derive_policies(800.0, 50.0).unwrap();
        for (_, series, policy) in &policies {
            for &(load, price) in series {
                let fitted = policy.price_at(load);
                assert!(
                    (fitted - price).abs() < 0.5,
                    "load {load}: fitted {fitted} vs {price}"
                );
            }
        }
    }

    #[test]
    fn congestion_differentiates_buses_at_high_load() {
        // Beyond the D-E line limit, bus prices must diverge: the paper's
        // core claim that prices are *locational*.
        let (grid, buses) = pjm_five_bus();
        let opf = OpfSolver::new(grid).unwrap();
        let mut loads = vec![0.0; 5];
        for b in [buses.b, buses.c, buses.d] {
            loads[b.0] = 280.0; // 840 MW system load
        }
        let lmps: Vec<f64> = [buses.b, buses.c, buses.d]
            .iter()
            .map(|&b| opf.lmp(&loads, b).unwrap())
            .collect();
        let min = lmps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = lmps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.5, "expected locational spread, got {lmps:?}");
    }
}
