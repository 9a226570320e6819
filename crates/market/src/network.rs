//! DC power-flow network model and PTDF computation.
//!
//! Under the DC approximation, the real-power flow on each line is a linear
//! function of bus injections: `flow = PTDF * injections`, where the PTDF
//! (power transfer distribution factor) matrix is derived from line
//! susceptances with one bus designated as the slack. This is the standard
//! model used by ISOs for LMP computation and the one underlying the PJM
//! five-bus example the paper builds its pricing policies from.

use crate::linalg::Matrix;

/// Opaque bus identifier (index into [`Grid::buses`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusId(pub usize);

/// A network bus.
#[derive(Debug, Clone)]
pub struct Bus {
    pub name: String,
}

/// A transmission line between two buses.
#[derive(Debug, Clone)]
pub struct Line {
    pub name: String,
    pub from: BusId,
    pub to: BusId,
    /// Series reactance in per-unit; susceptance is `1 / reactance`.
    pub reactance: f64,
    /// Thermal limit in MW (`f64::INFINITY` for unconstrained lines).
    pub limit_mw: f64,
}

/// A generator attached to a bus.
#[derive(Debug, Clone)]
pub struct Generator {
    pub name: String,
    pub bus: BusId,
    /// Maximum output in MW.
    pub capacity_mw: f64,
    /// Marginal cost in $/MWh (constant within the unit's range).
    pub cost_per_mwh: f64,
}

/// A DC power-flow network.
#[derive(Debug, Clone)]
pub struct Grid {
    pub buses: Vec<Bus>,
    pub lines: Vec<Line>,
    pub generators: Vec<Generator>,
    /// Reference (slack) bus for angle computation.
    pub slack: BusId,
}

impl Grid {
    /// Creates an empty grid; `slack` is fixed after the first bus is added.
    pub fn new() -> Self {
        Self {
            buses: Vec::new(),
            lines: Vec::new(),
            generators: Vec::new(),
            slack: BusId(0),
        }
    }

    /// Adds a bus and returns its id.
    pub(crate) fn add_bus(&mut self, name: impl Into<String>) -> BusId {
        self.buses.push(Bus { name: name.into() });
        BusId(self.buses.len() - 1)
    }

    /// Adds a transmission line.
    pub(crate) fn add_line(
        &mut self,
        name: impl Into<String>,
        from: BusId,
        to: BusId,
        reactance: f64,
        limit_mw: f64,
    ) {
        assert!(reactance > 0.0, "line reactance must be positive");
        self.lines.push(Line {
            name: name.into(),
            from,
            to,
            reactance,
            limit_mw,
        });
    }

    /// Adds a generator.
    pub(crate) fn add_generator(
        &mut self,
        name: impl Into<String>,
        bus: BusId,
        capacity_mw: f64,
        cost_per_mwh: f64,
    ) {
        self.generators.push(Generator {
            name: name.into(),
            bus,
            capacity_mw,
            cost_per_mwh,
        });
    }

    /// Computes the PTDF matrix (`lines x buses`): sensitivity of each line
    /// flow (oriented `from -> to`) to a 1 MW injection at each bus,
    /// withdrawn at the slack. The slack column is identically zero.
    ///
    /// Returns `None` if the network is electrically disconnected (singular
    /// reduced susceptance matrix).
    pub(crate) fn ptdf(&self) -> Option<Matrix> {
        let n = self.buses.len();
        let l = self.lines.len();
        let s = self.slack.0;

        // Bus susceptance matrix B (n x n).
        let mut b_bus = Matrix::zeros(n, n);
        for line in &self.lines {
            let b = 1.0 / line.reactance;
            let (i, j) = (line.from.0, line.to.0);
            b_bus[(i, i)] += b;
            b_bus[(j, j)] += b;
            b_bus[(i, j)] -= b;
            b_bus[(j, i)] -= b;
        }

        // Reduced system without the slack row/column. `red_idx` maps a
        // bus to its reduced index (None for the slack bus).
        let keep: Vec<usize> = (0..n).filter(|&i| i != s).collect();
        let mut red_idx: Vec<Option<usize>> = vec![None; n];
        for (ri, &i) in keep.iter().enumerate() {
            red_idx[i] = Some(ri);
        }
        let mut b_red = Matrix::zeros(n - 1, n - 1);
        for (ri, &i) in keep.iter().enumerate() {
            for (rj, &j) in keep.iter().enumerate() {
                b_red[(ri, rj)] = b_bus[(i, j)];
            }
        }
        let b_inv = b_red.inverse()?;

        // Line flow sensitivity to angles: Bf (l x n).
        let mut ptdf = Matrix::zeros(l, n);
        for (li, line) in self.lines.iter().enumerate() {
            let b = 1.0 / line.reactance;
            // flow = b * (theta_from - theta_to); theta = B_red^-1 * P_red.
            for (rj, &j) in keep.iter().enumerate() {
                let mut v = 0.0;
                if let Some(ri) = red_idx[line.from.0] {
                    v += b * b_inv[(ri, rj)];
                }
                if let Some(ri) = red_idx[line.to.0] {
                    v -= b * b_inv[(ri, rj)];
                }
                ptdf[(li, j)] = v;
            }
            // Column for the slack stays zero by construction.
        }
        Some(ptdf)
    }
}

impl Default for Grid {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two buses, one line: injecting at the non-slack bus sends the full
    /// megawatt across the line towards the slack.
    #[test]
    fn two_bus_ptdf_is_unity() {
        let mut g = Grid::new();
        let a = g.add_bus("A");
        let b = g.add_bus("B");
        g.add_line("AB", a, b, 0.1, f64::INFINITY);
        let ptdf = g.ptdf().unwrap();
        // Injection at B, slack at A: flow A->B = -1 (power flows B->A).
        assert!((ptdf[(0, b.0)] + 1.0).abs() < 1e-9);
        assert_eq!(ptdf[(0, a.0)], 0.0);
    }

    /// Three buses in a triangle with equal reactances: an injection splits
    /// 2/3 over the direct line and 1/3 over the two-hop path.
    #[test]
    fn triangle_flow_split() {
        let mut g = Grid::new();
        let a = g.add_bus("A");
        let b = g.add_bus("B");
        let c = g.add_bus("C");
        g.add_line("AB", a, b, 0.1, f64::INFINITY);
        g.add_line("BC", b, c, 0.1, f64::INFINITY);
        g.add_line("AC", a, c, 0.1, f64::INFINITY);
        let ptdf = g.ptdf().unwrap();
        // Inject 1 MW at B (slack A): direct line AB carries -2/3 (B->A),
        // path B->C->A carries 1/3.
        assert!(
            (ptdf[(0, b.0)] + 2.0 / 3.0).abs() < 1e-9,
            "{}",
            ptdf[(0, b.0)]
        );
        assert!((ptdf[(1, b.0)] - 1.0 / 3.0).abs() < 1e-9);
        assert!((ptdf[(2, b.0)] + 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_network_has_no_ptdf() {
        let mut g = Grid::new();
        let _a = g.add_bus("A");
        let _b = g.add_bus("B");
        // No lines: B is unreachable.
        assert!(g.ptdf().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_reactance_rejected() {
        let mut g = Grid::new();
        let a = g.add_bus("A");
        let b = g.add_bus("B");
        g.add_line("AB", a, b, 0.0, 100.0);
    }
}
