//! Hierarchical cost minimization (paper Section IX, future work).
//!
//! The paper's capper is centralized; its stated scalability concerns are
//! (a) MILP size growing with the number of sites and price levels, and
//! (b) coordinator communication latency. This module implements the
//! natural two-level decomposition the paper sketches:
//!
//! * sites are grouped into **regions**, each with its own (small)
//!   regional cost-minimization MILP;
//! * a **coordinator** splits the hourly workload across regions by
//!   marginal-cost water-filling: the load is released in chunks, each
//!   chunk going to the region whose incremental cost for it is lowest
//!   (incremental costs come from regional MILP solves at the region's
//!   current assignment).
//!
//! The decomposition is a heuristic — regional coupling through the
//! objective is ignored between chunk boundaries — so it trades a small
//! optimality gap (measured by `tests/` and the `ablations` bench) for
//! solve times that scale with the largest region instead of the whole
//! fleet, and for a communication pattern where each region only learns
//! its own assignment.

use crate::error::CoreError;
use crate::minimize::{Allocation, CostMinimizer};
use crate::spec::DataCenterSystem;
use billcap_market::PricingPolicySet;

/// Two-level cost minimizer.
#[derive(Debug, Clone)]
pub struct HierarchicalMinimizer {
    /// Site indices per region; every site must appear exactly once.
    pub regions: Vec<Vec<usize>>,
    /// Number of workload chunks the coordinator releases (more chunks =
    /// closer to centralized optimum, more regional solves). Every
    /// constructor sets 16; only this module's chunk sweep test sets
    /// another.
    chunks: usize,
}

impl HierarchicalMinimizer {
    /// Creates a hierarchical minimizer with the given regions.
    pub fn new(regions: Vec<Vec<usize>>) -> Self {
        Self {
            regions,
            chunks: 16,
        }
    }

    /// Partitions `n` sites into regions of at most `region_size`.
    pub fn evenly(n: usize, region_size: usize) -> Self {
        assert!(region_size > 0, "region size must be positive");
        let regions = (0..n)
            .collect::<Vec<_>>()
            .chunks(region_size)
            .map(<[usize]>::to_vec)
            .collect();
        Self::new(regions)
    }

    /// Validates the region structure against a system.
    fn validate(&self, system: &DataCenterSystem) -> Result<(), CoreError> {
        let mut seen = vec![false; system.len()];
        for region in &self.regions {
            for &i in region {
                if i >= system.len() || seen[i] {
                    return Err(CoreError::Dimension {
                        expected: system.len(),
                        got: i,
                    });
                }
                seen[i] = true;
            }
        }
        if seen.iter().all(|&s| s) {
            Ok(())
        } else {
            Err(CoreError::Dimension {
                expected: system.len(),
                got: seen.iter().filter(|&&s| s).count(),
            })
        }
    }

    /// Builds the sub-system for one region.
    fn subsystem(
        &self,
        system: &DataCenterSystem,
        region: &[usize],
    ) -> Result<DataCenterSystem, CoreError> {
        let sites = region.iter().map(|&i| system.sites[i].clone()).collect();
        let policies = PricingPolicySet {
            policies: region.iter().map(|&i| system.policy(i).clone()).collect(),
        };
        DataCenterSystem::new(sites, policies)
    }

    /// Minimizes the hour's cost by two-level decomposition. Semantics
    /// match [`CostMinimizer::solve`] (all of `lambda` is served), with a
    /// small optimality gap; every regional subproblem is one such solve.
    pub fn solve(
        &self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
    ) -> Result<Allocation, CoreError> {
        self.validate(system)?;
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

        let minimizer = CostMinimizer::default();
        let subsystems: Vec<DataCenterSystem> = self
            .regions
            .iter()
            .map(|r| self.subsystem(system, r))
            .collect::<Result<_, _>>()?;
        let sub_backgrounds: Vec<Vec<f64>> = self
            .regions
            .iter()
            .map(|r| r.iter().map(|&i| background_mw[i]).collect())
            .collect();
        let capacities: Vec<f64> = subsystems
            .iter()
            .map(DataCenterSystem::total_capacity)
            .collect();

        // Coordinator: water-fill `chunks` equal slices of the workload.
        let chunk = lambda / self.chunks.max(1) as f64;
        let mut assigned = vec![0.0f64; self.regions.len()];
        let mut current_cost = vec![0.0f64; self.regions.len()];
        // Seed the cost curve at zero assignment.
        for (r, sub) in subsystems.iter().enumerate() {
            current_cost[r] = minimizer.solve(sub, 0.0, &sub_backgrounds[r])?.total_cost;
        }
        let mut remaining = lambda;
        while remaining > 1e-6 {
            let take = chunk.min(remaining);
            // Incremental cost of `take` at each region with headroom.
            let mut best: Option<(usize, f64, f64)> = None; // (region, delta, new_cost)
            for (r, sub) in subsystems.iter().enumerate() {
                if assigned[r] + take > capacities[r] {
                    continue;
                }
                let new_cost = minimizer
                    .solve(sub, assigned[r] + take, &sub_backgrounds[r])?
                    .total_cost;
                let delta = new_cost - current_cost[r];
                if best.is_none_or(|(_, d, _)| delta < d) {
                    best = Some((r, delta, new_cost));
                }
            }
            let Some((r, _, new_cost)) = best else {
                // No single region can absorb a full chunk: shrink it.
                if take <= 1.0 {
                    return Err(CoreError::InsufficientCapacity {
                        demanded: lambda,
                        capacity,
                    });
                }
                // Halve the chunk by assigning half now.
                let half = take / 2.0;
                let mut placed = false;
                for (r, sub) in subsystems.iter().enumerate() {
                    if assigned[r] + half <= capacities[r] {
                        let new_cost = minimizer
                            .solve(sub, assigned[r] + half, &sub_backgrounds[r])?
                            .total_cost;
                        assigned[r] += half;
                        current_cost[r] = new_cost;
                        remaining -= half;
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    return Err(CoreError::InsufficientCapacity {
                        demanded: lambda,
                        capacity,
                    });
                }
                continue;
            };
            assigned[r] += take;
            current_cost[r] = new_cost;
            remaining -= take;
        }

        // Final regional solves produce the per-site allocation.
        let mut lambda_out = vec![0.0; system.len()];
        let mut servers = vec![0; system.len()];
        let mut power_mw = vec![0.0; system.len()];
        let mut price = vec![0.0; system.len()];
        let mut level = vec![0; system.len()];
        let mut cost = vec![0.0; system.len()];
        let mut total_cost = 0.0;
        let mut total_lambda = 0.0;
        for (r, sub) in subsystems.iter().enumerate() {
            let alloc = minimizer.solve(sub, assigned[r], &sub_backgrounds[r])?;
            for (j, &site) in self.regions[r].iter().enumerate() {
                lambda_out[site] = alloc.lambda[j];
                servers[site] = alloc.servers[j];
                power_mw[site] = alloc.power_mw[j];
                price[site] = alloc.price[j];
                level[site] = alloc.level[j];
                cost[site] = alloc.cost[j];
            }
            total_cost += alloc.total_cost;
            total_lambda += alloc.total_lambda;
        }
        Ok(Allocation {
            lambda: lambda_out,
            servers,
            power_mw,
            price,
            level,
            cost,
            total_cost,
            total_lambda,
            stats: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DataCenterSystem;

    fn background() -> Vec<f64> {
        vec![360.0, 410.0, 430.0]
    }

    #[test]
    fn trivial_partition_matches_centralized() {
        // One region holding everything IS the centralized problem.
        let sys = DataCenterSystem::paper_system(1);
        let h = HierarchicalMinimizer::new(vec![vec![0, 1, 2]]);
        let d = background();
        let hier = h.solve(&sys, 6e8, &d).unwrap();
        let central = CostMinimizer::default().solve(&sys, 6e8, &d).unwrap();
        assert!((hier.total_cost - central.total_cost).abs() < 1e-6);
    }

    #[test]
    fn singleton_regions_have_bounded_gap() {
        let sys = DataCenterSystem::paper_system(1);
        let h = HierarchicalMinimizer::evenly(3, 1);
        let d = background();
        let lambda = 6e8;
        let hier = h.solve(&sys, lambda, &d).unwrap();
        let central = CostMinimizer::default().solve(&sys, lambda, &d).unwrap();
        assert!((hier.total_lambda - lambda).abs() < 1.0);
        let gap = hier.total_cost / central.total_cost - 1.0;
        assert!(gap >= -1e-9, "hierarchical beat the optimum?");
        assert!(gap < 0.15, "optimality gap {gap} too large");
    }

    #[test]
    fn serves_all_demand_and_respects_caps() {
        let sys = DataCenterSystem::paper_system(1);
        let h = HierarchicalMinimizer::evenly(3, 2);
        let d = background();
        let lambda = 9e8;
        let alloc = h.solve(&sys, lambda, &d).unwrap();
        assert!((alloc.total_lambda - lambda).abs() < 1.0);
        for (i, &p) in alloc.power_mw.iter().enumerate() {
            assert!(p <= sys.sites[i].power_cap_mw + 1e-6, "site {i}");
        }
    }

    #[test]
    fn near_capacity_loads_are_still_placed() {
        let sys = DataCenterSystem::paper_system(1);
        let h = HierarchicalMinimizer::evenly(3, 1);
        let d = background();
        let lambda = 0.98 * sys.total_capacity();
        let alloc = h.solve(&sys, lambda, &d).unwrap();
        assert!((alloc.total_lambda - lambda).abs() / lambda < 1e-6);
    }

    #[test]
    fn over_capacity_rejected() {
        let sys = DataCenterSystem::paper_system(1);
        let h = HierarchicalMinimizer::evenly(3, 1);
        assert!(matches!(
            h.solve(&sys, 1e13, &background()),
            Err(CoreError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn bad_partitions_rejected() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        // Duplicate site.
        let h = HierarchicalMinimizer::new(vec![vec![0, 1], vec![1, 2]]);
        assert!(matches!(
            h.solve(&sys, 1e8, &d),
            Err(CoreError::Dimension { .. })
        ));
        // Missing site.
        let h = HierarchicalMinimizer::new(vec![vec![0, 1]]);
        assert!(matches!(
            h.solve(&sys, 1e8, &d),
            Err(CoreError::Dimension { .. })
        ));
    }

    #[test]
    fn more_chunks_tighten_the_gap() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let lambda = 7e8;
        let central = CostMinimizer::default().solve(&sys, lambda, &d).unwrap();
        let gap = |chunks: usize| {
            let mut h = HierarchicalMinimizer::evenly(3, 1);
            h.chunks = chunks;
            let a = h.solve(&sys, lambda, &d).unwrap();
            a.total_cost / central.total_cost - 1.0
        };
        let coarse = gap(4);
        let fine = gap(64);
        assert!(
            fine <= coarse + 1e-9,
            "finer chunks should not hurt: {fine} vs {coarse}"
        );
    }
}
