//! The `milp.*` trace counters are a ledger of the returned
//! [`SolveTrace`]s: over any set of traced solves, every counter equals
//! the sum of its field across the solves' traces, name by name, and no
//! other `milp.*` counter appears.
//!
//! The seeded differential generators supply the solves: MILPs whose
//! searches prune infeasible nodes (the pivots of those nodes must
//! count), box-bounded and general LPs, warm and cold searches, and a
//! workspace kept across solves. Each MILP's per-node pivot histogram
//! sums its `lp.iterations`, one observation per expanded node.
//!
//! The trace recorder is process-global, so this file is its own test
//! binary and holds one `#[test]`.

mod generators;

use billcap_milp::{MipSolver, MipWorkspace, Model, SolveTrace};
use billcap_rt::Xoshiro256pp;
use generators::{random_general_lp, random_lp, random_model};
use std::collections::BTreeMap;

const CASES: usize = 120;

/// Every counter a solve emits, written out by hand so a renamed or
/// dropped counter fails here.
fn ledger(nodes: usize, t: &SolveTrace) -> [(&'static str, usize); 19] {
    [
        ("milp.bnb.solves", 1),
        ("milp.bnb.nodes", nodes),
        ("milp.bnb.pruned_bound", t.pruned_by_bound),
        ("milp.bnb.pruned_infeasible", t.pruned_infeasible),
        ("milp.bnb.incumbent_updates", t.incumbent_updates),
        ("milp.lp.warm_starts", t.warm_starts),
        ("milp.lp.workspace_reuses", t.workspace_reuses),
        ("milp.lp.iterations", t.lp.iterations),
        ("milp.lp.degenerate_pivots", t.lp.degenerate),
        ("milp.lp.bound_flips", t.lp.bound_flips),
        ("milp.lp.factorizations", t.lp.factorizations),
        ("milp.lp.refactorizations", t.lp.refactorizations),
        ("milp.lp.phase1_starts", t.lp.phase1_starts),
        ("milp.lp.ftran_calls", t.lp.ftran_calls),
        ("milp.lp.btran_calls", t.lp.btran_calls),
        ("milp.lp.xb_refreshes", t.lp.xb_refreshes),
        ("milp.lp.bland_switches", t.lp.bland_switches),
        ("milp.lp.exit_dual_violations", t.lp.exit_dual_violations),
        ("milp.lp.crash_columns", t.lp.crash_columns),
    ]
}

#[test]
fn milp_counters_sum_the_returned_traces() {
    let mut models: Vec<Model> = Vec::new();
    let mut rng = Xoshiro256pp::seed_from_u64(0xD1FF);
    models.extend((0..CASES).map(|tag| random_model(&mut rng, tag)));
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED);
    models.extend((0..CASES).map(|tag| random_lp(&mut rng, tag)));
    let mut rng = Xoshiro256pp::seed_from_u64(0x6E4E);
    models.extend((0..CASES).map(|tag| random_general_lp(&mut rng, tag)));

    let cold = MipSolver {
        warm_start: false,
        ..MipSolver::default()
    };
    let mut kept = MipWorkspace::default();
    let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut solves, mut failures, mut infeasible_nodes) = (0, 0, 0);
    let mut pivoting_infeasible_nodes = 0;
    // The per-node pivot histogram, as (observations, observations of
    // zero pivots, pivot sum); pure LPs observe nothing.
    let per_node = || {
        billcap_obs::snapshot()
            .histograms
            .get("milp.lp.iterations_per_node")
            .map_or((0, 0, 0), |h| {
                (h.count as usize, h.counts[0] as usize, h.sum as usize)
            })
    };

    billcap_obs::set_enabled(true);
    billcap_obs::reset();
    for (i, m) in models.iter().enumerate() {
        // Alternate warm and cold searches, fresh and kept workspaces.
        let solver = if i % 2 == 0 {
            MipSolver::default()
        } else {
            cold.clone()
        };
        let (count_before, zero_before, sum_before) = per_node();
        let result = if i % 3 == 0 {
            solver.solve(m)
        } else {
            solver.solve_in(m, None, &mut kept).map(|(sol, _)| sol)
        };
        // A failed solve returns no trace and emits nothing.
        let Ok(sol) = result else {
            failures += 1;
            continue;
        };
        let stats = sol.mip.expect("every MipSolver solution carries stats");
        assert_eq!(sol.iterations, stats.trace.lp.iterations, "model {i}");
        assert_eq!(sol.degenerate, stats.trace.lp.degenerate, "model {i}");
        solves += 1;
        infeasible_nodes += stats.trace.pruned_infeasible;
        if !m.integer_vars().is_empty() {
            // Every expanded node observes its pivots once, infeasible
            // nodes included, so the histogram sums the search's pivots.
            let (count, zero, sum) = per_node();
            assert_eq!(count - count_before, stats.nodes, "model {i}");
            assert_eq!(sum - sum_before, stats.trace.lp.iterations, "model {i}");
            // Nodes that pivoted beyond the LP-optimal nodes' number
            // can only be infeasible nodes.
            let pivoting = (count - count_before) - (zero - zero_before);
            let optimal = stats.nodes - stats.trace.pruned_infeasible;
            pivoting_infeasible_nodes += pivoting.saturating_sub(optimal);
        }
        for (name, value) in ledger(stats.nodes, &stats.trace) {
            *expected.entry(name).or_default() += value as u64;
        }
    }
    let snap = billcap_obs::snapshot();
    billcap_obs::set_enabled(false);

    let emitted: BTreeMap<&str, u64> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("milp."))
        .map(|(name, &value)| (name.as_str(), value))
        .collect();
    assert_eq!(emitted, expected);

    // The suite covers what it claims to: failed solves, searches that
    // proved nodes infeasible, warm starts and a reused workspace.
    assert!(
        failures > 0 && solves > CASES,
        "{solves} solved, {failures} failed"
    );
    assert!(infeasible_nodes > 0, "no search pruned an infeasible node");
    assert!(pivoting_infeasible_nodes > 0, "no infeasible node pivoted");
    for name in ["milp.lp.warm_starts", "milp.lp.workspace_reuses"] {
        assert!(expected[name] > 0, "{name} never moved");
    }
}
