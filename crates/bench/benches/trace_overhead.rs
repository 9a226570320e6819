//! Overhead of the observability layer on the solver hot path.
//!
//! The contract (DESIGN.md §Observability): with tracing disabled the
//! instrumented branch-and-bound must run within 1% of its
//! un-instrumented speed — the disabled fast path is one relaxed atomic
//! load per instrumentation site. This bench solves a hard 10-site ×
//! 10-level step-1 instance with tracing off and on, and prints the
//! enabled-mode overhead for the record.

use billcap_core::{CostMinimizer, DataCenterSystem};
use billcap_rt::Harness;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args();
    let sys = DataCenterSystem::synthetic(10, 10);
    let background: Vec<f64> = (0..sys.len()).map(|i| 5.0 + 3.0 * i as f64).collect();
    let lambda = 0.45 * sys.total_capacity();
    let m = CostMinimizer::default();
    let mut solve = || {
        let alloc = m
            .solve(black_box(&sys), black_box(lambda), black_box(&background))
            .expect("feasible");
        black_box(alloc.total_cost)
    };

    let before = h.results().len();
    billcap_obs::set_enabled(false);
    h.bench("trace_overhead/disabled", &mut solve);
    billcap_obs::set_enabled(true);
    h.bench("trace_overhead/enabled", &mut solve);
    billcap_obs::set_enabled(false);
    // Discard the trace accumulated by the enabled runs.
    billcap_obs::reset();

    let measured = &h.results()[before..];
    if measured.len() == 2 {
        let off = measured[0].median_ns;
        let on = measured[1].median_ns;
        println!(
            "trace_overhead: disabled {:.2} ms, enabled {:.2} ms ({:+.2}% when enabled)",
            off / 1e6,
            on / 1e6,
            100.0 * (on - off) / off,
        );
    }
    h.finish();
}
