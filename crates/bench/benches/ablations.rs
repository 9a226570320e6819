//! Ablation benches for the design choices DESIGN.md calls out: what
//! step-2 budgets cost, what the power-model blind spot costs, and how
//! budgeter history length behaves. These run the experiment
//! code; the printed summaries record the measured penalties.

use billcap_bench::helpers;
use billcap_core::{CostMinimizer, ThroughputMaximizer};
use billcap_rt::Harness;
use billcap_sim::experiments::{self, DEFAULT_SEED};
use std::hint::black_box;
use std::sync::Once;

fn bench_step2(h: &mut Harness) {
    let system = helpers::paper_system();
    let d = helpers::background();
    let min_cost = CostMinimizer::default()
        .solve(&system, 8e8, &d)
        .unwrap()
        .total_cost;
    let m = ThroughputMaximizer::default();
    for frac in [0.5, 0.8, 0.95] {
        h.bench(&format!("ablation_step2/budget_{frac}"), || {
            m.solve(&system, black_box(8e8), &d, black_box(frac * min_cost))
                .unwrap()
                .total_lambda
        });
    }
}

fn bench_power_model_ablation(h: &mut Harness) {
    static ONCE: Once = Once::new();
    h.bench("ablation_power_model/month_full_vs_server_only", || {
        let a = experiments::ablation_power_model(DEFAULT_SEED).expect("ablation");
        ONCE.call_once(|| println!("\n{}", a.render()));
        black_box(a.penalty())
    });
}

fn bench_budgeter_history(h: &mut Harness) {
    static ONCE: Once = Once::new();
    h.bench("ablation_budgeter/history_lengths", || {
        let a = experiments::ablation_budget_history(DEFAULT_SEED).expect("ablation");
        ONCE.call_once(|| println!("\n{}", a.render()));
        black_box(a.rows.len())
    });
}

fn bench_network_consolidation(h: &mut Harness) {
    static ONCE: Once = Once::new();
    h.bench("ablation_network/consolidation_vs_always_on", || {
        let a = experiments::ablation_network_consolidation(DEFAULT_SEED).expect("ablation");
        ONCE.call_once(|| println!("\n{}", a.render()));
        black_box(a.penalty())
    });
}

fn bench_weather(h: &mut Harness) {
    static ONCE: Once = Once::new();
    h.bench("ablation_weather/aware_vs_blind", || {
        let a = experiments::ablation_weather(DEFAULT_SEED).expect("ablation");
        ONCE.call_once(|| println!("\n{}", a.render()));
        black_box(a.saving())
    });
}

fn bench_hierarchical(h: &mut Harness) {
    static ONCE: Once = Once::new();
    h.bench("ablation_hierarchical/regions_of_three", || {
        let hc = experiments::hierarchical_comparison(1);
        ONCE.call_once(|| println!("\n{}", hc.render()));
        black_box(hc.rows.len())
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_step2(&mut h);
    bench_power_model_ablation(&mut h);
    bench_budgeter_history(&mut h);
    bench_network_consolidation(&mut h);
    bench_weather(&mut h);
    bench_hierarchical(&mut h);
    h.finish();
}
