//! Seeded-violation fixture: the decision crate. `Engine::decide` is
//! the fixture's determinism root; every taint it reaches must fire.
#![forbid(unsafe_code)]
use std::collections::HashMap;

/// Decision engine with a hash-ordered weight table.
pub struct Engine {
    weights: HashMap<String, f64>,
}

impl Engine {
    /// The fixture's determinism root.
    pub fn decide(&self) -> f64 {
        let mut total = 0.0;
        for v in self.weights.values() {
            total += v;
        }
        let xs = vec![1.0_f64, 2.0, 3.0];
        let raw: f64 = xs.iter().sum();
        let tuned = xs.iter().sum::<f64>(); // detlint-allow(D006)
        // detlint-allow(D006): compensated by the caller's residual pass
        let blessed = xs.iter().sum::<f64>();
        total + raw + tuned + blessed + beta::stamp() + beta::seeded_hash(7)
    }
}

// detlint-allow(D001): left behind by an old refactor
/// No hash iteration happens here any more.
pub fn renamed_helper() -> u64 {
    42
}
