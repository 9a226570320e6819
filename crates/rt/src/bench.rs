//! Minimal benchmarking harness (the workspace's criterion replacement).
//!
//! Each bench target is a plain binary with `harness = false` that
//! builds a [`Harness`], registers closures with [`Harness::bench`],
//! and calls [`Harness::finish`]. The harness warms each closure up,
//! picks an iteration count targeting a fixed per-sample wall time,
//! collects a batch of samples, and reports min / median / mean — the
//! median being the headline number, since it is robust to scheduler
//! noise on shared machines.
//!
//! Invocation matches `cargo bench` conventions: any non-flag argument
//! is a substring filter on bench names; flags that cargo forwards
//! (`--bench`, `--exact`, …) are ignored. `BILLCAP_BENCH_FAST=1`
//! shrinks warm-up and sample counts so a smoke run stays fast in CI.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Tunable measurement parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Wall time each sample should take; the iteration count per
    /// sample is derived from a calibration pass.
    pub sample_time: Duration,
    /// Samples collected per benchmark.
    pub samples: usize,
    /// Warm-up time before calibration.
    pub warmup: Duration,
}

impl Default for BenchConfig {
    fn default() -> Self {
        // detlint-allow(D004): BILLCAP_BENCH_FAST shortens harness budgets; not decision state
        if std::env::var("BILLCAP_BENCH_FAST")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Self {
                sample_time: Duration::from_millis(10),
                samples: 5,
                warmup: Duration::from_millis(20),
            }
        } else {
            Self {
                sample_time: Duration::from_millis(50),
                samples: 15,
                warmup: Duration::from_millis(200),
            }
        }
    }
}

/// One benchmark's aggregate timing, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub median_ns: f64,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    /// Iterations per sample used for the measurement.
    pub iters_per_sample: u64,
    pub samples: usize,
}

impl BenchResult {
    /// Human formatting: picks ns/µs/ms/s to keep 3-4 significant digits.
    fn fmt_ns(ns: f64) -> String {
        if ns < 1e3 {
            format!("{ns:.1} ns")
        } else if ns < 1e6 {
            format!("{:.2} µs", ns / 1e3)
        } else if ns < 1e9 {
            format!("{:.2} ms", ns / 1e6)
        } else {
            format!("{:.3} s", ns / 1e9)
        }
    }
}

/// Registers and runs benchmarks, printing a table at the end.
pub struct Harness {
    config: BenchConfig,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Builds a harness from `std::env::args`: the first argument that
    /// does not start with `-` is a substring filter on bench names.
    pub fn from_args() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Self {
            config: BenchConfig::default(),
            filter,
            results: Vec::new(),
        }
    }

    /// Harness with explicit measurement parameters (tests use this).
    pub fn with_config(config: BenchConfig) -> Self {
        Self {
            config,
            filter: None,
            results: Vec::new(),
        }
    }

    /// True when `name` passes the command-line filter.
    fn selected(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Measures `f`, printing one progress line. The closure's return
    /// value is passed through [`black_box`] so the computation cannot
    /// be optimized away.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) {
        if !self.selected(name) {
            return;
        }
        // Warm-up: run until the warm-up budget elapses (at least once).
        // detlint-allow(D003): benchmark harness measures wall time by design
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        let mut one_iter_ns = loop {
            // detlint-allow(D003): benchmark harness measures wall time by design
            let t = Instant::now();
            black_box(f());
            let ns = t.elapsed().as_nanos() as f64;
            warm_iters += 1;
            if warm_start.elapsed() >= self.config.warmup || warm_iters >= 1_000_000 {
                break ns.max(1.0);
            }
        };
        // Calibration: average over the whole warm-up when possible.
        if warm_iters > 1 {
            one_iter_ns = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
        }
        let iters = ((self.config.sample_time.as_nanos() as f64 / one_iter_ns).ceil() as u64)
            .clamp(1, 100_000_000);

        let mut per_iter_ns: Vec<f64> = (0..self.config.samples.max(1))
            .map(|_| {
                // detlint-allow(D003): benchmark harness measures wall time by design
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter_ns.sort_by(f64::total_cmp);

        let n = per_iter_ns.len();
        let median_ns = if n % 2 == 1 {
            per_iter_ns[n / 2]
        } else {
            0.5 * (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2])
        };
        let result = BenchResult {
            name: name.to_string(),
            median_ns,
            // detlint-allow(D006): sequential fixed-order mean over timing samples; reporting only
            mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
            min_ns: per_iter_ns[0],
            max_ns: per_iter_ns[n - 1],
            iters_per_sample: iters,
            samples: n,
        };
        println!(
            "bench {:<44} median {:>12}  (min {}, mean {}, {} x {} iters)",
            result.name,
            BenchResult::fmt_ns(result.median_ns),
            BenchResult::fmt_ns(result.min_ns),
            BenchResult::fmt_ns(result.mean_ns),
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    /// Results measured so far (for programmatic consumers / tests).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the summary table and consumes the harness.
    pub fn finish(self) {
        if self.results.is_empty() {
            println!("no benchmarks matched the filter");
            return;
        }
        println!("\n{:<46} {:>14} {:>14}", "benchmark", "median", "min");
        for r in &self.results {
            println!(
                "{:<46} {:>14} {:>14}",
                r.name,
                BenchResult::fmt_ns(r.median_ns),
                BenchResult::fmt_ns(r.min_ns),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BenchConfig {
        BenchConfig {
            sample_time: Duration::from_micros(200),
            samples: 3,
            warmup: Duration::from_micros(100),
        }
    }

    #[test]
    fn measures_something_positive() {
        let mut h = Harness::with_config(fast_config());
        h.bench("sum_1000", || (0..1000u64).sum::<u64>());
        let r = &h.results()[0];
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.max_ns);
        assert_eq!(r.samples, 3);
    }

    #[test]
    fn slower_work_measures_slower() {
        let mut h = Harness::with_config(fast_config());
        h.bench("small", || (0..100u64).product::<u64>());
        h.bench("large", || {
            (0..50_000u64).fold(1u64, |a, b| a.wrapping_mul(b | 1))
        });
        let small = h.results()[0].median_ns;
        let large = h.results()[1].median_ns;
        assert!(large > small, "large {large} vs small {small}");
    }

    #[test]
    fn filter_selects_by_substring() {
        let h = Harness {
            config: fast_config(),
            filter: Some("solver".into()),
            results: Vec::new(),
        };
        assert!(h.selected("solver_scalability/8"));
        assert!(!h.selected("figures/fig3"));
    }
}
