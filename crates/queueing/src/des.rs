//! Discrete-event simulation of a FCFS multi-server queue.
//!
//! The paper's entire performance model rests on the (simplified)
//! Allen–Cunneen approximation; this module provides the ground truth it
//! approximates: an exact event-driven simulation of a G/G/m queue with
//! first-come-first-served dispatch to the earliest-available server.
//! The validation tests compare simulated mean response times against the
//! analytic M/M/m formulas and check that the paper's conservative server
//! sizing actually meets its response-time targets.

use billcap_rt::{Rng, Xoshiro256pp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A non-negative inter-arrival / service time distribution, chosen by
/// mean and squared coefficient of variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Point mass at `value` (SCV 0).
    Deterministic {
        /// The constant time.
        value: f64,
    },
    /// Exponential with the given mean (SCV 1).
    Exponential {
        /// Mean time.
        mean: f64,
    },
    /// Erlang-k: sum of `k` exponentials (SCV `1/k`).
    Erlang {
        /// Number of exponential phases.
        k: u32,
        /// Mean of the whole sum.
        mean: f64,
    },
    /// Two-phase balanced-means hyperexponential (SCV > 1).
    HyperExp {
        /// Probability of drawing from phase 1.
        p: f64,
        /// Mean of phase 1.
        mean1: f64,
        /// Mean of phase 2.
        mean2: f64,
    },
}

impl Distribution {
    /// Builds a distribution matching a mean and SCV:
    /// SCV 0 → deterministic, SCV < 1 → Erlang (nearest `1/k`),
    /// SCV 1 → exponential, SCV > 1 → balanced H₂.
    fn from_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        assert!(scv >= 0.0, "SCV must be non-negative");
        if scv == 0.0 {
            Distribution::Deterministic { value: mean }
        } else if (scv - 1.0).abs() < 1e-9 {
            Distribution::Exponential { mean }
        } else if scv < 1.0 {
            let k = (1.0 / scv).round().max(1.0) as u32;
            Distribution::Erlang { k, mean }
        } else {
            // Balanced-means H2 (Whitt): p chosen to hit the SCV.
            let p = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
            Distribution::HyperExp {
                p,
                mean1: mean / (2.0 * p),
                mean2: mean / (2.0 * (1.0 - p)),
            }
        }
    }

    /// The distribution's mean.
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Deterministic { value } => value,
            Distribution::Exponential { mean } => mean,
            Distribution::Erlang { mean, .. } => mean,
            Distribution::HyperExp { p, mean1, mean2 } => p * mean1 + (1.0 - p) * mean2,
        }
    }

    /// Draws a sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            Distribution::Deterministic { value } => value,
            Distribution::Exponential { mean } => exp_sample(rng, mean),
            Distribution::Erlang { k, mean } => {
                let phase_mean = mean / k as f64;
                (0..k).map(|_| exp_sample(rng, phase_mean)).sum()
            }
            Distribution::HyperExp { p, mean1, mean2 } => {
                if rng.random::<f64>() < p {
                    exp_sample(rng, mean1)
                } else {
                    exp_sample(rng, mean2)
                }
            }
        }
    }
}

fn exp_sample<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.random::<f64>().max(1e-15);
    -mean * u.ln()
}

/// Aggregate statistics from a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Mean response (sojourn) time.
    pub mean_response: f64,
    /// Mean queueing delay (response minus service).
    pub mean_wait: f64,
    /// Fraction of requests that waited at all.
    pub wait_probability: f64,
    /// Requests simulated (after warm-up).
    pub completed: u64,
    /// Response-time percentiles, sampled exactly: `(0.50, 0.95, 0.99)`.
    pub response_percentiles: (f64, f64, f64),
}

impl SimStats {
    /// Median response time.
    pub fn p50(&self) -> f64 {
        self.response_percentiles.0
    }

    /// 95th-percentile response time.
    pub fn p95(&self) -> f64 {
        self.response_percentiles.1
    }

    /// 99th-percentile response time.
    pub fn p99(&self) -> f64 {
        self.response_percentiles.2
    }
}

/// FCFS G/G/m queue simulator.
#[derive(Debug, Clone)]
pub struct QueueSim {
    /// Number of identical servers.
    pub servers: u64,
    /// Inter-arrival time distribution.
    pub interarrival: Distribution,
    /// Service time distribution.
    pub service: Distribution,
    /// Requests discarded as warm-up before statistics collection.
    pub warmup: u64,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
}

impl QueueSim {
    /// Convenience constructor for an M/M/m system.
    #[cfg(test)]
    fn mmm(servers: u64, lambda: f64, mu: f64, seed: u64) -> Self {
        assert!(lambda > 0.0 && mu > 0.0);
        Self {
            servers,
            interarrival: Distribution::Exponential { mean: 1.0 / lambda },
            service: Distribution::Exponential { mean: 1.0 / mu },
            warmup: 10_000,
            seed,
        }
    }

    /// A G/G/m system specified the way the paper's model is: arrival
    /// rate, service rate, and the two SCVs.
    pub fn ggm(servers: u64, lambda: f64, mu: f64, scv_a: f64, scv_b: f64, seed: u64) -> Self {
        Self {
            servers,
            interarrival: Distribution::from_mean_scv(1.0 / lambda, scv_a),
            service: Distribution::from_mean_scv(1.0 / mu, scv_b),
            warmup: 10_000,
            seed,
        }
    }

    /// Runs the simulation for `requests` completed requests (after the
    /// warm-up period) and returns aggregate statistics.
    ///
    /// FCFS to the earliest-free server is simulated with a min-heap of
    /// server-free times, which is exact for this discipline and runs in
    /// `O(n log m)`.
    pub fn run(&self, requests: u64) -> SimStats {
        assert!(self.servers > 0, "need at least one server");
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed);
        // Min-heap of times at which servers become free.
        let mut free_at: BinaryHeap<Reverse<OrderedF64>> = (0..self.servers)
            .map(|_| Reverse(OrderedF64(0.0)))
            .collect();
        let mut clock = 0.0f64;
        let mut total_response = 0.0;
        let mut total_wait = 0.0;
        let mut waited = 0u64;
        let mut completed = 0u64;
        let mut responses: Vec<f64> = Vec::with_capacity(requests as usize);
        let total = requests + self.warmup;
        for i in 0..total {
            clock += self.interarrival.sample(&mut rng);
            let service = self.service.sample(&mut rng);
            // detlint-allow(L001): the heap always holds exactly `servers` entries
            let Reverse(OrderedF64(earliest)) = free_at.pop().expect("non-empty heap");
            let start = earliest.max(clock);
            let finish = start + service;
            free_at.push(Reverse(OrderedF64(finish)));
            if i >= self.warmup {
                let wait = start - clock;
                let response = finish - clock;
                total_response += response;
                total_wait += wait;
                responses.push(response);
                if wait > 1e-12 {
                    waited += 1;
                }
                completed += 1;
            }
        }
        responses.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            if responses.is_empty() {
                return 0.0;
            }
            let idx = ((responses.len() as f64 * q).ceil() as usize).clamp(1, responses.len()) - 1;
            responses[idx]
        };
        SimStats {
            mean_response: total_response / completed as f64,
            mean_wait: total_wait / completed as f64,
            wait_probability: waited as f64 / completed as f64,
            completed,
            response_percentiles: (pct(0.50), pct(0.95), pct(0.99)),
        }
    }
}

/// Total-order wrapper for the event heap (times are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ggm::GgmModel;
    use crate::mmm::mmm_mean_response_time;

    const N: u64 = 200_000;

    #[test]
    fn distribution_means_match() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for scv in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0] {
            let d = Distribution::from_mean_scv(3.0, scv);
            assert!(
                (d.mean() - 3.0).abs() < 1e-9,
                "scv {scv}: mean {}",
                d.mean()
            );
            let sample_mean: f64 =
                (0..100_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 100_000.0;
            assert!(
                (sample_mean - 3.0).abs() / 3.0 < 0.03,
                "scv {scv}: sample mean {sample_mean}"
            );
        }
    }

    #[test]
    fn sampled_scv_matches_request() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for scv in [0.25, 1.0, 3.0] {
            let d = Distribution::from_mean_scv(1.0, scv);
            let samples: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
            let est = crate::scv::squared_coefficient_of_variation(&samples).unwrap();
            assert!(
                (est - scv).abs() / scv.max(0.5) < 0.1,
                "scv {scv}: estimated {est}"
            );
        }
    }

    #[test]
    fn mm1_matches_closed_form() {
        // M/M/1 at rho = 0.7: R = 1/(mu - lambda).
        let sim = QueueSim::mmm(1, 0.7, 1.0, 42).run(N);
        let expect = 1.0 / (1.0 - 0.7);
        let rel = (sim.mean_response - expect).abs() / expect;
        assert!(rel < 0.03, "sim {} vs {expect}", sim.mean_response);
    }

    #[test]
    fn mmm_matches_erlang_c_formula() {
        // M/M/10 at rho = 0.8.
        let (m, mu) = (10u64, 1.0);
        let lambda = 8.0;
        let sim = QueueSim::mmm(m, lambda, mu, 7).run(N);
        let expect = mmm_mean_response_time(m, lambda, mu).unwrap();
        let rel = (sim.mean_response - expect).abs() / expect;
        assert!(rel < 0.03, "sim {} vs analytic {expect}", sim.mean_response);
    }

    #[test]
    fn deterministic_service_halves_the_wait() {
        // M/D/1: Wq is half of M/M/1's (PK formula).
        let lambda = 0.8;
        let mm1 = QueueSim::mmm(1, lambda, 1.0, 5).run(N);
        let md1 = QueueSim {
            service: Distribution::Deterministic { value: 1.0 },
            ..QueueSim::mmm(1, lambda, 1.0, 5)
        }
        .run(N);
        let ratio = md1.mean_wait / mm1.mean_wait;
        assert!((ratio - 0.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn bursty_arrivals_increase_delay() {
        let smooth = QueueSim::ggm(4, 3.0, 1.0, 0.25, 1.0, 11).run(N);
        let bursty = QueueSim::ggm(4, 3.0, 1.0, 4.0, 1.0, 11).run(N);
        assert!(
            bursty.mean_wait > 1.5 * smooth.mean_wait,
            "bursty {} vs smooth {}",
            bursty.mean_wait,
            smooth.mean_wait
        );
    }

    #[test]
    fn allen_cunneen_full_form_tracks_simulation() {
        // The proper Allen-Cunneen approximation (with Erlang-C) should be
        // within ~15% of simulated G/G/m at moderate-to-high utilization.
        let model = GgmModel::new(1.0, 2.0, 0.5);
        for (m, lambda) in [(5u64, 4.0f64), (10, 8.5), (20, 18.0)] {
            let sim = QueueSim::ggm(m, lambda, 1.0, 2.0, 0.5, 13).run(N);
            let approx = model.response_time_full(m, lambda).unwrap();
            let rel = (approx - sim.mean_response).abs() / sim.mean_response;
            assert!(
                rel < 0.15,
                "m={m} lambda={lambda}: approx {approx} vs sim {} (rel {rel})",
                sim.mean_response
            );
        }
    }

    #[test]
    fn paper_sizing_meets_target_empirically() {
        // The paper's simplified sizing (rho ~ 1 bound) is conservative:
        // the server count it picks must meet the response-time target in
        // the exact simulation.
        let model = GgmModel::new(1.0, 1.0, 1.0);
        let target = 1.5; // 1.5x the bare service time
        for lambda in [3.0, 17.0, 49.0] {
            let n = model.min_servers(lambda, target).unwrap();
            let sim = QueueSim::ggm(n, lambda, 1.0, 1.0, 1.0, 17).run(N);
            assert!(
                sim.mean_response <= target * 1.02,
                "lambda {lambda}: n={n} gives simulated R {} > target {target}",
                sim.mean_response
            );
        }
    }

    #[test]
    fn wait_probability_sane() {
        let light = QueueSim::mmm(10, 2.0, 1.0, 3).run(N);
        let heavy = QueueSim::mmm(10, 9.5, 1.0, 3).run(N);
        assert!(light.wait_probability < 0.05, "{}", light.wait_probability);
        assert!(heavy.wait_probability > 0.6, "{}", heavy.wait_probability);
    }

    #[test]
    fn deterministic_seeds_reproduce() {
        let a = QueueSim::mmm(4, 3.0, 1.0, 99).run(50_000);
        let b = QueueSim::mmm(4, 3.0, 1.0, 99).run(50_000);
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_are_ordered_and_bracket_the_mean() {
        let s = QueueSim::mmm(4, 3.2, 1.0, 21).run(N);
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        // For right-skewed response distributions the median sits below
        // the mean and the p99 above it.
        assert!(s.p50() < s.mean_response);
        assert!(s.p99() > s.mean_response);
    }

    #[test]
    fn mm1_p99_matches_exponential_sojourn() {
        // M/M/1 sojourn time is Exp(mu - lambda): p99 = ln(100)/(mu-lambda).
        let (lambda, mu) = (0.6, 1.0);
        let s = QueueSim::mmm(1, lambda, mu, 23).run(N);
        let expect = (100.0f64).ln() / (mu - lambda);
        let rel = (s.p99() - expect).abs() / expect;
        assert!(rel < 0.05, "p99 {} vs {expect}", s.p99());
    }
}
