//! Seeded synthetic request-trace generation.
//!
//! Substitutes for the Wikipedia 2007 trace (see DESIGN.md): a diurnal
//! sinusoid modulated by a day-of-week factor, multiplicative noise, a slow
//! growth trend, and optional flash-crowd events — the "breaking news"
//! surges that motivate bill capping in the paper's introduction.

use crate::trace::HourlyTrace;
use billcap_rt::{Rng, Xoshiro256pp};

/// A flash-crowd event: the arrival rate is multiplied by a factor that
/// jumps at `start_hour` and decays geometrically over `duration_hours`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    pub start_hour: usize,
    /// Peak multiplier (e.g. 2.5 = 150 % extra traffic at onset).
    pub magnitude: f64,
    pub duration_hours: usize,
}

impl FlashCrowd {
    /// Extra traffic multiplier this event contributes at hour `t`
    /// (zero outside the event window).
    fn boost_at(&self, t: usize) -> f64 {
        if t < self.start_hour || t >= self.start_hour + self.duration_hours {
            return 0.0;
        }
        let age = (t - self.start_hour) as f64;
        // Geometric decay reaching ~5 % of peak at the end of the window.
        let decay = 0.05f64.powf(age / self.duration_hours.max(1) as f64);
        (self.magnitude - 1.0) * decay
    }
}

/// Configuration of the synthetic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Mean request rate (requests/hour) before modulation.
    pub mean_rate: f64,
    /// Diurnal swing as a fraction of the mean (0.45 = ±45 %).
    pub diurnal_amplitude: f64,
    /// Hour of day (0–23) at which traffic peaks.
    pub peak_hour: usize,
    /// Multipliers per day of week (Monday first).
    pub day_of_week_factor: [f64; 7],
    /// Standard deviation of multiplicative Gaussian noise.
    pub noise_std: f64,
    /// Linear growth over the whole horizon (0.05 = +5 % end vs start).
    pub growth: f64,
    /// Deterministic flash-crowd events.
    pub flash_crowds: Vec<FlashCrowd>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            mean_rate: 1.0,
            diurnal_amplitude: 0.45,
            peak_hour: 20, // evening peak, as in web traffic
            day_of_week_factor: [1.02, 1.04, 1.05, 1.03, 0.98, 0.86, 0.84],
            noise_std: 0.04,
            growth: 0.04,
            flash_crowds: Vec::new(),
            seed: 0x5eed,
        }
    }
}

impl TraceConfig {
    /// A Wikipedia-like preset: clear weekly pattern, evening peak, mild
    /// growth, and two flash crowds in the evaluated month. `mean_rate`
    /// scales the whole series (requests/hour).
    pub fn wikipedia_like(mean_rate: f64, seed: u64) -> Self {
        Self {
            mean_rate,
            flash_crowds: vec![
                // Mid-November breaking-news surges (hour offsets are within
                // the evaluation month that follows the 31-day history).
                // Magnitudes keep the spike within deliverable capacity so
                // that pure cost minimization (which must serve everything)
                // stays feasible, while still stressing the budget.
                FlashCrowd {
                    start_hour: 31 * 24 + 14 * 24 + 19, // Nov 15, evening
                    magnitude: 1.3,
                    duration_hours: 8,
                },
                FlashCrowd {
                    start_hour: 31 * 24 + 24 * 24 + 12, // Nov 25, midday
                    magnitude: 1.3,
                    duration_hours: 6,
                },
            ],
            seed,
            ..Default::default()
        }
    }
}

/// Deterministic trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator; panics on non-positive mean rate or negative
    /// noise.
    pub fn new(config: TraceConfig) -> Self {
        assert!(config.mean_rate > 0.0, "mean rate must be positive");
        assert!(config.noise_std >= 0.0, "noise std must be non-negative");
        assert!(
            config.diurnal_amplitude >= 0.0 && config.diurnal_amplitude < 1.0,
            "diurnal amplitude must be in [0, 1)"
        );
        assert!(config.peak_hour < 24, "peak hour must be 0..24");
        Self { config }
    }

    /// Generates `hours` hourly request rates. Identical inputs produce
    /// identical traces (seeded xoshiro256++ RNG).
    pub fn generate(&self, hours: usize) -> HourlyTrace {
        let c = &self.config;
        let mut rng = Xoshiro256pp::seed_from_u64(c.seed);
        let mut values = Vec::with_capacity(hours);
        for t in 0..hours {
            let hour_of_day = t % 24;
            let day_of_week = (t / 24) % 7;
            let phase = (hour_of_day as f64 - c.peak_hour as f64) / 24.0 * std::f64::consts::TAU;
            let diurnal = 1.0 + c.diurnal_amplitude * phase.cos();
            let weekly = c.day_of_week_factor[day_of_week];
            let growth = if hours > 1 {
                1.0 + c.growth * t as f64 / (hours - 1) as f64
            } else {
                1.0
            };
            // Box-Muller from two uniform draws; always draw the same count
            // per hour so the series is reproducible regardless of hours.
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random::<f64>();
            let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let noise = (1.0 + c.noise_std * gauss).max(0.05);
            // detlint-allow(D006): sequential fixed-order sum over flash-crowd boosts; bitwise-stable
            let flash: f64 = c.flash_crowds.iter().map(|f| f.boost_at(t)).sum();
            values.push(c.mean_rate * diurnal * weekly * growth * noise * (1.0 + flash));
        }
        HourlyTrace::new(values)
    }

    /// Generates the paper's two-month layout: a 31-day history month
    /// (October) followed by a 30-day evaluation month (November).
    /// Returns `(history, evaluation)`.
    pub fn generate_two_months(&self) -> (HourlyTrace, HourlyTrace) {
        let full = self.generate((31 + 30) * 24);
        let history = full.slice(0, 31 * 24);
        let eval = full.slice(31 * 24, 30 * 24);
        (history, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::HOURS_PER_WEEK;

    #[test]
    fn deterministic_for_same_seed() {
        let g = TraceGenerator::new(TraceConfig::wikipedia_like(1e8, 7));
        assert_eq!(g.generate(200), g.generate(200));
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(TraceConfig::wikipedia_like(1e8, 1)).generate(100);
        let b = TraceGenerator::new(TraceConfig::wikipedia_like(1e8, 2)).generate(100);
        assert_ne!(a, b);
    }

    #[test]
    fn values_positive_and_near_mean() {
        let g = TraceGenerator::new(TraceConfig {
            mean_rate: 1e6,
            ..Default::default()
        });
        let t = g.generate(30 * 24);
        assert!(t.values().iter().all(|&v| v > 0.0));
        let mean = t.mean();
        assert!(
            (mean / 1e6 - 1.0).abs() < 0.15,
            "mean {mean} strays too far from the configured 1e6"
        );
    }

    #[test]
    fn weekly_pattern_is_visible() {
        // Weekend traffic should be clearly below weekday traffic.
        let g = TraceGenerator::new(TraceConfig {
            mean_rate: 1e6,
            noise_std: 0.0,
            ..Default::default()
        });
        let t = g.generate(HOURS_PER_WEEK * 4);
        let profile = t.hour_of_week_profile();
        let weekday_mean: f64 = profile[0..120].iter().sum::<f64>() / 120.0;
        let weekend_mean: f64 = profile[120..].iter().sum::<f64>() / 48.0;
        assert!(
            weekend_mean < 0.95 * weekday_mean,
            "weekend {weekend_mean} vs weekday {weekday_mean}"
        );
    }

    #[test]
    fn diurnal_peak_lands_at_configured_hour() {
        let g = TraceGenerator::new(TraceConfig {
            mean_rate: 1.0,
            noise_std: 0.0,
            growth: 0.0,
            day_of_week_factor: [1.0; 7],
            peak_hour: 20,
            ..Default::default()
        });
        let t = g.generate(24);
        let (argmax, _) = t
            .values()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(argmax, 20);
    }

    #[test]
    fn flash_crowd_spikes_traffic() {
        let mut config = TraceConfig {
            mean_rate: 1.0,
            noise_std: 0.0,
            growth: 0.0,
            diurnal_amplitude: 0.0,
            day_of_week_factor: [1.0; 7],
            ..Default::default()
        };
        config.flash_crowds = vec![FlashCrowd {
            start_hour: 50,
            magnitude: 3.0,
            duration_hours: 5,
        }];
        let t = TraceGenerator::new(config).generate(100);
        assert!((t.at(49) - 1.0).abs() < 1e-9);
        assert!((t.at(50) - 3.0).abs() < 1e-9, "onset {}", t.at(50));
        assert!(t.at(51) > 1.0 && t.at(51) < 3.0);
        assert!((t.at(55) - 1.0).abs() < 1e-9, "after event {}", t.at(55));
    }

    #[test]
    fn flash_boost_outside_window_is_zero() {
        let f = FlashCrowd {
            start_hour: 10,
            magnitude: 2.0,
            duration_hours: 4,
        };
        assert_eq!(f.boost_at(9), 0.0);
        assert_eq!(f.boost_at(14), 0.0);
        assert!(f.boost_at(10) > 0.9);
    }

    #[test]
    fn two_month_layout() {
        let g = TraceGenerator::new(TraceConfig::wikipedia_like(5e7, 3));
        let (hist, eval) = g.generate_two_months();
        assert_eq!(hist.len(), 31 * 24);
        assert_eq!(eval.len(), 30 * 24);
    }

    #[test]
    fn growth_raises_late_traffic() {
        let g = TraceGenerator::new(TraceConfig {
            mean_rate: 1.0,
            noise_std: 0.0,
            diurnal_amplitude: 0.0,
            day_of_week_factor: [1.0; 7],
            growth: 0.10,
            ..Default::default()
        });
        let t = g.generate(1000);
        assert!(t.at(999) > t.at(0) * 1.09);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_mean_rejected() {
        TraceGenerator::new(TraceConfig {
            mean_rate: 0.0,
            ..Default::default()
        });
    }
}
