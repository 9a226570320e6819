//! Time-varying per-site power caps (`Ps_i(t)`).
//!
//! The paper treats each site's power cap as a constant, but real caps
//! move with the hour: cooling capacity falls on hot afternoons, feeder
//! headroom shrinks when the neighborhood peaks, and operators derate
//! proactively (the Climatik-style dynamic power-cap loop). A
//! [`CapSchedule`] is an hourly series of per-site caps that the sim
//! threads through the capper's step-1/step-2 models, the
//! [`PlanAuditor`](crate::PlanAuditor), and the S-lints by *mutating the
//! working copy of the spec* each hour — `DataCenterSpec::power_cap_mw`
//! is the single source every downstream consumer (deliverable
//! capacity, level pruning, `cap_i` row RHS, audit) derives from, so one
//! assignment per site per hour re-caps the entire pipeline.
//!
//! Schedules shorter than a run extend cyclically (a 168-hour weekly
//! schedule covers a 720-hour month), mirroring the budgeter's
//! hour-of-week convention.

use crate::spec::DataCenterSystem;
use billcap_rt::{Rng, Xoshiro256pp};

/// An hourly series of per-site power caps, in MW.
///
/// Invariants (enforced by [`CapSchedule::new`]): at least one hour,
/// every hour lists the same number of sites, every cap is finite and
/// positive. Whether the caps are *sufficient* (above each site's idle
/// draw) is checked when an hour is decided under them: a cap below a
/// site's base power is [`CoreError::InvalidInput`](crate::CoreError).
#[derive(Debug, Clone, PartialEq)]
pub struct CapSchedule {
    /// `hours[t][i]` = the cap for site `i` during hour `t`.
    hours: Vec<Vec<f64>>,
}

impl CapSchedule {
    /// Builds a schedule from an hour-major cap matrix.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is empty, ragged, or contains a
    /// non-finite or non-positive cap — a malformed schedule is a
    /// construction bug, not a runtime condition.
    pub fn new(hours: Vec<Vec<f64>>) -> Self {
        assert!(!hours.is_empty(), "a cap schedule needs at least one hour");
        let sites = hours[0].len();
        assert!(sites > 0, "a cap schedule needs at least one site");
        for (t, row) in hours.iter().enumerate() {
            assert_eq!(
                row.len(),
                sites,
                "hour {t} lists {} sites, hour 0 lists {sites}",
                row.len()
            );
            for (i, &cap) in row.iter().enumerate() {
                assert!(
                    cap.is_finite() && cap > 0.0,
                    "cap for site {i} at hour {t} is {cap}; caps must be finite and positive"
                );
            }
        }
        Self { hours }
    }

    /// A deterministic cooling-derate scenario generator.
    ///
    /// Starting from `base_caps`, each site's cap is derated by up to
    /// `depth` (a fraction in `[0, 1)`) on a diurnal profile peaking
    /// mid-afternoon (hour 15), with a per-site phase offset and a
    /// small seeded day-to-day severity jitter — the shape of a
    /// cooling-limited cap: full headroom at night, tightest in the
    /// afternoon heat. The same `(base_caps, hours, depth, seed)`
    /// reproduce the same schedule bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `[0, 1)` or `hours` is zero.
    pub fn derating(base_caps: &[f64], hours: usize, depth: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&depth),
            "derate depth {depth} outside [0, 1)"
        );
        assert!(hours > 0, "a cap schedule needs at least one hour");
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xcab5_c4ed);
        // Per-site phase offset (hours) and severity multiplier.
        let phases: Vec<f64> = base_caps
            .iter()
            .map(|_| rng.random_f64_in(-2.0, 2.0))
            .collect();
        let severity: Vec<f64> = base_caps
            .iter()
            .map(|_| rng.random_f64_in(0.7, 1.0))
            .collect();
        let mut rows = Vec::with_capacity(hours);
        for t in 0..hours {
            // One daily severity draw per hour-row keeps the stream
            // consumption independent of the site count ordering.
            let daily = rng.random_f64_in(0.85, 1.0);
            let row = base_caps
                .iter()
                .enumerate()
                .map(|(i, &cap)| {
                    let hour_of_day = t % 24;
                    let x =
                        (hour_of_day as f64 - 15.0 - phases[i]) * (std::f64::consts::TAU / 24.0);
                    // Heat factor in [0, 1]: 1 at the (phase-shifted)
                    // afternoon peak, 0 twelve hours away.
                    let heat = 0.5 * (1.0 + x.cos());
                    cap * (1.0 - depth * severity[i] * daily * heat)
                })
                .collect();
            rows.push(row);
        }
        Self::new(rows)
    }

    /// Number of sites per hour.
    pub fn sites(&self) -> usize {
        self.hours[0].len()
    }

    /// Schedule length before cyclic extension.
    pub fn horizon(&self) -> usize {
        self.hours.len()
    }

    /// The per-site caps for hour `t` (cyclic beyond the horizon).
    pub fn caps_at(&self, t: usize) -> &[f64] {
        &self.hours[t % self.hours.len()]
    }

    /// Applies hour `t`'s caps to a working copy of the system.
    ///
    /// # Panics
    ///
    /// Panics when the site counts disagree (a schedule for the wrong
    /// system).
    pub fn apply(&self, system: &mut DataCenterSystem, t: usize) {
        let caps = self.caps_at(t);
        assert_eq!(
            caps.len(),
            system.sites.len(),
            "schedule covers {} sites, system has {}",
            caps.len(),
            system.sites.len()
        );
        for (site, &cap) in system.sites.iter_mut().zip(caps) {
            site.power_cap_mw = cap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_recaps_every_site() {
        let mut sys = DataCenterSystem::paper_system(1);
        let sched = CapSchedule::new(vec![vec![100.0, 50.0, 70.0], vec![90.0, 40.0, 60.0]]);
        sched.apply(&mut sys, 1);
        let caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        assert_eq!(caps, vec![90.0, 40.0, 60.0]);
        // Cyclic extension: hour 2 wraps back to hour 0.
        sched.apply(&mut sys, 2);
        let caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        assert_eq!(caps, vec![100.0, 50.0, 70.0]);
    }

    #[test]
    fn apply_changes_deliverable_capacity() {
        let mut sys = DataCenterSystem::paper_system(1);
        let full = sys.total_capacity();
        let half_caps: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw * 0.5).collect();
        CapSchedule::new(vec![half_caps]).apply(&mut sys, 0);
        assert!(
            sys.total_capacity() < full,
            "halved caps must shrink capacity"
        );
    }

    #[test]
    fn derating_is_deterministic_and_bounded() {
        let base = [120.0, 65.0, 85.0];
        let a = CapSchedule::derating(&base, 48, 0.3, 42);
        let b = CapSchedule::derating(&base, 48, 0.3, 42);
        assert_eq!(a, b);
        for t in 0..48 {
            for (i, &cap) in a.caps_at(t).iter().enumerate() {
                assert!(
                    cap <= base[i] && cap >= base[i] * 0.7,
                    "t={t} i={i} cap={cap}"
                );
            }
        }
        let c = CapSchedule::derating(&base, 48, 0.3, 43);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn derating_bites_hardest_in_the_afternoon() {
        let base = [120.0, 65.0, 85.0];
        let sched = CapSchedule::derating(&base, 24, 0.4, 7);
        let noon_ish: f64 = (13..18).map(|t| sched.caps_at(t)[0]).sum::<f64>() / 5.0;
        let night: f64 = (1..6).map(|t| sched.caps_at(t)[0]).sum::<f64>() / 5.0;
        assert!(
            noon_ish < night,
            "afternoon mean {noon_ish} should sit below night mean {night}"
        );
    }

    #[test]
    #[should_panic(expected = "hour 0 lists")]
    fn ragged_schedule_rejected() {
        CapSchedule::new(vec![vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nan_cap_rejected() {
        CapSchedule::new(vec![vec![1.0, f64::NAN]]);
    }
}
