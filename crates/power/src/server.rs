//! Per-server power model.

/// Linear utilization-to-power model of a single server:
/// `sp(u) = idle + (peak − idle) · u` (paper Section IV-B).
///
/// The paper's experiments quote a single per-server wattage per data
/// center (88.88 / 34.0 / 49.9 W) because the local optimizer packs active
/// servers to a fixed operating utilization; [`ServerModel::at_operating_point`]
/// constructs that degenerate-but-common case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerModel {
    /// Power at zero utilization (W).
    pub idle_w: f64,
    /// Power at 100 % utilization (W).
    pub peak_w: f64,
}

impl ServerModel {
    /// Creates a model; panics if `idle_w > peak_w` or either is negative.
    pub fn new(idle_w: f64, peak_w: f64) -> Self {
        assert!(
            idle_w >= 0.0 && peak_w >= 0.0,
            "powers must be non-negative"
        );
        assert!(idle_w <= peak_w, "idle power cannot exceed peak power");
        Self { idle_w, peak_w }
    }

    /// A model that draws exactly `watts` at the packed operating point —
    /// what the paper's per-server constants describe. Idle is set to the
    /// commonly measured ~60 % of peak so the utilization curve is still
    /// meaningful for ablations.
    pub fn at_operating_point(watts: f64, operating_utilization: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&operating_utilization) && operating_utilization > 0.0,
            "utilization must be in (0, 1]"
        );
        // Solve idle + (peak - idle) * u = watts with idle = 0.6 * peak.
        let peak = watts / (0.6 + 0.4 * operating_utilization);
        Self::new(0.6 * peak, peak)
    }

    /// Power draw at a given utilization in `[0, 1]`.
    pub(crate) fn power_at(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_w + (self.peak_w - self.idle_w) * u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        let s = ServerModel::new(60.0, 100.0);
        assert_eq!(s.power_at(0.0), 60.0);
        assert_eq!(s.power_at(1.0), 100.0);
        assert_eq!(s.power_at(0.5), 80.0);
    }

    #[test]
    fn utilization_is_clamped() {
        let s = ServerModel::new(60.0, 100.0);
        assert_eq!(s.power_at(-1.0), 60.0);
        assert_eq!(s.power_at(2.0), 100.0);
    }

    #[test]
    fn operating_point_constructor_hits_target() {
        for u in [0.5, 0.8, 1.0] {
            let s = ServerModel::at_operating_point(88.88, u);
            assert!((s.power_at(u) - 88.88).abs() < 1e-9, "u={u}");
            assert!((s.idle_w - 0.6 * s.peak_w).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "idle power cannot exceed")]
    fn inverted_powers_rejected() {
        ServerModel::new(100.0, 50.0);
    }
}
