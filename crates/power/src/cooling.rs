//! Cooling-system power (paper eq. 7).
//!
//! The paper assumes an outside-air-economizer cooling strategy with a
//! *cooling efficiency* `coe`, defined as the heat removed by the cooling
//! system relative to the power the cooling system itself consumes. Since
//! in steady state the heat to remove equals the IT power (servers +
//! networking), the cooling power is `p_cooling = p_IT / coe`; colder
//! outside air yields a higher `coe` and lower cooling power.
//!
//! The paper's printed equation reads as a *product* (`coe · p_IT`), which
//! contradicts the stated semantics ("a lower temperature … means a higher
//! value of coe and more efficient cooling"); we implement the division
//! form by default and keep the product form available for ablation
//! (see DESIGN.md).

/// Which algebraic form to use for the cooling power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoolingForm {
    /// `p_cooling = p_IT / coe` — efficiency semantics (default).
    #[default]
    Efficiency,
    /// `p_cooling = coe · p_IT` — the paper's printed product form, where
    /// `coe` acts as an overhead factor.
    Overhead,
}

/// Cooling model for one data center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingModel {
    /// Cooling efficiency `coe` (heat removed per watt of cooling power).
    pub coe: f64,
    pub form: CoolingForm,
}

impl CoolingModel {
    /// Creates an efficiency-form model; panics on non-positive `coe`.
    pub fn new(coe: f64) -> Self {
        assert!(coe > 0.0, "cooling efficiency must be positive");
        Self {
            coe,
            form: CoolingForm::Efficiency,
        }
    }

    /// Creates a model with an explicit form.
    pub fn with_form(coe: f64, form: CoolingForm) -> Self {
        assert!(coe > 0.0, "cooling efficiency must be positive");
        Self { coe, form }
    }

    /// Cooling power (W) required to remove the heat produced by `it_power_w`
    /// of IT equipment.
    pub(crate) fn cooling_power_w(&self, it_power_w: f64) -> f64 {
        assert!(it_power_w >= 0.0, "IT power must be non-negative");
        match self.form {
            CoolingForm::Efficiency => it_power_w / self.coe,
            CoolingForm::Overhead => it_power_w * self.coe,
        }
    }

    /// The multiplier `total / IT` implied by this model
    /// (`1 + 1/coe` or `1 + coe`): a PUE-like figure restricted to cooling.
    pub fn overhead_factor(&self) -> f64 {
        match self.form {
            CoolingForm::Efficiency => 1.0 + 1.0 / self.coe,
            CoolingForm::Overhead => 1.0 + self.coe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_form_divides() {
        let c = CoolingModel::new(1.94);
        assert!((c.cooling_power_w(1940.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_form_multiplies() {
        let c = CoolingModel::with_form(0.5, CoolingForm::Overhead);
        assert_eq!(c.cooling_power_w(1000.0), 500.0);
    }

    #[test]
    fn higher_coe_means_less_cooling_power() {
        let cold_site = CoolingModel::new(1.94);
        let warm_site = CoolingModel::new(1.39);
        assert!(cold_site.cooling_power_w(1e6) < warm_site.cooling_power_w(1e6));
    }

    #[test]
    fn overhead_factor_consistency() {
        let c = CoolingModel::new(2.0);
        let it = 1000.0;
        let total = it + c.cooling_power_w(it);
        assert!((total / it - c.overhead_factor()).abs() < 1e-12);
    }

    #[test]
    fn zero_it_power_needs_no_cooling() {
        assert_eq!(CoolingModel::new(1.5).cooling_power_w(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_coe_rejected() {
        CoolingModel::new(0.0);
    }
}
