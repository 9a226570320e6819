//! Premium / ordinary customer split.
//!
//! The paper's experiments assume 80 % of each hour's requests come from
//! premium (paying) customers and 20 % from ordinary (complimentary)
//! customers, and note the proportion is orthogonal to the algorithm.

/// Fractional split of incoming traffic into premium and ordinary classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CustomerSplit {
    premium_fraction: f64,
}

impl CustomerSplit {
    /// Creates a split; `premium_fraction` must lie in `[0, 1]`.
    pub fn new(premium_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&premium_fraction),
            "premium fraction must be in [0, 1]"
        );
        Self { premium_fraction }
    }

    /// The paper's 80/20 split.
    pub fn paper_default() -> Self {
        Self::new(0.8)
    }

    /// Premium share of an hourly arrival rate.
    pub fn premium(&self, lambda: f64) -> f64 {
        lambda * self.premium_fraction
    }

    /// Ordinary share of an hourly arrival rate.
    pub fn ordinary(&self, lambda: f64) -> f64 {
        lambda * (1.0 - self.premium_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_total() {
        let s = CustomerSplit::paper_default();
        let lambda = 12345.0;
        assert!((s.premium(lambda) + s.ordinary(lambda) - lambda).abs() < 1e-9);
        assert_eq!(s.premium_fraction, 0.8);
    }

    #[test]
    fn extreme_splits() {
        assert_eq!(CustomerSplit::new(0.0).premium(100.0), 0.0);
        assert_eq!(CustomerSplit::new(1.0).ordinary(100.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn out_of_range_rejected() {
        CustomerSplit::new(1.2);
    }
}
