//! Squared-coefficient-of-variation estimation, the oracle the
//! simulator's tests check its sampled distributions with.

/// Estimates the squared coefficient of variation `Var(X)/E[X]²` of a
/// sample. Uses the unbiased (n−1) variance estimator.
///
/// Returns `None` for samples with fewer than two points or a zero mean
/// (the SCV is undefined there).
pub(crate) fn squared_coefficient_of_variation(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return None;
    }
    let var = samples
        .iter()
        .map(|x| {
            let d = x - mean;
            d * d
        })
        .sum::<f64>()
        / (n - 1.0);
    Some(var / (mean * mean))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_sample_has_zero_scv() {
        let s = vec![3.0; 10];
        assert_eq!(squared_coefficient_of_variation(&s), Some(0.0));
    }

    #[test]
    fn known_small_sample() {
        // Sample {1, 3}: mean 2, var (unbiased) 2, SCV = 2/4 = 0.5.
        let scv = squared_coefficient_of_variation(&[1.0, 3.0]).unwrap();
        assert!((scv - 0.5).abs() < 1e-12);
    }

    #[test]
    fn too_small_or_zero_mean_is_none() {
        assert_eq!(squared_coefficient_of_variation(&[1.0]), None);
        assert_eq!(squared_coefficient_of_variation(&[]), None);
        assert_eq!(squared_coefficient_of_variation(&[-1.0, 1.0]), None);
    }

    #[test]
    fn exponential_like_sample_has_scv_near_one() {
        // Deterministic stand-in for Exp(1) via inverse-CDF at quantile
        // midpoints; its SCV is close to 1 (the M in M/M/m).
        let n = 10_000;
        let sample: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                -(1.0 - u).ln()
            })
            .collect();
        let scv = squared_coefficient_of_variation(&sample).unwrap();
        assert!((scv - 1.0).abs() < 0.05, "scv {scv}");
    }
}
