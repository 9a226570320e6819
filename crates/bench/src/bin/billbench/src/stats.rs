//! Order statistics shared by every workload.

/// `values` sorted ascending. Failed operations enter as `f64::INFINITY`,
/// so they sort last and miss every latency limit.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile `q` of an ascending slice: the smallest value
/// with at least `q` of the samples at or below it. NaN when empty.
pub fn rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let r = (q * sorted.len() as f64).ceil() as usize;
    sorted[r.clamp(1, sorted.len()) - 1]
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (its default
/// "exclusive" method) does, so the spread `--repeat` prints is the
/// spread a harness computing it that way sees.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let d = sorted(values);
    let ld = d.len() as i64;
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (d[(j - 1) as usize], d[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// Median of `values` (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Arithmetic mean of `values`; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    let mut total = 0.0;
    for v in values {
        total += v;
    }
    total / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_sort_last_and_dominate_the_tail() {
        // 98 answered requests at 1..=98 ms and two failures: the p99
        // of 100 samples is the 99th value, a failure, so it is +inf.
        let mut v: Vec<f64> = (1..=98).map(f64::from).collect();
        v.push(f64::INFINITY);
        v.insert(10, f64::INFINITY);
        let s = sorted(&v);
        assert_eq!(rank(&s, 0.5), 50.0);
        assert_eq!(rank(&s, 0.98), 98.0);
        assert_eq!(rank(&s, 0.99), f64::INFINITY);
        // One failure in 100 stays beyond the p99.
        let mut one: Vec<f64> = (1..=99).map(f64::from).collect();
        one.push(f64::INFINITY);
        assert_eq!(rank(&sorted(&one), 0.99), 99.0);
        assert_eq!(rank(&sorted(&one), 1.0), f64::INFINITY);
    }

    #[test]
    fn mean_edges() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[0.5]), 0.5);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn rank_edges() {
        assert!(rank(&[], 0.5).is_nan());
        assert_eq!(rank(&[7.0], 0.99), 7.0);
        assert_eq!(rank(&[1.0, 2.0], 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
