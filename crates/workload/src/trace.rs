//! Hourly time series.

/// Hours in a week.
pub const HOURS_PER_WEEK: usize = 168;

/// An hourly time series (request rates, megawatts, dollars — unit is the
/// caller's). Hour `0` of the trace is taken to be 00:00 on a Monday so
/// hour-of-week arithmetic is well defined.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HourlyTrace {
    values: Vec<f64>,
}

impl HourlyTrace {
    /// Wraps a value vector.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "trace values must be finite"
        );
        Self { values }
    }

    /// Number of hours.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at hour `t` (panics out of range).
    pub fn at(&self, t: usize) -> f64 {
        self.values[t]
    }

    /// The raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Hour-of-week (0 = Monday 00:00) of hour `t`.
    fn hour_of_week(t: usize) -> usize {
        t % HOURS_PER_WEEK
    }

    /// Sum of all values.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Maximum value (0 for an empty trace).
    pub fn peak(&self) -> f64 {
        self.values.iter().cloned().fold(0.0, f64::max)
    }

    /// Arithmetic mean (0 for an empty trace).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.total() / self.values.len() as f64
        }
    }

    /// Sub-trace covering `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> HourlyTrace {
        HourlyTrace::new(self.values[start..start + len].to_vec())
    }

    /// Per-hour-of-week averages over all complete and partial weeks: the
    /// budgeter's learned weekly shape. Entry `h` is the mean of all
    /// samples falling on hour-of-week `h`.
    pub(crate) fn hour_of_week_profile(&self) -> [f64; HOURS_PER_WEEK] {
        let mut sums = [0.0; HOURS_PER_WEEK];
        let mut counts = [0usize; HOURS_PER_WEEK];
        for (t, &v) in self.values.iter().enumerate() {
            let h = Self::hour_of_week(t);
            sums[h] += v;
            counts[h] += 1;
        }
        let mut out = [0.0; HOURS_PER_WEEK];
        for h in 0..HOURS_PER_WEEK {
            if counts[h] > 0 {
                out[h] = sums[h] / counts[h] as f64;
            }
        }
        out
    }

    /// Scales all values by `k` in place.
    pub fn scale(&mut self, k: f64) {
        for v in &mut self.values {
            *v *= k;
        }
    }

    /// Serializes to a two-column CSV (`hour,value`) with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.values.len() * 16 + 16);
        out.push_str("hour,value\n");
        for (t, v) in self.values.iter().enumerate() {
            out.push_str(&format!("{t},{v}\n"));
        }
        out
    }

    /// Parses the CSV format produced by [`HourlyTrace::to_csv`]. Rows must
    /// be in hour order starting at zero.
    pub fn from_csv(s: &str) -> Result<Self, String> {
        let mut values = Vec::new();
        for (i, line) in s.lines().enumerate() {
            if i == 0 {
                if line.trim() != "hour,value" {
                    return Err(format!("unexpected header: {line:?}"));
                }
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let (hour_s, value_s) = line
                .split_once(',')
                .ok_or_else(|| format!("line {i}: missing comma"))?;
            let hour: usize = hour_s
                .trim()
                .parse()
                .map_err(|e| format!("line {i}: bad hour: {e}"))?;
            if hour != values.len() {
                return Err(format!("line {i}: hour {hour} out of order"));
            }
            let value: f64 = value_s
                .trim()
                .parse()
                .map_err(|e| format!("line {i}: bad value: {e}"))?;
            if !value.is_finite() {
                return Err(format!("line {i}: non-finite value"));
            }
            values.push(value);
        }
        Ok(Self { values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let t = HourlyTrace::new(vec![1.0, 2.0, 3.0, 6.0]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.total(), 12.0);
        assert_eq!(t.mean(), 3.0);
        assert_eq!(t.peak(), 6.0);
        assert_eq!(t.at(2), 3.0);
    }

    #[test]
    fn hour_of_week_wraps() {
        assert_eq!(HourlyTrace::hour_of_week(0), 0);
        assert_eq!(HourlyTrace::hour_of_week(167), 167);
        assert_eq!(HourlyTrace::hour_of_week(168), 0);
        assert_eq!(HourlyTrace::hour_of_week(169), 1);
    }

    #[test]
    fn profile_averages_across_weeks() {
        // Two weeks: week 1 all 1.0, week 2 all 3.0 -> profile all 2.0.
        let mut vals = vec![1.0; HOURS_PER_WEEK];
        vals.extend(vec![3.0; HOURS_PER_WEEK]);
        let t = HourlyTrace::new(vals);
        let profile = t.hour_of_week_profile();
        assert!(profile.iter().all(|&p| (p - 2.0).abs() < 1e-12));
    }

    #[test]
    fn profile_handles_partial_weeks() {
        let t = HourlyTrace::new(vec![5.0; 24]); // one day only
        let profile = t.hour_of_week_profile();
        assert_eq!(profile[0], 5.0);
        assert_eq!(profile[24], 0.0); // never observed
    }

    #[test]
    fn csv_roundtrip() {
        let t = HourlyTrace::new(vec![1.5, 0.0, 123456.75]);
        let csv = t.to_csv();
        let back = HourlyTrace::from_csv(&csv).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn csv_rejects_bad_input() {
        assert!(HourlyTrace::from_csv("nope\n0,1\n").is_err());
        assert!(HourlyTrace::from_csv("hour,value\n5,1.0\n").is_err());
        assert!(HourlyTrace::from_csv("hour,value\n0,abc\n").is_err());
        assert!(HourlyTrace::from_csv("hour,value\n0\n").is_err());
    }

    #[test]
    fn slice_and_scale() {
        let mut t = HourlyTrace::new(vec![1.0, 2.0, 3.0, 4.0]);
        let s = t.slice(1, 2);
        assert_eq!(s.values(), &[2.0, 3.0]);
        t.scale(10.0);
        assert_eq!(t.values(), &[10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_values_rejected() {
        HourlyTrace::new(vec![f64::NAN]);
    }
}
