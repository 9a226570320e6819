//! Monotonic stopwatch: the one sanctioned wall-clock handle for crates
//! outside `billcap-rt`.
//!
//! The workspace's source linter (`detlint`, L002) forbids `Instant::now` /
//! `SystemTime` outside `billcap-obs` and `billcap-rt`, so that timing —
//! a side effect that makes runs non-reproducible — stays confined to
//! the observability layer. Library code that needs to *measure* a phase
//! (e.g. the capper's per-step nanosecond counters) goes through
//! [`Stopwatch`] instead of reaching for `std::time` directly.

use std::time::{Duration, Instant};

/// A started monotonic clock. Construct with [`Stopwatch::start`], read
/// with [`Stopwatch::elapsed_ns`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch {
            // detlint-allow(D003): stopwatch exists to measure wall time; consumers are telemetry-only
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`], saturating at `u64::MAX`
    /// (≈ 584 years).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed time as a [`Duration`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in (fractional) seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        assert!(sw.elapsed_secs() >= 0.0);
        assert!(sw.elapsed() >= Duration::ZERO);
    }

    #[test]
    fn copies_share_the_epoch() {
        let sw = Stopwatch::start();
        let copy = sw;
        let a = sw.elapsed_ns();
        let b = copy.elapsed_ns();
        assert!(b >= a, "copy read later must not go backwards");
    }
}
