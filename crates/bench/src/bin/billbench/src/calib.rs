//! Machine-speed calibration.
//!
//! On a shared two-vCPU machine the CPU's speed drifts by a fifth over
//! minutes as other tenants load the host, and every timing the
//! benchmark takes drifts with it. A fixed reference kernel, timed
//! between the measured blocks, tracks that drift. Over 15 minutes of
//! 720-hour month repetitions on the reference machine, the slowest
//! 20-second stretch ran 33% above the median; divided by an
//! arithmetic kernel's time it ran 20% above, and divided by the time
//! of the same arithmetic plus a chain of L2-cache loads 8.5% above.
//!
//! That kernel still moved less than the program: in loaded stretches
//! month repetitions slowed about twice as much, in log terms, as it
//! did. Regressing the log of 0.5-second blocks of month and risk
//! repetitions (twelve runs) on the log of a kernel's time gave it a
//! slope of 1.1 to 1.2 with R² 0.30 to 0.35. Adding a `BTreeMap` part
//! and a sort part, which move with allocation, branches and memory
//! traffic as the program does, gave a slope of 0.94 to 0.96 with R²
//! 0.48 to 0.50; that is the kernel used.
//!
//! End-to-end times are therefore reported at the reference machine's
//! speed: a raw time multiplied by [`speed`] measured around it (and a
//! raw rate divided by it). The factor itself is reported as the
//! per-layer metric `bench.speed_factor`, so raw values can be recovered.

use billcap_obs::Stopwatch;
use billcap_rt::run_workers;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::Stdio;
use std::sync::{Mutex, OnceLock};

/// Median kernel time on the reference machine (2 vCPUs, quiet), ns.
/// Frozen: changing it rescales every end-to-end time.
pub const REFERENCE_NS: f64 = 2_080_000.0;

/// Timings per thread per calibration; the median of these is taken.
const ROUNDS: usize = 5;
/// Entries of the load chain's table: 256 KiB of `u32`, which fits the
/// reference machine's 2 MiB L2 but not its 48 KiB L1.
const CHAIN_LEN: usize = 1 << 16;
/// Floats the kernel sorts.
const SORT_LEN: usize = 20_000;

/// A random cyclic permutation of `0..CHAIN_LEN`, built once: following
/// it visits the whole table in an order the prefetcher cannot guess.
fn chain() -> &'static [u32] {
    static CHAIN: OnceLock<Vec<u32>> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let mut order: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHAIN_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; CHAIN_LEN];
        for w in 0..CHAIN_LEN {
            next[order[w] as usize] = order[(w + 1) % CHAIN_LEN];
        }
        next
    })
}

/// A fixed amount of work in three parts, each like some of the
/// program's own, using only the standard library so no change to the
/// program moves it:
///
/// * integer and floating-point arithmetic on a 16 KiB table, then
///   10,000 dependent loads around [`chain`] (about a quarter of the
///   time);
/// * 5,000 inserts into a `BTreeMap` and as many lookups: allocation,
///   branches and pointer chasing (nearly half);
/// * filling `scratch` with 20,000 floats and sorting it (about a
///   quarter).
fn kernel(seed: u64, scratch: &mut [f64]) -> u64 {
    let mut x = seed | 1;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut f = 1.0f64;
    let mut table = [0u64; 2048];
    for i in 0..200_000u64 {
        let j = (step() as usize) & 2047;
        table[j] = table[j].wrapping_add(i);
        f = f * 1.000_000_1 + (j as f64) * 1e-9;
    }
    let next = chain();
    let mut at = (step() as usize) % CHAIN_LEN;
    for _ in 0..10_000 {
        at = next[at] as usize;
    }
    let keys: Vec<u64> = (0..5_000).map(|_| step()).collect();
    let mut map = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        map.insert(*k, i as u64);
    }
    let found = keys
        .iter()
        .rev()
        .filter_map(|k| map.get(k))
        .fold(0u64, |a, v| a.wrapping_add(*v));
    for s in scratch.iter_mut() {
        *s = (step() >> 11) as f64;
    }
    scratch.sort_unstable_by(f64::total_cmp);
    table.iter().fold(0, |a, b| a ^ b) ^ f.to_bits() ^ at as u64 ^ found ^ scratch[100].to_bits()
}

/// Times the kernel [`ROUNDS`] times on each of up to two threads (one
/// per vCPU of the reference machine) and returns the mean over the
/// threads of each one's median, ns.
pub fn kernel_ns() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let medians = Mutex::new(Vec::with_capacity(threads));
    run_workers(threads, |w| {
        let mut scratch = vec![0.0; SORT_LEN];
        let mut times: Vec<f64> = (0..ROUNDS)
            .map(|r| {
                let watch = Stopwatch::start();
                black_box(kernel(black_box((w * ROUNDS + r) as u64), &mut scratch));
                watch.elapsed_ns() as f64
            })
            .collect();
        times.sort_unstable_by(f64::total_cmp);
        let median = times[ROUNDS / 2];
        medians
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(median);
    });
    let medians = medians
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // detlint-allow(D006): a mean of two timings for calibration, not a decision input
    medians.iter().fold(0.0, |a, m| a + m) / medians.len().max(1) as f64
}

/// The machine's speed relative to the reference machine: above 1 when
/// it runs faster. A raw time times this factor is the time the
/// reference machine would have taken.
pub fn speed() -> f64 {
    REFERENCE_NS / kernel_ns()
}

/// [`speed`] on `cpu` alone, timed by a child process
/// (`billbench --calibrate`) pinned there.
pub fn speed_on(cpu: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = crate::command_on(&exe, Some(cpu))
        .arg("--calibrate")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("calibrating CPU {cpu}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(ns) if out.status.success() && ns > 0.0 => Ok(REFERENCE_NS / ns),
        _ => Err(format!(
            "calibrating CPU {cpu}: the child exited with {} and printed {text:?}",
            out.status
        )),
    }
}

/// Speeds measured at block boundaries: block `k` ran between
/// measurements `k` and `k + 1` and is scaled by their mean.
#[derive(Debug, Default, Clone)]
pub struct Speeds(Vec<f64>);

impl Speeds {
    /// Measures the speed now, closing the previous block, and returns
    /// the index of the block it opens.
    pub fn mark(&mut self) -> usize {
        self.0.push(speed());
        self.0.len() - 1
    }

    /// [`Speeds::mark`] for the speed of `cpu` alone, or of this process
    /// when `cpu` is `None`.
    pub fn mark_on(&mut self, cpu: Option<usize>) -> Result<usize, String> {
        match cpu {
            Some(cpu) => self.0.push(speed_on(cpu)?),
            None => self.0.push(speed()),
        }
        Ok(self.0.len() - 1)
    }

    /// The factor of block `k`. A block with no closing mark uses its
    /// opening one; with no marks at all the factor is 1.
    pub fn block(&self, k: usize) -> f64 {
        match (self.0.get(k), self.0.get(k + 1)) {
            (Some(a), Some(b)) => 0.5 * (a + b),
            (Some(a), None) => *a,
            _ => 1.0,
        }
    }

    /// The median of every mark, as the run's reported speed factor.
    pub fn median(&self) -> f64 {
        if self.0.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_factors_average_their_boundaries() {
        let s = Speeds(vec![1.0, 0.5, 0.75]);
        assert_eq!(s.block(0), 0.75);
        assert_eq!(s.block(1), 0.625);
        assert_eq!(s.block(2), 0.75);
        assert_eq!(Speeds::default().block(0), 1.0);
        assert_eq!(s.median(), 0.75);
    }

    #[test]
    fn chain_is_one_cycle_through_the_table() {
        let next = chain();
        let mut at = 0;
        for step in 1..=CHAIN_LEN {
            at = next[at] as usize;
            assert_eq!(at == 0, step == CHAIN_LEN, "step {step}");
        }
    }

    #[test]
    fn kernel_is_deterministic_and_timed() {
        let mut scratch = vec![0.0; SORT_LEN];
        let three = kernel(3, &mut scratch);
        assert_eq!(three, kernel(3, &mut scratch));
        assert_ne!(three, kernel(5, &mut scratch));
        assert!(kernel_ns() > 0.0);
    }
}
