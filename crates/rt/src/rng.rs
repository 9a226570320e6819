//! Deterministic, seedable pseudo-random number generation.
//!
//! The workspace must build and test with no network access, so this
//! module replaces the `rand`/`rand_chacha` stack with a self-contained
//! generator pair:
//!
//! * [`SplitMix64`] — a 64-bit state expander (Steele, Lea & Flood,
//!   OOPSLA 2014). Used to turn a single `u64` seed into the full
//!   xoshiro state, exactly as the xoshiro authors recommend.
//! * [`Xoshiro256pp`] — xoshiro256++ (Blackman & Vigna, 2019): a fast,
//!   well-equidistributed generator whose statistical quality is far
//!   beyond what the simulations here require.
//!
//! The API surface deliberately mirrors the small subset of `rand` the
//! call sites used (`seed_from_u64`, `rng.random::<f64>()`, generic
//! `R: Rng` bounds) so the substitution stays mechanical. Streams are
//! stable: the golden-value tests below pin the exact output sequence,
//! and every simulation seeded the same way reproduces bit-for-bit.

/// Minimal random-source trait: everything derives from [`Rng::next_u64`].
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed value of a primitive type; `f64`/`f32`
    /// land in `[0, 1)`.
    fn random<T: FromRng>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Uniform `u64` in `[0, n)` (modulo reduction; the bias is below
    /// `n / 2^64`, negligible for the ranges used here).
    fn random_below(&mut self, n: u64) -> u64
    where
        Self: Sized,
    {
        assert!(n > 0, "range must be non-empty");
        self.next_u64() % n
    }

    /// Uniform `i64` in the inclusive range `[lo, hi]`.
    fn random_i64_in(&mut self, lo: i64, hi: i64) -> i64
    where
        Self: Sized,
    {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = (hi - lo) as u64 + 1;
        lo + self.random_below(span) as i64
    }

    /// Uniform `usize` in `[lo, hi]`.
    fn random_usize_in(&mut self, lo: usize, hi: usize) -> usize
    where
        Self: Sized,
    {
        self.random_i64_in(lo as i64, hi as i64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    fn random_f64_in(&mut self, lo: f64, hi: f64) -> f64
    where
        Self: Sized,
    {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.random::<f64>()
    }
}

/// Types drawable uniformly from an [`Rng`].
pub trait FromRng {
    /// Draws one value.
    fn from_rng<R: Rng>(rng: &mut R) -> Self;
}

impl FromRng for u64 {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for bool {
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with the full 53 bits of mantissa precision.
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn from_rng<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// The SplitMix64 state increment (the golden-ratio constant).
const SPLITMIX64_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: one multiply-xorshift pass per output. Primarily a seed
/// expander for [`Xoshiro256pp`], but a valid standalone generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the expander.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX64_GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A deterministic stream of sub-seeds split from one root seed.
///
/// `seed(i)` is defined as the `(i + 1)`-th output of a [`SplitMix64`]
/// generator seeded with the root — but computed in O(1) by exploiting
/// SplitMix64's counter structure (its state after `i` steps is exactly
/// `root + (i + 1) * GOLDEN`, wrapping). The two properties that matter
/// to callers:
///
/// * **Order-free determinism.** `seed(i)` depends only on `(root, i)`,
///   never on how many other seeds were drawn or on which thread drew
///   them. A Monte-Carlo fan-out that assigns sample `i` the seed
///   `stream.seed(i)` is bitwise-reproducible at any worker count.
/// * **Stream quality.** Outputs are full SplitMix64 outputs, the
///   construction the xoshiro authors recommend for seeding child
///   generators; feeding them to [`Xoshiro256pp::seed_from_u64`] gives
///   well-separated child streams.
///
/// ```
/// use billcap_rt::{Rng, SeedStream, SplitMix64};
/// let stream = SeedStream::new(42);
/// let mut sequential = SplitMix64::seed_from_u64(42);
/// for i in 0..4 {
///     assert_eq!(stream.seed(i), sequential.next_u64());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedStream {
    root: u64,
}

impl SeedStream {
    /// Creates the stream rooted at `root`.
    pub fn new(root: u64) -> Self {
        Self { root }
    }

    /// The root seed this stream was split from.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// The `index`-th sub-seed (O(1), independent of access order).
    pub fn seed(&self, index: u64) -> u64 {
        let mut sm = SplitMix64::seed_from_u64(
            self.root
                .wrapping_add(SPLITMIX64_GOLDEN.wrapping_mul(index)),
        );
        sm.next_u64()
    }
}

/// xoshiro256++: 256 bits of state, period `2^256 - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the full 256-bit state from a single `u64` via
    /// [`SplitMix64`], the initialization the xoshiro authors specify.
    /// Every seed (including 0) yields a usable, distinct stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::seed_from_u64(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl Rng for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs of the C reference implementation seeded with 0:
        // any deviation breaks every stream downstream.
        let mut rng = SplitMix64::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_matches_reference_vector() {
        // SplitMix64-seeded xoshiro256++ with seed 0: the same vector the
        // `rand_xoshiro` crate pins, so streams survive any refactor.
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0x5317_5D61_490B_23DF);
        assert_eq!(rng.next_u64(), 0x61DA_6F3D_C380_D507);
        assert_eq!(rng.next_u64(), 0x5C0F_DF91_EC9A_7BFC);
    }

    #[test]
    fn golden_streams_are_stable() {
        // Workspace-pinned golden values: seeds 42 and 0x5eed are the ones
        // the simulations actually use. A change here silently reshuffles
        // every trace, DES run, and randomized test in the workspace.
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        assert_eq!(rng.next_u64(), 0xD076_4D4F_4476_689F);
        assert_eq!(rng.next_u64(), 0x519E_4174_576F_3791);
        assert_eq!(rng.next_u64(), 0xFBE0_7CFB_0C24_ED8C);
        let mut rng = Xoshiro256pp::seed_from_u64(0x5eed);
        assert_eq!(rng.next_u64(), 0x8EB2_871B_24AE_0C00);
        assert_eq!(rng.next_u64(), 0xFDD2_C14D_7560_F757);
    }

    #[test]
    fn golden_f64_stream_is_stable() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        assert_eq!(rng.random::<f64>(), 0.8143051451229099);
        assert_eq!(rng.random::<f64>(), 0.3188210400616611);
        assert_eq!(rng.random::<f64>(), 0.9838941681774888);
        assert_eq!(rng.random::<f64>(), 0.7011355981347556);
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn f64_draws_live_in_unit_interval() {
        let mut r = Xoshiro256pp::seed_from_u64(99);
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = Xoshiro256pp::seed_from_u64(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.random_i64_in(-3, 5);
            assert!((-3..=5).contains(&v));
            let u = r.random_below(7);
            assert!(u < 7);
            let x = r.random_f64_in(2.5, 3.5);
            assert!((2.5..3.5).contains(&x));
        }
    }

    #[test]
    fn seed_stream_matches_sequential_splitmix() {
        // The random-access identity: seed(i) is the (i+1)-th output of
        // the root SplitMix64 stream, for every root tested.
        for root in [0u64, 42, 0x5eed, u64::MAX] {
            let stream = SeedStream::new(root);
            let mut sm = SplitMix64::seed_from_u64(root);
            for i in 0..64 {
                assert_eq!(stream.seed(i), sm.next_u64(), "root={root:#x} i={i}");
            }
        }
    }

    #[test]
    fn seed_stream_is_order_free() {
        let stream = SeedStream::new(7);
        let forward: Vec<u64> = (0..16).map(|i| stream.seed(i)).collect();
        let backward: Vec<u64> = (0..16).rev().map(|i| stream.seed(i)).collect();
        let mut backward = backward;
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn seed_stream_seeds_are_distinct() {
        let stream = SeedStream::new(42);
        let mut seen: Vec<u64> = (0..1000).map(|i| stream.seed(i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1000, "collision within the first 1000 seeds");
    }
}
