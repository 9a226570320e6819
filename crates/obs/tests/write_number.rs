//! The number writers against their oracle, `core::fmt`, byte for byte:
//! `write_f64` must emit exactly `format!("{x:?}")` and `write_i64`
//! exactly `format!("{x}")`, on named edge cases and on over ten
//! million seeded inputs.

use billcap_obs::json::{write_f64, write_i64};
use billcap_rt::{Rng, Xoshiro256pp};
use std::fmt::Write as _;

/// Seeded inputs per family; three families of floats. Miri interprets
/// every instruction, so it checks a sample.
const RANDOM: usize = if cfg!(miri) { 200 } else { 3_500_000 };

/// Compares one float with its oracle, reusing both buffers.
struct Check {
    got: Vec<u8>,
    want: String,
}

impl Check {
    fn new() -> Self {
        Self {
            got: Vec::new(),
            want: String::new(),
        }
    }

    fn float(&mut self, x: f64) {
        self.got.clear();
        self.want.clear();
        write_f64(&mut self.got, x);
        let _ = write!(self.want, "{x:?}");
        assert_eq!(
            self.got,
            self.want.as_bytes(),
            "{x:?} (bits {:#018x}): wrote {:?}",
            x.to_bits(),
            String::from_utf8_lossy(&self.got)
        );
    }

    /// `x`, its negation, and the floats up to `ulps` steps either side.
    fn around(&mut self, x: f64, ulps: u64) {
        for bits in x.to_bits() - ulps..=x.to_bits() + ulps {
            self.float(f64::from_bits(bits));
            self.float(-f64::from_bits(bits));
        }
    }
}

#[test]
fn named_floats_match_debug_formatting() {
    let mut check = Check::new();
    check.float(0.0);
    check.float(-0.0);
    // The edges of the positional range, either side.
    check.around(1e-4, 2);
    check.around(1e16, 2);
    for k in -5..=17 {
        check.around(format!("1e{k}").parse().unwrap(), 2);
    }
    for k in -20..=60 {
        check.around(2f64.powi(k), 1);
    }
    for x in [
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MAX,
        f64::EPSILON,
        0.1,
        0.3,
        1.0 / 3.0,
        123456.789012345,
        9_007_199_254_740_993.0,
    ] {
        check.float(x);
        check.float(-x);
    }
    for x in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        check.float(x);
    }
}

#[test]
fn an_exact_tie_rounds_up() {
    // Midway between the 17-digit candidates …562.2 and …562.3, and
    // neither is shorter: `{:?}` takes the larger.
    let x = f64::from_bits(0x4317_9085_685d_83c9);
    let mut out = Vec::new();
    write_f64(&mut out, x);
    assert_eq!(out, b"1658206780088562.3");
    Check::new().float(x);
}

#[test]
fn seeded_raw_bit_patterns_match_debug_formatting() {
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let mut check = Check::new();
    for _ in 0..RANDOM {
        check.float(f64::from_bits(rng.next_u64()));
    }
}

#[test]
fn seeded_positional_range_floats_match_debug_formatting() {
    // Uniform over the binary exponents of 1e-4 ≤ |x| < 1e16 and their
    // neighbours, every significand and sign.
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let mut check = Check::new();
    for _ in 0..RANDOM {
        let exponent = rng.random_i64_in(-15, 54) + 1023;
        let bits = rng.next_u64() & (1 << 63 | ((1 << 52) - 1));
        check.float(f64::from_bits(bits | (exponent as u64) << 52));
    }
}

#[test]
fn seeded_short_decimals_match_debug_formatting() {
    // Decimals of 1 to 17 digits: the floats nearest them have short
    // shortest forms, where the digit search runs longest.
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let mut check = Check::new();
    let mut text = String::new();
    for _ in 0..RANDOM {
        let digits = rng.random_i64_in(1, 17) as u32;
        let n = rng.random_below(10u64.pow(digits));
        let exponent = rng.random_i64_in(-22, 17);
        text.clear();
        let _ = write!(text, "{n}e{exponent}");
        check.float(text.parse().unwrap());
    }
}

#[test]
fn integers_match_display_formatting() {
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let mut got = Vec::new();
    let named = [0, 1, -1, 9, 10, -10, i64::MIN, i64::MAX, i64::MIN + 1];
    let random = (0..RANDOM / 4).flat_map(|_| {
        let x = rng.next_u64() as i64;
        [x, x >> (x as u64 % 64)]
    });
    for x in named.into_iter().chain(random) {
        got.clear();
        write_i64(&mut got, x);
        assert_eq!(got, x.to_string().as_bytes());
    }
}
