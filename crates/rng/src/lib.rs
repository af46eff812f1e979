//! # nowlab-rng — self-contained deterministic pseudo-randomness
//!
//! The nowlab workspace must build hermetically (no crates.io access), so
//! this crate replaces the external `rand` dependency with the same
//! generator family `rand 0.8` uses for `SmallRng` on 64-bit targets:
//! **xoshiro256++** (Blackman & Vigna), seeded through **SplitMix64** as the
//! xoshiro reference implementation recommends.
//!
//! The API deliberately mirrors the `rand` subset the workspace uses —
//! [`SeedableRng::seed_from_u64`], [`RngCore::next_u64`], [`Rng::gen`],
//! [`Rng::gen_range`] — so call sites read identically. Everything is
//! deterministic: the same seed produces the same stream on every platform,
//! which the ISCA'97 reproduction methodology requires (same seed ⇒ same
//! workload ⇒ comparable virtual times across LogGP parameter vectors).
//!
//! # Examples
//!
//! ```
//! use nowlab_rng::{Rng, RngCore, SeedableRng, SmallRng};
//!
//! let mut a = SmallRng::seed_from_u64(7);
//! let mut b = SmallRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let d: u64 = a.gen();
//! let idx = a.gen_range(0..10usize);
//! assert!(idx < 10);
//! let _ = d;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// SplitMix64 step: the standard seed-expansion generator (Steele et al.,
/// "Fast splittable pseudorandom number generators", OOPSLA'14).
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Types an [`Rng`] can sample uniformly over their full domain.
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // High bits of xoshiro output have the best equidistribution.
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types [`Rng::gen_range`] accepts.
pub trait UniformInt: Copy {
    /// Converts to the u64 sampling domain.
    fn to_u64(self) -> u64;
    /// Converts back from the u64 sampling domain.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn to_u64(self) -> u64 { self as u64 }
            #[inline]
            fn from_u64(v: u64) -> Self { v as $t }
        }
    )*};
}
impl_uniform_int!(usize, u64, u32, u16, u8);

/// The core generator interface: a source of 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range` (debiased by rejection).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        let (lo, hi) = (range.start.to_u64(), range.end.to_u64());
        assert!(lo < hi, "gen_range: empty range");
        T::from_u64(lo + uniform_below(self, hi - lo))
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0,1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform draw in `[0, bound)` using Lemire's multiply-shift with
/// rejection (unbiased).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(bound as u128);
        let lo = m as u64;
        if lo >= bound || lo >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
    }
}

/// Seeding interface mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (expanded via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

/// xoshiro256++ — the default small, fast generator (and what `rand 0.8`
/// uses for `SmallRng` on 64-bit platforms).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // SplitMix64 never yields four zeros, so the state is valid.
        SmallRng { s }
    }
}

impl RngCore for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_reference_vector() {
        // Reference: xoshiro256++ with state {1,2,3,4} (Vigna's test
        // vectors; first three outputs).
        let mut rng = SmallRng { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 41943041);
        assert_eq!(rng.next_u64(), 58720359);
        assert_eq!(rng.next_u64(), 3588806011781223);
    }

    #[test]
    fn seeding_is_deterministic_and_sensitive() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let x = a.next_u64();
        assert_eq!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.gen_range(0..7usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
        for _ in 0..100 {
            let v = rng.gen_range(10u64..12);
            assert!((10..12).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02, "{hits}");
        assert!(!SmallRng::seed_from_u64(0).gen_bool(0.0));
        assert!(SmallRng::seed_from_u64(0).gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let _ = SmallRng::seed_from_u64(0).gen_range(5..5usize);
    }
}
