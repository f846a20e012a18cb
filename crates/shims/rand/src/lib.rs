//! Offline stub of `rand` (0.8 API surface).
//!
//! The build environment for this repository cannot reach crates.io, so this
//! crate implements the subset of the `rand` 0.8 API the workspace uses on
//! top of a self-contained xoshiro256** generator seeded with SplitMix64:
//!
//! * [`rngs::StdRng`] with [`SeedableRng::seed_from_u64`],
//! * [`RngCore::next_u32`] / [`RngCore::next_u64`],
//! * [`Rng::gen_range`] over integer and `f64` ranges,
//! * [`Rng::gen_bool`],
//! * [`seq::SliceRandom::shuffle`] / [`seq::SliceRandom::choose`].
//!
//! One method goes beyond that surface: [`rngs::StdRng::jump`] advances the
//! generator by any number of draws in `O(log draws)`, so a long stream can
//! be cut into blocks that are sampled in parallel and still give exactly
//! the sequential result. Upstream's counterpart is seeking a ChaCha
//! generator's word position (`set_word_pos`).
//!
//! Streams differ from the real `rand` crate (which draws from ChaCha12), but
//! everything in this repository treats seeds as opaque reproducibility
//! tokens, so only determinism matters: the same seed always yields the same
//! sequence, on every platform. Swap the path dependency for the crates.io
//! `rand` to restore the upstream streams.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core trait: a source of random 32/64-bit words.
pub trait RngCore {
    /// Returns the next pseudo-random `u32`.
    fn next_u32(&mut self) -> u32;
    /// Returns the next pseudo-random `u64`.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator deterministically from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

fn uniform_u64_below(rng: &mut dyn RngCore, bound: u64) -> u64 {
    debug_assert!(bound > 0, "empty range");
    // Lemire-style rejection sampling: unbiased and cheap.
    let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u64).wrapping_sub(start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_u64_below(rng, span + 1) as $t)
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, i64, i32);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut dyn RngCore) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli sample: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Random-number generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator standing in for rand's `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    /// The low 256 coefficients of the characteristic polynomial
    /// `P(x) = x^256 + …` of xoshiro256**'s linear state map over GF(2),
    /// least significant word first (coefficient `i` is bit `i % 64` of
    /// word `i / 64`).
    const CHAR_POLY: [u64; 4] = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// A polynomial of degree below 256 over GF(2), in the layout of
    /// [`CHAR_POLY`].
    type Poly = [u64; 4];

    /// `a · x mod P`.
    fn times_x(a: Poly) -> Poly {
        let carry = a[3] >> 63;
        let mut r = [
            a[0] << 1,
            (a[1] << 1) | (a[0] >> 63),
            (a[2] << 1) | (a[1] >> 63),
            (a[3] << 1) | (a[2] >> 63),
        ];
        if carry == 1 {
            for (w, p) in r.iter_mut().zip(CHAR_POLY) {
                *w ^= p;
            }
        }
        r
    }

    /// `a · b mod P`, by Horner's rule over the bits of `b`.
    fn mul_mod(a: Poly, b: Poly) -> Poly {
        let mut r = [0u64; 4];
        for bit in (0..256).rev() {
            r = times_x(r);
            if (b[bit / 64] >> (bit % 64)) & 1 == 1 {
                for (w, x) in r.iter_mut().zip(a) {
                    *w ^= x;
                }
            }
        }
        r
    }

    /// `x^k mod P`, by square-and-multiply from the top bit of `k`.
    pub(crate) fn x_pow_mod(k: u64) -> Poly {
        let mut r: Poly = [1, 0, 0, 0];
        for bit in (0..64 - k.leading_zeros()).rev() {
            r = mul_mod(r, r);
            if (k >> bit) & 1 == 1 {
                r = times_x(r);
            }
        }
        r
    }

    /// `x^(2^doublings) mod P`, by repeated squaring of `x` (exponents past
    /// `u64`, such as the published `JUMP` distance 2^128).
    #[cfg(test)]
    pub(crate) fn x_pow_pow2_mod(doublings: u32) -> Poly {
        let mut r: Poly = [2, 0, 0, 0];
        for _ in 0..doublings {
            r = mul_mod(r, r);
        }
        r
    }

    impl StdRng {
        /// Advances the generator by `draws` draws: afterwards it is in
        /// exactly the state `draws` calls of [`RngCore::next_u64`] would
        /// have left it in, reached in `O(log draws)` instead of
        /// `O(draws)`.
        ///
        /// The state map `T` of xoshiro256** is linear over GF(2) with
        /// characteristic polynomial `P`, so `T^draws = q(T)` for
        /// `q = x^draws mod P`. The jump computes `q` by square-and-multiply
        /// and then XOR-accumulates the states of 256 steps selected by
        /// `q`'s coefficients — the loop of the published xoshiro `jump()`,
        /// whose fixed `JUMP` constant is `x^(2^128) mod P`.
        ///
        /// Not part of `rand`'s API: upstream's `StdRng` (ChaCha12) offers
        /// the same through `set_word_pos`.
        pub fn jump(&mut self, draws: u64) {
            let q = x_pow_mod(draws);
            let mut acc = [0u64; 4];
            for word in q {
                for bit in 0..64 {
                    if (word >> bit) & 1 == 1 {
                        for (a, s) in acc.iter_mut().zip(self.s) {
                            *a ^= s;
                        }
                    }
                    self.next_u64();
                }
            }
            self.s = acc;
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
    }
}

/// Sequence-related helpers (`SliceRandom`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling and random selection on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// Uniformly random element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = rngs::StdRng::seed_from_u64(42);
        let mut b = rngs::StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rngs::StdRng::seed_from_u64(1);
        let mut b = rngs::StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_is_in_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let i = rng.gen_range(0u64..=4);
            assert!(i <= 4);
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = rngs::StdRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = rngs::StdRng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..2000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((700..1300).contains(&hits), "suspicious bias: {hits}");
    }

    // `jump(k)` against `k` steps is tested from the workspace root, in
    // `tests/generator_oracles.rs`.
    #[test]
    fn jumps_compose() {
        let mut once = rngs::StdRng::seed_from_u64(1);
        once.jump(u64::MAX);
        let mut twice = rngs::StdRng::seed_from_u64(1);
        twice.jump(u64::MAX / 2);
        twice.jump(u64::MAX / 2 + 1);
        assert_eq!(once.next_u64(), twice.next_u64());
    }

    #[test]
    fn characteristic_polynomial_reproduces_the_published_jump() {
        // xoshiro256's `JUMP` constant is x^(2^128) mod P.
        assert_eq!(
            rngs::x_pow_pow2_mod(128),
            [
                0x180e_c6d3_3cfd_0aba,
                0xd5a6_1266_f0c9_392c,
                0xa958_2618_e03f_c9aa,
                0x39ab_dc45_29b1_661c,
            ]
        );
        // And the square-and-multiply path agrees with repeated squaring.
        assert_eq!(rngs::x_pow_mod(1 << 63), rngs::x_pow_pow2_mod(63));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        use seq::SliceRandom;
        let mut rng = rngs::StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice untouched");
    }

    #[test]
    fn choose_returns_members() {
        use seq::SliceRandom;
        let mut rng = rngs::StdRng::seed_from_u64(4);
        let v = [10u8, 20, 30];
        for _ in 0..20 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
