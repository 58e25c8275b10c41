//! Offline stand-in for the subset of the `rand` 0.8 API this workspace
//! uses. The container this repository builds in has no crates.io access,
//! so the workspace path-depends on this shim instead (see
//! `DESIGN.md` § dependencies).
//!
//! Provided surface: [`RngCore`], [`Rng`] (with `gen`, `gen_range`,
//! `gen_bool`), [`SeedableRng::seed_from_u64`] and [`rngs::StdRng`].
//!
//! `StdRng` is a xoshiro256++ generator seeded through SplitMix64 — a
//! different stream than upstream `rand`'s ChaCha12 `StdRng`, but with
//! the same determinism contract (identical seed ⇒ identical stream) and
//! statistical quality far beyond what the workspace's samplers need.

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits (upper half of
    /// [`next_u64`](Self::next_u64)).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Deterministic construction from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`] (mirrors upstream `rand`).
pub trait Rng: RngCore {
    /// Samples a value from the "standard" distribution of `T`
    /// (uniform over the type's natural domain; `[0, 1)` for floats).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0, 1]"
        );
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types samplable from their standard distribution.
pub trait StandardSample {
    /// Draws one value from `rng`'s stream.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that can be sampled uniformly.
///
/// Implemented generically over [`UniformSampled`] element types so that
/// integer-literal ranges (`rng.gen_range(0..16)`) unify with the
/// surrounding expression's type, exactly as with upstream `rand`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: UniformSampled> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: UniformSampled> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(*self.start(), *self.end(), true, rng)
    }
}

/// Element types uniformly samplable between two bounds.
pub trait UniformSampled: Copy {
    /// Uniform draw in `[lo, hi)` (or `[lo, hi]` when `inclusive`).
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: $t,
                hi: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                let span = if inclusive {
                    assert!(lo <= hi, "cannot sample empty range");
                    (hi as i128 - lo as i128) as u128 + 1
                } else {
                    assert!(lo < hi, "cannot sample empty range");
                    (hi as i128 - lo as i128) as u128
                };
                // Lemire multiply-shift: maps 64 random bits onto the span
                // with negligible bias for the spans used here.
                let offset = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + offset) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: $t,
                hi: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                if inclusive {
                    assert!(lo <= hi, "cannot sample empty range");
                } else {
                    assert!(lo < hi, "cannot sample empty range");
                }
                let u = <$t as StandardSample>::sample_standard(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
impl_uniform_float!(f32, f64);

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator
    /// (xoshiro256++, SplitMix64-seeded).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<f64>(), c.gen::<f64>());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respected_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            let v = rng.gen_range(0..8usize);
            counts[v] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
        for _ in 0..1_000 {
            let v = rng.gen_range(4..16);
            assert!((4..16).contains(&v));
            let f = rng.gen_range(1.5..2.5f64);
            assert!((1.5..2.5).contains(&f));
            let i = rng.gen_range(0..=3u32);
            assert!(i <= 3);
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
