//! Small deterministic pseudo-random number generator.
//!
//! The workspace builds offline with no external crates, so the
//! procedural workload generators use this tiny splitmix64/xorshift
//! generator instead of `rand`. It is **not** cryptographic and is not
//! meant to be: scene synthesis only needs a stream that is (a) fully
//! determined by the seed, so every simulator run is reproducible, and
//! (b) well-mixed enough that textures and bump fields carry no visible
//! lattice artifacts.

/// A seeded, deterministic PRNG (xorshift64* seeded through splitmix64).
///
/// # Examples
///
/// ```
/// use pimgfx_types::TinyRng;
/// let mut a = TinyRng::seed_from_u64(7);
/// let mut b = TinyRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64(), "deterministic in the seed");
/// let x = a.gen_range_f32(0.25, 0.75);
/// assert!((0.25..0.75).contains(&x));
/// let n = a.gen_range_u64(3, 9);
/// assert!((3..9).contains(&n));
/// ```
#[derive(Debug, Clone)]
pub struct TinyRng {
    state: u64,
}

impl TinyRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    ///
    /// The seed is pre-mixed with one splitmix64 round so that nearby
    /// seeds (0, 1, 2, ...) produce uncorrelated streams.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 finalizer over the raw seed; also guarantees the
        // xorshift state is nonzero (xorshift64* has a fixed point at 0).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna): full 2^64-1 period, passes BigCrush on
        // the high bits, which are the ones `next_f32` consumes.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `f32` in `[0, 1)` built from the high 24 bits.
    pub fn next_f32(&mut self) -> f32 {
        const SCALE: f32 = 1.0 / (1u32 << 24) as f32;
        (self.next_u64() >> 40) as f32 * SCALE
    }

    /// A uniform `f32` in `[lo, hi)` (returns `lo` when the range is
    /// empty or inverted, keeping generation total).
    pub fn gen_range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.next_f32()
    }

    /// A uniform `u64` in `[lo, hi)` (returns `lo` when the range is
    /// empty or inverted, keeping generation total).
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        // Multiply-shift takes the span from the high bits, the
        // well-mixed ones of xorshift64*, where a modulo reads the low.
        let offset = (u128::from(self.next_u64()) * u128::from(hi - lo)) >> 64;
        lo + offset as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = TinyRng::seed_from_u64(42);
        let mut b = TinyRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn nearby_seeds_diverge() {
        let mut a = TinyRng::seed_from_u64(1);
        let mut b = TinyRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = TinyRng::seed_from_u64(0);
        assert_ne!(
            r.next_u64(),
            0,
            "state must escape the xorshift fixed point"
        );
    }

    #[test]
    fn f32_stays_in_unit_interval() {
        let mut r = TinyRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = TinyRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = r.gen_range_f32(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x), "{x} out of [-2,3)");
        }
        assert_eq!(r.gen_range_f32(1.0, 1.0), 1.0, "empty range returns lo");
    }

    #[test]
    fn u64_range_respects_bounds_and_reaches_every_value() {
        let mut r = TinyRng::seed_from_u64(6);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = r.gen_range_u64(3, 10);
            assert!((3..10).contains(&x), "{x} out of [3,10)");
            seen[(x - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every value drawn: {seen:?}");
        let top = r.gen_range_u64(u64::MAX - 1, u64::MAX);
        assert_eq!(top, u64::MAX - 1, "one-value span");
        assert_eq!(r.gen_range_u64(5, 5), 5, "empty range returns lo");
        assert_eq!(r.gen_range_u64(9, 2), 9, "inverted range returns lo");
    }

    #[test]
    fn roughly_uniform() {
        // Bucket 10k draws into 10 bins; each should land near 1000.
        let mut r = TinyRng::seed_from_u64(5);
        let mut bins = [0u32; 10];
        for _ in 0..10_000 {
            bins[(r.next_f32() * 10.0) as usize] += 1;
        }
        for (i, &n) in bins.iter().enumerate() {
            assert!((800..1200).contains(&n), "bin {i} has {n} draws");
        }
    }
}
