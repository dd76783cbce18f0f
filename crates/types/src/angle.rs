//! Angle newtype used by the A-TFIM camera-angle approximation.
//!
//! The A-TFIM design tags each texture-cache line with the camera angle of
//! the pixel that produced the cached parent texel. A later fetch may reuse
//! the cached value only when the absolute angular difference is below a
//! configurable threshold (the paper sweeps 0.005π … 0.1π radians).

use std::fmt;
use std::ops::{Add, Sub};

/// An angle in radians.
///
/// Kept as a newtype so thresholds in degrees and radians cannot be mixed
/// up (the paper quotes both: 1.8° = 0.01π rad).
///
/// # Examples
///
/// ```
/// use pimgfx_types::Radians;
/// let t = Radians::from_degrees(1.8);
/// assert!((t.as_f32() - Radians::from_pi_fraction(0.01).as_f32()).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Radians(f32);

impl Radians {
    /// The zero angle.
    pub const ZERO: Self = Self(0.0);
    /// π radians.
    pub const PI: Self = Self(std::f32::consts::PI);

    /// Creates an angle from raw radians.
    #[inline]
    pub const fn new(radians: f32) -> Self {
        Self(radians)
    }

    /// Creates an angle from degrees.
    #[inline]
    pub fn from_degrees(deg: f32) -> Self {
        Self(deg.to_radians())
    }

    /// Creates an angle expressed as a multiple of π, the notation the
    /// paper uses for thresholds (e.g. `0.01π`).
    #[inline]
    pub fn from_pi_fraction(fraction: f32) -> Self {
        Self(fraction * std::f32::consts::PI)
    }

    /// Raw radians value.
    #[inline]
    pub const fn as_f32(self) -> f32 {
        self.0
    }

    /// Value in degrees.
    #[inline]
    pub fn to_degrees(self) -> f32 {
        self.0.to_degrees()
    }

    /// Absolute angular difference, folded into `[0, π]`.
    ///
    /// Two camera angles that differ by `2π` describe the same viewing
    /// direction, so the difference is computed on the circle.
    ///
    /// Camera-angle tags lie in `[0, 2.5π]`, so their differences stay
    /// inside `(−4π, 4π)`, where the reduction modulo 2π needs no
    /// division: below 2π it is the difference itself, and from 2π to
    /// 4π one subtraction of 2π is exact (Sterbenz: both operands are
    /// within a factor of two). The result is bit-identical to
    /// `rem_euclid`, which still handles everything else (larger
    /// differences, infinities, NaN).
    #[inline]
    pub fn abs_diff(self, rhs: Self) -> Self {
        let two_pi = 2.0 * std::f32::consts::PI;
        let d = self.0 - rhs.0;
        let a = d.abs();
        let mut d = if a < 2.0 * two_pi {
            // `d % two_pi`: the remainder keeps the sign of `d`.
            let r = if a < two_pi {
                d
            } else {
                (a - two_pi).copysign(d)
            };
            // The rest of `rem_euclid`.
            if r < 0.0 {
                r + two_pi
            } else {
                r
            }
        } else {
            d.rem_euclid(two_pi)
        };
        if d > std::f32::consts::PI {
            d = two_pi - d;
        }
        Self(d)
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self(self.0.abs())
    }
}

impl Add for Radians {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Radians {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl fmt::Display for Radians {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} rad ({:.2}°)", self.0, self.to_degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_radian_equivalence() {
        // The paper's default threshold: 1.8° == 0.01π rad.
        let a = Radians::from_degrees(1.8);
        let b = Radians::from_pi_fraction(0.01);
        assert!((a.as_f32() - b.as_f32()).abs() < 1e-5);
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = Radians::new(0.3);
        let b = Radians::new(1.1);
        assert!((a.abs_diff(b).as_f32() - b.abs_diff(a).as_f32()).abs() < 1e-6);
        assert!((a.abs_diff(b).as_f32() - 0.8).abs() < 1e-5);
    }

    #[test]
    fn abs_diff_wraps_around_circle() {
        let a = Radians::new(0.1);
        let b = Radians::new(2.0 * std::f32::consts::PI - 0.1);
        assert!((a.abs_diff(b).as_f32() - 0.2).abs() < 1e-5);
    }

    /// Angular difference is bounded by π, symmetric, and zero for
    /// identical angles: on a fixed ladder of pairs and on 256 seeded
    /// pairs drawn from `[-20, 20)`.
    #[test]
    fn abs_diff_never_exceeds_pi() {
        let pi = std::f32::consts::PI;
        for i in 0..100 {
            let a = Radians::new(i as f32 * 0.37);
            let b = Radians::new(i as f32 * -0.53);
            assert!(a.abs_diff(b).as_f32() <= pi + 1e-5);
            assert!(a.abs_diff(b).as_f32() >= 0.0);
        }
        let mut rng = crate::TinyRng::seed_from_u64(0x0a1b_0001);
        for _ in 0..256 {
            let (a, b) = (
                rng.gen_range_f32(-20.0, 20.0),
                rng.gen_range_f32(-20.0, 20.0),
            );
            let (ra, rb) = (Radians::new(a), Radians::new(b));
            let d1 = ra.abs_diff(rb).as_f32();
            let d2 = rb.abs_diff(ra).as_f32();
            assert!((d1 - d2).abs() < 1e-4, "a={a:?} b={b:?}: {d1} vs {d2}");
            assert!((-1e-6..=pi + 1e-4).contains(&d1), "a={a:?} b={b:?}: {d1}");
            assert!(ra.abs_diff(ra).as_f32() < 1e-6, "a={a:?}");
        }
    }

    /// The fast reduction in `abs_diff` is bit-identical to the
    /// `rem_euclid` form it replaced: on signed zeros, NaN, infinities,
    /// exact multiples of π and 2π, their ulp neighbours, and seeded
    /// random pairs across and beyond the tag range.
    #[test]
    fn abs_diff_matches_the_rem_euclid_form() {
        fn old(a: f32, b: f32) -> f32 {
            let two_pi = 2.0 * std::f32::consts::PI;
            let mut d = (a - b).rem_euclid(two_pi);
            if d > std::f32::consts::PI {
                d = two_pi - d;
            }
            d
        }
        let pi = std::f32::consts::PI;
        let mut specials = vec![0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for k in -9..=9 {
            let x = k as f32 * pi;
            let x2 = k as f32 * 2.0 * pi;
            for v in [x, x2] {
                specials.extend([v, f32::from_bits(v.to_bits() + 1)]);
                if v != 0.0 {
                    specials.push(f32::from_bits(v.to_bits() - 1));
                }
            }
        }
        let mut pairs: Vec<(f32, f32)> = Vec::new();
        for &a in &specials {
            for &b in &specials {
                pairs.push((a, b));
            }
            pairs.push((a, 0.0));
            pairs.push((0.0, a));
        }
        let mut rng = crate::TinyRng::seed_from_u64(0x0a1b_2c3d);
        for i in 0..200_000 {
            let span = if i % 4 == 0 { 30.0 } else { 2.5 * pi };
            let a = rng.next_f32() * span - if i % 3 == 0 { span / 2.0 } else { 0.0 };
            let b = rng.next_f32() * span;
            pairs.push((a, b));
        }
        for (a, b) in pairs {
            let got = Radians::new(a).abs_diff(Radians::new(b)).as_f32();
            assert_eq!(got.to_bits(), old(a, b).to_bits(), "{a:?} - {b:?}");
        }
    }

    #[test]
    fn display_contains_both_units() {
        let s = format!("{}", Radians::from_degrees(90.0));
        assert!(s.contains("rad"));
        assert!(s.contains("90.00°"));
    }
}
