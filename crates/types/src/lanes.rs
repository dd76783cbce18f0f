//! The lane vector of the texture filter kernels.
//!
//! The workspace forbids `unsafe` (lint wall), so vectorization is done
//! with *portable chunked kernels*: small fixed-width array types that
//! the optimizer lowers to SSE/NEON vector instructions. Every lane
//! operation is defined **per lane** with exactly the scalar operation
//! order, so a lane kernel produces bit-identical results to the scalar
//! reference it replaces — see `docs/PERFORMANCE.md` for the
//! byte-identity vs documented-ULP acceptance policy.
//!
//! [`F32x4`] maps one RGBA color across its four lanes (channel-major),
//! which is how the texture filter kernels accumulate colors.
//!
//! # Examples
//!
//! ```
//! use pimgfx_types::{F32x4, Rgba};
//!
//! let a = F32x4::from_rgba(Rgba::new(1.0, 0.0, 0.0, 1.0));
//! let b = F32x4::from_rgba(Rgba::new(0.0, 0.0, 1.0, 1.0));
//! // Bit-identical to Rgba::lerp: a * (1 - t) + b * t, per lane.
//! assert_eq!(a.lerp(b, 0.5).to_rgba(), Rgba::new(0.5, 0.0, 0.5, 1.0));
//! ```

use crate::color::Rgba;
use std::ops::{Add, Mul};

/// Four `f32` lanes, operated on element-wise.
///
/// The canonical mapping is channel-major: one [`Rgba`] color occupies
/// the four lanes `[r, g, b, a]`, so a lane `lerp` performs the four
/// independent channel lerps of [`Rgba::lerp`] in one step with the
/// identical per-channel operation order (bit-identical results).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct F32x4(pub [f32; 4]);

impl F32x4 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0.0; 4]);

    /// Number of lanes.
    pub const LANES: usize = 4;

    /// Loads one color channel-major: lanes `[r, g, b, a]`.
    #[inline]
    #[must_use]
    pub const fn from_rgba(c: Rgba) -> Self {
        Self([c.r, c.g, c.b, c.a])
    }

    /// Stores the lanes back to a color.
    #[inline]
    #[must_use]
    pub const fn to_rgba(self) -> Rgba {
        Rgba::new(self.0[0], self.0[1], self.0[2], self.0[3])
    }

    /// Per-lane linear interpolation `self * (1 - t) + rhs * t` — the
    /// exact [`Rgba::lerp`] formula applied lane-wise, so results are
    /// bit-identical to the scalar kernel.
    #[inline]
    #[must_use]
    pub fn lerp(self, rhs: Self, t: f32) -> Self {
        Self(std::array::from_fn(|i| {
            self.0[i] * (1.0 - t) + rhs.0[i] * t
        }))
    }
}

impl Add for F32x4 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
}

impl Mul<f32> for F32x4 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f32) -> Self {
        Self(self.0.map(|v| v * rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_lerp_is_bit_identical_to_rgba_lerp() {
        // Awkward values that would expose any reassociation.
        let a = Rgba::new(0.1, 0.7, 1e-7, 0.33333334);
        let b = Rgba::new(0.9, 0.2, 3.0e6, 0.6666667);
        for t in [0.0, 0.125, 0.3, 0.5, 0.77, 1.0, 1.5, -0.25] {
            let scalar = a.lerp(b, t);
            let lanes = F32x4::from_rgba(a).lerp(F32x4::from_rgba(b), t).to_rgba();
            assert_eq!(scalar.r.to_bits(), lanes.r.to_bits());
            assert_eq!(scalar.g.to_bits(), lanes.g.to_bits());
            assert_eq!(scalar.b.to_bits(), lanes.b.to_bits());
            assert_eq!(scalar.a.to_bits(), lanes.a.to_bits());
        }
    }

    #[test]
    fn arithmetic_matches_rgba_ops() {
        let a = Rgba::new(0.1, 0.2, 0.3, 0.4);
        let b = Rgba::new(0.5, 0.6, 0.7, 0.8);
        let sum = (F32x4::from_rgba(a) + F32x4::from_rgba(b)).to_rgba();
        assert_eq!(sum, a + b);
        let scaled = (F32x4::from_rgba(a) * 2.5).to_rgba();
        assert_eq!(scaled, a * 2.5);
    }
}
