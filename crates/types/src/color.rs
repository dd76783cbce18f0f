//! RGBA colors in floating-point and packed 8-bit-per-channel forms.
//!
//! Texture filtering operates on [`Rgba`] (`f32` per channel, the
//! "four-component (RGBA) color" of the paper's Eq. 1); framebuffers and
//! texture storage use [`PackedRgba`] (32 bits per texel, matching the
//! 4-byte texel size assumed by the traffic model).

use std::ops::{Add, AddAssign, Mul};

/// A linear-space RGBA color with `f32` channels.
///
/// Channel values are nominally in `[0, 1]` but intermediate filtering
/// results may transiently leave that range; [`Rgba::clamped`] restores it.
///
/// # Examples
///
/// ```
/// use pimgfx_types::Rgba;
/// let a = Rgba::new(1.0, 0.0, 0.0, 1.0);
/// let b = Rgba::new(0.0, 0.0, 1.0, 1.0);
/// let mid = a.lerp(b, 0.5);
/// assert_eq!(mid, Rgba::new(0.5, 0.0, 0.5, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rgba {
    /// Red channel.
    pub r: f32,
    /// Green channel.
    pub g: f32,
    /// Blue channel.
    pub b: f32,
    /// Alpha channel.
    pub a: f32,
}

/// A packed 8-bit-per-channel RGBA color (one 32-bit texel / pixel).
///
/// # Examples
///
/// ```
/// use pimgfx_types::PackedRgba;
/// let px = PackedRgba::new(255, 128, 0, 255);
/// assert_eq!(px.to_u32(), 0xFF00_80FF);
/// assert_eq!(PackedRgba::from_u32(px.to_u32()), px);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PackedRgba {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
    /// Alpha channel.
    pub a: u8,
}

impl Rgba {
    /// Opaque black.
    pub const BLACK: Self = Self {
        r: 0.0,
        g: 0.0,
        b: 0.0,
        a: 1.0,
    };
    /// Opaque white.
    pub const WHITE: Self = Self {
        r: 1.0,
        g: 1.0,
        b: 1.0,
        a: 1.0,
    };
    /// Fully transparent black (the additive identity).
    pub const TRANSPARENT: Self = Self {
        r: 0.0,
        g: 0.0,
        b: 0.0,
        a: 0.0,
    };

    /// Creates a color from channels.
    #[inline]
    pub const fn new(r: f32, g: f32, b: f32, a: f32) -> Self {
        Self { r, g, b, a }
    }

    /// Creates an opaque gray with all color channels set to `v`.
    #[inline]
    pub const fn gray(v: f32) -> Self {
        Self {
            r: v,
            g: v,
            b: v,
            a: 1.0,
        }
    }

    /// Channel-wise linear interpolation: `self * (1 - t) + rhs * t`.
    ///
    /// This is the elementary operation of bilinear, trilinear, and
    /// anisotropic filtering.
    #[inline]
    pub fn lerp(self, rhs: Self, t: f32) -> Self {
        self * (1.0 - t) + rhs * t
    }

    /// Clamps every channel into `[0, 1]`.
    #[inline]
    pub fn clamped(self) -> Self {
        Self::new(
            self.r.clamp(0.0, 1.0),
            self.g.clamp(0.0, 1.0),
            self.b.clamp(0.0, 1.0),
            self.a.clamp(0.0, 1.0),
        )
    }

    /// Converts to packed 8-bit form with rounding and clamping.
    #[inline]
    pub fn to_packed(self) -> PackedRgba {
        #[inline]
        fn q(v: f32) -> u8 {
            (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u8
        }
        PackedRgba::new(q(self.r), q(self.g), q(self.b), q(self.a))
    }

    /// Maximum absolute channel difference against `rhs` (used by quality
    /// metrics and approximation tests).
    #[inline]
    pub fn max_channel_diff(self, rhs: Self) -> f32 {
        (self.r - rhs.r)
            .abs()
            .max((self.g - rhs.g).abs())
            .max((self.b - rhs.b).abs())
            .max((self.a - rhs.a).abs())
    }

    /// Channel-wise multiplication (modulation), e.g. lighting × texture.
    #[inline]
    pub fn modulate(self, rhs: Self) -> Self {
        Self::new(
            self.r * rhs.r,
            self.g * rhs.g,
            self.b * rhs.b,
            self.a * rhs.a,
        )
    }
}

/// 256-entry unpack table: `UNPACK[v]` holds exactly `v as f32 / 255.0`,
/// so table lookup and division produce bit-identical channels.
const UNPACK: [f32; 256] = {
    let mut t = [0.0f32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = i as f32 / 255.0;
        i += 1;
    }
    t
};

impl PackedRgba {
    /// Creates a packed color from 8-bit channels.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8, a: u8) -> Self {
        Self { r, g, b, a }
    }

    /// Unpacks to floating point channels in `[0, 1]`: each channel is
    /// `v as f32 / 255.0`, read from a 256-entry table of exactly those
    /// quotients (four L1-resident loads instead of four divisions).
    #[inline]
    pub fn to_rgba(self) -> Rgba {
        Rgba::new(
            UNPACK[self.r as usize],
            UNPACK[self.g as usize],
            UNPACK[self.b as usize],
            UNPACK[self.a as usize],
        )
    }

    /// Packs to a single `u32` as `0xAABBGGRR` (little-endian RGBA memory
    /// order).
    #[inline]
    pub const fn to_u32(self) -> u32 {
        (self.r as u32) | ((self.g as u32) << 8) | ((self.b as u32) << 16) | ((self.a as u32) << 24)
    }

    /// Inverse of [`PackedRgba::to_u32`].
    #[inline]
    pub const fn from_u32(v: u32) -> Self {
        Self {
            r: (v & 0xFF) as u8,
            g: ((v >> 8) & 0xFF) as u8,
            b: ((v >> 16) & 0xFF) as u8,
            a: ((v >> 24) & 0xFF) as u8,
        }
    }
}

impl Add for Rgba {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(
            self.r + rhs.r,
            self.g + rhs.g,
            self.b + rhs.b,
            self.a + rhs.a,
        )
    }
}

impl AddAssign for Rgba {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Mul<f32> for Rgba {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f32) -> Self {
        Self::new(self.r * rhs, self.g * rhs, self.b * rhs, self.a * rhs)
    }
}

impl From<PackedRgba> for Rgba {
    fn from(p: PackedRgba) -> Self {
        p.to_rgba()
    }
}

impl From<Rgba> for PackedRgba {
    fn from(c: Rgba) -> Self {
        c.to_packed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A packed color round-trips losslessly through `f32` and through
    /// `u32`: on the channel extremes and on 256 seeded colors.
    #[test]
    fn pack_roundtrip_is_nearly_lossless() {
        let mut colors: Vec<PackedRgba> = [0u8, 1, 127, 128, 254, 255]
            .iter()
            .map(|&v| PackedRgba::new(v, v, v, v))
            .collect();
        let mut rng = crate::TinyRng::seed_from_u64(0x05ee_0001);
        for _ in 0..256 {
            let mut channel = || rng.gen_range_u64(0, 256) as u8;
            colors.push(PackedRgba::new(channel(), channel(), channel(), channel()));
        }
        for p in colors {
            assert_eq!(p.to_rgba().to_packed(), p);
            assert_eq!(PackedRgba::from_u32(p.to_u32()), p);
        }
    }

    /// The division form the unpack table replaced, kept as the oracle
    /// the table is checked against.
    fn to_rgba_oracle(p: PackedRgba) -> Rgba {
        Rgba::new(
            f32::from(p.r) / 255.0,
            f32::from(p.g) / 255.0,
            f32::from(p.b) / 255.0,
            f32::from(p.a) / 255.0,
        )
    }

    #[test]
    fn fast_unpack_is_bit_identical_for_all_channel_values() {
        for v in 0..=255u8 {
            let p = PackedRgba::new(v, v.wrapping_add(1), v.wrapping_mul(3), 255 - v);
            let slow = to_rgba_oracle(p);
            let fast = p.to_rgba();
            assert_eq!(slow.r.to_bits(), fast.r.to_bits());
            assert_eq!(slow.g.to_bits(), fast.g.to_bits());
            assert_eq!(slow.b.to_bits(), fast.b.to_bits());
            assert_eq!(slow.a.to_bits(), fast.a.to_bits());
        }
    }

    #[test]
    fn u32_roundtrip() {
        let p = PackedRgba::new(0x12, 0x34, 0x56, 0x78);
        assert_eq!(PackedRgba::from_u32(p.to_u32()), p);
        assert_eq!(p.to_u32(), 0x7856_3412);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Rgba::BLACK;
        let b = Rgba::WHITE;
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.25), Rgba::new(0.25, 0.25, 0.25, 1.0));
    }

    #[test]
    fn clamp_restores_range() {
        let c = Rgba::new(-0.5, 1.5, 0.5, 2.0).clamped();
        assert_eq!(c, Rgba::new(0.0, 1.0, 0.5, 1.0));
    }

    #[test]
    fn to_packed_rounds() {
        // 0.5 * 255 = 127.5 rounds to 128.
        assert_eq!(Rgba::gray(0.5).to_packed().r, 128);
        // Out-of-range values clamp.
        assert_eq!(Rgba::gray(2.0).to_packed().r, 255);
        assert_eq!(Rgba::new(-1.0, 0.0, 0.0, 1.0).to_packed().r, 0);
    }

    /// Packing clamps, so a color clamped first packs to the same
    /// bits: the replay writes pixels without `clamped`. Checked on
    /// signed zeros, NaN, infinities, the clamp bounds and their ulp
    /// neighbours, and seeded values around `[0, 1]`.
    #[test]
    fn packing_a_clamped_color_changes_nothing() {
        let mut values = vec![
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.5,
        ];
        for v in [0.0f32, 1.0] {
            values.push(f32::from_bits(v.to_bits() + 1));
            values.push(-f32::from_bits(v.to_bits() + 1));
        }
        values.push(f32::from_bits(1.0f32.to_bits() - 1));
        let mut rng = crate::TinyRng::seed_from_u64(0x05ee_dc01);
        for _ in 0..20_000 {
            values.push(rng.next_f32() * 3.0 - 1.0);
        }
        for (i, &v) in values.iter().enumerate() {
            let w = values[(i * 7 + 3) % values.len()];
            let c = Rgba::new(v, w, -v, 1.0 - w);
            assert_eq!(c.clamped().to_packed(), c.to_packed(), "{c:?}");
        }
    }

    #[test]
    fn max_channel_diff_picks_largest() {
        let a = Rgba::new(0.1, 0.5, 0.9, 1.0);
        let b = Rgba::new(0.2, 0.1, 0.8, 1.0);
        assert!((a.max_channel_diff(b) - 0.4).abs() < 1e-6);
    }

    #[test]
    fn modulate_is_channelwise() {
        let a = Rgba::new(0.5, 1.0, 0.0, 1.0);
        let b = Rgba::new(1.0, 0.5, 0.7, 1.0);
        assert_eq!(a.modulate(b), Rgba::new(0.5, 0.5, 0.0, 1.0));
    }

    #[test]
    fn addition_identity() {
        let c = Rgba::new(0.3, 0.4, 0.5, 0.6);
        assert_eq!(c + Rgba::TRANSPARENT, c);
    }
}
