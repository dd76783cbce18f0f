//! Elliptical Weighted Average (EWA) reference filter.
//!
//! The paper's cost analysis of anisotropic filtering (§II-C) is based on
//! the EWA algorithm: the screen pixel's circular footprint maps to an
//! ellipse in texture space, and the filter integrates texels inside that
//! ellipse with a Gaussian falloff. Production hardware approximates EWA
//! with a line of bilinear/trilinear probes (what [`crate::filter`]
//! implements); this module provides the exact elliptical integral as a
//! *quality reference*, so the probe approximation — and A-TFIM's
//! approximation of the approximation — can be compared against ground
//! truth.

use crate::filter::texel_at;
use crate::footprint::Footprint;
use crate::mipmap::MippedTexture;
use pimgfx_types::{F32x4, Rgba, Vec2};

/// Maximum texels one EWA evaluation may visit (a safety valve for
/// degenerate, screen-sized ellipses).
const MAX_TEXELS: u32 = 4096;

/// Filters `tex` at `uv` with a true elliptical weighted average over the
/// footprint defined by the derivative vectors (in base-level texels).
///
/// Returns the filtered color and the number of texels integrated.
/// The integral runs on the mip level selected by the footprint's minor
/// axis, like the hardware filter, so the two are directly comparable.
///
/// The ellipse-membership test `Q = A dx² + B dx dy + C dy²` runs for
/// [`F32x4::LANES`] consecutive texels per step — each lane applies the
/// scalar expression to its own `dx`, so the accepted texel set and the
/// Gaussian weights match a texel-at-a-time scan — and the weighted sum
/// rides an [`F32x4`] in scan order.
///
/// # Examples
///
/// ```
/// use pimgfx_texture::{ewa, MippedTexture, TextureImage};
/// use pimgfx_types::{Rgba, Vec2};
///
/// let tex = MippedTexture::with_full_chain(TextureImage::filled(64, 64, Rgba::WHITE));
/// let (color, texels) = ewa::filter(&tex, Vec2::new(0.5, 0.5), Vec2::new(8.0, 0.0), Vec2::new(0.0, 1.0), 16);
/// assert!(color.max_channel_diff(Rgba::WHITE) < 1e-3);
/// assert!(texels > 4, "an elongated ellipse integrates many texels");
/// ```
pub fn filter(
    tex: &MippedTexture,
    uv: Vec2,
    duv_dx: Vec2,
    duv_dy: Vec2,
    max_aniso: u32,
) -> (Rgba, u32) {
    let fp = Footprint::from_derivatives(duv_dx, duv_dy, max_aniso);
    let (level, _, _) = fp.mip_levels(tex.max_level());
    let scale = 1.0 / (1u32 << level.min(31)) as f32;

    let ax = duv_dx * scale;
    let ay = duv_dy * scale;
    let img = tex.level(level);
    let center = Vec2::new(
        uv.x * img.width() as f32 - 0.5,
        uv.y * img.height() as f32 - 0.5,
    );

    let mut a = ax.y * ax.y + ay.y * ay.y + 1.0;
    let mut b = -2.0 * (ax.x * ax.y + ay.x * ay.y);
    let mut c = ax.x * ax.x + ay.x * ay.x + 1.0;
    let f = a * c - b * b * 0.25;
    if f <= 0.0 {
        let x = center.x.round() as i64;
        let y = center.y.round() as i64;
        return (texel_at(tex, x, y, level), 1);
    }
    let inv_f = 1.0 / f;
    a *= inv_f;
    b *= inv_f;
    c *= inv_f;

    let half_w = (c / (a * c - b * b * 0.25)).sqrt();
    let half_h = (a / (a * c - b * b * 0.25)).sqrt();
    let x0 = (center.x - half_w).floor() as i64;
    let x1 = (center.x + half_w).ceil() as i64;
    let y0 = (center.y - half_h).floor() as i64;
    let y1 = (center.y + half_h).ceil() as i64;

    let mut acc = F32x4::ZERO;
    let mut weight_sum = 0.0f32;
    let mut texels = 0u32;
    let mut q_chunk = [0.0f32; F32x4::LANES];
    'scan: for ty in y0..=y1 {
        let dy = ty as f32 - center.y;
        let mut tx = x0;
        while tx <= x1 {
            // One chunk of Q values; the tail past x1 is padded with a
            // rejecting Q so it never accepts a texel.
            let chunk = ((x1 - tx + 1) as usize).min(F32x4::LANES);
            for (i, q) in q_chunk.iter_mut().enumerate() {
                if i < chunk {
                    let dx = (tx + i as i64) as f32 - center.x;
                    *q = a * dx * dx + b * dx * dy + c * dy * dy;
                } else {
                    *q = f32::INFINITY;
                }
            }
            // Accept lanes in scan order — identical accumulation order
            // to the scalar loop.
            for (i, &q) in q_chunk.iter().enumerate().take(chunk) {
                if q <= 1.0 {
                    let w = (-2.0 * q).exp();
                    let t = texel_at(tex, tx + i as i64, ty, level);
                    acc = acc + F32x4::from_rgba(t) * w;
                    weight_sum += w;
                    texels += 1;
                    if texels >= MAX_TEXELS {
                        break 'scan;
                    }
                }
            }
            tx += chunk as i64;
        }
    }
    if weight_sum <= 0.0 {
        let x = center.x.round() as i64;
        let y = center.y.round() as i64;
        return (texel_at(tex, x, y, level), 1);
    }
    ((acc * (1.0 / weight_sum)).to_rgba(), texels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::oracle;
    use crate::image::TextureImage;
    use crate::sampler::{Sampler, SamplerConfig};

    /// The texel-at-a-time scalar EWA the lane-chunked [`filter`] replaced.
    fn oracle_filter(
        tex: &MippedTexture,
        uv: Vec2,
        duv_dx: Vec2,
        duv_dy: Vec2,
        max_aniso: u32,
    ) -> (Rgba, u32) {
        let fp = Footprint::from_derivatives(duv_dx, duv_dy, max_aniso);
        let (level, _, _) = fp.mip_levels(tex.max_level());
        let scale = 1.0 / (1u32 << level.min(31)) as f32;

        // Footprint axes in texels of the chosen level.
        let ax = duv_dx * scale;
        let ay = duv_dy * scale;
        let img = tex.level(level);
        let center = Vec2::new(
            uv.x * img.width() as f32 - 0.5,
            uv.y * img.height() as f32 - 0.5,
        );

        // Implicit ellipse  A x² + B x y + C y² = F  from the Jacobian
        // (Heckbert's construction).
        let mut a = ax.y * ax.y + ay.y * ay.y + 1.0;
        let mut b = -2.0 * (ax.x * ax.y + ay.x * ay.y);
        let mut c = ax.x * ax.x + ay.x * ay.x + 1.0;
        let f = a * c - b * b * 0.25;
        if f <= 0.0 {
            // Degenerate: fall back to the nearest texel.
            let x = center.x.round() as i64;
            let y = center.y.round() as i64;
            return (oracle::texel_at(tex, x, y, level), 1);
        }
        // Normalize so the ellipse boundary is at Q = F.
        let inv_f = 1.0 / f;
        a *= inv_f;
        b *= inv_f;
        c *= inv_f;

        // Bounding box of the ellipse.
        let half_w = (c / (a * c - b * b * 0.25)).sqrt();
        let half_h = (a / (a * c - b * b * 0.25)).sqrt();
        let x0 = (center.x - half_w).floor() as i64;
        let x1 = (center.x + half_w).ceil() as i64;
        let y0 = (center.y - half_h).floor() as i64;
        let y1 = (center.y + half_h).ceil() as i64;

        let mut acc = Rgba::TRANSPARENT;
        let mut weight_sum = 0.0f32;
        let mut texels = 0u32;
        'scan: for ty in y0..=y1 {
            for tx in x0..=x1 {
                let dx = tx as f32 - center.x;
                let dy = ty as f32 - center.y;
                let q = a * dx * dx + b * dx * dy + c * dy * dy;
                if q <= 1.0 {
                    // Gaussian falloff over the elliptical radius.
                    let w = (-2.0 * q).exp();
                    acc += oracle::texel_at(tex, tx, ty, level) * w;
                    weight_sum += w;
                    texels += 1;
                    if texels >= MAX_TEXELS {
                        break 'scan;
                    }
                }
            }
        }
        if weight_sum <= 0.0 {
            let x = center.x.round() as i64;
            let y = center.y.round() as i64;
            return (oracle::texel_at(tex, x, y, level), 1);
        }
        (acc * (1.0 / weight_sum), texels)
    }

    fn gradient() -> MippedTexture {
        MippedTexture::with_full_chain(TextureImage::from_fn(64, 64, |x, y| {
            Rgba::new(x as f32 / 63.0, y as f32 / 63.0, 0.5, 1.0)
        }))
    }

    #[test]
    fn constant_texture_filters_to_constant() {
        let c = Rgba::new(0.3, 0.6, 0.9, 1.0);
        let tex = MippedTexture::with_full_chain(TextureImage::filled(32, 32, c));
        let (out, _) = filter(
            &tex,
            Vec2::new(0.4, 0.7),
            Vec2::new(6.0, 0.0),
            Vec2::new(0.0, 1.5),
            16,
        );
        assert!(out.max_channel_diff(c) < 0.02);
    }

    #[test]
    fn texel_count_grows_with_anisotropy() {
        let tex = gradient();
        let (_, iso) = filter(
            &tex,
            Vec2::new(0.5, 0.5),
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 1.0),
            16,
        );
        let (_, aniso) = filter(
            &tex,
            Vec2::new(0.5, 0.5),
            Vec2::new(12.0, 0.0),
            Vec2::new(0.0, 1.0),
            16,
        );
        assert!(
            aniso > iso,
            "elongated footprints integrate more texels: {aniso} vs {iso}"
        );
    }

    #[test]
    fn probe_filter_approximates_ewa() {
        // The hardware-style line-of-probes anisotropic filter should be
        // close to the EWA reference on smooth content — that is the
        // approximation GPUs (and the paper's cost model) rely on.
        let tex = gradient();
        let sampler = Sampler::new(SamplerConfig::default());
        for (dx, dy) in [(4.0f32, 1.0f32), (8.0, 1.0), (2.0, 2.0)] {
            let uv = Vec2::new(0.4, 0.6);
            let probes = sampler.sample(&tex, uv, Vec2::new(dx, 0.0), Vec2::new(0.0, dy));
            let (exact, _) = filter(&tex, uv, Vec2::new(dx, 0.0), Vec2::new(0.0, dy), 16);
            assert!(
                probes.color.max_channel_diff(exact) < 0.12,
                "probe vs EWA at ({dx},{dy}): {:?} vs {exact:?}",
                probes.color
            );
        }
    }

    #[test]
    fn degenerate_footprint_falls_back_to_point() {
        let tex = gradient();
        let (out, texels) = filter(&tex, Vec2::new(0.25, 0.25), Vec2::ZERO, Vec2::ZERO, 16);
        assert!(texels >= 1);
        let expect = tex.level(0).texel(15, 15);
        assert!(out.max_channel_diff(expect) < 0.1);
    }

    /// The lane-chunked EWA must reproduce the scalar oracle bit for
    /// bit: same accepted texel set, same weights, same accumulation
    /// order.
    #[test]
    fn filter_bit_identical_to_oracle() {
        let tex = gradient();
        for (dx, dy) in [
            (1.0f32, 1.0f32),
            (4.0, 1.0),
            (8.0, 1.0),
            (2.0, 2.0),
            (12.0, 0.5),
            (0.0, 0.0), // degenerate fallback
        ] {
            for uv in [
                Vec2::new(0.5, 0.5),
                Vec2::new(0.02, 0.97),
                Vec2::new(0.99, 0.01),
            ] {
                let (s, ns) = oracle_filter(&tex, uv, Vec2::new(dx, 0.0), Vec2::new(0.0, dy), 16);
                let (l, nl) = filter(&tex, uv, Vec2::new(dx, 0.0), Vec2::new(0.0, dy), 16);
                assert_eq!(ns, nl, "texel count differs at {uv:?} ({dx},{dy})");
                assert_eq!(s.r.to_bits(), l.r.to_bits(), "at {uv:?} ({dx},{dy})");
                assert_eq!(s.g.to_bits(), l.g.to_bits());
                assert_eq!(s.b.to_bits(), l.b.to_bits());
                assert_eq!(s.a.to_bits(), l.a.to_bits());
            }
        }
    }

    #[test]
    fn texel_budget_is_respected() {
        // A pathologically huge footprint must not integrate unboundedly.
        let tex = gradient();
        let (_, texels) = filter(
            &tex,
            Vec2::new(0.5, 0.5),
            Vec2::new(4000.0, 0.0),
            Vec2::new(0.0, 4000.0),
            16,
        );
        assert!(texels <= MAX_TEXELS);
    }
}
