//! Mip-chain generation and mipmapped textures.
//!
//! Mipmaps are pre-computed, progressively half-resolution versions of a
//! texture. Trilinear and anisotropic filtering blend between adjacent
//! levels; the mip pyramid is also what keeps the texel footprint of a
//! minified texture bounded.

use crate::image::{TextureImage, WrapMode};
use pimgfx_types::{PackedRgba, TextureId};

/// A texture together with its full mip pyramid.
///
/// Level 0 is the base image; each further level is a 2×2 box-filtered
/// half-resolution reduction, down to 1×1.
///
/// # Examples
///
/// ```
/// use pimgfx_texture::{MippedTexture, TextureImage};
/// use pimgfx_types::Rgba;
///
/// let base = TextureImage::filled(8, 4, Rgba::WHITE);
/// let tex = MippedTexture::with_full_chain(base);
/// assert_eq!(tex.level_count(), 4); // 8x4, 4x2, 2x1, 1x1
/// assert_eq!(tex.level(3).width(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MippedTexture {
    id: TextureId,
    levels: Vec<TextureImage>,
    wrap: WrapMode,
}

impl MippedTexture {
    /// Builds the full mip chain from a base image by repeated 2×2 box
    /// filtering.
    pub fn with_full_chain(base: TextureImage) -> Self {
        let mut levels = vec![base];
        while let Some(last) = levels.last() {
            if last.width() <= 1 && last.height() <= 1 {
                break;
            }
            let next = downsample(last);
            levels.push(next);
        }
        Self {
            id: TextureId::new(0),
            levels,
            wrap: WrapMode::Repeat,
        }
    }

    /// Wraps an explicit chain of levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or a level is not (roughly) half the
    /// previous one in each dimension.
    pub fn from_levels(levels: Vec<TextureImage>) -> Self {
        assert!(!levels.is_empty(), "a texture needs at least one level");
        for w in levels.windows(2) {
            let expect_w = (w[0].width() / 2).max(1);
            let expect_h = (w[0].height() / 2).max(1);
            assert_eq!(
                (w[1].width(), w[1].height()),
                (expect_w, expect_h),
                "mip levels must halve each dimension"
            );
        }
        Self {
            id: TextureId::new(0),
            levels,
            wrap: WrapMode::Repeat,
        }
    }

    /// Returns the texture with a specific identifier (used to derive its
    /// simulated memory addresses).
    pub fn with_id(mut self, id: TextureId) -> Self {
        self.id = id;
        self
    }

    /// Returns the texture with a specific wrap mode.
    pub fn with_wrap(mut self, wrap: WrapMode) -> Self {
        self.wrap = wrap;
        self
    }

    /// The texture identifier.
    pub fn id(&self) -> TextureId {
        self.id
    }

    /// The wrap mode applied on sampling.
    pub fn wrap(&self) -> WrapMode {
        self.wrap
    }

    /// Number of mip levels (≥ 1).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Mip level `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= level_count()`.
    pub fn level(&self, l: usize) -> &TextureImage {
        &self.levels[l]
    }

    /// The highest valid level index.
    pub fn max_level(&self) -> f32 {
        (self.levels.len() - 1) as f32
    }

    /// Base-level width in texels.
    pub fn width(&self) -> u32 {
        self.levels[0].width()
    }

    /// Base-level height in texels.
    pub fn height(&self) -> u32 {
        self.levels[0].height()
    }

    /// Total texel count across all levels (storage footprint).
    pub fn total_texels(&self) -> u64 {
        self.levels.iter().map(|l| l.texel_count() as u64).sum()
    }
}

/// 2×2 box-filter reduction (averaging), with edge replication for odd
/// dimensions. Walks the destination row by row over the two source
/// rows it reads.
fn downsample(src: &TextureImage) -> TextureImage {
    let w = (src.width() / 2).max(1);
    let h = (src.height() / 2).max(1);
    let last_y = src.height() - 1;
    let mut texels = Vec::with_capacity(w as usize * h as usize);
    for y in 0..h {
        let top = src.row((2 * y).min(last_y));
        let bottom = src.row((2 * y + 1).min(last_y));
        if src.width() == 1 {
            texels.push(average4(top[0], top[0], bottom[0], bottom[0]));
        } else {
            // Column pairs `(2x, 2x + 1)`; an odd width's last column
            // falls outside every pair, as `2x + 1 < width` for `x < w`.
            let pairs = top.chunks_exact(2).zip(bottom.chunks_exact(2));
            texels.extend(pairs.map(|(t, b)| average4(t[0], t[1], b[0], b[1])));
        }
    }
    TextureImage::from_texels(w, h, texels)
}

/// The channel-wise mean of four texels, rounded half up: `(a + b + c +
/// d + 2) / 4` per channel. That is exactly the byte the float box filter
/// `((a + b + c + d) * 0.25).to_packed()` over unpacked channels gives,
/// for every one of the 2³² channel quadruples
/// (`tests::integer_average_matches_float_oracle_for_every_quadruple`).
fn average4(a: PackedRgba, b: PackedRgba, c: PackedRgba, d: PackedRgba) -> PackedRgba {
    let mean = |a: u8, b: u8, c: u8, d: u8| {
        ((u16::from(a) + u16::from(b) + u16::from(c) + u16::from(d) + 2) / 4) as u8
    };
    PackedRgba::new(
        mean(a.r, b.r, c.r, d.r),
        mean(a.g, b.g, c.g, d.g),
        mean(a.b, b.b, c.b, d.b),
        mean(a.a, b.a, c.a, d.a),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_types::{Rgba, TinyRng};

    /// The per-texel reduction the row-wise one replaced: division
    /// unpack, one closure call per destination texel. The oracle for
    /// `downsample`.
    fn downsample_oracle(src: &TextureImage) -> TextureImage {
        let unpack = |x: u32, y: u32| {
            let p = src.row(y)[x as usize];
            Rgba::new(
                f32::from(p.r) / 255.0,
                f32::from(p.g) / 255.0,
                f32::from(p.b) / 255.0,
                f32::from(p.a) / 255.0,
            )
        };
        let w = (src.width() / 2).max(1);
        let h = (src.height() / 2).max(1);
        TextureImage::from_fn(w, h, |x, y| {
            let x0 = (2 * x).min(src.width() - 1);
            let y0 = (2 * y).min(src.height() - 1);
            let x1 = (2 * x + 1).min(src.width() - 1);
            let y1 = (2 * y + 1).min(src.height() - 1);
            (unpack(x0, y0) + unpack(x1, y0) + unpack(x0, y1) + unpack(x1, y1)) * 0.25
        })
    }

    /// The float box filter sums four unpacked channels left to right,
    /// scales by 0.25 and packs. Its partial sums are enumerated once per
    /// distinct (float value, integer channel sum) state, which covers
    /// all 2³² quadruples in a few hundred thousand additions; each
    /// final state's float byte must equal `average4` on a quadruple
    /// that reaches it.
    #[test]
    fn integer_average_matches_float_oracle_for_every_quadruple() {
        use std::collections::BTreeMap;
        let unpack = |v: u8| f32::from(v) / 255.0;
        let mut states: BTreeMap<(u32, u16), Vec<u8>> = (0..=255u8)
            .map(|v| ((unpack(v).to_bits(), u16::from(v)), vec![v]))
            .collect();
        for _ in 0..3 {
            let mut next = BTreeMap::new();
            for ((x, sum), quad) in &states {
                for v in 0..=255u8 {
                    let key = (
                        (f32::from_bits(*x) + unpack(v)).to_bits(),
                        sum + u16::from(v),
                    );
                    next.entry(key).or_insert_with(|| {
                        let mut q = quad.clone();
                        q.push(v);
                        q
                    });
                }
            }
            states = next;
        }
        for ((x, sum), q) in states {
            let float = Rgba::gray(f32::from_bits(x) * 0.25).to_packed().r;
            let texel = |v: u8| PackedRgba::new(v, v, v, v);
            let int = average4(texel(q[0]), texel(q[1]), texel(q[2]), texel(q[3]));
            assert_eq!(int.r, float, "channels {q:?} (sum {sum})");
        }
    }

    /// Full chains of seeded random images, square and not, even and
    /// odd, equal the oracle's chain level by level, texel by texel.
    #[test]
    fn downsample_matches_division_oracle_on_odd_and_non_square_chains() {
        let dims = [
            (1, 1),
            (1, 7),
            (7, 1),
            (2, 3),
            (5, 5),
            (33, 17),
            (17, 33),
            (64, 64),
            (100, 37),
        ];
        let mut rng = TinyRng::seed_from_u64(0x0a1c_e5ed);
        for (w, h) in dims {
            let texels = (0..w * h)
                .map(|_| PackedRgba::from_u32(rng.next_u64() as u32))
                .collect();
            let tex = MippedTexture::with_full_chain(TextureImage::from_texels(w, h, texels));
            let mut want = tex.level(0).clone();
            for l in 1..tex.level_count() {
                want = downsample_oracle(&want);
                assert_eq!(tex.level(l), &want, "{w}x{h} level {l}");
            }
            assert_eq!(want.width() * want.height(), 1, "{w}x{h} chain stops early");
        }
    }

    #[test]
    fn full_chain_reaches_one_by_one() {
        let tex = MippedTexture::with_full_chain(TextureImage::filled(16, 16, Rgba::WHITE));
        assert_eq!(tex.level_count(), 5);
        assert_eq!(tex.level(4).width(), 1);
        assert_eq!(tex.level(4).height(), 1);
    }

    #[test]
    fn non_square_chain_halves_each_dimension() {
        let tex = MippedTexture::with_full_chain(TextureImage::filled(8, 2, Rgba::WHITE));
        let dims: Vec<_> = (0..tex.level_count())
            .map(|l| (tex.level(l).width(), tex.level(l).height()))
            .collect();
        assert_eq!(dims, vec![(8, 2), (4, 1), (2, 1), (1, 1)]);
    }

    #[test]
    fn downsample_averages_blocks() {
        let base = TextureImage::from_fn(2, 2, |x, y| {
            if x == 0 && y == 0 {
                Rgba::WHITE
            } else {
                Rgba::BLACK
            }
        });
        let tex = MippedTexture::with_full_chain(base);
        let top = tex.level(1).texel(0, 0);
        assert!((top.r - 0.25).abs() < 0.01);
    }

    #[test]
    fn constant_texture_stays_constant_across_levels() {
        let c = Rgba::new(0.2, 0.4, 0.6, 1.0);
        let tex = MippedTexture::with_full_chain(TextureImage::filled(32, 32, c));
        for l in 0..tex.level_count() {
            let t = tex.level(l).texel(0, 0);
            assert!(t.max_channel_diff(c) < 0.01, "level {l} drifted");
        }
    }

    #[test]
    fn total_texels_sums_pyramid() {
        let tex = MippedTexture::with_full_chain(TextureImage::filled(4, 4, Rgba::BLACK));
        // 16 + 4 + 1
        assert_eq!(tex.total_texels(), 21);
    }

    #[test]
    #[should_panic(expected = "halve")]
    fn from_levels_validates_chain() {
        let _ = MippedTexture::from_levels(vec![
            TextureImage::filled(8, 8, Rgba::BLACK),
            TextureImage::filled(3, 4, Rgba::BLACK),
        ]);
    }

    #[test]
    fn builder_setters() {
        let tex = MippedTexture::with_full_chain(TextureImage::filled(2, 2, Rgba::BLACK))
            .with_id(TextureId::new(7))
            .with_wrap(WrapMode::Clamp);
        assert_eq!(tex.id(), TextureId::new(7));
        assert_eq!(tex.wrap(), WrapMode::Clamp);
    }
}
