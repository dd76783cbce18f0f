//! Sampler configuration and the user-facing sampling entry point.

use crate::filter::{
    anisotropic_conventional, anisotropic_reordered, bilinear, point, trilinear, FetchSet,
    FetchSink, FilterMode, SampleTrace, TexelFetch,
};
use crate::footprint::Footprint;
use crate::mipmap::MippedTexture;
use pimgfx_types::Vec2;

/// Sampler state: filter mode and anisotropy cap.
///
/// Matches the knobs the paper sweeps — `max_aniso = 1` reproduces the
/// "anisotropic filtering disabled" experiment of Fig. 4, and
/// `reordered = true` switches to the A-TFIM filtering order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Filtering pipeline to run.
    pub filter: FilterMode,
    /// Maximum anisotropy ratio (probes), ≥ 1. 16 is the paper's maximum.
    pub max_aniso: u32,
    /// When true, run anisotropic averaging *first* (the A-TFIM order of
    /// Fig. 7B); the sample trace then records parent fetches only.
    pub reordered: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            filter: FilterMode::Anisotropic,
            max_aniso: 16,
            reordered: false,
        }
    }
}

/// A stateless texture sampler.
///
/// # Examples
///
/// ```
/// use pimgfx_texture::{FilterMode, MippedTexture, Sampler, SamplerConfig, TextureImage};
/// use pimgfx_types::{Rgba, Vec2};
///
/// let tex = MippedTexture::with_full_chain(TextureImage::filled(16, 16, Rgba::WHITE));
/// let sampler = Sampler::new(SamplerConfig::default());
/// let s = sampler.sample(&tex, Vec2::new(0.5, 0.5), Vec2::new(0.5, 0.0), Vec2::new(0.0, 0.5));
/// assert!(s.color.max_channel_diff(Rgba::WHITE) < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampler {
    config: SamplerConfig,
}

/// The scalar half of a [`SampleTrace`]: everything [`Sampler::sample`]
/// returns except the fetch list, which [`Sampler::sample_into`] and
/// [`Sampler::sample_with`] leave in the caller's sink instead of a
/// fresh `Vec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleInfo {
    /// Filtered RGBA result.
    pub color: pimgfx_types::Rgba,
    /// Texels the conventional pipeline would have fetched (see
    /// [`SampleTrace::conventional_texels`]).
    pub conventional_texels: u32,
    /// The anisotropy ratio actually applied.
    pub aniso_ratio: u32,
}

/// Forwards every read to `inner` and counts the distinct texels among
/// the at most eight a point, bilinear or trilinear kernel reads.
struct CountDistinct<'a, S> {
    inner: &'a mut S,
    seen: [TexelFetch; 8],
    len: usize,
}

impl<S: FetchSink> FetchSink for CountDistinct<'_, S> {
    fn record(&mut self, fetch: TexelFetch) {
        if !self.seen[..self.len].contains(&fetch) {
            self.seen[self.len] = fetch;
            self.len += 1;
        }
        self.inner.record(fetch);
    }
}

impl Sampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: SamplerConfig) -> Self {
        Self {
            config: SamplerConfig {
                max_aniso: config.max_aniso.max(1),
                ..config
            },
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Computes the footprint this sampler would use for the given
    /// derivatives (taking the filter mode into account).
    pub fn footprint(&self, duv_dx: Vec2, duv_dy: Vec2) -> Footprint {
        let max_aniso = match self.config.filter {
            FilterMode::Anisotropic => self.config.max_aniso,
            _ => 1,
        };
        let fp = Footprint::from_derivatives(duv_dx, duv_dy, max_aniso);
        match self.config.filter {
            FilterMode::Anisotropic => fp,
            // Non-aniso modes widen the kernel to the major axis.
            _ => fp.isotropic(),
        }
    }

    /// Samples `tex` at normalized coordinates `uv` with screen-space
    /// derivatives given in *base-level texel units*.
    ///
    /// Returns the filtered color plus the texel-fetch trace used by the
    /// timing layer.
    pub fn sample(&self, tex: &MippedTexture, uv: Vec2, duv_dx: Vec2, duv_dy: Vec2) -> SampleTrace {
        let mut fetches = Vec::new();
        let info = self.sample_with(tex, uv, duv_dx, duv_dy, &mut fetches);
        SampleTrace {
            color: info.color,
            fetches,
            conventional_texels: info.conventional_texels,
            aniso_ratio: info.aniso_ratio,
        }
    }

    /// [`Sampler::sample`] writing its fetch trace into a caller-provided
    /// [`FetchSet`] (cleared first) instead of allocating a `Vec`. The
    /// recorded fetches and the returned scalars are identical to
    /// [`Sampler::sample`]'s.
    pub fn sample_into(
        &self,
        tex: &MippedTexture,
        uv: Vec2,
        duv_dx: Vec2,
        duv_dy: Vec2,
        fetches: &mut FetchSet,
    ) -> SampleInfo {
        fetches.clear();
        self.sample_with(tex, uv, duv_dx, duv_dy, fetches)
    }

    /// The one sampling pass behind [`Sampler::sample`] and
    /// [`Sampler::sample_into`]: runs the configured filter, handing
    /// every texel read to `sink`, and returns the color and texel
    /// counts. `conventional_texels` does not depend on the sink: the
    /// anisotropic modes count `ratio × 4 × levels` (or the A-TFIM child
    /// reads), the others their distinct texels.
    pub fn sample_with(
        &self,
        tex: &MippedTexture,
        uv: Vec2,
        duv_dx: Vec2,
        duv_dy: Vec2,
        sink: &mut impl FetchSink,
    ) -> SampleInfo {
        let fp = self.footprint(duv_dx, duv_dy);
        if self.config.filter != FilterMode::Anisotropic {
            let mut distinct = CountDistinct {
                inner: sink,
                seen: [TexelFetch {
                    x: 0,
                    y: 0,
                    level: 0,
                }; 8],
                len: 0,
            };
            let color = match self.config.filter {
                FilterMode::Point => {
                    point(tex, uv, fp.mip_levels(tex.max_level()).0, &mut distinct)
                }
                FilterMode::Bilinear => {
                    bilinear(tex, uv, fp.mip_levels(tex.max_level()).0, &mut distinct)
                }
                _ => trilinear(tex, uv, fp.lod, &mut distinct),
            };
            return SampleInfo {
                color,
                conventional_texels: distinct.len as u32,
                aniso_ratio: 1,
            };
        }
        if self.config.reordered {
            let mut children = 0;
            let color = anisotropic_reordered(tex, uv, &fp, sink, &mut children);
            return SampleInfo {
                color,
                conventional_texels: children as u32,
                aniso_ratio: fp.aniso_ratio,
            };
        }
        let color = anisotropic_conventional(tex, uv, &fp, sink);
        // ALU work is one read+MAC per probe texel, *including* re-reads
        // of texels shared between probes (the fetch list is
        // deduplicated for the memory side only). The span cap can only
        // drop probes, so this also bounds the distinct texel count.
        let (fine, coarse, w) = fp.mip_levels(tex.max_level());
        let levels = if coarse == fine || w == 0.0 { 1 } else { 2 };
        SampleInfo {
            color,
            conventional_texels: fp.aniso_ratio * 4 * levels,
            aniso_ratio: fp.aniso_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::oracle;
    use crate::image::{TextureImage, WrapMode};
    use pimgfx_types::Rgba;

    fn tex() -> MippedTexture {
        MippedTexture::with_full_chain(TextureImage::from_fn(32, 32, |x, y| {
            Rgba::new(x as f32 / 31.0, y as f32 / 31.0, 0.0, 1.0)
        }))
    }

    #[test]
    fn default_config_is_full_aniso() {
        let c = SamplerConfig::default();
        assert_eq!(c.filter, FilterMode::Anisotropic);
        assert_eq!(c.max_aniso, 16);
        assert!(!c.reordered);
    }

    #[test]
    fn max_aniso_is_clamped_to_one() {
        let s = Sampler::new(SamplerConfig {
            max_aniso: 0,
            ..SamplerConfig::default()
        });
        assert_eq!(s.config().max_aniso, 1);
    }

    #[test]
    fn non_aniso_modes_use_isotropic_footprint() {
        let s = Sampler::new(SamplerConfig {
            filter: FilterMode::Trilinear,
            ..SamplerConfig::default()
        });
        let fp = s.footprint(Vec2::new(8.0, 0.0), Vec2::new(0.0, 1.0));
        assert_eq!(fp.aniso_ratio, 1);
        assert!((fp.lod - 3.0).abs() < 1e-5, "widened to major axis");
    }

    #[test]
    fn sample_modes_have_expected_fetch_counts() {
        let t = tex();
        let uv = Vec2::new(0.37, 0.61);
        let dx = Vec2::new(1.3, 0.0);
        let dy = Vec2::new(0.0, 1.3);
        let count = |mode| {
            Sampler::new(SamplerConfig {
                filter: mode,
                ..SamplerConfig::default()
            })
            .sample(&t, uv, dx, dy)
            .fetches
            .len()
        };
        assert_eq!(count(FilterMode::Point), 1);
        assert_eq!(count(FilterMode::Bilinear), 4);
        assert!(count(FilterMode::Trilinear) <= 8);
        assert!(count(FilterMode::Trilinear) > 4);
    }

    #[test]
    fn reordered_sampling_matches_conventional_color() {
        let t = tex();
        let conv = Sampler::new(SamplerConfig::default());
        let reord = Sampler::new(SamplerConfig {
            reordered: true,
            ..SamplerConfig::default()
        });
        for (uv, dx, dy) in [
            (
                Vec2::new(0.5, 0.5),
                Vec2::new(6.0, 0.0),
                Vec2::new(0.0, 1.5),
            ),
            (
                Vec2::new(0.21, 0.83),
                Vec2::new(0.0, 12.0),
                Vec2::new(2.0, 0.0),
            ),
        ] {
            let a = conv.sample(&t, uv, dx, dy);
            let b = reord.sample(&t, uv, dx, dy);
            assert!(
                a.color.max_channel_diff(b.color) < 1e-4,
                "mismatch at {uv:?}: {:?} vs {:?}",
                a.color,
                b.color
            );
            // The reorder slashes external fetches.
            assert!(b.fetches.len() <= 8);
            assert!(a.fetches.len() >= b.fetches.len());
        }
    }

    #[test]
    fn reordered_trace_reports_children_as_conventional_texels() {
        let t = tex();
        let reord = Sampler::new(SamplerConfig {
            reordered: true,
            ..SamplerConfig::default()
        });
        let s = reord.sample(
            &t,
            Vec2::new(0.5, 0.5),
            Vec2::new(8.0, 0.0),
            Vec2::new(0.0, 1.0),
        );
        assert_eq!(s.aniso_ratio, 8);
        // ratio × 4 corners × (1 or 2 levels, depending on fractional LOD).
        assert!(s.conventional_texels == 8 * 4 || s.conventional_texels == 8 * 8);
    }

    #[test]
    fn sample_into_matches_sample_across_modes() {
        let t = tex();
        let mut set = FetchSet::new();
        for filter in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
            FilterMode::Anisotropic,
        ] {
            for reordered in [false, true] {
                let s = Sampler::new(SamplerConfig {
                    filter,
                    reordered,
                    ..SamplerConfig::default()
                });
                for (uv, dx, dy) in [
                    (
                        Vec2::new(0.37, 0.61),
                        Vec2::new(6.0, 0.0),
                        Vec2::new(0.0, 1.5),
                    ),
                    (
                        Vec2::new(0.9, 0.1),
                        Vec2::new(0.0, 12.0),
                        Vec2::new(2.0, 0.0),
                    ),
                ] {
                    let full = s.sample(&t, uv, dx, dy);
                    let info = s.sample_into(&t, uv, dx, dy, &mut set);
                    assert_eq!(full.color, info.color);
                    assert_eq!(full.conventional_texels, info.conventional_texels);
                    assert_eq!(full.aniso_ratio, info.aniso_ratio);
                    assert_eq!(full.fetches.as_slice(), set.fetches());
                }
            }
        }
    }

    /// One sampling case: texture index, uv, and the two derivatives.
    type Case = (usize, Vec2, Vec2, Vec2);

    /// Seeded random sampling cases: non-power-of-two textures under
    /// every wrap mode (down to 1×1 mips), positions past the borders,
    /// and derivatives from magnified to heavily minified, isotropic to
    /// grazing. Returns the textures and `(texture, uv, ddx, ddy)` cases.
    fn random_cases(seed: u64, count: usize) -> (Vec<MippedTexture>, Vec<Case>) {
        let mut rng = pimgfx_types::TinyRng::seed_from_u64(seed);
        let mut textures = Vec::new();
        for (w, h) in [(37u32, 23u32), (5, 64), (1, 1), (3, 1), (64, 64)] {
            for wrap in [WrapMode::Repeat, WrapMode::Clamp, WrapMode::Mirror] {
                let img = TextureImage::from_fn(w, h, |x, y| {
                    let v = (x * 7 + y * 13) % 17;
                    Rgba::new(
                        v as f32 / 16.0,
                        x as f32 / w as f32,
                        y as f32 / h as f32,
                        1.0,
                    )
                });
                textures.push(MippedTexture::with_full_chain(img).with_wrap(wrap));
            }
        }
        let cases = (0..count)
            .map(|_| {
                let t = (rng.next_u64() % textures.len() as u64) as usize;
                let uv = Vec2::new(rng.gen_range_f32(-0.3, 1.3), rng.gen_range_f32(-0.3, 1.3));
                let angle = rng.gen_range_f32(0.0, std::f32::consts::TAU);
                let major = rng.gen_range_f32(0.0, 6.0).exp2() * 0.25;
                let minor = major / rng.gen_range_f32(0.0, 5.0).exp2();
                let ddx = Vec2::new(angle.cos() * major, angle.sin() * major);
                let ddy = Vec2::new(-angle.sin() * minor, angle.cos() * minor);
                (t, uv, ddx, ddy)
            })
            .collect();
        (textures, cases)
    }

    /// The sampling pass as it ran on the scalar kernels.
    fn oracle_sample(
        s: &Sampler,
        tex: &MippedTexture,
        uv: Vec2,
        dx: Vec2,
        dy: Vec2,
    ) -> SampleTrace {
        let fp = s.footprint(dx, dy);
        let mut fetches = Vec::new();
        let (fine, coarse, w) = fp.mip_levels(tex.max_level());
        let (color, conventional_texels, aniso_ratio) = match s.config().filter {
            FilterMode::Point => {
                let c = oracle::point(tex, uv, fine, &mut fetches);
                (c, fetches.len() as u32, 1)
            }
            FilterMode::Bilinear => {
                let c = oracle::bilinear_at(tex, uv, fine, (0, 0), &mut fetches);
                (c, fetches.len() as u32, 1)
            }
            FilterMode::Trilinear => {
                let c = oracle::trilinear(tex, uv, fp.lod, &mut fetches);
                (c, fetches.len() as u32, 1)
            }
            FilterMode::Anisotropic if s.config().reordered => {
                let mut children = 0;
                let c = oracle::anisotropic_reordered(tex, uv, &fp, &mut fetches, &mut children);
                (c, children as u32, fp.aniso_ratio)
            }
            FilterMode::Anisotropic => {
                let c = oracle::anisotropic_conventional(tex, uv, &fp, &mut fetches);
                let levels = if coarse == fine || w == 0.0 { 1 } else { 2 };
                (c, fp.aniso_ratio * 4 * levels, fp.aniso_ratio)
            }
        };
        SampleTrace {
            color,
            fetches,
            conventional_texels,
            aniso_ratio,
        }
    }

    /// Every filter mode, both orders and both anisotropy caps, over
    /// seeded random cases: the sampler's colors (to the bit), fetch
    /// traces and texel counts equal the scalar oracle's, and the texel
    /// count bounds the distinct fetches (`ratio × 4 × levels` in the
    /// conventional anisotropic mode).
    #[test]
    fn sampler_matches_scalar_oracle() {
        let (textures, cases) = random_cases(0x0dd5_1ce5, 600);
        let bits = |c: Rgba| [c.r, c.g, c.b, c.a].map(f32::to_bits);
        let mut set = FetchSet::new();
        for filter in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
            FilterMode::Anisotropic,
        ] {
            for reordered in [false, true] {
                for max_aniso in [1, 16] {
                    let s = Sampler::new(SamplerConfig {
                        filter,
                        max_aniso,
                        reordered,
                    });
                    for &(t, uv, dx, dy) in &cases {
                        let tex = &textures[t];
                        let want = oracle_sample(&s, tex, uv, dx, dy);
                        let got = s.sample(tex, uv, dx, dy);
                        let ctx = format!("{filter:?} r={reordered} a={max_aniso} t{t} {uv:?}");
                        assert_eq!(bits(want.color), bits(got.color), "{ctx}");
                        assert_eq!(want.fetches, got.fetches, "{ctx}");
                        assert_eq!(want.conventional_texels, got.conventional_texels, "{ctx}");
                        assert_eq!(want.aniso_ratio, got.aniso_ratio, "{ctx}");
                        let info = s.sample_into(tex, uv, dx, dy, &mut set);
                        assert_eq!(info.conventional_texels, want.conventional_texels, "{ctx}");
                        assert_eq!(set.fetches(), want.fetches.as_slice(), "{ctx}");
                        assert!(info.conventional_texels as usize >= set.len(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn aniso_disabled_fetches_fewer_texels() {
        let t = tex();
        let on = Sampler::new(SamplerConfig::default());
        let off = Sampler::new(SamplerConfig {
            max_aniso: 1,
            ..SamplerConfig::default()
        });
        let uv = Vec2::new(0.5, 0.5);
        let dx = Vec2::new(16.0, 0.0);
        let dy = Vec2::new(0.0, 1.0);
        let s_on = on.sample(&t, uv, dx, dy);
        let s_off = off.sample(&t, uv, dx, dy);
        assert!(s_on.fetches.len() > s_off.fetches.len());
        assert_eq!(s_off.aniso_ratio, 1);
    }
}
