//! Texture filtering: point, bilinear, trilinear, anisotropic — in both
//! the conventional order and the A-TFIM reordered form.
//!
//! All filters are linear combinations of texels (the weighted average of
//! the paper's Eq. 1), which is why anisotropic averaging commutes with
//! the bilinear/trilinear blend (§V-B): the A-TFIM reorder first averages
//! each texel position along the anisotropy line (producing the "parent
//! texel" values), then applies the ordinary bilinear/trilinear weights.
//! Probe offsets are texel-aligned (integer steps along the major axis),
//! so every probe shares the same fractional weights and the identity is
//! exact up to floating-point rounding — `tests::reorder` and the
//! property tests check it.
//!
//! Every kernel here is the fast form: interior footprints skip the wrap
//! fold, texels unpack through the table of `PackedRgba::to_rgba`,
//! and colors ride the four lanes of an [`F32x4`] with the exact scalar
//! formula per channel. The scalar reference kernels they replaced live
//! on as test oracles (`oracle`); the tests assert bit-identical colors
//! and identical fetch sequences against them.

use crate::footprint::Footprint;
use crate::mipmap::MippedTexture;
use pimgfx_types::{F32x4, Rgba, Vec2};

/// Which filtering pipeline the sampler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FilterMode {
    /// Nearest texel of the nearest level (1 texel).
    Point,
    /// 2×2 kernel on one level (4 texels).
    Bilinear,
    /// 2×2 kernels on two levels, blended (8 texels).
    Trilinear,
    /// Trilinear probes along the major footprint axis (up to
    /// `ratio × 8` texels), the full pipeline of Fig. 3.
    #[default]
    Anisotropic,
}

/// One texel read performed by a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TexelFetch {
    /// Texel column in its level.
    pub x: u32,
    /// Texel row in its level.
    pub y: u32,
    /// Mip level.
    pub level: u8,
}

/// The output of one texture sample: the filtered color plus the fetch
/// trace the timing layer replays.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleTrace {
    /// Filtered RGBA result.
    pub color: Rgba,
    /// Every texel (deduplicated) the filter touched. Under the A-TFIM
    /// split these are the *parent* texels fetched by the GPU.
    pub fetches: Vec<TexelFetch>,
    /// Texels the conventional pipeline would have fetched for the same
    /// footprint (parents × anisotropy ratio). Equal to `fetches.len()`
    /// when anisotropy is 1. Under A-TFIM the difference is serviced
    /// internally in the HMC as *child* texels.
    pub conventional_texels: u32,
    /// The anisotropy ratio actually applied.
    pub aniso_ratio: u32,
}

/// A sink for the texel reads a filter performs.
///
/// A filter calls [`FetchSink::record`] once per texel read, repeats
/// included, in its fixed read order; the sink keeps what it needs in
/// **first-occurrence order**. The plain `Vec<TexelFetch>` (linear-scan
/// dedup) and [`FetchSet`] (hashed dedup with reusable storage) keep
/// the distinct fetches and record the same trace. The simulator's
/// replay passes a sink that keeps only the distinct cache lines: a
/// repeated texel maps to a line already kept, so its line list equals
/// the deduplicated lines of the deduplicated trace.
pub trait FetchSink {
    /// Takes one texel read.
    fn record(&mut self, fetch: TexelFetch);
}

impl FetchSink for Vec<TexelFetch> {
    fn record(&mut self, fetch: TexelFetch) {
        if !self.contains(&fetch) {
            self.push(fetch);
        }
    }
}

/// A reusable deduplicating fetch recorder with O(1) membership tests.
///
/// Functionally equivalent to recording into a `Vec<TexelFetch>` (same
/// fetches, same first-occurrence order — asserted by unit tests), but
/// the membership test is an open-addressed probe instead of a linear
/// scan, and [`FetchSet::clear`] retains the allocation, so a sampler
/// loop touches the allocator only while warming up.
#[derive(Debug, Clone)]
pub struct FetchSet {
    /// Open-addressed table of `(generation, index-into-fetches)` slots;
    /// a slot is live only when its generation matches the current one,
    /// which makes `clear` O(1) instead of a table wipe.
    slots: Vec<(u32, u32)>,
    generation: u32,
    fetches: Vec<TexelFetch>,
}

impl Default for FetchSet {
    fn default() -> Self {
        Self::new()
    }
}

impl FetchSet {
    /// Initial slot count (power of two; grows by rehashing at 50% load).
    const INITIAL_SLOTS: usize = 256;

    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            slots: vec![(0, 0); Self::INITIAL_SLOTS],
            generation: 1,
            fetches: Vec::with_capacity(64),
        }
    }

    /// Forgets all recorded fetches but keeps the allocations.
    pub fn clear(&mut self) {
        self.fetches.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation wrapped: stale slots could alias. Wipe once
            // every 2^32 clears.
            self.slots.iter_mut().for_each(|s| *s = (0, 0));
            self.generation = 1;
        }
    }

    /// The recorded fetches, in first-occurrence order.
    pub fn fetches(&self) -> &[TexelFetch] {
        &self.fetches
    }

    /// Number of distinct fetches recorded.
    pub fn len(&self) -> usize {
        self.fetches.len()
    }

    /// True when nothing has been recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.fetches.is_empty()
    }

    /// Fibonacci-hash slot index for a fetch.
    fn hash(fetch: &TexelFetch, mask: u64) -> usize {
        let key = (u64::from(fetch.x) << 32) ^ (u64::from(fetch.y) << 8) ^ u64::from(fetch.level);
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32 & mask) as usize
    }

    /// Doubles the table and re-inserts every live fetch.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        self.slots = vec![(0, 0); new_len];
        let mask = (new_len - 1) as u64;
        for (i, f) in self.fetches.iter().enumerate() {
            let mut slot = Self::hash(f, mask);
            while self.slots[slot].0 == self.generation {
                slot = (slot + 1) & mask as usize;
            }
            self.slots[slot] = (self.generation, i as u32);
        }
    }
}

impl FetchSink for FetchSet {
    fn record(&mut self, fetch: TexelFetch) {
        if self.fetches.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = (self.slots.len() - 1) as u64;
        let mut slot = Self::hash(&fetch, mask);
        loop {
            let (gen, idx) = self.slots[slot];
            if gen != self.generation {
                self.slots[slot] = (self.generation, self.fetches.len() as u32);
                self.fetches.push(fetch);
                return;
            }
            if self.fetches[idx as usize] == fetch {
                return;
            }
            slot = (slot + 1) & mask as usize;
        }
    }
}

/// Reads one texel with wrap applied, without recording a fetch — for
/// texel reads that happen *inside* an averaging unit (A-TFIM child
/// reads) and are accounted as internal traffic, not as fetch-trace
/// entries. A coordinate inside the image skips the wrap fold, which is
/// the identity there.
#[inline]
pub fn texel_at(tex: &MippedTexture, x: i64, y: i64, level: usize) -> Rgba {
    let img = tex.level(level);
    if x >= 0 && y >= 0 && x < i64::from(img.width()) && y < i64::from(img.height()) {
        return img.texel(x as u32, y as u32);
    }
    let wrap = tex.wrap();
    img.texel(wrap.wrap(x, img.width()), wrap.wrap(y, img.height()))
}

/// Bilinear 2×2 weights for a uv position (in texels of `level`).
/// Returns the integer corner and the fractional weights.
fn bilinear_setup(uv_texels: Vec2) -> (i64, i64, f32, f32) {
    // Texel centers are at integer + 0.5.
    let px = uv_texels.x - 0.5;
    let py = uv_texels.y - 0.5;
    let x0 = px.floor();
    let y0 = py.floor();
    (x0 as i64, y0 as i64, px - x0, py - y0)
}

/// Wraps the bilinear corner columns `x0, x0 + 1` (or rows) of a level
/// of size `n`: one fold, then the successor via
/// [`WrapMode::wrap_succ`](crate::WrapMode::wrap_succ).
#[inline]
fn wrap_pair(tex: &MippedTexture, x0: i64, n: u32) -> [u32; 2] {
    let wrap = tex.wrap();
    let w0 = wrap.wrap(x0, n);
    [w0, wrap.wrap_succ(w0, x0, n)]
}

/// Point-samples the nearest texel.
pub fn point(tex: &MippedTexture, uv: Vec2, level: usize, fetches: &mut impl FetchSink) -> Rgba {
    let img = tex.level(level);
    let wrap = tex.wrap();
    let x = wrap.wrap((uv.x * img.width() as f32).floor() as i64, img.width());
    let y = wrap.wrap((uv.y * img.height() as f32).floor() as i64, img.height());
    fetches.record(TexelFetch {
        x,
        y,
        level: level as u8,
    });
    img.texel(x, y)
}

/// Bilinear 2×2 filter on one level. `uv` is normalized [0,1) texture
/// space; `offset` shifts the sample in integer texels of that level (the
/// anisotropic probe step). Records the fetches in `t00 t10 t01 t11`
/// order.
pub fn bilinear_at(
    tex: &MippedTexture,
    uv: Vec2,
    level: usize,
    offset: (i64, i64),
    fetches: &mut impl FetchSink,
) -> Rgba {
    let img = tex.level(level);
    let uv_texels = Vec2::new(uv.x * img.width() as f32, uv.y * img.height() as f32);
    let (x0, y0, fx, fy) = bilinear_setup(uv_texels);
    let (x0, y0) = (x0 + offset.0, y0 + offset.1);
    let interior =
        x0 >= 0 && y0 >= 0 && x0 + 1 < i64::from(img.width()) && y0 + 1 < i64::from(img.height());
    let [t00, t10, t01, t11] = if interior {
        let (x, y) = (x0 as u32, y0 as u32);
        let level = level as u8;
        fetches.record(TexelFetch { x, y, level });
        fetches.record(TexelFetch { x: x + 1, y, level });
        fetches.record(TexelFetch { x, y: y + 1, level });
        fetches.record(TexelFetch {
            x: x + 1,
            y: y + 1,
            level,
        });
        img.gather2x2(x, y)
    } else {
        // Border: fold each axis once and derive the `+1` neighbor —
        // two `rem_euclid` divisions instead of eight.
        let [wx0, wx1] = wrap_pair(tex, x0, img.width());
        let [wy0, wy1] = wrap_pair(tex, y0, img.height());
        let level8 = level as u8;
        let mut tap = |x: u32, y: u32| {
            fetches.record(TexelFetch {
                x,
                y,
                level: level8,
            });
            img.texel(x, y)
        };
        [tap(wx0, wy0), tap(wx1, wy0), tap(wx0, wy1), tap(wx1, wy1)]
    };
    let top = F32x4::from_rgba(t00).lerp(F32x4::from_rgba(t10), fx);
    let bot = F32x4::from_rgba(t01).lerp(F32x4::from_rgba(t11), fx);
    top.lerp(bot, fy).to_rgba()
}

/// Bilinear filter without a probe offset.
pub fn bilinear(tex: &MippedTexture, uv: Vec2, level: usize, fetches: &mut impl FetchSink) -> Rgba {
    bilinear_at(tex, uv, level, (0, 0), fetches)
}

/// Trilinear filter: bilinear on two adjacent levels blended by the
/// fractional LOD.
pub fn trilinear(tex: &MippedTexture, uv: Vec2, lod: f32, fetches: &mut impl FetchSink) -> Rgba {
    let fp = Footprint {
        lod,
        aniso_ratio: 1,
        major_axis: Vec2::new(1.0, 0.0),
        major_len: 0.0,
    };
    let (fine, coarse, w) = fp.mip_levels(tex.max_level());
    let c_fine = bilinear(tex, uv, fine, fetches);
    if coarse == fine || w == 0.0 {
        return c_fine;
    }
    let c_coarse = bilinear(tex, uv, coarse, fetches);
    c_fine.lerp(c_coarse, w)
}

/// Integer texel probe offsets along the major axis for an `n`-probe
/// anisotropic kernel at `level_scale`, written into `out` (cleared
/// first). Offsets are symmetric around zero and texel-aligned so all
/// probes share bilinear weights (see module docs).
pub fn probe_offsets_into(fp: &Footprint, n: u32, level_scale: f32, out: &mut Vec<(i64, i64)>) {
    out.clear();
    let (n, step) = probe_plan(fp, n, level_scale);
    out.extend((0..n).map(|i| probe_offset(fp, n, step, i)));
}

/// The offset of the first probe of the kernel [`probe_offsets_into`]
/// builds: the one farthest from the center. Probe offsets are
/// symmetric, and each component's magnitude grows with the probe's
/// distance from the middle through the f32 multiply and `round` (and
/// through any later truncating division), so every offset is zero
/// exactly when this one is.
pub fn probe_extent(fp: &Footprint, n: u32, level_scale: f32) -> (i64, i64) {
    let (n, step) = probe_plan(fp, n, level_scale);
    probe_offset(fp, n, step, 0)
}

/// Span-capped probe count and texel step shared by every probe-offset
/// builder, so the cap policy cannot drift between them.
fn probe_plan(fp: &Footprint, n: u32, level_scale: f32) -> (u32, f32) {
    // Probes span the major axis; step ≈ major_len / n, in texels of the
    // addressed level (coarser levels shrink the footprint by 2^level).
    let span = fp.major_len * level_scale;
    // Texel-aligned probes cannot step finer than one texel, so more
    // probes than the span has texels would overshoot the footprint
    // (over-blurring magnified surfaces whose minor axis is sub-texel).
    // Hardware drops the excess probes; so do we.
    let n = n.max(1).min((span.ceil() as u32).max(1));
    let step = (span / n as f32).max(1.0);
    (n, step)
}

/// The `i`-th of `n` centered, texel-aligned probe offsets.
#[inline]
fn probe_offset(fp: &Footprint, n: u32, step: f32, i: u32) -> (i64, i64) {
    let centered = i as f32 - (n as f32 - 1.0) / 2.0;
    let d = fp.major_axis * (centered * step);
    (d.x.round() as i64, d.y.round() as i64)
}

/// Conventional anisotropic filter (Fig. 7A): `ratio` trilinear probes
/// along the major axis, averaged. This is the baseline / B-PIM order:
/// bilinear → trilinear → anisotropic.
pub fn anisotropic_conventional(
    tex: &MippedTexture,
    uv: Vec2,
    fp: &Footprint,
    fetches: &mut impl FetchSink,
) -> Rgba {
    let (fine, coarse, w) = fp.mip_levels(tex.max_level());
    // Probe offsets are computed in fine-level texels and halved (with
    // rounding) for the coarse level, staying texel-aligned on both.
    // The effective probe count may be smaller than the nominal ratio
    // (span-capped), so the average divides by the *actual* count.
    let fine_scale = 1.0 / (1u32 << fine.min(31)) as f32;
    let (n, step) = probe_plan(fp, fp.aniso_ratio, fine_scale);
    let two_level = coarse != fine && w != 0.0;
    let mut acc = F32x4::ZERO;
    for i in 0..n {
        let (dx, dy) = probe_offset(fp, n, step, i);
        let c_fine = bilinear_at(tex, uv, fine, (dx, dy), fetches);
        let c = if two_level {
            let c_coarse = bilinear_at(tex, uv, coarse, (dx / 2, dy / 2), fetches);
            c_fine.lerp(c_coarse, w)
        } else {
            c_fine
        };
        acc = acc + F32x4::from_rgba(c);
    }
    (acc * (1.0 / n.max(1) as f32)).to_rgba()
}

/// A-TFIM reordered anisotropic filter (Fig. 7B): for each of the 8
/// parent texel positions, average the `ratio` child texels along the
/// major axis *first* (this happens in the HMC logic layer), then run the
/// ordinary bilinear/trilinear blend over the averaged parents on the
/// GPU.
///
/// `parent_fetches` receives the 8 parent positions (what crosses the
/// external link); `child_reads` counts the texel reads done internally.
pub fn anisotropic_reordered(
    tex: &MippedTexture,
    uv: Vec2,
    fp: &Footprint,
    parent_fetches: &mut impl FetchSink,
    child_reads: &mut u64,
) -> Rgba {
    let (fine, coarse, w) = fp.mip_levels(tex.max_level());
    let fine_scale = 1.0 / (1u32 << fine.min(31)) as f32;
    let (n, step) = probe_plan(fp, fp.aniso_ratio, fine_scale);

    // The averaged parent at each of the four bilinear corners of `level`.
    let mut level_parents = |level: usize, div: i64| -> (F32x4, F32x4, F32x4, F32x4, f32, f32) {
        let img = tex.level(level);
        let uv_texels = Vec2::new(uv.x * img.width() as f32, uv.y * img.height() as f32);
        let (x0, y0, fx, fy) = bilinear_setup(uv_texels);
        let xs = wrap_pair(tex, x0, img.width());
        let ys = wrap_pair(tex, y0, img.height());
        let mut corners = [F32x4::ZERO; 4];
        for (ci, (cx, cy)) in CORNERS.into_iter().enumerate() {
            let mut acc = F32x4::ZERO;
            for i in 0..n {
                let (dx, dy) = probe_offset(fp, n, step, i);
                // Child reads happen inside the averaging unit: they are
                // counted, not recorded as external fetches.
                acc = acc
                    + F32x4::from_rgba(texel_at(
                        tex,
                        x0 + cx + dx / div,
                        y0 + cy + dy / div,
                        level,
                    ));
                *child_reads += 1;
            }
            corners[ci] = acc * (1.0 / n as f32);
            // The *parent* fetch recorded on the GPU side is the
            // unshifted corner texel.
            parent_fetches.record(TexelFetch {
                x: xs[cx as usize],
                y: ys[cy as usize],
                level: level as u8,
            });
        }
        (corners[0], corners[1], corners[2], corners[3], fx, fy)
    };

    let (t00, t10, t01, t11, fx, fy) = level_parents(fine, 1);
    let c_fine = t00.lerp(t10, fx).lerp(t01.lerp(t11, fx), fy);
    if coarse == fine || w == 0.0 {
        return c_fine.to_rgba();
    }
    let (s00, s10, s01, s11, gx, gy) = level_parents(coarse, 2);
    let c_coarse = s00.lerp(s10, gx).lerp(s01.lerp(s11, gx), gy);
    c_fine.lerp(c_coarse, w).to_rgba()
}

/// Bilinear corner offsets in `t00 t10 t01 t11` order.
const CORNERS: [(i64, i64); 4] = [(0, 0), (1, 0), (0, 1), (1, 1)];

/// Returns the 2×2 bilinear corner anchor (unwrapped, possibly negative)
/// and the fractional weights for sampling `uv` on `level`. The four
/// corners are `(x0, y0)`, `(x0+1, y0)`, `(x0, y0+1)`, `(x0+1, y0+1)`.
///
/// Exposed so the A-TFIM fragment pipeline can identify parent texels
/// without re-deriving the filter's coordinate conventions.
pub fn bilinear_corners(tex: &MippedTexture, uv: Vec2, level: usize) -> (i64, i64, f32, f32) {
    let img = tex.level(level);
    let uv_texels = Vec2::new(uv.x * img.width() as f32, uv.y * img.height() as f32);
    bilinear_setup(uv_texels)
}

/// Reads the raw texels of a 2×2 bilinear footprint with the probes of an
/// anisotropic kernel pre-averaged — the arithmetic the A-TFIM
/// Combination Unit performs per parent texel. Exposed for the PIM crate.
pub fn average_children(
    tex: &MippedTexture,
    base_x: i64,
    base_y: i64,
    level: usize,
    offsets: &[(i64, i64)],
) -> Rgba {
    let mut acc = F32x4::ZERO;
    for &(dx, dy) in offsets {
        acc = acc + F32x4::from_rgba(texel_at(tex, base_x + dx, base_y + dy, level));
    }
    (acc * (1.0 / offsets.len().max(1) as f32)).to_rgba()
}

/// The scalar reference kernels the production kernels above replaced:
/// per-texel wrap folds, the division-based texel unpack, `Rgba`
/// arithmetic and `Vec`-built probe offsets. They exist only as test
/// oracles — every production kernel must match its twin here bit for
/// bit, color and fetch order alike.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{bilinear_setup, probe_offset, probe_plan, FetchSink, TexelFetch};
    use crate::footprint::Footprint;
    use crate::mipmap::MippedTexture;
    use pimgfx_types::{Rgba, Vec2};

    /// Scalar twin of [`super::texel_at`].
    pub fn texel_at(tex: &MippedTexture, x: i64, y: i64, level: usize) -> Rgba {
        let img = tex.level(level);
        let wrap = tex.wrap();
        img.texel(wrap.wrap(x, img.width()), wrap.wrap(y, img.height()))
    }

    fn read_texel(
        tex: &MippedTexture,
        x: i64,
        y: i64,
        level: usize,
        fetches: &mut impl FetchSink,
    ) -> Rgba {
        let img = tex.level(level);
        let wrap = tex.wrap();
        let wx = wrap.wrap(x, img.width());
        let wy = wrap.wrap(y, img.height());
        fetches.record(TexelFetch {
            x: wx,
            y: wy,
            level: level as u8,
        });
        img.texel(wx, wy)
    }

    /// Scalar twin of [`super::point`].
    pub fn point(
        tex: &MippedTexture,
        uv: Vec2,
        level: usize,
        fetches: &mut impl FetchSink,
    ) -> Rgba {
        let img = tex.level(level);
        let x = (uv.x * img.width() as f32).floor() as i64;
        let y = (uv.y * img.height() as f32).floor() as i64;
        read_texel(tex, x, y, level, fetches)
    }

    /// Scalar twin of [`super::bilinear_at`].
    pub fn bilinear_at(
        tex: &MippedTexture,
        uv: Vec2,
        level: usize,
        offset: (i64, i64),
        fetches: &mut impl FetchSink,
    ) -> Rgba {
        let img = tex.level(level);
        let uv_texels = Vec2::new(uv.x * img.width() as f32, uv.y * img.height() as f32);
        let (x0, y0, fx, fy) = bilinear_setup(uv_texels);
        let (x0, y0) = (x0 + offset.0, y0 + offset.1);
        let t00 = read_texel(tex, x0, y0, level, fetches);
        let t10 = read_texel(tex, x0 + 1, y0, level, fetches);
        let t01 = read_texel(tex, x0, y0 + 1, level, fetches);
        let t11 = read_texel(tex, x0 + 1, y0 + 1, level, fetches);
        t00.lerp(t10, fx).lerp(t01.lerp(t11, fx), fy)
    }

    /// Scalar twin of [`super::trilinear`].
    pub fn trilinear(
        tex: &MippedTexture,
        uv: Vec2,
        lod: f32,
        fetches: &mut impl FetchSink,
    ) -> Rgba {
        let fp = Footprint {
            lod,
            aniso_ratio: 1,
            major_axis: Vec2::new(1.0, 0.0),
            major_len: 0.0,
        };
        let (fine, coarse, w) = fp.mip_levels(tex.max_level());
        let c_fine = bilinear_at(tex, uv, fine, (0, 0), fetches);
        if coarse == fine || w == 0.0 {
            return c_fine;
        }
        let c_coarse = bilinear_at(tex, uv, coarse, (0, 0), fetches);
        c_fine.lerp(c_coarse, w)
    }

    /// The probe offsets as a fresh `Vec`.
    pub fn probe_offsets(fp: &Footprint, n: u32, level_scale: f32) -> Vec<(i64, i64)> {
        let (n, step) = probe_plan(fp, n, level_scale);
        (0..n).map(|i| probe_offset(fp, n, step, i)).collect()
    }

    /// Scalar twin of [`super::anisotropic_conventional`].
    pub fn anisotropic_conventional(
        tex: &MippedTexture,
        uv: Vec2,
        fp: &Footprint,
        fetches: &mut impl FetchSink,
    ) -> Rgba {
        let (fine, coarse, w) = fp.mip_levels(tex.max_level());
        let mut acc = Rgba::TRANSPARENT;
        let fine_scale = 1.0 / (1u32 << fine.min(31)) as f32;
        let offsets = probe_offsets(fp, fp.aniso_ratio, fine_scale);
        for &(dx, dy) in &offsets {
            let c_fine = bilinear_at(tex, uv, fine, (dx, dy), fetches);
            let c = if coarse == fine || w == 0.0 {
                c_fine
            } else {
                let c_coarse = bilinear_at(tex, uv, coarse, (dx / 2, dy / 2), fetches);
                c_fine.lerp(c_coarse, w)
            };
            acc += c;
        }
        acc * (1.0 / offsets.len().max(1) as f32)
    }

    /// Scalar twin of [`super::anisotropic_reordered`].
    pub fn anisotropic_reordered(
        tex: &MippedTexture,
        uv: Vec2,
        fp: &Footprint,
        parent_fetches: &mut impl FetchSink,
        child_reads: &mut u64,
    ) -> Rgba {
        let (fine, coarse, w) = fp.mip_levels(tex.max_level());
        let fine_scale = 1.0 / (1u32 << fine.min(31)) as f32;
        let offsets = probe_offsets(fp, fp.aniso_ratio, fine_scale);
        let n = offsets.len() as u32;
        let mut level_parents = |level: usize, div: i64| -> (Rgba, Rgba, Rgba, Rgba, f32, f32) {
            let img = tex.level(level);
            let uv_texels = Vec2::new(uv.x * img.width() as f32, uv.y * img.height() as f32);
            let (x0, y0, fx, fy) = bilinear_setup(uv_texels);
            let mut corners = [Rgba::TRANSPARENT; 4];
            for (ci, (cx, cy)) in super::CORNERS.into_iter().enumerate() {
                let mut acc = Rgba::TRANSPARENT;
                for &(dx, dy) in &offsets {
                    acc += texel_at(tex, x0 + cx + dx / div, y0 + cy + dy / div, level);
                    *child_reads += 1;
                }
                corners[ci] = acc * (1.0 / n as f32);
                let wrap = tex.wrap();
                parent_fetches.record(TexelFetch {
                    x: wrap.wrap(x0 + cx, img.width()),
                    y: wrap.wrap(y0 + cy, img.height()),
                    level: level as u8,
                });
            }
            (corners[0], corners[1], corners[2], corners[3], fx, fy)
        };
        let (t00, t10, t01, t11, fx, fy) = level_parents(fine, 1);
        let c_fine = t00.lerp(t10, fx).lerp(t01.lerp(t11, fx), fy);
        if coarse == fine || w == 0.0 {
            return c_fine;
        }
        let (s00, s10, s01, s11, gx, gy) = level_parents(coarse, 2);
        let c_coarse = s00.lerp(s10, gx).lerp(s01.lerp(s11, gx), gy);
        c_fine.lerp(c_coarse, w)
    }

    /// Scalar twin of [`super::average_children`].
    pub fn average_children(
        tex: &MippedTexture,
        base_x: i64,
        base_y: i64,
        level: usize,
        offsets: &[(i64, i64)],
    ) -> Rgba {
        let mut acc = Rgba::TRANSPARENT;
        for &(dx, dy) in offsets {
            acc += texel_at(tex, base_x + dx, base_y + dy, level);
        }
        acc * (1.0 / offsets.len().max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::TextureImage;

    fn gradient_tex() -> MippedTexture {
        MippedTexture::with_full_chain(TextureImage::from_fn(16, 16, |x, y| {
            Rgba::new(x as f32 / 15.0, y as f32 / 15.0, 0.5, 1.0)
        }))
    }

    fn checker_tex() -> MippedTexture {
        MippedTexture::with_full_chain(TextureImage::from_fn(32, 32, |x, y| {
            if (x / 2 + y / 2) % 2 == 0 {
                Rgba::WHITE
            } else {
                Rgba::BLACK
            }
        }))
    }

    #[test]
    fn point_fetches_one_texel() {
        let tex = gradient_tex();
        let mut f = Vec::new();
        let c = point(&tex, Vec2::new(0.5, 0.5), 0, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(
            f[0],
            TexelFetch {
                x: 8,
                y: 8,
                level: 0
            }
        );
        assert!((c.r - 8.0 / 15.0).abs() < 1e-6);
    }

    #[test]
    fn bilinear_fetches_four_texels() {
        let tex = gradient_tex();
        let mut f = Vec::new();
        let _ = bilinear(&tex, Vec2::new(0.5, 0.5), 0, &mut f);
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn bilinear_at_texel_center_returns_texel() {
        let tex = gradient_tex();
        let mut f = Vec::new();
        // Texel (4,7) center = ((4+0.5)/16, (7+0.5)/16).
        let c = bilinear(&tex, Vec2::new(4.5 / 16.0, 7.5 / 16.0), 0, &mut f);
        let want = tex.level(0).texel(4, 7);
        assert!(c.max_channel_diff(want) < 1e-5);
    }

    #[test]
    fn bilinear_interpolates_midpoints() {
        let tex = gradient_tex();
        let mut f = Vec::new();
        // Halfway between texel 4 and 5 in x.
        let c = bilinear(&tex, Vec2::new(5.0 / 16.0, 7.5 / 16.0), 0, &mut f);
        let want = (tex.level(0).texel(4, 7).r + tex.level(0).texel(5, 7).r) / 2.0;
        assert!((c.r - want).abs() < 1e-5);
    }

    #[test]
    fn trilinear_fetches_eight_and_blends() {
        let tex = checker_tex();
        let mut f = Vec::new();
        let c0 = trilinear(&tex, Vec2::new(0.5, 0.5), 0.0, &mut f);
        assert_eq!(f.len(), 4, "integral lod only reads one level");
        f.clear();
        let c_half = trilinear(&tex, Vec2::new(0.5, 0.5), 0.5, &mut f);
        assert_eq!(f.len(), 8);
        f.clear();
        let c1 = trilinear(&tex, Vec2::new(0.5, 0.5), 1.0, &mut f);
        // Blend sits between the two level colors.
        let lo = c0.r.min(c1.r) - 1e-5;
        let hi = c0.r.max(c1.r) + 1e-5;
        assert!(c_half.r >= lo && c_half.r <= hi);
    }

    #[test]
    fn trilinear_clamps_lod_to_chain() {
        let tex = gradient_tex(); // 5 levels (16..1)
        let mut f = Vec::new();
        let c = trilinear(&tex, Vec2::new(0.5, 0.5), 99.0, &mut f);
        let top = tex.level(tex.level_count() - 1).texel(0, 0);
        assert!(c.max_channel_diff(top) < 1e-5);
    }

    #[test]
    fn conventional_aniso_texel_count_scales_with_ratio() {
        let tex = checker_tex();
        let fp = Footprint::from_derivatives(Vec2::new(4.0, 0.0), Vec2::new(0.0, 1.0), 16);
        assert_eq!(fp.aniso_ratio, 4);
        let mut f = Vec::new();
        let _ = anisotropic_conventional(&tex, Vec2::new(0.5, 0.5), &fp, &mut f);
        // 4 probes × up to 8 texels, minus overlap dedup: strictly more
        // than a single trilinear.
        assert!(f.len() > 8, "got {}", f.len());
    }

    #[test]
    fn probe_offsets_are_centered() {
        let fp = Footprint::from_derivatives(Vec2::new(8.0, 0.0), Vec2::new(0.0, 1.0), 16);
        let mut offs = Vec::new();
        probe_offsets_into(&fp, fp.aniso_ratio, 1.0, &mut offs);
        assert_eq!(offs.len(), 8);
        let sum_x: i64 = offs.iter().map(|o| o.0).sum();
        assert_eq!(sum_x, 0, "offsets are symmetric");
        assert!(offs.iter().all(|o| o.1 == 0), "x-major axis keeps y fixed");
    }

    /// §V-B of the paper: the reordered filter must produce the same
    /// color as the conventional order.
    #[test]
    fn reorder_preserves_color() {
        let tex = checker_tex();
        for (dx, dy) in [(8.0, 1.0), (4.0, 0.5), (16.0, 2.0), (2.0, 2.0)] {
            let fp = Footprint::from_derivatives(Vec2::new(dx, 0.0), Vec2::new(0.0, dy), 16);
            for uv in [
                Vec2::new(0.5, 0.5),
                Vec2::new(0.13, 0.77),
                Vec2::new(0.99, 0.01),
            ] {
                let mut f1 = Vec::new();
                let conv = anisotropic_conventional(&tex, uv, &fp, &mut f1);
                let mut f2 = Vec::new();
                let mut children = 0;
                let reord = anisotropic_reordered(&tex, uv, &fp, &mut f2, &mut children);
                assert!(
                    conv.max_channel_diff(reord) < 1e-4,
                    "reorder mismatch at {uv:?} fp {fp:?}: {conv:?} vs {reord:?}"
                );
            }
        }
    }

    #[test]
    fn reordered_parent_fetch_is_eight_texels() {
        let tex = checker_tex();
        let fp = Footprint::from_derivatives(Vec2::new(8.0, 0.0), Vec2::new(0.0, 1.0), 16);
        let mut parents = Vec::new();
        let mut children = 0;
        let _ = anisotropic_reordered(&tex, Vec2::new(0.4, 0.6), &fp, &mut parents, &mut children);
        assert!(parents.len() <= 8, "at most 2 levels × 4 corners");
        assert!(parents.len() >= 4);
        // Children: ratio probes per corner, over one or two levels
        // (an integral LOD reads a single level).
        let per_level = u64::from(fp.aniso_ratio) * 4;
        assert!(
            children == per_level || children == 2 * per_level,
            "children = {children}, per_level = {per_level}"
        );
    }

    #[test]
    fn ratio_one_reorder_equals_trilinear() {
        let tex = gradient_tex();
        let fp = Footprint::from_derivatives(Vec2::new(2.0, 0.0), Vec2::new(0.0, 2.0), 16);
        assert_eq!(fp.aniso_ratio, 1);
        let uv = Vec2::new(0.3, 0.7);
        let mut f = Vec::new();
        let tri = trilinear(&tex, uv, fp.lod, &mut f);
        let mut p = Vec::new();
        let mut ch = 0;
        let re = anisotropic_reordered(&tex, uv, &fp, &mut p, &mut ch);
        assert!(tri.max_channel_diff(re) < 1e-5);
    }

    #[test]
    fn average_children_averages() {
        let tex = gradient_tex();
        let avg = average_children(&tex, 4, 4, 0, &[(0, 0), (2, 0)]);
        let a = tex.level(0).texel(4, 4);
        let b = tex.level(0).texel(6, 4);
        assert!((avg.r - (a.r + b.r) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn fetches_are_deduplicated() {
        let tex = gradient_tex();
        let mut f = Vec::new();
        // Same sample twice: no duplicate records.
        let _ = bilinear(&tex, Vec2::new(0.5, 0.5), 0, &mut f);
        let _ = bilinear(&tex, Vec2::new(0.5, 0.5), 0, &mut f);
        assert_eq!(f.len(), 4);
    }

    /// [`FetchSet`] must be observationally identical to `Vec` dedup:
    /// same fetches, same first-occurrence order, across heavy aniso
    /// kernels that exercise growth and collisions.
    #[test]
    fn fetch_set_matches_vec_dedup_order() {
        let tex = checker_tex();
        let mut vec_sink = Vec::new();
        let mut set_sink = FetchSet::new();
        for (dx, dy) in [(16.0, 1.0), (8.0, 0.5), (4.0, 2.0)] {
            let fp = Footprint::from_derivatives(Vec2::new(dx, 0.0), Vec2::new(0.0, dy), 16);
            for uv in [
                Vec2::new(0.5, 0.5),
                Vec2::new(0.13, 0.77),
                Vec2::new(0.99, 0.01),
                Vec2::new(0.25, 0.25),
            ] {
                let c_vec = anisotropic_conventional(&tex, uv, &fp, &mut vec_sink);
                let c_set = anisotropic_conventional(&tex, uv, &fp, &mut set_sink);
                assert_eq!(c_vec, c_set);
            }
        }
        assert_eq!(vec_sink.as_slice(), set_sink.fetches());
    }

    /// `clear` must forget fetches without leaking stale entries into
    /// the next use (generation mechanism).
    #[test]
    fn fetch_set_clear_resets_membership() {
        let tex = gradient_tex();
        let mut set = FetchSet::new();
        let _ = bilinear(&tex, Vec2::new(0.5, 0.5), 0, &mut set);
        assert_eq!(set.len(), 4);
        set.clear();
        assert!(set.is_empty());
        let _ = bilinear(&tex, Vec2::new(0.5, 0.5), 0, &mut set);
        assert_eq!(set.len(), 4, "cleared set re-records the same fetches");
    }

    #[test]
    fn fetch_set_grows_past_initial_slots() {
        let mut set = FetchSet::new();
        let mut vec = Vec::new();
        for i in 0..1000u32 {
            let f = TexelFetch {
                x: i % 37,
                y: i / 37,
                level: (i % 3) as u8,
            };
            set.record(f);
            vec.record(f);
        }
        assert_eq!(vec.as_slice(), set.fetches());
    }

    #[test]
    fn probe_offsets_into_matches_probe_offsets() {
        let fp = Footprint::from_derivatives(Vec2::new(8.0, 0.0), Vec2::new(0.0, 1.0), 16);
        let mut scratch = vec![(9i64, 9i64); 3]; // stale garbage must be cleared
        probe_offsets_into(&fp, fp.aniso_ratio, 1.0, &mut scratch);
        assert_eq!(scratch, oracle::probe_offsets(&fp, fp.aniso_ratio, 1.0));
    }

    /// UV positions that exercise interior footprints, all four borders
    /// (where the wrap fold is live), and out-of-range coordinates.
    fn lane_test_uvs() -> Vec<Vec2> {
        vec![
            Vec2::new(0.5, 0.5),
            Vec2::new(0.13, 0.77),
            Vec2::new(0.0, 0.0),
            Vec2::new(0.99, 0.01),
            Vec2::new(0.01, 0.99),
            Vec2::new(1.0, 1.0),
            Vec2::new(-0.2, 0.4),
            Vec2::new(0.4, 1.3),
        ]
    }

    fn assert_rgba_bits_eq(a: Rgba, b: Rgba, ctx: &str) {
        assert_eq!(a.r.to_bits(), b.r.to_bits(), "r differs: {ctx}");
        assert_eq!(a.g.to_bits(), b.g.to_bits(), "g differs: {ctx}");
        assert_eq!(a.b.to_bits(), b.b.to_bits(), "b differs: {ctx}");
        assert_eq!(a.a.to_bits(), b.a.to_bits(), "a differs: {ctx}");
    }

    /// The bilinear kernel must match its scalar oracle bit-for-bit —
    /// color AND recorded fetch sequence — on interior and border
    /// footprints alike.
    #[test]
    fn bilinear_bit_identical_to_oracle() {
        for tex in [gradient_tex(), checker_tex()] {
            for uv in lane_test_uvs() {
                for level in [0usize, 1, 2] {
                    for offset in [(0i64, 0i64), (3, 0), (-2, 1), (40, -40)] {
                        let mut fs = Vec::new();
                        let s = oracle::bilinear_at(&tex, uv, level, offset, &mut fs);
                        let mut fl = Vec::new();
                        let l = bilinear_at(&tex, uv, level, offset, &mut fl);
                        assert_rgba_bits_eq(s, l, &format!("{uv:?} L{level} {offset:?}"));
                        assert_eq!(fs, fl, "fetch trace differs at {uv:?} L{level}");
                    }
                }
                let (mut fs, mut fl) = (Vec::new(), Vec::new());
                let s = oracle::point(&tex, uv, 1, &mut fs);
                let l = point(&tex, uv, 1, &mut fl);
                assert_rgba_bits_eq(s, l, &format!("point {uv:?}"));
                assert_eq!(fs, fl);
            }
        }
    }

    #[test]
    fn trilinear_bit_identical_to_oracle() {
        let tex = checker_tex();
        for uv in lane_test_uvs() {
            for lod in [0.0f32, 0.4, 1.0, 2.7, 99.0] {
                let mut fs = Vec::new();
                let s = oracle::trilinear(&tex, uv, lod, &mut fs);
                let mut fl = Vec::new();
                let l = trilinear(&tex, uv, lod, &mut fl);
                assert_rgba_bits_eq(s, l, &format!("{uv:?} lod {lod}"));
                assert_eq!(fs, fl);
            }
        }
    }

    #[test]
    fn aniso_conventional_bit_identical_to_oracle() {
        for tex in [gradient_tex(), checker_tex()] {
            for (dx, dy) in [(8.0, 1.0), (4.0, 0.5), (16.0, 2.0), (2.0, 2.0), (1.0, 1.0)] {
                let fp = Footprint::from_derivatives(Vec2::new(dx, 0.0), Vec2::new(0.0, dy), 16);
                for uv in lane_test_uvs() {
                    let mut fs = Vec::new();
                    let s = oracle::anisotropic_conventional(&tex, uv, &fp, &mut fs);
                    let mut fl = Vec::new();
                    let l = anisotropic_conventional(&tex, uv, &fp, &mut fl);
                    assert_rgba_bits_eq(s, l, &format!("{uv:?} fp ({dx},{dy})"));
                    assert_eq!(fs, fl, "fetch trace differs at {uv:?} fp ({dx},{dy})");
                }
            }
        }
    }

    #[test]
    fn aniso_reordered_bit_identical_to_oracle() {
        for tex in [gradient_tex(), checker_tex()] {
            for (dx, dy) in [(8.0, 1.0), (4.0, 0.5), (2.0, 2.0)] {
                let fp = Footprint::from_derivatives(Vec2::new(dx, 0.0), Vec2::new(0.0, dy), 16);
                for uv in lane_test_uvs() {
                    let mut fs = Vec::new();
                    let mut cs = 0u64;
                    let s = oracle::anisotropic_reordered(&tex, uv, &fp, &mut fs, &mut cs);
                    let mut fl = Vec::new();
                    let mut cl = 0u64;
                    let l = anisotropic_reordered(&tex, uv, &fp, &mut fl, &mut cl);
                    assert_rgba_bits_eq(s, l, &format!("{uv:?} fp ({dx},{dy})"));
                    assert_eq!(fs, fl, "parent fetches differ");
                    assert_eq!(cs, cl, "child-read count differs");
                }
            }
        }
    }

    #[test]
    fn average_children_bit_identical_to_oracle() {
        let tex = checker_tex();
        let offsets = [(0i64, 0i64), (2, 0), (-3, 1), (50, -50)];
        for (bx, by) in [(4i64, 4i64), (0, 0), (-2, 31), (31, 31)] {
            for take in [1usize, 2, 4] {
                let s = oracle::average_children(&tex, bx, by, 0, &offsets[..take]);
                let l = average_children(&tex, bx, by, 0, &offsets[..take]);
                assert_rgba_bits_eq(s, l, &format!("base ({bx},{by}) n {take}"));
            }
        }
    }

    #[test]
    fn texel_at_bit_identical_to_oracle() {
        let tex = gradient_tex();
        for (x, y) in [(0i64, 0i64), (15, 15), (-1, 7), (16, 3), (-20, 40)] {
            for level in [0usize, 2] {
                let s = oracle::texel_at(&tex, x, y, level);
                let l = texel_at(&tex, x, y, level);
                assert_rgba_bits_eq(s, l, &format!("({x},{y}) L{level}"));
            }
        }
    }

    /// Footprint with a given major axis, length and ratio (the probe
    /// helpers read nothing else).
    fn axis_footprint(axis: Vec2, major_len: f32, aniso_ratio: u32) -> Footprint {
        Footprint {
            lod: 0.0,
            aniso_ratio,
            major_axis: axis,
            major_len,
        }
    }

    /// `probe_extent(..) / div == (0, 0)` must equal "every probe offset
    /// divided by `div` is zero" — the A-TFIM degenerate-kernel test —
    /// over seeded random footprints, single-probe and span-capped
    /// kernels, and NaN/∞ axes.
    #[test]
    fn probe_extent_decides_all_zero_offsets() {
        let mut rng = pimgfx_types::TinyRng::seed_from_u64(0x5eed_0e17);
        let mut cases: Vec<(Footprint, u32, f32)> = Vec::new();
        for _ in 0..4000 {
            let angle = rng.next_f32() * std::f32::consts::TAU;
            let axis = Vec2::new(angle.cos(), angle.sin());
            // Spans from sub-texel to many texels, so both the span cap
            // and the one-texel step floor are live.
            let len = rng.next_f32() * rng.next_f32() * 40.0;
            let ratio = 1 + (rng.next_u64() % 16) as u32;
            let scale = 1.0 / (1u32 << (rng.next_u64() % 5)) as f32;
            cases.push((axis_footprint(axis, len, ratio), ratio, scale));
        }
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for (axis, len) in [
                (Vec2::new(bad, 0.0), 8.0),
                (Vec2::new(0.6, bad), 8.0),
                (Vec2::new(1.0, 0.0), bad),
                (Vec2::new(bad, bad), bad),
            ] {
                for ratio in [1, 2, 7, 16] {
                    cases.push((axis_footprint(axis, len, ratio), ratio, 1.0));
                }
            }
        }
        // n = 1: the single probe sits on the center.
        cases.push((axis_footprint(Vec2::new(0.8, 0.6), 30.0, 1), 1, 1.0));
        let mut offsets = Vec::new();
        let (mut degenerate, mut live) = (0, 0);
        for (fp, n, scale) in cases {
            probe_offsets_into(&fp, n, scale, &mut offsets);
            let (ex, ey) = probe_extent(&fp, n, scale);
            for div in [1i64, 2] {
                let scan = offsets.iter().all(|&(x, y)| (x / div, y / div) == (0, 0));
                let fast = (ex / div, ey / div) == (0, 0);
                assert_eq!(scan, fast, "{fp:?} n {n} scale {scale} div {div}");
                if scan {
                    degenerate += 1;
                } else {
                    live += 1;
                }
            }
        }
        assert!(degenerate > 100 && live > 100, "{degenerate} / {live}");
    }
}
