//! The per-design texture sampling path: functional color plus timing.
//!
//! This module is where the four designs actually diverge:
//!
//! * **Baseline / B-PIM** — the full conventional filter runs on the
//!   GPU texture unit; every texel line goes L1 → L2 → memory.
//! * **S-TFIM** — no GPU caches; texture requests ship to the MTUs in
//!   the logic layer as 64-byte packages and filtered textures come back
//!   as 80-byte responses.
//! * **A-TFIM** — the GPU fetches only the 8 parent texels per sample;
//!   cache lines carry camera-angle tags; misses are offloaded to the
//!   logic layer, which expands them into child texels internally. The
//!   functional side reuses *previously computed* parent values on
//!   angle-compatible hits — exactly the approximation whose quality
//!   Figs. 14–16 measure.
//!
//! Requests are issued at **fragment-quad granularity** (2×2 pixels):
//! the paper's texture units serve whole fragment tiles (§II-A), so one
//! S-TFIM request package or one A-TFIM offload package covers a quad,
//! not a single pixel.
//!
//! # Functional and timing halves
//!
//! Each quad passes through two steps. The **functional** step
//! (`TexFunctional::quad`) decides everything that does not depend on
//! simulated time: the colors, each conventional line's L1/L2 probe
//! outcome, and A-TFIM's angle-tagged probes, parent-value reuse and
//! recompute. The **timing** step (`TexTiming::sample_quad`) turns that
//! outcome into cycles on one design's hardware: texture units, memory
//! reads, MTU requests, offload packages. Cache state evolves in walk
//! order whatever the clock says, so configurations that differ only in
//! timing can share one functional half and feed each of their timing
//! halves from it — a replay group (see [`crate::sim`]). A simulator
//! holds one of each.

use crate::backend::MemoryBackend;
use crate::config::SimConfig;
use crate::design::Design;
use crate::lanepre::{ChunkRecords, Cursor, Filler};
use crate::parent_store::ParentStore;
use crate::stats::TextureStats;
use crate::texunit::TextureUnits;
use pimgfx_engine::trace::StageTrace;
use pimgfx_engine::{Cycle, Duration};
use pimgfx_mem::{packet, MemRequest, MemorySystem, TrafficClass};
use pimgfx_pim::{AtfimLogicLayer, MtuBank, OffloadUnit, ParentFetchBatch, TextureRequest};
use pimgfx_raster::Fragment;
use pimgfx_texture::{
    filter, CacheOutcome, Footprint, MippedTexture, Sampler, SamplerConfig, TextureCache,
    TextureLayout,
};
use pimgfx_types::{Radians, Result, Rgba, Vec2};
use std::ops::Range;

/// Latency of an L1 texture-cache hit, cycles.
const L1_HIT_CYCLES: u64 = 1;
/// Latency of an L2 texture-cache hit, cycles.
const L2_HIT_CYCLES: u64 = 8;

/// An inline list of cache-line addresses, capacity 8 — a fragment's
/// parent texels are at most 4 bilinear corners × 2 mip levels, so the
/// per-fragment A-TFIM line sets never heap-allocate.
#[derive(Debug, Clone, Copy, Default)]
struct LineList {
    lines: [u64; 8],
    len: u8,
}

impl LineList {
    fn push(&mut self, line: u64) {
        debug_assert!(usize::from(self.len) < self.lines.len());
        self.lines[usize::from(self.len)] = line;
        self.len += 1;
    }

    fn as_slice(&self) -> &[u64] {
        &self.lines[..usize::from(self.len)]
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The functional half of the texture path: the sampler, the L1s and
/// the L2, and A-TFIM's parent-value store — everything that decides a
/// fragment's color and its cache outcomes, and nothing that takes
/// time. A replay group shares one.
#[derive(Debug)]
pub(crate) struct TexFunctional {
    design: Design,
    sampler: Sampler,
    angle_threshold: Radians,
    /// Conventional and S-TFIM quads: whether the GPU caches are probed.
    /// Off when no design fed from this half has them (S-TFIM alone).
    probe: bool,
    /// A design fed from this half is S-TFIM: phase 1 records each
    /// quad's request lines.
    stfim: bool,
    l1: Vec<TextureCache>,
    l2: TextureCache,
    /// A-TFIM functional store: last computed value and camera angle per
    /// parent texel, blocked by texture-cache line.
    parents: ParentStore,
    /// The counters the functional step decides: samples, texel counts,
    /// the anisotropy histogram and the cache probes.
    stats: TextureStats,
    /// Probe offsets of the anisotropic kernel an A-TFIM parent
    /// recompute averages over.
    offsets: Vec<(i64, i64)>,
}

/// The timing half of the texture path: the GPU texture units and the
/// logic-layer units a design adds — S-TFIM's MTU banks, A-TFIM's logic
/// layers and offload unit. Each member of a replay group has its own.
#[derive(Debug)]
pub(crate) struct TexTiming {
    design: Design,
    units: TextureUnits,
    /// S-TFIM MTU banks, one per HMC cube.
    mtus: Option<Vec<MtuBank>>,
    /// A-TFIM logic layers, one per HMC cube.
    atfim: Option<Vec<AtfimLogicLayer>>,
    offload: OffloadUnit,
    /// Bytes per texel line on the wire (64 raw; 16 under block
    /// compression).
    line_bytes: u32,
    /// Request lines of one S-TFIM quad, or the parent lines of one
    /// A-TFIM offload batch: lent to the request and handed back, so
    /// steady state does not allocate.
    batch_lines: Vec<u64>,
    /// The counters the timing step decides: latency, texels filtered
    /// on the GPU, offload packages and child reads.
    stats: TextureStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeOutcome {
    L1Hit,
    L2Hit,
    Miss,
}

/// What the functional step decided for one quad; every timing half of
/// a replay group reads it.
#[derive(Debug, Default)]
pub(crate) struct QuadOutcome {
    /// The quad's fragments in the chunk records.
    frags: Range<usize>,
    /// The quad's index in the chunk records.
    quad: usize,
    /// A-TFIM: per fragment, its filtered color (the other designs'
    /// colors are in the chunk records).
    colors: Vec<Rgba>,
    /// Conventional: per fragment, the latest hit latency among its
    /// lines (zero when none hit) and the end of its misses in
    /// `misses` (empty when the caches are not probed).
    hits: Vec<(Duration, u32)>,
    /// Conventional: the lines that missed both caches, in probe order.
    misses: Vec<u64>,
    /// A-TFIM: per fragment, its GPU-side result.
    parts: Vec<AtfimFragment>,
    /// A-TFIM: the quad's deduplicated offload miss lines.
    quad_miss: Vec<u64>,
    /// A-TFIM: the quad's deduplicated plain miss lines.
    plain_lines: Vec<u64>,
}

impl QuadOutcome {
    /// Per fragment of the quad, its filtered color; `recs` are the
    /// records the quad was stepped from.
    pub fn colors<'a>(&'a self, recs: &'a ChunkRecords) -> &'a [Rgba] {
        if recs.atfim.is_empty() {
            &recs.colors[self.frags.clone()]
        } else {
            &self.colors
        }
    }
}

/// Per-fragment functional result of the A-TFIM GPU-side pass.
#[derive(Debug, Clone, Copy)]
struct AtfimFragment {
    color: Rgba,
    parents: u32,
    hit_ready: Duration,
    /// Misses that need the logic layer (non-degenerate aniso kernels).
    miss_lines: LineList,
    /// Misses whose kernel collapsed to a single texel per parent: a
    /// plain memory read, no offload.
    plain_miss_lines: LineList,
    aniso_ratio: u32,
    major_axis_x: bool,
}

/// The distinct parent cache lines of one A-TFIM fragment, in probe
/// order, with what each probe found.
#[derive(Debug, Default)]
struct ParentLines {
    parents: LineList,
    /// Misses that need the logic layer.
    misses: LineList,
    /// Misses of degenerate kernels: plain reads.
    plain_misses: LineList,
    /// Latest hit latency over the probed lines.
    hit_ready: Duration,
    /// Per entry of `parents`: the probe hit. Reuse of a stored parent
    /// value is legal only on a hit — a capacity miss refetches and
    /// recomputes in hardware, so the functional side must too.
    hit: [bool; 8],
    /// Per entry of `parents`: its parent-store block.
    block: [u32; 8],
}

impl ParentLines {
    fn finish(self, color: Rgba, aniso_ratio: u32, major_axis_x: bool) -> AtfimFragment {
        AtfimFragment {
            color,
            parents: u32::from(self.parents.len),
            hit_ready: self.hit_ready,
            miss_lines: self.misses,
            plain_miss_lines: self.plain_misses,
            aniso_ratio,
            major_axis_x,
        }
    }
}

/// Bilinear corner offsets, in the order every A-TFIM corner array
/// uses.
const CORNERS: [(i64, i64); 4] = [(0, 0), (1, 0), (0, 1), (1, 1)];

/// One mip level of an A-TFIM fragment's pure prefix.
#[derive(Debug, Clone, Copy, Default)]
struct AtfimLevel {
    level: u8,
    /// Probe-offset divisor: 1 at the fine level, 2 at the coarse one.
    div: u8,
    /// Every probe of the kernel lands on the parent texel itself: the
    /// corners are plain texel reads, no child set exists.
    degenerate: bool,
    /// Unwrapped bilinear base texel.
    base: (i64, i64),
    /// Bilinear weights.
    fx: f32,
    fy: f32,
    /// Wrapped texel columns of the left and right corners.
    xs: [u32; 2],
    /// Wrapped texel rows of the top and bottom corners.
    ys: [u32; 2],
    /// Cache line of each corner.
    lines: [u64; 4],
}

/// The pure prefix of the A-TFIM GPU-side pass for one fragment: all
/// of it depends on the fragment, the texture and its layout only, so
/// phase 1 computes it on any thread. Nothing here is speculative — the
/// reuse-or-recompute decision needs live cache and parent-store state
/// and stays in [`TexFunctional::atfim_fragment_rest`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct AtfimPrefix {
    fp: Footprint,
    /// The camera-angle tag the parent lines are probed with.
    angle: Radians,
    /// Probe-offset scale of the fine level (both levels use it).
    fine_scale: f32,
    /// Fine-to-coarse blend weight.
    w: f32,
    /// The fine level, then the coarse one when `two_levels`.
    levels: [AtfimLevel; 2],
    two_levels: bool,
}

/// The A-TFIM phase-1 prefix of `frag`: texel derivatives, footprint,
/// mip levels and blend weight, angle tag, and per level the bilinear
/// base and weights, the degenerate-kernel flag and the four wrapped
/// corners with their line addresses.
pub(crate) fn atfim_prefix(
    sampler: &Sampler,
    frag: &Fragment,
    tex: &MippedTexture,
    layout: &TextureLayout,
) -> AtfimPrefix {
    let (ddx, ddy) = texel_derivs(tex, frag);
    let fp = sampler.footprint(ddx, ddy);
    let (fine, coarse, w) = fp.mip_levels(tex.max_level());
    // The cached tag must identify the *child-texel set* a parent was
    // computed with (paper Fig. 8: same address, different camera
    // angles => different child sets). The pixel's camera angle
    // induces both angular degrees of freedom of that set — the
    // anisotropy line's orientation in texture space and its
    // obliqueness (which fixes the span) — so the tag encodes both:
    // the orientation doubled (so its natural period π matches the
    // 2π circular comparison) plus the surface camera angle.
    let orientation = fp.major_axis.y.atan2(fp.major_axis.x);
    let angle = Radians::new(
        2.0 * orientation.rem_euclid(std::f32::consts::PI) + frag.camera_angle.as_f32(),
    );
    let fine_scale = 1.0 / (1u32 << fine.min(31)) as f32;
    // The kernel's farthest probe: every probe offset (divided by the
    // level's divisor) is zero exactly when this one is.
    let (ex, ey) = filter::probe_extent(&fp, fp.aniso_ratio, fine_scale);
    let level = |level: usize, div: u8| -> AtfimLevel {
        let (x0, y0, fx, fy) = filter::bilinear_corners(tex, frag.uv, level);
        let img = tex.level(level);
        let wrap = tex.wrap();
        let (wx, wy) = (wrap.wrap(x0, img.width()), wrap.wrap(y0, img.height()));
        let xs = [wx, wrap.wrap_succ(wx, x0, img.width())];
        let ys = [wy, wrap.wrap_succ(wy, y0, img.height())];
        let d = i64::from(div);
        AtfimLevel {
            level: level as u8,
            div,
            // Degenerate kernel: every probe lands on the parent texel
            // itself (common at the coarser of the two blended levels).
            // The "average over children" is then exactly the texel — no
            // child set exists, so there is nothing to offload and no
            // camera angle to compare: it is an ordinary texel fetch.
            degenerate: (ex / d, ey / d) == (0, 0),
            base: (x0, y0),
            fx,
            fy,
            xs,
            ys,
            lines: CORNERS
                .map(|(cx, cy)| layout.texel_line_addr(xs[cx as usize], ys[cy as usize], level)),
        }
    };
    let two_levels = coarse != fine && w != 0.0;
    let mut levels = [level(fine, 1), AtfimLevel::default()];
    if two_levels {
        levels[1] = level(coarse, 2);
    }
    AtfimPrefix {
        fp,
        angle,
        fine_scale,
        w,
        levels,
        two_levels,
    }
}

/// The probe offsets of an A-TFIM kernel at one level: the footprint's
/// anisotropic probes at the fine level's scale, divided by `div`.
fn atfim_offsets(fp: &Footprint, fine_scale: f32, div: u8, out: &mut Vec<(i64, i64)>) {
    filter::probe_offsets_into(fp, fp.aniso_ratio, fine_scale, out);
    let div = i64::from(div);
    if div != 1 {
        for o in out.iter_mut() {
            *o = (o.0 / div, o.1 / div);
        }
    }
}

/// The quad-level deduplicated miss lists of an A-TFIM quad: the lines
/// one offload package carries, and the degenerate kernels' plain reads.
fn quad_misses(parts: &[AtfimFragment], quad_miss: &mut Vec<u64>, plain_lines: &mut Vec<u64>) {
    quad_miss.clear();
    for p in parts {
        for &l in p.miss_lines.as_slice() {
            if !quad_miss.contains(&l) {
                quad_miss.push(l);
            }
        }
    }
    plain_lines.clear();
    for p in parts {
        for &l in p.plain_miss_lines.as_slice() {
            if !plain_lines.contains(&l) {
                plain_lines.push(l);
            }
        }
    }
}

impl TexFunctional {
    /// The functional half for `config`'s design, feeding that design
    /// alone (see [`TexFunctional::feed`]).
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry errors.
    pub fn new(config: &SimConfig) -> Result<Self> {
        let sampler_config = SamplerConfig {
            reordered: config.design == Design::ATfim,
            ..config.sampler
        };
        let l1 = (0..config.texture_units.units)
            .map(|_| TextureCache::new(config.l1_cache))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            design: config.design,
            sampler: Sampler::new(sampler_config),
            angle_threshold: config.angle_threshold,
            probe: config.design.has_texture_caches(),
            stfim: config.design == Design::STfim,
            l1,
            l2: TextureCache::new(config.l2_cache)?,
            parents: ParentStore::default(),
            stats: TextureStats::default(),
            offsets: Vec::new(),
        })
    }

    /// Sets which designs this half feeds: the conventional cache
    /// probes run when one of them has GPU texture caches, and phase 1
    /// records quad request lines when one is S-TFIM.
    pub fn feed(&mut self, designs: impl IntoIterator<Item = Design>) {
        (self.probe, self.stfim) = (false, false);
        for d in designs {
            self.probe |= d.has_texture_caches();
            self.stfim |= d == Design::STfim;
        }
    }

    /// The phase-1 filler matching this half: its design's records,
    /// sampled through its sampler.
    pub fn filler(&self) -> Filler {
        Filler::new(self.design, self.sampler).with_quad_lines(self.stfim)
    }

    /// The functional step of one quad: consumes the quad's `frag_count`
    /// phase-1 records at `cursor`, probes the caches and (A-TFIM)
    /// resolves every parent value, counts the functional statistics,
    /// and writes the outcome to `q`.
    ///
    /// # Panics
    ///
    /// Panics if the records run dry (a chunk partition mismatch between
    /// the phases — a bug by definition).
    #[inline]
    pub fn quad(
        &mut self,
        cluster: usize,
        frag_count: usize,
        tex: &MippedTexture,
        recs: &ChunkRecords,
        cursor: &mut Cursor,
        q: &mut QuadOutcome,
    ) {
        let frags = cursor.frag..cursor.frag + frag_count;
        cursor.frag += frag_count;
        q.quad = cursor.quad;
        cursor.quad += 1;
        self.stats.samples += frag_count as u64;
        q.frags = frags.clone();
        match self.design {
            Design::Baseline | Design::BPim | Design::STfim => {
                q.hits.clear();
                q.misses.clear();
                for i in frags {
                    self.stats.conventional_texels += u64::from(recs.texels[i]);
                    self.stats.record_aniso(recs.aniso[i]);
                    if self.probe {
                        let lines = recs.line_start[i] as usize..recs.line_start[i + 1] as usize;
                        let mut hit_ready = Duration::ZERO;
                        for &line in &recs.lines[lines] {
                            match self.probe_plain(cluster, line) {
                                ProbeOutcome::L1Hit => {
                                    hit_ready = hit_ready.max(Duration::new(L1_HIT_CYCLES));
                                }
                                ProbeOutcome::L2Hit => {
                                    hit_ready = hit_ready.max(Duration::new(L2_HIT_CYCLES));
                                }
                                ProbeOutcome::Miss => q.misses.push(line),
                            }
                        }
                        q.hits.push((hit_ready, q.misses.len() as u32));
                    }
                }
            }
            Design::ATfim => {
                let mut offsets = std::mem::take(&mut self.offsets);
                q.parts.clear();
                q.colors.clear();
                for pre in &recs.atfim[frags] {
                    let part = self.atfim_fragment_rest(cluster, pre, tex, &mut offsets);
                    q.colors.push(part.color);
                    q.parts.push(part);
                }
                self.offsets = offsets;
                quad_misses(&q.parts, &mut q.quad_miss, &mut q.plain_lines);
            }
        }
    }

    /// The order-sensitive rest of the A-TFIM GPU-side pass for one
    /// fragment: probe the angle-tagged caches for its recorded parent
    /// lines, reuse or recompute each parent value, and report the
    /// misses. `offsets` is scratch for the recompute.
    fn atfim_fragment_rest(
        &mut self,
        cluster: usize,
        pre: &AtfimPrefix,
        tex: &MippedTexture,
        offsets: &mut Vec<(i64, i64)>,
    ) -> AtfimFragment {
        let fp = &pre.fp;
        self.stats.conventional_texels += u64::from(fp.conventional_texel_count());
        self.stats.record_aniso(fp.aniso_ratio);
        let mut lines = ParentLines::default();
        let c_fine = self.atfim_level_color(cluster, pre, &pre.levels[0], tex, &mut lines, offsets);
        let color = if pre.two_levels {
            let c_coarse =
                self.atfim_level_color(cluster, pre, &pre.levels[1], tex, &mut lines, offsets);
            c_fine.lerp(c_coarse, pre.w)
        } else {
            c_fine
        };
        lines.finish(
            color,
            fp.aniso_ratio,
            fp.major_axis.x.abs() >= fp.major_axis.y.abs(),
        )
    }

    /// One level's bilinear blend of four parent values, each reused
    /// from the store or recomputed. A recompute rebuilds the kernel's
    /// probe offsets from the recorded footprint with the f32 ops
    /// phase 1 ran, so it averages the same children to the same bits.
    fn atfim_level_color(
        &mut self,
        cluster: usize,
        pre: &AtfimPrefix,
        lv: &AtfimLevel,
        tex: &MippedTexture,
        lines: &mut ParentLines,
        offsets: &mut Vec<(i64, i64)>,
    ) -> Rgba {
        let level = usize::from(lv.level);
        let mut have_offsets = false;
        let mut corners = [Rgba::TRANSPARENT; 4];
        for (ci, (cx, cy)) in CORNERS.into_iter().enumerate() {
            let (wx, wy) = (lv.xs[cx as usize], lv.ys[cy as usize]);
            let (hit, block) = self.probe_parent_line(
                cluster,
                lines,
                lv.lines[ci],
                lv.degenerate,
                pre.angle,
                tex,
                level,
                (wx, wy),
            );
            corners[ci] = self.parent_value(block, wx, wy, hit, pre.angle, || {
                if !have_offsets {
                    atfim_offsets(&pre.fp, pre.fine_scale, lv.div, offsets);
                    have_offsets = true;
                }
                filter::average_children(tex, lv.base.0 + cx, lv.base.1 + cy, level, offsets)
            });
        }
        corners[0]
            .lerp(corners[1], lv.fx)
            .lerp(corners[2].lerp(corners[3], lv.fx), lv.fy)
    }

    /// Resolves one parent corner's cache line. The first corner on a line probes the
    /// caches (angle-tagged unless the kernel is degenerate), records a
    /// miss for the offload or plain-read list, and resolves the line's
    /// parent-store block; later corners on the same line reuse both.
    /// Returns whether the line hit and its store block.
    #[allow(
        clippy::too_many_arguments,
        reason = "a corner is its line, level and texel plus the probe's angle; the hot loop passes them unbundled"
    )]
    fn probe_parent_line(
        &mut self,
        cluster: usize,
        lines: &mut ParentLines,
        line: u64,
        degenerate: bool,
        angle: Radians,
        tex: &MippedTexture,
        level: usize,
        (wx, wy): (u32, u32),
    ) -> (bool, u32) {
        if let Some(i) = lines.parents.as_slice().iter().position(|&l| l == line) {
            return (lines.hit[i], lines.block[i]);
        }
        let i = usize::from(lines.parents.len);
        lines.parents.push(line);
        let outcome = if degenerate {
            self.probe_plain(cluster, line)
        } else {
            self.probe_with_angle(cluster, line, angle)
        };
        match outcome {
            ProbeOutcome::L1Hit => {
                lines.hit_ready = lines.hit_ready.max(Duration::new(L1_HIT_CYCLES));
            }
            ProbeOutcome::L2Hit => {
                lines.hit_ready = lines.hit_ready.max(Duration::new(L2_HIT_CYCLES));
            }
            ProbeOutcome::Miss if degenerate => lines.plain_misses.push(line),
            ProbeOutcome::Miss => lines.misses.push(line),
        }
        let img = tex.level(level);
        lines.hit[i] = outcome != ProbeOutcome::Miss;
        lines.block[i] =
            self.parents
                .block(tex.id().index(), level, (img.width(), img.height()), wx, wy);
        (lines.hit[i], lines.block[i])
    }

    /// The A-TFIM functional reuse rule: the stored parent value is legal only when its
    /// line hit in the caches and its angle is within the threshold. Any
    /// miss — capacity or angle — recomputes with this fragment's own
    /// footprint, as the hardware would: `fresh` is stored and returned.
    fn parent_value(
        &mut self,
        block: u32,
        wx: u32,
        wy: u32,
        hit: bool,
        angle: Radians,
        fresh: impl FnOnce() -> Rgba,
    ) -> Rgba {
        if hit {
            if let Some((stored, value)) = self.parents.get(block, wx, wy) {
                if stored.abs_diff(angle) <= self.angle_threshold {
                    return value;
                }
            }
        }
        let value = fresh();
        self.parents.insert(block, wx, wy, angle, value);
        value
    }

    /// Plain (angle-free) probe of L1 then L2: every conventional line,
    /// and the parent lines of degenerate A-TFIM kernels.
    fn probe_plain(&mut self, cluster: usize, line: u64) -> ProbeOutcome {
        match self.l1[cluster].access(line) {
            CacheOutcome::Hit => {
                self.stats.l1_hits += 1;
                return ProbeOutcome::L1Hit;
            }
            _ => self.stats.l1_misses += 1,
        }
        match self.l2.access(line) {
            CacheOutcome::Hit => {
                self.stats.l2_hits += 1;
                ProbeOutcome::L2Hit
            }
            _ => {
                self.stats.l2_misses += 1;
                ProbeOutcome::Miss
            }
        }
    }

    /// Angle-tagged probe of L1 then L2 (A-TFIM).
    fn probe_with_angle(&mut self, cluster: usize, line: u64, angle: Radians) -> ProbeOutcome {
        match self.l1[cluster].access_with_angle(line, Some(angle), self.angle_threshold) {
            CacheOutcome::Hit => {
                self.stats.l1_hits += 1;
                return ProbeOutcome::L1Hit;
            }
            CacheOutcome::AngleMiss => {
                self.stats.l1_angle_misses += 1;
                // An angle miss forces recalculation regardless of L2.
                let _ = self
                    .l2
                    .access_with_angle(line, Some(angle), self.angle_threshold);
                return ProbeOutcome::Miss;
            }
            CacheOutcome::Miss => self.stats.l1_misses += 1,
        }
        match self
            .l2
            .access_with_angle(line, Some(angle), self.angle_threshold)
        {
            CacheOutcome::Hit => {
                self.stats.l2_hits += 1;
                ProbeOutcome::L2Hit
            }
            CacheOutcome::AngleMiss => {
                self.stats.l2_angle_misses += 1;
                ProbeOutcome::Miss
            }
            CacheOutcome::Miss => {
                self.stats.l2_misses += 1;
                ProbeOutcome::Miss
            }
        }
    }

    /// Resets all state for a fresh run.
    pub fn reset(&mut self) {
        for c in &mut self.l1 {
            c.reset();
        }
        self.l2.reset();
        self.parents.clear();
        self.stats = TextureStats::default();
    }
}

impl TexTiming {
    /// The timing half for `config`'s design.
    pub fn new(config: &SimConfig) -> Self {
        Self {
            design: config.design,
            units: TextureUnits::new(config.texture_units),
            mtus: (config.design == Design::STfim).then(|| {
                (0..config.hmc_cubes.max(1))
                    .map(|_| MtuBank::new(config.mtus, config.mtu))
                    .collect()
            }),
            atfim: (config.design == Design::ATfim).then(|| {
                (0..config.hmc_cubes.max(1))
                    .map(|_| AtfimLogicLayer::new(config.atfim))
                    .collect()
            }),
            offload: OffloadUnit::new(config.compress_offload),
            line_bytes: if config.compressed_textures { 16 } else { 64 },
            batch_lines: Vec::new(),
            stats: TextureStats::default(),
        }
    }

    /// This design's texture statistics, fed from `func`: the
    /// functional counters (cache probes only for a design with GPU
    /// texture caches) plus this half's own.
    pub fn stats(&self, func: &TexFunctional) -> TextureStats {
        let (f, t) = (&func.stats, &self.stats);
        let caches = self.design.has_texture_caches();
        let probes = |n: u64| if caches { n } else { 0 };
        TextureStats {
            samples: f.samples,
            latency_cycles: t.latency_cycles,
            l1_hits: probes(f.l1_hits),
            l1_misses: probes(f.l1_misses),
            l1_angle_misses: probes(f.l1_angle_misses),
            l2_hits: probes(f.l2_hits),
            l2_misses: probes(f.l2_misses),
            l2_angle_misses: probes(f.l2_angle_misses),
            conventional_texels: f.conventional_texels,
            texels_filtered_gpu: t.texels_filtered_gpu,
            offload_packages: t.offload_packages,
            child_reads: t.child_reads,
            merged_child_reads: t.merged_child_reads,
            aniso_histogram: f.aniso_histogram,
        }
    }

    /// GPU texture-unit busy cycles (energy).
    pub fn gpu_busy(&self) -> Duration {
        self.units.total_busy()
    }

    /// Logic-layer compute busy cycles (energy; zero for non-PIM paths).
    pub fn pim_busy(&self) -> Duration {
        let mtu: Duration = self.mtus.iter().flatten().map(MtuBank::filter_busy).sum();
        let at: Duration = self
            .atfim
            .iter()
            .flatten()
            .map(AtfimLogicLayer::compute_busy)
            .sum();
        mtu + at
    }

    /// Latest texture completion (frame-end accounting).
    pub fn last_completion(&self) -> Cycle {
        self.units.last_completion()
    }

    /// Records every texture-path stage into `trace`: the GPU
    /// address/filter pipes always, plus the MTU bank (S-TFIM) or the
    /// A-TFIM logic layer when the design instantiates them. The
    /// recorded busy cycles conserve [`TexTiming::gpu_busy`] and
    /// [`TexTiming::pim_busy`] by construction — the auditor checks
    /// exactly that.
    pub fn record_trace(&self, trace: &mut StageTrace) {
        self.units.record_trace(trace);
        for bank in self.mtus.iter().flatten() {
            bank.record_trace(trace);
        }
        for logic in self.atfim.iter().flatten() {
            logic.record_trace(trace);
        }
    }

    /// The timing step of one quad: turns the functional outcome `q`
    /// (with the quad's phase-1 `recs`) into this design's texture-unit,
    /// memory and logic-layer work, clearing `done` and filling it with
    /// one completion per fragment.
    #[inline]
    pub fn sample_quad(
        &mut self,
        cluster: usize,
        issue: Cycle,
        q: &QuadOutcome,
        recs: &ChunkRecords,
        mem: &mut MemoryBackend,
        done: &mut Vec<Cycle>,
    ) {
        done.clear();
        match self.design {
            Design::Baseline | Design::BPim => {
                self.conventional_quad(cluster, issue, q, recs, mem, done);
            }
            Design::STfim => {
                let texel_total: u32 = recs.texels[q.frags.clone()].iter().sum();
                let lines = recs.quad_line_start[q.quad] as usize
                    ..recs.quad_line_start[q.quad + 1] as usize;
                self.batch_lines.clear();
                self.batch_lines.extend_from_slice(&recs.quad_lines[lines]);
                let at = self.stfim_quad_tail(cluster, issue, texel_total, mem);
                done.resize(q.frags.len(), at);
            }
            Design::ATfim => self.atfim_quad_tail(
                cluster,
                issue,
                &q.parts,
                &q.quad_miss,
                &q.plain_lines,
                mem,
                done,
            ),
        }
        for d in done.iter() {
            self.stats.latency_cycles += d.since(issue).get();
        }
    }

    /// Conventional timing: per fragment, address generation, its
    /// lines' data — the latest hit latency, and a memory read per miss,
    /// in probe order — and filtering once the last line is in.
    fn conventional_quad(
        &mut self,
        cluster: usize,
        issue: Cycle,
        q: &QuadOutcome,
        recs: &ChunkRecords,
        mem: &mut MemoryBackend,
        done: &mut Vec<Cycle>,
    ) {
        debug_assert_eq!(q.hits.len(), q.frags.len(), "every fragment was probed");
        let mut start = 0;
        for (i, &(hit_ready, end)) in q.frags.clone().zip(&q.hits) {
            let texels = recs.texels[i];
            let addr_done = self.units.generate_addresses(cluster, issue, texels);
            let mut data_ready = addr_done + hit_ready;
            for &line in &q.misses[start..end as usize] {
                let req = MemRequest::read(TrafficClass::TextureFetch, line, self.line_bytes);
                data_ready = data_ready.max(mem.access_external(addr_done, &req));
            }
            start = end as usize;
            self.stats.texels_filtered_gpu += u64::from(texels);
            done.push(self.units.filter(cluster, data_ready, texels));
        }
    }

    /// The S-TFIM quad tail — package to the MTU bank, response back —
    /// for the request lines in `batch_lines`; returns when the filtered
    /// quad is back on the GPU. The lines are lent to the request and
    /// handed back afterwards, so steady state stays allocation-free.
    fn stfim_quad_tail(
        &mut self,
        cluster: usize,
        issue: Cycle,
        texel_total: u32,
        mem: &mut MemoryBackend,
    ) -> Cycle {
        let quad_lines = std::mem::take(&mut self.batch_lines);

        // The whole request maps to one cube: all its texels belong to
        // one texture, which the simulator placed inside one cube region.
        let cube = mem.cube_index(quad_lines.first().copied().unwrap_or(0));
        #[expect(
            clippy::expect_used,
            reason = "design/backend pairing is rejected by SimConfig::validate, so S-TFIM always runs over HMC"
        )]
        let hmc = mem
            .hmc_for(quad_lines.first().copied().unwrap_or(0))
            .expect("S-TFIM requires an HMC backend (enforced by Simulator::new)");
        hmc.record_external_traffic(TrafficClass::TextureFetch, packet::TFIM_REQUEST_BYTES);
        let at_cube = hmc.send_to_cube(issue, packet::TFIM_REQUEST_BYTES);
        let mut req = TextureRequest {
            texel_line_addrs: quad_lines,
            texel_count: texel_total,
            line_bytes: self.line_bytes,
        };
        // Clusters share MTUs round-robin when fewer MTUs than clusters
        // are configured (the paper's area-saving variant, §IV).
        #[expect(
            clippy::expect_used,
            reason = "TexTiming::new allocates MTU banks whenever the design is S-TFIM; this branch is S-TFIM-only"
        )]
        let banks = self.mtus.as_mut().expect("S-TFIM path owns MTUs");
        let bank = &mut banks[cube];
        let mtu = cluster % bank.len();
        let mtu_done = bank.process(mtu, at_cube, &req, hmc);
        hmc.record_external_traffic(TrafficClass::TextureFetch, packet::TFIM_RESPONSE_BYTES);
        let done = hmc.send_to_host(mtu_done, packet::TFIM_RESPONSE_BYTES);
        self.stats.offload_packages += 1;
        self.batch_lines = std::mem::take(&mut req.texel_line_addrs);
        done
    }

    /// The A-TFIM quad tail: address generation, plain reads, the
    /// offload package for `quad_miss`, per-fragment filtering.
    #[allow(
        clippy::too_many_arguments,
        reason = "the serial oracle calls it too, with miss lists of its own rather than a QuadOutcome"
    )]
    fn atfim_quad_tail(
        &mut self,
        cluster: usize,
        issue: Cycle,
        parts: &[AtfimFragment],
        quad_miss: &[u64],
        plain_lines: &[u64],
        mem: &mut MemoryBackend,
        done: &mut Vec<Cycle>,
    ) {
        // Address generation for the quad's parents.
        let total_parents: u32 = parts.iter().map(|p| p.parents).sum();
        let addr_done = self
            .units
            .generate_addresses(cluster, issue, total_parents.max(1));

        // Degenerate-kernel misses are ordinary texel reads.
        let mut plain_ready = addr_done;
        for &line in plain_lines {
            let req = MemRequest::read(TrafficClass::TextureFetch, line, self.line_bytes);
            plain_ready = plain_ready.max(mem.access_external(addr_done, &req));
        }

        // One offload package for all quad misses.
        let mut miss_ready = addr_done;
        if !quad_miss.is_empty() {
            let ratio = parts.iter().map(|p| p.aniso_ratio).max().unwrap_or(1);
            let axis_x = parts.iter().filter(|p| p.major_axis_x).count() * 2 >= parts.len();
            // Parent and child texels share a mip pyramid and therefore
            // a cube (§V-E): one cube serves the whole batch.
            let cube = mem.cube_index(quad_miss[0]);
            #[expect(
                clippy::expect_used,
                reason = "design/backend pairing is rejected by SimConfig::validate, so A-TFIM always runs over HMC"
            )]
            let hmc = mem
                .hmc_for(quad_miss[0])
                .expect("A-TFIM requires an HMC backend (enforced by Simulator::new)");
            let pkg_bytes = self.offload.package_bytes(quad_miss);
            hmc.record_external_traffic(TrafficClass::TextureFetch, pkg_bytes);
            let at_cube = hmc.send_to_cube(addr_done, pkg_bytes);
            let mut lines = std::mem::take(&mut self.batch_lines);
            lines.clear();
            lines.extend_from_slice(quad_miss);
            let batch = ParentFetchBatch {
                parent_line_addrs: lines,
                aniso_ratio: ratio,
                major_axis_x: axis_x,
                line_bytes: self.line_bytes,
            };
            #[expect(
                clippy::expect_used,
                reason = "TexTiming::new allocates the logic layer whenever the design is A-TFIM; this branch is A-TFIM-only"
            )]
            let resp = self
                .atfim
                .as_mut()
                .expect("A-TFIM path owns the logic layer")[cube]
                .process(at_cube, &batch, hmc);
            self.batch_lines = batch.parent_line_addrs;
            let resp_bytes = self.offload.response_bytes(quad_miss.len());
            hmc.record_external_traffic(TrafficClass::TextureFetch, resp_bytes);
            miss_ready = hmc.send_to_host(resp.completion, resp_bytes);
            self.stats.offload_packages += 1;
            self.stats.child_reads += resp.child_reads;
            self.stats.merged_child_reads += resp.merged_reads;
        }

        // Per-fragment GPU-side bilinear/trilinear over the parents.
        for p in parts {
            let mut data_ready = addr_done + p.hit_ready;
            if !p.miss_lines.is_empty() {
                data_ready = data_ready.max(miss_ready);
            }
            if !p.plain_miss_lines.is_empty() {
                data_ready = data_ready.max(plain_ready);
            }
            self.stats.texels_filtered_gpu += u64::from(p.parents);
            done.push(self.units.filter(cluster, data_ready, p.parents.max(1)));
        }
    }

    /// Resets all state for a fresh run.
    pub fn reset(&mut self) {
        self.units.reset();
        for m in self.mtus.iter_mut().flatten() {
            m.reset();
        }
        for a in self.atfim.iter_mut().flatten() {
            a.reset();
        }
        self.offload.reset();
        self.stats = TextureStats::default();
    }
}

/// Derivatives in base-level texel units for one fragment. Shared with
/// the phase-1 lane precomputer, which must feed the sampler the exact
/// operands the serial path does.
pub(crate) fn texel_derivs(tex: &MippedTexture, frag: &Fragment) -> (Vec2, Vec2) {
    let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
    (
        Vec2::new(frag.duv_dx.x * scale.x, frag.duv_dx.y * scale.y),
        Vec2::new(frag.duv_dy.x * scale.x, frag.duv_dy.y * scale.y),
    )
}

/// Deduplicated cache-line addresses of a fetch trace, written into a
/// caller-provided scratch buffer (cleared first) so the per-quad hot
/// loop does not allocate. Order is **first occurrence**, not sorted:
/// the lines feed LRU caches, so reordering them would change hit/miss
/// sequences and therefore timing.
///
/// Phase 1 records the same lines straight from the filter's reads
/// (`lanepre::LineSink`); this two-pass form is what its tests and the
/// serial oracle check it against.
#[cfg(test)]
pub(crate) fn dedup_lines_into(
    fetches: &[pimgfx_texture::TexelFetch],
    layout: &TextureLayout,
    addrs: &mut Vec<u64>,
    lines: &mut Vec<u64>,
) {
    layout.texel_line_addrs_into(fetches, addrs);
    lines.clear();
    for &line in addrs.iter() {
        if !lines.contains(&line) {
            lines.push(line);
        }
    }
}

/// The serial per-quad texture pass as it ran before replay split into
/// phases: pure work, cache probes and timing interleaved per fragment,
/// on one simulator's two halves. It is the oracle the split replay is
/// checked against, bit for bit, and exists only in tests.
#[cfg(test)]
pub(crate) struct Oracle<'a> {
    pub func: &'a mut TexFunctional,
    pub timing: &'a mut TexTiming,
}

/// One fragment's texel trace and its lines, for the serial oracle.
#[cfg(test)]
#[derive(Debug, Default)]
struct TraceScratch {
    fetches: pimgfx_texture::FetchSet,
    /// Line addresses of `fetches`, pre-dedup.
    line_addrs: Vec<u64>,
    /// Deduplicated lines of `fetches`.
    lines: Vec<u64>,
}

#[cfg(test)]
impl Oracle<'_> {
    /// Serial twin of the tests' per-quad sampler (`tests::QuadPath`).
    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors the per-quad sampler's signature, argument for argument"
    )]
    pub(crate) fn sample_quad(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        out.clear();
        match self.func.design {
            Design::Baseline | Design::BPim => {
                self.quad_conventional(cluster, issue, frags, tex, layout, mem, out);
            }
            Design::STfim => self.quad_stfim(cluster, issue, frags, tex, layout, mem, out),
            Design::ATfim => self.quad_atfim(cluster, issue, frags, tex, layout, mem, out),
        }
        for (_, done) in out.iter() {
            self.func.stats.samples += 1;
            self.timing.stats.latency_cycles += done.since(issue).get();
        }
    }

    /// Baseline / B-PIM: full filtering on the GPU texture unit.
    #[allow(
        clippy::too_many_arguments,
        reason = "one design's arm of the oracle's dispatch, with the dispatch's arguments"
    )]
    fn quad_conventional(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        let mut trace = TraceScratch::default();
        let sampler = self.func.sampler;
        for frag in frags {
            let (ddx, ddy) = texel_derivs(tex, frag);
            let info = sampler.sample_into(tex, frag.uv, ddx, ddy, &mut trace.fetches);
            let texels = info.conventional_texels.max(trace.fetches.len() as u32);
            dedup_lines_into(
                trace.fetches.fetches(),
                layout,
                &mut trace.line_addrs,
                &mut trace.lines,
            );
            self.func.stats.conventional_texels += u64::from(texels);
            self.func.stats.record_aniso(info.aniso_ratio);
            let addr_done = self.timing.units.generate_addresses(cluster, issue, texels);
            let mut data_ready = addr_done;
            for &line in &trace.lines {
                let ready = self.fetch_line(cluster, addr_done, line, mem);
                data_ready = data_ready.max(ready);
            }
            self.timing.stats.texels_filtered_gpu += u64::from(texels);
            let done = self.timing.units.filter(cluster, data_ready, texels);
            out.push((info.color, done));
        }
    }

    /// Probes L1 then L2 (without angle tags) and fetches from memory on
    /// a double miss. Returns when the line is available to the texture
    /// unit.
    fn fetch_line(
        &mut self,
        cluster: usize,
        issue: Cycle,
        line: u64,
        mem: &mut MemoryBackend,
    ) -> Cycle {
        let stats = &mut self.func.stats;
        match self.func.l1[cluster].access(line) {
            CacheOutcome::Hit => {
                stats.l1_hits += 1;
                issue + Duration::new(L1_HIT_CYCLES)
            }
            _ => {
                stats.l1_misses += 1;
                match self.func.l2.access(line) {
                    CacheOutcome::Hit => {
                        stats.l2_hits += 1;
                        issue + Duration::new(L2_HIT_CYCLES)
                    }
                    _ => {
                        stats.l2_misses += 1;
                        let req = MemRequest::read(
                            TrafficClass::TextureFetch,
                            line,
                            self.timing.line_bytes,
                        );
                        mem.access_external(issue, &req)
                    }
                }
            }
        }
    }

    /// S-TFIM: one request package per quad to the cluster's MTU; the
    /// filtered textures come back in one response.
    #[allow(
        clippy::too_many_arguments,
        reason = "one design's arm of the oracle's dispatch, with the dispatch's arguments"
    )]
    fn quad_stfim(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        let mut trace = TraceScratch::default();
        let sampler = self.func.sampler;
        let mut quad_lines: Vec<u64> = Vec::new();
        let mut texel_total = 0u32;
        for frag in frags {
            let (ddx, ddy) = texel_derivs(tex, frag);
            let info = sampler.sample_into(tex, frag.uv, ddx, ddy, &mut trace.fetches);
            let texels = info.conventional_texels.max(trace.fetches.len() as u32);
            self.func.stats.conventional_texels += u64::from(texels);
            self.func.stats.record_aniso(info.aniso_ratio);
            texel_total += texels;
            layout.texel_line_addrs_into(trace.fetches.fetches(), &mut trace.line_addrs);
            for &line in &trace.line_addrs {
                if !quad_lines.contains(&line) {
                    quad_lines.push(line);
                }
            }
            // Completion is quad-wide and not known yet; patched below.
            out.push((info.color, issue));
        }
        self.timing.batch_lines = quad_lines;
        let done = self
            .timing
            .stfim_quad_tail(cluster, issue, texel_total, mem);
        for entry in out.iter_mut() {
            entry.1 = done;
        }
    }

    /// A-TFIM: parent texels through angle-tagged caches; quad-level
    /// misses offloaded in one package to the logic layer.
    #[allow(
        clippy::too_many_arguments,
        reason = "one design's arm of the oracle's dispatch, with the dispatch's arguments"
    )]
    fn quad_atfim(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        // GPU-side functional + cache pass, per fragment.
        let mut offsets = Vec::new();
        let parts: Vec<AtfimFragment> = frags
            .iter()
            .map(|f| self.atfim_fragment(cluster, f, tex, layout, &mut offsets))
            .collect();
        let (mut quad_miss, mut plain_lines) = (Vec::new(), Vec::new());
        quad_misses(&parts, &mut quad_miss, &mut plain_lines);
        let mut done = Vec::new();
        self.timing.atfim_quad_tail(
            cluster,
            issue,
            &parts,
            &quad_miss,
            &plain_lines,
            mem,
            &mut done,
        );
        out.extend(parts.iter().map(|p| p.color).zip(done));
    }

    /// The A-TFIM GPU-side pass for one fragment: probe angle-tagged
    /// caches, reuse or recompute parent values, and report the misses.
    fn atfim_fragment(
        &mut self,
        cluster: usize,
        frag: &Fragment,
        tex: &MippedTexture,
        layout: &TextureLayout,
        offsets: &mut Vec<(i64, i64)>,
    ) -> AtfimFragment {
        let func = &mut *self.func;
        let (ddx, ddy) = texel_derivs(tex, frag);
        let fp = func.sampler.footprint(ddx, ddy);
        let (fine, coarse, w) = fp.mip_levels(tex.max_level());
        // The cached tag must identify the *child-texel set* a parent was
        // computed with (paper Fig. 8: same address, different camera
        // angles => different child sets). The pixel's camera angle
        // induces both angular degrees of freedom of that set — the
        // anisotropy line's orientation in texture space and its
        // obliqueness (which fixes the span) — so the tag encodes both:
        // the orientation doubled (so its natural period π matches the
        // 2π circular comparison) plus the surface camera angle.
        let orientation = fp.major_axis.y.atan2(fp.major_axis.x);
        let angle = Radians::new(
            2.0 * orientation.rem_euclid(std::f32::consts::PI) + frag.camera_angle.as_f32(),
        );
        func.stats.conventional_texels += u64::from(fp.conventional_texel_count());
        func.stats.record_aniso(fp.aniso_ratio);

        let mut lines = ParentLines::default();
        let mut level_color = |path: &mut TexFunctional,
                               offsets: &mut Vec<(i64, i64)>,
                               level: usize,
                               div: i64|
         -> Rgba {
            let (x0, y0, fx, fy) = filter::bilinear_corners(tex, frag.uv, level);
            let img = tex.level(level);
            let wrap = tex.wrap();
            let fine_scale = 1.0 / (1u32 << fine.min(31)) as f32;
            filter::probe_offsets_into(&fp, fp.aniso_ratio, fine_scale, offsets);
            if div != 1 {
                for o in offsets.iter_mut() {
                    *o = (o.0 / div, o.1 / div);
                }
            }
            let offsets = &*offsets;
            // Degenerate kernel: every probe lands on the parent texel
            // itself (common at the coarser of the two blended levels).
            // The "average over children" is then exactly the texel — no
            // child set exists, so there is nothing to offload and no
            // camera angle to compare: it is an ordinary texel fetch.
            let degenerate = offsets.iter().all(|&o| o == (0, 0));
            let mut corners = [Rgba::TRANSPARENT; 4];
            for (ci, (cx, cy)) in [(0i64, 0i64), (1, 0), (0, 1), (1, 1)]
                .into_iter()
                .enumerate()
            {
                let wx = wrap.wrap(x0 + cx, img.width());
                let wy = wrap.wrap(y0 + cy, img.height());
                let line = layout.texel_line_addr(wx, wy, level);
                let (hit, block) = path.probe_parent_line(
                    cluster,
                    &mut lines,
                    line,
                    degenerate,
                    angle,
                    tex,
                    level,
                    (wx, wy),
                );
                corners[ci] = path.parent_value(block, wx, wy, hit, angle, || {
                    filter::average_children(tex, x0 + cx, y0 + cy, level, offsets)
                });
            }
            corners[0]
                .lerp(corners[1], fx)
                .lerp(corners[2].lerp(corners[3], fx), fy)
        };

        let c_fine = level_color(func, offsets, fine, 1);
        let color = if coarse == fine || w == 0.0 {
            c_fine
        } else {
            let c_coarse = level_color(func, offsets, coarse, 2);
            c_fine.lerp(c_coarse, w)
        };
        lines.finish(
            color,
            fp.aniso_ratio,
            fp.major_axis.x.abs() >= fp.major_axis.y.abs(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_texture::TextureImage;
    use pimgfx_types::TextureId;

    fn test_texture() -> (MippedTexture, TextureLayout) {
        let tex = MippedTexture::with_full_chain(TextureImage::from_fn(32, 32, |x, y| {
            Rgba::new(x as f32 / 31.0, y as f32 / 31.0, 0.3, 1.0)
        }))
        .with_id(TextureId::new(0));
        let dims: Vec<(u32, u32)> = (0..tex.level_count())
            .map(|l| (tex.level(l).width(), tex.level(l).height()))
            .collect();
        let layout = TextureLayout::new(TextureId::new(0), 1 << 24, &dims);
        (tex, layout)
    }

    fn frag(uv: Vec2, d: f32, angle: f32) -> Fragment {
        Fragment {
            x: 0,
            y: 0,
            depth: 0.5,
            uv,
            duv_dx: Vec2::new(d, 0.0),
            duv_dy: Vec2::new(0.0, d / 8.0),
            camera_angle: Radians::new(angle),
            texture: TextureId::new(0),
        }
    }

    /// One simulator's two texture halves, sampled one quad at a time:
    /// phase 1, the functional step and the timing step on the calling
    /// thread — the same three parts a streamed replay runs.
    #[derive(Debug)]
    struct QuadPath {
        func: TexFunctional,
        timing: TexTiming,
        recs: ChunkRecords,
        quad: QuadOutcome,
        done: Vec<Cycle>,
    }

    impl QuadPath {
        fn new(config: &SimConfig) -> Self {
            Self {
                func: TexFunctional::new(config).expect("valid"),
                timing: TexTiming::new(config),
                recs: ChunkRecords::default(),
                quad: QuadOutcome::default(),
                done: Vec::new(),
            }
        }

        fn stats(&self) -> TextureStats {
            self.timing.stats(&self.func)
        }

        fn reset(&mut self) {
            self.func.reset();
            self.timing.reset();
        }

        /// Samples a single fragment.
        fn sample(
            &mut self,
            cluster: usize,
            issue: Cycle,
            frag: &Fragment,
            tex: &MippedTexture,
            layout: &TextureLayout,
            mem: &mut MemoryBackend,
        ) -> (Rgba, Cycle) {
            self.sample_quad(cluster, issue, std::slice::from_ref(frag), tex, layout, mem)[0]
        }

        /// Samples a fragment quad (1–4 fragments sharing one texture
        /// request); returns `(color, completion)` per fragment in order.
        fn sample_quad(
            &mut self,
            cluster: usize,
            issue: Cycle,
            frags: &[Fragment],
            tex: &MippedTexture,
            layout: &TextureLayout,
            mem: &mut MemoryBackend,
        ) -> Vec<(Rgba, Cycle)> {
            assert!(!frags.is_empty(), "a quad needs at least one fragment");
            self.recs.reset();
            self.func
                .filler()
                .fill_quad(frags, tex, layout, &mut self.recs);
            let mut cursor = Cursor::default();
            let q = &mut self.quad;
            self.func
                .quad(cluster, frags.len(), tex, &self.recs, &mut cursor, q);
            self.timing
                .sample_quad(cluster, issue, q, &self.recs, mem, &mut self.done);
            q.colors(&self.recs)
                .iter()
                .copied()
                .zip(self.done.iter().copied())
                .collect()
        }
    }

    fn make(design: Design) -> (QuadPath, MemoryBackend) {
        let config = SimConfig::builder().design(design).build().expect("valid");
        (
            QuadPath::new(&config),
            MemoryBackend::from_config(&config).expect("valid"),
        )
    }

    /// `dedup_lines_into` must produce exactly what the old
    /// allocate-per-quad dedup produced: same lines, same first-occurrence
    /// order (the order drives LRU cache state and thus timing).
    #[test]
    fn dedup_lines_into_preserves_order_and_content() {
        let (_, layout) = test_texture();
        let fetches: Vec<pimgfx_texture::TexelFetch> = [
            (4u32, 4u32, 0u8),
            (5, 4, 0),
            (4, 4, 0), // duplicate texel
            (20, 9, 0),
            (2, 2, 1),
            (5, 4, 0), // duplicate texel
            (3, 2, 1), // may share a line with (2,2,1)
        ]
        .into_iter()
        .map(|(x, y, level)| pimgfx_texture::TexelFetch { x, y, level })
        .collect();

        // Reference: the historical fresh-Vec dedup.
        let mut want: Vec<u64> = Vec::new();
        for f in &fetches {
            let line = layout.texel_line_addr(f.x, f.y, usize::from(f.level));
            if !want.contains(&line) {
                want.push(line);
            }
        }

        let mut addrs = Vec::new();
        let mut got = vec![0xdead_beef; 2]; // stale scratch must be cleared
        dedup_lines_into(&fetches, &layout, &mut addrs, &mut got);
        assert_eq!(got, want);
        // Reuse without clearing in between: still identical.
        dedup_lines_into(&fetches, &layout, &mut addrs, &mut got);
        assert_eq!(got, want);
    }

    /// The phase-1 A-TFIM prefix decides "degenerate" from the kernel's
    /// farthest probe alone and wraps each corner axis once; both must
    /// equal the full computation — every probe offset divided by the
    /// level's divisor is zero, and each corner wrapped on its own — over
    /// seeded random fragments (NaN/∞ derivatives, 1×1 mips and
    /// span-capped kernels included) at both anisotropy caps.
    #[test]
    fn atfim_prefix_matches_full_offset_scan_oracle() {
        let (textures, layouts) = crate::testkit::textures();
        let quads = crate::testkit::quads(0xa7f1_0018, &textures, 1500);
        let mut offsets = Vec::new();
        let (mut degenerate, mut live, mut halved_away) = (0, 0, 0);
        for max_aniso in [1, 16] {
            let sampler = Sampler::new(SamplerConfig {
                max_aniso,
                reordered: true,
                ..SamplerConfig::default()
            });
            for frag in quads.iter().flatten() {
                let t = frag.texture.index();
                let (tex, layout) = (&textures[t], &layouts[t]);
                let pre = atfim_prefix(&sampler, frag, tex, layout);
                let levels = if pre.two_levels { 2 } else { 1 };
                for lv in &pre.levels[..levels] {
                    atfim_offsets(&pre.fp, pre.fine_scale, lv.div, &mut offsets);
                    let scan = offsets.iter().all(|&o| o == (0, 0));
                    assert_eq!(lv.degenerate, scan, "{frag:?} level {}", lv.level);
                    if scan {
                        degenerate += 1;
                        let mut undivided = Vec::new();
                        atfim_offsets(&pre.fp, pre.fine_scale, 1, &mut undivided);
                        if undivided.iter().any(|&o| o != (0, 0)) {
                            halved_away += 1;
                        }
                    } else {
                        live += 1;
                    }
                    let img = tex.level(usize::from(lv.level));
                    let wrap = tex.wrap();
                    let (x0, y0) = lv.base;
                    let xs = [wrap.wrap(x0, img.width()), wrap.wrap(x0 + 1, img.width())];
                    let ys = [wrap.wrap(y0, img.height()), wrap.wrap(y0 + 1, img.height())];
                    assert_eq!((lv.xs, lv.ys), (xs, ys), "{frag:?} level {}", lv.level);
                }
            }
        }
        // Both outcomes occur, including coarse levels whose offsets
        // only vanish after the division.
        assert!(degenerate > 100 && live > 100 && halved_away > 10);
    }

    #[test]
    fn all_designs_produce_similar_colors() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.4, 0.6), 0.25, 0.3);
        let mut colors = Vec::new();
        for d in Design::ALL {
            let (mut path, mut mem) = make(d);
            let (c, done) = path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
            assert!(done > Cycle::ZERO, "{d}");
            colors.push(c);
        }
        for c in &colors[1..] {
            assert!(
                colors[0].max_channel_diff(*c) < 0.02,
                "designs disagree: {:?} vs {:?}",
                colors[0],
                c
            );
        }
    }

    #[test]
    fn baseline_uses_caches() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.5, 0.5), 0.1, 0.2);
        let (mut path, mut mem) = make(Design::Baseline);
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        let first_misses = path.stats().l1_misses;
        assert!(first_misses > 0);
        // Repeat: everything hits now.
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert!(path.stats().l1_hits > 0);
        assert_eq!(path.stats().l1_misses, first_misses);
    }

    #[test]
    fn stfim_bypasses_caches_and_ships_one_package_per_quad() {
        let (tex, layout) = test_texture();
        let quad: Vec<Fragment> = (0..4)
            .map(|i| frag(Vec2::new(0.5 + i as f32 * 0.01, 0.5), 0.1, 0.2))
            .collect();
        let (mut path, mut mem) = make(Design::STfim);
        let out = path.sample_quad(0, Cycle::ZERO, &quad, &tex, &layout, &mut mem);
        assert_eq!(out.len(), 4);
        assert_eq!(path.stats().l1_hits + path.stats().l1_misses, 0);
        assert_eq!(path.stats().offload_packages, 1, "one package per quad");
        assert_eq!(
            mem.traffic().bytes(TrafficClass::TextureFetch).get(),
            packet::TFIM_REQUEST_BYTES + packet::TFIM_RESPONSE_BYTES
        );
        // All four fragments complete together.
        assert!(out.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn atfim_offloads_misses_then_reuses() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.5, 0.5), 0.5, 0.2);
        let (mut path, mut mem) = make(Design::ATfim);
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert_eq!(path.stats().offload_packages, 1);
        assert!(path.stats().child_reads > 0);
        // Same fragment again: parents hit with the same angle.
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert_eq!(path.stats().offload_packages, 1, "no second offload");
        assert!(path.stats().l1_hits > 0);
    }

    #[test]
    fn atfim_quad_shares_one_package() {
        let (tex, layout) = test_texture();
        let quad: Vec<Fragment> = (0..4)
            .map(|i| frag(Vec2::new(0.3 + i as f32 * 0.01, 0.6), 0.5, 0.2))
            .collect();
        let (mut path, mut mem) = make(Design::ATfim);
        let out = path.sample_quad(0, Cycle::ZERO, &quad, &tex, &layout, &mut mem);
        assert_eq!(out.len(), 4);
        assert_eq!(path.stats().offload_packages, 1);
    }

    /// `reset` empties the parent-value store: a reset path replays a
    /// fragment sequence exactly like a fresh one. With recalculation
    /// off, every cache hit reuses whatever value the store holds, so a
    /// stale store would leak the pre-reset footprint into the colors.
    #[test]
    fn atfim_reset_forgets_stored_parents() {
        let (tex, layout) = test_texture();
        let config = SimConfig::builder()
            .design(Design::ATfim)
            .no_recalculation()
            .build()
            .expect("valid");
        // A small grid of fragments whose corners share lines; the last
        // row sits on the wrap edge.
        let grid = |transposed: bool| -> Vec<Fragment> {
            let mut out = Vec::new();
            for j in [0.5, 0.52, 0.99] {
                for i in 0..4 {
                    let mut f = frag(Vec2::new(0.4 + i as f32 / 64.0, j), 0.5, 0.2);
                    if transposed {
                        (f.duv_dx, f.duv_dy) = (Vec2::new(f.duv_dy.y, 0.0), Vec2::new(0.0, 0.5));
                    }
                    out.push(f);
                }
            }
            out
        };
        let run = |path: &mut QuadPath, frags: &[Fragment]| {
            let mut mem = MemoryBackend::from_config(&config).expect("valid");
            let colors: Vec<Rgba> = frags
                .iter()
                .map(|f| path.sample(0, Cycle::ZERO, f, &tex, &layout, &mut mem).0)
                .collect();
            (colors, path.stats())
        };
        let mut fresh = QuadPath::new(&config);
        let want = run(&mut fresh, &grid(false));
        let mut used = QuadPath::new(&config);
        run(&mut used, &grid(true));
        used.reset();
        let got = run(&mut used, &grid(false));
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn atfim_angle_change_forces_recalculation() {
        let (tex, layout) = test_texture();
        let (mut path, mut mem) = make(Design::ATfim);
        let f1 = frag(Vec2::new(0.5, 0.5), 0.5, 0.0);
        let f2 = frag(Vec2::new(0.5, 0.5), 0.5, 1.0); // far outside 0.01π
        path.sample(0, Cycle::ZERO, &f1, &tex, &layout, &mut mem);
        let packages_before = path.stats().offload_packages;
        path.sample(0, Cycle::ZERO, &f2, &tex, &layout, &mut mem);
        assert!(path.stats().offload_packages > packages_before);
        assert!(path.stats().l1_angle_misses > 0);
    }

    #[test]
    fn atfim_fetches_fewer_external_bytes_than_baseline_on_aniso() {
        let (tex, layout) = test_texture();
        // A strongly anisotropic fragment.
        let f = frag(Vec2::new(0.3, 0.7), 0.5, 0.4);
        let (mut base, mut mem_b) = make(Design::BPim);
        base.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem_b);
        let (mut at, mut mem_a) = make(Design::ATfim);
        at.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem_a);
        let b = mem_b.traffic().bytes(TrafficClass::TextureFetch).get();
        let a = mem_a.traffic().bytes(TrafficClass::TextureFetch).get();
        assert!(a <= b + 80, "A-TFIM {a} bytes vs B-PIM {b} bytes");
    }

    #[test]
    fn latency_accumulates_in_stats() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.2, 0.2), 0.2, 0.1);
        let (mut path, mut mem) = make(Design::Baseline);
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert_eq!(path.stats().samples, 1);
        assert!(path.stats().latency_cycles > 0);
        assert!(path.timing.gpu_busy() > Duration::ZERO);
        path.reset();
        assert_eq!(path.stats().samples, 0);
    }

    #[test]
    fn degenerate_kernels_bypass_the_offload_path() {
        let (tex, layout) = test_texture();
        // An isotropic, minified fragment: probes collapse onto the
        // parent texel, so nothing should ship to the logic layer.
        let f = Fragment {
            x: 0,
            y: 0,
            depth: 0.5,
            uv: Vec2::new(0.5, 0.5),
            duv_dx: Vec2::new(0.125, 0.0), // 4 texels on a 32-texel base
            duv_dy: Vec2::new(0.0, 0.125),
            camera_angle: Radians::new(0.2),
            texture: pimgfx_types::TextureId::new(0),
        };
        let (mut path, mut mem) = make(Design::ATfim);
        let (_, done) = path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert!(done > Cycle::ZERO);
        assert_eq!(path.stats().offload_packages, 0, "no children, no offload");
        assert_eq!(path.stats().child_reads, 0);
        // The parent lines were still fetched (as plain reads).
        assert!(mem.traffic().bytes(TrafficClass::TextureFetch).get() > 0);
    }

    #[test]
    fn compressed_textures_shrink_line_fetches() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.5, 0.5), 0.1, 0.2);
        let raw_cfg = SimConfig::default();
        let bc_cfg = SimConfig::builder()
            .compressed_textures(true)
            .build()
            .expect("valid");
        let mut raw = QuadPath::new(&raw_cfg);
        let mut raw_mem = MemoryBackend::from_config(&raw_cfg).expect("valid");
        let mut bc = QuadPath::new(&bc_cfg);
        let mut bc_mem = MemoryBackend::from_config(&bc_cfg).expect("valid");
        raw.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut raw_mem);
        bc.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut bc_mem);
        let raw_bytes = raw_mem.traffic().bytes(TrafficClass::TextureFetch).get();
        let bc_bytes = bc_mem.traffic().bytes(TrafficClass::TextureFetch).get();
        assert!(
            bc_bytes < raw_bytes,
            "BC1 lines are 16B, not 64B: {bc_bytes} vs {raw_bytes}"
        );
    }

    #[test]
    fn atfim_functional_reuse_changes_pixels_at_loose_threshold() {
        let (tex, layout) = test_texture();
        let config = SimConfig::builder()
            .design(Design::ATfim)
            .angle_threshold_pi_fraction(0.005)
            .build()
            .expect("valid");
        let mut strict = QuadPath::new(&config);
        let mut mem1 = MemoryBackend::from_config(&config).expect("valid");

        let loose_cfg = SimConfig::builder()
            .design(Design::ATfim)
            .no_recalculation()
            .build()
            .expect("valid");
        let mut loose = QuadPath::new(&loose_cfg);
        let mut mem2 = MemoryBackend::from_config(&loose_cfg).expect("valid");

        // Two fragments, same texels, different view angle and footprint.
        let f1 = frag(Vec2::new(0.5, 0.5), 0.5, 0.1);
        let mut f2 = frag(Vec2::new(0.5, 0.5), 0.5, 0.9);
        f2.duv_dx = Vec2::new(0.9, 0.0);

        strict.sample(0, Cycle::ZERO, &f1, &tex, &layout, &mut mem1);
        let (c_strict, _) = strict.sample(0, Cycle::ZERO, &f2, &tex, &layout, &mut mem1);
        loose.sample(0, Cycle::ZERO, &f1, &tex, &layout, &mut mem2);
        let (c_loose, _) = loose.sample(0, Cycle::ZERO, &f2, &tex, &layout, &mut mem2);
        assert!(
            c_strict.max_channel_diff(c_loose) > 1e-4,
            "approximation should be visible: {c_strict:?} vs {c_loose:?}"
        );
    }
}
