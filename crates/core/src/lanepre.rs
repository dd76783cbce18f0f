//! Phase-1 lane precomputation for cluster-parallel backend replay.
//!
//! The backend replay has two kinds of work per fragment quad:
//!
//! 1. **Pure functional work** — sampler filtering math and texel
//!    line addressing. These depend only on the fragment, the texture,
//!    and the immutable layout: no caches, no servers, no cross-quad
//!    order.
//! 2. **Order-sensitive timing work** — L1/L2 probes,
//!    DRAM/HMC/MTU servers, and the ROP. These mutate shared state whose
//!    evolution depends on the exact global tile order.
//!
//! Cluster-parallel replay splits the two into phases: phase 1 runs
//! kind-1 work for every shader cluster's tile lane in parallel (the
//! lane partition is `TileScheduler::cluster_for`, identical to the
//! serial path's per-tile cluster assignment), recording the results in
//! per-lane [`LanePre`] buffers; phase 2 then walks the tiles in the
//! original serial order, consuming one record per fragment, and runs
//! only kind-2 work. Every cache probe, server issue, and stats
//! increment happens in the same order with the same operands as the
//! serial path, so the resulting [`RenderReport`](crate::RenderReport)
//! is byte-identical **by construction** — the property the
//! `lane_equivalence` test suite pins for every design.
//!
//! A-TFIM has no phase 1: whether a parent value is recomputed depends
//! on live cache and parent-store state, so the only work it could move
//! off the serial walk is a speculative recompute of every corner.
//! Measured on a 1920x1080 synthetic cell, that speculation made a
//! 2-lane A-TFIM replay slower than the serial one (docs/PARALLELISM.md),
//! so A-TFIM always replays serially.

use crate::config::SimConfig;
use crate::design::Design;
use crate::stream::{FrameEntry, StreamData};
use crate::texpath;
use pimgfx_raster::Fragment;
use pimgfx_shader::TileScheduler;
use pimgfx_texture::{FetchSet, MippedTexture, Sampler, SamplerConfig, TextureLayout};
use pimgfx_types::Rgba;

/// Phase-1 output for one cluster lane, in lane-local consumption
/// order (the serial tile order restricted to this cluster). Flat SoA
/// buffers with prefix indices so steady-state replay never allocates.
#[derive(Debug, Default)]
pub(crate) struct LanePre {
    /// Per-fragment filtered color (conventional and S-TFIM designs).
    pub colors: Vec<Rgba>,
    /// Per-fragment texel count (conventional and S-TFIM designs).
    pub texels: Vec<u32>,
    /// Per-fragment anisotropy ratio (conventional and S-TFIM designs).
    pub aniso: Vec<u32>,
    /// Per-fragment prefix into [`LanePre::lines`] (conventional
    /// designs); `line_start.len() == fragment count + 1`.
    pub line_start: Vec<u32>,
    /// Deduplicated per-fragment cache-line addresses, first-occurrence
    /// order (conventional designs).
    pub lines: Vec<u64>,
    /// Per-quad prefix into [`LanePre::quad_lines`] (S-TFIM);
    /// `quad_line_start.len() == quad count + 1`.
    pub quad_line_start: Vec<u32>,
    /// Deduplicated per-quad request lines, first-occurrence order
    /// (S-TFIM).
    pub quad_lines: Vec<u64>,
}

impl LanePre {
    /// Clears every buffer for the next frame, keeping capacity.
    pub fn clear(&mut self) {
        self.colors.clear();
        self.texels.clear();
        self.aniso.clear();
        self.line_start.clear();
        self.lines.clear();
        self.quad_line_start.clear();
        self.quad_lines.clear();
    }
}

/// Per-lane consumption cursor: how many fragments and quads of the
/// lane's [`LanePre`] buffer phase 2 has consumed so far this frame.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LaneCursor {
    /// Fragments consumed.
    pub frag: usize,
    /// Quads consumed.
    pub quad: usize,
}

/// The phase-1 worker: a copy of the design's pure sampling
/// configuration, safe to run on any thread against shared read-only
/// stream/texture data. Exists only for the designs with a phase 1
/// (every design but A-TFIM).
#[derive(Debug, Clone)]
pub(crate) struct Precomputer {
    design: Design,
    sampler: Sampler,
}

impl Precomputer {
    /// Builds a precomputer matching the texture path a simulator with
    /// this configuration instantiates (same sampler; only A-TFIM
    /// reorders, and it has no phase 1), so phase-1 colors are
    /// bit-identical to serial ones. `None` for A-TFIM.
    pub fn new(config: &SimConfig) -> Option<Self> {
        if config.design == Design::ATfim {
            return None;
        }
        let sampler_config = SamplerConfig {
            reordered: false,
            ..config.sampler
        };
        Some(Self {
            design: config.design,
            sampler: Sampler::new(sampler_config),
        })
    }

    /// Fills `buf` with one frame's phase-1 records for cluster
    /// `lane`: walks the frame's tiles in stream order, keeps those the
    /// scheduler assigns to `lane`, and precomputes every quad.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_lane(
        &self,
        lane: usize,
        data: &StreamData,
        frame: &FrameEntry,
        scheduler: &TileScheduler,
        textures: &[&MippedTexture],
        layouts: &[TextureLayout],
        buf: &mut LanePre,
        scratch: &mut PreScratch,
    ) {
        buf.clear();
        let stfim = self.design == Design::STfim;
        if stfim {
            buf.quad_line_start.push(0);
        } else {
            buf.line_start.push(0);
        }
        for tile in data.frame_tiles(frame) {
            if scheduler.cluster_for(tile.coord) != lane {
                continue;
            }
            for quad in tile.quads() {
                let tex = textures[quad[0].texture.index()];
                let layout = &layouts[quad[0].texture.index()];
                if stfim {
                    self.pre_stfim(quad, tex, layout, buf, scratch);
                } else {
                    self.pre_conventional(quad, tex, layout, buf, scratch);
                }
            }
        }
    }

    /// Conventional phase 1: the full sampler pass plus per-fragment
    /// line dedup — the exact computation `quad_conventional` performs
    /// before its first cache probe.
    fn pre_conventional(
        &self,
        quad: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        buf: &mut LanePre,
        scratch: &mut PreScratch,
    ) {
        for frag in quad {
            let (ddx, ddy) = texpath::texel_derivs(tex, frag);
            let info = self
                .sampler
                .sample_into(tex, frag.uv, ddx, ddy, &mut scratch.fetches);
            let texels = info.conventional_texels.max(scratch.fetches.len() as u32);
            texpath::dedup_lines_into(
                scratch.fetches.fetches(),
                layout,
                &mut scratch.line_addrs,
                &mut scratch.lines,
            );
            buf.colors.push(info.color);
            buf.texels.push(texels);
            buf.aniso.push(info.aniso_ratio);
            buf.lines.extend_from_slice(&scratch.lines);
            buf.line_start.push(buf.lines.len() as u32);
        }
    }

    /// S-TFIM phase 1: the sampler pass plus the quad-wide request-line
    /// dedup (first-occurrence order across the quad's fragments).
    fn pre_stfim(
        &self,
        quad: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        buf: &mut LanePre,
        scratch: &mut PreScratch,
    ) {
        let quad_lines_before = buf.quad_lines.len();
        for frag in quad {
            let (ddx, ddy) = texpath::texel_derivs(tex, frag);
            let info = self
                .sampler
                .sample_into(tex, frag.uv, ddx, ddy, &mut scratch.fetches);
            let texels = info.conventional_texels.max(scratch.fetches.len() as u32);
            layout.texel_line_addrs_into(scratch.fetches.fetches(), &mut scratch.line_addrs);
            for &line in &scratch.line_addrs {
                if !buf.quad_lines[quad_lines_before..].contains(&line) {
                    buf.quad_lines.push(line);
                }
            }
            buf.colors.push(info.color);
            buf.texels.push(texels);
            buf.aniso.push(info.aniso_ratio);
        }
        buf.quad_line_start.push(buf.quad_lines.len() as u32);
    }
}

/// Per-worker scratch buffers for phase-1 fills (no steady-state
/// allocation, mirroring the serial path's `PathScratch`).
#[derive(Debug, Default)]
pub(crate) struct PreScratch {
    fetches: FetchSet,
    line_addrs: Vec<u64>,
    lines: Vec<u64>,
}

/// Resolves the phase-1 worker count for a replay: `lanes` capped to
/// the cluster count (a lane per cluster is the maximum useful width).
pub(crate) fn lane_workers(lanes: usize, clusters: usize) -> usize {
    lanes.clamp(1, clusters.max(1))
}

/// Runs phase 1 for one frame: fills every cluster's [`LanePre`] buffer
/// across `workers` scoped threads (contiguous cluster chunks — the
/// round-robin tile partition keeps per-cluster loads near-uniform, so
/// static chunking balances well). Output is keyed by cluster index and
/// therefore independent of worker count and scheduling.
#[allow(clippy::too_many_arguments)]
pub(crate) fn precompute_frame(
    pre: &Precomputer,
    data: &StreamData,
    frame: &FrameEntry,
    scheduler: &TileScheduler,
    textures: &[&MippedTexture],
    layouts: &[TextureLayout],
    bufs: &mut [LanePre],
    workers: usize,
) {
    let clusters = bufs.len();
    let workers = lane_workers(workers, clusters);
    if workers <= 1 {
        let mut scratch = PreScratch::default();
        for (lane, buf) in bufs.iter_mut().enumerate() {
            pre.fill_lane(
                lane,
                data,
                frame,
                scheduler,
                textures,
                layouts,
                buf,
                &mut scratch,
            );
        }
        return;
    }
    let chunk = clusters.div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, bufs_chunk) in bufs.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                let mut scratch = PreScratch::default();
                for (bi, buf) in bufs_chunk.iter_mut().enumerate() {
                    pre.fill_lane(
                        ci * chunk + bi,
                        data,
                        frame,
                        scheduler,
                        textures,
                        layouts,
                        buf,
                        &mut scratch,
                    );
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_workloads::{build_scene_unchecked, Game, Resolution, SceneTrace};

    fn tiny_scene() -> SceneTrace {
        let mut profile = Game::Doom3.profile();
        profile.floor_quads = 4;
        profile.texture_count = 4;
        profile.facing_props = 1;
        build_scene_unchecked(&profile, Resolution::R320x240, 1)
    }

    #[test]
    fn lane_fill_is_worker_count_invariant() {
        let scene = tiny_scene();
        let data = StreamData::build(&scene, SimConfig::default().tile_px, 1).expect("stream");
        let textures: Vec<&MippedTexture> = scene.textures.iter().collect();
        let layouts: Vec<TextureLayout> = scene
            .textures
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let dims: Vec<(u32, u32)> = (0..t.level_count())
                    .map(|l| (t.level(l).width(), t.level(l).height()))
                    .collect();
                TextureLayout::new(t.id(), 0x1000_0000 + ((i as u64) << 20), &dims)
            })
            .collect();
        let fe = &data.frames[0];
        let expect: usize = data.frame_tiles(fe).map(|t| t.fragments.len()).sum();
        for design in [Design::Baseline, Design::STfim] {
            let config = SimConfig::builder().design(design).build().expect("valid");
            let pre = Precomputer::new(&config).expect("a phase-1 design");
            let clusters = config.shader.clusters;
            let scheduler = TileScheduler::new(clusters, scene.width().div_ceil(config.tile_px));
            let fill = |workers: usize| {
                let mut bufs: Vec<LanePre> = (0..clusters).map(|_| LanePre::default()).collect();
                precompute_frame(
                    &pre, &data, fe, &scheduler, &textures, &layouts, &mut bufs, workers,
                );
                bufs
            };
            let serial = fill(1);
            for workers in [2, 4, 16] {
                for (a, b) in serial.iter().zip(&fill(workers)) {
                    assert_eq!(a.colors, b.colors, "{design}");
                    assert_eq!(a.texels, b.texels, "{design}");
                    assert_eq!(a.line_start, b.line_start, "{design}");
                    assert_eq!(a.lines, b.lines, "{design}");
                    assert_eq!(a.quad_line_start, b.quad_line_start, "{design}");
                    assert_eq!(a.quad_lines, b.quad_lines, "{design}");
                }
            }
            // Every fragment of the frame landed in exactly one lane.
            let total: usize = serial.iter().map(|l| l.colors.len()).sum();
            assert_eq!(total, expect, "{design}");
        }
    }

    #[test]
    fn atfim_has_no_phase_one() {
        let config = SimConfig::builder()
            .design(Design::ATfim)
            .build()
            .expect("valid");
        assert!(Precomputer::new(&config).is_none());
    }

    #[test]
    fn lane_workers_clamps() {
        assert_eq!(lane_workers(0, 16), 1);
        assert_eq!(lane_workers(1, 16), 1);
        assert_eq!(lane_workers(4, 16), 4);
        assert_eq!(lane_workers(64, 16), 16);
        assert_eq!(lane_workers(4, 0), 1);
    }
}
