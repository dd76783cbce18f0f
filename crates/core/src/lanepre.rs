//! Streamed two-phase backend replay: phase 1 fills per-chunk records
//! ahead of the phase-2 tile walk.
//!
//! The backend replay has two kinds of work per fragment quad:
//!
//! 1. **Pure functional work** — sampler filtering math, texel line
//!    addressing, and A-TFIM's footprint, angle tag and wrapped parent
//!    corners. These depend only on the fragment, the texture, and the
//!    immutable layout: no caches, no servers, no cross-quad order.
//! 2. **Order-sensitive work** — L1/L2 probes, DRAM/HMC/MTU servers,
//!    the A-TFIM parent store, and the ROP. These mutate shared state
//!    whose evolution depends on the exact global tile order. Phase 2
//!    runs it as a functional step (probes, parent store) and a timing
//!    step per design (servers, ROP); see [`crate::texpath`].
//!
//! Replay splits each frame's tiles, in stream order, into **chunks**:
//! contiguous tile runs of about [`CHUNK_FRAGMENTS`] fragments, closed
//! at a tile boundary ([`ChunkPlan`]). Phase 1 fills one
//! [`ChunkRecords`] per chunk with the kind-1 results; phase 2 walks the
//! tiles in the original order, consumes one record per fragment, and
//! runs only kind-2 work. Every cache probe, server issue, and stats
//! increment happens in the same order with the same operands as the
//! serial per-quad path, so the resulting
//! [`RenderReport`](crate::RenderReport) is byte-identical **by
//! construction** — the property the `lane_equivalence` suite pins
//! against the serial oracle for every design.
//!
//! With one lane, [`fill_inline`] fills each chunk on the calling thread
//! just before the walk consumes it. With more, [`fill_streamed`] runs
//! helper threads that fill chunks ahead of the walk, at most
//! [`QUEUE_DEPTH`] finished chunks queued per helper, so record memory
//! stays bounded by a constant number of chunks however large the frame
//! is. A chunk's records depend only on its index, never on which thread
//! filled it.
//!
//! A-TFIM's phase 1 speculates nothing: it records the footprint, mip
//! levels and blend weight, the angle tag, the bilinear base and weights,
//! the degenerate-kernel flag, and the four wrapped corners with their
//! line addresses. Whether a parent value is reused or recomputed depends
//! on live cache and parent-store state, so that decision — and the rare
//! recompute — stays in phase 2.

use crate::design::Design;
use crate::stream::{StreamData, StreamTile};
use crate::texpath::{self, AtfimPrefix};
use pimgfx_raster::Fragment;
use pimgfx_texture::{FetchSink, MippedTexture, Sampler, TexelFetch, TextureLayout};
use pimgfx_types::Rgba;
use std::ops::Range;
use std::sync::mpsc;

/// Target fragment count of one chunk. A chunk closes at the first tile
/// boundary at or past it, so a chunk holds at least one whole tile.
/// Measured against 4096-fragment chunks with two queued per helper:
/// those ran one-lane sweeps 1.5–4% slower and peaked two concurrent
/// 2-lane serve jobs 10 MiB higher
/// (docs/PERFORMANCE.md "Where the time went: streamed replay").
const CHUNK_FRAGMENTS: usize = 1024;

/// Finished chunks a helper may queue ahead of the walk. A helper
/// allocates a record buffer only when none of its own has come back
/// from the walk, and then its others are queued or held by the walk,
/// so each helper owns at most `QUEUE_DEPTH + 2` buffers.
const QUEUE_DEPTH: usize = 1;

/// The chunk partition of a stream: contiguous tile ranges in stream
/// order, never spanning two frames. Depends only on the stream.
#[derive(Debug, Default)]
pub(crate) struct ChunkPlan {
    /// Tile range (indices into the stream's tile directory) per chunk.
    chunks: Vec<Range<usize>>,
    /// Per frame, its range of chunk indices.
    frames: Vec<Range<usize>>,
}

impl ChunkPlan {
    /// Cuts every frame of `data` into chunks of about
    /// [`CHUNK_FRAGMENTS`] fragments.
    pub fn new(data: &StreamData) -> Self {
        let mut plan = Self::default();
        for fe in &data.frames {
            let first = plan.chunks.len();
            let tiles = data.frame_tile_range(fe);
            let mut start = tiles.start;
            let mut frags = 0usize;
            for t in tiles.clone() {
                frags += data.tile(t).fragments.len();
                if frags >= CHUNK_FRAGMENTS {
                    plan.chunks.push(start..t + 1);
                    start = t + 1;
                    frags = 0;
                }
            }
            if start < tiles.end {
                plan.chunks.push(start..tiles.end);
            }
            plan.frames.push(first..plan.chunks.len());
        }
        plan
    }

    /// Number of chunks across all frames.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Chunk indices of frame `frame`, in walk order.
    pub fn frame_chunks(&self, frame: usize) -> Range<usize> {
        self.frames[frame].clone()
    }

    /// Tile range of chunk `k`.
    pub fn tiles(&self, k: usize) -> Range<usize> {
        self.chunks[k].clone()
    }
}

/// Phase-1 output for one chunk (or one quad), in walk order. Flat SoA
/// buffers with prefix indices; cleared and refilled per chunk, so a
/// recycled buffer stops allocating once it has seen the largest chunk.
#[derive(Debug, Default)]
pub(crate) struct ChunkRecords {
    /// Per-fragment filtered color (conventional and S-TFIM designs).
    pub colors: Vec<Rgba>,
    /// Per-fragment texel count (conventional and S-TFIM designs).
    pub texels: Vec<u32>,
    /// Per-fragment anisotropy ratio (conventional and S-TFIM designs).
    pub aniso: Vec<u32>,
    /// Per-fragment prefix into [`ChunkRecords::lines`] (conventional
    /// and S-TFIM designs); `line_start.len() == fragment count + 1`.
    pub line_start: Vec<u32>,
    /// Deduplicated per-fragment cache-line addresses, first-occurrence
    /// order (conventional and S-TFIM designs).
    pub lines: Vec<u64>,
    /// Per-quad prefix into [`ChunkRecords::quad_lines`] when an S-TFIM
    /// design replays; `quad_line_start.len() == quad count + 1`.
    pub quad_line_start: Vec<u32>,
    /// Per quad, the request lines an S-TFIM package carries: the
    /// first-occurrence union of its fragments' lines.
    pub quad_lines: Vec<u64>,
    /// Per-fragment pure prefix of the A-TFIM GPU-side pass.
    pub atfim: Vec<AtfimPrefix>,
}

impl ChunkRecords {
    /// Empties every buffer, keeping capacity, and writes the leading
    /// zero of both prefix arrays.
    pub fn reset(&mut self) {
        self.colors.clear();
        self.texels.clear();
        self.aniso.clear();
        self.line_start.clear();
        self.line_start.push(0);
        self.lines.clear();
        self.quad_line_start.clear();
        self.quad_line_start.push(0);
        self.quad_lines.clear();
        self.atfim.clear();
    }

    /// Fragments recorded.
    pub fn fragments(&self) -> usize {
        self.colors.len().max(self.atfim.len())
    }
}

/// Phase-2 consumption cursor into one [`ChunkRecords`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Cursor {
    /// Fragments consumed.
    pub frag: usize,
    /// Quads consumed.
    pub quad: usize,
}

/// The [`FetchSink`] of conventional and S-TFIM phase 1: it keeps cache
/// lines, not texels. Each texel read maps to its line through the
/// texture's layout, and the line is appended to `lines` unless
/// `lines[start..]` (the fragment's lines) already holds it. A repeated
/// texel maps to a line appended at its first read, so the lines come
/// out in the order a texel dedup followed by a line dedup produces.
struct LineSink<'a> {
    layout: &'a TextureLayout,
    lines: &'a mut Vec<u64>,
    start: usize,
    /// The previous read's line: consecutive reads mostly share one.
    /// Starts at `u64::MAX`, never a line address (lines are 64-byte
    /// aligned).
    last: u64,
}

impl<'a> LineSink<'a> {
    fn new(layout: &'a TextureLayout, lines: &'a mut Vec<u64>, start: usize) -> Self {
        Self {
            layout,
            lines,
            start,
            last: u64::MAX,
        }
    }
}

impl FetchSink for LineSink<'_> {
    #[inline]
    fn record(&mut self, fetch: TexelFetch) {
        let line = self
            .layout
            .texel_line_addr(fetch.x, fetch.y, usize::from(fetch.level));
        if line == self.last {
            return;
        }
        self.last = line;
        if !self.lines[self.start..].contains(&line) {
            self.lines.push(line);
        }
    }
}

/// The phase-1 worker: the design's pure sampling configuration, safe
/// to run on any thread against shared read-only stream and texture
/// data. It uses the texture path's own sampler, so its colors and
/// footprints are bit-identical to what a serial pass computes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Filler {
    design: Design,
    sampler: Sampler,
    /// Conventional records: also record each quad's S-TFIM request
    /// lines.
    quad_lines: bool,
}

impl Filler {
    /// A filler for `design` sampling through `sampler`; it records
    /// quad request lines for S-TFIM.
    pub fn new(design: Design, sampler: Sampler) -> Self {
        Self {
            design,
            sampler,
            quad_lines: design == Design::STfim,
        }
    }

    /// This filler, recording quad request lines when `on` (a replay
    /// group with an S-TFIM member).
    pub fn with_quad_lines(self, on: bool) -> Self {
        Self {
            quad_lines: on,
            ..self
        }
    }

    /// Appends one quad's phase-1 records to `recs`.
    pub fn fill_quad(
        &self,
        quad: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        recs: &mut ChunkRecords,
    ) {
        match self.design {
            Design::Baseline | Design::BPim | Design::STfim => {
                self.fill_conventional(quad, tex, layout, recs);
            }
            Design::ATfim => {
                for frag in quad {
                    recs.atfim
                        .push(texpath::atfim_prefix(&self.sampler, frag, tex, layout));
                }
            }
        }
    }

    /// Fills `recs` with chunk `k` of `src`.
    pub fn fill_chunk(&self, src: &ChunkSource<'_>, k: usize, recs: &mut ChunkRecords) {
        recs.reset();
        for t in src.plan.tiles(k) {
            let tile: StreamTile<'_> = src.data.tile(t);
            for quad in tile.quads() {
                let i = quad[0].texture.index();
                self.fill_quad(quad, src.textures[i], &src.layouts[i], recs);
            }
        }
    }

    /// Conventional and S-TFIM phase 1: the full sampler pass,
    /// recording each fragment's distinct cache lines — everything the
    /// conventional path computes before its first cache probe — and,
    /// for S-TFIM, the quad's request lines.
    fn fill_conventional(
        &self,
        quad: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        recs: &mut ChunkRecords,
    ) {
        let quad_start = recs.quad_lines.len();
        for frag in quad {
            let (ddx, ddy) = texpath::texel_derivs(tex, frag);
            let start = recs.lines.len();
            let mut sink = LineSink::new(layout, &mut recs.lines, start);
            let info = self.sampler.sample_with(tex, frag.uv, ddx, ddy, &mut sink);
            recs.colors.push(info.color);
            recs.texels.push(info.conventional_texels);
            recs.aniso.push(info.aniso_ratio);
            recs.line_start.push(recs.lines.len() as u32);
            if self.quad_lines {
                // A fragment's own lines are distinct, so only the
                // earlier fragments' can repeat them.
                let earlier = recs.quad_lines.len();
                for i in start..recs.lines.len() {
                    let line = recs.lines[i];
                    if !recs.quad_lines[quad_start..earlier].contains(&line) {
                        recs.quad_lines.push(line);
                    }
                }
            }
        }
        if self.quad_lines {
            recs.quad_line_start.push(recs.quad_lines.len() as u32);
        }
    }
}

/// Everything a chunk fill reads: the stream, its chunk plan, and the
/// per-texture-index sampled textures and layouts. Shared read-only by
/// every helper thread.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkSource<'a> {
    pub data: &'a StreamData,
    pub plan: &'a ChunkPlan,
    pub textures: &'a [&'a MippedTexture],
    pub layouts: &'a [TextureLayout],
}

/// Loads chunk `k`'s records into the buffer the walk holds; `false`
/// when no records will come (a helper thread died).
pub(crate) type LoadChunk<'f> = dyn FnMut(usize, &mut ChunkRecords) -> bool + 'f;

/// Resolves a replay's lane count: `lanes` capped to the cluster count,
/// which bounds the helper threads one replay spawns.
pub(crate) fn lane_workers(lanes: usize, clusters: usize) -> usize {
    lanes.clamp(1, clusters.max(1))
}

/// One-lane replay: runs `walk`, filling each chunk on the calling
/// thread when the walk asks for it.
pub(crate) fn fill_inline<R>(
    filler: &Filler,
    src: ChunkSource<'_>,
    walk: impl FnOnce(&mut LoadChunk<'_>) -> R,
) -> R {
    let mut load = |k: usize, recs: &mut ChunkRecords| {
        filler.fill_chunk(&src, k, recs);
        true
    };
    walk(&mut load)
}

/// Multi-lane replay: runs `walk` on the calling thread while `helpers`
/// scoped threads fill chunks ahead of it. Helper `h` fills chunks
/// `h, h + helpers, …` in order into its own bounded queue, so the walk
/// receives chunk `k` from queue `k % helpers` with no reordering, and
/// hands each consumed buffer back to the helper that filled it. Only
/// channels synchronize the threads.
pub(crate) fn fill_streamed<R>(
    filler: &Filler,
    src: ChunkSource<'_>,
    helpers: usize,
    walk: impl FnOnce(&mut LoadChunk<'_>) -> R,
) -> R {
    let helpers = helpers.max(1);
    std::thread::scope(|scope| {
        let mut ready = Vec::with_capacity(helpers);
        let mut spent = Vec::with_capacity(helpers);
        for h in 0..helpers {
            let (ready_tx, ready_rx) = mpsc::sync_channel::<ChunkRecords>(QUEUE_DEPTH);
            let (spent_tx, spent_rx) = mpsc::channel::<ChunkRecords>();
            ready.push(ready_rx);
            spent.push(spent_tx);
            scope.spawn(move || {
                for k in (h..src.plan.len()).step_by(helpers) {
                    let mut recs = spent_rx.try_recv().unwrap_or_default();
                    filler.fill_chunk(&src, k, &mut recs);
                    if ready_tx.send(recs).is_err() {
                        // The walk stopped early; nobody wants the rest.
                        return;
                    }
                }
            });
        }
        // The helper whose buffer the walk holds (none before the
        // first chunk: that buffer is the walk's own, still empty).
        let mut held: Option<usize> = None;
        let mut load = |k: usize, recs: &mut ChunkRecords| {
            let h = k % helpers;
            let Ok(fresh) = ready[h].recv() else {
                return false;
            };
            let done = std::mem::replace(recs, fresh);
            if let Some(owner) = held.replace(h) {
                // A helper past its last chunk has dropped its receiver;
                // the buffer is then simply freed.
                let _ = spent[owner].send(done);
            }
            true
        };
        walk(&mut load)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::texpath::TexFunctional;
    use pimgfx_texture::{FilterMode, SamplerConfig};
    use pimgfx_workloads::{build_scene_unchecked, Game, Resolution, SceneTrace};

    fn tiny_scene() -> SceneTrace {
        let mut profile = Game::Doom3.profile();
        profile.floor_quads = 4;
        profile.texture_count = 4;
        profile.facing_props = 1;
        build_scene_unchecked(&profile, Resolution::R320x240, 2)
    }

    /// Chunk records as comparable text (the A-TFIM prefix holds f32s,
    /// so `Debug` is the bit-exact rendering).
    fn dump(recs: &ChunkRecords) -> String {
        format!("{recs:?}")
    }

    #[test]
    fn chunk_fills_do_not_depend_on_worker_count() {
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
        let plan = ChunkPlan::new(&data);
        let src = ChunkSource {
            data: &data,
            plan: &plan,
            textures: &textures,
            layouts: &layouts,
        };

        // Every fragment of every frame lands in exactly one chunk, and
        // chunks tile each frame's tile range in order.
        let mut fragments = 0usize;
        for (f, fe) in data.frames.iter().enumerate() {
            let mut next = data.frame_tile_range(fe).start;
            for k in plan.frame_chunks(f) {
                assert_eq!(plan.tiles(k).start, next, "chunk {k} is contiguous");
                assert!(!plan.tiles(k).is_empty(), "chunk {k} holds a tile");
                next = plan.tiles(k).end;
                fragments += plan
                    .tiles(k)
                    .map(|t| data.tile(t).fragments.len())
                    .sum::<usize>();
            }
            assert_eq!(next, data.frame_tile_range(fe).end, "frame {f} covered");
        }
        let expect: usize = data
            .frames
            .iter()
            .flat_map(|fe| data.frame_tiles(fe))
            .map(|t| t.fragments.len())
            .sum();
        assert_eq!(fragments, expect);
        assert!(plan.len() > data.frames.len(), "frames split into chunks");

        for design in Design::ALL {
            let config = SimConfig::builder().design(design).build().expect("valid");
            let filler = TexFunctional::new(&config).expect("valid").filler();
            let fill = |workers: usize| -> Vec<String> {
                let walk = |load: &mut LoadChunk<'_>| {
                    let mut recs = ChunkRecords::default();
                    (0..plan.len())
                        .map(|k| {
                            assert!(load(k, &mut recs), "{design}: chunk {k}");
                            dump(&recs)
                        })
                        .collect()
                };
                if workers == 1 {
                    fill_inline(&filler, src, walk)
                } else {
                    fill_streamed(&filler, src, workers, walk)
                }
            };
            let one = fill(1);
            let recorded: usize = (0..plan.len())
                .map(|k| {
                    let mut recs = ChunkRecords::default();
                    filler.fill_chunk(&src, k, &mut recs);
                    recs.fragments()
                })
                .sum();
            assert_eq!(recorded, expect, "{design}: one record per fragment");
            for workers in [2, 4, 16] {
                assert_eq!(one, fill(workers), "{design}: {workers} workers");
            }
        }
    }

    /// Conventional and S-TFIM records filled through the line sink
    /// must equal the texel-trace path they replaced — the sampler's
    /// `FetchSet` trace, its texel count `max`ed with the distinct
    /// fetches, then `dedup_lines_into` per fragment — over seeded
    /// random quads, every filter mode and both anisotropy caps. Both
    /// designs fill the same per-fragment records, and an S-TFIM quad's
    /// request lines — the first-occurrence union of its fragments'
    /// lines — equal the quad-wide first-occurrence dedup of every texel
    /// line the quad reads, the list S-TFIM once recorded on its own.
    #[test]
    fn phase1_records_match_texel_trace_oracle() {
        let (textures, layouts) = crate::testkit::textures();
        let quads = crate::testkit::quads(0x9e37_0018, &textures, 500);
        let bits = |c: Rgba| [c.r, c.g, c.b, c.a].map(f32::to_bits);
        let mut fetches = pimgfx_texture::FetchSet::new();
        let (mut addrs, mut lines) = (Vec::new(), Vec::new());
        let mut shared_lines = 0usize;
        for filter in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
            FilterMode::Anisotropic,
        ] {
            for max_aniso in [1, 16] {
                let sampler = Sampler::new(SamplerConfig {
                    filter,
                    max_aniso,
                    reordered: false,
                });
                let fill = |design: Design| {
                    let filler = Filler::new(design, sampler);
                    let mut recs = ChunkRecords::default();
                    recs.reset();
                    for quad in &quads {
                        let t = quad[0].texture.index();
                        filler.fill_quad(quad, &textures[t], &layouts[t], &mut recs);
                    }
                    recs
                };
                let recs = fill(Design::STfim);
                let conventional = fill(Design::Baseline);
                assert_eq!(
                    format!("{:?}", (&recs.colors, &recs.texels, &recs.aniso)),
                    format!(
                        "{:?}",
                        (
                            &conventional.colors,
                            &conventional.texels,
                            &conventional.aniso
                        )
                    ),
                    "{filter:?}"
                );
                assert_eq!(
                    (&recs.line_start, &recs.lines),
                    (&conventional.line_start, &conventional.lines)
                );
                assert!(conventional.quad_lines.is_empty());
                let mut i = 0;
                for (q, quad) in quads.iter().enumerate() {
                    let t = quad[0].texture.index();
                    let (tex, layout) = (&textures[t], &layouts[t]);
                    let mut quad_lines: Vec<u64> = Vec::new();
                    let mut union: Vec<u64> = Vec::new();
                    for frag in quad {
                        let ctx = format!("{filter:?} a={max_aniso} frag {i}");
                        let (ddx, ddy) = texpath::texel_derivs(tex, frag);
                        let info = sampler.sample_into(tex, frag.uv, ddx, ddy, &mut fetches);
                        let texels = info.conventional_texels.max(fetches.len() as u32);
                        texpath::dedup_lines_into(
                            fetches.fetches(),
                            layout,
                            &mut addrs,
                            &mut lines,
                        );
                        assert_eq!(bits(recs.colors[i]), bits(info.color), "{ctx}");
                        assert_eq!(recs.texels[i], texels, "{ctx}");
                        assert_eq!(recs.aniso[i], info.aniso_ratio, "{ctx}");
                        let span = recs.line_start[i] as usize..recs.line_start[i + 1] as usize;
                        assert_eq!(recs.lines[span.clone()], lines[..], "{ctx}");
                        for &l in &addrs {
                            if !quad_lines.contains(&l) {
                                quad_lines.push(l);
                            }
                        }
                        for &l in &recs.lines[span] {
                            if union.contains(&l) {
                                shared_lines += 1;
                            } else {
                                union.push(l);
                            }
                        }
                        i += 1;
                    }
                    assert_eq!(union, quad_lines, "{filter:?} a={max_aniso} quad {q}");
                    let span =
                        recs.quad_line_start[q] as usize..recs.quad_line_start[q + 1] as usize;
                    assert_eq!(recs.quad_lines[span], union[..], "quad {q}");
                }
                assert_eq!(i, recs.fragments());
            }
        }
        // Fragments of a quad do share lines, so the union is exercised.
        assert!(shared_lines > 1000, "{shared_lines}");
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
