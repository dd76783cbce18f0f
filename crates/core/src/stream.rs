//! The variant-invariant frontend artifact and its cache.
//!
//! Everything upstream of texturing — vertex transform, clipping,
//! rasterization with early-Z, tile binning, and 2x2-quad grouping — is
//! purely functional and depends only on the scene, never on the design
//! point, memory geometry, or sampler configuration. A sweep column that
//! renders the same scene through many variants therefore repeats that
//! work identically per variant. [`FragmentStream`] captures one
//! frontend pass as a compact, immutable, structure-of-arrays artifact;
//! [`Simulator::render_replay`](crate::sim::Simulator::render_replay)
//! re-runs only the variant-*dependent* backend (geometry timing,
//! shading, texture layout/filtering/caching, ROP, DRAM, energy) over
//! it, producing a report byte-identical to a direct
//! [`render_trace`](crate::sim::Simulator::render_trace).
//!
//! The build runs two passes per frame, in the shape of a tile-based
//! GPU (and of piet-gpu's binning pipeline):
//!
//! 1. **Coverage** (serial, draw order): [`Rasterizer::cover`] clips,
//!    sets up, Hi-Z-tests, and depth-tests every triangle, and each
//!    surviving pixel is appended as `(pixel, setup index)` to its
//!    screen tile's bin. Depth testing is order-dependent, so this pass
//!    is the serial floor; it stores 8 bytes per fragment and shades
//!    nothing.
//! 2. **Shade and group** (parallel): the frame's occupied tiles are cut
//!    into contiguous ranges of near-equal fragment count, one per
//!    worker of the thread budget ([`crate::budget`]). Each worker
//!    recomputes barycentrics, depth, and perspective-correct attributes
//!    for its recorded pixels — the same f32 operations on the same
//!    operands as the coverage pass, hence the same bits — groups each
//!    tile into 2x2 quads, and writes its own exactly-sized fragment
//!    chunk.
//!
//! Tiles come out in row-major order and fragments keep their
//! rasterization order within a quad, so the stream is identical at any
//! worker count, and identical to shading in [`Rasterizer::rasterize`]
//! and binning afterwards.
//!
//! What is deliberately **not** stored here:
//!
//! * texture layouts — byte addresses depend on the memory's cube
//!   count, so replay recomputes them per variant;
//! * any cycle quantity — all timing is charged during replay;
//! * transcoded texels — compression is a variant knob.
//!
//! [`FragmentStreamCache`] memoizes streams per benchmark column
//! (keyed by game, resolution, and frame count) so a multi-variant
//! column pays the frontend exactly once; it mirrors the scene cache's
//! locking discipline (build outside the lock, first insertion wins,
//! LRU eviction on a bounded cache) and additionally counts hits and
//! misses for run-manifest reporting.

use crate::fxhash::FxHashMap;
use pimgfx_raster::{CoverageSink, Fragment, RasterStats, Rasterizer, TriangleSetup};
use pimgfx_types::{ConfigError, Result, TextureId, TileCoord};
use pimgfx_workloads::{Resolution, SceneTrace, Workload};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One frontend pass over a scene: every post-raster fragment of every
/// frame, tiled and quad-grouped, plus the per-frame raster counters.
///
/// The artifact is immutable and `Send + Sync`; sweep workers share one
/// stream by [`Arc`] while each drives its own simulator backend.
///
/// # Examples
///
/// ```no_run
/// use pimgfx::{Design, FragmentStream, SimConfig, Simulator};
/// use pimgfx_workloads::{build_scene, Game, Resolution};
/// use std::sync::Arc;
///
/// let scene = Arc::new(build_scene(Game::Doom3, Resolution::R320x240, 1));
/// let config = SimConfig::default();
/// let stream = FragmentStream::build(Arc::clone(&scene), config.tile_px)?;
/// // Replay through two designs; the frontend ran once.
/// for design in [Design::Baseline, Design::ATfim] {
///     let config = SimConfig::builder().design(design).build()?;
///     let mut sim = Simulator::new(config)?;
///     let report = sim.render_replay(&stream)?;
///     assert!(report.total_cycles > 0);
/// }
/// # Ok::<(), pimgfx_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct FragmentStream {
    scene: Arc<SceneTrace>,
    tile_px: u32,
    data: StreamData,
    build_wall: Duration,
}

// Pool workers and serve job slots hand streams across threads
// behind an `Arc`; keep the guarantee checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FragmentStream>();
    assert_send_sync::<FragmentStreamCache>();
};

impl FragmentStream {
    /// Runs the frontend (rasterize, bin, quad-group) for every frame
    /// of `scene` at the given tile size, shading tiles on the whole
    /// thread budget ([`crate::budget::configured_workers`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the scene has no frames, `tile_px`
    /// is zero, or the thread budget override is malformed.
    pub fn build(scene: Arc<SceneTrace>, tile_px: u32) -> Result<Self> {
        let workers = crate::budget::configured_workers()?;
        Self::build_with_workers(scene, tile_px, workers)
    }

    /// [`build`](Self::build) with the shading pass spread over exactly
    /// `workers` threads (`0` counts as 1) instead of the budget. The
    /// stream is identical for every worker count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the scene has no frames or
    /// `tile_px` is zero.
    pub fn build_with_workers(
        scene: Arc<SceneTrace>,
        tile_px: u32,
        workers: usize,
    ) -> Result<Self> {
        // det:boundary — frontend build wall-time, reported in run
        // manifests only; never feeds cycle accounting or figure CSVs.
        let start = Instant::now();
        let data = StreamData::build(&scene, tile_px, workers)?;
        Ok(Self {
            scene,
            tile_px,
            data,
            build_wall: start.elapsed(),
        })
    }

    /// The scene this stream was built from.
    pub fn scene(&self) -> &Arc<SceneTrace> {
        &self.scene
    }

    /// Tile size (pixels) the fragments were binned with. Replay
    /// requires the simulator's `tile_px` to match.
    pub fn tile_px(&self) -> u32 {
        self.tile_px
    }

    /// Wall-clock time the frontend pass took, for manifest accounting.
    pub fn build_wall(&self) -> Duration {
        self.build_wall
    }

    /// Frames captured.
    pub fn frame_count(&self) -> usize {
        self.data.frames.len()
    }

    /// Total post-early-Z fragments across all frames.
    pub fn fragment_count(&self) -> u64 {
        self.data
            .chunks
            .iter()
            .map(|c| c.fragments.len() as u64)
            .sum()
    }

    /// Total 2x2 texture quads across all frames.
    pub fn quad_count(&self) -> u64 {
        self.data
            .chunks
            .iter()
            .map(|c| c.quad_lens.len() as u64)
            .sum()
    }

    /// The binned tiles of frame `frame` in row-major order (none for
    /// a frame past the end).
    pub fn frame_tiles(&self, frame: usize) -> impl Iterator<Item = StreamTile<'_>> {
        self.data
            .frames
            .get(frame)
            .into_iter()
            .flat_map(|fe| self.data.frame_tiles(fe))
    }

    /// The rasterizer's counters for frame `frame`, or `None` past the
    /// last frame.
    pub fn frame_raster(&self, frame: usize) -> Option<RasterStats> {
        self.data.frames.get(frame).map(|fe| fe.raster)
    }

    /// The raw index, for the replay loop.
    pub(crate) fn data(&self) -> &StreamData {
        &self.data
    }
}

/// One binned tile of a [`FragmentStream`], as replay walks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamTile<'a> {
    /// The tile's coordinate in tile units.
    pub coord: TileCoord,
    /// The tile's fragments, each 2x2 quad contiguous, quads in
    /// first-occurrence order, fragments of a quad in rasterization
    /// order.
    pub fragments: &'a [Fragment],
    /// Fragment count of each quad, in order (a quad normally holds up
    /// to 4 fragments, but overdraw across draw calls sharing a texture
    /// can stack more).
    pub quad_lens: &'a [u16],
}

impl<'a> StreamTile<'a> {
    /// The tile's quads, in order.
    pub fn quads(&self) -> impl Iterator<Item = &'a [Fragment]> {
        let fragments = self.fragments;
        let mut offset = 0usize;
        self.quad_lens.iter().map(move |&len| {
            let quad = &fragments[offset..offset + usize::from(len)];
            offset += usize::from(len);
            quad
        })
    }
}

/// Fragment index: exactly-sized fragment chunks (one per frame and
/// shading worker), and tile/frame directories of ranges into them.
#[derive(Debug, Default)]
pub(crate) struct StreamData {
    /// Shaded output, one chunk per (frame, worker range).
    chunks: Vec<Chunk>,
    /// Every binned tile of every frame, frame-major, row-major within
    /// a frame.
    tiles: Vec<TileEntry>,
    /// Per-frame ranges into `tiles`, plus that frame's raster stats.
    pub(crate) frames: Vec<FrameEntry>,
}

/// One shading worker's output for one frame.
#[derive(Debug, Default)]
struct Chunk {
    /// Fragments of consecutive tiles, grouped quad-contiguously.
    fragments: Vec<Fragment>,
    /// Fragment count of each quad, in order.
    quad_lens: Vec<u16>,
}

/// One binned tile: its coordinate, its chunk, and its fragment and
/// quad ranges within that chunk.
#[derive(Debug, Clone, Copy)]
struct TileEntry {
    coord: TileCoord,
    chunk: u32,
    frag_start: u32,
    frag_len: u32,
    quad_start: u32,
    quad_len: u32,
}

/// One frame: its tile range plus the rasterizer's per-frame counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameEntry {
    tile_start: u32,
    tile_len: u32,
    pub(crate) raster: RasterStats,
}

impl StreamData {
    /// Runs the full frontend for every camera of `scene`, shading on
    /// `workers` threads.
    pub(crate) fn build(scene: &SceneTrace, tile_px: u32, workers: usize) -> Result<Self> {
        if scene.cameras.is_empty() {
            return Err(ConfigError::new("simulator", "scene has no frames"));
        }
        if tile_px == 0 {
            return Err(ConfigError::new("simulator", "tile size must be nonzero"));
        }
        let width = scene.width();
        let tiles_x = width.div_ceil(tile_px);
        let tile_count = tiles_x as usize * scene.height().div_ceil(tile_px) as usize;
        let mut raster = Rasterizer::with_tile_size(width, scene.height(), tile_px);
        let mut binner = Binner {
            setups: Vec::new(),
            current: 0,
            bins: vec![Vec::new(); tile_count],
            tiles_x,
            width,
        };
        let mut data = Self::default();
        for camera in &scene.cameras {
            // Pass 1: coverage, serial and in draw order.
            raster.begin_frame();
            binner.setups.clear();
            binner.bins.iter_mut().for_each(Vec::clear);
            for draw in &scene.draws {
                raster.bind_texture(draw.texture);
                for tri in &draw.triangles {
                    raster.cover(camera, tri, &mut binner);
                }
            }

            // Pass 2: shade and quad-group contiguous tile ranges, one
            // per worker.
            let frame = Frame {
                bins: &binner.bins,
                setups: &binner.setups,
                tile_px,
                tiles_x,
                width,
            };
            let occupied: Vec<u32> = (0..tile_count as u32)
                .filter(|&t| !frame.bins[t as usize].is_empty())
                .collect();
            let ranges = balance(
                occupied.iter().map(|&t| frame.bins[t as usize].len()),
                workers,
            );
            let mut outs: Vec<RangeOut> = ranges.iter().map(|_| RangeOut::default()).collect();
            if let Some((first, rest)) = outs.split_first_mut() {
                std::thread::scope(|scope| {
                    for (out, range) in rest.iter_mut().zip(&ranges[1..]) {
                        let tiles = &occupied[range.clone()];
                        scope.spawn(move || frame.shade(tiles, out));
                    }
                    frame.shade(&occupied[ranges[0].clone()], first);
                });
            }

            let tile_start = data.tiles.len() as u32;
            for out in outs {
                let chunk = data.chunks.len() as u32;
                data.tiles
                    .extend(out.tiles.into_iter().map(|te| TileEntry { chunk, ..te }));
                data.chunks.push(out.chunk);
            }
            data.frames.push(FrameEntry {
                tile_start,
                tile_len: data.tiles.len() as u32 - tile_start,
                raster: *raster.stats(),
            });
        }
        Ok(data)
    }

    /// Tile `i` of the tile directory (frame-major, row-major within a
    /// frame), resolved against its chunk.
    pub(crate) fn tile(&self, i: usize) -> StreamTile<'_> {
        let te = &self.tiles[i];
        let chunk = &self.chunks[te.chunk as usize];
        StreamTile {
            coord: te.coord,
            fragments: &chunk.fragments
                [te.frag_start as usize..(te.frag_start + te.frag_len) as usize],
            quad_lens: &chunk.quad_lens
                [te.quad_start as usize..(te.quad_start + te.quad_len) as usize],
        }
    }

    /// The tile-directory indices of one frame's binned tiles.
    pub(crate) fn frame_tile_range(&self, fe: &FrameEntry) -> Range<usize> {
        fe.tile_start as usize..(fe.tile_start + fe.tile_len) as usize
    }

    /// The binned tiles of one frame, in row-major order.
    pub(crate) fn frame_tiles<'a>(
        &'a self,
        fe: &FrameEntry,
    ) -> impl Iterator<Item = StreamTile<'a>> + 'a {
        self.frame_tile_range(fe).map(|i| self.tile(i))
    }
}

/// A pixel that survived the coverage pass: its linear index
/// `y * width + x` and the setup that covered it.
#[derive(Debug, Clone, Copy)]
struct Covered {
    pixel: u32,
    setup: u32,
}

/// The coverage-pass sink: keeps every scanned sub-triangle's setup and
/// appends each covered pixel to its tile's bin.
#[derive(Debug)]
struct Binner {
    /// This frame's scanned sub-triangles with their bound texture.
    setups: Vec<(TriangleSetup, TextureId)>,
    /// Index of the sub-triangle being scanned.
    current: u32,
    /// Covered pixels per tile (row-major linear tile index), in
    /// rasterization order.
    bins: Vec<Vec<Covered>>,
    tiles_x: u32,
    width: u32,
}

impl CoverageSink for Binner {
    fn triangle(&mut self, setup: &TriangleSetup, texture: TextureId) {
        self.current = self.setups.len() as u32;
        self.setups.push((setup.clone(), texture));
    }

    fn pixel(
        &mut self,
        _setup: &TriangleSetup,
        tile: TileCoord,
        x: u32,
        y: u32,
        _b: (f32, f32, f32),
        _depth: f32,
    ) {
        self.bins[(tile.ty * self.tiles_x + tile.tx) as usize].push(Covered {
            pixel: y * self.width + x,
            setup: self.current,
        });
    }
}

/// One frame's coverage-pass result, shared read-only by the shading
/// workers.
#[derive(Debug, Clone, Copy)]
struct Frame<'a> {
    bins: &'a [Vec<Covered>],
    setups: &'a [(TriangleSetup, TextureId)],
    tile_px: u32,
    tiles_x: u32,
    width: u32,
}

/// What one shading worker produced for its tile range: the chunk and
/// the tiles' entries, whose `chunk` field the caller fills in.
#[derive(Debug, Default)]
struct RangeOut {
    chunk: Chunk,
    tiles: Vec<TileEntry>,
}

impl Frame<'_> {
    /// Shades and quad-groups the tiles `tiles` (linear indices,
    /// ascending) into `out`.
    fn shade(&self, tiles: &[u32], out: &mut RangeOut) {
        let total = tiles.iter().map(|&t| self.bins[t as usize].len()).sum();
        out.chunk.fragments.reserve_exact(total);
        let mut grouper = QuadGrouper::new(self.tile_px);
        for &t in tiles {
            let coord = TileCoord::new(t % self.tiles_x, t / self.tiles_x);
            let frag_start = out.chunk.fragments.len() as u32;
            let quad_start = out.chunk.quad_lens.len() as u32;
            grouper.group(self, coord, &self.bins[t as usize], &mut out.chunk);
            out.tiles.push(TileEntry {
                coord,
                chunk: 0,
                frag_start,
                frag_len: out.chunk.fragments.len() as u32 - frag_start,
                quad_start,
                quad_len: out.chunk.quad_lens.len() as u32 - quad_start,
            });
        }
    }

    /// The pixel coordinates of a covered pixel.
    fn xy(&self, pixel: u32) -> (u32, u32) {
        let y = pixel / self.width;
        (pixel - y * self.width, y)
    }

    /// The texture bound when `c` was covered.
    fn texture(&self, c: Covered) -> TextureId {
        self.setups[c.setup as usize].1
    }

    /// Shades a covered pixel: the barycentrics and depth the coverage
    /// pass computed, recomputed bit for bit, then the attributes.
    fn fragment(&self, c: Covered) -> Fragment {
        let (x, y) = self.xy(c.pixel);
        let (setup, texture) = &self.setups[c.setup as usize];
        let b = setup.barycentric(x as i32, y as i32);
        setup.fragment(x, y, b, setup.depth(b), *texture)
    }
}

/// Cuts a sequence of weights into at most `parts` contiguous, nonempty
/// index ranges of near-equal total weight (a single empty range for an
/// empty sequence).
fn balance(
    weights: impl ExactSizeIterator<Item = usize> + Clone,
    parts: usize,
) -> Vec<Range<usize>> {
    let n = weights.len();
    let parts = parts.clamp(1, n.max(1));
    let total: usize = weights.clone().sum();
    let mut ranges = Vec::with_capacity(parts);
    let (mut start, mut acc) = (0, 0);
    for (i, w) in weights.enumerate() {
        acc += w;
        let cut = ranges.len() + 1;
        if cut < parts && acc * parts >= total * cut {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < n || ranges.is_empty() {
        ranges.push(start..n);
    }
    ranges
}

/// Marks an empty quad-grid slot or the end of a slot's quad chain.
const NO_QUAD: u32 = u32::MAX;

/// Reusable scratch for grouping a tile's covered pixels into 2x2 pixel
/// quads sharing one texture (pixels of different textures in the same
/// quad are split). Quads are emitted in first-occurrence order and
/// fragments keep their rasterization order within a quad.
#[derive(Debug)]
struct QuadGrouper {
    /// Quad positions per grid row: enough for any tile alignment.
    side: u32,
    /// Per quad position of the tile: the latest quad opened there.
    grid: Vec<u32>,
    /// Per quad: the previous quad opened at the same position (another
    /// texture), or [`NO_QUAD`].
    next: Vec<u32>,
    /// Per quad: its texture.
    textures: Vec<TextureId>,
    /// Per quad: fragment count.
    counts: Vec<u32>,
    /// Per quad: scatter cursor into `order`.
    cursors: Vec<u32>,
    /// Per covered pixel of the tile: its quad.
    quad_of: Vec<u32>,
    /// Covered-pixel indices in output (quad-contiguous) order.
    order: Vec<u32>,
}

impl QuadGrouper {
    fn new(tile_px: u32) -> Self {
        // A tile spans at most `tile_px / 2 + 1` quad columns (when it
        // starts on an odd pixel).
        let side = tile_px / 2 + 1;
        Self {
            side,
            grid: vec![NO_QUAD; (side * side) as usize],
            next: Vec::new(),
            textures: Vec::new(),
            counts: Vec::new(),
            cursors: Vec::new(),
            quad_of: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Groups the covered pixels `bin` of tile `coord`, appending their
    /// fragments quad-contiguously and one length per quad to `out`.
    fn group(&mut self, frame: &Frame<'_>, coord: TileCoord, bin: &[Covered], out: &mut Chunk) {
        let qx0 = coord.tx * frame.tile_px / 2;
        let qy0 = coord.ty * frame.tile_px / 2;
        self.next.clear();
        self.textures.clear();
        self.counts.clear();
        self.quad_of.clear();
        // Assign dense quad indices in first-occurrence order and count
        // each quad's fragments.
        for &c in bin {
            let (x, y) = frame.xy(c.pixel);
            let texture = frame.texture(c);
            let slot = ((y / 2 - qy0) * self.side + (x / 2 - qx0)) as usize;
            let mut quad = self.grid[slot];
            while quad != NO_QUAD && self.textures[quad as usize] != texture {
                quad = self.next[quad as usize];
            }
            if quad == NO_QUAD {
                quad = self.textures.len() as u32;
                self.textures.push(texture);
                self.next.push(self.grid[slot]);
                self.grid[slot] = quad;
                self.counts.push(0);
            }
            self.counts[quad as usize] += 1;
            self.quad_of.push(quad);
        }
        self.grid.fill(NO_QUAD);
        // Prefix-sum the counts into cursors, place every covered pixel
        // at its quad's next slot, then shade in that order.
        self.cursors.clear();
        let mut acc = 0u32;
        for &count in &self.counts {
            self.cursors.push(acc);
            acc += count;
        }
        self.order.resize(bin.len(), 0);
        for (i, &quad) in self.quad_of.iter().enumerate() {
            let cursor = &mut self.cursors[quad as usize];
            self.order[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        out.fragments
            .extend(self.order.iter().map(|&i| frame.fragment(bin[i as usize])));
        out.quad_lens.extend(
            self.counts
                .iter()
                .map(|&c| c.min(u32::from(u16::MAX)) as u16),
        );
    }
}

/// Hit/miss/eviction counters of a [`FragmentStreamCache`], snapshotted
/// for run manifests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendCacheStats {
    /// Requests served from a resident stream, including requests that
    /// waited for another thread's build of the same column.
    pub hits: u64,
    /// Frontend builds the cache ran: one per cold column, however many
    /// threads asked for it at once.
    pub misses: u64,
    /// Streams evicted from a bounded cache.
    pub evictions: u64,
}

/// Key of one cached stream: the workload-column identity. Frame count
/// participates because harnesses with different `--frames` must not
/// share streams; `tile_px` is fixed per cache instead of per key.
type StreamKey = (Workload, Resolution, usize);

/// A memo of [`FragmentStream`]s shared across sweep workers and serve
/// jobs, keyed by (workload, resolution, frame count).
///
/// Builds are single-flight: the first request for a cold column marks
/// it in flight and runs the frontend *outside* the cache lock, so
/// other columns stay available while one builds. Concurrent requests
/// for the same column wait for that build and receive the same
/// [`Arc`]; a failed build clears the mark and wakes them to try
/// themselves. A bounded cache evicts least-recently-used streams
/// (handed-out [`Arc`]s stay valid — eviction only drops the cache's
/// own reference).
#[derive(Debug)]
pub struct FragmentStreamCache {
    tile_px: u32,
    capacity: Option<usize>,
    // lock:rank(40, core.stream.cache)
    inner: Mutex<StreamCacheState>,
    // lock:rank(41, core.stream.built)
    built: Condvar,
}

/// Mutex-guarded interior: memo map, recency list (least-recently-used
/// first), the columns being built right now, and the usage counters.
#[derive(Debug, Default)]
struct StreamCacheState {
    map: FxHashMap<StreamKey, Arc<FragmentStream>>,
    lru: Vec<StreamKey>,
    building: Vec<StreamKey>,
    stats: FrontendCacheStats,
}

impl FragmentStreamCache {
    /// Creates an unbounded cache whose streams are all binned at
    /// `tile_px`.
    pub fn new(tile_px: u32) -> Self {
        Self {
            tile_px,
            capacity: None,
            inner: Mutex::new(StreamCacheState::default()),
            built: Condvar::new(),
        }
    }

    /// Creates a cache bounded to `capacity` resident streams.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(tile_px: u32, capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "a bounded cache needs capacity for at least one stream"
        );
        let mut cache = Self::new(tile_px);
        cache.capacity = Some(capacity);
        cache
    }

    /// Tile size every cached stream was binned with.
    pub fn tile_px(&self) -> u32 {
        self.tile_px
    }

    /// The resident-stream bound, or `None` for an unbounded cache.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of streams resident right now.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no stream is resident.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> FrontendCacheStats {
        self.lock().stats
    }

    /// Returns the stream for `scene`, running the frontend on first
    /// use on the whole thread budget ([`FragmentStream::build`]). The
    /// scene is identified by (workload, resolution, frame count) — the
    /// same identity the scene cache builds deterministic traces under
    /// — so two [`Arc`]s to equal traces share one stream.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the frontend rejects the scene
    /// (no frames) or the thread budget override is malformed.
    pub fn get(&self, scene: &Arc<SceneTrace>) -> Result<Arc<FragmentStream>> {
        self.get_or_build(scene, FragmentStream::build)
    }

    /// [`get`](Self::get), but a build this call runs shades on exactly
    /// `workers` threads ([`FragmentStream::build_with_workers`]). The
    /// stream is the same at any width; a caller sharing the host with
    /// other work passes its own share of the budget.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the frontend rejects the scene.
    pub fn get_with_workers(
        &self,
        scene: &Arc<SceneTrace>,
        workers: usize,
    ) -> Result<Arc<FragmentStream>> {
        self.get_or_build(scene, |scene, tile_px| {
            FragmentStream::build_with_workers(scene, tile_px, workers)
        })
    }

    /// The single-flight lookup behind [`get`](Self::get): `build` runs
    /// only on the thread that claims a cold column.
    fn get_or_build(
        &self,
        scene: &Arc<SceneTrace>,
        build: impl FnOnce(Arc<SceneTrace>, u32) -> Result<FragmentStream>,
    ) -> Result<Arc<FragmentStream>> {
        let key = (scene.workload, scene.resolution, scene.frame_count());
        if let Some(stream) = self.resident_or_claim(key) {
            return Ok(stream);
        }
        // This thread owns the column's build; the claim wakes the
        // waiters when it drops, after the insert or on an error.
        let _claim = Claim { cache: self, key };
        let built = Arc::new(build(Arc::clone(scene), self.tile_px)?);
        self.insert(key, &built);
        Ok(built)
    }

    /// The resident stream for `key` (a hit), waiting out another
    /// thread's in-flight build of it first. `None` means the key is
    /// neither resident nor building; it is then marked in flight and
    /// the caller must build it.
    fn resident_or_claim(&self, key: StreamKey) -> Option<Arc<FragmentStream>> {
        let mut st = self.lock();
        loop {
            if let Some(stream) = st.map.get(&key).map(Arc::clone) {
                st.stats.hits += 1;
                Self::touch(&mut st.lru, key);
                return Some(stream);
            }
            if !st.building.contains(&key) {
                st.building.push(key);
                return None;
            }
            st = self.built.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records a finished build and evicts down to the capacity.
    fn insert(&self, key: StreamKey, stream: &Arc<FragmentStream>) {
        let mut st = self.lock();
        st.stats.misses += 1;
        st.map.insert(key, Arc::clone(stream));
        Self::touch(&mut st.lru, key);
        if let Some(cap) = self.capacity {
            while st.map.len() > cap && !st.lru.is_empty() {
                let victim = st.lru.remove(0);
                st.map.remove(&victim);
                st.stats.evictions += 1;
            }
        }
    }

    /// Moves `key` to the most-recently-used end of the recency list.
    fn touch(lru: &mut Vec<StreamKey>, key: StreamKey) {
        lru.retain(|k| *k != key);
        lru.push(key);
    }

    /// Locks the interior, recovering from a poisoned mutex (the state
    /// is counters and Arcs — always valid).
    fn lock(&self) -> MutexGuard<'_, StreamCacheState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A column's in-flight mark, held by the thread building it. Dropping
/// it — after the insert, on a failed build, or while a panicking build
/// unwinds — clears the mark and wakes every waiter.
struct Claim<'a> {
    cache: &'a FragmentStreamCache,
    key: StreamKey,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cache.lock().building.retain(|k| *k != self.key);
        self.cache.built.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_workloads::{build_scene_unchecked, Game};

    fn tiny_scene(frames: usize) -> SceneTrace {
        let mut profile = Game::Doom3.profile();
        profile.floor_quads = 4;
        profile.texture_count = 4;
        profile.facing_props = 1;
        build_scene_unchecked(&profile, Resolution::R320x240, frames)
    }

    #[test]
    fn grouper_matches_reference_on_real_tiles() {
        let scene = tiny_scene(1);
        let data = StreamData::build(&scene, 32, 2).expect("builds");
        assert!(!data.tiles.is_empty());
        let mut checked_quads = 0usize;
        for tile in data.frame_tiles(&data.frames[0]) {
            assert_eq!(
                tile.quad_lens.iter().map(|&l| l as usize).sum::<usize>(),
                tile.fragments.len(),
                "quad lengths partition the tile's fragments"
            );
            for quad in tile.quads() {
                let key = (quad[0].x / 2, quad[0].y / 2, quad[0].texture.raw());
                assert!(
                    quad.iter()
                        .all(|f| (f.x / 2, f.y / 2, f.texture.raw()) == key),
                    "a quad holds one 2x2 block of one texture"
                );
                assert!(quad.iter().all(|f| f.tile(32) == tile.coord));
                checked_quads += 1;
            }
        }
        let total: usize = data.chunks.iter().map(|c| c.quad_lens.len()).sum();
        assert_eq!(checked_quads, total);
    }

    #[test]
    fn balance_cuts_contiguous_nonempty_ranges() {
        let cases: [(&[usize], usize); 6] = [
            (&[], 4),
            (&[5], 4),
            (&[1, 1, 1, 1], 2),
            (&[1, 100], 2),
            (&[100, 1, 1, 1], 3),
            (&[3, 3, 3, 3, 3, 3, 3], 3),
        ];
        for (weights, parts) in cases {
            let ranges = balance(weights.iter().copied(), parts);
            assert!(ranges.len() <= parts.max(1), "{weights:?}/{parts}");
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().map(|r| r.end), Some(weights.len()));
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "{weights:?}/{parts}");
            }
            if !weights.is_empty() {
                assert!(ranges.iter().all(|r| !r.is_empty()), "{weights:?}/{parts}");
            }
        }
        assert_eq!(balance([1, 1, 1, 1].into_iter(), 2), vec![0..2, 2..4]);
        assert_eq!(balance([3; 7].into_iter(), 3), vec![0..3, 3..5, 5..7]);
    }

    #[test]
    fn stream_rejects_empty_scene_and_zero_tile() {
        let mut scene = tiny_scene(1);
        scene.cameras.clear();
        assert!(StreamData::build(&scene, 32, 1).is_err());
        let scene = tiny_scene(1);
        assert!(StreamData::build(&scene, 0, 1).is_err());
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let cache = FragmentStreamCache::new(32);
        let scene = Arc::new(tiny_scene(1));
        let a = cache.get(&scene).expect("builds");
        let b = cache.get(&scene).expect("hits");
        assert!(Arc::ptr_eq(&a, &b), "second request shares the stream");
        assert_eq!(
            cache.stats(),
            FrontendCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    /// Builds `scene`'s stream through `cache` on one thread and, once
    /// that build has claimed the column, runs `get` for every scene in
    /// `others` on a thread of its own. `gate` runs inside the build,
    /// after the other threads have been released. Returns the build's
    /// result and the others' streams, in order.
    fn gets_during_a_build(
        cache: &FragmentStreamCache,
        scene: &Arc<SceneTrace>,
        others: &[Arc<SceneTrace>],
        gate: impl FnOnce() -> Result<()> + Send,
    ) -> (Result<Arc<FragmentStream>>, Vec<Arc<FragmentStream>>) {
        let claimed = std::sync::Barrier::new(others.len() + 1);
        std::thread::scope(|s| {
            let builder = s.spawn(|| {
                cache.get_or_build(scene, |scene, tile_px| {
                    claimed.wait();
                    gate()?;
                    FragmentStream::build_with_workers(scene, tile_px, 1)
                })
            });
            let getters: Vec<_> = others
                .iter()
                .map(|other| {
                    let claimed = &claimed;
                    s.spawn(move || {
                        claimed.wait();
                        cache.get_with_workers(other, 1).expect("builds")
                    })
                })
                .collect();
            let got = getters
                .into_iter()
                .map(|h| h.join().expect("get thread"))
                .collect();
            (builder.join().expect("build thread"), got)
        })
    }

    #[test]
    fn concurrent_gets_of_one_cold_column_build_it_once() {
        let cache = FragmentStreamCache::new(32);
        let scene = Arc::new(tiny_scene(1));
        // Three requests arrive while the column's build is in flight.
        let (built, got) =
            gets_during_a_build(&cache, &scene, &vec![Arc::clone(&scene); 3], || Ok(()));
        let built = built.expect("builds");
        assert!(
            got.iter().all(|s| Arc::ptr_eq(s, &built)),
            "every waiter receives the builder's stream"
        );
        assert_eq!(
            cache.stats(),
            FrontendCacheStats {
                hits: 3,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn concurrent_gets_of_two_cold_columns_build_each_once() {
        let cache = FragmentStreamCache::new(32);
        let one = Arc::new(tiny_scene(1));
        let two = Arc::new(tiny_scene(2));
        let others = [Arc::clone(&two), Arc::clone(&one), Arc::clone(&two)];
        let (built, got) = gets_during_a_build(&cache, &one, &others, || Ok(()));
        assert!(Arc::ptr_eq(&got[1], &built.expect("builds")));
        assert!(Arc::ptr_eq(&got[0], &got[2]));
        assert!(!Arc::ptr_eq(&got[0], &got[1]));
        assert_eq!(cache.stats().misses, 2, "one build per column");
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_build_in_flight_does_not_block_other_columns() {
        let cache = FragmentStreamCache::new(32);
        let one = Arc::new(tiny_scene(1));
        let two = Arc::new(tiny_scene(2));
        let (claimed_tx, claimed_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            // Column one's build does not finish until column two has
            // been fetched.
            let (cache, one) = (&cache, &one);
            let builder = s.spawn(move || {
                cache.get_or_build(one, |scene, tile_px| {
                    claimed_tx
                        .send(())
                        .map_err(|_| ConfigError::new("test", "main thread gone"))?;
                    done_rx.recv_timeout(Duration::from_secs(60)).map_err(|_| {
                        ConfigError::new("test", "column two waited on column one's build")
                    })?;
                    FragmentStream::build_with_workers(scene, tile_px, 1)
                })
            });
            claimed_rx.recv().expect("column one claimed");
            cache.get_with_workers(&two, 1).expect("builds");
            done_tx.send(()).expect("column one's build is waiting");
            builder.join().expect("build thread").expect("builds");
        });
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn failed_build_wakes_waiters_to_build_themselves() {
        let cache = FragmentStreamCache::new(32);
        let scene = Arc::new(tiny_scene(1));
        let (failed, got) =
            gets_during_a_build(&cache, &scene, &vec![Arc::clone(&scene); 3], || {
                Err(ConfigError::new("test", "injected frontend failure"))
            });
        assert!(failed.is_err());
        // One waiter took the build over; the rest share its stream.
        assert!(got.iter().all(|s| Arc::ptr_eq(s, &got[0])));
        assert_eq!(
            cache.stats(),
            FrontendCacheStats {
                hits: 2,
                misses: 1,
                evictions: 0
            }
        );
        assert!(cache.lock().building.is_empty());
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = FragmentStreamCache::with_capacity(32, 1);
        let one = Arc::new(tiny_scene(1));
        let two = Arc::new(tiny_scene(2));
        let first = cache.get(&one).expect("builds");
        let _ = cache.get(&two).expect("builds and evicts");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        // The handed-out Arc survives eviction.
        assert!(first.fragment_count() > 0);
        // Re-requesting the evicted column is a miss again.
        let _ = cache.get(&one).expect("rebuilds");
        assert_eq!(cache.stats().misses, 3);
    }
}
