//! The frame-level simulator.
//!
//! Functional-first, timing-directed: each frame is actually rendered
//! (transform → clip → rasterize → texture filter → ROP, producing a
//! real image), and every texel fetch, cache probe, package transfer,
//! and buffer write is simultaneously charged to the configured hardware
//! model. A frame's cycle count is the completion time of its slowest
//! resource — compute pipelines, texture units, external interface, or
//! DRAM banks — which is how the bandwidth-bound behavior the paper
//! targets emerges without a hand-tuned bottleneck switch.
//!
//! # Replay groups
//!
//! The backend replay walks a prebuilt fragment stream in two steps per
//! texture quad (the crate's `texpath` module): a functional step —
//! phase-1 records, cache probes, A-TFIM parent reuse, the image — and a
//! timing step per design — texture units, memory, logic layer, shader
//! windows, ROP. Configurations with equal [`SimConfig::replay_key`]s
//! differ only in timing, so [`Simulator::render_replay_group`] replays
//! them together: each quad's functional step runs once and feeds every
//! member's timing step in lockstep. A solo replay is a group of one;
//! there is one replay path.
//!
//! # Thread safety
//!
//! [`Simulator`] is `Send + Sync` (asserted at compile time below): it
//! owns all of its mutable state and uses no interior mutability, so a
//! parallel sweep (`pimgfx-bench`) can give each worker thread its own
//! simulator while all workers share one read-only
//! [`SceneTrace`]. Rendering still takes
//! `&mut self` — one simulator is one hardware instance; parallelism
//! comes from running independent experiment cells, never from sharing
//! a simulator.

use crate::backend::MemoryBackend;
use crate::config::SimConfig;
use crate::design::Design;
use crate::geometry;
use crate::lanepre::{self, ChunkPlan, ChunkRecords, ChunkSource, Cursor, LoadChunk};
use crate::rop::Rop;
use crate::stats::{FrameStats, RenderReport};
use crate::stream::{FragmentStream, StreamData};
use crate::texpath::{QuadOutcome, TexFunctional, TexTiming};
use pimgfx_energy::{EnergyModel, EnergyParams};
use pimgfx_engine::trace::{stage, StageCounters, StageTrace};
use pimgfx_engine::{Cycle, InFlightWindow};
use pimgfx_mem::MemorySystem;
use pimgfx_quality::FrameImage;
use pimgfx_raster::{Fragment, RasterStats};
use pimgfx_shader::{ShaderCores, ShaderProgram, TileScheduler};
use pimgfx_texture::{MippedTexture, TextureLayout};
use pimgfx_types::{ConfigError, Result, Rgba};
use pimgfx_workloads::SceneTrace;

/// Base address of the simulated texture heap.
const TEXTURE_BASE: u64 = 0x1000_0000;

/// A cluster may work this many tiles ahead of its oldest unretired one
/// — texture latency beyond that slack throttles issue, as finite
/// in-flight fragment storage does in hardware.
const TILE_WINDOW: usize = 4;

/// How a replay gets each chunk's phase-1 records.
#[derive(Debug, Clone, Copy)]
enum Fill {
    /// Filled on the calling thread at one lane, else on this many
    /// helper threads.
    Lanes(usize),
    /// No records: every quad runs the serial per-quad oracle.
    #[cfg(test)]
    Oracle,
}

/// Where the walk gets each chunk's phase-1 records.
enum Feed<'a, 'f> {
    /// Loaded per chunk by [`lanepre::fill_inline`] or
    /// [`lanepre::fill_streamed`].
    Chunks(&'a mut LoadChunk<'f>),
    /// No records: every quad runs the serial per-quad oracle.
    #[cfg(test)]
    Oracle,
}

/// The texture each texture index samples: the scene's own, or its
/// transcoded twin under block compression.
fn sampled_textures<'a>(
    scene: &'a SceneTrace,
    transcoded: Option<&'a [MippedTexture]>,
) -> Vec<&'a MippedTexture> {
    match transcoded {
        Some(ts) => ts.iter().collect(),
        None => scene.textures.iter().collect(),
    }
}

/// The assembled simulator for one design point.
///
/// # Examples
///
/// ```no_run
/// use pimgfx::{Design, SimConfig, Simulator};
/// use pimgfx_workloads::{build_scene, Game, Resolution};
///
/// let scene = build_scene(Game::Doom3, Resolution::R320x240, 1);
/// let config = SimConfig::builder().design(Design::ATfim).build()?;
/// let mut sim = Simulator::new(config)?;
/// let report = sim.render_trace(&scene)?;
/// println!("{report}");
/// # Ok::<(), pimgfx_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    mem: MemoryBackend,
    cores: ShaderCores,
    func: TexFunctional,
    timing: TexTiming,
}

// Sweep workers move simulators across threads and share scene traces
// by reference; keep both guarantees checked at compile time so a new
// field with interior mutability cannot silently break the parallel
// harness.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulator>();
    assert_send_sync::<crate::stats::RenderReport>();
};

/// One member of a replay group: a simulator's timing state, borrowed.
struct Member<'s> {
    config: &'s SimConfig,
    mem: &'s mut MemoryBackend,
    cores: &'s mut ShaderCores,
    timing: &'s mut TexTiming,
}

impl<'s> Member<'s> {
    /// A simulator's configuration and timing state, and its functional
    /// texture half.
    fn of(sim: &'s mut Simulator) -> (Self, &'s mut TexFunctional) {
        let Simulator {
            config,
            mem,
            cores,
            func,
            timing,
        } = sim;
        (
            Self {
                config,
                mem,
                cores,
                timing,
            },
            func,
        )
    }
}

impl Simulator {
    /// Builds a simulator from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is inconsistent
    /// (see [`SimConfig::validate`]) or a component rejects its
    /// parameters.
    pub fn new(config: SimConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            mem: MemoryBackend::from_config(&config)?,
            cores: ShaderCores::new(config.shader),
            func: TexFunctional::new(&config)?,
            timing: TexTiming::new(&config),
            config,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Renders every frame of `scene`, returning the accumulated report
    /// (the image is the last frame's).
    ///
    /// # Examples
    ///
    /// Render a short synthetic trace on the paper's baseline GPU and
    /// read the headline metric (total cycles):
    ///
    /// ```
    /// use pimgfx::{Design, SimConfig, Simulator};
    /// use pimgfx_workloads::{build_scene, Game, Resolution};
    ///
    /// let config = SimConfig::builder().design(Design::Baseline).build()?;
    /// let mut sim = Simulator::new(config)?;
    /// let scene = build_scene(Game::Doom3, Resolution::R320x240, 1);
    /// let report = sim.render_trace(&scene)?;
    /// assert!(report.total_cycles > 0);
    /// # Ok::<(), pimgfx_types::ConfigError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the scene is empty or the thread
    /// budget override is malformed.
    pub fn render_trace(&mut self, scene: &SceneTrace) -> Result<RenderReport> {
        // The variant-invariant frontend (rasterize, bin, quad-group)
        // followed immediately by the variant-specific backend — the
        // same two passes a cached replay runs, so a direct render and
        // a replay are byte-identical by construction.
        let workers = crate::budget::configured_workers()?;
        let data = StreamData::build(scene, self.config.tile_px, workers)?;
        self.replay_solo(scene, &data, Fill::Lanes(1))
    }

    /// Renders from a prebuilt [`FragmentStream`] instead of
    /// rasterizing, producing a report byte-identical to
    /// [`render_trace`](Self::render_trace) on the stream's scene. All
    /// cycle-bearing stages — geometry timing, shading, texture layout,
    /// filtering, caching, ROP, DRAM, energy — still run per call, so
    /// every design point replays its own timing; only the purely
    /// functional frontend is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the stream was binned at a
    /// different tile size than this simulator's configuration.
    pub fn render_replay(&mut self, stream: &FragmentStream) -> Result<RenderReport> {
        self.render_replay_lanes(stream, 1)
    }

    /// Renders from a prebuilt [`FragmentStream`] with the backend's
    /// pure per-fragment work spread over up to `lanes` helper threads.
    ///
    /// The replay runs in two phases over chunks: contiguous runs of a
    /// frame's tiles in stream order. Phase 1 fills each chunk's records
    /// with its order-independent work — sampler filtering and texel
    /// addressing, or A-TFIM's footprints, angle tags and parent corner
    /// lines. Phase 2 walks the tiles in the original order on the
    /// calling thread, consuming chunk *k* as soon as it is filled, so
    /// every cache probe, memory-server access, and stats increment
    /// happens with the same operands in the same sequence as
    /// [`render_replay`](Self::render_replay) — the returned
    /// [`RenderReport`] is byte-identical for any lane count.
    ///
    /// `lanes <= 1` fills each chunk on the calling thread just before
    /// the walk consumes it; more lanes run that many helper threads
    /// ahead of the walk, with a constant bound on the chunks in flight.
    /// Lane counts above the cluster count are clamped (see
    /// [`Simulator::replay_lanes`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the stream was binned at a
    /// different tile size than this simulator's configuration.
    pub fn render_replay_lanes(
        &mut self,
        stream: &FragmentStream,
        lanes: usize,
    ) -> Result<RenderReport> {
        check_tile_px(stream, &self.config)?;
        self.replay_solo(stream.scene(), stream.data(), Fill::Lanes(lanes))
    }

    /// Replays `stream` once for a group of configurations that differ
    /// only in timing — equal [`SimConfig::replay_key`]s — returning one
    /// report per configuration, in order, each byte-identical to what
    /// [`render_replay_lanes`](Self::render_replay_lanes) on a fresh
    /// simulator of that configuration returns.
    ///
    /// Phase 1 and the functional step (cache probes, A-TFIM parent
    /// reuse, the image) run once per quad for the whole group; each
    /// member's timing step (texture units, memory, logic layer, shader
    /// windows, ROP) runs on its own hardware state. Identical
    /// configurations replay once and share the report. `lanes` is as
    /// for a single replay.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `configs` is empty, a configuration
    /// is invalid, the keys differ, or the stream was binned at a
    /// different tile size.
    pub fn render_replay_group(
        configs: &[SimConfig],
        stream: &FragmentStream,
        lanes: usize,
    ) -> Result<Vec<RenderReport>> {
        let Some(first) = configs.first() else {
            return Err(ConfigError::new(
                "simulator",
                "a replay group needs a member",
            ));
        };
        let key = first.replay_key();
        if configs.iter().any(|c| c.replay_key() != key) {
            return Err(ConfigError::new(
                "simulator",
                "a replay group's configurations must share one replay key",
            ));
        }
        check_tile_px(stream, first)?;
        // Identical configurations replay once: `slots[i]` is the
        // member configuration `i` reads its report from.
        let mut unique: Vec<&SimConfig> = Vec::new();
        let slots: Vec<usize> = configs
            .iter()
            .map(|c| match unique.iter().position(|u| *u == c) {
                Some(m) => m,
                None => {
                    unique.push(c);
                    unique.len() - 1
                }
            })
            .collect();
        let mut sims = unique
            .into_iter()
            .map(|c| Simulator::new(c.clone()))
            .collect::<Result<Vec<_>>>()?;
        let designs: Vec<Design> = sims.iter().map(|s| s.config.design).collect();
        let lanes = first.replay_lanes(lanes);
        let Some((lead, rest)) = sims.split_first_mut() else {
            return Err(ConfigError::new(
                "simulator",
                "a replay group needs a member",
            ));
        };
        let (member, func) = Member::of(lead);
        func.feed(designs);
        let mut members = vec![member];
        members.extend(rest.iter_mut().map(|s| Member::of(s).0));
        let reports = replay(
            func,
            &mut members,
            stream.scene(),
            stream.data(),
            Fill::Lanes(lanes),
        )?;
        // Each report moves to its last reader and is cloned for the
        // others.
        let mut reports: Vec<Option<RenderReport>> = reports.into_iter().map(Some).collect();
        let mut out = Vec::with_capacity(slots.len());
        for (i, &m) in slots.iter().enumerate() {
            let report = if slots[i + 1..].contains(&m) {
                reports[m].clone()
            } else {
                reports[m].take()
            };
            out.push(report.ok_or_else(|| {
                ConfigError::new("simulator", "a group member's report went missing")
            })?);
        }
        Ok(out)
    }

    /// The lane count [`render_replay_lanes`](Self::render_replay_lanes)
    /// actually runs with when asked for `lanes`: clamped to
    /// `1..=clusters`.
    pub fn replay_lanes(&self, lanes: usize) -> usize {
        self.config.replay_lanes(lanes)
    }

    /// A replay of this simulator alone: a group of one, on its own
    /// (possibly warm) state.
    fn replay_solo(
        &mut self,
        scene: &SceneTrace,
        data: &StreamData,
        fill: Fill,
    ) -> Result<RenderReport> {
        let fill = match fill {
            Fill::Lanes(lanes) => Fill::Lanes(self.replay_lanes(lanes)),
            #[cfg(test)]
            Fill::Oracle => Fill::Oracle,
        };
        let (member, func) = Member::of(self);
        replay(func, &mut [member], scene, data, fill)?
            .pop()
            .ok_or_else(|| ConfigError::new("simulator", "a replay produced no report"))
    }

    /// The serial oracle replay: the walk with every quad through the
    /// serial per-quad pass, no phase-1 records.
    #[cfg(test)]
    pub(crate) fn render_replay_oracle(&mut self, stream: &FragmentStream) -> Result<RenderReport> {
        self.replay_solo(stream.scene(), stream.data(), Fill::Oracle)
    }

    /// Resets all hardware state (between independent experiments).
    pub fn reset(&mut self) {
        self.mem.reset();
        self.cores.reset();
        self.func.reset();
        self.timing.reset();
    }
}

/// Rejects a stream binned at another tile size than `config`'s.
fn check_tile_px(stream: &FragmentStream, config: &SimConfig) -> Result<()> {
    if stream.tile_px() == config.tile_px {
        return Ok(());
    }
    Err(ConfigError::new(
        "simulator",
        format!(
            "stream binned at tile_px {} cannot replay on tile_px {}",
            stream.tile_px(),
            config.tile_px
        ),
    ))
}

/// Lays the scene's textures out in the simulated address space.
/// With several HMC cubes, textures go round-robin into per-cube
/// regions so a whole mip pyramid always lives in one cube (§V-E).
fn layouts(config: &SimConfig, scene: &SceneTrace) -> Vec<TextureLayout> {
    let cubes = config.hmc_cubes.max(1) as u64;
    let mut layouts: Vec<TextureLayout> = Vec::with_capacity(scene.textures.len());
    let mut next_offset = vec![0u64; cubes as usize];
    for (i, tex) in scene.textures.iter().enumerate() {
        let dims: Vec<(u32, u32)> = (0..tex.level_count())
            .map(|l| (tex.level(l).width(), tex.level(l).height()))
            .collect();
        let cube = i as u64 % cubes;
        let base =
            TEXTURE_BASE + cube * crate::backend::CUBE_REGION_BYTES + next_offset[cube as usize];
        let layout = TextureLayout::new(tex.id(), base, &dims);
        next_offset[cube as usize] += layout.total_bytes().next_multiple_of(4096);
        layouts.push(layout);
    }
    layouts
}

/// Optional block compression: the textures transcoded through the
/// codec, so the functional renderer samples the lossy texels the
/// hardware would read.
fn transcoded(config: &SimConfig, scene: &SceneTrace) -> Option<Vec<MippedTexture>> {
    config.compressed_textures.then(|| {
        scene
            .textures
            .iter()
            .map(|t| pimgfx_texture::CompressedTexture::encode(t).decode(t))
            .collect()
    })
}

/// The backend replay of a group: sets up what both phases read —
/// texture layouts, the sampled (possibly transcoded) textures, the
/// chunk plan — fills phase 1 as `fill` says, and walks. Phase 1
/// fills chunk records on the calling thread (one lane) or on `lanes`
/// helper threads ahead of the walk (see [`crate::lanepre`]); results
/// are byte-identical either way.
fn replay(
    func: &mut TexFunctional,
    members: &mut [Member<'_>],
    scene: &SceneTrace,
    data: &StreamData,
    fill: Fill,
) -> Result<Vec<RenderReport>> {
    let lead = members[0].config;
    let layouts = layouts(lead, scene);
    let transcoded = transcoded(lead, scene);
    let textures = sampled_textures(scene, transcoded.as_deref());
    let plan = ChunkPlan::new(data);
    let src = ChunkSource {
        data,
        plan: &plan,
        textures: &textures,
        layouts: &layouts,
    };
    let filler = func.filler();
    match fill {
        Fill::Lanes(lanes) if lanes <= 1 => lanepre::fill_inline(&filler, src, |load| {
            walk(func, members, scene, src, Feed::Chunks(load))
        }),
        Fill::Lanes(lanes) => lanepre::fill_streamed(&filler, src, lanes, |load| {
            walk(func, members, scene, src, Feed::Chunks(load))
        }),
        #[cfg(test)]
        Fill::Oracle => walk(func, members, scene, src, Feed::Oracle),
    }
}

/// One member's walk state: its ROP, clock and per-frame records, and
/// the frame and tile it is working on.
struct Track {
    rop: Rop,
    clock: Cycle,
    per_frame: Vec<FrameStats>,
    per_frame_trace: Vec<StageTrace>,
    trace_snapshot: StageTrace,
    window_stalls: u64,
    samples_before: u64,
    frame_start: Cycle,
    geom_done: Cycle,
    frame_end: Cycle,
    windows: Vec<InFlightWindow>,
    issue_at: Cycle,
    tile_done: Cycle,
}

impl Track {
    fn new(width: u32, height: u32, tile_px: u32, frames: usize) -> Self {
        Self {
            rop: Rop::new(width, height, tile_px),
            clock: Cycle::ZERO,
            per_frame: Vec::with_capacity(frames),
            per_frame_trace: Vec::with_capacity(frames),
            trace_snapshot: StageTrace::new(),
            window_stalls: 0,
            samples_before: 0,
            frame_start: Cycle::ZERO,
            geom_done: Cycle::ZERO,
            frame_end: Cycle::ZERO,
            windows: Vec::new(),
            issue_at: Cycle::ZERO,
            tile_done: Cycle::ZERO,
        }
    }

    /// Retires a quad whose fragments complete at `done`.
    #[inline]
    fn retire(&mut self, quad: &[Fragment], done: &[Cycle]) {
        for (frag, &d) in quad.iter().zip(done) {
            self.tile_done = self.tile_done.max(d);
            self.rop.retire(frag);
        }
    }
}

/// The phase-2 walk of a replay group: geometry, then every frame's
/// tiles in stream order with their texture quads — each quad's
/// functional step once, then every member's timing step — the ROP,
/// and one report per member. `feed` supplies each chunk's phase-1
/// records.
fn walk(
    func: &mut TexFunctional,
    members: &mut [Member<'_>],
    scene: &SceneTrace,
    src: ChunkSource<'_>,
    mut feed: Feed<'_, '_>,
) -> Result<Vec<RenderReport>> {
    let ChunkSource {
        data,
        plan,
        textures,
        ..
    } = src;
    let lead = members[0].config;
    let (tile_px, clusters) = (lead.tile_px, lead.shader.clusters);
    let width = scene.width();
    let height = scene.height();
    let scheduler = TileScheduler::new(clusters, width.div_ceil(tile_px));
    let fragment_program = ShaderProgram::new(scene.shader_alu_ops, 1);

    let mut image = FrameImage::filled(width, height, Rgba::BLACK);
    let mut raster_total = RasterStats::default();
    let mut frames = 0u32;
    let mut tracks: Vec<Track> = members
        .iter()
        .map(|_| Track::new(width, height, tile_px, scene.cameras.len()))
        .collect();
    let mut q = QuadOutcome::default();
    let mut done: Vec<Cycle> = Vec::new();
    let mut recs = ChunkRecords::default();
    #[cfg(test)]
    let (mut oracle_out, mut oracle_colors) = (Vec::new(), Vec::new());

    for (f, fe) in data.frames.iter().enumerate() {
        image.fill(Rgba::BLACK);
        for (m, t) in members.iter_mut().zip(&mut tracks) {
            t.frame_start = t.clock;
            t.rop.begin_frame();
            // 1. Geometry processing (its vertex traffic and ALU work
            // are timing, so it runs per variant, not in the frontend).
            t.geom_done = geometry::process_frame(t.frame_start, scene, m.cores, m.mem);
            t.frame_end = t.geom_done;
            t.windows = (0..clusters)
                .map(|_| InFlightWindow::new(TILE_WINDOW, t.geom_done))
                .collect();
        }

        // 2. Fragment processing, tile by tile, over the stream's
        // prebuilt raster output.
        for k in plan.frame_chunks(f) {
            let mut cursor = Cursor::default();
            let loaded = match &mut feed {
                Feed::Chunks(load) => load(k, &mut recs),
                #[cfg(test)]
                Feed::Oracle => true,
            };
            if !loaded {
                return Err(ConfigError::new(
                    "simulator",
                    "a replay helper thread stopped before filling its chunks",
                ));
            }
            for ti in plan.tiles(k) {
                let tile = data.tile(ti);
                let cluster = scheduler.cluster_for(tile.coord);
                for (m, t) in members.iter_mut().zip(&mut tracks) {
                    t.issue_at = t.windows[cluster].gate_from(t.geom_done);
                    t.tile_done = m.cores.shade_fragments(
                        cluster,
                        t.issue_at,
                        tile.fragments.len() as u64,
                        &fragment_program,
                    );
                }
                // Texture requests are issued at 2x2-quad granularity
                // (the texture unit serves whole fragment groups); the
                // stream stores each tile's fragments quad-contiguously,
                // in the same first-occurrence quad order the simulator
                // always issued.
                for quad in tile.quads() {
                    let i = quad[0].texture.index();
                    let colors: &[Rgba] = match feed {
                        Feed::Chunks(_) => {
                            func.quad(cluster, quad.len(), textures[i], &recs, &mut cursor, &mut q);
                            for (m, t) in members.iter_mut().zip(&mut tracks) {
                                m.timing
                                    .sample_quad(cluster, t.issue_at, &q, &recs, m.mem, &mut done);
                                t.retire(quad, &done);
                            }
                            q.colors(&recs)
                        }
                        #[cfg(test)]
                        Feed::Oracle => {
                            let (m, t) = (&mut members[0], &mut tracks[0]);
                            let mut oracle = crate::texpath::Oracle {
                                func: &mut *func,
                                timing: &mut *m.timing,
                            };
                            oracle.sample_quad(
                                cluster,
                                t.issue_at,
                                quad,
                                textures[i],
                                &src.layouts[i],
                                m.mem,
                                &mut oracle_out,
                            );
                            done.clear();
                            done.extend(oracle_out.iter().map(|&(_, d)| d));
                            t.retire(quad, &done);
                            oracle_colors.clear();
                            oracle_colors.extend(oracle_out.iter().map(|&(c, _)| c));
                            &oracle_colors
                        }
                    };
                    for (frag, &color) in quad.iter().zip(colors) {
                        image.put(frag.x, frag.y, color);
                    }
                }
                for t in &mut tracks {
                    t.windows[cluster].retire(t.tile_done);
                    t.frame_end = t.frame_end.max(t.tile_done);
                }
            }
            match feed {
                Feed::Chunks(_) => {
                    debug_assert_eq!(cursor.frag, recs.fragments(), "chunk {k} consumed");
                }
                #[cfg(test)]
                Feed::Oracle => {}
            }
        }

        // 3. ROP write-back, and the frame's accounting per member.
        for (m, t) in members.iter_mut().zip(&mut tracks) {
            let rop_done = t.rop.flush_frame(t.frame_end, m.mem);
            let tex_last = m.timing.last_completion();
            t.frame_end = t.frame_end.max(rop_done).max(tex_last);
            t.clock = t.frame_end;
            // Per-frame trace slice: the compute-side counters are
            // cumulative, so each frame is the delta since the last
            // snapshot (the windows are per-frame, so their stalls
            // accumulate into a running total first).
            t.window_stalls += t.windows.iter().map(InFlightWindow::stalls).sum::<u64>();
            let cumulative = compute_trace(m, &t.rop, t.window_stalls);
            t.per_frame_trace
                .push(cumulative.delta_since(&t.trace_snapshot));
            t.trace_snapshot = cumulative;
            let samples_now = m.timing.stats(func).samples;
            t.per_frame.push(FrameStats {
                frame: frames,
                cycles: t.frame_end.since(t.frame_start).get(),
                // The frontend captured per-frame raster counters when
                // it built the stream.
                fragments: fe.raster.fragments_out,
                texture_samples: samples_now - t.samples_before,
            });
            t.samples_before = samples_now;
        }
        let r = fe.raster;
        raster_total.triangles_in += r.triangles_in;
        raster_total.triangles_clipped += r.triangles_clipped;
        raster_total.hiz_rejected += r.hiz_rejected;
        raster_total.z_tests += r.z_tests;
        raster_total.fragments_out += r.fragments_out;
        raster_total.tiles_touched += r.tiles_touched;
        frames += 1;
    }

    // The image moves into the last member's report; the others get
    // copies.
    let last = members.len() - 1;
    let mut image = Some(image);
    let mut reports = Vec::with_capacity(members.len());
    for (n, (m, t)) in members.iter_mut().zip(tracks).enumerate() {
        let image = if n == last {
            image.take()
        } else {
            image.clone()
        };
        let Some(image) = image else {
            return Err(ConfigError::new(
                "simulator",
                "the group's image went missing",
            ));
        };
        reports.push(report(m, func, t, frames, raster_total, image));
    }
    Ok(reports)
}

/// A member's report once its walk is over: energy, the conservation
/// checks, and the full stage trace.
fn report(
    m: &mut Member<'_>,
    func: &TexFunctional,
    t: Track,
    frames: u32,
    raster_total: RasterStats,
    image: FrameImage,
) -> RenderReport {
    let stats = m.timing.stats(func);
    m.mem.sync_traffic();
    let mut energy = EnergyModel::new(EnergyParams::default());
    energy.add_shader_busy(m.cores.total_busy());
    energy.add_texture_busy(m.timing.gpu_busy());
    energy.add_pim_busy(m.timing.pim_busy());
    energy.add_cache_accesses(stats.cache_accesses());
    let external = m.mem.traffic().total().get();
    let internal = m.mem.internal_bytes();
    match m.config.design {
        Design::Baseline => {
            energy.add_gddr5_bytes(external);
            energy.add_dram_bytes(internal);
        }
        _ => {
            energy.add_link_bytes(external);
            energy.add_tsv_bytes(internal + external);
            energy.add_dram_bytes(internal);
        }
    }

    // Conservation invariants (debug builds). Frames run back to
    // back, so the per-frame partition must cover the run exactly;
    // per-class traffic can never exceed the grand total; and no
    // aggregate busy counter can exceed its unit count x wall-clock.
    debug_assert_eq!(
        t.per_frame.iter().map(|f| f.cycles).sum::<u64>(),
        t.clock.get(),
        "per-frame cycles must partition total_cycles"
    );
    debug_assert_eq!(
        t.per_frame.iter().map(|f| f.texture_samples).sum::<u64>(),
        stats.samples,
        "per-frame texture samples must sum to the trace total"
    );
    debug_assert_eq!(
        t.per_frame.iter().map(|f| f.fragments).sum::<u64>(),
        raster_total.fragments_out,
        "per-frame fragments must sum to the raster total"
    );
    debug_assert!(
        m.mem
            .traffic()
            .bytes(pimgfx_mem::TrafficClass::TextureFetch)
            <= m.mem.traffic().total(),
        "texture traffic cannot exceed total external traffic"
    );
    debug_assert!(
        m.cores.total_busy().get()
            <= t.clock
                .get()
                .saturating_mul(m.config.shader.clusters as u64),
        "aggregate shader busy cycles cannot exceed clusters x wall-clock"
    );

    // Assemble the full stage trace: the compute-side stages plus
    // the memory-side stages (recorded once, post-`sync_traffic`).
    let mut trace = compute_trace(m, &t.rop, t.window_stalls);
    m.mem.record_trace(&mut trace);

    let report = RenderReport {
        design: m.config.design,
        frames,
        total_cycles: t.clock.get(),
        texture: stats,
        traffic: m.mem.traffic().clone(),
        internal_bytes: internal,
        raster: raster_total,
        shader_busy_cycles: m.cores.total_busy().get(),
        texture_busy_cycles: m.timing.gpu_busy().get(),
        pim_busy_cycles: m.timing.pim_busy().get(),
        energy: energy.report(),
        image,
        per_frame: t.per_frame,
        trace,
        per_frame_trace: t.per_frame_trace,
    };
    debug_assert!(
        report.audit().is_ok(),
        "cycle-accounting audit failed: {:?}",
        report.audit().err()
    );
    report
}

/// Snapshot of every compute-side stage's cumulative counters:
/// shader ALUs, the in-flight-window stall total, the full texture
/// path (GPU pipes plus MTU / A-TFIM logic layers), and the ROP.
fn compute_trace(m: &Member<'_>, rop: &Rop, window_stalls: u64) -> StageTrace {
    let mut t = StageTrace::new();
    t.record(
        stage::SHADER_ALU,
        StageCounters::busy(m.cores.total_busy().get()),
    );
    t.record(stage::SHADER_WINDOW, StageCounters::stalled(window_stalls));
    m.timing.record_trace(&mut t);
    rop.record_trace(&mut t);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_workloads::{build_scene_unchecked, Game, Resolution};

    /// A miniature trace that keeps debug-mode tests fast.
    fn tiny_scene() -> SceneTrace {
        let mut profile = Game::Doom3.profile();
        profile.floor_quads = 4;
        profile.texture_count = 4;
        profile.facing_props = 1;
        build_scene_unchecked(&profile, Resolution::R320x240, 1)
    }

    fn run(design: Design) -> RenderReport {
        let scene = tiny_scene();
        let config = SimConfig::builder().design(design).build().expect("valid");
        let mut sim = Simulator::new(config).expect("valid");
        sim.render_trace(&scene).expect("render")
    }

    #[test]
    fn baseline_renders_and_reports() {
        let r = run(Design::Baseline);
        assert!(r.total_cycles > 0);
        assert!(r.texture.samples > 1000);
        assert!(r.traffic.total().get() > 0);
        assert!(r.energy.total_nj() > 0.0);
        assert_eq!(r.frames, 1);
        assert!(r.image.mean_luma() > 0.01, "frame is not black");
    }

    #[test]
    fn all_designs_render_consistent_images() {
        let base = run(Design::Baseline);
        for d in [Design::BPim, Design::STfim] {
            let r = run(d);
            // Exact filtering designs produce the identical image.
            let db = pimgfx_quality::psnr(&base.image, &r.image).expect("same resolution");
            assert!(db > 55.0, "{d} diverged: {db} dB");
        }
        // A-TFIM at the default threshold is approximate but close.
        let at = run(Design::ATfim);
        let db = pimgfx_quality::psnr(&base.image, &at.image).expect("same resolution");
        assert!(db > 30.0, "a-tfim too lossy: {db} dB");
    }

    #[test]
    fn atfim_beats_baseline_on_texture_latency() {
        let base = run(Design::Baseline);
        let at = run(Design::ATfim);
        assert!(
            at.texture_speedup_vs(&base) > 1.0,
            "a-tfim speedup {:.2} (base {:.1} vs atfim {:.1} cycles)",
            at.texture_speedup_vs(&base),
            base.texture.avg_latency(),
            at.texture.avg_latency()
        );
    }

    #[test]
    fn stfim_inflates_texture_traffic() {
        let bpim = run(Design::BPim);
        let st = run(Design::STfim);
        assert!(
            st.texture_traffic() > bpim.texture_traffic(),
            "s-tfim {} vs b-pim {}",
            st.texture_traffic(),
            bpim.texture_traffic()
        );
    }

    #[test]
    fn empty_scene_is_rejected() {
        let mut scene = tiny_scene();
        scene.cameras.clear();
        let mut sim = Simulator::new(SimConfig::default()).expect("valid");
        assert!(sim.render_trace(&scene).is_err());
    }

    #[test]
    fn per_frame_stats_partition_the_trace() {
        let mut profile = Game::Doom3.profile();
        profile.floor_quads = 4;
        profile.texture_count = 4;
        profile.facing_props = 1;
        let scene = build_scene_unchecked(&profile, Resolution::R320x240, 3);
        let mut sim = Simulator::new(SimConfig::default()).expect("valid");
        let r = sim.render_trace(&scene).expect("renders");
        assert_eq!(r.per_frame.len(), 3);
        let cycle_sum: u64 = r.per_frame.iter().map(|f| f.cycles).sum();
        assert_eq!(cycle_sum, r.total_cycles, "frames partition the run");
        let sample_sum: u64 = r.per_frame.iter().map(|f| f.texture_samples).sum();
        assert_eq!(sample_sum, r.texture.samples);
        assert!(r.per_frame.iter().all(|f| f.fragments > 0));
        assert_eq!(r.per_frame[1].frame, 1);
    }

    #[test]
    fn trace_audit_passes_for_all_designs() {
        for d in [Design::Baseline, Design::BPim, Design::STfim, Design::ATfim] {
            let r = run(d);
            r.audit().unwrap_or_else(|e| panic!("{d}: {e}"));
            assert!(!r.trace.is_empty());
            assert_eq!(r.trace.busy_sum("tex."), r.texture_busy_cycles, "{d}");
            assert_eq!(r.per_frame_trace.len(), 1, "{d}");
        }
    }

    #[test]
    fn reset_allows_reuse() {
        let scene = tiny_scene();
        let mut sim = Simulator::new(SimConfig::default()).expect("valid");
        let a = sim.render_trace(&scene).expect("first");
        sim.reset();
        let b = sim.render_trace(&scene).expect("second");
        assert_eq!(a.total_cycles, b.total_cycles, "reset restores determinism");
        assert_eq!(a.texture.samples, b.texture.samples);
    }
}
