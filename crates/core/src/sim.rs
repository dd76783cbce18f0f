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
use crate::lanepre::{self, ChunkPlan, ChunkRecords, ChunkSource, Cursor, Filler, LoadChunk};
use crate::rop::Rop;
use crate::stats::{FrameStats, RenderReport};
use crate::stream::{FragmentStream, StreamData};
use crate::texpath::TexturePath;
use pimgfx_energy::{EnergyModel, EnergyParams};
use pimgfx_engine::trace::{stage, StageCounters, StageTrace};
use pimgfx_engine::{Cycle, InFlightWindow};
use pimgfx_mem::MemorySystem;
use pimgfx_quality::FrameImage;
use pimgfx_raster::RasterStats;
use pimgfx_shader::{ShaderCores, ShaderProgram, TileScheduler};
use pimgfx_texture::{MippedTexture, TextureLayout};
use pimgfx_types::{ConfigError, Result, Rgba};
use pimgfx_workloads::SceneTrace;

/// Base address of the simulated texture heap.
const TEXTURE_BASE: u64 = 0x1000_0000;

/// Where the phase-2 walk gets each chunk's phase-1 records.
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
    texture: TexturePath,
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
            texture: TexturePath::new(&config)?,
            config,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The texture path (stats and load-balance diagnostics).
    pub fn texture_path(&self) -> &TexturePath {
        &self.texture
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
        self.replay_impl(scene, &data, 1)
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
        if stream.tile_px() != self.config.tile_px {
            return Err(ConfigError::new(
                "simulator",
                format!(
                    "stream binned at tile_px {} cannot replay on tile_px {}",
                    stream.tile_px(),
                    self.config.tile_px
                ),
            ));
        }
        self.replay_impl(stream.scene(), stream.data(), lanes)
    }

    /// The lane count [`render_replay_lanes`](Self::render_replay_lanes)
    /// actually runs with when asked for `lanes`: clamped to
    /// `1..=clusters`.
    pub fn replay_lanes(&self, lanes: usize) -> usize {
        lanepre::lane_workers(lanes, self.config.shader.clusters)
    }

    /// The variant-specific backend: drives shading, texturing, ROP,
    /// memory, and energy over an already-built fragment stream. Phase
    /// 1 fills chunk records on the calling thread (`lanes <= 1`) or on
    /// `lanes` helper threads ahead of the phase-2 walk (see
    /// [`crate::lanepre`]); results are byte-identical either way.
    fn replay_impl(
        &mut self,
        scene: &SceneTrace,
        data: &StreamData,
        lanes: usize,
    ) -> Result<RenderReport> {
        let lanes = self.replay_lanes(lanes);
        self.replay_with(scene, data, |sim, filler, src| {
            if lanes <= 1 {
                lanepre::fill_inline(filler, src, |load| sim.walk(scene, src, Feed::Chunks(load)))
            } else {
                lanepre::fill_streamed(filler, src, lanes, |load| {
                    sim.walk(scene, src, Feed::Chunks(load))
                })
            }
        })
    }

    /// The serial oracle replay: the walk with every quad through the
    /// serial per-quad pass, no phase-1 records.
    #[cfg(test)]
    pub(crate) fn render_replay_oracle(&mut self, stream: &FragmentStream) -> Result<RenderReport> {
        let scene = stream.scene();
        self.replay_with(scene, stream.data(), |sim, _, src| {
            sim.walk(scene, src, Feed::Oracle)
        })
    }

    /// Sets up what both phases read — texture layouts, the sampled
    /// (possibly transcoded) textures, the chunk plan, and the phase-1
    /// filler — and hands them to `run`.
    fn replay_with(
        &mut self,
        scene: &SceneTrace,
        data: &StreamData,
        run: impl FnOnce(&mut Self, &Filler, ChunkSource<'_>) -> Result<RenderReport>,
    ) -> Result<RenderReport> {
        let layouts = self.layouts(scene);
        let transcoded = self.transcoded(scene);
        let textures = sampled_textures(scene, transcoded.as_deref());
        let plan = ChunkPlan::new(data);
        let src = ChunkSource {
            data,
            plan: &plan,
            textures: &textures,
            layouts: &layouts,
        };
        let filler = Filler::new(self.config.design, *self.texture.sampler());
        run(self, &filler, src)
    }

    /// Lays the scene's textures out in the simulated address space.
    /// With several HMC cubes, textures go round-robin into per-cube
    /// regions so a whole mip pyramid always lives in one cube (§V-E).
    fn layouts(&self, scene: &SceneTrace) -> Vec<TextureLayout> {
        let cubes = self.mem.cube_count().max(1) as u64;
        let mut layouts: Vec<TextureLayout> = Vec::with_capacity(scene.textures.len());
        let mut next_offset = vec![0u64; cubes as usize];
        for (i, tex) in scene.textures.iter().enumerate() {
            let dims: Vec<(u32, u32)> = (0..tex.level_count())
                .map(|l| (tex.level(l).width(), tex.level(l).height()))
                .collect();
            let cube = i as u64 % cubes;
            let base = TEXTURE_BASE
                + cube * crate::backend::CUBE_REGION_BYTES
                + next_offset[cube as usize];
            let layout = TextureLayout::new(tex.id(), base, &dims);
            next_offset[cube as usize] += layout.total_bytes().next_multiple_of(4096);
            layouts.push(layout);
        }
        layouts
    }

    /// Optional block compression: the textures transcoded through the
    /// codec, so the functional renderer samples the lossy texels the
    /// hardware would read.
    fn transcoded(&self, scene: &SceneTrace) -> Option<Vec<MippedTexture>> {
        self.config.compressed_textures.then(|| {
            scene
                .textures
                .iter()
                .map(|t| pimgfx_texture::CompressedTexture::encode(t).decode(t))
                .collect()
        })
    }

    /// The phase-2 walk: geometry, then every frame's tiles in stream
    /// order with their texture quads, the ROP, and the report. `feed`
    /// supplies each chunk's phase-1 records.
    fn walk(
        &mut self,
        scene: &SceneTrace,
        src: ChunkSource<'_>,
        mut feed: Feed<'_, '_>,
    ) -> Result<RenderReport> {
        let ChunkSource {
            data,
            plan,
            textures,
            ..
        } = src;
        let width = scene.width();
        let height = scene.height();
        let mut rop = Rop::new(width, height, self.config.tile_px);
        let scheduler = TileScheduler::new(
            self.config.shader.clusters,
            width.div_ceil(self.config.tile_px),
        );
        let fragment_program = ShaderProgram::new(scene.shader_alu_ops, 1);

        let mut image = FrameImage::filled(width, height, Rgba::BLACK);
        let mut raster_total = RasterStats::default();
        let mut clock = Cycle::ZERO;
        let mut frames = 0u32;
        let mut per_frame: Vec<FrameStats> = Vec::with_capacity(scene.cameras.len());
        let mut samples_before = 0u64;
        let mut per_frame_trace: Vec<StageTrace> = Vec::with_capacity(scene.cameras.len());
        let mut trace_snapshot = StageTrace::new();
        let mut window_stalls = 0u64;
        let mut quad_results: Vec<(Rgba, Cycle)> = Vec::new();
        let mut recs = ChunkRecords::default();

        for (f, fe) in data.frames.iter().enumerate() {
            let frame_start = clock;
            rop.begin_frame();
            image.fill(Rgba::BLACK);

            // 1. Geometry processing (its vertex traffic and ALU work
            // are timing, so it runs per variant, not in the frontend).
            let geom_done =
                geometry::process_frame(frame_start, scene, &mut self.cores, &mut self.mem);

            // 2. Fragment processing, tile by tile, over the stream's
            // prebuilt raster output. A cluster may work a bounded
            // number of tiles ahead of the oldest unretired one —
            // texture latency beyond that slack throttles issue, as
            // finite in-flight fragment storage does in hardware.
            const TILE_WINDOW: usize = 4;
            let mut frame_end = geom_done;
            let mut windows: Vec<InFlightWindow> = (0..self.config.shader.clusters)
                .map(|_| InFlightWindow::new(TILE_WINDOW, geom_done))
                .collect();
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
                for t in plan.tiles(k) {
                    let tile = data.tile(t);
                    let cluster = scheduler.cluster_for(tile.coord);
                    let issue_at = windows[cluster].gate_from(geom_done);
                    let alu_done = self.cores.shade_fragments(
                        cluster,
                        issue_at,
                        tile.fragments.len() as u64,
                        &fragment_program,
                    );
                    let mut tile_done = alu_done;
                    // Texture requests are issued at 2x2-quad granularity
                    // (the texture unit serves whole fragment groups); the
                    // stream stores each tile's fragments quad-contiguously,
                    // in the same first-occurrence quad order the simulator
                    // always issued.
                    for quad in tile.quads() {
                        let i = quad[0].texture.index();
                        match feed {
                            Feed::Chunks(_) => self.texture.sample_quad_rec(
                                cluster,
                                issue_at,
                                quad.len(),
                                textures[i],
                                &recs,
                                &mut cursor,
                                &mut self.mem,
                                &mut quad_results,
                            ),
                            #[cfg(test)]
                            Feed::Oracle => self.texture.sample_quad_oracle(
                                cluster,
                                issue_at,
                                quad,
                                textures[i],
                                &src.layouts[i],
                                &mut self.mem,
                                &mut quad_results,
                            ),
                        }
                        for (frag, &(color, done)) in quad.iter().zip(&quad_results) {
                            tile_done = tile_done.max(done);
                            image.put(frag.x, frag.y, color.clamped());
                            rop.retire(frag);
                        }
                    }
                    windows[cluster].retire(tile_done);
                    frame_end = frame_end.max(tile_done);
                }
                match feed {
                    Feed::Chunks(_) => {
                        debug_assert_eq!(cursor.frag, recs.fragments(), "chunk {k} consumed");
                    }
                    #[cfg(test)]
                    Feed::Oracle => {}
                }
            }

            // 3. ROP write-back.
            let frag_end = frame_end;
            let rop_done = rop.flush_frame(frame_end, &mut self.mem);
            frame_end = frame_end.max(rop_done).max(self.texture.last_completion());
            // Opt-in diagnostic channel; stderr is the intended sink.
            #[allow(clippy::print_stderr)]
            if std::env::var_os("PIMGFX_TRACE_PHASES").is_some() {
                eprintln!(
                    "phase trace: geom {} | fragments {} | rop {} | tex_last {}",
                    geom_done.get(),
                    frag_end.get(),
                    rop_done.get(),
                    self.texture.last_completion().get()
                );
            }

            clock = frame_end;
            // Per-frame trace slice: the compute-side counters are
            // cumulative, so each frame is the delta since the last
            // snapshot (the windows are per-frame, so their stalls
            // accumulate into a running total first).
            window_stalls += windows.iter().map(InFlightWindow::stalls).sum::<u64>();
            let cumulative = self.compute_trace(&rop, window_stalls);
            per_frame_trace.push(cumulative.delta_since(&trace_snapshot));
            trace_snapshot = cumulative;
            let samples_now = self.texture.stats().samples;
            per_frame.push(FrameStats {
                frame: frames,
                cycles: frame_end.since(frame_start).get(),
                // The frontend captured per-frame raster counters when
                // it built the stream.
                fragments: fe.raster.fragments_out,
                texture_samples: samples_now - samples_before,
            });
            samples_before = samples_now;
            let r = fe.raster;
            raster_total.triangles_in += r.triangles_in;
            raster_total.triangles_clipped += r.triangles_clipped;
            raster_total.hiz_rejected += r.hiz_rejected;
            raster_total.z_tests += r.z_tests;
            raster_total.fragments_out += r.fragments_out;
            raster_total.tiles_touched += r.tiles_touched;
            frames += 1;
        }

        // Energy accounting.
        self.mem.sync_traffic();
        let mut energy = EnergyModel::new(EnergyParams::default());
        energy.add_shader_busy(self.cores.total_busy());
        energy.add_texture_busy(self.texture.gpu_busy());
        energy.add_pim_busy(self.texture.pim_busy());
        energy.add_cache_accesses(self.texture.cache_accesses());
        let external = self.mem.traffic().total().get();
        let internal = self.mem.internal_bytes();
        match self.config.design {
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
            per_frame.iter().map(|f| f.cycles).sum::<u64>(),
            clock.get(),
            "per-frame cycles must partition total_cycles"
        );
        debug_assert_eq!(
            per_frame.iter().map(|f| f.texture_samples).sum::<u64>(),
            self.texture.stats().samples,
            "per-frame texture samples must sum to the trace total"
        );
        debug_assert_eq!(
            per_frame.iter().map(|f| f.fragments).sum::<u64>(),
            raster_total.fragments_out,
            "per-frame fragments must sum to the raster total"
        );
        debug_assert!(
            self.mem
                .traffic()
                .bytes(pimgfx_mem::TrafficClass::TextureFetch)
                <= self.mem.traffic().total(),
            "texture traffic cannot exceed total external traffic"
        );
        debug_assert!(
            self.cores.total_busy().get()
                <= clock
                    .get()
                    .saturating_mul(self.config.shader.clusters as u64),
            "aggregate shader busy cycles cannot exceed clusters x wall-clock"
        );

        // Assemble the full stage trace: the compute-side stages plus
        // the memory-side stages (recorded once, post-`sync_traffic`).
        let mut trace = self.compute_trace(&rop, window_stalls);
        self.mem.record_trace(&mut trace);

        let report = RenderReport {
            design: self.config.design,
            frames,
            total_cycles: clock.get(),
            texture: *self.texture.stats(),
            traffic: self.mem.traffic().clone(),
            internal_bytes: internal,
            raster: raster_total,
            shader_busy_cycles: self.cores.total_busy().get(),
            texture_busy_cycles: self.texture.gpu_busy().get(),
            pim_busy_cycles: self.texture.pim_busy().get(),
            energy: energy.report(),
            image,
            per_frame,
            trace,
            per_frame_trace,
        };
        debug_assert!(
            report.audit().is_ok(),
            "cycle-accounting audit failed: {:?}",
            report.audit().err()
        );
        Ok(report)
    }

    /// Snapshot of every compute-side stage's cumulative counters:
    /// shader ALUs, the in-flight-window stall total, the full texture
    /// path (GPU pipes plus MTU / A-TFIM logic layers), and the ROP.
    fn compute_trace(&self, rop: &Rop, window_stalls: u64) -> StageTrace {
        let mut t = StageTrace::new();
        t.record(
            stage::SHADER_ALU,
            StageCounters::busy(self.cores.total_busy().get()),
        );
        t.record(stage::SHADER_WINDOW, StageCounters::stalled(window_stalls));
        self.texture.record_trace(&mut t);
        rop.record_trace(&mut t);
        t
    }

    /// Resets all hardware state (between independent experiments).
    pub fn reset(&mut self) {
        self.mem.reset();
        self.cores.reset();
        self.texture.reset();
    }
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
