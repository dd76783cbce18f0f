//! Shared harness for regenerating the paper's tables and figures.
//!
//! The `repro` binary and the `benchmark/` workloads drive experiments
//! through [`Harness`], which builds scenes, runs the simulator for each
//! design variant, and memoizes reports so a figure that needs the
//! baseline and three designs does not re-simulate the baseline four
//! times.
//!
//! # Module map
//!
//! | module | role |
//! |---|---|
//! | crate root | [`Harness`] (memoizing runner), [`Variant`] (design + experiment knobs), [`Sweep`] (job-matrix builder), [`ReplayPlan`] (the replay-group fan-out), [`CsvSink`] |
//! | [`pool`] | `std::thread::scope` worker pool with deterministic, input-ordered merge |
//! | [`manifest`] | `BENCH_repro.json` run manifests (per-figure wall-times, cells/sec, per-cell report summaries) |
//!
//! # Parallel sweeps
//!
//! The experiment matrix — every `(workload, resolution, variant)` cell
//! of Table II × the design points — is embarrassingly parallel. Build the
//! cell list with [`Sweep`], fan it out with [`Harness::precompute`],
//! then print figures from the warm cache; because the pool merges
//! results in input order and the printers only read memoized reports,
//! the output (stdout tables, `results/*.csv`) is byte-identical to a
//! serial run. See `docs/PARALLELISM.md` for the design and the
//! `PIMGFX_THREADS` override.
//!
//! ```no_run
//! use pimgfx_bench::{Harness, Sweep, Variant};
//! use pimgfx::Design;
//!
//! let mut h = Harness::new(2);
//! let columns = Harness::columns(true);
//! let sweep = Sweep::matrix(&columns, &[Variant::Design(Design::Baseline),
//!                                       Variant::Design(Design::ATfim)]);
//! let stats = h.precompute(&sweep)?; // parallel fan-out
//! assert_eq!(stats.cells_executed, sweep.len());
//! // every later h.run(...) on these cells is a cache hit
//! # Ok::<(), pimgfx_types::Error>(())
//! ```

// --- lint wall (checked byte-for-byte by `cargo xtask lint`) ---
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]

pub mod manifest;
pub mod pool;

use pimgfx::{Design, FragmentStreamCache, FrontendCacheStats, RenderReport, SimConfig, Simulator};
use pimgfx_mem::HmcConfig;
use pimgfx_quality::psnr;
use pimgfx_types::{ConfigError, Error, FxHashSet, Result};
use pimgfx_workloads::{Game, Resolution, SceneCache, SceneTrace, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result alias for harness operations, which can fail on configuration
/// *or* I/O (CSV output).
pub type HarnessResult<T> = std::result::Result<T, Error>;

/// A design variant to simulate — a design point plus the experiment
/// knobs the paper sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// Plain design at default settings (A-TFIM at the default 0.01π).
    Design(Design),
    /// Baseline GPU with anisotropic filtering disabled (Fig. 4).
    AnisoOff,
    /// A-TFIM at an explicit angle threshold, as a fraction of π.
    AtfimThreshold(f32),
    /// A-TFIM with recalculation disabled entirely (`A-TFIM-no`).
    AtfimNoRecalc,
    /// A-TFIM without child-texel consolidation (ablation).
    AtfimNoConsolidation,
    /// A-TFIM without offload-package compression (ablation).
    AtfimNoCompression,
    /// A design with BC1 block-compressed textures (§VIII ablation).
    Bc1(Design),
    /// S-TFIM with this many shared MTUs (§IV ablation).
    StfimMtus(usize),
    /// A-TFIM over this many HMC cubes (§V-E ablation).
    AtfimCubes(usize),
    /// A-TFIM with this many HMC vaults, at the internal bandwidth
    /// [`VAULT_SWEEP`] pairs with the count (vault-bandwidth ablation).
    AtfimVaults(u64),
}

impl Variant {
    /// Stable key for memoization and report labels.
    pub fn label(self) -> String {
        match self {
            Variant::Design(d) => d.label().to_string(),
            Variant::AnisoOff => "aniso-off".to_string(),
            Variant::AtfimThreshold(f) => format!("a-tfim@{f}pi"),
            Variant::AtfimNoRecalc => "a-tfim-no".to_string(),
            Variant::AtfimNoConsolidation => "a-tfim-noconsol".to_string(),
            Variant::AtfimNoCompression => "a-tfim-nocompress".to_string(),
            Variant::Bc1(d) => format!("{}+bc1", d.label()),
            Variant::StfimMtus(n) => format!("s-tfim@{n}mtus"),
            Variant::AtfimCubes(n) => format!("a-tfim@{n}cubes"),
            Variant::AtfimVaults(n) => format!("a-tfim@{n}vaults"),
        }
    }

    /// Builds the simulator configuration for this variant.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn config(self) -> Result<SimConfig> {
        let on = |design| SimConfig::builder().design(design);
        match self {
            Variant::Design(d) => on(d).build(),
            Variant::AnisoOff => on(Design::Baseline).max_aniso(1).build(),
            Variant::AtfimThreshold(f) => on(Design::ATfim).angle_threshold_pi_fraction(f).build(),
            Variant::AtfimNoRecalc => on(Design::ATfim).no_recalculation().build(),
            Variant::AtfimNoConsolidation => on(Design::ATfim).consolidation(false).build(),
            Variant::AtfimNoCompression => on(Design::ATfim).offload_compression(false).build(),
            Variant::Bc1(d) => on(d).compressed_textures(true).build(),
            Variant::StfimMtus(n) => on(Design::STfim).mtus(n).build(),
            Variant::AtfimCubes(n) => on(Design::ATfim).hmc_cubes(n).build(),
            Variant::AtfimVaults(vaults) => {
                let mut hmc = HmcConfig::default();
                (hmc.vaults, hmc.internal_gb_s) =
                    *VAULT_SWEEP.iter().find(|v| v.0 == vaults).ok_or_else(|| {
                        ConfigError::new("harness", format!("no bandwidth for {vaults} vaults"))
                    })?;
                on(Design::ATfim).hmc(hmc).build()
            }
        }
    }

    /// The cell this variant reads: a structural ablation whose knob
    /// sits at its design's default (16 MTUs, one cube, 32 vaults) is
    /// that design's own cell, so the twin adds no cell of its own.
    pub fn canonical(self) -> Self {
        let plain = match self {
            Variant::StfimMtus(_) => Variant::Design(Design::STfim),
            Variant::AtfimCubes(_) | Variant::AtfimVaults(_) => Variant::Design(Design::ATfim),
            other => return other,
        };
        if self.config().ok() == plain.config().ok() {
            plain
        } else {
            self
        }
    }
}

/// The angle thresholds (fractions of π) swept by Figs. 14–16, strictest
/// first, ending with the no-recalculation configuration.
pub const THRESHOLD_SWEEP: [f32; 4] = [0.005, 0.01, 0.05, 0.1];

/// The designs the BC1 block-compression ablation (§VIII) runs.
pub const BC1_DESIGNS: [Design; 2] = [Design::Baseline, Design::ATfim];
/// The shared-MTU ablation's S-TFIM MTU counts (§IV).
pub const MTU_SWEEP: [usize; 4] = [16, 8, 4, 2];
/// The multi-cube ablation's HMC cube counts (§V-E).
pub const CUBE_SWEEP: [usize; 3] = [1, 2, 4];
/// The HMC internal-bandwidth ablation: vault counts and the internal
/// GB/s each runs at.
pub const VAULT_SWEEP: [(u64, f64); 4] = [(8, 320.0), (16, 384.0), (32, 512.0), (64, 768.0)];

/// Everything the reproduction can regenerate, in output order: the
/// section names accepted by the `repro` binary and by `pimgfx-serve`
/// job submissions.
pub const SECTIONS: [&str; 14] = [
    "table1", "table2", "fig2", "fig4", "fig5", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "overhead", "ablation",
];

/// The design variants a section's benchmark-matrix cells need on every
/// column (empty for the sections that print static tables — `table1`,
/// `table2`, `overhead`). The `ablation` section's structural sweeps are
/// not here: they run on the first column only, and [`section_sweep`]
/// adds them.
///
/// Shared between the `repro` precompute fan-out and `pimgfx-serve`
/// job expansion, so a served section simulates exactly the per-column
/// cells the batch binary would.
pub fn section_variants(section: &str) -> Vec<Variant> {
    let designs = || Design::ALL.map(Variant::Design).to_vec();
    let thresholds = || {
        let mut v: Vec<Variant> = vec![Variant::Design(Design::Baseline)];
        v.extend(THRESHOLD_SWEEP.map(Variant::AtfimThreshold));
        v.push(Variant::AtfimNoRecalc);
        v
    };
    match section {
        "fig2" => vec![Variant::Design(Design::Baseline)],
        "fig4" => vec![Variant::Design(Design::Baseline), Variant::AnisoOff],
        "fig5" => vec![
            Variant::Design(Design::Baseline),
            Variant::Design(Design::BPim),
        ],
        "fig10" | "fig11" | "fig13" => designs(),
        "fig12" => {
            let mut v = designs();
            v.push(Variant::AtfimThreshold(0.01));
            v.push(Variant::AtfimThreshold(0.05));
            v
        }
        "fig14" | "fig15" | "fig16" => thresholds(),
        "ablation" => vec![
            Variant::Design(Design::Baseline),
            Variant::Design(Design::ATfim),
            Variant::AtfimNoConsolidation,
            Variant::AtfimNoCompression,
        ],
        _ => Vec::new(),
    }
}

/// The cells `section` needs on `columns`: its [`section_variants`] on
/// every column and, for `ablation`, the structural sweeps — BC1
/// compression, MTU, cube and vault counts — on the first column only.
/// A knob at its design's default reads that design's cell
/// ([`Variant::canonical`]), so such twins add no cell.
pub fn section_sweep(section: &str, columns: &[(Workload, Resolution)]) -> Sweep {
    let mut sweep = Sweep::matrix(columns, &section_variants(section));
    if let (Some(&first), "ablation") = (columns.first(), section) {
        let structural: Vec<Variant> = BC1_DESIGNS
            .map(Variant::Bc1)
            .into_iter()
            .chain(MTU_SWEEP.map(Variant::StfimMtus))
            .chain(CUBE_SWEEP.map(Variant::AtfimCubes))
            .chain(VAULT_SWEEP.map(|(n, _)| Variant::AtfimVaults(n)))
            .map(Variant::canonical)
            .collect();
        sweep.extend_matrix(&[first], &structural);
    }
    sweep
}

/// One cell of the experiment matrix: a benchmark column — a
/// [`Workload`] (Table II game or procedural [`SyntheticSpec`]) at a
/// resolution — plus the design variant to simulate on it.
///
/// [`SyntheticSpec`]: pimgfx_workloads::SyntheticSpec
pub type Cell = (Workload, Resolution, Variant);

/// Builder for the job matrix a parallel sweep executes.
///
/// A sweep is an ordered list of [`Cell`]s; [`Harness::precompute`]
/// deduplicates it (first occurrence wins), skips already-memoized
/// cells, and fans the rest out across the [`pool`]. Order matters only
/// for reproducible scheduling — results are merged deterministically
/// either way.
///
/// # Examples
///
/// ```
/// use pimgfx_bench::{Sweep, Variant};
/// use pimgfx::Design;
/// use pimgfx_workloads::{Game, Resolution};
///
/// let columns = [(Game::Doom3, Resolution::R320x240)];
/// let sweep = Sweep::matrix(&columns, &[Variant::Design(Design::Baseline)])
///     .cell(Game::Doom3, Resolution::R320x240, Variant::AnisoOff);
/// assert_eq!(sweep.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    cells: Vec<Cell>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cross product `columns × variants`, columns-major (all
    /// variants of a column are adjacent, matching the serial printers'
    /// traversal order). Columns are any workload identity — bare
    /// [`Game`]s and full [`Workload`]s both work.
    pub fn matrix<W: Into<Workload> + Copy>(
        columns: &[(W, Resolution)],
        variants: &[Variant],
    ) -> Self {
        let mut s = Self::new();
        s.extend_matrix(columns, variants);
        s
    }

    /// Appends one cell.
    #[must_use]
    pub fn cell(
        mut self,
        workload: impl Into<Workload>,
        res: Resolution,
        variant: Variant,
    ) -> Self {
        self.cells.push((workload.into(), res, variant));
        self
    }

    /// Appends the cross product `columns × variants`.
    pub fn extend_matrix<W: Into<Workload> + Copy>(
        &mut self,
        columns: &[(W, Resolution)],
        variants: &[Variant],
    ) {
        for &(w, r) in columns {
            for &v in variants {
                self.cells.push((w.into(), r, v));
            }
        }
    }

    /// Merges another sweep's cells after this one's.
    pub fn extend(&mut self, other: &Sweep) {
        self.cells.extend_from_slice(&other.cells);
    }

    /// The cells in insertion order (duplicates retained; precompute
    /// deduplicates).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells (including duplicates).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell has been added.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// What a [`Harness::precompute`] fan-out actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells simulated by this call (deduplicated, cache misses only).
    pub cells_executed: usize,
    /// Worker threads the pool used.
    pub workers: usize,
    /// Wall-clock time of the fan-out (scene builds + simulations).
    pub wall: Duration,
}

impl SweepStats {
    /// Cells per wall-clock second (0 when nothing ran).
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 || self.cells_executed == 0 {
            0.0
        } else {
            self.cells_executed as f64 / secs
        }
    }
}

/// Wall-clock split of one simulated cell: time spent obtaining the
/// variant-invariant frontend artifact (the [`pimgfx::FragmentStream`];
/// near zero on a stream-cache hit) versus time spent in the
/// variant-specific backend replay. Surfaced per cell in the run
/// manifest (schema v3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WallSplit {
    /// Milliseconds spent in `FragmentStreamCache::get` — the frontend
    /// build on a miss, a map lookup on a hit.
    pub frontend_ms: f64,
    /// Milliseconds spent replaying the backend (all timing models).
    pub backend_ms: f64,
    /// Replay lanes the backend pass actually used (after the
    /// simulator's clamp to the cluster count; 1 = fully serial replay).
    /// Surfaced per cell in the run manifest (schema v4).
    pub replay_lanes: usize,
}

/// Memoizing experiment runner.
#[derive(Debug)]
pub struct Harness {
    /// Frames per walkthrough.
    frames: usize,
    scenes: SceneCache,
    streams: Arc<FragmentStreamCache>,
    // BTreeMap, not a hash map: report cells are iterated into CSV and
    // manifest output, so the container order itself must be stable.
    reports: BTreeMap<(Workload, Resolution, String), RenderReport>,
    walls: BTreeMap<(String, String), WallSplit>,
    /// Pinned replay lane count (tests and A/B probes); `None` derives
    /// lanes from the shared [`pool`] budget and `PIMGFX_REPLAY_LANES`.
    replay_lanes_pin: Option<usize>,
    /// Load-balance accounting accumulated across `precompute` calls:
    /// per-cell wall milliseconds and the pool capacity
    /// (`workers × fan-out wall`) those cells ran under.
    lb: LoadBalanceAccum,
}

/// Accumulator behind [`Harness::load_balance`].
#[derive(Debug, Clone, Copy, Default)]
struct LoadBalanceAccum {
    cells: usize,
    sum_cell_ms: f64,
    max_cell_ms: f64,
    capacity_ms: f64,
}

/// Load-balance summary of a harness's parallel fan-outs (schema v4's
/// `load_balance` manifest block): how even the per-cell wall times
/// were and how much of the pool's capacity the cells actually filled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBalance {
    /// Slowest single cell, wall milliseconds.
    pub max_cell_ms: f64,
    /// Mean cell wall milliseconds.
    pub mean_cell_ms: f64,
    /// `Σ cell_ms / Σ (workers × fan-out wall)` — 1.0 means every
    /// worker was busy for the whole fan-out; low values mean the pool
    /// idled behind stragglers (what LPT ordering exists to prevent).
    pub pool_utilization: f64,
}

impl Harness {
    /// Creates a harness rendering `frames` frames per column.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "need at least one frame");
        Self {
            frames,
            scenes: SceneCache::new(frames),
            streams: Arc::new(FragmentStreamCache::new(SimConfig::default().tile_px)),
            reports: BTreeMap::new(),
            walls: BTreeMap::new(),
            replay_lanes_pin: None,
            lb: LoadBalanceAccum::default(),
        }
    }

    /// Frames per walkthrough column.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The benchmark columns of Table II, or a reduced quick set.
    pub fn columns(quick: bool) -> Vec<(Workload, Resolution)> {
        let games = if quick {
            vec![
                (Game::Doom3, Resolution::R320x240),
                (Game::Wolfenstein, Resolution::R640x480),
            ]
        } else {
            Game::benchmark_matrix()
        };
        games
            .into_iter()
            .map(|(g, r)| (Workload::Game(g), r))
            .collect()
    }

    /// Short label for a column ("doom3-320x240", or
    /// "syn.&lt;params&gt;-1920x1080" for a synthetic column).
    pub fn column_label(workload: impl Into<Workload>, res: Resolution) -> String {
        format!("{}-{res}", workload.into())
    }

    /// The shared scene cache (each column's trace is built once and
    /// shared across variants and worker threads).
    pub fn scenes(&self) -> &SceneCache {
        &self.scenes
    }

    /// Scene-cache evictions so far (always 0: the harness's scene
    /// cache is unbounded) — surfaced in the run manifest.
    pub fn scene_evictions(&self) -> u64 {
        self.scenes.evictions()
    }

    /// The shared frontend-stream cache (each column's rasterized
    /// fragment stream is built once and replayed by every variant).
    pub fn streams(&self) -> &Arc<FragmentStreamCache> {
        &self.streams
    }

    /// Snapshot of the frontend-stream cache's hit/miss/eviction
    /// counters — surfaced in the run manifest (schema v3).
    pub fn frontend_cache_stats(&self) -> FrontendCacheStats {
        self.streams.stats()
    }

    /// The wall-clock frontend/backend split recorded when a cell was
    /// simulated, keyed by `(column label, variant label)`. `None` for
    /// cells never run by this harness.
    pub fn wall_split(&self, column: &str, variant: &str) -> Option<WallSplit> {
        self.walls
            .get(&(column.to_string(), variant.to_string()))
            .copied()
    }

    /// Pins the replay lane count for every subsequent cell simulation
    /// (`Some(1)` forces fully serial replay; `None` restores the
    /// default: the shared [`pool`] budget split, overridable via
    /// `PIMGFX_REPLAY_LANES`). Exists so equivalence tests can sweep
    /// lane counts without racing each other over the environment.
    pub fn set_replay_lanes(&mut self, lanes: Option<usize>) {
        self.replay_lanes_pin = lanes;
    }

    /// Load-balance summary of every [`Harness::precompute`] fan-out so
    /// far, or `None` when no parallel fan-out has run (the serve job
    /// manifests and `--serial` runs therefore omit the block).
    pub fn load_balance(&self) -> Option<LoadBalance> {
        if self.lb.cells == 0 {
            return None;
        }
        Some(LoadBalance {
            max_cell_ms: self.lb.max_cell_ms,
            mean_cell_ms: self.lb.sum_cell_ms / self.lb.cells as f64,
            pool_utilization: if self.lb.capacity_ms > 0.0 {
                (self.lb.sum_cell_ms / self.lb.capacity_ms).min(1.0)
            } else {
                0.0
            },
        })
    }

    /// Resolves the replay lane count for cells running under a
    /// `cell_workers`-wide pool: the pinned value when set, else the
    /// shared-budget split (see [`pool::configured_replay_lanes`]).
    fn replay_lanes(&self, cell_workers: usize) -> Result<usize> {
        match self.replay_lanes_pin {
            Some(n) => Ok(n.max(1)),
            None => pool::configured_replay_lanes(cell_workers),
        }
    }

    /// Runs (or recalls) one experiment cell.
    ///
    /// This is the *serial* path: a cache miss simulates the cell on the
    /// calling thread. Use [`Harness::precompute`] first to fan a whole
    /// job matrix out across workers; subsequent `run` calls then hit
    /// the memoized reports.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation failures.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use pimgfx_bench::{Harness, Variant};
    /// use pimgfx::Design;
    /// use pimgfx_workloads::{Game, Resolution};
    ///
    /// let mut h = Harness::new(2);
    /// let report = h.run(Game::Doom3, Resolution::R320x240,
    ///                    Variant::Design(Design::ATfim))?;
    /// println!("{} cycles", report.total_cycles);
    /// # Ok::<(), pimgfx_types::Error>(())
    /// ```
    pub fn run(
        &mut self,
        workload: impl Into<Workload>,
        res: Resolution,
        variant: Variant,
    ) -> HarnessResult<&RenderReport> {
        let workload = workload.into();
        let key = (workload, res, variant.label());
        if !self.reports.contains_key(&key) {
            let scene = self.scenes.get(workload, res);
            // One cell on the calling thread: the whole budget is
            // available to the lane level.
            let lanes = self.replay_lanes(1)?;
            let (report, wall) = simulate_group(&scene, &[variant], &self.streams, lanes)?
                .pop()
                .ok_or_else(|| ConfigError::new("harness", "a replay group returned no report"))?;
            self.walls
                .insert((Self::column_label(workload, res), variant.label()), wall);
            self.reports.insert(key.clone(), report);
        }
        self.reports
            .get(&key)
            .ok_or_else(|| ConfigError::new("harness", "report cache lost a just-run cell").into())
    }

    /// Fans every not-yet-memoized cell of `sweep` out across the
    /// worker [`pool`] and memoizes the results.
    ///
    /// Cells are deduplicated (first occurrence wins), each column's
    /// cells are split into [`replay_groups`], and the groups are
    /// scheduled dynamically as pool units; unique scenes are built
    /// first — also in parallel — so no worker ever rebuilds a column
    /// another variant already needs. The merge is deterministic (input
    /// order), which together with the serial printers makes parallel
    /// output byte-identical to serial output.
    ///
    /// # Errors
    ///
    /// Propagates the first configuration or simulation failure, in
    /// cell order; reports from cells before the failing one stay
    /// memoized.
    pub fn precompute(&mut self, sweep: &Sweep) -> HarnessResult<SweepStats> {
        // det:boundary — sweep wall-time for SweepStats reporting only;
        // simulated cycles come from the replay, never from this clock.
        let start = Instant::now();

        // Deduplicate against both the sweep itself and the cache.
        let mut seen: FxHashSet<(Workload, Resolution, String)> = FxHashSet::default();
        let mut todo: Vec<Cell> = Vec::new();
        for &(w, r, v) in sweep.cells() {
            let key = (w, r, v.label());
            if !self.reports.contains_key(&key) && seen.insert(key) {
                todo.push((w, r, v));
            }
        }
        if todo.is_empty() {
            return Ok(SweepStats {
                cells_executed: 0,
                workers: pool::worker_count(0)?,
                wall: start.elapsed(),
            });
        }

        let plan = ReplayPlan::new(&todo)?;

        // Phase 1: build each unique scene — in parallel — and then its
        // frontend fragment stream. Pre-warming the stream cache here
        // means phase 2's workers all hit it, so no two workers ever
        // duplicate a column's rasterization work by racing on a cold
        // entry. Streams are built one column after another: each build
        // already shades on the whole thread budget, so fanning columns
        // over the pool as well would multiply threads.
        let scenes = &self.scenes;
        let columns = plan.columns();
        for scene in pool::run_ordered(columns, pool::worker_count(columns.len())?, |&(w, r)| {
            scenes.get(w, r)
        }) {
            self.streams.get(&scene)?;
        }

        // Phase 2: simulate all cells, one replay group per pool unit.
        let workers = pool::worker_count(plan.groups().len())?;
        let lanes = self.replay_lanes(workers)?;
        let results = plan.run(
            |w, r| scenes.get(w, r),
            &self.streams,
            workers,
            lanes,
            |_| true,
        );
        let wall = start.elapsed();

        // A group's members finish together, so its wall counts once
        // toward the pool's busy time.
        for group in plan.groups() {
            if let Some(Ok((_, split))) = &results[group[0]] {
                let unit_ms = split.frontend_ms + split.backend_ms;
                self.lb.sum_cell_ms += unit_ms;
                self.lb.max_cell_ms = self.lb.max_cell_ms.max(unit_ms);
            }
        }
        self.lb.capacity_ms += workers as f64 * wall.as_secs_f64() * 1000.0;
        let cells_executed = todo.len();
        for ((w, r, v), result) in todo.into_iter().zip(results) {
            // A failed group's error returns at its first cell in sweep
            // order; the cells before it stay memoized.
            let (report, wall) = result
                .ok_or_else(|| ConfigError::new("harness", "a cell was left unreplayed"))??;
            self.lb.cells += 1;
            self.walls
                .insert((Self::column_label(w, r), v.label()), wall);
            self.reports.insert((w, r, v.label()), report);
        }
        Ok(SweepStats {
            cells_executed,
            workers,
            wall,
        })
    }

    /// Every memoized report, sorted by `(column label, variant label)`
    /// — the deterministic order the run manifest records.
    pub fn report_cells(&self) -> Vec<(String, String, &RenderReport)> {
        let mut cells: Vec<(String, String, &RenderReport)> = self
            .reports
            .iter()
            .map(|((w, r, label), rep)| (Self::column_label(*w, *r), label.clone(), rep))
            .collect();
        cells.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        cells
    }

    /// Convenience: the baseline report for a column.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation failures.
    pub fn baseline(
        &mut self,
        workload: impl Into<Workload>,
        res: Resolution,
    ) -> HarnessResult<RenderReport> {
        Ok(self
            .run(workload, res, Variant::Design(Design::Baseline))?
            .clone())
    }

    /// PSNR of a variant's last frame against the baseline's.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation failures, and the
    /// metric's dimension-mismatch rejection (impossible here by
    /// construction — both frames come from the same resolution cell —
    /// but surfaced rather than swallowed).
    pub fn psnr_vs_baseline(
        &mut self,
        workload: impl Into<Workload>,
        res: Resolution,
        variant: Variant,
    ) -> HarnessResult<f64> {
        let workload = workload.into();
        let base = self.baseline(workload, res)?;
        let img = self.run(workload, res, variant)?.image.clone();
        psnr(&base.image, &img)
    }
}

/// Optional CSV output for figure data.
///
/// When constructed with a directory, every call to
/// [`CsvSink::write_figure`] drops a `<figure>.csv` file there; with
/// `None` it is a no-op, so the `repro` printers call it
/// unconditionally.
#[derive(Debug, Clone, Default)]
pub struct CsvSink {
    dir: Option<std::path::PathBuf>,
}

impl CsvSink {
    /// Creates a sink writing into `dir` (created if missing), or a
    /// no-op sink for `None`.
    ///
    /// # Errors
    ///
    /// Fails if the requested output directory cannot be created.
    pub fn new(dir: Option<std::path::PathBuf>) -> HarnessResult<Self> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)
                .map_err(|e| Error::io(format!("creating csv directory {}", d.display()), e))?;
        }
        Ok(Self { dir })
    }

    /// Writes one figure's data as CSV: a header row and one row per
    /// benchmark/series entry. No-op without a directory.
    ///
    /// # Errors
    ///
    /// Fails if the CSV file cannot be written.
    pub fn write_figure(
        &self,
        figure: &str,
        header: &[&str],
        rows: &[Vec<String>],
    ) -> HarnessResult<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        let path = dir.join(format!("{figure}.csv"));
        std::fs::write(&path, out).map_err(|e| Error::io(format!("writing {}", path.display()), e))
    }
}

/// Expected one-lane replay cost of a variant per pixel, in hundredths
/// of a solo baseline replay: `(solo, own)`. `solo` is the whole replay
/// alone; `own` is the member's timing step — texture units, memory,
/// logic layer, windows, ROP — the part it still pays inside a replay
/// group, which runs phase 1 and the functional step once. Measured as
/// one-lane replays of Wolfenstein 640×480 on a 2-vCPU Xeon host
/// (docs/PERFORMANCE.md "Where the time went: shared replay"): S-TFIM's
/// timing step is the dearest, its MTUs read every request line in the
/// vaults; A-TFIM's phase 1 is cheap but its functional step —
/// angle-tagged probes, parent reuse and recompute — is not, so a solo
/// A-TFIM replay costs the most. The costs only order the pool's
/// hand-off and size the groups; results are merged in sweep order
/// regardless, so a misjudged cost costs wall time, never bytes.
fn variant_cost(variant: Variant) -> (u64, u64) {
    match variant {
        Variant::Design(Design::Baseline) | Variant::Design(Design::BPim) => (100, 9),
        Variant::Design(Design::STfim) | Variant::StfimMtus(_) => (96, 22),
        Variant::AnisoOff => (76, 6),
        Variant::Design(Design::ATfim)
        | Variant::AtfimThreshold(_)
        | Variant::AtfimNoRecalc
        | Variant::AtfimNoConsolidation
        | Variant::AtfimNoCompression
        | Variant::AtfimCubes(_)
        | Variant::AtfimVaults(_) => (130, 11),
        Variant::Bc1(d) => variant_cost(Variant::Design(d)),
    }
}

/// Expected one-lane cost of replaying `members` as one group, per
/// pixel (see [`variant_cost`]): the costliest member's shared part once,
/// plus every member's own timing step. Identical configurations replay
/// once, so a twin adds nothing.
fn group_cost(members: &[Variant]) -> u64 {
    let mut configs: Vec<SimConfig> = Vec::new();
    let (mut shared, mut own) = (0, 0);
    for &v in members {
        if let Ok(c) = v.config() {
            if configs.contains(&c) {
                continue;
            }
            configs.push(c);
        }
        let (solo, timing) = variant_cost(v);
        shared = shared.max(solo - timing);
        own += timing;
    }
    shared + own
}

/// Partitions one column's cells — `variants` — into replay groups,
/// each a list of indices into `variants` in order; every index lands in
/// exactly one group. Cells group when their configurations share a
/// [`SimConfig::replay_key`], so a group's members differ only in
/// timing and replay together
/// ([`Simulator::render_replay_group`]): on `repro --quick`'s variants,
/// {baseline, b-pim} and {a-tfim, a-tfim@0.01pi, a-tfim-noconsol}, every
/// other cell alone.
///
/// A group's members finish together, so each member's latency is the
/// group's, and a group is capped: its expected one-lane cost — the
/// costliest member's shared part once, plus every member's own timing
/// step, by measured per-variant costs — stays within 15% of every
/// member's solo replay. Identical configurations always share a group,
/// since they replay once. [`Harness::precompute`] and `pimgfx-serve`
/// jobs both group through this function.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn replay_groups(variants: &[Variant]) -> Result<Vec<Vec<usize>>> {
    let configs = variants
        .iter()
        .map(|v| v.config())
        .collect::<Result<Vec<_>>>()?;
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, c) in configs.iter().enumerate() {
        let twin = groups
            .iter()
            .position(|g| g.iter().any(|&m| configs[m] == *c));
        // The last group of this key is the one still filling.
        let open = groups
            .iter()
            .rposition(|g| configs[g[0]].replay_key() == c.replay_key());
        let fits = |g: &Vec<usize>| {
            let mut members: Vec<Variant> = g.iter().map(|&m| variants[m]).collect();
            members.push(variants[i]);
            let cost = group_cost(&members) * 100;
            members.iter().all(|&m| cost <= variant_cost(m).0 * 115)
        };
        match (twin, open) {
            (Some(g), _) => groups[g].push(i),
            (None, Some(g)) if fits(&groups[g]) => groups[g].push(i),
            _ => groups.push(vec![i]),
        }
    }
    Ok(groups)
}

/// One pool unit of a [`ReplayPlan`]: a replay group of one column's
/// cells.
#[derive(Debug)]
struct Unit {
    column: (Workload, Resolution),
    /// LPT weight: pixels × [`group_cost`].
    weight: u64,
    /// Indices of the group's cells in the plan's cell list.
    cells: Vec<usize>,
    variants: Vec<Variant>,
}

/// The one fan-out of simulation cells over the worker [`pool`], behind
/// [`Harness::precompute`] and `pimgfx-serve` jobs: each column's cells
/// split into [`replay_groups`], one pool unit per group, handed out
/// heaviest first (LPT, weight pixels × the group's expected replay
/// cost) so a straggler like an a-tfim 1280×1024 group starts early. The
/// sort is stable, so the schedule is deterministic, and
/// [`ReplayPlan::run`] returns results in cell order whatever it was.
#[derive(Debug)]
pub struct ReplayPlan {
    columns: Vec<(Workload, Resolution)>,
    units: Vec<Unit>,
    cells: usize,
}

impl ReplayPlan {
    /// Groups `cells` into pool units.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(cells: &[Cell]) -> Result<Self> {
        let mut columns: Vec<(Workload, Resolution)> = Vec::new();
        for &(w, r, _) in cells {
            if !columns.contains(&(w, r)) {
                columns.push((w, r));
            }
        }
        let mut units: Vec<Unit> = Vec::new();
        for &(w, r) in &columns {
            let idx: Vec<usize> = (0..cells.len())
                .filter(|&i| (cells[i].0, cells[i].1) == (w, r))
                .collect();
            let variants: Vec<Variant> = idx.iter().map(|&i| cells[i].2).collect();
            for group in replay_groups(&variants)? {
                let members: Vec<Variant> = group.iter().map(|&g| variants[g]).collect();
                units.push(Unit {
                    column: (w, r),
                    weight: r.pixels() * group_cost(&members),
                    cells: group.iter().map(|&g| idx[g]).collect(),
                    variants: members,
                });
            }
        }
        units.sort_by_key(|u| std::cmp::Reverse(u.weight));
        Ok(Self {
            columns,
            units,
            cells: cells.len(),
        })
    }

    /// The planned columns, in first-appearance order.
    pub fn columns(&self) -> &[(Workload, Resolution)] {
        &self.columns
    }

    /// The replay groups, in the order the pool takes them: each a list
    /// of indices into the planned cells.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = &[usize]> {
        self.units.iter().map(|u| u.cells.as_slice())
    }

    /// Replays every group — `workers` at a time, on `lanes` replay
    /// lanes each, over its column's `scene` and that scene's stream
    /// from `streams` — and returns one result per planned cell, in cell
    /// order. `run` is asked with each group's cell indices just before
    /// the group would start: `false` skips it, and its cells read
    /// `None`. A failed group fails each of its cells.
    pub fn run(
        &self,
        scene: impl Fn(Workload, Resolution) -> Arc<SceneTrace> + Sync,
        streams: &FragmentStreamCache,
        workers: usize,
        lanes: usize,
        run: impl Fn(&[usize]) -> bool + Sync,
    ) -> Vec<Option<Result<(RenderReport, WallSplit)>>> {
        let results = pool::run_ordered(&self.units, workers, |u| {
            run(&u.cells).then(|| {
                simulate_group(&scene(u.column.0, u.column.1), &u.variants, streams, lanes)
            })
        });
        let mut out: Vec<Option<Result<(RenderReport, WallSplit)>>> =
            (0..self.cells).map(|_| None).collect();
        for (unit, result) in self.units.iter().zip(results) {
            match result {
                Some(Ok(reports)) => {
                    for (&i, cell) in unit.cells.iter().zip(reports) {
                        out[i] = Some(Ok(cell));
                    }
                }
                Some(Err(e)) => {
                    for &i in &unit.cells {
                        out[i] = Some(Err(e.clone()));
                    }
                }
                None => {}
            }
        }
        out
    }
}

/// Simulates one replay group of a column — `variants`, a group from
/// [`replay_groups`] — the worker-thread body of every sweep (each
/// worker owns its simulators; only the scene and the frontend stream
/// are shared, read-only).
///
/// The variant-invariant frontend comes from the stream cache (built on
/// first use, replayed by every later group of the column); the group's
/// backend replays it once with `lanes` lanes (every design, A-TFIM
/// included), which is byte-identical to a direct `render_trace` of
/// each member at any lane count. Every member's [`WallSplit`] is the
/// group's: the members finish together.
fn simulate_group(
    scene: &Arc<SceneTrace>,
    variants: &[Variant],
    streams: &FragmentStreamCache,
    lanes: usize,
) -> Result<Vec<(RenderReport, WallSplit)>> {
    let configs = variants
        .iter()
        .map(|v| v.config())
        .collect::<Result<Vec<_>>>()?;
    let Some(lead) = configs.first() else {
        return Ok(Vec::new());
    };
    // The manifest records the lane count the replay actually runs with.
    let lanes_eff = lead.replay_lanes(lanes);
    // det:boundary — frontend wall-time for WallSplit reporting.
    let start = Instant::now();
    let stream = streams.get(scene)?;
    let frontend_ms = start.elapsed().as_secs_f64() * 1000.0;
    // det:boundary — backend wall-time for WallSplit reporting.
    let start = Instant::now();
    let reports = Simulator::render_replay_group(&configs, &stream, lanes_eff)?;
    let split = WallSplit {
        frontend_ms,
        backend_ms: start.elapsed().as_secs_f64() * 1000.0,
        replay_lanes: lanes_eff,
    };
    Ok(reports.into_iter().map(|r| (r, split)).collect())
}

/// Geometric mean of a slice (the paper's "average speedup" style).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    // float:reassoc-ok — slice-order reduction over ≤ tens of values;
    // consumed at 3-sig-fig display precision, far beyond any ULP drift.
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    // float:reassoc-ok — slice-order reduction over ≤ tens of values;
    // consumed at 3-sig-fig display precision, far beyond any ULP drift.
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_are_unique() {
        let labels = [
            Variant::Design(Design::Baseline).label(),
            Variant::Design(Design::ATfim).label(),
            Variant::AnisoOff.label(),
            Variant::AtfimThreshold(0.05).label(),
            Variant::AtfimNoRecalc.label(),
            Variant::AtfimNoConsolidation.label(),
            Variant::AtfimNoCompression.label(),
            Variant::Bc1(Design::Baseline).label(),
            Variant::Bc1(Design::ATfim).label(),
            Variant::StfimMtus(8).label(),
            Variant::StfimMtus(4).label(),
            Variant::AtfimCubes(2).label(),
            Variant::AtfimVaults(8).label(),
            Variant::AtfimVaults(64).label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn variant_configs_build() {
        for v in [
            Variant::Design(Design::STfim),
            Variant::AnisoOff,
            Variant::AtfimThreshold(0.005),
            Variant::AtfimNoRecalc,
            Variant::AtfimNoConsolidation,
            Variant::AtfimNoCompression,
            Variant::Bc1(Design::BPim),
            Variant::StfimMtus(2),
            Variant::AtfimCubes(4),
        ] {
            assert!(v.config().is_ok(), "{}", v.label());
        }
        for (vaults, _) in VAULT_SWEEP {
            let v = Variant::AtfimVaults(vaults);
            assert!(v.config().is_ok(), "{}", v.label());
        }
        // A vault count the sweep has no bandwidth for is an error.
        assert!(Variant::AtfimVaults(12).config().is_err());
    }

    #[test]
    fn replay_plan_scatters_in_cell_order_and_skips_whole_groups() {
        use pimgfx_workloads::SyntheticSpec;
        let spec = |seed| SyntheticSpec {
            seed,
            triangles: 200,
            textures: 2,
            texture_size: 32,
            kind_mask: 0x3,
            grazing_milli: 500,
            overdraw: 1,
            path_frames: 1,
        };
        let res = Resolution::R320x240;
        let (a, b) = (Workload::Synthetic(spec(1)), Workload::Synthetic(spec(2)));
        // Two columns interleaved; baseline and b-pim share a group.
        let cells: Vec<Cell> = vec![
            (a, res, Variant::Design(Design::Baseline)),
            (b, res, Variant::Design(Design::ATfim)),
            (a, res, Variant::Design(Design::BPim)),
            (a, res, Variant::Design(Design::STfim)),
            (b, res, Variant::Design(Design::Baseline)),
        ];
        let plan = ReplayPlan::new(&cells).expect("plan");
        assert_eq!(plan.groups().len(), 4);
        assert_eq!(plan.columns(), [(a, res), (b, res)]);
        let scenes = SceneCache::new(1);
        let columns = [scenes.get(a, res), scenes.get(b, res)];
        let streams = FragmentStreamCache::new(SimConfig::default().tile_px);
        // Skip column a's baseline group.
        let out = plan.run(
            |w, r| scenes.get(w, r),
            &streams,
            2,
            1,
            |group| !group.contains(&0),
        );
        assert_eq!(out.len(), cells.len());
        assert!(
            out[0].is_none() && out[2].is_none(),
            "a skipped group runs no cell"
        );
        for i in [1, 3, 4] {
            let (w, _, v) = cells[i];
            let scene = if w == a { &columns[0] } else { &columns[1] };
            let direct = Simulator::new(v.config().expect("valid variant"))
                .and_then(|mut sim| sim.render_trace(scene))
                .expect("direct render");
            let Some(Ok((report, _))) = &out[i] else {
                panic!("cell {i} did not run");
            };
            assert_eq!(
                manifest::CellSummary::from_report("c", "v", report),
                manifest::CellSummary::from_report("c", "v", &direct),
                "cell {i}"
            );
        }
    }

    #[test]
    fn aniso_off_uses_trilinear() {
        let c = Variant::AnisoOff.config().expect("valid");
        assert_eq!(c.sampler.max_aniso, 1);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn csv_sink_writes_and_noop() {
        // No-op sink does nothing.
        let sink = CsvSink::new(None).expect("no-op sink");
        sink.write_figure("nothing", &["a"], &[vec!["1".to_string()]])
            .expect("no-op write");

        // Real sink writes a parseable CSV.
        let dir = std::env::temp_dir().join("pimgfx_csv_test");
        let sink = CsvSink::new(Some(dir.clone())).expect("temp dir sink");
        sink.write_figure(
            "figx",
            &["benchmark", "value"],
            &[vec!["doom3".to_string(), "1.50".to_string()]],
        )
        .expect("csv written");
        let body = std::fs::read_to_string(dir.join("figx.csv")).expect("file written");
        assert_eq!(
            body,
            "benchmark,value
doom3,1.50
"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_columns_are_subset_of_full() {
        let full = Harness::columns(false);
        for c in Harness::columns(true) {
            assert!(full.contains(&c));
        }
        assert_eq!(full.len(), 10);
    }

    #[test]
    fn sweep_matrix_is_columns_major() {
        let columns = [
            (Game::Doom3, Resolution::R320x240),
            (Game::Wolfenstein, Resolution::R640x480),
        ];
        let variants = [
            Variant::Design(Design::Baseline),
            Variant::Design(Design::ATfim),
        ];
        let sweep = Sweep::matrix(&columns, &variants);
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep.cells()[0].0, Workload::Game(Game::Doom3));
        assert_eq!(
            sweep.cells()[1].0,
            Workload::Game(Game::Doom3),
            "variants adjacent"
        );
        assert_eq!(sweep.cells()[2].0, Workload::Game(Game::Wolfenstein));
    }

    #[test]
    fn synthetic_columns_share_the_harness_with_games() {
        use pimgfx_workloads::SyntheticSpec;
        let spec = SyntheticSpec {
            seed: 0xC0FFEE,
            triangles: 400,
            textures: 2,
            texture_size: 32,
            kind_mask: 0x3,
            grazing_milli: 500,
            overdraw: 1,
            path_frames: 4,
        };
        let label = Harness::column_label(spec, Resolution::R320x240);
        assert_eq!(label, format!("{spec}-320x240"));

        let mut h = Harness::new(1);
        let cycles = h
            .run(
                spec,
                Resolution::R320x240,
                Variant::Design(Design::Baseline),
            )
            .expect("synthetic cell simulates")
            .total_cycles;
        assert!(cycles > 0);
        // Memoized under the synthetic workload key, reported under its label.
        let cells = h.report_cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0, label);
    }

    #[test]
    fn sweep_builder_composes() {
        let mut a = Sweep::new().cell(
            Game::Doom3,
            Resolution::R320x240,
            Variant::Design(Design::Baseline),
        );
        assert!(!a.is_empty());
        let b = Sweep::new().cell(Game::Doom3, Resolution::R320x240, Variant::AnisoOff);
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert!(Sweep::new().is_empty());
    }

    #[test]
    fn sweep_stats_rate() {
        let s = SweepStats {
            cells_executed: 10,
            workers: 2,
            wall: std::time::Duration::from_secs(5),
        };
        assert!((s.cells_per_sec() - 2.0).abs() < 1e-12);
        let idle = SweepStats {
            cells_executed: 0,
            workers: 1,
            wall: std::time::Duration::ZERO,
        };
        assert_eq!(idle.cells_per_sec(), 0.0);
    }

    #[test]
    fn harness_exposes_frames_and_scene_cache() {
        let h = Harness::new(3);
        assert_eq!(h.frames(), 3);
        assert_eq!(h.scenes().frames(), 3);
        assert!(h.report_cells().is_empty());
    }

    /// The union of every section's variants, first occurrence first —
    /// the cells of one `repro` column.
    fn repro_variants() -> Vec<Variant> {
        let mut out: Vec<Variant> = Vec::new();
        for section in SECTIONS {
            for v in section_variants(section) {
                if !out.iter().any(|o| o.label() == v.label()) {
                    out.push(v);
                }
            }
        }
        out
    }

    #[test]
    fn replay_groups_of_a_repro_column() {
        let variants = repro_variants();
        let groups = replay_groups(&variants).expect("valid");
        let labels: Vec<Vec<String>> = groups
            .iter()
            .map(|g| g.iter().map(|&i| variants[i].label()).collect())
            .collect();
        let grouped: Vec<&Vec<String>> = labels.iter().filter(|g| g.len() > 1).collect();
        assert_eq!(
            grouped,
            [
                &vec!["baseline", "b-pim"],
                &vec!["a-tfim", "a-tfim@0.01pi", "a-tfim-noconsol"],
            ],
            "{labels:?}"
        );
        // S-TFIM's timing step is too dear to share a group; a third
        // A-TFIM configuration would slow the other two too much.
        assert!(labels.contains(&vec!["s-tfim".to_string()]));
        assert!(labels.contains(&vec!["a-tfim-nocompress".to_string()]));
        // Every cell lands in exactly one group.
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, (0..variants.len()).collect::<Vec<_>>());
        // No member's latency rises by more than 15% over its solo
        // replay.
        for g in &groups {
            let members: Vec<Variant> = g.iter().map(|&i| variants[i]).collect();
            let cost = group_cost(&members);
            for &m in &members {
                assert!(cost * 100 <= group_cost(&[m]) * 115, "{members:?}");
            }
        }
        assert!(replay_groups(&[]).expect("valid").is_empty());
    }

    #[test]
    fn section_variants_cover_every_section() {
        // Static sections expand to nothing; every figure section
        // includes the baseline (the normalization denominator).
        for s in SECTIONS {
            let vs = section_variants(s);
            match s {
                "table1" | "table2" | "overhead" => assert!(vs.is_empty(), "{s}"),
                _ => assert!(
                    vs.contains(&Variant::Design(Design::Baseline)),
                    "{s} must include the baseline"
                ),
            }
        }
        assert!(section_variants("not-a-section").is_empty());
        // fig14-16 sweep every threshold plus the no-recalc point.
        assert_eq!(
            section_variants("fig14").len(),
            1 + THRESHOLD_SWEEP.len() + 1
        );
    }
}
