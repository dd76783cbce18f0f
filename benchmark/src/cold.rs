//! `cold-cell`: single cold 1920×1080 cells, one after another.
//!
//! Each cell is a synthetic column no earlier cell of the run used, so
//! every cell builds its own `FragmentStream` and then replays it with
//! `Simulator::render_replay_lanes` at the full thread budget. The
//! designs rotate through [`ROTATION`]. This is the case cell-level
//! parallelism cannot help: the frontend is a third or more of each
//! cell and the replay lanes are the only parallelism.
//!
//! The columns come from a fixed pool of [`POOL`] specs, each bound to
//! one rotation slot, so `reference.txt` can hold a digest for every
//! cell any seed can pick. The seed chooses the order within each
//! slot's share of the pool and which slot starts the rotation.

use crate::host::{self, PROBES};
use crate::reference::Checker;
use crate::trace::Tracer;
use crate::{churn, stats, sweep, Outcome, Plan, Unit, DESIGNS};
use pimgfx::{Design, FragmentStream, RenderReport, SimConfig, Simulator};
use pimgfx_bench::{pool, Harness, Variant};
use pimgfx_types::TinyRng;
use pimgfx_workloads::{synthesize, Resolution, SceneTrace, SyntheticSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "cold-cell";

/// The design rotation. A-TFIM, the design replay lanes do not speed
/// up and the slowest cell, takes two of five slots. With four equal
/// shares the p75 tail would sit exactly on the boundary between two
/// designs' latency clusters, where one slow or fast cell moves it; with
/// these shares the slowest 40% of cells are A-TFIM and the tail falls
/// inside that cluster.
pub const ROTATION: [Design; 5] = [
    Design::Baseline,
    Design::BPim,
    Design::STfim,
    Design::ATfim,
    Design::ATfim,
];

/// Cells a run collects at least (eight rotations); with 40 samples the
/// tail is p75 with ten cells beyond it.
pub const MIN_CELLS: usize = 40;

/// Columns in the pool; column `k` always takes rotation slot `k % 5`.
pub const POOL: usize = 260;

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 15;

const RES: Resolution = Resolution::R1920x1080;
const FRAMES: usize = 1;

/// Pool column `k`: an all-grazing corridor (the anisotropy-heavy
/// content) with one layer and no randomly placed props, so every
/// column rasterizes to nearly the same fragment count and the seed
/// varies texture content only.
fn spec(k: usize) -> SyntheticSpec {
    SyntheticSpec {
        seed: 0xC01D_0000 + k as u64,
        triangles: 2000,
        textures: 6,
        texture_size: 64,
        kind_mask: 0xF,
        grazing_milli: 1000,
        overdraw: 1,
        path_frames: 8,
    }
}

fn design(k: usize) -> Design {
    ROTATION[k % ROTATION.len()]
}

/// The run's column order: slots rotate, and within each slot the seed
/// shuffles that slot's share of the pool.
fn sequence(seed: u64) -> Vec<usize> {
    let mut rng = TinyRng::seed_from_u64(seed);
    let n = ROTATION.len();
    let mut classes: Vec<Vec<usize>> = (0..n)
        .map(|c| (c..POOL).step_by(n).collect::<Vec<usize>>())
        .collect();
    for class in &mut classes {
        for i in (1..class.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            class.swap(i, j);
        }
    }
    let offset = (rng.next_u64() % n as u64) as usize;
    (0..POOL)
        .map(|i| classes[(i + offset) % n][i / n])
        .collect()
}

fn column_label(k: usize) -> String {
    Harness::column_label(spec(k), RES)
}

/// What one cold cell produced: its report and stream, its latency,
/// and (traced run only) the frontend and replay span durations.
struct Cell {
    report: RenderReport,
    stream: FragmentStream,
    ms: f64,
    build_ms: f64,
    replay_ms: f64,
}

/// One cold cell: frontend build, then replay on `lanes` lanes.
fn cell(
    scene: &Arc<SceneTrace>,
    k: usize,
    lanes: usize,
    tracer: &Tracer,
    group: u64,
) -> Result<Cell, String> {
    let root = tracer.open("cell", group, None);
    // det:boundary — cold-cell latency (cell_ms_p50).
    let t = Instant::now();
    let sp = tracer.open("stream.build", group, root.as_ref());
    let stream = FragmentStream::build(Arc::clone(scene), SimConfig::default().tile_px);
    let build_ms = tracer.close(sp);
    let stream = stream.map_err(|e| e.to_string())?;
    let sp = tracer.open("sim.replay", group, root.as_ref());
    let report = SimConfig::builder()
        .design(design(k))
        .build()
        .and_then(Simulator::new)
        .and_then(|mut sim| sim.render_replay_lanes(&stream, lanes));
    let replay_ms = tracer.close(sp);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close(root);
    Ok(Cell {
        report: report.map_err(|e| e.to_string())?,
        stream,
        ms,
        build_ms,
        replay_ms,
    })
}

/// Runs cold cells until the plan's time and cell minimums are met, in
/// whole rotations of [`ROTATION`].
pub fn run(plan: &Plan<'_>, check: &mut Checker) -> Outcome {
    let tracer = plan.tracer;
    let order = sequence(plan.seed);
    let lanes = match pool::configured_replay_lanes(1) {
        Ok(l) => l,
        Err(e) => {
            check.error(format!("{NAME}: thread budget: {e}"));
            return Outcome::default();
        }
    };
    let mut out = Outcome::default();
    let mut scenes: Vec<Arc<SceneTrace>> = Vec::new();
    for _ in 0..SETUP_REPS {
        // det:boundary — set-up wall time (setup_s).
        let t = Instant::now();
        scenes = order[..MIN_CELLS]
            .iter()
            .map(|&k| {
                let sp = tracer.open("workloads.scene", 0, None);
                let s = Arc::new(synthesize(&spec(k), RES, FRAMES));
                tracer.close(sp);
                s
            })
            .collect();
        out.setup_s.push(t.elapsed().as_secs_f64());
    }

    // Traced-run accumulators: frontend builds and fragments, replay
    // time and samples per design, lane gain per design.
    let mut builds: Vec<f64> = Vec::new();
    let mut frags = 0u64;
    let mut replay: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    let mut gain: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut serve_jobs = Vec::new();
    let n = ROTATION.len();
    // det:boundary — measured-phase clock for the run length.
    let phase = Instant::now();
    for (i, &k) in order.iter().enumerate() {
        if i % n == 0
            && phase.elapsed().as_secs_f64() >= plan.seconds
            && out.latencies_ms.len() >= plan.min_samples
        {
            break;
        }
        // Cells beyond the set-up's scenes synthesize theirs outside
        // the cell's timed span.
        if i >= scenes.len() {
            let sp = tracer.open("workloads.scene", 0, None);
            scenes.push(Arc::new(synthesize(&spec(k), RES, FRAMES)));
            tracer.close(sp);
        }
        if i % n == 0 {
            out.speed_ms
                .extend((0..PROBES).map(|_| host::speed_probe_ms()));
            out.units.push(Unit::default());
        }
        // det:boundary — cell wall time for cells_per_s.
        let t = Instant::now();
        let result = cell(&scenes[i], k, lanes, tracer, i as u64 + 1);
        let unit = out.units.last_mut().expect("a unit opens every rotation");
        unit.wall_s += t.elapsed().as_secs_f64();
        let label = design(k).label();
        let c = match result {
            Ok(c) => c,
            Err(e) => {
                check.error(format!("{NAME}: {}: {e}", column_label(k)));
                continue;
            }
        };
        out.latencies_ms.push(c.ms);
        out.strata.push(label.to_string());
        unit.cells += 1;
        unit.samples += c.report.texture.samples;
        let summary = check.cell(NAME, &column_label(k), label, &c.report);
        if tracer.is_on() {
            if serve_jobs.is_empty() {
                let v = Variant::Design(design(k));
                serve_jobs.push((
                    churn::job_spec(spec(k).into(), RES, v),
                    summary.to_json_object(),
                ));
            }
            builds.push(c.build_ms);
            frags += c.stream.fragment_count();
            let e = replay.entry(label).or_default();
            e.0.push(c.replay_ms);
            e.1 += c.report.texture.samples;
            // The first cell of each design replays once more on one
            // lane, outside the cell's latency.
            if !gain.contains_key(label) {
                let serial = SimConfig::builder()
                    .design(design(k))
                    .build()
                    .and_then(Simulator::new)
                    .and_then(|mut sim| {
                        // det:boundary — lane-gain probe (lanes = 1).
                        let t = Instant::now();
                        sim.render_replay_lanes(&c.stream, 1)?;
                        Ok(t.elapsed().as_secs_f64() * 1e3)
                    });
                if let Ok(serial_ms) = serial {
                    gain.insert(label, serial_ms / c.replay_ms);
                }
            }
        }
    }

    if tracer.is_on() {
        let build_total: f64 = builds.iter().sum();
        let l = &mut out.layers;
        l.insert("stream.build_ms".into(), stats::median(&builds));
        l.insert(
            "stream.ns_per_frag".into(),
            build_total * 1e6 / frags.max(1) as f64,
        );
        l.insert(
            "stream.share_pct".into(),
            build_total / out.latencies_ms.iter().sum::<f64>() * 100.0,
        );
        for d in DESIGNS {
            if let Some((v, samples)) = replay.get(d) {
                l.insert(format!("sim.replay_ms.{d}"), stats::median(v));
                l.insert(
                    format!("sim.ns_per_sample.{d}"),
                    v.iter().sum::<f64>() * 1e6 / (*samples).max(1) as f64,
                );
            }
            if let Some(g) = gain.get(d) {
                l.insert(format!("sim.lane_gain.{d}"), *g);
            }
        }
        l.insert("sim.lanes".into(), lanes as f64);
        out.probe_scenes = vec![Arc::clone(&scenes[0])];
        // The harness and serving layers this workload bypasses, on its
        // own first rotation of columns and its first cell.
        let cells: Vec<_> = order[..ROTATION.len()]
            .iter()
            .map(|&k| (spec(k).into(), RES, Variant::Design(design(k))))
            .collect();
        let psnr: Vec<_> = cells
            .iter()
            .copied()
            .filter(|&(_, _, v)| v == Variant::Design(Design::ATfim))
            .take(1)
            .collect();
        out.layers
            .extend(sweep::harness_probe(NAME, FRAMES, &cells, &psnr, check));
        out.layers
            .extend(churn::serve_probe(NAME, FRAMES, &serve_jobs, check));
    }
    out
}

/// Records the reference digest of every pool column.
pub fn record(rec: &mut Checker) {
    let lanes = pool::configured_replay_lanes(1).unwrap_or(1);
    let off = Tracer::new(false);
    for k in 0..POOL {
        let scene = Arc::new(synthesize(&spec(k), RES, FRAMES));
        match cell(&scene, k, lanes, &off, 0) {
            Ok(c) => {
                rec.cell(NAME, &column_label(k), design(k).label(), &c.report);
            }
            Err(e) => rec.error(format!("{NAME}: {}: {e}", column_label(k))),
        }
    }
}
