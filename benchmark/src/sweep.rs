//! `sweep-quick`: the `repro --quick` matrix through `Harness::precompute`.
//!
//! Doom 3 at 320×240 and Wolfenstein at 640×480 × the 12 variants the
//! repro sections need: 24 cells on `nproc` pool workers, then the
//! `RunManifest` serialization and the fig15 PSNRs. This is the product
//! path: pool scheduling and backend replay do nearly all the work, the
//! stream cache serves 12 variants per column (frontend under 5%), and
//! each cell replays on one lane. Every sweep starts from a fresh
//! `Harness`, so each one pays its two frontend builds again.

use crate::churn;
use crate::host::{self, PROBES};
use crate::reference::{psnr_value, Checker};
use crate::{span_ms, stats, Outcome, Plan, Unit, DESIGNS};
use pimgfx::Design;
use pimgfx_bench::manifest::{fnv1a_digest, CellSummary, FrontendCacheSummary, RunManifest};
use pimgfx_bench::{
    section_variants, Harness, Sweep, SweepStats, Variant, SECTIONS, THRESHOLD_SWEEP,
};
use pimgfx_serve::JobSpec;
use pimgfx_types::TinyRng;
use pimgfx_workloads::{Resolution, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "sweep-quick";

/// Cells a run collects at least: five sweeps, enough for p90 with ten
/// cells beyond it.
pub const MIN_CELLS: usize = 120;

/// Frames per column, as `repro` renders by default.
const FRAMES: usize = 2;

/// The union of every repro section's variants, first occurrence first.
fn variants() -> Vec<Variant> {
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

/// The fig15 variants whose PSNR against the baseline is computed.
fn fig15_variants() -> Vec<Variant> {
    let mut v: Vec<Variant> = THRESHOLD_SWEEP.map(Variant::AtfimThreshold).to_vec();
    v.push(Variant::AtfimNoRecalc);
    v
}

/// The sweep in a seed-chosen cell order. The order only changes which
/// of two equal-cost cells the pool starts first; the cells are the same
/// for every seed.
fn seeded_sweep(seed: u64) -> Sweep {
    let columns = Harness::columns(true);
    let mut cells: Vec<(Workload, Resolution, Variant)> = Vec::new();
    for &(w, r) in &columns {
        for v in variants() {
            cells.push((w, r, v));
        }
    }
    let mut rng = TinyRng::seed_from_u64(seed);
    for i in (1..cells.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
    cells
        .into_iter()
        .fold(Sweep::new(), |s, (w, r, v)| s.cell(w, r, v))
}

/// One timed sweep's layer data.
#[derive(Default)]
struct SweepLayers {
    stream_build_ms: Vec<f64>,
    stream_frags: u64,
    stream_hits: u64,
    stream_lookups: u64,
    sweep_ms: f64,
    pool_util: Vec<f64>,
    pool_max_ms: Vec<f64>,
    pool_idle_ms: Vec<f64>,
    manifest_bytes: usize,
    replay_ms: BTreeMap<&'static str, Vec<f64>>,
    replay_samples: BTreeMap<&'static str, (f64, u64)>,
    lanes: usize,
}

/// Runs sweeps until the plan's time and cell minimums are met.
pub fn run(plan: &Plan<'_>, check: &mut Checker) -> Outcome {
    let sweep = seeded_sweep(plan.seed);
    let columns = Harness::columns(true);
    let tracer = plan.tracer;
    let mut out = Outcome::default();
    let mut acc = SweepLayers::default();
    // det:boundary — measured-phase clock for the run length.
    let phase = Instant::now();
    let mut group = 0u64;
    let mut serve_jobs = Vec::new();
    while phase.elapsed().as_secs_f64() < plan.seconds || out.latencies_ms.len() < plan.min_samples
    {
        group += 1;
        // Set-up: a fresh harness and its two scenes.
        // det:boundary — set-up wall time (setup_s).
        let t = Instant::now();
        let mut h = Harness::new(FRAMES);
        for &(w, r) in &columns {
            let sp = tracer.open("workloads.scene", group, None);
            h.scenes().get(w, r);
            tracer.close(sp);
        }
        out.setup_s.push(t.elapsed().as_secs_f64());

        // The measured sweep: precompute, manifest, fig15 PSNRs.
        let root = tracer.open("sweep", group, None);
        // det:boundary — sweep wall time (cells_per_s).
        let t = Instant::now();
        let sp = tracer.open("pool.precompute", group, root.as_ref());
        let stats = h.precompute(&sweep);
        tracer.close(sp);
        let stats = match stats {
            Ok(s) => s,
            Err(e) => {
                tracer.close(root);
                for _ in 0..sweep.len() {
                    check.error(format!("{NAME}: precompute failed: {e}"));
                }
                break;
            }
        };
        let sp = tracer.open("manifest.json", group, root.as_ref());
        let json = manifest(&h, FRAMES, stats.workers, t.elapsed().as_secs_f64() * 1e3).to_json();
        tracer.close(sp);
        let sp = tracer.open("quality.psnr", group, root.as_ref());
        let mut psnrs: Vec<(String, String, Result<f64, String>)> = Vec::new();
        for &(w, r) in &columns {
            for v in fig15_variants() {
                let db = h.psnr_vs_baseline(w, r, v).map_err(|e| e.to_string());
                psnrs.push((Harness::column_label(w, r), v.label(), db));
            }
        }
        tracer.close(sp);
        let wall = t.elapsed().as_secs_f64();
        tracer.close(root);

        // Checks and accounting, outside the timed sweep.
        let mut unit = Unit {
            wall_s: wall,
            ..Unit::default()
        };
        for (column, variant, report) in h.report_cells() {
            check.cell(NAME, &column, &variant, report);
            unit.cells += 1;
            unit.samples += report.texture.samples;
            if let Some(ws) = h.wall_split(&column, &variant) {
                out.latencies_ms.push(ws.frontend_ms + ws.backend_ms);
                out.strata.push(format!("{column}/{variant}"));
                if let Some(&d) = DESIGNS.iter().find(|&&d| d == variant) {
                    acc.replay_ms.entry(d).or_default().push(ws.backend_ms);
                    let e = acc.replay_samples.entry(d).or_default();
                    e.0 += ws.backend_ms;
                    e.1 += report.texture.samples;
                }
                acc.lanes = acc.lanes.max(ws.replay_lanes);
            }
        }
        out.units.push(unit);
        out.speed_ms
            .extend((0..PROBES).map(|_| host::speed_probe_ms()));
        for (column, variant, db) in psnrs {
            match db {
                Ok(db) => {
                    check.value(NAME, &format!("psnr:{column}/{variant}"), &psnr_value(db));
                }
                Err(e) => check.error(format!("{NAME}: psnr {column}/{variant}: {e}")),
            }
        }
        if tracer.is_on() {
            let fc = h.frontend_cache_stats();
            acc.stream_hits += fc.hits;
            acc.stream_lookups += fc.hits + fc.misses;
            for &(w, r) in &columns {
                if let Ok(stream) = h.streams().get(&h.scenes().get(w, r)) {
                    acc.stream_build_ms
                        .push(stream.build_wall().as_secs_f64() * 1e3);
                    acc.stream_frags += stream.fragment_count();
                }
            }
            acc.sweep_ms += wall * 1e3;
            if let Some([util, max_ms, idle_ms]) = pool_figures(&h, &stats) {
                acc.pool_util.push(util);
                acc.pool_max_ms.push(max_ms);
                acc.pool_idle_ms.push(idle_ms);
            }
            acc.manifest_bytes = json.len();
            if out.probe_scenes.is_empty() {
                out.probe_scenes = columns.iter().map(|&(w, r)| h.scenes().get(w, r)).collect();
                serve_jobs = serve_probe_jobs(&h);
            }
        }
    }
    if tracer.is_on() {
        layers(&mut out, &acc, &tracer.spans());
        out.layers
            .extend(churn::serve_probe(NAME, FRAMES, &serve_jobs, check));
    }
    out
}

/// The serving probe's jobs: each column's baseline cell, with the cell
/// JSON the harness produced for it.
fn serve_probe_jobs(h: &Harness) -> Vec<(JobSpec, String)> {
    Harness::columns(true)
        .into_iter()
        .filter_map(|(w, r)| {
            let v = Variant::Design(Design::Baseline);
            let column = Harness::column_label(w, r);
            let (_, _, report) = h
                .report_cells()
                .into_iter()
                .find(|(c, l, _)| *c == column && *l == v.label())?;
            let cell = CellSummary::from_report(&column, &v.label(), report).to_json_object();
            Some((churn::job_spec(w, r, v), cell))
        })
        .collect()
}

fn layers(out: &mut Outcome, acc: &SweepLayers, spans: &[crate::trace::Span]) {
    let l = &mut out.layers;
    let build_total: f64 = acc.stream_build_ms.iter().sum();
    l.insert(
        "stream.build_ms".into(),
        stats::median(&acc.stream_build_ms),
    );
    l.insert(
        "stream.ns_per_frag".into(),
        build_total * 1e6 / acc.stream_frags.max(1) as f64,
    );
    l.insert(
        "stream.cache_hit_ratio".into(),
        acc.stream_hits as f64 / acc.stream_lookups.max(1) as f64,
    );
    l.insert(
        "stream.share_pct".into(),
        build_total / acc.sweep_ms * 100.0,
    );
    for d in DESIGNS {
        if let Some(v) = acc.replay_ms.get(d) {
            l.insert(format!("sim.replay_ms.{d}"), stats::median(v));
        }
        if let Some(&(ms, samples)) = acc.replay_samples.get(d) {
            l.insert(
                format!("sim.ns_per_sample.{d}"),
                ms * 1e6 / samples.max(1) as f64,
            );
        }
    }
    l.insert("sim.lanes".into(), acc.lanes as f64);
    l.insert("pool.utilization".into(), stats::median(&acc.pool_util));
    l.insert("pool.max_cell_ms".into(), stats::median(&acc.pool_max_ms));
    l.insert("pool.idle_ms".into(), stats::median(&acc.pool_idle_ms));
    l.insert(
        "manifest.json_ms".into(),
        stats::median(&span_ms(spans, "manifest.json")),
    );
    l.insert("manifest.bytes".into(), acc.manifest_bytes as f64);
    l.insert(
        "quality.psnr_ms".into(),
        stats::median(&span_ms(spans, "quality.psnr")),
    );
}

/// `pool.utilization`, `pool.max_cell_ms` and `pool.idle_ms` of the
/// harness's last `precompute` (idle: workers × fan-out wall − Σ cell ms).
fn pool_figures(h: &Harness, stats: &SweepStats) -> Option<[f64; 3]> {
    let lb = h.load_balance()?;
    let cells = h.report_cells().len() as f64;
    let capacity_ms = stats.workers as f64 * stats.wall.as_secs_f64() * 1e3;
    Some([
        lb.pool_utilization,
        lb.max_cell_ms,
        (capacity_ms - lb.mean_cell_ms * cells).max(0.0),
    ])
}

/// Probe of the harness layers for the workloads that do not sweep:
/// `cells` through `Harness::precompute` on a fresh harness (checked
/// against the reference as `workload`), its `RunManifest::to_json`,
/// and `Harness::psnr_vs_baseline` of `psnr`. Returns the `pool.*`,
/// `manifest.*` and `quality.psnr_ms` figures.
pub fn harness_probe(
    workload: &str,
    frames: usize,
    cells: &[(Workload, Resolution, Variant)],
    psnr: &[(Workload, Resolution, Variant)],
    check: &mut Checker,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut h = Harness::new(frames);
    let sweep = cells
        .iter()
        .fold(Sweep::new(), |s, &(w, r, v)| s.cell(w, r, v));
    // det:boundary — probe fan-out wall time (manifest total_wall_ms).
    let t = Instant::now();
    let stats = match h.precompute(&sweep) {
        Ok(s) => s,
        Err(e) => {
            check.error(format!("{workload}: harness probe: {e}"));
            return out;
        }
    };
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    for (column, variant, report) in h.report_cells() {
        check.cell(workload, &column, &variant, report);
    }
    if let Some([util, max_ms, idle_ms]) = pool_figures(&h, &stats) {
        out.insert("pool.utilization".into(), util);
        out.insert("pool.max_cell_ms".into(), max_ms);
        out.insert("pool.idle_ms".into(), idle_ms);
    }
    // det:boundary — probe timing of RunManifest::to_json.
    let t = Instant::now();
    let json = manifest(&h, frames, stats.workers, wall_ms).to_json();
    out.insert("manifest.json_ms".into(), t.elapsed().as_secs_f64() * 1e3);
    out.insert("manifest.bytes".into(), json.len() as f64);
    // det:boundary — probe timing of Harness::psnr_vs_baseline.
    let t = Instant::now();
    for &(w, r, v) in psnr {
        if let Err(e) = h.psnr_vs_baseline(w, r, v) {
            check.error(format!("{workload}: psnr probe {}: {e}", v.label()));
        }
    }
    out.insert("quality.psnr_ms".into(), t.elapsed().as_secs_f64() * 1e3);
    out
}

/// The run manifest `repro` would write for this harness.
fn manifest(h: &Harness, frames: usize, workers: usize, wall_ms: f64) -> RunManifest {
    let cell_reports: Vec<CellSummary> = h
        .report_cells()
        .into_iter()
        .map(|(column, variant, report)| {
            let mut cell = CellSummary::from_report(&column, &variant, report);
            if let Some(w) = h.wall_split(&column, &variant) {
                cell.frontend_wall_ms = Some(w.frontend_ms);
                cell.backend_wall_ms = Some(w.backend_ms);
                cell.replay_lanes = Some(w.replay_lanes as u32);
            }
            cell
        })
        .collect();
    let mut columns: Vec<&str> = cell_reports.iter().map(|c| c.column.as_str()).collect();
    columns.dedup();
    RunManifest {
        tool: "pimgfx-benchmark".to_string(),
        frames,
        quick: true,
        serial: false,
        workers,
        config_digest: fnv1a_digest(&format!(
            "frames={frames};quick=true;columns={}",
            columns.join("+")
        )),
        cells: cell_reports.len(),
        scene_evictions: h.scene_evictions(),
        frontend_cache: FrontendCacheSummary::from_stats(h.frontend_cache_stats()),
        load_balance: h.load_balance(),
        total_wall_ms: wall_ms,
        cells_per_sec: cell_reports.len() as f64 / (wall_ms / 1e3),
        figures: Vec::new(),
        cell_reports,
    }
}

/// Records the reference value of every cell and PSNR.
pub fn record(rec: &mut Checker) {
    let mut h = Harness::new(FRAMES);
    if let Err(e) = h.precompute(&seeded_sweep(0)) {
        rec.error(format!("{NAME}: precompute failed: {e}"));
        return;
    }
    for (column, variant, report) in h.report_cells() {
        rec.cell(NAME, &column, &variant, report);
    }
    for (w, r) in Harness::columns(true) {
        for v in fig15_variants() {
            let column = Harness::column_label(w, r);
            match h.psnr_vs_baseline(w, r, v) {
                Ok(db) => {
                    rec.value(
                        NAME,
                        &format!("psnr:{column}/{}", v.label()),
                        &psnr_value(db),
                    );
                }
                Err(e) => rec.error(format!("{NAME}: psnr {column}: {e}")),
            }
        }
    }
}
