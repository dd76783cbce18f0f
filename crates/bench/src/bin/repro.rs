//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--serial] [--trace] [--frames N] [--csv DIR]
//!       [--synthetic LABEL] [--synthetic-res WxH]
//!       [table1 table2 fig2 fig4 fig5 fig10 fig11 fig12 fig13 fig14
//!        fig15 fig16 overhead ablation all]
//! ```
//!
//! With no figure arguments, everything runs. `--quick` restricts the
//! benchmark columns to a small subset (useful for smoke runs); `--csv`
//! additionally drops each figure's data as `DIR/<figure>.csv`.
//! A cell that fails its cycle-conservation audit makes the run exit
//! nonzero; `--trace` also prints the per-cell audit table. The full
//! per-stage breakdown is in the manifest either way (schema v3, see
//! `docs/OBSERVABILITY.md`).
//! `--synthetic LABEL` appends one procedural column (a
//! `syn.<params>` label from `pimgfx-gen --print-label`, see
//! `docs/WORKLOADS.md`) to the benchmark matrix, at `--synthetic-res`
//! (default 320x240).
//!
//! By default the experiment matrix is precomputed in parallel across
//! `available_parallelism()` workers (override with `PIMGFX_THREADS`,
//! see `docs/PARALLELISM.md`); `--serial` forces the historical
//! one-cell-at-a-time path. Both modes produce byte-identical tables
//! and CSV files. Every run also writes a machine-readable
//! `BENCH_repro.json` manifest (per-figure wall-times, cells/sec,
//! worker count, per-cell report summaries) next to the CSV output —
//! or into the working directory without `--csv`.
//!
//! A figure that fails to compute no longer aborts the remaining
//! figures: the error is printed to stderr, recorded in the manifest,
//! and the process exits nonzero after everything else ran.

use pimgfx::{analyze_overhead, Design, SimConfig};
use pimgfx_bench::manifest::{CellSummary, FigureTiming, RunManifest};
use pimgfx_bench::{
    geomean, mean, section_sweep, CsvSink, Harness, HarnessResult, Sweep, Variant, BC1_DESIGNS,
    CUBE_SWEEP, MTU_SWEEP, SECTIONS, THRESHOLD_SWEEP, VAULT_SWEEP,
};
use pimgfx_mem::TrafficClass;
use pimgfx_types::ConfigError;
use pimgfx_workloads::{Game, Resolution, SyntheticSpec, Workload};
use std::collections::BTreeSet;
use std::time::Instant;

/// Runs one section's printer. The section list and per-section cells
/// live in `pimgfx_bench::{SECTIONS, section_sweep}`; the per-column
/// variant sets are shared with the `pimgfx-serve` daemon.
fn run_section(
    section: &str,
    h: &mut Harness,
    columns: &[(Workload, Resolution)],
    csv: &CsvSink,
) -> HarnessResult<()> {
    match section {
        "table1" => table1(),
        "table2" => table2(),
        "fig2" => fig2(h, columns, csv)?,
        "fig4" => fig4(h, columns, csv)?,
        "fig5" => fig5(h, columns, csv)?,
        "fig10" => fig10(h, columns, csv)?,
        "fig11" => fig11(h, columns, csv)?,
        "fig12" => fig12(h, columns, csv)?,
        "fig13" => fig13(h, columns, csv)?,
        "fig14" => fig14(h, columns, csv)?,
        "fig15" => fig15(h, columns, csv)?,
        "fig16" => fig16(h, columns, csv)?,
        "overhead" => overhead(),
        "ablation" => ablation(h, columns)?,
        other => {
            return Err(ConfigError::new("repro", format!("unknown figure `{other}`")).into());
        }
    }
    Ok(())
}

fn main() -> HarnessResult<()> {
    let run_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let serial = args.iter().any(|a| a == "--serial");
    let trace = args.iter().any(|a| a == "--trace");
    let frames = args
        .iter()
        .position(|a| a == "--frames")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let figs: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--") && !a.chars().all(|c| c.is_ascii_digit()))
        .collect();
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let csv = CsvSink::new(csv_dir.clone())?;
    let synthetic = args
        .iter()
        .position(|a| a == "--synthetic")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let synthetic_res = args
        .iter()
        .position(|a| a == "--synthetic-res")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // Value-taking flags consume their next argument; drop those
    // values from the figure list.
    let flag_values: Vec<&String> = ["--csv", "--synthetic", "--synthetic-res"]
        .iter()
        .filter_map(|flag| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
        })
        .collect();
    let figs: Vec<&str> = figs
        .into_iter()
        .filter(|f| !flag_values.iter().any(|v| v.as_str() == *f))
        .collect();
    let all = figs.is_empty() || figs.contains(&"all");
    // Unknown section names must fail loudly, not silently no-op.
    for f in &figs {
        if *f != "all" && !SECTIONS.contains(f) {
            return Err(ConfigError::new("repro", format!("unknown figure `{f}`")).into());
        }
    }
    let requested: Vec<&str> = SECTIONS
        .into_iter()
        .filter(|s| all || figs.contains(s))
        .collect();

    let mut h = Harness::new(frames);
    let mut columns = Harness::columns(quick);
    if let Some(label) = &synthetic {
        let spec = SyntheticSpec::from_label(label).ok_or_else(|| {
            ConfigError::new("repro", format!("invalid synthetic label `{label}`"))
        })?;
        spec.validate()?;
        let res = match &synthetic_res {
            Some(s) => Resolution::from_label(s)
                .ok_or_else(|| ConfigError::new("repro", format!("unknown resolution `{s}`")))?,
            None => Resolution::R320x240,
        };
        columns.push((Workload::Synthetic(spec), res));
    }

    // Fan the union of every requested section's cells out across the
    // worker pool up front; the serial printers below then run entirely
    // from the memoized cache, so their stdout/CSV bytes are identical
    // to a `--serial` run.
    let mut workers = 1;
    let mut precomputed: BTreeSet<(String, String)> = BTreeSet::new();
    if !serial {
        let mut sweep = Sweep::new();
        for section in &requested {
            sweep.extend(&section_sweep(section, &columns));
        }
        let stats = h.precompute(&sweep)?;
        workers = stats.workers;
        precomputed = h
            .report_cells()
            .into_iter()
            .map(|(column, variant, _)| (column, variant))
            .collect();
        eprintln!(
            "[repro] precomputed {} cells on {} workers in {:.1}s ({:.2} cells/s)",
            stats.cells_executed,
            stats.workers,
            stats.wall.as_secs_f64(),
            stats.cells_per_sec()
        );
    }

    let mut figures: Vec<FigureTiming> = Vec::with_capacity(requested.len());
    let mut failures: Vec<String> = Vec::new();
    for section in &requested {
        let t0 = Instant::now();
        let status = match run_section(section, &mut h, &columns, &csv) {
            Ok(()) => "ok".to_string(),
            Err(e) => {
                eprintln!("[repro] {section} FAILED: {e}");
                failures.push((*section).to_string());
                format!("error: {e}")
            }
        };
        figures.push(FigureTiming {
            figure: (*section).to_string(),
            wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
            status,
        });
    }

    // Machine-readable run manifest, next to the CSVs (or in the
    // working directory without --csv).
    let digest_input = format!(
        "frames={frames};quick={quick};columns={};sections={}",
        columns
            .iter()
            .map(|&(g, r)| Harness::column_label(g, r))
            .collect::<Vec<_>>()
            .join("+"),
        requested.join("+")
    );
    let cell_reports: Vec<CellSummary> = h
        .report_cells()
        .into_iter()
        .map(|(column, variant, report)| {
            let mut cell = CellSummary::from_report(&column, &variant, report);
            // Schema v3: attach the frontend/backend wall split the
            // harness recorded when it simulated the cell; schema v4
            // adds the replay lane count of the same pass.
            if let Some(w) = h.wall_split(&column, &variant) {
                cell.frontend_wall_ms = Some(w.frontend_ms);
                cell.backend_wall_ms = Some(w.backend_ms);
                cell.replay_lanes = Some(w.replay_lanes as u32);
            }
            cell
        })
        .collect();

    // The audit always runs (its verdict is in every manifest cell), and
    // a violation fails the run with or without `--trace`; the flag adds
    // the per-cell table.
    for c in cell_reports.iter().filter(|c| !c.audit_ok()) {
        eprintln!(
            "[repro] trace audit FAILED for {}/{}: {}",
            c.column, c.variant, c.trace_audit
        );
    }
    if trace {
        header("Trace audit — per-stage cycle conservation");
        println!(
            "{:<18} {:<22} {:>7} {:>8}",
            "benchmark", "variant", "stages", "audit"
        );
        for c in &cell_reports {
            println!(
                "{:<18} {:<22} {:>7} {:>8}",
                c.column,
                c.variant,
                c.stages.len(),
                if c.audit_ok() { "ok" } else { "FAIL" }
            );
        }
        println!(
            "({} cells audited; full per-stage breakdown in {})",
            cell_reports.len(),
            pimgfx_bench::manifest::FILE_NAME
        );
    }
    let bad = pimgfx_bench::manifest::failed_audits(&cell_reports);
    if bad > 0 {
        failures.push(format!("trace-audit({bad} cells)"));
    }
    // A printer that reads a cell its section's sweep did not list
    // simulates it serially, off the one cell path: in a parallel run
    // that is a drift between `section_sweep` and the printer.
    if !serial {
        let unswept: Vec<&CellSummary> = cell_reports
            .iter()
            .filter(|c| !precomputed.contains(&(c.column.clone(), c.variant.clone())))
            .collect();
        for c in &unswept {
            eprintln!(
                "[repro] {}/{} was read by a printer but not precomputed by its section's sweep",
                c.column, c.variant
            );
        }
        if !unswept.is_empty() {
            failures.push(format!("unswept-cells({} cells)", unswept.len()));
        }
    }

    let total_wall_ms = run_start.elapsed().as_secs_f64() * 1000.0;
    let manifest = RunManifest {
        tool: "repro".to_string(),
        frames,
        quick,
        serial,
        workers: if serial { 1 } else { workers },
        config_digest: pimgfx_bench::manifest::fnv1a_digest(&digest_input),
        cells: cell_reports.len(),
        scene_evictions: h.scene_evictions(),
        frontend_cache: pimgfx_bench::manifest::FrontendCacheSummary::from_stats(
            h.frontend_cache_stats(),
        ),
        // Schema v4: present only when a parallel fan-out ran (omitted
        // for --serial runs, matching the serve-manifest convention).
        load_balance: h.load_balance(),
        total_wall_ms,
        cells_per_sec: if total_wall_ms > 0.0 {
            cell_reports.len() as f64 / (total_wall_ms / 1000.0)
        } else {
            0.0
        },
        figures,
        cell_reports,
    };
    let manifest_path = csv_dir
        .unwrap_or_else(|| std::path::PathBuf::from("."))
        .join(pimgfx_bench::manifest::FILE_NAME);
    manifest.write(&manifest_path)?;
    eprintln!(
        "[repro] manifest: {} ({} cells, {} workers, {:.1}s total)",
        manifest_path.display(),
        manifest.cells,
        manifest.workers,
        total_wall_ms / 1000.0
    );

    if failures.is_empty() {
        Ok(())
    } else {
        // Nonzero exit: a failed figure must never look like a clean run.
        Err(ConfigError::new("repro", format!("figures failed: {}", failures.join(", "))).into())
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1() {
    header("Table I — simulator configuration");
    let c = SimConfig::default();
    println!("Host GPU");
    println!("  clusters                : {}", c.shader.clusters);
    println!(
        "  unified shaders/cluster : {}",
        c.shader.shaders_per_cluster
    );
    println!("  simd width              : {}", c.shader.simd_width);
    println!("  tile size               : {0}x{0}", c.tile_px);
    println!("  texture units           : {}", c.texture_units.units);
    println!(
        "  texture unit ALUs       : {} address / {} filtering",
        c.texture_units.addr_alus, c.texture_units.filter_alus
    );
    println!(
        "  L1 texture cache        : {} KB, {}-way",
        c.l1_cache.size_bytes / 1024,
        c.l1_cache.ways
    );
    println!(
        "  L2 texture cache        : {} KB, {}-way",
        c.l2_cache.size_bytes / 1024,
        c.l2_cache.ways
    );
    println!("Memory");
    println!(
        "  GDDR5 bandwidth         : {} GB/s",
        c.gddr5.bandwidth_gb_s
    );
    println!(
        "  HMC bandwidth           : {} GB/s external, {} GB/s internal",
        c.hmc.external_gb_s, c.hmc.internal_gb_s
    );
    println!(
        "  HMC structure           : {} vaults x {} banks, {}-cycle TSV",
        c.hmc.vaults, c.hmc.banks_per_vault, c.hmc.tsv_latency
    );
    println!("S-TFIM");
    println!("  MTUs                    : {} (one per cluster)", c.mtus);
    println!(
        "  MTU ALUs                : {} address / {} filtering",
        c.mtu.addr_alus, c.mtu.filter_alus
    );
    println!("A-TFIM");
    println!("  Texel Generator ALUs    : {}", c.atfim.generator_alus);
    println!("  Combination Unit ALUs   : {}", c.atfim.combine_alus);
    println!(
        "  Parent Texel Buffer     : {} entries",
        c.atfim.parent_buffer_entries
    );
    println!(
        "  angle threshold         : {:.3} rad ({:.1} deg)",
        c.angle_threshold.as_f32(),
        c.angle_threshold.to_degrees()
    );
}

fn table2() {
    header("Table II — gaming benchmarks");
    println!(
        "{:<10} {:<22} {:<8} {:<18}",
        "name", "resolutions", "library", "3D engine"
    );
    for g in Game::ALL {
        let p = g.profile();
        let res: Vec<String> = p.resolutions.iter().map(|r| r.to_string()).collect();
        println!(
            "{:<10} {:<22} {:<8} {:<18}",
            g.label(),
            res.join(", "),
            p.api.to_string(),
            p.engine
        );
    }
}

fn fig2(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 2 — memory bandwidth usage breakdown (baseline GPU)");
    println!(
        "{:<18} {:>9} {:>13} {:>10} {:>8} {:>13}",
        "benchmark", "texture", "frame-buffer", "geometry", "z-test", "color-buffer"
    );
    let mut tex_fracs = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &(g, r) in columns {
        let rep = h.baseline(g, r)?;
        let t = &rep.traffic;
        println!(
            "{:<18} {:>8.1}% {:>12.1}% {:>9.1}% {:>7.1}% {:>12.1}%",
            Harness::column_label(g, r),
            t.fraction(TrafficClass::TextureFetch) * 100.0,
            t.fraction(TrafficClass::FrameBuffer) * 100.0,
            t.fraction(TrafficClass::Geometry) * 100.0,
            t.fraction(TrafficClass::ZTest) * 100.0,
            t.fraction(TrafficClass::ColorBuffer) * 100.0,
        );
        tex_fracs.push(t.fraction(TrafficClass::TextureFetch));
        rows.push(vec![
            Harness::column_label(g, r),
            format!("{:.4}", t.fraction(TrafficClass::TextureFetch)),
            format!("{:.4}", t.fraction(TrafficClass::FrameBuffer)),
            format!("{:.4}", t.fraction(TrafficClass::Geometry)),
            format!("{:.4}", t.fraction(TrafficClass::ZTest)),
            format!("{:.4}", t.fraction(TrafficClass::ColorBuffer)),
        ]);
    }
    csv.write_figure(
        "fig02",
        &[
            "benchmark",
            "texture",
            "frame_buffer",
            "geometry",
            "z_test",
            "color_buffer",
        ],
        &rows,
    )?;
    println!(
        "average texture share: {:.1}%  (paper: ~60%)",
        mean(&tex_fracs) * 100.0
    );
    Ok(())
}

fn fig4(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 4 — texture filtering with anisotropic filtering disabled");
    println!(
        "{:<18} {:>18} {:>18}",
        "benchmark", "filtering speedup", "texture traffic"
    );
    let mut speedups = Vec::new();
    let mut traffics = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &(g, r) in columns {
        let base = h.baseline(g, r)?;
        let off = h.run(g, r, Variant::AnisoOff)?.clone();
        let s = off.texture_speedup_vs(&base);
        let t = off.traffic_normalized_to(&base);
        println!(
            "{:<18} {:>17.2}x {:>17.2}x",
            Harness::column_label(g, r),
            s,
            t
        );
        speedups.push(s);
        traffics.push(t);
        rows.push(vec![
            Harness::column_label(g, r),
            format!("{s:.4}"),
            format!("{t:.4}"),
        ]);
    }
    csv.write_figure(
        "fig04",
        &["benchmark", "filtering_speedup", "texture_traffic"],
        &rows,
    )?;
    println!(
        "average: {:.2}x speedup (paper: 1.1x avg, up to 4.2x), {:.2}x traffic (paper: 0.66x avg)",
        geomean(&speedups),
        mean(&traffics)
    );
    Ok(())
}

fn fig5(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 5 — B-PIM speedup over the baseline");
    println!(
        "{:<18} {:>16} {:>18}",
        "benchmark", "render speedup", "filtering speedup"
    );
    let mut rs = Vec::new();
    let mut ts = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &(g, r) in columns {
        let base = h.baseline(g, r)?;
        let bpim = h.run(g, r, Variant::Design(Design::BPim))?.clone();
        let render = bpim.render_speedup_vs(&base);
        let tex = bpim.texture_speedup_vs(&base);
        println!(
            "{:<18} {:>15.2}x {:>17.2}x",
            Harness::column_label(g, r),
            render,
            tex
        );
        rs.push(render);
        ts.push(tex);
        rows.push(vec![
            Harness::column_label(g, r),
            format!("{render:.4}"),
            format!("{tex:.4}"),
        ]);
    }
    csv.write_figure(
        "fig05",
        &["benchmark", "render_speedup", "filtering_speedup"],
        &rows,
    )?;
    println!(
        "average: {:.2}x render (paper: 1.27x), {:.2}x filtering (paper: 1.07x)",
        geomean(&rs),
        geomean(&ts)
    );
    Ok(())
}

fn design_rows(
    h: &mut Harness,
    columns: &[(Workload, Resolution)],
    metric: impl Fn(&pimgfx::RenderReport, &pimgfx::RenderReport) -> f64,
) -> HarnessResult<Vec<(String, [f64; 4])>> {
    let variants = [
        Variant::Design(Design::Baseline),
        Variant::Design(Design::BPim),
        Variant::Design(Design::STfim),
        Variant::Design(Design::ATfim),
    ];
    let mut rows = Vec::new();
    for &(g, r) in columns {
        let base = h.baseline(g, r)?;
        let mut row = [0.0f64; 4];
        for (i, v) in variants.into_iter().enumerate() {
            let rep = h.run(g, r, v)?.clone();
            row[i] = metric(&rep, &base);
        }
        rows.push((Harness::column_label(g, r), row));
    }
    Ok(rows)
}

fn write_design_csv(csv: &CsvSink, figure: &str, rows: &[(String, [f64; 4])]) -> HarnessResult<()> {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, row)| {
            let mut v = vec![label.clone()];
            v.extend(row.iter().map(|x| format!("{x:.4}")));
            v
        })
        .collect();
    csv.write_figure(
        figure,
        &["benchmark", "baseline", "b_pim", "s_tfim", "a_tfim"],
        &data,
    )
}

fn print_design_table(rows: &[(String, [f64; 4])], unit: &str) {
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "baseline", "b-pim", "s-tfim", "a-tfim"
    );
    let mut avgs = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for (label, row) in rows {
        println!(
            "{:<18} {:>9.2}{u} {:>9.2}{u} {:>9.2}{u} {:>9.2}{u}",
            label,
            row[0],
            row[1],
            row[2],
            row[3],
            u = unit
        );
        for i in 0..4 {
            avgs[i].push(row[i]);
        }
    }
    println!(
        "{:<18} {:>9.2}{u} {:>9.2}{u} {:>9.2}{u} {:>9.2}{u}",
        "average",
        geomean(&avgs[0]),
        geomean(&avgs[1]),
        geomean(&avgs[2]),
        geomean(&avgs[3]),
        u = unit
    );
}

fn fig10(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 10 — texture filtering speedup by design (A-TFIM @ 0.01pi)");
    let rows = design_rows(h, columns, |rep, base| rep.texture_speedup_vs(base))?;
    write_design_csv(csv, "fig10", &rows)?;
    print_design_table(&rows, "x");
    println!("paper: a-tfim 3.97x avg (up to 6.4x)");
    Ok(())
}

fn fig11(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 11 — overall 3D rendering speedup by design");
    let rows = design_rows(h, columns, |rep, base| rep.render_speedup_vs(base))?;
    write_design_csv(csv, "fig11", &rows)?;
    print_design_table(&rows, "x");
    println!("paper: b-pim 1.27x, a-tfim 1.43x (up to 1.65x) avg");
    Ok(())
}

fn fig12(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 12 — texture memory traffic normalized to baseline");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>13} {:>13}",
        "benchmark", "baseline", "b-pim", "s-tfim", "atfim@.01pi", "atfim@.05pi"
    );
    let mut avgs = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &(g, r) in columns {
        let base = h.baseline(g, r)?;
        let vals = [
            1.0,
            h.run(g, r, Variant::Design(Design::BPim))?
                .clone()
                .traffic_normalized_to(&base),
            h.run(g, r, Variant::Design(Design::STfim))?
                .clone()
                .traffic_normalized_to(&base),
            h.run(g, r, Variant::AtfimThreshold(0.01))?
                .clone()
                .traffic_normalized_to(&base),
            h.run(g, r, Variant::AtfimThreshold(0.05))?
                .clone()
                .traffic_normalized_to(&base),
        ];
        println!(
            "{:<18} {:>8.2}x {:>8.2}x {:>8.2}x {:>12.2}x {:>12.2}x",
            Harness::column_label(g, r),
            vals[0],
            vals[1],
            vals[2],
            vals[3],
            vals[4]
        );
        let mut row = vec![Harness::column_label(g, r)];
        row.extend(vals.iter().map(|v| format!("{v:.4}")));
        rows.push(row);
        for i in 0..5 {
            avgs[i].push(vals[i]);
        }
    }
    csv.write_figure(
        "fig12",
        &[
            "benchmark",
            "baseline",
            "b_pim",
            "s_tfim",
            "atfim_001pi",
            "atfim_005pi",
        ],
        &rows,
    )?;
    println!(
        "average: s-tfim {:.2}x (paper: 2.79x), atfim@.01pi {:.2}x (paper: ~1.1x), atfim@.05pi {:.2}x (paper: 0.72x)",
        mean(&avgs[2]),
        mean(&avgs[3]),
        mean(&avgs[4])
    );
    Ok(())
}

fn fig13(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 13 — energy normalized to baseline");
    let rows = design_rows(h, columns, |rep, base| rep.energy_normalized_to(base))?;
    write_design_csv(csv, "fig13", &rows)?;
    print_design_table(&rows, "x");
    println!("paper: a-tfim 0.78x avg (22% less than baseline), s-tfim above b-pim");
    Ok(())
}

fn fig14(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 14 — A-TFIM render speedup vs camera-angle threshold");
    let show = |s: f64| format!(" {s:>10.2}x");
    threshold_table(h, columns, csv, "fig14", 4, show, geomean, |h, g, r, v| {
        let base = h.baseline(g, r)?;
        Ok(h.run(g, r, v)?.render_speedup_vs(&base))
    })?;
    println!("paper: speedup grows monotonically with the threshold (1.33x..1.48x band)");
    Ok(())
}

fn fig15(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 15 — image quality (PSNR dB vs baseline) vs threshold");
    let show = |db: f64| format!(" {db:>11.1}");
    threshold_table(h, columns, csv, "fig15", 2, show, mean, |h, g, r, v| {
        h.psnr_vs_baseline(g, r, v)
    })?;
    println!("paper: PSNR decreases as the threshold loosens; >70 dB is visually lossless");
    Ok(())
}

/// The table of Figs. 14 and 15: per column, `metric` at every
/// [`THRESHOLD_SWEEP`] point and without recalculation, printed by
/// `show` and written to `figure`.csv at `digits` decimals, then the
/// `average` of each point over the columns.
#[allow(clippy::too_many_arguments)]
fn threshold_table(
    h: &mut Harness,
    columns: &[(Workload, Resolution)],
    csv: &CsvSink,
    figure: &str,
    digits: usize,
    show: impl Fn(f64) -> String,
    average: fn(&[f64]) -> f64,
    metric: impl Fn(&mut Harness, Workload, Resolution, Variant) -> HarnessResult<f64>,
) -> HarnessResult<()> {
    print!("{:<18}", "benchmark");
    for f in THRESHOLD_SWEEP {
        print!(" {:>11}", format!("@{f}pi"));
    }
    println!(" {:>11}", "no-recalc");
    let mut variants: Vec<Variant> = THRESHOLD_SWEEP.map(Variant::AtfimThreshold).to_vec();
    variants.push(Variant::AtfimNoRecalc);
    let mut avgs = vec![Vec::new(); variants.len()];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &(g, r) in columns {
        let mut row = vec![Harness::column_label(g, r)];
        print!("{:<18}", Harness::column_label(g, r));
        for (i, &v) in variants.iter().enumerate() {
            let x = metric(h, g, r, v)?;
            print!("{}", show(x));
            row.push(format!("{x:.digits$}"));
            avgs[i].push(x);
        }
        println!();
        rows.push(row);
    }
    let head = [
        "benchmark",
        "t0005pi",
        "t001pi",
        "t005pi",
        "t01pi",
        "no_recalc",
    ];
    csv.write_figure(figure, &head, &rows)?;
    print!("{:<18}", "average");
    for a in &avgs {
        print!("{}", show(average(a)));
    }
    println!();
    Ok(())
}

fn fig16(h: &mut Harness, columns: &[(Workload, Resolution)], csv: &CsvSink) -> HarnessResult<()> {
    header("Fig. 16 — performance-quality tradeoff (averaged over benchmarks)");
    println!(
        "{:<12} {:>16} {:>12}",
        "threshold", "render speedup", "PSNR (dB)"
    );
    let mut entries: Vec<(String, Variant)> = THRESHOLD_SWEEP
        .into_iter()
        .map(|f| (format!("{f}pi"), Variant::AtfimThreshold(f)))
        .collect();
    entries.push(("no-recalc".to_string(), Variant::AtfimNoRecalc));
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, v) in entries {
        let mut speedups = Vec::new();
        let mut psnrs = Vec::new();
        for &(g, r) in columns {
            let base = h.baseline(g, r)?;
            let s = h.run(g, r, v)?.clone().render_speedup_vs(&base);
            speedups.push(s);
            psnrs.push(h.psnr_vs_baseline(g, r, v)?);
        }
        println!(
            "{:<12} {:>15.2}x {:>12.1}",
            label,
            geomean(&speedups),
            mean(&psnrs)
        );
        rows.push(vec![
            label,
            format!("{:.4}", geomean(&speedups)),
            format!("{:.2}", mean(&psnrs)),
        ]);
    }
    csv.write_figure("fig16", &["threshold", "render_speedup", "psnr_db"], &rows)?;
    println!("paper: speedup rises and PSNR falls as the threshold loosens; 0.01pi is the knee");
    Ok(())
}

fn overhead() {
    header("Design overhead analysis (paper SS VII-E)");
    let r = analyze_overhead(&SimConfig::default());
    println!("HMC logic layer");
    println!("  parent texel buffer : {} B", r.parent_buffer_bytes);
    println!("  consolidation buffer: {} B", r.consolidation_bytes);
    println!("  compute area        : {:.2} mm^2", r.hmc_logic_mm2);
    println!("  storage area        : {:.2} mm^2", r.hmc_storage_mm2);
    println!(
        "  total               : {:.2}% of an 8Gb DRAM die (paper: 3.18%)",
        r.hmc_area_fraction * 100.0
    );
    println!("Host GPU");
    println!("  camera-angle bits   : {} B", r.gpu_angle_bytes);
    println!(
        "  area                : {:.2} mm^2 = {:.2}% of the GPU (paper: 0.31 mm^2 / 0.23%)",
        r.gpu_area_mm2,
        r.gpu_area_fraction * 100.0
    );
}

fn ablation(h: &mut Harness, columns: &[(Workload, Resolution)]) -> HarnessResult<()> {
    header("Ablations — A-TFIM design choices");
    println!(
        "{:<18} {:>12} {:>14} {:>14}",
        "benchmark", "a-tfim", "no-consolidate", "no-compress"
    );
    for &(g, r) in columns {
        let base = h.baseline(g, r)?;
        let full = h.run(g, r, Variant::Design(Design::ATfim))?.clone();
        let nc = h.run(g, r, Variant::AtfimNoConsolidation)?.clone();
        let np = h.run(g, r, Variant::AtfimNoCompression)?.clone();
        println!(
            "{:<18} {:>11.2}x {:>13.2}x {:>13.2}x",
            Harness::column_label(g, r),
            full.render_speedup_vs(&base),
            nc.render_speedup_vs(&base),
            np.render_speedup_vs(&base),
        );
    }
    println!("(render speedup over baseline; disabling either A-TFIM helper should not help)");

    // The structural ablations run on the first column only; their
    // cells come from the matrix like every other section's (see
    // `pimgfx_bench::section_sweep`).
    let (g, r) = columns[0];
    let base = h.baseline(g, r)?;

    header(&format!(
        "Ablation: block texture compression on {g}-{r} (orthogonal, SS VIII)"
    ));
    println!(
        "{:<26} {:>10} {:>14} {:>12}",
        "configuration", "cycles", "tex traffic", "energy"
    );
    for d in BC1_DESIGNS {
        for (label, v) in [
            (d.label().to_string(), Variant::Design(d)),
            (format!("{} + BC1", d.label()), Variant::Bc1(d)),
        ] {
            let rep = h.run(g, r, v)?;
            println!(
                "{:<26} {:>10} {:>14} {:>11.2}x",
                label,
                rep.total_cycles,
                rep.texture_traffic().to_string(),
                rep.energy_normalized_to(&base),
            );
        }
    }
    println!("(compression composes with the PIM designs: both cut texture bytes)");

    header(&format!("Ablation: shared S-TFIM MTUs on {g}-{r} (SS IV)"));
    println!("{:<10} {:>10} {:>16}", "MTUs", "cycles", "vs 16 MTUs");
    let full_mtus = h.run(g, r, Variant::Design(Design::STfim))?.total_cycles;
    for mtus in MTU_SWEEP {
        let rep = h.run(g, r, Variant::StfimMtus(mtus).canonical())?;
        println!(
            "{:<10} {:>10} {:>15.2}x",
            mtus,
            rep.total_cycles,
            full_mtus as f64 / rep.total_cycles.max(1) as f64,
        );
    }
    println!("(fewer MTUs save logic-layer area but contend, as the paper warns)");

    header(&format!("Ablation: HMC cubes on {g}-{r} (SS V-E)"));
    println!("{:<10} {:>10} {:>16}", "cubes", "cycles", "render speedup");
    for cubes in CUBE_SWEEP {
        let rep = h.run(g, r, Variant::AtfimCubes(cubes).canonical())?;
        println!(
            "{:<10} {:>10} {:>15.2}x",
            cubes,
            rep.total_cycles,
            rep.render_speedup_vs(&base),
        );
    }
    println!(
        "(textures partition whole-pyramid per cube; one cube already suffices at this scale,
 matching the paper's single-cube evaluation)"
    );

    header(&format!(
        "Ablation: HMC internal bandwidth on {g}-{r} (vault sweep)"
    ));
    println!(
        "{:<18} {:>10} {:>16}",
        "vaults (GB/s int)", "cycles", "render speedup"
    );
    for (vaults, internal) in VAULT_SWEEP {
        let rep = h.run(g, r, Variant::AtfimVaults(vaults).canonical())?;
        println!(
            "{:<18} {:>10} {:>15.2}x",
            format!("{vaults} ({internal:.0})"),
            rep.total_cycles,
            rep.render_speedup_vs(&base),
        );
    }
    println!("(A-TFIM's child reads ride the internal bandwidth the sweep varies)");
    Ok(())
}
