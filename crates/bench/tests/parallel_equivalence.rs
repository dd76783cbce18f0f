//! Serial-vs-parallel equivalence: the determinism guarantee of
//! `docs/PARALLELISM.md`, enforced.
//!
//! A parallel sweep must be an *optimization only*: every report, CSV
//! byte, and manifest summary must be identical to what a serial run
//! produces. These tests run the same small sweep (a) cell-by-cell
//! through the lazy serial path (`Harness::run`), (b) through the
//! parallel fan-out (`Harness::precompute`), and (c) through a
//! degenerate one-worker pool, and require byte-identical CSV output
//! and field-identical report summaries from all three.

use pimgfx::{Design, SimConfig, Simulator};
use pimgfx_bench::manifest::CellSummary;
use pimgfx_bench::{
    bench_scene, pool, replay_groups, run_variant, run_variants_parallel, section_sweep,
    section_variants, CsvSink, Harness, Sweep, Variant,
};
use pimgfx_mem::HmcConfig;
use pimgfx_workloads::{synthesize, trace_io, Game, Resolution, SyntheticSpec, Workload};
use std::sync::Arc;

/// The sweep under test: one small column, three designs. Small enough
/// for a debug-profile CI run, wide enough that scene sharing and the
/// deterministic merge both matter.
fn test_sweep() -> Sweep {
    Sweep::matrix(
        &[(Game::Doom3, Resolution::R320x240)],
        &[
            Variant::Design(Design::Baseline),
            Variant::Design(Design::BPim),
            Variant::Design(Design::ATfim),
        ],
    )
}

/// Collapses a harness's memoized reports into comparable summaries,
/// in the deterministic `report_cells` order.
fn summaries(h: &Harness) -> Vec<CellSummary> {
    h.report_cells()
        .into_iter()
        .map(|(column, variant, report)| CellSummary::from_report(&column, &variant, report))
        .collect()
}

/// Writes every memoized cell as one CSV file and returns its bytes.
fn csv_bytes(h: &Harness, dir: &std::path::Path) -> Vec<u8> {
    let sink = CsvSink::new(Some(dir.to_path_buf())).expect("create csv dir");
    let rows: Vec<Vec<String>> = h
        .report_cells()
        .into_iter()
        .map(|(column, variant, r)| {
            vec![
                column,
                variant,
                r.total_cycles.to_string(),
                r.texture.samples.to_string(),
                r.energy.total_nj().to_string(),
            ]
        })
        .collect();
    sink.write_figure(
        "equivalence",
        &["column", "variant", "cycles", "samples", "energy_nj"],
        &rows,
    )
    .expect("write csv");
    std::fs::read(dir.join("equivalence.csv")).expect("read csv back")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pimgfx-equiv-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn parallel_precompute_matches_serial_run_byte_for_byte() {
    let sweep = test_sweep();

    // Serial: the lazy memoizing path, one cell at a time, in order.
    let mut serial = Harness::new(1);
    for &(g, r, v) in sweep.cells() {
        serial.run(g, r, v).expect("serial cell");
    }

    // Parallel: fan the same sweep out across the worker pool.
    let mut parallel = Harness::new(1);
    let stats = parallel.precompute(&sweep).expect("parallel sweep");
    assert_eq!(stats.cells_executed, sweep.len());

    assert_eq!(summaries(&serial), summaries(&parallel));

    let serial_dir = temp_dir("serial");
    let parallel_dir = temp_dir("parallel");
    let serial_csv = csv_bytes(&serial, &serial_dir);
    let parallel_csv = csv_bytes(&parallel, &parallel_dir);
    std::fs::remove_dir_all(&serial_dir).ok();
    std::fs::remove_dir_all(&parallel_dir).ok();

    assert!(!serial_csv.is_empty());
    assert_eq!(
        serial_csv, parallel_csv,
        "parallel sweep must produce byte-identical CSV output"
    );
}

/// Replay groups are an optimization only: a sweep whose cells replay
/// in groups — the conventional designs together, the A-TFIM default
/// with its 0.01π twin and an ablation — must produce the manifest cells
/// and CSV bytes of cells replayed one by one.
#[test]
fn grouped_precompute_matches_solo_cells_byte_for_byte() {
    let column = Workload::Synthetic(SyntheticSpec {
        seed: 0xC0FFEE,
        triangles: 400,
        textures: 2,
        texture_size: 32,
        kind_mask: 0x3,
        grazing_milli: 500,
        overdraw: 1,
        path_frames: 2,
    });
    let variants = [
        Variant::Design(Design::Baseline),
        Variant::Design(Design::BPim),
        Variant::Design(Design::STfim),
        Variant::Design(Design::ATfim),
        Variant::AtfimThreshold(0.01),
        Variant::AtfimNoConsolidation,
        Variant::AtfimNoCompression,
        Variant::AtfimThreshold(0.05),
    ];
    let groups = replay_groups(&variants).expect("groups");
    assert!(groups.len() < variants.len(), "{groups:?}");
    let sweep = Sweep::matrix(&[(column, Resolution::R320x240)], &variants);

    let mut solo = Harness::new(1);
    for &(w, r, v) in sweep.cells() {
        solo.run(w, r, v).expect("solo cell");
    }
    let mut grouped = Harness::new(1);
    for lanes in [1, 2] {
        grouped.set_replay_lanes(Some(lanes));
        let mut fresh = Harness::new(1);
        fresh.set_replay_lanes(Some(lanes));
        fresh.precompute(&sweep).expect("grouped sweep");
        assert_eq!(summaries(&solo), summaries(&fresh), "lanes={lanes}");
        grouped = fresh;
    }

    let solo_dir = temp_dir("solo");
    let grouped_dir = temp_dir("grouped");
    let solo_csv = csv_bytes(&solo, &solo_dir);
    let grouped_csv = csv_bytes(&grouped, &grouped_dir);
    std::fs::remove_dir_all(&solo_dir).ok();
    std::fs::remove_dir_all(&grouped_dir).ok();
    assert_eq!(solo_csv, grouped_csv, "grouped replay changed CSV bytes");

    // `run_variants_parallel` groups the same way.
    let scene = Arc::new(synthesize(
        &match column {
            Workload::Synthetic(spec) => spec,
            Workload::Game(_) => unreachable!("synthetic column"),
        },
        Resolution::R320x240,
        1,
    ));
    let direct: Vec<CellSummary> = variants
        .iter()
        .map(|&v| CellSummary::from_report("syn", "v", &run_variant(&scene, v).expect("cell")))
        .collect();
    let parallel: Vec<CellSummary> = run_variants_parallel(&scene, &variants)
        .expect("grouped variants")
        .iter()
        .map(|r| CellSummary::from_report("syn", "v", r))
        .collect();
    assert_eq!(direct, parallel);
}

/// The structural ablations are matrix cells: each variant builds the
/// configuration the ablation section used to build by hand, a knob at
/// its design's default reads that design's cell, and a precomputed
/// structural cell equals a direct render of its configuration.
#[test]
fn structural_ablations_are_matrix_cells() {
    let build = |b: pimgfx::SimConfigBuilder| b.build().expect("valid");
    let on = |d: Design| SimConfig::builder().design(d);
    let hmc = |vaults, internal_gb_s| HmcConfig {
        vaults,
        internal_gb_s,
        ..HmcConfig::default()
    };
    let structural = [
        (
            Variant::Bc1(Design::Baseline),
            build(on(Design::Baseline).compressed_textures(true)),
        ),
        (
            Variant::Bc1(Design::ATfim),
            build(on(Design::ATfim).compressed_textures(true)),
        ),
        (Variant::StfimMtus(8), build(on(Design::STfim).mtus(8))),
        (Variant::StfimMtus(4), build(on(Design::STfim).mtus(4))),
        (Variant::StfimMtus(2), build(on(Design::STfim).mtus(2))),
        (
            Variant::AtfimCubes(2),
            build(on(Design::ATfim).hmc_cubes(2)),
        ),
        (
            Variant::AtfimCubes(4),
            build(on(Design::ATfim).hmc_cubes(4)),
        ),
        (
            Variant::AtfimVaults(8),
            build(on(Design::ATfim).hmc(hmc(8, 320.0))),
        ),
        (
            Variant::AtfimVaults(16),
            build(on(Design::ATfim).hmc(hmc(16, 384.0))),
        ),
        (
            Variant::AtfimVaults(64),
            build(on(Design::ATfim).hmc(hmc(64, 768.0))),
        ),
    ];
    for (v, config) in &structural {
        assert_eq!(v.config().as_ref(), Ok(config), "{}", v.label());
        assert_eq!(v.canonical(), *v, "{} is no twin", v.label());
    }
    // The twins: the knob at its default is the plain design.
    for (twin, plain, config) in [
        (
            Variant::StfimMtus(16),
            Design::STfim,
            build(on(Design::STfim).mtus(16)),
        ),
        (
            Variant::AtfimCubes(1),
            Design::ATfim,
            build(on(Design::ATfim).hmc_cubes(1)),
        ),
        (
            Variant::AtfimVaults(32),
            Design::ATfim,
            build(on(Design::ATfim).hmc(hmc(32, 512.0))),
        ),
    ] {
        assert_eq!(twin.canonical(), Variant::Design(plain), "{}", twin.label());
        assert_eq!(Variant::Design(plain).config(), Ok(config));
    }

    // The section adds exactly these cells, plus the plain S-TFIM cell
    // its MTU table reads, on the first column only.
    let column = Workload::Synthetic(SyntheticSpec {
        seed: 0xC0FFEE,
        triangles: 400,
        textures: 2,
        texture_size: 32,
        kind_mask: 0x3,
        grazing_milli: 500,
        overdraw: 1,
        path_frames: 1,
    });
    let res = Resolution::R320x240;
    let other = (Workload::Game(Game::Doom3), res);
    let sweep = section_sweep("ablation", &[(column, res), other]);
    let labels = |w: Workload| -> Vec<String> {
        let mut v: Vec<String> = sweep
            .cells()
            .iter()
            .filter(|c| c.0 == w)
            .map(|c| c.2.label())
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let mut per_column: Vec<String> = section_variants("ablation")
        .iter()
        .map(|v| v.label())
        .collect();
    per_column.sort();
    assert_eq!(labels(other.0), per_column);
    let mut first = per_column.clone();
    first.extend(structural.iter().map(|(v, _)| v.label()));
    first.push(Variant::Design(Design::STfim).label());
    first.sort();
    assert_eq!(labels(column), first);

    let mut h = Harness::new(1);
    h.precompute(&section_sweep("ablation", &[(column, res)]))
        .expect("ablation sweep");
    let scene = h.scenes().get(column, res);
    for (v, config) in structural {
        let direct = Simulator::new(config)
            .and_then(|mut sim| sim.render_trace(&scene))
            .expect("direct render");
        let cell = h.run(column, res, v).expect("memoized cell");
        assert_eq!(
            CellSummary::from_report("c", &v.label(), cell),
            CellSummary::from_report("c", &v.label(), &direct),
            "{}",
            v.label()
        );
    }
}

#[test]
fn one_worker_pool_is_equivalent_to_wide_pool() {
    // The degenerate pool: same sweep forced through a single worker
    // (`PIMGFX_THREADS=1` is the user-facing spelling of the same thing;
    // here the width is pinned directly so the test cannot race other
    // tests over the environment).
    let scene = Arc::new(bench_scene());
    let variants = [
        Variant::Design(Design::Baseline),
        Variant::Design(Design::STfim),
        Variant::Design(Design::ATfim),
    ];

    let narrow: Vec<CellSummary> = pool::run_ordered(&variants, 1, |&v| {
        run_variant(&scene, v).expect("narrow cell")
    })
    .iter()
    .map(|r| CellSummary::from_report("bench", "v", r))
    .collect();

    let wide: Vec<CellSummary> = run_variants_parallel(&scene, &variants)
        .expect("wide sweep")
        .iter()
        .map(|r| CellSummary::from_report("bench", "v", r))
        .collect();

    assert_eq!(narrow.len(), variants.len());
    assert_eq!(narrow, wide);
}

#[test]
fn synthetic_same_seed_is_identical_across_pool_widths() {
    // The workload-generation half of the determinism contract in
    // docs/WORKLOADS.md: same spec, same resolution, same frame count
    // ⇒ byte-identical PGTR bytes — and the rendered reports must not
    // depend on the worker-pool width (1/2/4 here are the pinned
    // spellings of PIMGFX_THREADS=1,2,4; pinning avoids racing other
    // tests over the environment).
    let spec = SyntheticSpec {
        seed: 0xC0FFEE,
        triangles: 400,
        textures: 2,
        texture_size: 32,
        kind_mask: 0x3,
        grazing_milli: 500,
        overdraw: 1,
        path_frames: 2,
    };
    let scene = synthesize(&spec, Resolution::R320x240, 2);
    let again = synthesize(&spec, Resolution::R320x240, 2);
    let mut first = Vec::new();
    let mut second = Vec::new();
    trace_io::save_trace(&scene, &mut first).expect("serialize first");
    trace_io::save_trace(&again, &mut second).expect("serialize second");
    assert_eq!(first, second, "same-seed synthesis must be byte-identical");

    let variants = [
        Variant::Design(Design::Baseline),
        Variant::Design(Design::BPim),
        Variant::Design(Design::ATfim),
    ];
    let runs: Vec<Vec<CellSummary>> = [1usize, 2, 4]
        .into_iter()
        .map(|width| {
            pool::run_ordered(&variants, width, |&v| {
                run_variant(&scene, v).expect("synthetic cell")
            })
            .iter()
            .map(|r| CellSummary::from_report("syn", "v", r))
            .collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "width 2 diverged from width 1");
    assert_eq!(runs[1], runs[2], "width 4 diverged from width 2");
}

#[test]
fn replay_lanes_produce_byte_identical_manifest_cells() {
    // The lane axis (intra-cell cluster-parallel replay) must be an
    // optimization only, like the pool: every report summary, manifest
    // cell object, and CSV byte must match the fully serial replay at
    // any lane count. Lane counts are pinned directly on the harness
    // (the `PIMGFX_REPLAY_LANES` spelling of the same thing would race
    // other tests over the environment).
    let sweep = test_sweep();

    let mut serial = Harness::new(1);
    serial.set_replay_lanes(Some(1));
    serial.precompute(&sweep).expect("serial-lane sweep");
    let serial_cells = summaries(&serial);
    let serial_json: Vec<String> = serial_cells.iter().map(|c| c.to_json_object()).collect();
    let serial_dir = temp_dir("lanes-serial");
    let serial_csv = csv_bytes(&serial, &serial_dir);
    std::fs::remove_dir_all(&serial_dir).ok();

    for lanes in [2usize, 4] {
        let mut laned = Harness::new(1);
        laned.set_replay_lanes(Some(lanes));
        laned.precompute(&sweep).expect("laned sweep");
        assert_eq!(serial_cells, summaries(&laned), "lanes={lanes}");
        let laned_json: Vec<String> = summaries(&laned)
            .iter()
            .map(|c| c.to_json_object())
            .collect();
        assert_eq!(
            serial_json, laned_json,
            "manifest cell objects must be byte-identical at lanes={lanes}"
        );
        let dir = temp_dir(&format!("lanes-{lanes}"));
        let csv = csv_bytes(&laned, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(serial_csv, csv, "CSV bytes diverged at lanes={lanes}");
        // The recorded lane count is the one the replay ran with: the
        // pin, modulo the simulator's cluster clamp (16 clusters by
        // default, so 2 and 4 pass through), for every design.
        for (column, variant, _) in laned.report_cells() {
            let w = laned.wall_split(&column, &variant).expect("wall recorded");
            assert_eq!(w.replay_lanes, lanes, "{column}/{variant}");
        }
    }
}

#[test]
fn lane_pin_of_one_forces_fully_serial_replay() {
    // The N=1 regression of the shared-budget contract: a budget of one
    // thread must leave zero lane parallelism, and the manifest must
    // record it.
    let mut h = Harness::new(1);
    h.set_replay_lanes(Some(1));
    h.run(
        Game::Doom3,
        Resolution::R320x240,
        Variant::Design(Design::ATfim),
    )
    .expect("cell");
    let w = h
        .wall_split("doom3-320x240", "a-tfim")
        .expect("wall recorded");
    assert_eq!(w.replay_lanes, 1, "lanes pin of 1 must mean serial replay");
    // And the budget-split arithmetic behind PIMGFX_THREADS=1: no
    // cell-pool width can conjure lanes out of a one-thread budget.
    for workers in [1usize, 2, 8, 64] {
        assert_eq!(pool::replay_lanes_split(1, workers), 1);
    }
}

#[test]
fn load_balance_accounting_tracks_fanouts() {
    let mut h = Harness::new(1);
    assert!(
        h.load_balance().is_none(),
        "no fan-out yet: the manifest block must be omitted"
    );
    h.precompute(&test_sweep()).expect("sweep");
    let lb = h.load_balance().expect("recorded after precompute");
    assert!(lb.max_cell_ms > 0.0);
    assert!(lb.mean_cell_ms > 0.0);
    assert!(lb.max_cell_ms >= lb.mean_cell_ms);
    assert!(lb.pool_utilization > 0.0 && lb.pool_utilization <= 1.0);
}

#[test]
fn threads_env_override_is_honored() {
    // `configured_workers` reads the environment on every call, so this
    // is safe to assert directly; restore afterwards to stay polite to
    // tests running later in the same process.
    let saved = std::env::var(pool::THREADS_ENV).ok();
    std::env::set_var(pool::THREADS_ENV, "3");
    assert_eq!(pool::configured_workers().expect("valid override"), 3);
    assert_eq!(
        pool::worker_count(2).expect("valid override"),
        2,
        "still clamped to the job count"
    );
    std::env::set_var(pool::THREADS_ENV, "abc");
    assert!(
        pool::configured_workers().is_err(),
        "a typo'd override must be a hard error, not a silent fallback"
    );
    match saved {
        Some(v) => std::env::set_var(pool::THREADS_ENV, v),
        None => std::env::remove_var(pool::THREADS_ENV),
    }
}
