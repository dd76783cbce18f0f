//! Property tests for the shader-cluster timing model.
//!
//! Each property draws its inputs from a fixed-seed [`TinyRng`], so
//! every run checks the same cases; a failing case prints its inputs.

use pimgfx_engine::Cycle;
use pimgfx_shader::{ShaderConfig, ShaderCores, ShaderProgram, TileScheduler};
use pimgfx_types::{TileCoord, TinyRng};

const CASES: usize = 128;

/// 1..50 fragment batches of `(arrival < 1000, count 1..512, ALU ops
/// 1..64)`.
fn batches(rng: &mut TinyRng) -> Vec<(u64, u64, u32)> {
    let n = rng.gen_range_u64(1, 50);
    (0..n)
        .map(|_| {
            let arrival = rng.gen_range_u64(0, 1000);
            let count = rng.gen_range_u64(1, 512);
            (arrival, count, rng.gen_range_u64(1, 64) as u32)
        })
        .collect()
}

/// Fragment batches on one cluster complete in issue order, and
/// completion is causal.
#[test]
fn cluster_is_causal_and_ordered() {
    let mut rng = TinyRng::seed_from_u64(0x5d_0001);
    for _ in 0..CASES {
        let batches = batches(&mut rng);
        let mut cores = ShaderCores::new(ShaderConfig::default());
        let mut last = Cycle::ZERO;
        for &(arrival, count, ops) in &batches {
            let p = ShaderProgram::new(ops, 1);
            let done = cores.shade_fragments(3, Cycle::new(arrival), count, &p);
            assert!(
                done.get() > arrival,
                "completion before arrival: {batches:?}"
            );
            assert!(done >= last, "completion regressed: {batches:?}");
            last = done;
        }
    }
}

/// Work conservation: total busy cycles equal the sum of each
/// batch's issue slots, independent of arrival pattern.
#[test]
fn busy_cycles_are_work_conserving() {
    let mut rng = TinyRng::seed_from_u64(0x5d_0002);
    let ops_per_cycle = ShaderConfig::default().ops_per_cycle();
    for _ in 0..CASES {
        let batches = batches(&mut rng);
        let mut cores = ShaderCores::new(ShaderConfig::default());
        let mut expected = 0u64;
        for &(arrival, count, ops) in &batches {
            let p = ShaderProgram::new(ops, 0);
            cores.shade_fragments(0, Cycle::new(arrival), count, &p);
            expected += (u64::from(ops) * count).div_ceil(ops_per_cycle).max(1);
        }
        assert_eq!(cores.total_busy().get(), expected, "batches={batches:?}");
    }
}

/// Heavier programs never finish a batch earlier than lighter ones.
#[test]
fn heavier_never_faster() {
    let mut rng = TinyRng::seed_from_u64(0x5d_0003);
    for _ in 0..CASES {
        let count = rng.gen_range_u64(1, 512);
        let light = rng.gen_range_u64(1, 64) as u32;
        let extra = rng.gen_range_u64(1, 64) as u32;
        let mut a = ShaderCores::new(ShaderConfig::default());
        let mut b = ShaderCores::new(ShaderConfig::default());
        let ta = a.shade_fragments(0, Cycle::ZERO, count, &ShaderProgram::new(light, 0));
        let tb = b.shade_fragments(0, Cycle::ZERO, count, &ShaderProgram::new(light + extra, 0));
        assert!(tb >= ta, "count={count} light={light} extra={extra}");
    }
}

/// The tile scheduler is a total function onto valid cluster ids and
/// is deterministic.
#[test]
fn scheduler_is_total_and_deterministic() {
    let mut rng = TinyRng::seed_from_u64(0x5d_0004);
    for _ in 0..CASES {
        let clusters = rng.gen_range_u64(1, 32) as usize;
        let tiles_x = rng.gen_range_u64(1, 128) as u32;
        let tx = rng.gen_range_u64(0, 512) as u32;
        let ty = rng.gen_range_u64(0, 512) as u32;
        let s = TileScheduler::new(clusters, tiles_x);
        let t = TileCoord::new(tx, ty);
        let c = s.cluster_for(t);
        let case = format!("clusters={clusters} tiles_x={tiles_x} tile=({tx},{ty})");
        assert!(c < clusters, "cluster {c}: {case}");
        assert_eq!(c, s.cluster_for(t), "{case}");
    }
}

/// Over a full row of tiles, the scheduler spreads work across
/// at least min(clusters, tiles_x) distinct clusters.
#[test]
fn scheduler_spreads_rows() {
    let mut rng = TinyRng::seed_from_u64(0x5d_0005);
    for _ in 0..CASES {
        let clusters = rng.gen_range_u64(1, 16) as usize;
        let tiles_x = rng.gen_range_u64(1, 64) as u32;
        let s = TileScheduler::new(clusters, tiles_x);
        let used: std::collections::HashSet<_> = (0..tiles_x)
            .map(|tx| s.cluster_for(TileCoord::new(tx, 0)))
            .collect();
        assert!(
            used.len() >= clusters.min(tiles_x as usize),
            "{} clusters used: clusters={clusters} tiles_x={tiles_x}",
            used.len()
        );
    }
}
