//! Property tests for the PIM logic-layer hardware invariants.
//!
//! Each property draws its inputs from a fixed-seed [`TinyRng`], so
//! every run checks the same cases; a failing case prints its inputs.

use pimgfx_engine::Cycle;
use pimgfx_mem::Hmc;
use pimgfx_pim::{
    AtfimConfig, AtfimLogicLayer, ChildConsolidator, MtuBank, MtuConfig, OffloadUnit,
    ParentFetchBatch, ParentTexelBuffer, TextureRequest,
};
use pimgfx_types::TinyRng;

const CASES: usize = 64;

/// A parent-fetch batch: 0..16 line-aligned addresses below 1e6, an
/// anisotropy ratio in 1..=16 and either major axis.
fn batch(rng: &mut TinyRng) -> ParentFetchBatch {
    let n = rng.gen_range_u64(0, 16);
    let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 1_000_000)).collect();
    ParentFetchBatch {
        parent_line_addrs: addrs.into_iter().map(|a| a - a % 64).collect(),
        aniso_ratio: rng.gen_range_u64(1, 17) as u32,
        major_axis_x: rng.gen_range_u64(0, 2) == 1,
        line_bytes: 64,
    }
}

/// Consolidation is conservative: it never *adds* fetches, its
/// output is duplicate-free, and disabled consolidation is the
/// identity.
#[test]
fn consolidation_is_a_dedup() {
    let mut rng = TinyRng::seed_from_u64(0x919_0001);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(0, 200);
        let fetches: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 64)).collect();
        let mut on = ChildConsolidator::new(true);
        let out = on.consolidate(fetches.clone());
        assert!(out.len() <= fetches.len(), "fetches={fetches:?}");
        let set: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(
            set.len(),
            out.len(),
            "duplicates survived: fetches={fetches:?}"
        );
        assert_eq!(
            out.len() as u64 + on.merged(),
            fetches.len() as u64,
            "fetches={fetches:?}"
        );

        let mut off = ChildConsolidator::new(false);
        assert_eq!(off.consolidate(fetches.clone()), fetches);
    }
}

/// The parent buffer never over-allocates and its free+occupied
/// total is invariant.
#[test]
fn parent_buffer_conserves_entries() {
    let mut rng = TinyRng::seed_from_u64(0x919_0002);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(1, 100);
        let ops: Vec<(usize, bool)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range_u64(0, 20) as usize,
                    rng.gen_range_u64(0, 2) == 1,
                )
            })
            .collect();
        let mut buf = ParentTexelBuffer::new(16);
        for &(n, alloc) in &ops {
            if alloc {
                let granted = buf.try_allocate(n);
                assert!(granted <= n, "granted {granted}: ops={ops:?}");
                assert!(granted <= 16, "granted {granted}: ops={ops:?}");
            } else {
                let release = n.min(buf.occupied());
                buf.release(release);
            }
            assert_eq!(buf.free() + buf.occupied(), 16, "ops={ops:?}");
            assert!(buf.high_water() >= buf.occupied(), "ops={ops:?}");
        }
    }
}

/// The logic layer's child accounting balances: generated children =
/// vault reads + merged reads, and completion is causal.
#[test]
fn atfim_child_accounting_balances() {
    let mut rng = TinyRng::seed_from_u64(0x919_0003);
    for _ in 0..CASES {
        let batch = batch(&mut rng);
        let arrival = rng.gen_range_u64(0, 10_000);
        let mut hmc = Hmc::with_defaults();
        let mut logic = AtfimLogicLayer::with_defaults();
        let t = Cycle::new(arrival);
        let resp = logic.process(t, &batch, &mut hmc);
        assert!(resp.completion >= t, "arrival={arrival} {batch:?}");
        let expected_children = if batch.parent_line_addrs.is_empty() {
            0
        } else {
            batch.parent_line_addrs.len() as u64 * u64::from(batch.aniso_ratio.max(1))
        };
        assert_eq!(
            resp.child_reads + resp.merged_reads,
            expected_children,
            "arrival={arrival} {batch:?}"
        );
    }
}

/// Offload package bytes: compressed packages have a fixed size,
/// uncompressed grow affinely, and both record exactly one package
/// per nonempty group.
#[test]
fn offload_package_accounting() {
    let mut rng = TinyRng::seed_from_u64(0x919_0004);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(0, 50);
        let groups: Vec<usize> = (0..n).map(|_| rng.gen_range_u64(0, 64) as usize).collect();
        let mut comp = OffloadUnit::new(true);
        let mut raw = OffloadUnit::new(false);
        let mut nonempty = 0u64;
        for &n in &groups {
            let addrs = vec![0u64; n];
            let cb = comp.package_bytes(&addrs);
            let rb = raw.package_bytes(&addrs);
            if n == 0 {
                assert_eq!(cb, 0, "groups={groups:?}");
                assert_eq!(rb, 0, "groups={groups:?}");
            } else {
                nonempty += 1;
                assert_eq!(cb, 64, "groups={groups:?}");
                assert_eq!(rb, 16 + 8 * n as u64, "groups={groups:?}");
            }
        }
        assert_eq!(comp.packages(), nonempty, "groups={groups:?}");
        assert_eq!(raw.packages(), nonempty, "groups={groups:?}");
    }
}

/// MTU completions are causal and per-MTU monotone under any
/// request stream.
#[test]
fn mtu_completions_are_causal() {
    let mut rng = TinyRng::seed_from_u64(0x919_0005);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(1, 40);
        let reqs: Vec<(usize, u64, usize, u32)> = (0..n)
            .map(|_| {
                let mtu = rng.gen_range_u64(0, 4) as usize;
                let arrival = rng.gen_range_u64(0, 1000);
                let lines = rng.gen_range_u64(1, 8) as usize;
                (mtu, arrival, lines, rng.gen_range_u64(1, 64) as u32)
            })
            .collect();
        let mut hmc = Hmc::with_defaults();
        let mut bank = MtuBank::new(4, MtuConfig::default());
        let mut last_per_mtu = [Cycle::ZERO; 4];
        for &(mtu, arrival, lines, texels) in &reqs {
            let req = TextureRequest {
                texel_line_addrs: (0..lines as u64).map(|i| i * 64).collect(),
                texel_count: texels,
                line_bytes: 64,
            };
            let t = Cycle::new(arrival);
            let done = bank.process(mtu, t, &req, &mut hmc);
            assert!(done > t, "completion before arrival: reqs={reqs:?}");
            assert!(
                done >= last_per_mtu[mtu],
                "per-MTU order violated: reqs={reqs:?}"
            );
            last_per_mtu[mtu] = done;
        }
    }
}

/// Higher anisotropy ratios never make the logic layer finish a
/// batch earlier (more children, never fewer).
#[test]
fn more_children_never_finish_earlier() {
    let mut rng = TinyRng::seed_from_u64(0x919_0006);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(1, 8);
        let parents: Vec<u64> = (0..n)
            .map(|_| rng.gen_range_u64(0, 100_000))
            .map(|a| a - a % 64)
            .collect();
        let mk = |ratio: u32| -> Cycle {
            let mut hmc = Hmc::with_defaults();
            let mut logic = AtfimLogicLayer::new(AtfimConfig::default());
            logic
                .process(
                    Cycle::ZERO,
                    &ParentFetchBatch {
                        parent_line_addrs: parents.clone(),
                        aniso_ratio: ratio,
                        major_axis_x: true,
                        line_bytes: 64,
                    },
                    &mut hmc,
                )
                .completion
        };
        assert!(mk(16) >= mk(2), "parents={parents:?}");
    }
}
