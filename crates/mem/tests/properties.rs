//! Property tests for the memory-system invariants.
//!
//! Each property draws its inputs from a fixed-seed [`TinyRng`], so
//! every run checks the same cases; a failing case prints its inputs.
//! Inputs that once failed run first, as fixed cases.

use pimgfx_engine::Cycle;
use pimgfx_mem::{
    AddressLayout, Bank, DramTiming, Gddr5, Hmc, MemRequest, MemorySystem, TrafficClass,
};
use pimgfx_types::TinyRng;

const CASES: usize = 64;

/// Address mapping always lands inside the configured geometry.
#[test]
fn layout_indices_in_range() {
    let mut rng = TinyRng::seed_from_u64(0x3e3_0001);
    for _ in 0..CASES {
        let addr = rng.next_u64();
        let units = rng.gen_range_u64(1, 64);
        let banks = rng.gen_range_u64(1, 32);
        let l = AddressLayout::new(units, banks, 2048, 64);
        let case = format!("addr={addr} units={units} banks={banks}");
        assert!(l.unit(addr) < units, "{case}");
        assert!(l.bank(addr) < banks, "{case}");
    }
}

/// `lines_touched` is exact: it equals the number of distinct
/// 64-byte lines covered by `[addr, addr + bytes)`.
#[test]
fn lines_touched_is_exact() {
    let mut rng = TinyRng::seed_from_u64(0x3e3_0002);
    let l = AddressLayout::new(8, 16, 2048, 64);
    for _ in 0..CASES {
        let addr = rng.gen_range_u64(0, 1_000_000);
        let bytes = rng.gen_range_u64(0, 4096);
        let expect = if bytes == 0 {
            0
        } else {
            (addr + bytes - 1) / 64 - addr / 64 + 1
        };
        assert_eq!(
            l.lines_touched(addr, bytes),
            expect,
            "addr={addr} bytes={bytes}"
        );
    }
}

/// Bank completion times are monotone in arrival order: serving a
/// request never finishes before an earlier-issued one.
#[test]
fn bank_completions_are_monotone() {
    let mut rng = TinyRng::seed_from_u64(0x3e3_0003);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(1, 100);
        let rows: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 16)).collect();
        let mut bank = Bank::new(DramTiming::default());
        let mut last = Cycle::ZERO;
        for &row in &rows {
            let (done, _) = bank.access(Cycle::ZERO, row);
            assert!(done >= last, "completion went backwards: rows={rows:?}");
            last = done;
        }
    }
}

/// Row-buffer statistics are consistent: hits + conflicts + colds
/// equals total accesses, and the hit rate is in [0, 1].
#[test]
fn bank_stats_are_consistent() {
    let mut rng = TinyRng::seed_from_u64(0x3e3_0004);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(0, 200);
        let rows: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 8)).collect();
        let mut bank = Bank::new(DramTiming::default());
        for &row in &rows {
            bank.access(Cycle::ZERO, row);
        }
        let (h, c, k) = bank.row_stats();
        assert_eq!(h + c + k, n, "rows={rows:?}");
        assert!((0.0..=1.0).contains(&bank.hit_rate()), "rows={rows:?}");
    }
}

/// External traffic accounting is exact: total recorded bytes equal
/// the sum of the per-request packet sizes, independent of timing.
#[test]
fn traffic_accounting_is_exact() {
    let mut rng = TinyRng::seed_from_u64(0x3e3_0005);
    for _ in 0..CASES {
        let n = rng.gen_range_u64(1, 100);
        let reqs: Vec<(u64, u32, bool)> = (0..n)
            .map(|_| {
                let addr = rng.gen_range_u64(0, 1_000_000);
                let bytes = rng.gen_range_u64(1, 512) as u32;
                (addr, bytes, rng.gen_range_u64(0, 2) == 1)
            })
            .collect();
        let mut mem = Gddr5::with_defaults();
        let mut expect = 0u64;
        for &(addr, bytes, write) in &reqs {
            let r = if write {
                MemRequest::write(TrafficClass::TextureFetch, addr, bytes)
            } else {
                MemRequest::read(TrafficClass::TextureFetch, addr, bytes)
            };
            expect += r.external_bytes();
            mem.access_external(Cycle::ZERO, &r);
        }
        assert_eq!(mem.traffic().total().get(), expect, "reqs={reqs:?}");
    }
}

/// HMC internal accesses never generate external traffic, and
/// internal byte accounting matches the payloads.
#[test]
fn hmc_internal_accounting() {
    let mut rng = TinyRng::seed_from_u64(0x3e3_0006);
    let random = (0..CASES).map(|_| {
        let n = rng.gen_range_u64(1, 100);
        (0..n)
            .map(|_| {
                (
                    rng.gen_range_u64(0, 1_000_000),
                    rng.gen_range_u64(1, 256) as u32,
                )
            })
            .collect::<Vec<(u64, u32)>>()
    });
    for reqs in std::iter::once(vec![(30595, 190)]).chain(random) {
        let mut hmc = Hmc::with_defaults();
        let mut expect = 0u64;
        for &(addr, bytes) in &reqs {
            let r = MemRequest::read(TrafficClass::TextureFetch, addr, bytes);
            hmc.access_internal(Cycle::ZERO, &r);
            expect += u64::from(bytes);
        }
        assert_eq!(hmc.traffic().total().get(), 0, "reqs={reqs:?}");
        assert_eq!(hmc.internal_bytes(), expect, "reqs={reqs:?}");
    }
}

/// Memory service is causal: a request never completes before it
/// arrives, under any arrival time.
#[test]
fn service_is_causal() {
    let mut rng = TinyRng::seed_from_u64(0x3e3_0007);
    let random = (0..CASES).map(|_| {
        let arrival = rng.gen_range_u64(0, 1_000_000);
        let addr = rng.gen_range_u64(0, 1_000_000);
        (arrival, addr, rng.gen_range_u64(1, 1024) as u32)
    });
    for (arrival, addr, bytes) in std::iter::once((0, 279_158, 75)).chain(random) {
        let case = format!("arrival={arrival} addr={addr} bytes={bytes}");
        let mut gddr5 = Gddr5::with_defaults();
        let mut hmc = Hmc::with_defaults();
        let r = MemRequest::read(TrafficClass::ZTest, addr, bytes);
        let t = Cycle::new(arrival);
        assert!(gddr5.access_external(t, &r) > t, "gddr5 external: {case}");
        assert!(hmc.access_external(t, &r) > t, "hmc external: {case}");
        assert!(hmc.access_internal(t, &r) > t, "hmc internal: {case}");
    }
}

/// Reset restores a pristine machine: a request sequence replayed
/// after reset produces identical timing.
#[test]
fn reset_restores_determinism() {
    let mut rng = TinyRng::seed_from_u64(0x3e3_0008);
    let run = |mem: &mut Gddr5, addrs: &[u64]| -> Vec<u64> {
        addrs
            .iter()
            .map(|&a| {
                let r = MemRequest::read(TrafficClass::Geometry, a, 64);
                mem.access_external(Cycle::ZERO, &r).get()
            })
            .collect()
    };
    for _ in 0..CASES {
        let n = rng.gen_range_u64(1, 50);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 100_000)).collect();
        let mut mem = Gddr5::with_defaults();
        let first = run(&mut mem, &addrs);
        mem.reset();
        let second = run(&mut mem, &addrs);
        assert_eq!(first, second, "addrs={addrs:?}");
    }
}
