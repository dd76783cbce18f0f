//! Property tests for the simulation kernel's invariants.
//!
//! Each property draws its inputs from a fixed-seed [`TinyRng`], so
//! every run checks the same cases; a failing case prints its inputs.

use pimgfx_engine::{Bandwidth, Cycle, MultiServer, Server};
use pimgfx_types::TinyRng;

const CASES: usize = 128;

/// A server's completions are monotone in issue order, and its
/// busy-cycle total never exceeds the makespan.
#[test]
fn server_monotone_and_conservative() {
    let mut rng = TinyRng::seed_from_u64(0xe9_0001);
    for _ in 0..CASES {
        let interval = rng.gen_range_u64(1, 8);
        let latency = rng.gen_range_u64(0, 16);
        let n = rng.gen_range_u64(1, 100);
        let ops: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range_u64(0, 1000), rng.gen_range_u64(1, 16)))
            .collect();
        let case = format!("interval={interval} latency={latency} ops={ops:?}");
        let mut s = Server::new(interval, latency);
        let mut last = Cycle::ZERO;
        for &(arrival, weight) in &ops {
            let done = s.issue_weighted(Cycle::new(arrival), weight);
            assert!(done >= last, "completion regressed: {case}");
            assert!(done.get() >= arrival, "completion before arrival: {case}");
            last = done;
        }
        assert!(
            s.utilization().busy().get() <= s.next_free().get(),
            "{case}"
        );
    }
}

/// A multi-server never finishes a task later than a single server
/// with the same parameters would (more lanes can only help).
#[test]
fn more_lanes_never_hurt() {
    let mut rng = TinyRng::seed_from_u64(0xe9_0002);
    for _ in 0..CASES {
        let lanes = rng.gen_range_u64(2, 8) as usize;
        let n = rng.gen_range_u64(1, 60);
        let ops: Vec<u64> = (0..n).map(|_| rng.gen_range_u64(0, 100)).collect();
        let mut single = MultiServer::new(1, 1, 4);
        let mut multi = MultiServer::new(lanes, 1, 4);
        let mut single_last = Cycle::ZERO;
        let mut multi_last = Cycle::ZERO;
        for &arrival in &ops {
            single_last = single_last.max(single.issue(Cycle::new(arrival)));
            multi_last = multi_last.max(multi.issue(Cycle::new(arrival)));
        }
        assert!(multi_last <= single_last, "lanes={lanes} ops={ops:?}");
    }
}

/// Bandwidth channels conserve bytes and never complete a transfer
/// before its arrival.
#[test]
fn bandwidth_conserves_bytes() {
    let mut rng = TinyRng::seed_from_u64(0xe9_0003);
    for _ in 0..CASES {
        let rate = f64::from(rng.gen_range_f32(1.0, 512.0));
        let n = rng.gen_range_u64(1, 100);
        let xfers: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range_u64(0, 10_000), rng.gen_range_u64(0, 4096)))
            .collect();
        let case = format!("rate={rate:?} xfers={xfers:?}");
        let mut ch = Bandwidth::from_bytes_per_cycle(rate);
        let mut total = 0u64;
        for &(arrival, bytes) in &xfers {
            let done = ch.transfer(Cycle::new(arrival), bytes);
            assert!(done.get() >= arrival, "completion before arrival: {case}");
            total += bytes;
        }
        assert_eq!(ch.bytes_moved(), total, "{case}");
        // The channel cannot move bytes faster than its rate allows:
        // completion >= total_bytes / rate (within rounding).
        let min_cycles = (total as f64 / rate).floor() as u64;
        assert!(ch.next_free().get() + 1 >= min_cycles, "{case}");
    }
}
