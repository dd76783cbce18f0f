//! Per-stage cycle, operation, byte, and stall accounting.
//!
//! Every headline number the simulator reports is a *sum* of per-stage
//! counters, so a single double-counted issue slot silently skews a
//! figure without failing any test. This module is the substrate of the
//! cycle-conservation auditor: components record their counters into a
//! [`StageTrace`] under stable stage names (the taxonomy in [`stage`]),
//! and the auditor asserts that the per-stage sums reproduce the totals
//! reported elsewhere — exactly for integer counters.
//!
//! The registry is deliberately zero-dependency and pull-based: timing
//! components keep their own counters (as they always have) and export
//! them on demand, so tracing adds no cost to the simulation hot path.
//!
//! # Examples
//!
//! ```
//! use pimgfx_engine::trace::{StageCounters, StageTrace};
//!
//! let mut t = StageTrace::new();
//! t.record("tex.addr", StageCounters::busy(120).with_ops(30));
//! t.record("tex.filter", StageCounters::busy(480).with_ops(30));
//! assert_eq!(t.busy_sum("tex."), 600);
//! assert_eq!(t.counters("tex.addr").ops, 30);
//! ```

use crate::bandwidth::Bandwidth;
use crate::server::{MultiServer, Server};
use crate::window::InFlightWindow;

/// Canonical stage names shared by the whole workspace.
///
/// Keeping the taxonomy here (rather than as ad-hoc strings in each
/// crate) means producers and the auditor agree by construction; see
/// `docs/OBSERVABILITY.md` for what each stage covers.
pub mod stage {
    /// Shader-cluster ALU busy cycles.
    pub const SHADER_ALU: &str = "shader.alu";
    /// Per-cluster in-flight tile window: issue stalls when a cluster
    /// runs at its look-ahead limit waiting for the oldest tile.
    pub const SHADER_WINDOW: &str = "shader.window";
    /// GPU texture-unit address-generation pipes.
    pub const TEX_ADDR: &str = "tex.addr";
    /// GPU texture-unit filtering pipes.
    pub const TEX_FILTER: &str = "tex.filter";
    /// Raster operations: retired fragments and flushed framebuffer bytes.
    pub const ROP: &str = "rop";
    /// Bytes moved on internal memory paths (DRAM arrays behind TSVs).
    pub const MEM_INTERNAL: &str = "mem.internal";
    /// Prefix for external-traffic stages; one stage per traffic class,
    /// e.g. `mem.external.texture`.
    pub const MEM_EXTERNAL_PREFIX: &str = "mem.external.";
    /// GDDR5 channel buses: busy cycles and bytes moved on the DQ wires.
    pub const MEM_GDDR5_BUS: &str = "mem.gddr5.bus";
    /// HMC off-chip SerDes links (host↔cube), both directions merged.
    pub const MEM_HMC_LINK: &str = "mem.hmc.link";
    /// HMC through-silicon-via vault buses inside the cube.
    pub const MEM_HMC_TSV: &str = "mem.hmc.tsv";
    /// MTU address-generation pipes (S-TFIM logic layer). Informational:
    /// not part of `pim_busy_cycles` (see `docs/OBSERVABILITY.md`).
    pub const PIM_MTU_ADDR: &str = "pim.mtu.addr";
    /// MTU filtering pipes (S-TFIM logic layer).
    pub const PIM_MTU_FILTER: &str = "pim.mtu.filter";
    /// A-TFIM Texel Generator stage.
    pub const PIM_ATFIM_GENERATE: &str = "pim.atfim.generate";
    /// A-TFIM Combination Unit stage.
    pub const PIM_ATFIM_COMBINE: &str = "pim.atfim.combine";
    /// A-TFIM Parent Texel Buffer occupancy/backpressure stage.
    pub const PIM_ATFIM_BUFFER: &str = "pim.atfim.buffer";
}

/// Counters for one pipeline stage.
///
/// All four counters are plain `u64` event/cycle/byte counts, so
/// conservation checks against `RenderReport` totals can be *exact*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Cycles the stage spent doing work (occupancy, not latency).
    pub busy_cycles: u64,
    /// Operations the stage performed (issues, requests, fragments...).
    pub ops: u64,
    /// Bytes the stage moved.
    pub bytes: u64,
    /// Times the stage had to wait for a structural resource.
    pub stalls: u64,
}

impl StageCounters {
    /// All-zero counters.
    pub const ZERO: Self = Self {
        busy_cycles: 0,
        ops: 0,
        bytes: 0,
        stalls: 0,
    };

    /// Counters with only busy cycles set.
    pub fn busy(busy_cycles: u64) -> Self {
        Self {
            busy_cycles,
            ..Self::ZERO
        }
    }

    /// Counters describing traffic: `ops` requests moving `bytes` bytes.
    pub fn traffic(ops: u64, bytes: u64) -> Self {
        Self {
            ops,
            bytes,
            ..Self::ZERO
        }
    }

    /// Counters with only a stall count set.
    pub fn stalled(stalls: u64) -> Self {
        Self {
            stalls,
            ..Self::ZERO
        }
    }

    /// Returns these counters with `ops` replaced.
    pub fn with_ops(self, ops: u64) -> Self {
        Self { ops, ..self }
    }

    /// Returns these counters with `bytes` replaced.
    pub fn with_bytes(self, bytes: u64) -> Self {
        Self { bytes, ..self }
    }

    /// Returns these counters with `stalls` replaced.
    pub fn with_stalls(self, stalls: u64) -> Self {
        Self { stalls, ..self }
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &StageCounters) {
        self.busy_cycles += other.busy_cycles;
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.stalls += other.stalls;
    }

    /// Component-wise `self - earlier`, saturating at zero so a stale
    /// snapshot can never underflow (counters are monotone in practice).
    pub fn delta_since(&self, earlier: &StageCounters) -> StageCounters {
        StageCounters {
            busy_cycles: self.busy_cycles.saturating_sub(earlier.busy_cycles),
            ops: self.ops.saturating_sub(earlier.ops),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            stalls: self.stalls.saturating_sub(earlier.stalls),
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }
}

/// An ordered registry of `stage name → StageCounters`.
///
/// Stages keep first-insertion order (stable, human-readable output);
/// recording the same stage twice merges the counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTrace {
    stages: Vec<(String, StageCounters)>,
}

impl StageTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `counters` to `name`'s entry, creating it if absent.
    pub fn record(&mut self, name: &str, counters: StageCounters) {
        if let Some((_, c)) = self.stages.iter_mut().find(|(n, _)| n == name) {
            c.merge(&counters);
        } else {
            self.stages.push((name.to_string(), counters));
        }
    }

    /// Records a [`Server`]'s accumulated occupancy: busy cycles and the
    /// number of issue events.
    pub fn record_server(&mut self, name: &str, server: &Server) {
        let u = server.utilization();
        self.record(
            name,
            StageCounters::busy(u.busy().get()).with_ops(u.events()),
        );
    }

    /// Records a [`MultiServer`]'s lane-merged occupancy.
    pub fn record_multi(&mut self, name: &str, multi: &MultiServer) {
        let u = multi.utilization();
        self.record(
            name,
            StageCounters::busy(u.busy().get()).with_ops(u.events()),
        );
    }

    /// Records an [`InFlightWindow`]'s accumulated gate stalls.
    pub fn record_window(&mut self, name: &str, window: &InFlightWindow) {
        self.record(name, StageCounters::stalled(window.stalls()));
    }

    /// Records a [`Bandwidth`] channel: busy cycles, transfer events,
    /// and bytes moved on the wires.
    pub fn record_bandwidth(&mut self, name: &str, channel: &Bandwidth) {
        let u = channel.utilization();
        self.record(
            name,
            StageCounters::busy(u.busy().get())
                .with_ops(u.events())
                .with_bytes(channel.bytes_moved()),
        );
    }

    /// The counters for `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&StageCounters> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// The counters for `name`, or all zeros when absent.
    pub fn counters(&self, name: &str) -> StageCounters {
        self.get(name).copied().unwrap_or(StageCounters::ZERO)
    }

    /// Iterates stages in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StageCounters)> {
        self.stages.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Number of recorded stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when no stage has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Merges every stage of `other` into this trace.
    pub fn merge(&mut self, other: &StageTrace) {
        for (name, c) in other.iter() {
            self.record(name, *c);
        }
    }

    /// Sum of `busy_cycles` over stages whose name starts with `prefix`
    /// (an exact stage name is its own prefix; `""` sums everything).
    pub fn busy_sum(&self, prefix: &str) -> u64 {
        self.sum(prefix, |c| c.busy_cycles)
    }

    /// Sum of `bytes` over stages whose name starts with `prefix`.
    pub fn bytes_sum(&self, prefix: &str) -> u64 {
        self.sum(prefix, |c| c.bytes)
    }

    /// Sum of `stalls` over stages whose name starts with `prefix`.
    pub fn stalls_sum(&self, prefix: &str) -> u64 {
        self.sum(prefix, |c| c.stalls)
    }

    fn sum(&self, prefix: &str, f: impl Fn(&StageCounters) -> u64) -> u64 {
        self.stages
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, c)| f(c))
            .sum()
    }

    /// Per-stage `self - earlier` (stages absent from `earlier` are kept
    /// in full). Used to carve cumulative counters into per-frame deltas.
    pub fn delta_since(&self, earlier: &StageTrace) -> StageTrace {
        let mut out = StageTrace::new();
        for (name, c) in self.iter() {
            out.record(name, c.delta_since(&earlier.counters(name)));
        }
        out
    }
}

/// A convenience for snapshot/delta bookkeeping around a frame boundary.
///
/// # Examples
///
/// ```
/// use pimgfx_engine::trace::{frame_delta, StageCounters, StageTrace};
///
/// let mut cumulative = StageTrace::new();
/// cumulative.record("rop", StageCounters::busy(10));
/// let snapshot = cumulative.clone();
/// cumulative.record("rop", StageCounters::busy(7));
/// let frame = frame_delta(&cumulative, &snapshot);
/// assert_eq!(frame.counters("rop").busy_cycles, 7);
/// ```
pub fn frame_delta(cumulative: &StageTrace, snapshot: &StageTrace) -> StageTrace {
    cumulative.delta_since(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Cycle, Duration};

    #[test]
    fn record_merges_same_stage() {
        let mut t = StageTrace::new();
        t.record("a", StageCounters::busy(3).with_ops(1));
        t.record("a", StageCounters::busy(4).with_bytes(100));
        let c = t.counters("a");
        assert_eq!(c.busy_cycles, 7);
        assert_eq!(c.ops, 1);
        assert_eq!(c.bytes, 100);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insertion_order_is_stable() {
        let mut t = StageTrace::new();
        t.record("z", StageCounters::ZERO);
        t.record("a", StageCounters::ZERO);
        t.record("z", StageCounters::busy(1));
        let names: Vec<_> = t.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["z", "a"]);
    }

    #[test]
    fn prefix_sums_cover_exact_and_hierarchical_names() {
        let mut t = StageTrace::new();
        t.record(stage::TEX_ADDR, StageCounters::busy(10));
        t.record(stage::TEX_FILTER, StageCounters::busy(30));
        t.record(stage::ROP, StageCounters::busy(5).with_stalls(2));
        assert_eq!(t.busy_sum("tex."), 40);
        assert_eq!(t.busy_sum(stage::ROP), 5);
        assert_eq!(t.busy_sum(""), 45);
        assert_eq!(t.stalls_sum(""), 2);
        assert!(t.get("tex.nope").is_none());
        assert!(t.counters("tex.nope").is_zero());
    }

    #[test]
    fn merge_combines_traces() {
        let mut a = StageTrace::new();
        a.record("x", StageCounters::traffic(2, 128));
        let mut b = StageTrace::new();
        b.record("x", StageCounters::traffic(1, 64));
        b.record("y", StageCounters::stalled(3));
        a.merge(&b);
        assert_eq!(a.counters("x").bytes, 192);
        assert_eq!(a.counters("x").ops, 3);
        assert_eq!(a.counters("y").stalls, 3);
    }

    #[test]
    fn delta_since_gives_per_frame_slices() {
        let mut t = StageTrace::new();
        t.record("s", StageCounters::busy(10));
        let snap = t.clone();
        t.record("s", StageCounters::busy(6));
        t.record("new", StageCounters::busy(2));
        let d = frame_delta(&t, &snap);
        assert_eq!(d.counters("s").busy_cycles, 6);
        assert_eq!(d.counters("new").busy_cycles, 2);
        // Deltas never underflow, even against a foreign snapshot.
        let mut ahead = StageTrace::new();
        ahead.record("s", StageCounters::busy(1000));
        assert_eq!(t.delta_since(&ahead).counters("s").busy_cycles, 0);
    }

    #[test]
    fn records_engine_primitives() {
        let mut t = StageTrace::new();

        let mut s = Server::new(2, 10);
        s.issue(Cycle::ZERO);
        s.issue_weighted(Cycle::ZERO, 4);
        t.record_server("srv", &s);
        assert_eq!(t.counters("srv").busy_cycles, 10);
        assert_eq!(t.counters("srv").ops, 2);

        let mut m = MultiServer::new(2, 3, 0);
        m.issue(Cycle::ZERO);
        m.issue(Cycle::ZERO);
        t.record_multi("multi", &m);
        assert_eq!(t.counters("multi").busy_cycles, m.total_busy().get());
        assert_eq!(t.counters("multi").ops, 2);

        let mut w = InFlightWindow::new(1, Cycle::ZERO);
        w.retire(Cycle::new(5));
        let _ = w.gate_from(Cycle::ZERO); // stalls: gate is 5
        t.record_window("win", &w);
        assert_eq!(t.counters("win").stalls, 1);

        let mut bus = Bandwidth::from_bytes_per_cycle(16.0);
        bus.transfer(Cycle::ZERO, 64);
        t.record_bandwidth("bus", &bus);
        assert_eq!(t.counters("bus").busy_cycles, 4);
        assert_eq!(t.counters("bus").bytes, 64);
        assert_eq!(t.counters("bus").ops, 1);
    }

    #[test]
    fn counter_builders_compose() {
        let c = StageCounters::busy(4)
            .with_ops(2)
            .with_bytes(8)
            .with_stalls(1);
        assert_eq!(
            c,
            StageCounters {
                busy_cycles: 4,
                ops: 2,
                bytes: 8,
                stalls: 1
            }
        );
        assert!(StageCounters::ZERO.is_zero());
        assert_eq!(Duration::new(4).get(), 4); // keep the unit import honest
    }
}
