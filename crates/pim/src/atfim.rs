//! The A-TFIM logic-layer pipeline: Texel Generator → Child Texel
//! Consolidation → vault reads → Combination Unit.

use crate::consolidate::ChildConsolidator;
use crate::parent_buffer::ParentTexelBuffer;
use pimgfx_engine::trace::{stage, StageCounters, StageTrace};
use pimgfx_engine::{Cycle, Duration, Server};
use pimgfx_mem::{Hmc, MemRequest, MemorySystem, TrafficClass};

/// A-TFIM logic-layer configuration (§V-D / Table I: 16 texel-address
/// ALUs in the Texel Generator, 16 filtering ALUs in the Combination
/// Unit, a 256-entry Parent Texel Buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtfimConfig {
    /// Address ALUs in the Texel Generator.
    pub generator_alus: u32,
    /// Filtering ALUs in the Combination Unit.
    pub combine_alus: u32,
    /// Parent Texel Buffer entries.
    pub parent_buffer_entries: usize,
    /// Enable child-texel consolidation (ablation knob).
    pub consolidate: bool,
    /// Pipeline latency of each logic-layer stage, cycles.
    pub stage_latency: u64,
}

impl Default for AtfimConfig {
    fn default() -> Self {
        Self {
            generator_alus: 16,
            combine_alus: 16,
            parent_buffer_entries: ParentTexelBuffer::DEFAULT_ENTRIES,
            consolidate: true,
            stage_latency: 4,
        }
    }
}

/// One parent-texel miss group offloaded by a texture unit.
#[derive(Debug, Clone)]
pub struct ParentFetchBatch {
    /// Cache-line addresses of the missing parent texels.
    pub parent_line_addrs: Vec<u64>,
    /// Anisotropy ratio: children generated per parent.
    pub aniso_ratio: u32,
    /// Whether the anisotropy major axis is closer to the texture's x
    /// axis (children then stride along adjacent blocks in x) or y.
    pub major_axis_x: bool,
    /// Bytes read per texel line (64 raw; 16 under 4:1 block
    /// compression).
    pub line_bytes: u32,
}

/// What the logic layer reports back per batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtfimResponse {
    /// Cycle the approximated parent texels are ready to leave the cube.
    pub completion: Cycle,
    /// Child texel line reads actually issued to the vaults.
    pub child_reads: u64,
    /// Child reads eliminated by consolidation.
    pub merged_reads: u64,
}

/// The child-texel generation front end (16 address ALUs).
#[derive(Debug)]
pub struct TexelGenerator {
    pipe: Server,
    alus: u32,
    generated: u64,
}

impl TexelGenerator {
    /// Creates the generator.
    pub fn new(alus: u32, stage_latency: u64) -> Self {
        Self {
            // trace:stage(pim.atfim.generate)
            pipe: Server::new(1, stage_latency),
            alus: alus.max(1),
            generated: 0,
        }
    }

    /// Generates child addresses for a batch: each parent expands into
    /// `ratio` children strided along the major axis in units of one
    /// tiling block (64-byte line). Returns `(ready_time, child_lines)`.
    pub fn generate(&mut self, arrival: Cycle, batch: &ParentFetchBatch) -> (Cycle, Vec<u64>) {
        let mut children = Vec::new();
        let ready = self.generate_into(arrival, batch, &mut children);
        (ready, children)
    }

    /// [`TexelGenerator::generate`] into a caller-owned buffer (cleared
    /// first), so the logic layer reuses one buffer across batches.
    fn generate_into(
        &mut self,
        arrival: Cycle,
        batch: &ParentFetchBatch,
        children: &mut Vec<u64>,
    ) -> Cycle {
        let ratio = u64::from(batch.aniso_ratio.max(1));
        children.clear();
        children.reserve(batch.parent_line_addrs.len() * ratio as usize);
        // Stride between successive children, in bytes of the block-tiled
        // layout: probes step 1–2 texels along the anisotropy line, and a
        // 64-byte block holds a 4×4 texel tile, so roughly four probes
        // share a line along x (16 B per probe) and four along y (one
        // quarter of a block row, approximated for a 16-block-wide
        // level). Line-aligning below then folds same-block children
        // together; consolidation removes the duplicates.
        let stride: u64 = if batch.major_axis_x { 16 } else { 64 * 16 / 4 };
        for &p in &batch.parent_line_addrs {
            let half = ratio / 2;
            for k in 0..ratio {
                let off = k as i64 - half as i64;
                let addr = if off.is_negative() {
                    p.saturating_sub(stride * off.unsigned_abs())
                } else {
                    p + stride * off as u64
                };
                children.push(addr - addr % 64);
            }
        }
        self.generated += children.len() as u64;
        let slots = (children.len() as u64)
            .div_ceil(u64::from(self.alus))
            .max(1);
        self.pipe.issue_weighted(arrival, slots)
    }

    /// Child addresses generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Busy cycles (energy).
    pub fn busy(&self) -> Duration {
        self.pipe.utilization().busy()
    }

    /// Resets timing state.
    pub fn reset(&mut self) {
        self.pipe.reset();
        self.generated = 0;
    }
}

/// The combination back end (16 filtering ALUs) that averages fetched
/// children into approximated parent texels.
#[derive(Debug)]
pub struct CombinationUnit {
    pipe: Server,
    alus: u32,
    combined: u64,
}

impl CombinationUnit {
    /// Creates the unit.
    pub fn new(alus: u32, stage_latency: u64) -> Self {
        Self {
            // trace:stage(pim.atfim.combine)
            pipe: Server::new(1, stage_latency),
            alus: alus.max(1),
            combined: 0,
        }
    }

    /// Accumulates `child_count` texels into `parent_count` parents;
    /// returns when the parents are fully combined.
    pub fn combine(&mut self, arrival: Cycle, child_count: u64, parent_count: u64) -> Cycle {
        self.combined += parent_count;
        let slots = child_count.div_ceil(u64::from(self.alus)).max(1);
        self.pipe.issue_weighted(arrival, slots)
    }

    /// Parents combined so far.
    pub fn combined(&self) -> u64 {
        self.combined
    }

    /// Busy cycles (energy).
    pub fn busy(&self) -> Duration {
        self.pipe.utilization().busy()
    }

    /// Resets timing state.
    pub fn reset(&mut self) {
        self.pipe.reset();
        self.combined = 0;
    }
}

/// The assembled A-TFIM logic layer.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct AtfimLogicLayer {
    config: AtfimConfig,
    generator: TexelGenerator,
    consolidator: ChildConsolidator,
    parent_buffer: ParentTexelBuffer,
    combiner: CombinationUnit,
    batches: u64,
    /// Child-line buffer reused across batches.
    children: Vec<u64>,
}

impl AtfimLogicLayer {
    /// Builds the logic layer from a configuration.
    pub fn new(config: AtfimConfig) -> Self {
        Self {
            generator: TexelGenerator::new(config.generator_alus, config.stage_latency),
            consolidator: ChildConsolidator::new(config.consolidate),
            parent_buffer: ParentTexelBuffer::new(config.parent_buffer_entries.max(1)),
            combiner: CombinationUnit::new(config.combine_alus, config.stage_latency),
            config,
            batches: 0,
            children: Vec::new(),
        }
    }

    /// Builds the paper's default configuration.
    pub fn with_defaults() -> Self {
        Self::new(AtfimConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &AtfimConfig {
        &self.config
    }

    /// Processes one offloaded parent-fetch batch end to end against the
    /// vaults of `hmc`.
    pub fn process(
        &mut self,
        arrival: Cycle,
        batch: &ParentFetchBatch,
        hmc: &mut Hmc,
    ) -> AtfimResponse {
        self.batches += 1;
        let parents = batch.parent_line_addrs.len();
        if parents == 0 {
            return AtfimResponse {
                completion: arrival,
                child_reads: 0,
                merged_reads: 0,
            };
        }

        // Reserve parent-buffer entries; a full buffer delays the batch
        // by one drain epoch (approximated as one stage latency per
        // missing entry batch).
        let granted = self.parent_buffer.try_allocate(parents);
        let stall = if granted < parents {
            Duration::new(self.config.stage_latency)
        } else {
            Duration::ZERO
        };

        // 1. Texel Generator.
        let mut children = std::mem::take(&mut self.children);
        let gen_done = self
            .generator
            .generate_into(arrival + stall, batch, &mut children);

        // 2. Child Texel Consolidation.
        let before = children.len() as u64;
        let unique = self.consolidator.consolidate(children);
        let merged = before - unique.len() as u64;

        // 3. Vault reads (internal — never on the external links).
        let mut data_ready = gen_done;
        for &line in &unique {
            let r = MemRequest::read(TrafficClass::TextureFetch, line, batch.line_bytes.max(1));
            data_ready = data_ready.max(hmc.access_internal(gen_done, &r));
        }

        // 4. Combination Unit.
        let completion = self.combiner.combine(data_ready, before, parents as u64);

        // Retire buffer entries.
        self.parent_buffer.release(granted);

        let child_reads = unique.len() as u64;
        self.children = unique;
        AtfimResponse {
            completion,
            child_reads,
            merged_reads: merged,
        }
    }

    /// Batches processed.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// The consolidator (merge statistics).
    pub fn consolidator(&self) -> &ChildConsolidator {
        &self.consolidator
    }

    /// The parent buffer (occupancy statistics).
    pub fn parent_buffer(&self) -> &ParentTexelBuffer {
        &self.parent_buffer
    }

    /// Combined busy cycles of the generator and combiner (energy).
    pub fn compute_busy(&self) -> Duration {
        self.generator.busy() + self.combiner.busy()
    }

    /// Records the A-TFIM stages: generator and combiner busy cycles
    /// (summing to [`AtfimLogicLayer::compute_busy`]) plus the Parent
    /// Texel Buffer's backpressure stalls under `pim.atfim.buffer`.
    pub fn record_trace(&self, trace: &mut StageTrace) {
        trace.record(
            stage::PIM_ATFIM_GENERATE,
            StageCounters::busy(self.generator.busy().get()).with_ops(self.generator.generated()),
        );
        trace.record(
            stage::PIM_ATFIM_COMBINE,
            StageCounters::busy(self.combiner.busy().get()).with_ops(self.combiner.combined()),
        );
        trace.record(
            stage::PIM_ATFIM_BUFFER,
            StageCounters::stalled(self.parent_buffer.stalls()),
        );
    }

    /// Resets all state.
    pub fn reset(&mut self) {
        self.generator.reset();
        self.consolidator.reset();
        self.parent_buffer.reset();
        self.combiner.reset();
        self.batches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(parents: usize, ratio: u32) -> ParentFetchBatch {
        ParentFetchBatch {
            parent_line_addrs: (0..parents as u64).map(|i| i * 4096).collect(),
            aniso_ratio: ratio,
            major_axis_x: true,
            line_bytes: 64,
        }
    }

    #[test]
    fn children_scale_with_ratio() {
        let mut g = TexelGenerator::new(16, 4);
        let (_, c4) = g.generate(Cycle::ZERO, &batch(8, 4));
        assert_eq!(c4.len(), 32);
        let (_, c16) = g.generate(Cycle::ZERO, &batch(8, 16));
        assert_eq!(c16.len(), 128);
        assert_eq!(g.generated(), 160);
    }

    #[test]
    fn children_are_line_aligned_and_strided() {
        let mut g = TexelGenerator::new(16, 4);
        let b = ParentFetchBatch {
            parent_line_addrs: vec![4096],
            aniso_ratio: 4,
            major_axis_x: true,
            line_bytes: 64,
        };
        let (_, c) = g.generate(Cycle::ZERO, &b);
        assert!(c.iter().all(|a| a % 64 == 0));
        // 4 children at 16-byte steps centered on the parent: offsets
        // -32, -16, 0, +16 bytes, line-aligned => two distinct lines.
        assert_eq!(c, vec![4096 - 64, 4096 - 64, 4096, 4096]);
    }

    #[test]
    fn y_major_uses_row_stride() {
        let mut g = TexelGenerator::new(16, 4);
        let b = ParentFetchBatch {
            parent_line_addrs: vec![1 << 20],
            aniso_ratio: 2,
            major_axis_x: false,
            line_bytes: 64,
        };
        let (_, c) = g.generate(Cycle::ZERO, &b);
        assert_eq!(c[1] - c[0], 64 * 16 / 4);
    }

    #[test]
    fn process_end_to_end() {
        let mut hmc = Hmc::with_defaults();
        let mut logic = AtfimLogicLayer::with_defaults();
        let resp = logic.process(Cycle::ZERO, &batch(8, 4), &mut hmc);
        assert!(resp.completion > Cycle::ZERO);
        assert_eq!(resp.child_reads + resp.merged_reads, 32);
        assert_eq!(hmc.traffic().total().get(), 0, "all reads internal");
        assert!(hmc.internal_bytes() >= resp.child_reads * 64);
    }

    #[test]
    fn consolidation_reduces_reads_for_overlapping_parents() {
        let mut hmc = Hmc::with_defaults();
        let mut logic = AtfimLogicLayer::with_defaults();
        // Adjacent parents one line apart: their child runs overlap.
        let b = ParentFetchBatch {
            parent_line_addrs: vec![4096, 4160, 4224, 4288],
            aniso_ratio: 8,
            major_axis_x: true,
            line_bytes: 64,
        };
        let resp = logic.process(Cycle::ZERO, &b, &mut hmc);
        assert!(resp.merged_reads > 0, "overlap must merge");
        assert!(resp.child_reads < 32);
    }

    #[test]
    fn disabled_consolidation_reads_everything() {
        let mut hmc = Hmc::with_defaults();
        let cfg = AtfimConfig {
            consolidate: false,
            ..AtfimConfig::default()
        };
        let mut logic = AtfimLogicLayer::new(cfg);
        let b = ParentFetchBatch {
            parent_line_addrs: vec![4096, 4160],
            aniso_ratio: 8,
            major_axis_x: true,
            line_bytes: 64,
        };
        let resp = logic.process(Cycle::ZERO, &b, &mut hmc);
        assert_eq!(resp.merged_reads, 0);
        assert_eq!(resp.child_reads, 16);
    }

    #[test]
    fn higher_ratio_takes_longer() {
        let mut h1 = Hmc::with_defaults();
        let mut h2 = Hmc::with_defaults();
        let mut a = AtfimLogicLayer::with_defaults();
        let mut b = AtfimLogicLayer::with_defaults();
        let t4 = a.process(Cycle::ZERO, &batch(8, 4), &mut h1).completion;
        let t16 = b.process(Cycle::ZERO, &batch(8, 16), &mut h2).completion;
        assert!(t16 > t4);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut hmc = Hmc::with_defaults();
        let mut logic = AtfimLogicLayer::with_defaults();
        let resp = logic.process(
            Cycle::new(5),
            &ParentFetchBatch {
                parent_line_addrs: vec![],
                aniso_ratio: 4,
                major_axis_x: true,
                line_bytes: 64,
            },
            &mut hmc,
        );
        assert_eq!(resp.completion, Cycle::new(5));
        assert_eq!(resp.child_reads, 0);
    }

    #[test]
    fn trace_conserves_compute_busy_and_buffer_stalls() {
        let mut hmc = Hmc::with_defaults();
        // A one-entry buffer stalls every multi-parent batch.
        let cfg = AtfimConfig {
            parent_buffer_entries: 1,
            ..AtfimConfig::default()
        };
        let mut logic = AtfimLogicLayer::new(cfg);
        logic.process(Cycle::ZERO, &batch(8, 4), &mut hmc);
        logic.process(Cycle::ZERO, &batch(8, 4), &mut hmc);

        let mut t = StageTrace::new();
        logic.record_trace(&mut t);
        let gen = t.counters(stage::PIM_ATFIM_GENERATE);
        let com = t.counters(stage::PIM_ATFIM_COMBINE);
        assert_eq!(
            gen.busy_cycles + com.busy_cycles,
            logic.compute_busy().get(),
            "stage busy cycles conserve compute_busy"
        );
        assert_eq!(
            t.counters(stage::PIM_ATFIM_BUFFER).stalls,
            logic.parent_buffer().stalls()
        );
        assert!(t.counters(stage::PIM_ATFIM_BUFFER).stalls > 0);
    }

    #[test]
    fn reset_restores_state() {
        let mut hmc = Hmc::with_defaults();
        let mut logic = AtfimLogicLayer::with_defaults();
        logic.process(Cycle::ZERO, &batch(4, 4), &mut hmc);
        logic.reset();
        assert_eq!(logic.batches(), 0);
        assert_eq!(logic.compute_busy(), Duration::ZERO);
        assert_eq!(logic.parent_buffer().occupied(), 0);
    }
}
