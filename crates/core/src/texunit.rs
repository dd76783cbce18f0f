//! GPU-side texture-unit timing.
//!
//! Each shader cluster owns one texture unit (Table I: 4 address ALUs,
//! 8 filtering ALUs, deeply pipelined). A texture sample occupies its
//! unit for `ceil(texels / addr_alus)` address-generation slots and
//! `ceil(texels / filter_alus)` filtering slots; the filtered result
//! appears `pipeline_latency` cycles after the last filtering slot. The
//! occupancy (not the latency) is what bounds texture throughput — the
//! quantity A-TFIM slashes by moving the anisotropic expansion into the
//! HMC.

use crate::config::TextureUnitConfig;
use pimgfx_engine::trace::{stage, StageTrace};
use pimgfx_engine::{Cycle, Duration, Server};

/// The bank of per-cluster texture units.
#[derive(Debug)]
pub struct TextureUnits {
    config: TextureUnitConfig,
    addr_pipes: Vec<Server>,
    filter_pipes: Vec<Server>,
    samples: u64,
}

impl TextureUnits {
    /// Creates the bank.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero units or ALUs.
    pub fn new(config: TextureUnitConfig) -> Self {
        assert!(config.units > 0, "need at least one texture unit");
        assert!(
            config.addr_alus > 0 && config.filter_alus > 0,
            "texture unit ALU counts must be nonzero"
        );
        Self {
            // trace:stage(tex.addr)
            addr_pipes: (0..config.units).map(|_| Server::new(1, 1)).collect(),
            // trace:stage(tex.filter)
            filter_pipes: (0..config.units)
                .map(|_| Server::new(1, config.pipeline_latency))
                .collect(),
            config,
            samples: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TextureUnitConfig {
        &self.config
    }

    /// Issues address generation for `texels` texels on `cluster`'s
    /// unit; returns when the addresses are ready.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn generate_addresses(&mut self, cluster: usize, arrival: Cycle, texels: u32) -> Cycle {
        let per_cycle = self.config.addr_texels_per_cycle.max(1);
        let slots = u64::from(texels.max(1)).div_ceil(u64::from(per_cycle));
        self.addr_pipes[cluster].issue_weighted(arrival, slots)
    }

    /// Issues filtering arithmetic for `texels` texels on `cluster`'s
    /// unit once its inputs are available at `data_ready`; returns when
    /// the filtered texture is produced.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn filter(&mut self, cluster: usize, data_ready: Cycle, texels: u32) -> Cycle {
        self.samples += 1;
        let per_cycle = self.config.filter_texels_per_cycle.max(1);
        let slots = u64::from(texels.max(1)).div_ceil(u64::from(per_cycle));
        self.filter_pipes[cluster].issue_weighted(data_ready, slots)
    }

    /// Samples filtered so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Total busy cycles across all pipes (energy model input).
    pub fn total_busy(&self) -> Duration {
        self.addr_pipes
            .iter()
            .chain(self.filter_pipes.iter())
            .map(|s| s.utilization().busy())
            .sum()
    }

    /// Records the GPU texture stages into a trace: one `tex.addr` and
    /// one `tex.filter` entry, each merged across all units so
    /// `busy_cycles` sums to [`TextureUnits::total_busy`].
    pub fn record_trace(&self, trace: &mut StageTrace) {
        for pipe in &self.addr_pipes {
            trace.record_server(stage::TEX_ADDR, pipe);
        }
        for pipe in &self.filter_pipes {
            trace.record_server(stage::TEX_FILTER, pipe);
        }
    }

    /// Latest completion among all units (frame-end accounting).
    pub fn last_completion(&self) -> Cycle {
        self.filter_pipes
            .iter()
            .map(Server::next_free)
            .fold(Cycle::ZERO, Cycle::max)
    }

    /// Resets timing between frames.
    pub fn reset(&mut self) {
        for p in self
            .addr_pipes
            .iter_mut()
            .chain(self.filter_pipes.iter_mut())
        {
            p.reset();
        }
        self.samples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units() -> TextureUnits {
        TextureUnits::new(TextureUnitConfig::default())
    }

    #[test]
    fn occupancy_scales_with_texel_count() {
        let mut u = units();
        // 8 texels at 6 addresses/cycle = 2 slots; the last slot starts
        // one cycle in, plus the 1-cycle address latency.
        let a8 = u.generate_addresses(0, Cycle::ZERO, 8);
        assert_eq!(a8, Cycle::new(1 + 1));
        // 128 texels (16x aniso) = 22 slots, queued behind the first.
        let a128 = u.generate_addresses(0, Cycle::ZERO, 128);
        assert_eq!(a128, Cycle::new(2 + 21 + 1));
    }

    #[test]
    fn filtering_uses_dual_issue_alus() {
        let mut u = units();
        // 8 texels at 16/cycle = 1 slot; completes at start + latency.
        let f = u.filter(0, Cycle::ZERO, 8);
        assert_eq!(f, Cycle::new(8));
        // 128 texels = 8 slots; the last starts 7 cycles in.
        let f2 = u.filter(1, Cycle::ZERO, 128);
        assert_eq!(f2, Cycle::new(7 + 8));
    }

    #[test]
    fn clusters_are_independent() {
        let mut u = units();
        let a = u.filter(0, Cycle::ZERO, 64);
        let b = u.filter(5, Cycle::ZERO, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_texels_clamp_to_one_slot() {
        let mut u = units();
        let f = u.filter(0, Cycle::ZERO, 0);
        assert_eq!(f, Cycle::new(8));
    }

    #[test]
    fn busy_and_samples_accumulate() {
        let mut u = units();
        u.generate_addresses(0, Cycle::ZERO, 8);
        u.filter(0, Cycle::new(3), 8);
        assert_eq!(u.samples(), 1);
        assert_eq!(u.total_busy(), Duration::new(2 + 1)); // 2 addr + 1 filter
        assert!(u.last_completion() > Cycle::ZERO);
        u.reset();
        assert_eq!(u.samples(), 0);
        assert_eq!(u.total_busy(), Duration::ZERO);
    }

    #[test]
    fn trace_conserves_busy_cycles() {
        let mut u = units();
        u.generate_addresses(0, Cycle::ZERO, 8);
        u.generate_addresses(3, Cycle::ZERO, 128);
        u.filter(0, Cycle::new(3), 8);
        u.filter(3, Cycle::new(5), 128);
        let mut t = StageTrace::new();
        u.record_trace(&mut t);
        assert_eq!(
            t.counters(stage::TEX_ADDR).busy_cycles + t.counters(stage::TEX_FILTER).busy_cycles,
            u.total_busy().get()
        );
        assert_eq!(t.counters(stage::TEX_FILTER).ops, u.samples());
    }
}
