//! Simulation statistics and the per-run report.
//!
//! [`RenderReport`] is the simulator's single output artifact: cycle and
//! frame-rate results (Fig. 10), off-chip/in-stack traffic split
//! (Figs. 11–12), energy (Fig. 13), texture-path counters, and the
//! functionally rendered frames used for the PSNR quality comparison
//! (Fig. 15). Reports are plain owned data — `Send + Sync`, cheap to
//! collect from parallel sweep workers, and everything `pimgfx-bench`
//! prints or serializes into run manifests is derived from them.

use crate::design::Design;
use pimgfx_energy::EnergyReport;
use pimgfx_engine::trace::{stage, StageTrace};
use pimgfx_mem::{TrafficClass, TrafficStats};
use pimgfx_quality::FrameImage;
use pimgfx_raster::RasterStats;
use pimgfx_types::{ByteCount, ConfigError};
use std::fmt;

/// Counters accumulated by the texture path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TextureStats {
    /// Texture samples issued by fragments.
    pub samples: u64,
    /// Sum of per-sample latencies, cycles.
    pub latency_cycles: u64,
    /// L1 texture-cache hits.
    pub l1_hits: u64,
    /// L1 misses (capacity/conflict).
    pub l1_misses: u64,
    /// L1 angle-tag misses (A-TFIM recalculations).
    pub l1_angle_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L2 angle-tag misses.
    pub l2_angle_misses: u64,
    /// Texels the conventional pipeline would fetch for the sampled
    /// footprints (8 × anisotropy ratio per sample).
    pub conventional_texels: u64,
    /// Texels actually filtered by the GPU texture units.
    pub texels_filtered_gpu: u64,
    /// Offload packages shipped to the logic layer (S-TFIM requests or
    /// A-TFIM parent batches).
    pub offload_packages: u64,
    /// Child-texel vault reads performed in the HMC (A-TFIM).
    pub child_reads: u64,
    /// Child reads eliminated by consolidation (A-TFIM).
    pub merged_child_reads: u64,
    /// Histogram of applied anisotropy ratios: buckets for 1×, 2×, 4×,
    /// 8× and 16× (index = log2 of the ratio).
    pub aniso_histogram: [u64; 5],
}

impl TextureStats {
    /// Mean per-sample texture-filtering latency in cycles (0 when no
    /// samples ran).
    pub fn avg_latency(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.latency_cycles as f64 / self.samples as f64
        }
    }

    /// Records one sample's anisotropy ratio in the histogram.
    pub fn record_aniso(&mut self, ratio: u32) {
        let bucket = (ratio.max(1).trailing_zeros() as usize).min(4);
        self.aniso_histogram[bucket] += 1;
    }

    /// Mean applied anisotropy ratio over all recorded samples (0 when
    /// none recorded).
    pub fn mean_aniso_ratio(&self) -> f64 {
        let total: u64 = self.aniso_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .aniso_histogram
            .iter()
            .enumerate()
            .map(|(i, &n)| n << i)
            .sum();
        weighted as f64 / total as f64
    }

    /// Total L1+L2 accesses (the cache-energy term).
    pub fn cache_accesses(&self) -> u64 {
        self.l1_hits
            + self.l1_misses
            + self.l1_angle_misses
            + self.l2_hits
            + self.l2_misses
            + self.l2_angle_misses
    }

    /// L1 hit rate including angle misses as misses.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses + self.l1_angle_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }
}

/// Per-frame summary within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameStats {
    /// Frame index within the trace.
    pub frame: u32,
    /// Cycles this frame took (end minus start).
    pub cycles: u64,
    /// Fragments that survived early Z this frame.
    pub fragments: u64,
    /// Texture samples issued this frame.
    pub texture_samples: u64,
}

/// The full result of simulating a trace under one configuration.
///
/// `PartialEq` compares every field — cycles, counters, energy, the
/// rendered image, and the stage traces — so replay-equivalence tests
/// can assert a cached-frontend replay is bit-identical to a direct
/// render.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderReport {
    /// The design simulated.
    pub design: Design,
    /// Frames rendered.
    pub frames: u32,
    /// Total cycles to render the whole trace.
    pub total_cycles: u64,
    /// Texture-path counters.
    pub texture: TextureStats,
    /// External (off-chip) traffic by source.
    pub traffic: TrafficStats,
    /// Bytes moved on internal HMC paths.
    pub internal_bytes: u64,
    /// Rasterizer counters summed over frames.
    pub raster: RasterStats,
    /// Shader-cluster busy cycles (summed over clusters).
    pub shader_busy_cycles: u64,
    /// GPU texture-unit busy cycles (summed over units).
    pub texture_busy_cycles: u64,
    /// Logic-layer compute busy cycles (MTUs / A-TFIM units).
    pub pim_busy_cycles: u64,
    /// Energy breakdown.
    pub energy: EnergyReport,
    /// The last rendered frame (for quality metrics).
    pub image: FrameImage,
    /// Per-frame summaries, in trace order.
    pub per_frame: Vec<FrameStats>,
    /// Per-stage counters over the whole run (the taxonomy in
    /// [`pimgfx_engine::trace::stage`]); [`RenderReport::audit`]
    /// asserts these conserve the headline totals above.
    pub trace: StageTrace,
    /// Per-frame deltas of the compute-side stages (memory traffic is
    /// accounted once, at end of run, so it is absent here).
    pub per_frame_trace: Vec<StageTrace>,
}

impl RenderReport {
    /// Total texture traffic on the external interface (the Fig. 12
    /// quantity).
    pub fn texture_traffic(&self) -> ByteCount {
        let tex = self.traffic.bytes(TrafficClass::TextureFetch);
        debug_assert!(
            tex <= self.traffic.total(),
            "per-class traffic cannot exceed the grand total"
        );
        tex
    }

    /// Overall rendering speedup of `self` relative to `baseline`
    /// (ratios of total cycles; > 1 means faster).
    pub fn render_speedup_vs(&self, baseline: &RenderReport) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Texture-filtering speedup relative to `baseline` (ratio of mean
    /// per-sample latencies, the paper's Fig. 10 metric).
    pub fn texture_speedup_vs(&self, baseline: &RenderReport) -> f64 {
        let own = self.texture.avg_latency();
        if own == 0.0 {
            return 0.0;
        }
        baseline.texture.avg_latency() / own
    }

    /// Texture traffic normalized to `baseline` (the Fig. 12 metric).
    pub fn traffic_normalized_to(&self, baseline: &RenderReport) -> f64 {
        self.texture_traffic().ratio_to(baseline.texture_traffic())
    }

    /// Total energy normalized to `baseline` (the Fig. 13 metric).
    pub fn energy_normalized_to(&self, baseline: &RenderReport) -> f64 {
        self.energy.normalized_to(&baseline.energy)
    }

    /// Cycle-conservation audit: asserts that the per-stage trace sums
    /// reproduce every headline total in this report — exactly for
    /// integer counters, within `1e-9` relative for energy.
    ///
    /// Checks, in order:
    /// - `shader.alu` busy cycles equal [`RenderReport::shader_busy_cycles`];
    /// - `tex.addr` + `tex.filter` busy cycles equal
    ///   [`RenderReport::texture_busy_cycles`];
    /// - `pim.mtu.filter` + `pim.atfim.generate` + `pim.atfim.combine`
    ///   busy cycles equal [`RenderReport::pim_busy_cycles`]
    ///   (`pim.mtu.addr` is informational and deliberately excluded);
    /// - each `mem.external.<class>` stage's bytes equal the per-class
    ///   traffic counter, and their sum equals the traffic total;
    /// - `mem.internal` bytes equal [`RenderReport::internal_bytes`];
    /// - `rop` ops equal the retired fragment count and `rop` bytes
    ///   equal the Z-test + frame-buffer + color-buffer traffic;
    /// - the per-frame trace partitions the run: one entry per frame,
    ///   and each stage's per-frame deltas sum to its trace total;
    /// - the energy components independently re-summed equal
    ///   [`EnergyReport::total_nj`] within `1e-9` relative.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first counter that fails to
    /// conserve.
    pub fn audit(&self) -> pimgfx_types::Result<()> {
        let fail = |what: String| Err(ConfigError::new("audit", what));

        let shader = self.trace.busy_sum(stage::SHADER_ALU);
        if shader != self.shader_busy_cycles {
            return fail(format!(
                "shader.alu busy {shader} != shader_busy_cycles {}",
                self.shader_busy_cycles
            ));
        }
        let tex = self.trace.busy_sum("tex.");
        if tex != self.texture_busy_cycles {
            return fail(format!(
                "tex.* busy {tex} != texture_busy_cycles {}",
                self.texture_busy_cycles
            ));
        }
        let pim = self.trace.busy_sum(stage::PIM_MTU_FILTER)
            + self.trace.busy_sum(stage::PIM_ATFIM_GENERATE)
            + self.trace.busy_sum(stage::PIM_ATFIM_COMBINE);
        if pim != self.pim_busy_cycles {
            return fail(format!(
                "pim filter/generate/combine busy {pim} != pim_busy_cycles {}",
                self.pim_busy_cycles
            ));
        }
        for class in TrafficClass::ALL {
            let name = format!("{}{}", stage::MEM_EXTERNAL_PREFIX, class.label());
            let c = self.trace.counters(&name);
            let want = self.traffic.bytes(class).get();
            if c.bytes != want {
                return fail(format!("{name} bytes {} != traffic {want}", c.bytes));
            }
            if c.ops != self.traffic.requests(class) {
                return fail(format!(
                    "{name} ops {} != traffic requests {}",
                    c.ops,
                    self.traffic.requests(class)
                ));
            }
        }
        let external = self.trace.bytes_sum(stage::MEM_EXTERNAL_PREFIX);
        if external != self.traffic.total().get() {
            return fail(format!(
                "mem.external.* bytes {external} != traffic total {}",
                self.traffic.total()
            ));
        }
        let internal = self.trace.counters(stage::MEM_INTERNAL).bytes;
        if internal != self.internal_bytes {
            return fail(format!(
                "mem.internal bytes {internal} != internal_bytes {}",
                self.internal_bytes
            ));
        }
        let rop = self.trace.counters(stage::ROP);
        if rop.ops != self.raster.fragments_out {
            return fail(format!(
                "rop ops {} != retired fragments {}",
                rop.ops, self.raster.fragments_out
            ));
        }
        let rop_traffic = self.traffic.bytes(TrafficClass::ZTest).get()
            + self.traffic.bytes(TrafficClass::FrameBuffer).get()
            + self.traffic.bytes(TrafficClass::ColorBuffer).get();
        if rop.bytes != rop_traffic {
            return fail(format!(
                "rop bytes {} != z-test + frame-buffer + color-buffer traffic {rop_traffic}",
                rop.bytes
            ));
        }
        if self.per_frame_trace.len() != self.frames as usize {
            return fail(format!(
                "{} per-frame traces for {} frames",
                self.per_frame_trace.len(),
                self.frames
            ));
        }
        let mut frame_sum = StageTrace::new();
        for t in &self.per_frame_trace {
            frame_sum.merge(t);
        }
        for (name, summed) in frame_sum.iter() {
            if *summed != self.trace.counters(name) {
                return fail(format!(
                    "per-frame deltas for {name} sum to {summed:?} but the run total is {:?}",
                    self.trace.counters(name)
                ));
            }
        }
        let e = &self.energy;
        let component_sum = e.shader_nj
            + e.texture_nj
            + e.pim_nj
            + e.cache_nj
            + e.link_nj
            + e.tsv_nj
            + e.dram_nj
            + e.gddr5_nj
            + e.leakage_nj;
        let total = e.total_nj();
        if !(component_sum.is_finite() && total.is_finite())
            || (component_sum - total).abs() > 1e-9 * total.abs().max(1.0)
        {
            return fail(format!(
                "energy components sum to {component_sum} nJ but total_nj is {total} nJ"
            ));
        }
        Ok(())
    }
}

impl fmt::Display for RenderReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "design         : {}", self.design)?;
        writeln!(f, "frames         : {}", self.frames)?;
        writeln!(f, "total cycles   : {}", self.total_cycles)?;
        writeln!(f, "tex samples    : {}", self.texture.samples)?;
        writeln!(
            f,
            "tex avg latency: {:.1} cycles",
            self.texture.avg_latency()
        )?;
        writeln!(
            f,
            "l1 hit rate    : {:.1}%",
            self.texture.l1_hit_rate() * 100.0
        )?;
        writeln!(f, "texture traffic: {}", self.texture_traffic())?;
        writeln!(f, "total traffic  : {}", self.traffic.total())?;
        write!(f, "energy total   : {:.1} nJ", self.energy.total_nj())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_quality::FrameImage;
    use pimgfx_types::Rgba;

    fn report(cycles: u64, latency: u64, samples: u64) -> RenderReport {
        RenderReport {
            design: Design::Baseline,
            frames: 1,
            total_cycles: cycles,
            texture: TextureStats {
                samples,
                latency_cycles: latency,
                ..TextureStats::default()
            },
            traffic: TrafficStats::new(),
            internal_bytes: 0,
            raster: RasterStats::default(),
            shader_busy_cycles: 0,
            texture_busy_cycles: 0,
            pim_busy_cycles: 0,
            energy: EnergyReport::default(),
            image: FrameImage::filled(2, 2, Rgba::BLACK),
            per_frame: Vec::new(),
            trace: StageTrace::new(),
            per_frame_trace: vec![StageTrace::new()],
        }
    }

    #[test]
    fn avg_latency_divides_by_samples() {
        let t = TextureStats {
            samples: 4,
            latency_cycles: 100,
            ..TextureStats::default()
        };
        assert_eq!(t.avg_latency(), 25.0);
        assert_eq!(TextureStats::default().avg_latency(), 0.0);
    }

    #[test]
    fn speedups_are_ratios() {
        let base = report(1000, 400, 4);
        let fast = report(500, 100, 4);
        assert_eq!(fast.render_speedup_vs(&base), 2.0);
        assert_eq!(fast.texture_speedup_vs(&base), 4.0);
        assert_eq!(base.render_speedup_vs(&base), 1.0);
    }

    #[test]
    fn aniso_histogram_buckets_and_mean() {
        let mut t = TextureStats::default();
        for r in [1u32, 2, 2, 4, 16, 16, 16, 16] {
            t.record_aniso(r);
        }
        assert_eq!(t.aniso_histogram, [1, 2, 1, 0, 4]);
        // (1 + 2 + 2 + 4 + 16*4) / 8 = 73/8
        assert!((t.mean_aniso_ratio() - 73.0 / 8.0).abs() < 1e-12);
        assert_eq!(TextureStats::default().mean_aniso_ratio(), 0.0);
    }

    #[test]
    fn hit_rate_counts_angle_misses() {
        let t = TextureStats {
            l1_hits: 6,
            l1_misses: 2,
            l1_angle_misses: 2,
            ..TextureStats::default()
        };
        assert!((t.l1_hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn audit_accepts_consistent_and_flags_drift() {
        use pimgfx_engine::trace::StageCounters;
        let mut r = report(100, 10, 1);
        assert!(r.audit().is_ok(), "all-zero report conserves trivially");
        r.shader_busy_cycles = 7;
        let err = r.audit().expect_err("untraced busy cycles must fail");
        assert!(err.to_string().contains("shader.alu"), "got: {err}");
        r.shader_busy_cycles = 0;
        r.trace.record(stage::ROP, StageCounters::traffic(5, 0));
        assert!(r.audit().is_err(), "rop ops without retired fragments");
    }

    #[test]
    fn display_summarizes() {
        let r = report(123, 10, 1);
        let s = r.to_string();
        assert!(s.contains("total cycles   : 123"));
        assert!(s.contains("baseline"));
    }
}
