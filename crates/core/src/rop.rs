//! Raster-operations back end: depth and color buffer traffic.
//!
//! The ROP contributes three of the five traffic classes of Fig. 2:
//! Z-test reads/writes, final frame-buffer writes, and color-buffer
//! read-modify-writes for pixels written more than once (blending /
//! overdraw). Z and color are cached per screen tile, so traffic is
//! charged at tile granularity — one depth-block load + store and one
//! color-block store per touched tile per frame, plus per-pixel RMW
//! traffic for overdraw.

use crate::backend::MemoryBackend;
use pimgfx_engine::trace::{stage, StageCounters, StageTrace};
use pimgfx_engine::Cycle;
use pimgfx_mem::{MemRequest, MemorySystem, TrafficClass};
use pimgfx_raster::Fragment;

/// Base address of the simulated depth buffer.
const Z_BASE: u64 = 0x0000_0000;
/// Base address of the simulated color buffer.
const COLOR_BASE: u64 = 0x0100_0000;
/// Bytes per depth or color sample.
const SAMPLE_BYTES: u64 = 4;
/// Depth-block compression ratio (tile z-compression is standard in
/// rasterization GPUs of this era; 4:1 is a typical plane-encoded rate).
const Z_COMPRESSION: u64 = 4;
/// Color-block compression ratio (lossless DCC-style, more conservative).
const COLOR_COMPRESSION: u64 = 2;

/// The ROP traffic model.
#[derive(Debug)]
pub struct Rop {
    tile_px: u32,
    tiles_x: u32,
    /// Pixels already written this frame (for overdraw RMW accounting).
    written: Vec<bool>,
    width: u32,
    /// Per tile, by [`linear_index`]: (fragments retired,
    /// overdraw rewrites) this frame. A tile with no retired fragment
    /// was not touched.
    ///
    /// [`linear_index`]: pimgfx_types::TileCoord::linear_index
    tile_activity: Vec<(u64, u64)>,
    first_writes: u64,
    rewrites: u64,
    /// Fragments retired over the whole trace (survives `begin_frame`).
    retired_total: u64,
    /// Bytes flushed to memory over the whole trace.
    flushed_bytes_total: u64,
}

impl Rop {
    /// Creates the ROP for a `width`×`height` framebuffer with
    /// `tile_px` tiles.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(width: u32, height: u32, tile_px: u32) -> Self {
        assert!(
            width > 0 && height > 0 && tile_px > 0,
            "ROP dimensions must be nonzero"
        );
        Self {
            tile_px,
            tiles_x: width.div_ceil(tile_px),
            written: vec![false; (width * height) as usize],
            width,
            tile_activity: vec![
                (0, 0);
                (width.div_ceil(tile_px) * height.div_ceil(tile_px)) as usize
            ],
            first_writes: 0,
            rewrites: 0,
            retired_total: 0,
            flushed_bytes_total: 0,
        }
    }

    /// Retires one shaded fragment: records its write class.
    pub fn retire(&mut self, frag: &Fragment) {
        self.retired_total += 1;
        let idx = (frag.y * self.width + frag.x) as usize;
        let tile = frag.tile(self.tile_px).linear_index(self.tiles_x) as usize;
        let entry = &mut self.tile_activity[tile];
        entry.0 += 1;
        if self.written[idx] {
            entry.1 += 1;
            self.rewrites += 1;
        } else {
            self.written[idx] = true;
            self.first_writes += 1;
        }
    }

    /// Flushes the frame's ROP traffic to memory at `when`; returns the
    /// completion of the last write.
    pub fn flush_frame(&mut self, when: Cycle, mem: &mut MemoryBackend) -> Cycle {
        let mut done = when;
        let raw_block = u64::from(self.tile_px) * u64::from(self.tile_px) * SAMPLE_BYTES;
        let z_block = raw_block / Z_COMPRESSION;
        let c_block = raw_block / COLOR_COMPRESSION;
        // Linear order is row-major `(ty, tx)` order.
        for (tile, &(retired, rewrites)) in self.tile_activity.iter().enumerate() {
            if retired == 0 {
                continue;
            }
            let tile_off = tile as u64 * raw_block;
            // Depth block: load + store once per touched tile (compressed).
            let z_read = MemRequest::read(TrafficClass::ZTest, Z_BASE + tile_off, z_block as u32);
            let z_write = MemRequest::write(TrafficClass::ZTest, Z_BASE + tile_off, z_block as u32);
            done = done.max(mem.access_external(when, &z_read));
            done = done.max(mem.access_external(when, &z_write));
            self.flushed_bytes_total += z_read.external_bytes() + z_write.external_bytes();
            // Final color block store (compressed).
            let c_write = MemRequest::write(
                TrafficClass::FrameBuffer,
                COLOR_BASE + tile_off,
                c_block as u32,
            );
            done = done.max(mem.access_external(when, &c_write));
            self.flushed_bytes_total += c_write.external_bytes();
            // Overdraw read-modify-writes: 8 bytes per rewritten pixel.
            if rewrites > 0 {
                let bytes = (rewrites * 2 * SAMPLE_BYTES).min(u64::from(u32::MAX)) as u32;
                let rmw = MemRequest::read(TrafficClass::ColorBuffer, COLOR_BASE + tile_off, bytes);
                done = done.max(mem.access_external(when, &rmw));
                self.flushed_bytes_total += rmw.external_bytes();
            }
        }
        self.begin_frame();
        done
    }

    /// `(first writes, overdraw rewrites)` counters for the current
    /// frame so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.first_writes, self.rewrites)
    }

    /// Records the `rop` stage: fragments retired as `ops`, flushed
    /// framebuffer traffic as `bytes`, both cumulative over the trace.
    /// The flushed bytes are counted as charged on the external
    /// interface (payload plus packet headers), so they equal the
    /// Z-test, frame-buffer, and color-buffer traffic exactly — the
    /// auditor cross-checks this against the memory system's per-class
    /// counters.
    pub fn record_trace(&self, trace: &mut StageTrace) {
        trace.record(
            stage::ROP,
            StageCounters::traffic(self.retired_total, self.flushed_bytes_total),
        );
    }

    /// Clears per-frame state.
    pub fn begin_frame(&mut self) {
        self.written.fill(false);
        self.tile_activity.fill((0, 0));
        self.first_writes = 0;
        self.rewrites = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use pimgfx_types::{Radians, TextureId, Vec2};

    fn frag(x: u32, y: u32) -> Fragment {
        Fragment {
            x,
            y,
            depth: 0.5,
            uv: Vec2::ZERO,
            duv_dx: Vec2::ZERO,
            duv_dy: Vec2::ZERO,
            camera_angle: Radians::ZERO,
            texture: TextureId::new(0),
        }
    }

    fn mem() -> MemoryBackend {
        MemoryBackend::from_config(&SimConfig::default()).expect("valid")
    }

    #[test]
    fn first_write_vs_rewrite() {
        let mut rop = Rop::new(32, 32, 16);
        rop.retire(&frag(1, 1));
        rop.retire(&frag(1, 1));
        rop.retire(&frag(2, 1));
        assert_eq!(rop.stats(), (2, 1));
    }

    #[test]
    fn flush_generates_z_and_color_traffic() {
        let mut rop = Rop::new(32, 32, 16);
        rop.retire(&frag(0, 0));
        rop.retire(&frag(20, 20));
        let mut m = mem();
        let done = rop.flush_frame(Cycle::ZERO, &mut m);
        assert!(done > Cycle::ZERO);
        let t = m.traffic();
        assert!(t.bytes(TrafficClass::ZTest).get() > 0);
        assert!(t.bytes(TrafficClass::FrameBuffer).get() > 0);
        // No overdraw: no color-buffer RMW.
        assert_eq!(t.bytes(TrafficClass::ColorBuffer).get(), 0);
    }

    #[test]
    fn overdraw_adds_color_buffer_traffic() {
        let mut rop = Rop::new(32, 32, 16);
        rop.retire(&frag(3, 3));
        rop.retire(&frag(3, 3));
        let mut m = mem();
        rop.flush_frame(Cycle::ZERO, &mut m);
        assert!(m.traffic().bytes(TrafficClass::ColorBuffer).get() > 0);
    }

    #[test]
    fn traffic_scales_with_touched_tiles() {
        let mut one = Rop::new(64, 64, 16);
        one.retire(&frag(0, 0));
        let mut m1 = mem();
        one.flush_frame(Cycle::ZERO, &mut m1);

        let mut four = Rop::new(64, 64, 16);
        for (x, y) in [(0, 0), (20, 0), (0, 20), (20, 20)] {
            four.retire(&frag(x, y));
        }
        let mut m4 = mem();
        four.flush_frame(Cycle::ZERO, &mut m4);
        assert_eq!(
            m4.traffic().bytes(TrafficClass::ZTest).get(),
            4 * m1.traffic().bytes(TrafficClass::ZTest).get()
        );
    }

    #[test]
    fn flush_resets_frame_state() {
        let mut rop = Rop::new(32, 32, 16);
        rop.retire(&frag(0, 0));
        let mut m = mem();
        rop.flush_frame(Cycle::ZERO, &mut m);
        assert_eq!(rop.stats(), (0, 0));
        // The same pixel is a first write again next frame.
        rop.retire(&frag(0, 0));
        assert_eq!(rop.stats(), (1, 0));
    }

    #[test]
    fn trace_matches_charged_external_traffic() {
        let mut rop = Rop::new(32, 32, 16);
        rop.retire(&frag(0, 0));
        rop.retire(&frag(0, 0)); // overdraw
        rop.retire(&frag(20, 20));
        let mut m = mem();
        rop.flush_frame(Cycle::ZERO, &mut m);

        let mut t = pimgfx_engine::StageTrace::new();
        rop.record_trace(&mut t);
        let c = t.counters(pimgfx_engine::trace::stage::ROP);
        assert_eq!(c.ops, 3, "all retired fragments traced across flushes");
        let charged = m.traffic().bytes(TrafficClass::ZTest).get()
            + m.traffic().bytes(TrafficClass::FrameBuffer).get()
            + m.traffic().bytes(TrafficClass::ColorBuffer).get();
        assert_eq!(c.bytes, charged, "rop stage bytes conserve ROP traffic");
    }
}
