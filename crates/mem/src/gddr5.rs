//! The baseline GDDR5 memory system.

use crate::bank::{Bank, DramTiming};
use crate::layout::AddressLayout;
use crate::request::MemRequest;
use crate::traffic::TrafficStats;
use crate::MemorySystem;
use pimgfx_engine::trace::{stage, StageTrace};
use pimgfx_engine::{Bandwidth, Cycle, Duration};

/// Fixed command/address-bus latency per read command, cycles.
const CMD_LATENCY: u64 = 2;
use pimgfx_types::{ConfigError, Result};

/// Configuration of the GDDR5 system.
///
/// Defaults match the paper's Table I baseline: 128 GB/s of off-chip
/// bandwidth, counted in GPU cycles at 1 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gddr5Config {
    /// Aggregate off-chip bandwidth in GB/s.
    pub bandwidth_gb_s: f64,
    /// GPU clock the timing is expressed in, GHz.
    pub gpu_clock_ghz: f64,
    /// Number of independent channels.
    pub channels: u64,
    /// Banks per channel.
    pub banks_per_channel: u64,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Interleaving granularity (cache-line bytes).
    pub line_bytes: u64,
    /// DRAM core timing.
    pub timing: DramTiming,
}

impl Default for Gddr5Config {
    fn default() -> Self {
        Self {
            bandwidth_gb_s: 128.0,
            gpu_clock_ghz: 1.0,
            channels: 8,
            banks_per_channel: 16,
            row_bytes: 2048,
            line_bytes: 64,
            timing: DramTiming::default(),
        }
    }
}

impl Gddr5Config {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when bandwidth, clock, or any structural
    /// parameter is non-positive.
    pub fn validate(&self) -> Result<()> {
        if self.bandwidth_gb_s <= 0.0 || self.bandwidth_gb_s.is_nan() {
            return Err(ConfigError::new("gddr5", "bandwidth must be positive"));
        }
        if self.gpu_clock_ghz <= 0.0 || self.gpu_clock_ghz.is_nan() {
            return Err(ConfigError::new("gddr5", "gpu clock must be positive"));
        }
        if self.channels == 0 || self.banks_per_channel == 0 {
            return Err(ConfigError::new(
                "gddr5",
                "channels and banks must be nonzero",
            ));
        }
        if self.row_bytes == 0 || self.line_bytes == 0 {
            return Err(ConfigError::new(
                "gddr5",
                "row and line sizes must be nonzero",
            ));
        }
        Ok(())
    }
}

/// The GDDR5 memory system: a shared bus in front of banked channels.
///
/// # Examples
///
/// ```
/// use pimgfx_engine::Cycle;
/// use pimgfx_mem::{Gddr5, MemRequest, MemorySystem, TrafficClass};
///
/// let mut mem = Gddr5::with_defaults();
/// let done = mem.access_external(
///     Cycle::ZERO,
///     &MemRequest::read(TrafficClass::TextureFetch, 0x200, 64),
/// );
/// assert!(done > Cycle::ZERO);
/// assert_eq!(mem.traffic().requests(TrafficClass::TextureFetch), 1);
/// ```
#[derive(Debug)]
pub struct Gddr5 {
    config: Gddr5Config,
    /// One bus per channel; the aggregate bandwidth of Table I is split
    /// evenly across channels, which access independent bank sets.
    buses: Vec<Bandwidth>,
    banks: Vec<Bank>,
    layout: AddressLayout,
    traffic: TrafficStats,
    internal_bytes: u64,
}

impl Gddr5 {
    /// Builds the system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: Gddr5Config) -> Result<Self> {
        config.validate()?;
        let layout = AddressLayout::new(
            config.channels,
            config.banks_per_channel,
            config.row_bytes,
            config.line_bytes,
        );
        let banks = (0..config.channels * config.banks_per_channel)
            .map(|_| Bank::new(config.timing))
            .collect();
        let per_channel = config.bandwidth_gb_s / config.channels as f64;
        let buses = (0..config.channels)
            .map(|_| Bandwidth::from_gb_per_sec(per_channel, config.gpu_clock_ghz))
            .collect();
        Ok(Self {
            buses,
            banks,
            layout,
            config,
            traffic: TrafficStats::new(),
            internal_bytes: 0,
        })
    }

    /// Builds the Table I baseline configuration.
    #[expect(
        clippy::expect_used,
        reason = "Table I defaults are compile-time constants; validity is pinned by the defaults_are_valid unit test"
    )]
    pub fn with_defaults() -> Self {
        Self::new(Gddr5Config::default()).expect("default GDDR5 config is valid")
    }

    /// The active configuration.
    pub fn config(&self) -> &Gddr5Config {
        &self.config
    }

    /// Records the `mem.gddr5.bus` stage: DQ-bus busy cycles, transfer
    /// events, and wire bytes, merged across all channels. Wire bytes
    /// include request/response headers and so exceed the per-class
    /// payload counters — the stage is informational, not audited.
    pub fn record_channel_trace(&self, trace: &mut StageTrace) {
        for bus in &self.buses {
            trace.record_bandwidth(stage::MEM_GDDR5_BUS, bus);
        }
    }

    fn bank_index(&self, addr: u64) -> usize {
        let unit = self.layout.unit(addr);
        let bank = self.layout.bank(addr);
        (unit * self.config.banks_per_channel + bank) as usize
    }

    fn service(&mut self, arrival: Cycle, req: &MemRequest) -> Cycle {
        // A request is split at cache-line granularity: each line is
        // serviced by its own channel and bank (fine-grained
        // interleaving), so large bursts — ROP tile blocks, vertex
        // streams — spread across the whole memory system instead of
        // hot-spotting one channel.
        let line_bytes = self.config.line_bytes;
        let lines = self
            .layout
            .lines_touched(req.addr, u64::from(req.bytes))
            .max(1);
        let first_line = req.addr / line_bytes;
        let header = match req.kind {
            crate::AccessKind::Read => req.upstream_bytes(),
            crate::AccessKind::Write => req.upstream_bytes() - u64::from(req.bytes),
        };
        let mut done = arrival;
        for i in 0..lines {
            let line_addr = (first_line + i) * line_bytes;
            let channel = self.layout.unit(line_addr) as usize;
            // Bytes of the request that fall inside this line (handles
            // unaligned starts and short tails exactly).
            let seg_start = line_addr.max(req.addr);
            let seg_end = (line_addr + line_bytes).min(req.addr + u64::from(req.bytes));
            let payload = seg_end.saturating_sub(seg_start);
            let line_done = match req.kind {
                crate::AccessKind::Read => {
                    // Commands travel on the dedicated command/address
                    // bus (fixed latency, never a bandwidth bottleneck);
                    // only response data occupies the DQ bus.
                    let cmd_done = arrival + Duration::new(CMD_LATENCY);
                    let idx = self.bank_index(line_addr);
                    let row = self.layout.row(line_addr);
                    let (bank_done, _) = self.banks[idx].access(cmd_done, row);
                    let wire = if i == 0 { payload + header } else { payload };
                    self.buses[channel].transfer(bank_done, wire.max(1))
                }
                crate::AccessKind::Write => {
                    let cmd = if i == 0 { header + payload } else { payload };
                    let data_at = self.buses[channel].transfer(arrival, cmd.max(1));
                    let idx = self.bank_index(line_addr);
                    let row = self.layout.row(line_addr);
                    let (bank_done, _) = self.banks[idx].access(data_at, row);
                    bank_done
                }
            };
            done = done.max(line_done);
        }
        self.internal_bytes += u64::from(req.bytes);
        done
    }
}

impl MemorySystem for Gddr5 {
    fn access_external(&mut self, arrival: Cycle, req: &MemRequest) -> Cycle {
        self.traffic.record(req.class, req.external_bytes());
        self.service(arrival, req)
    }

    fn access_internal(&mut self, arrival: Cycle, req: &MemRequest) -> Cycle {
        // GDDR5 has no logic layer: internal access degenerates to the
        // external path (used only if a PIM design is misconfigured onto
        // GDDR5, which the top-level simulator rejects).
        self.access_external(arrival, req)
    }

    fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    fn internal_bytes(&self) -> u64 {
        self.internal_bytes
    }

    fn reset(&mut self) {
        for bus in &mut self.buses {
            bus.reset();
        }
        for b in &mut self.banks {
            b.reset();
        }
        self.traffic.reset();
        self.internal_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficClass;

    /// Pins the invariant behind the `expect` on
    /// [`Gddr5::with_defaults`]: the Table I defaults always validate.
    #[test]
    fn defaults_are_valid() {
        assert!(Gddr5::new(Gddr5Config::default()).is_ok());
    }

    #[test]
    fn read_latency_includes_bus_and_bank() {
        let mut mem = Gddr5::with_defaults();
        let req = MemRequest::read(TrafficClass::TextureFetch, 0, 64);
        let done = mem.access_external(Cycle::ZERO, &req);
        // Lower bound: cold bank latency alone.
        assert!(done.get() >= DramTiming::default().cold_latency().get());
    }

    #[test]
    fn traffic_is_recorded_per_class() {
        let mut mem = Gddr5::with_defaults();
        mem.access_external(
            Cycle::ZERO,
            &MemRequest::read(TrafficClass::Geometry, 0, 64),
        );
        mem.access_external(
            Cycle::ZERO,
            &MemRequest::write(TrafficClass::ColorBuffer, 128, 64),
        );
        assert_eq!(
            mem.traffic().bytes(TrafficClass::Geometry).get(),
            16 + 16 + 64
        );
        assert_eq!(
            mem.traffic().bytes(TrafficClass::ColorBuffer).get(),
            16 + 64
        );
    }

    #[test]
    fn contention_serializes_on_the_bus() {
        let mut mem = Gddr5::with_defaults();
        let req = MemRequest::read(TrafficClass::TextureFetch, 0, 64);
        let t1 = mem.access_external(Cycle::ZERO, &req);
        // Same bank, same row: second access completes strictly later.
        let t2 = mem.access_external(Cycle::ZERO, &req);
        assert!(t2 > t1);
    }

    #[test]
    fn different_banks_overlap() {
        let mut mem = Gddr5::with_defaults();
        let a = MemRequest::read(TrafficClass::TextureFetch, 0, 64);
        let b = MemRequest::read(TrafficClass::TextureFetch, 64, 64); // next channel
        let t1 = mem.access_external(Cycle::ZERO, &a);
        let t2 = mem.access_external(Cycle::ZERO, &b);
        // The second request only pays bus serialization, not bank wait.
        assert!(t2 < t1 + DramTiming::default().cold_latency());
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut mem = Gddr5::with_defaults();
        mem.access_external(Cycle::ZERO, &MemRequest::read(TrafficClass::ZTest, 0, 4));
        mem.reset();
        assert_eq!(mem.traffic().total().get(), 0);
        assert_eq!(mem.internal_bytes(), 0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = Gddr5Config {
            channels: 0,
            ..Gddr5Config::default()
        };
        assert!(Gddr5::new(cfg).is_err());
    }

    #[test]
    fn multi_line_reads_parallelize_but_consume_bandwidth() {
        // Unloaded, a 256B read spreads its four lines across four
        // channels and finishes no earlier than a 64B read.
        let mut a = Gddr5::with_defaults();
        let mut b = Gddr5::with_defaults();
        let small = MemRequest::read(TrafficClass::TextureFetch, 0, 64);
        let large = MemRequest::read(TrafficClass::TextureFetch, 0, 256);
        let t_small = a.access_external(Cycle::ZERO, &small);
        let t_large = b.access_external(Cycle::ZERO, &large);
        assert!(t_large >= t_small);

        // Under load, the extra bytes show up as serialization: many
        // large reads finish later than the same number of small ones.
        let mut c = Gddr5::with_defaults();
        let mut d = Gddr5::with_defaults();
        let mut t_many_small = Cycle::ZERO;
        let mut t_many_large = Cycle::ZERO;
        for i in 0..64u64 {
            let s = MemRequest::read(TrafficClass::TextureFetch, i * 4096, 64);
            let l = MemRequest::read(TrafficClass::TextureFetch, i * 4096, 1024);
            t_many_small = t_many_small.max(c.access_external(Cycle::ZERO, &s));
            t_many_large = t_many_large.max(d.access_external(Cycle::ZERO, &l));
        }
        assert!(t_many_large > t_many_small);
    }
}
