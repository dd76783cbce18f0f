//! The Hybrid Memory Cube model.
//!
//! An HMC stacks DRAM dies on a CMOS logic layer; vertical TSV columns
//! connect each stack slice ("vault") to its own controller in the logic
//! layer, and full-duplex serial links connect the cube to the host. The
//! key asymmetry the paper exploits: the external links top out at
//! 320 GB/s while the 32 vaults together sustain 512 GB/s internally, so
//! work moved *into* the logic layer sees ~1.6× the bandwidth — without
//! spending any external link capacity.

use crate::bank::{Bank, DramTiming};
use crate::layout::AddressLayout;
use crate::request::MemRequest;
use crate::traffic::TrafficStats;
use crate::MemorySystem;
use pimgfx_engine::trace::{stage, StageTrace};
use pimgfx_engine::{Bandwidth, Cycle, Duration};
use pimgfx_types::{ConfigError, Result};

/// Configuration of the HMC, defaults per the paper's Table I and the
/// HMC 2.0 specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmcConfig {
    /// Aggregate external link bandwidth (both directions combined), GB/s.
    pub external_gb_s: f64,
    /// Aggregate internal (TSV/vault) bandwidth, GB/s.
    pub internal_gb_s: f64,
    /// GPU clock the timing is expressed in, GHz.
    pub gpu_clock_ghz: f64,
    /// Number of vaults.
    pub vaults: u64,
    /// Banks per vault.
    pub banks_per_vault: u64,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Interleaving granularity (cache-line bytes).
    pub line_bytes: u64,
    /// TSV traversal latency in cycles (1 cycle per the paper, citing
    /// CACTI-3DD).
    pub tsv_latency: u64,
    /// Logic-layer switch latency in cycles (routing a request to its
    /// vault controller).
    pub switch_latency: u64,
    /// SerDes latency of the external links, in cycles each way.
    pub link_latency: u64,
    /// DRAM core timing.
    pub timing: DramTiming,
}

impl Default for HmcConfig {
    fn default() -> Self {
        Self {
            external_gb_s: 320.0,
            internal_gb_s: 512.0,
            gpu_clock_ghz: 1.0,
            vaults: 32,
            banks_per_vault: 8,
            row_bytes: 2048,
            line_bytes: 64,
            tsv_latency: 1,
            switch_latency: 4,
            link_latency: 8,
            timing: DramTiming::default(),
        }
    }
}

impl HmcConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any bandwidth/structural parameter is
    /// non-positive, or when internal bandwidth is not at least the
    /// external bandwidth (the premise the PIM designs rely on).
    pub fn validate(&self) -> Result<()> {
        if self.external_gb_s <= 0.0
            || self.internal_gb_s <= 0.0
            || self.external_gb_s.is_nan()
            || self.internal_gb_s.is_nan()
        {
            return Err(ConfigError::new("hmc", "bandwidths must be positive"));
        }
        if self.internal_gb_s < self.external_gb_s {
            return Err(ConfigError::new(
                "hmc",
                "internal bandwidth must be >= external bandwidth",
            ));
        }
        if self.gpu_clock_ghz <= 0.0 || self.gpu_clock_ghz.is_nan() {
            return Err(ConfigError::new("hmc", "gpu clock must be positive"));
        }
        if self.vaults == 0 || self.banks_per_vault == 0 {
            return Err(ConfigError::new("hmc", "vaults and banks must be nonzero"));
        }
        if self.row_bytes == 0 || self.line_bytes == 0 {
            return Err(ConfigError::new(
                "hmc",
                "row and line sizes must be nonzero",
            ));
        }
        Ok(())
    }
}

/// The Hybrid Memory Cube: full-duplex external links in front of a
/// logic-layer switch, vault controllers, TSVs and stacked DRAM banks.
///
/// # Examples
///
/// ```
/// use pimgfx_engine::Cycle;
/// use pimgfx_mem::{Hmc, MemRequest, MemorySystem, TrafficClass};
///
/// let mut hmc = Hmc::with_defaults();
/// let req = MemRequest::read(TrafficClass::TextureFetch, 0, 64);
/// let ext = hmc.access_external(Cycle::ZERO, &req);
/// let int = hmc.access_internal(ext, &req);
/// assert!(int.since(ext).get() < ext.get(), "internal path is shorter");
/// ```
#[derive(Debug)]
pub struct Hmc {
    config: HmcConfig,
    /// Host → cube link (request direction).
    link_tx: Bandwidth,
    /// Cube → host link (response direction).
    link_rx: Bandwidth,
    /// Per-vault TSV data columns.
    vault_tsv: Vec<Bandwidth>,
    banks: Vec<Bank>,
    layout: AddressLayout,
    traffic: TrafficStats,
    internal_bytes: u64,
}

impl Hmc {
    /// Builds the cube from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: HmcConfig) -> Result<Self> {
        config.validate()?;
        let layout = AddressLayout::new(
            config.vaults,
            config.banks_per_vault,
            config.row_bytes,
            config.line_bytes,
        );
        let per_direction = config.external_gb_s / 2.0;
        let per_vault = config.internal_gb_s / config.vaults as f64;
        let vault_tsv = (0..config.vaults)
            .map(|_| Bandwidth::from_gb_per_sec(per_vault, config.gpu_clock_ghz))
            .collect();
        let banks = (0..config.vaults * config.banks_per_vault)
            .map(|_| Bank::new(config.timing))
            .collect();
        Ok(Self {
            link_tx: Bandwidth::from_gb_per_sec(per_direction, config.gpu_clock_ghz),
            link_rx: Bandwidth::from_gb_per_sec(per_direction, config.gpu_clock_ghz),
            vault_tsv,
            banks,
            layout,
            config,
            traffic: TrafficStats::new(),
            internal_bytes: 0,
        })
    }

    /// Builds the Table I / HMC 2.0 default configuration.
    #[expect(
        clippy::expect_used,
        reason = "Table I defaults are compile-time constants; validity is pinned by the defaults_are_valid unit test"
    )]
    pub fn with_defaults() -> Self {
        Self::new(HmcConfig::default()).expect("default HMC config is valid")
    }

    /// The active configuration.
    pub fn config(&self) -> &HmcConfig {
        &self.config
    }

    /// Transfers `bytes` from host to cube, starting at `arrival`; returns
    /// delivery time at the logic layer. Exposed for the PIM designs,
    /// which send request *packages* rather than plain memory reads.
    pub fn send_to_cube(&mut self, arrival: Cycle, bytes: u64) -> Cycle {
        self.link_tx.transfer(arrival, bytes) + Duration::new(self.config.link_latency)
    }

    /// Transfers `bytes` from cube to host, starting at `arrival`; returns
    /// delivery time at the host.
    pub fn send_to_host(&mut self, arrival: Cycle, bytes: u64) -> Cycle {
        self.link_rx.transfer(arrival, bytes) + Duration::new(self.config.link_latency)
    }

    /// Records external-interface traffic without timing (used by PIM
    /// designs that account packages explicitly).
    pub fn record_external_traffic(&mut self, class: crate::TrafficClass, bytes: u64) {
        self.traffic.record(class, bytes);
    }

    /// Services a request at the vaults, starting from the logic layer at
    /// `arrival`. Returns the time data is back at the logic layer.
    pub fn vault_access(&mut self, arrival: Cycle, req: &MemRequest) -> Cycle {
        let switch = Duration::new(self.config.switch_latency);
        let tsv = Duration::new(self.config.tsv_latency);
        let at_controller = arrival + switch;
        // Split at line granularity so large bursts spread across vaults
        // (fine-grained interleaving), instead of hot-spotting one TSV.
        let line_bytes = self.config.line_bytes;
        let lines = self
            .layout
            .lines_touched(req.addr, u64::from(req.bytes))
            .max(1);
        let first_line = req.addr / line_bytes;
        let mut done = at_controller;
        for i in 0..lines {
            let line_addr = (first_line + i) * line_bytes;
            let vault = self.layout.unit(line_addr) as usize;
            let bank_idx =
                vault * self.config.banks_per_vault as usize + self.layout.bank(line_addr) as usize;
            let row = self.layout.row(line_addr);
            let (bank_done, _) = self.banks[bank_idx].access(at_controller + tsv, row);
            // Bytes of the request that fall inside this line (handles
            // unaligned starts and short tails exactly).
            let seg_start = line_addr.max(req.addr);
            let seg_end = (line_addr + line_bytes).min(req.addr + u64::from(req.bytes));
            let payload = seg_end.saturating_sub(seg_start);
            // Data crosses the vault's TSV column (either direction).
            let tsv_done = self.vault_tsv[vault].transfer(bank_done, payload.max(1));
            done = done.max(tsv_done + tsv);
        }
        self.internal_bytes += u64::from(req.bytes);
        done
    }

    /// Records the cube's channel stages: `mem.hmc.link` (TX and RX
    /// SerDes merged) and `mem.hmc.tsv` (all vault columns merged).
    /// Wire bytes include package headers and per-line splitting, so
    /// these stages are informational, not audited.
    pub fn record_channel_trace(&self, trace: &mut StageTrace) {
        trace.record_bandwidth(stage::MEM_HMC_LINK, &self.link_tx);
        trace.record_bandwidth(stage::MEM_HMC_LINK, &self.link_rx);
        for tsv in &self.vault_tsv {
            trace.record_bandwidth(stage::MEM_HMC_TSV, tsv);
        }
    }

    /// Row-buffer hit rate across all banks.
    pub fn row_hit_rate(&self) -> f64 {
        let (mut h, mut c, mut k) = (0u64, 0u64, 0u64);
        for b in &self.banks {
            let (bh, bc, bk) = b.row_stats();
            h += bh;
            c += bc;
            k += bk;
        }
        let total = h + c + k;
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }
}

impl MemorySystem for Hmc {
    fn access_external(&mut self, arrival: Cycle, req: &MemRequest) -> Cycle {
        self.traffic.record(req.class, req.external_bytes());
        let at_cube = self.send_to_cube(arrival, req.upstream_bytes());
        let at_logic = self.vault_access(at_cube, req);
        self.send_to_host(at_logic, req.downstream_bytes())
    }

    fn access_internal(&mut self, arrival: Cycle, req: &MemRequest) -> Cycle {
        self.vault_access(arrival, req)
    }

    fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    fn internal_bytes(&self) -> u64 {
        self.internal_bytes
    }

    fn reset(&mut self) {
        self.link_tx.reset();
        self.link_rx.reset();
        for v in &mut self.vault_tsv {
            v.reset();
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
    /// [`Hmc::with_defaults`]: the Table I / HMC 2.0 defaults always validate.
    #[test]
    fn defaults_are_valid() {
        assert!(Hmc::new(HmcConfig::default()).is_ok());
    }

    #[test]
    fn internal_access_skips_links() {
        let mut hmc = Hmc::with_defaults();
        let req = MemRequest::read(TrafficClass::TextureFetch, 0, 64);
        let t_ext = hmc.access_external(Cycle::ZERO, &req);
        hmc.reset();
        let t_int = hmc.access_internal(Cycle::ZERO, &req);
        assert!(t_int < t_ext);
        // Internal access records no external traffic.
        assert_eq!(hmc.traffic().total().get(), 0);
    }

    #[test]
    fn external_traffic_counts_packages() {
        let mut hmc = Hmc::with_defaults();
        let req = MemRequest::read(TrafficClass::TextureFetch, 0, 64);
        hmc.access_external(Cycle::ZERO, &req);
        assert_eq!(
            hmc.traffic().bytes(TrafficClass::TextureFetch).get(),
            16 + 16 + 64
        );
    }

    #[test]
    fn vaults_service_disjoint_addresses_in_parallel() {
        let mut hmc = Hmc::with_defaults();
        // 32 requests, one per vault.
        let done: Vec<_> = (0..32)
            .map(|i| {
                let req = MemRequest::read(TrafficClass::TextureFetch, i * 64, 64);
                hmc.access_internal(Cycle::ZERO, &req).get()
            })
            .collect();
        // All vaults are independent: every access sees identical timing.
        assert!(done.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn same_vault_serializes() {
        let mut hmc = Hmc::with_defaults();
        let stride = 64 * 32; // same vault, next bank group
        let t1 = hmc.access_internal(
            Cycle::ZERO,
            &MemRequest::read(TrafficClass::TextureFetch, 0, 64),
        );
        let t2 = hmc.access_internal(
            Cycle::ZERO,
            &MemRequest::read(TrafficClass::TextureFetch, 0, 64),
        );
        assert!(t2 > t1, "same bank serializes");
        let mut hmc2 = Hmc::with_defaults();
        let u1 = hmc2.access_internal(
            Cycle::ZERO,
            &MemRequest::read(TrafficClass::TextureFetch, 0, 64),
        );
        let u2 = hmc2.access_internal(
            Cycle::ZERO,
            &MemRequest::read(TrafficClass::TextureFetch, stride, 64),
        );
        // Different banks in the same vault: only TSV serialization.
        assert!(u2.since(u1).get() < t2.since(t1).get());
    }

    #[test]
    fn full_duplex_links_do_not_contend() {
        let mut hmc = Hmc::with_defaults();
        let up = hmc.send_to_cube(Cycle::ZERO, 1024);
        let down = hmc.send_to_host(Cycle::ZERO, 1024);
        assert_eq!(up, down, "TX and RX are independent channels");
    }

    #[test]
    fn rejects_internal_slower_than_external() {
        let cfg = HmcConfig {
            internal_gb_s: 100.0,
            external_gb_s: 320.0,
            ..HmcConfig::default()
        };
        assert!(Hmc::new(cfg).is_err());
    }

    #[test]
    fn row_hit_rate_reflects_locality() {
        let mut hmc = Hmc::with_defaults();
        let req = MemRequest::read(TrafficClass::TextureFetch, 0, 64);
        for _ in 0..10 {
            hmc.access_internal(Cycle::ZERO, &req);
        }
        assert!(hmc.row_hit_rate() > 0.8);
    }

    #[test]
    fn reset_clears_everything() {
        let mut hmc = Hmc::with_defaults();
        hmc.access_external(
            Cycle::ZERO,
            &MemRequest::write(TrafficClass::FrameBuffer, 0, 64),
        );
        hmc.reset();
        assert_eq!(hmc.traffic().total().get(), 0);
        assert_eq!(hmc.internal_bytes(), 0);
        assert_eq!(hmc.row_hit_rate(), 0.0);
    }
}
