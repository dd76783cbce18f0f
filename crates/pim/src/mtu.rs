//! S-TFIM Memory Texture Units.
//!
//! S-TFIM moves every texture unit of the host GPU into the HMC logic
//! layer. Each cluster keeps a private MTU; a texture request travels as
//! a package over the TX link into the MTU's request queue, a FIFO
//! scheduler feeds the pipeline one request per cycle, texel reads go
//! straight to the vaults (no texture caches exist anywhere in this
//! design), and the filtered texture returns over the RX link. When the
//! queue fills, the MTU asserts a stall back to its shader cluster.

use pimgfx_engine::trace::{stage, StageCounters, StageTrace};
use pimgfx_engine::{Cycle, Duration, Server};
use pimgfx_mem::{Hmc, MemRequest, MemorySystem, TrafficClass};

/// MTU configuration, mirroring the GPU texture unit of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtuConfig {
    /// Request-queue depth per MTU.
    pub queue_depth: usize,
    /// Address-generation ALUs (4 in Table I).
    pub addr_alus: u32,
    /// Filtering ALUs (8 in Table I).
    pub filter_alus: u32,
    /// Pipeline latency of the filtering datapath, cycles.
    pub pipeline_latency: u64,
}

impl Default for MtuConfig {
    fn default() -> Self {
        Self {
            queue_depth: 256,
            addr_alus: 4,
            filter_alus: 8,
            pipeline_latency: 8,
        }
    }
}

/// One texture-filtering request as seen by an MTU.
#[derive(Debug, Clone)]
pub struct TextureRequest {
    /// Cache-line addresses of every texel line the filter needs.
    pub texel_line_addrs: Vec<u64>,
    /// Total texels to filter (drives ALU occupancy).
    pub texel_count: u32,
    /// Bytes read per texel line (64 raw; 16 under 4:1 block
    /// compression).
    pub line_bytes: u32,
}

/// A single Memory Texture Unit in the logic layer.
#[derive(Debug)]
pub struct Mtu {
    config: MtuConfig,
    addr_pipe: Server,
    filter_pipe: Server,
    /// Completion times of requests still logically "in the queue".
    inflight: std::collections::VecDeque<Cycle>,
    stalls: u64,
    requests: u64,
}

impl Mtu {
    /// Creates an MTU.
    pub fn new(config: MtuConfig) -> Self {
        Self {
            // trace:stage(pim.mtu.addr)
            addr_pipe: Server::new(1, 1),
            // trace:stage(pim.mtu.filter)
            filter_pipe: Server::new(1, config.pipeline_latency),
            inflight: std::collections::VecDeque::new(),
            stalls: 0,
            requests: 0,
            config,
        }
    }

    /// Services one texture request arriving (at the logic layer) at
    /// `arrival`; texel reads are issued to `hmc` internally. Returns the
    /// cycle the filtered texture is ready to leave the logic layer.
    pub fn process(&mut self, arrival: Cycle, req: &TextureRequest, hmc: &mut Hmc) -> Cycle {
        self.requests += 1;
        // Queue admission: drop completed entries, stall if still full.
        while let Some(&front) = self.inflight.front() {
            if front <= arrival {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        let mut start = arrival;
        if self.inflight.len() >= self.config.queue_depth {
            // Stall until the oldest in-flight request retires.
            self.stalls += 1;
            if let Some(&oldest) = self.inflight.front() {
                start = oldest;
            }
        }

        // Address generation: texel_count addresses over addr_alus lanes.
        let addr_slots =
            u64::from(req.texel_count).div_ceil(u64::from(self.config.addr_alus.max(1)));
        let addr_done = self.addr_pipe.issue_weighted(start, addr_slots.max(1));

        // Texel reads: every line is an internal vault access; the MTU
        // has no cache, so nothing is ever filtered out of this stream.
        let mut data_ready = addr_done;
        for &line in &req.texel_line_addrs {
            let r = MemRequest::read(TrafficClass::TextureFetch, line, req.line_bytes.max(1));
            data_ready = data_ready.max(hmc.access_internal(addr_done, &r));
        }

        // Filtering: texel_count multiply-accumulates over filter_alus.
        let filter_slots =
            u64::from(req.texel_count).div_ceil(u64::from(self.config.filter_alus.max(1)));
        let done = self
            .filter_pipe
            .issue_weighted(data_ready, filter_slots.max(1));
        self.inflight.push_back(done);
        done
    }

    /// `(requests, stalls)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.requests, self.stalls)
    }

    /// Busy cycles of the filtering datapath (for energy).
    pub fn filter_busy(&self) -> Duration {
        self.filter_pipe.utilization().busy()
    }

    /// Resets timing state.
    pub fn reset(&mut self) {
        self.addr_pipe.reset();
        self.filter_pipe.reset();
        self.inflight.clear();
        self.stalls = 0;
        self.requests = 0;
    }
}

/// The bank of per-cluster MTUs (16 in the paper's configuration, one
/// per shader cluster so S-TFIM matches the baseline's compute capacity).
///
/// # Examples
///
/// ```
/// use pimgfx_engine::Cycle;
/// use pimgfx_mem::Hmc;
/// use pimgfx_pim::{MtuBank, MtuConfig, TextureRequest};
///
/// let mut hmc = Hmc::with_defaults();
/// let mut bank = MtuBank::new(16, MtuConfig::default());
/// let req = TextureRequest { texel_line_addrs: vec![0, 64], texel_count: 8, line_bytes: 64 };
/// let done = bank.process(0, Cycle::ZERO, &req, &mut hmc);
/// assert!(done > Cycle::ZERO);
/// ```
#[derive(Debug)]
pub struct MtuBank {
    mtus: Vec<Mtu>,
}

impl MtuBank {
    /// Creates `n` MTUs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, config: MtuConfig) -> Self {
        assert!(n > 0, "need at least one MTU");
        Self {
            mtus: (0..n).map(|_| Mtu::new(config)).collect(),
        }
    }

    /// Number of MTUs.
    pub fn len(&self) -> usize {
        self.mtus.len()
    }

    /// True when the bank is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.mtus.is_empty()
    }

    /// Routes a request to the cluster-private MTU.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn process(
        &mut self,
        cluster: usize,
        arrival: Cycle,
        req: &TextureRequest,
        hmc: &mut Hmc,
    ) -> Cycle {
        self.mtus[cluster].process(arrival, req, hmc)
    }

    /// Aggregate `(requests, stalls)` across MTUs.
    pub fn stats(&self) -> (u64, u64) {
        self.mtus.iter().fold((0, 0), |(r, s), m| {
            let (mr, ms) = m.stats();
            (r + mr, s + ms)
        })
    }

    /// Total filtering-datapath busy cycles across MTUs.
    pub fn filter_busy(&self) -> Duration {
        self.mtus.iter().map(Mtu::filter_busy).sum()
    }

    /// Records the MTU stages: `pim.mtu.addr` (informational) and
    /// `pim.mtu.filter`, whose `busy_cycles` equal
    /// [`MtuBank::filter_busy`] and whose `stalls` are the bank's
    /// queue-full stalls.
    pub fn record_trace(&self, trace: &mut StageTrace) {
        for m in &self.mtus {
            trace.record_server(stage::PIM_MTU_ADDR, &m.addr_pipe);
            trace.record_server(stage::PIM_MTU_FILTER, &m.filter_pipe);
        }
        let (_, stalls) = self.stats();
        trace.record(stage::PIM_MTU_FILTER, StageCounters::stalled(stalls));
    }

    /// Resets every MTU.
    pub fn reset(&mut self) {
        for m in &mut self.mtus {
            m.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(lines: usize, texels: u32) -> TextureRequest {
        TextureRequest {
            texel_line_addrs: (0..lines as u64).map(|i| i * 64).collect(),
            texel_count: texels,
            line_bytes: 64,
        }
    }

    #[test]
    fn request_flows_through_pipeline() {
        let mut hmc = Hmc::with_defaults();
        let mut mtu = Mtu::new(MtuConfig::default());
        let done = mtu.process(Cycle::ZERO, &req(2, 8), &mut hmc);
        assert!(done > Cycle::ZERO);
        assert_eq!(mtu.stats().0, 1);
        assert_eq!(hmc.traffic().total().get(), 0, "texel reads are internal");
        assert!(hmc.internal_bytes() > 0);
    }

    #[test]
    fn bigger_filters_take_longer() {
        let mut hmc1 = Hmc::with_defaults();
        let mut hmc2 = Hmc::with_defaults();
        let mut a = Mtu::new(MtuConfig::default());
        let mut b = Mtu::new(MtuConfig::default());
        let small = a.process(Cycle::ZERO, &req(2, 8), &mut hmc1);
        let large = b.process(Cycle::ZERO, &req(16, 128), &mut hmc2);
        assert!(large > small);
    }

    #[test]
    fn full_queue_stalls() {
        let mut hmc = Hmc::with_defaults();
        let cfg = MtuConfig {
            queue_depth: 2,
            ..MtuConfig::default()
        };
        let mut mtu = Mtu::new(cfg);
        // Three zero-time arrivals into a depth-2 queue.
        mtu.process(Cycle::ZERO, &req(4, 32), &mut hmc);
        mtu.process(Cycle::ZERO, &req(4, 32), &mut hmc);
        mtu.process(Cycle::ZERO, &req(4, 32), &mut hmc);
        assert!(mtu.stats().1 >= 1, "third request stalls");
    }

    #[test]
    fn queue_drains_over_time() {
        let mut hmc = Hmc::with_defaults();
        let cfg = MtuConfig {
            queue_depth: 1,
            ..MtuConfig::default()
        };
        let mut mtu = Mtu::new(cfg);
        let first = mtu.process(Cycle::ZERO, &req(1, 4), &mut hmc);
        // Arrives long after the first completed: no stall.
        mtu.process(
            first + pimgfx_engine::Duration::new(100),
            &req(1, 4),
            &mut hmc,
        );
        assert_eq!(mtu.stats().1, 0);
    }

    #[test]
    fn bank_routes_by_cluster() {
        let mut hmc = Hmc::with_defaults();
        let mut bank = MtuBank::new(4, MtuConfig::default());
        let r = req(1, 4);
        let t0 = bank.process(0, Cycle::ZERO, &r, &mut hmc);
        let t1 = bank.process(1, Cycle::ZERO, &r, &mut hmc);
        // Different MTUs pipeline independently (vault contention aside).
        assert!(t1 <= t0 + pimgfx_engine::Duration::new(64));
        assert_eq!(bank.stats().0, 2);
        assert_eq!(bank.len(), 4);
    }

    #[test]
    fn reset_clears_bank() {
        let mut hmc = Hmc::with_defaults();
        let mut bank = MtuBank::new(2, MtuConfig::default());
        bank.process(0, Cycle::ZERO, &req(1, 4), &mut hmc);
        bank.reset();
        assert_eq!(bank.stats(), (0, 0));
        assert_eq!(bank.filter_busy(), pimgfx_engine::Duration::ZERO);
    }

    #[test]
    fn trace_conserves_filter_busy_and_stalls() {
        let mut hmc = Hmc::with_defaults();
        let cfg = MtuConfig {
            queue_depth: 1,
            ..MtuConfig::default()
        };
        let mut bank = MtuBank::new(2, cfg);
        for _ in 0..3 {
            bank.process(0, Cycle::ZERO, &req(4, 32), &mut hmc);
            bank.process(1, Cycle::ZERO, &req(4, 32), &mut hmc);
        }
        let mut t = StageTrace::new();
        bank.record_trace(&mut t);
        assert_eq!(
            t.counters(stage::PIM_MTU_FILTER).busy_cycles,
            bank.filter_busy().get()
        );
        assert_eq!(t.counters(stage::PIM_MTU_FILTER).stalls, bank.stats().1);
        assert!(t.counters(stage::PIM_MTU_ADDR).busy_cycles > 0);
    }
}
