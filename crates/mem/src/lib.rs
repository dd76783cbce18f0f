//! Memory-system models for the `pim-render` GPU simulator.
//!
//! The paper evaluates three memory configurations:
//!
//! * **GDDR5** (baseline) — a conventional off-chip memory with 128 GB/s
//!   of bus bandwidth shared by several channels.
//! * **HMC, external access** (B-PIM) — a Hybrid Memory Cube reached over
//!   full-duplex serial links with 320 GB/s aggregate external bandwidth.
//! * **HMC, internal access** (S-TFIM / A-TFIM logic layer) — the same
//!   cube accessed from its own logic layer through 32 vaults and TSVs,
//!   with 512 GB/s aggregate internal bandwidth.
//!
//! Both systems share the banked-DRAM timing model in [`bank`]; address
//! interleaving lives in [`layout`]; per-source traffic accounting (the
//! data behind the paper's Figs. 2 and 12) lives in [`traffic`].
//!
//! # Examples
//!
//! ```
//! use pimgfx_engine::Cycle;
//! use pimgfx_mem::{Gddr5, Hmc, MemRequest, MemorySystem, TrafficClass};
//!
//! // Under a bandwidth-bound burst the HMC finishes sooner: its external
//! // links carry 320 GB/s vs the 128 GB/s GDDR5 bus. (Single-request
//! // latency is *higher* on HMC due to SerDes overheads — the win is
//! // throughput, which is what 3D rendering is bound by.)
//! let mut gddr5 = Gddr5::with_defaults();
//! let mut hmc = Hmc::with_defaults();
//! let mut t_gddr5 = Cycle::ZERO;
//! let mut t_hmc = Cycle::ZERO;
//! for i in 0..4096u64 {
//!     let req = MemRequest::read(TrafficClass::TextureFetch, i * 64, 64);
//!     t_gddr5 = t_gddr5.max(gddr5.access_external(Cycle::ZERO, &req));
//!     t_hmc = t_hmc.max(hmc.access_external(Cycle::ZERO, &req));
//! }
//! assert!(t_hmc < t_gddr5, "HMC sustains higher external bandwidth");
//! ```

// --- lint wall (checked byte-for-byte by `cargo xtask lint`) ---
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod bank;
pub mod gddr5;
pub mod hmc;
pub mod layout;
pub mod request;
pub mod traffic;

pub use bank::{Bank, DramTiming, RowResult};
pub use gddr5::{Gddr5, Gddr5Config};
pub use hmc::{Hmc, HmcConfig};
pub use layout::AddressLayout;
pub use request::{packet, AccessKind, MemRequest};
pub use traffic::{TrafficClass, TrafficStats};

use pimgfx_engine::Cycle;

/// Common interface of the simulated memory systems.
///
/// `access_external` models a request that crosses the off-chip interface
/// (GPU ↔ memory); `access_internal` models a request issued from within
/// the memory package (the HMC logic layer). For GDDR5, which has no logic
/// layer, internal access falls back to external timing.
pub trait MemorySystem {
    /// Services a request arriving from the host at `arrival`; returns the
    /// completion cycle observed by the requester (response fully
    /// delivered).
    fn access_external(&mut self, arrival: Cycle, req: &MemRequest) -> Cycle;

    /// Services a request issued inside the memory package (no external
    /// link traversal).
    fn access_internal(&mut self, arrival: Cycle, req: &MemRequest) -> Cycle;

    /// Per-class traffic observed on the *external* interface.
    fn traffic(&self) -> &TrafficStats;

    /// Bytes moved on internal paths (TSVs / DRAM bus), for energy.
    fn internal_bytes(&self) -> u64;

    /// Resets all timing and traffic state, keeping configuration.
    fn reset(&mut self);
}
