//! Energy model for the `pim-render` GPU simulator.
//!
//! Follows the paper's methodology (§VI): dynamic energy is accumulated
//! per event — ALU busy cycles on the GPU and in the logic layer, cache
//! accesses, bytes moved over external links, TSVs and DRAM — and a flat
//! 10% is added for leakage. The paper's published constants are used
//! where given: 5 pJ/bit for the HMC serial links and 4 pJ/bit for DRAM
//! access; the remaining per-event energies are McPAT-class estimates
//! whose absolute values only affect Fig. 13 through the *relative*
//! weighting of traffic versus compute.
//!
//! # Examples
//!
//! ```
//! use pimgfx_energy::{EnergyModel, EnergyParams};
//!
//! let mut m = EnergyModel::new(EnergyParams::default());
//! m.add_link_bytes(1_000_000);
//! m.add_dram_bytes(1_000_000);
//! let report = m.report();
//! assert!(report.total_nj() > 0.0);
//! assert!(report.link_nj > report.tsv_nj, "links cost more than TSVs");
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

pub mod model;
pub mod params;

pub use model::{EnergyModel, EnergyReport};
pub use params::EnergyParams;
