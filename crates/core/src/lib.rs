//! Top-level PIM-enabled GPU simulator for 3D rendering.
//!
//! This crate assembles the substrates of the `pim-render` workspace
//! into the system evaluated by Xie et al., *Processing-in-Memory
//! Enabled Graphics Processors for 3D Rendering* (HPCA 2017): a
//! rasterization GPU with unified shader clusters and per-cluster
//! texture units, in front of either GDDR5 or a Hybrid Memory Cube, in
//! four design points:
//!
//! | Design | What changes |
//! |---|---|
//! | [`Design::Baseline`] | GDDR5, all filtering on the GPU |
//! | [`Design::BPim`] | memory swapped for an HMC |
//! | [`Design::STfim`] | texture units moved into the HMC logic layer |
//! | [`Design::ATfim`] | anisotropic filtering reordered first and run in the logic layer, with camera-angle-gated cache reuse |
//!
//! The simulator is functional-first: frames are really rendered (so
//! quality metrics measure real pixels) while the timing layer charges
//! every fetch, package, and buffer write to the configured hardware.
//!
//! # Quickstart
//!
//! ```no_run
//! use pimgfx::{Design, SimConfig, Simulator};
//! use pimgfx_workloads::{build_scene, Game, Resolution};
//!
//! let scene = build_scene(Game::Doom3, Resolution::R640x480, 2);
//! let mut baseline = Simulator::new(SimConfig::default())?;
//! let base = baseline.render_trace(&scene)?;
//!
//! let mut atfim = Simulator::new(SimConfig::builder().design(Design::ATfim).build()?)?;
//! let fast = atfim.render_trace(&scene)?;
//!
//! println!("render speedup  : {:.2}x", fast.render_speedup_vs(&base));
//! println!("filtering speedup: {:.2}x", fast.texture_speedup_vs(&base));
//! println!("texture traffic : {:.2}x", fast.traffic_normalized_to(&base));
//! # Ok::<(), pimgfx_types::ConfigError>(())
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

pub mod backend;
pub mod budget;
pub mod config;
pub mod design;
pub mod fxhash;
pub mod geometry;
mod lane_equivalence;
pub(crate) mod lanepre;
pub mod overhead;
pub(crate) mod parent_store;
pub mod rop;
pub mod sim;
pub mod stats;
pub mod stream;
#[cfg(test)]
mod testkit;
pub(crate) mod texpath;
pub mod texunit;

/// Convenience re-exports for typical simulator use.
///
/// ```
/// use pimgfx::prelude::*;
///
/// let config = SimConfig::builder().design(Design::BPim).build()?;
/// let _sim = Simulator::new(config)?;
/// # Ok::<(), pimgfx_types::ConfigError>(())
/// ```
pub mod prelude {
    pub use crate::config::{SimConfig, SimConfigBuilder};
    pub use crate::design::Design;
    pub use crate::sim::Simulator;
    pub use crate::stats::{RenderReport, TextureStats};
}

pub use backend::MemoryBackend;
pub use config::{ReplayKey, SimConfig, SimConfigBuilder, TextureUnitConfig};
pub use design::Design;
pub use overhead::{analyze as analyze_overhead, OverheadReport};
pub use sim::Simulator;
pub use stats::{RenderReport, TextureStats};
pub use stream::{FragmentStream, FragmentStreamCache, FrontendCacheStats, StreamTile};
pub use texunit::TextureUnits;
