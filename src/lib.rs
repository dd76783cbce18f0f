//! `pim-render` — facade crate for the PIM-enabled GPU 3D-rendering
//! simulator (reproduction of Xie et al., *Processing-in-Memory Enabled
//! Graphics Processors for 3D Rendering*, HPCA 2017).
//!
//! This crate re-exports the workspace's public API so that examples and
//! integration tests can reach every subsystem through a single
//! dependency:
//!
//! * [`pimgfx`] — the top-level simulator: configs (Table I), the four
//!   design points (Baseline / B-PIM / S-TFIM / A-TFIM), frame runner,
//!   statistics.
//! * [`types`] — math and primitive vocabulary.
//! * [`mem`] — GDDR5 and HMC memory models.
//! * [`texture`] — mipmapped textures, bilinear/trilinear/anisotropic
//!   filtering, texture caches with camera-angle tags.
//! * [`raster`] — geometry processing and tile-based rasterization.
//! * [`shader`] — the unified-shader-cluster timing model.
//! * [`pim`] — S-TFIM / A-TFIM logic-layer hardware.
//! * [`energy`] — the energy model behind Fig. 13.
//! * [`quality`] — image buffers and PSNR/SSIM for Figs. 15–16.
//! * [`workloads`] — procedural game scenes standing in for the paper's
//!   commercial-game traces.
//!
//! # Quickstart
//!
//! ```
//! use pim_render::pimgfx::{Design, SimConfig, Simulator};
//! use pim_render::workloads::{Game, Resolution};
//!
//! let scene = pim_render::workloads::build_scene(Game::Doom3, Resolution::R320x240, 1);
//! let config = SimConfig::builder().design(Design::ATfim).build()?;
//! let mut sim = Simulator::new(config)?;
//! let report = sim.render_trace(&scene)?;
//! assert!(report.total_cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
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

pub use pimgfx;
pub use pimgfx_energy as energy;
pub use pimgfx_engine as engine;
pub use pimgfx_mem as mem;
pub use pimgfx_pim as pim;
pub use pimgfx_quality as quality;
pub use pimgfx_raster as raster;
pub use pimgfx_shader as shader;
pub use pimgfx_texture as texture;
pub use pimgfx_types as types;
pub use pimgfx_workloads as workloads;
