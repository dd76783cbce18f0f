//! Unified-shader-cluster timing model for the `pim-render` GPU
//! simulator.
//!
//! Table I of the paper configures the host GPU as 16 unified-shader
//! clusters of 16 shaders each (simd4-scale ALUs, 4 shader elements),
//! processing 16×16 fragment tiles; each cluster owns one texture unit.
//! This crate models the *throughput* of those clusters: how many cycles
//! a tile of fragments (or a batch of vertices) occupies its cluster,
//! given a per-fragment instruction budget. Texture latency is composed
//! by the top-level pipeline — a fragment retires when both its ALU work
//! and its texture samples are done.
//!
//! # Examples
//!
//! ```
//! use pimgfx_engine::Cycle;
//! use pimgfx_shader::{ShaderConfig, ShaderCores, ShaderProgram};
//!
//! let mut cores = ShaderCores::new(ShaderConfig::default());
//! let program = ShaderProgram::fragment_default();
//! // A full 256-fragment tile on cluster 3.
//! let done = cores.shade_fragments(3, Cycle::ZERO, 256, &program);
//! assert!(done > Cycle::ZERO);
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

pub mod cluster;
pub mod program;
pub mod schedule;

pub use cluster::{ShaderConfig, ShaderCores};
pub use program::ShaderProgram;
pub use schedule::TileScheduler;
