//! Geometry processing and tile-based rasterization for the `pim-render`
//! GPU simulator.
//!
//! This crate implements the first two stages of the paper's baseline GPU
//! (§II-A): **geometry processing** (vertex transform, primitive assembly,
//! frustum clipping) and **rasterization** (triangle setup, tile-based
//! scan conversion with early and hierarchical Z, perspective-correct
//! attribute interpolation). Its output is fragments carrying everything
//! texture filtering needs: normalized texture coordinates, their
//! screen-space derivatives, and the camera angle of the surface — the
//! quantity A-TFIM tags texture-cache lines with.
//!
//! # Examples
//!
//! ```
//! use pimgfx_raster::{Camera, Rasterizer, Vertex};
//! use pimgfx_types::{Rect, Vec2, Vec3};
//!
//! let camera = Camera::look_at(
//!     Vec3::new(0.0, 0.0, 3.0),
//!     Vec3::ZERO,
//!     Vec3::Y,
//!     std::f32::consts::FRAC_PI_3,
//!     64.0 / 48.0,
//! );
//! let mut raster = Rasterizer::new(64, 48);
//! let tri = [
//!     Vertex::new(Vec3::new(-1.0, -1.0, 0.0), Vec3::Z, Vec2::new(0.0, 0.0)),
//!     Vertex::new(Vec3::new(1.0, -1.0, 0.0), Vec3::Z, Vec2::new(1.0, 0.0)),
//!     Vertex::new(Vec3::new(0.0, 1.0, 0.0), Vec3::Z, Vec2::new(0.5, 1.0)),
//! ];
//! let frags = raster.rasterize(&camera, &tri);
//! assert!(!frags.is_empty(), "an on-screen triangle produces fragments");
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

pub mod camera;
pub mod clip;
pub mod fragment;
pub mod raster;
pub mod setup;
pub mod vertex;
pub mod zbuffer;

pub use camera::Camera;
pub use clip::clip_triangle;
pub use fragment::{Fragment, FragmentTile};
pub use raster::{CoverageSink, RasterStats, Rasterizer};
pub use setup::TriangleSetup;
pub use vertex::{ClipVertex, Vertex};
pub use zbuffer::{DepthBuffer, ZOutcome};
