//! Shared primitive types for the `pim-render` GPU simulator.
//!
//! This crate provides the small, dependency-free vocabulary used by every
//! other crate in the workspace:
//!
//! * [`vec`](mod@vec) — 2/3/4-component `f32` vectors with the usual linear-algebra
//!   operations needed by a software rasterizer.
//! * [`mat`] — 4×4 column-major matrices (model/view/projection transforms).
//! * [`color`] — RGBA colors in both `f32` and packed 8-bit forms.
//! * [`angle`] — a radians newtype used for the camera-angle approximation
//!   threshold of the A-TFIM design.
//! * [`rect`] — integer rectangles and screen-tile arithmetic.
//! * [`ids`] — typed identifiers (textures, shader clusters, vaults, ...).
//! * [`bytes`] — byte-count newtype with human-readable formatting.
//! * [`fxhash`] — deterministic FxHash-style hasher plus `FxHashMap`/`FxHashSet`
//!   aliases (the sanctioned alternative to ambient-seeded std maps).
//! * [`rng`] — a tiny deterministic PRNG for procedural workload synthesis.
//! * [`error`] — the common error type returned by simulator constructors.
//!
//! # Examples
//!
//! ```
//! use pimgfx_types::{Vec3, Mat4, Rgba};
//!
//! let eye = Vec3::new(0.0, 1.0, 5.0);
//! let view = Mat4::look_at(eye, Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0));
//! let p = view.transform_point(Vec3::ZERO);
//! assert!((p.z + eye.length()).abs() < 1e-4);
//!
//! let teal = Rgba::new(0.0, 0.5, 0.5, 1.0);
//! assert_eq!(teal.to_packed().r, 0);
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

/// Angles as a `Radians` newtype (anisotropy thresholds, camera deltas).
pub mod angle;
/// Traffic and capacity accounting as a `ByteCount` newtype.
pub mod bytes;
/// Linear and packed sRGB color types for the functional renderer.
pub mod color;
/// The workspace-wide `Error` type and `Result` alias.
pub mod error;
/// Deterministic FxHash-style hasher and `FxHashMap`/`FxHashSet` aliases.
pub mod fxhash;
/// Typed identifiers (textures, clusters, vaults, requests, frames).
pub mod ids;
/// The `F32x4` lane vector the texture filter kernels compute with.
pub mod lanes;
/// 4×4 column-major matrices for the geometry pipeline.
pub mod mat;
/// Integer rectangles and screen-tile arithmetic.
pub mod rect;
/// Small deterministic RNG for the synthetic workloads.
pub mod rng;
/// Small fixed-size `f32` vectors for geometry and shading.
pub mod vec;

pub use angle::Radians;
pub use bytes::ByteCount;
pub use color::{PackedRgba, Rgba};
pub use error::{ConfigError, Error, Result};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{ClusterId, FrameId, RequestId, TextureId, VaultId};
pub use lanes::F32x4;
pub use mat::Mat4;
pub use rect::{Rect, TileCoord};
pub use rng::TinyRng;
pub use vec::{Vec2, Vec3, Vec4};
