//! Texture subsystem for the `pim-render` GPU simulator.
//!
//! Texture filtering is where the paper's whole story happens: texel
//! fetches account for the majority of off-chip memory traffic in 3D
//! rendering (Fig. 2), and anisotropic filtering multiplies the texel
//! count per pixel by up to 16× (§II-C). This crate implements the whole
//! subsystem *functionally* — real texels in, real filtered colors out —
//! while also reporting exactly which texel addresses each sample touched,
//! so the timing layer can replay the traffic through caches and DRAM.
//!
//! Module map:
//!
//! * [`image`] — raw texel arrays with wrap modes.
//! * [`mipmap`] — mip-chain generation and mipmapped textures.
//! * [`layout`] — byte addressing of texels in simulated memory
//!   (block-linear tiling, per-level offsets).
//! * [`footprint`] — screen-space derivative math: level of detail,
//!   anisotropy ratio, major-axis direction.
//! * [`filter`] — point / bilinear / trilinear / anisotropic filtering,
//!   in both the conventional order and the A-TFIM reordered form
//!   (anisotropic averaging *first*), plus the fetch-trace records.
//! * [`sampler`] — the user-facing sampler configuration and entry point.
//! * [`cache`] — set-associative texture caches, optionally extended
//!   with the per-line camera-angle tags of the A-TFIM design.
//! * [`compress`] — BC1-style 4:1 fixed-rate block compression, the
//!   bandwidth technique the paper is orthogonal to (§VIII).
//! * [`ewa`] — the exact Elliptical Weighted Average filter (the paper's
//!   §II-C cost reference), used as quality ground truth for the probe
//!   approximation.
//!
//! # Examples
//!
//! ```
//! use pimgfx_texture::{FilterMode, MippedTexture, Sampler, SamplerConfig, TextureImage};
//! use pimgfx_types::{Rgba, Vec2};
//!
//! // An 8x8 checkerboard, mipmapped.
//! let base = TextureImage::from_fn(8, 8, |x, y| {
//!     if (x + y) % 2 == 0 { Rgba::WHITE } else { Rgba::BLACK }
//! });
//! let tex = MippedTexture::with_full_chain(base);
//! let sampler = Sampler::new(SamplerConfig {
//!     filter: FilterMode::Trilinear,
//!     ..SamplerConfig::default()
//! });
//! let s = sampler.sample(
//!     &tex,
//!     Vec2::new(0.5, 0.5),
//!     Vec2::new(1.0, 0.0), // du/dx, dv/dx in base-level texels
//!     Vec2::new(0.0, 1.0), // du/dy, dv/dy
//! );
//! // A unit-rate footprint reads mip 0 exactly: one 2x2 bilinear kernel.
//! assert_eq!(s.fetches.len(), 4);
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

pub mod cache;
pub mod compress;
pub mod ewa;
pub mod filter;
pub mod footprint;
pub mod image;
pub mod layout;
pub mod mipmap;
pub mod sampler;

pub use cache::{CacheConfig, CacheOutcome, TextureCache};
pub use compress::CompressedTexture;
pub use filter::{FetchSet, FetchSink, FilterMode, SampleTrace, TexelFetch};
pub use footprint::Footprint;
pub use image::{TextureImage, WrapMode};
pub use layout::TextureLayout;
pub use mipmap::MippedTexture;
pub use sampler::{SampleInfo, Sampler, SamplerConfig};
