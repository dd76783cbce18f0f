//! Rendering-quality metrics for the `pim-render` GPU simulator.
//!
//! The A-TFIM design trades rendering quality for performance through
//! its camera-angle threshold, and the paper quantifies the loss with
//! PSNR over the rendered frames (Figs. 15–16), noting that PSNR above
//! ~70 dB is visually indistinguishable and that the baseline compared
//! against itself reads as 99 dB (their PSNR tool's cap for identical
//! images — we reproduce that convention). SSIM is included as a
//! cross-check, as the paper discusses both metrics.
//!
//! # Examples
//!
//! ```
//! use pimgfx_quality::{psnr, FrameImage};
//! use pimgfx_types::Rgba;
//!
//! let a = FrameImage::filled(16, 16, Rgba::gray(0.5));
//! let b = FrameImage::filled(16, 16, Rgba::gray(0.5));
//! let db = psnr(&a, &b).expect("same dimensions");
//! assert_eq!(db, 99.0, "identical frames cap at 99 dB");
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

pub mod image;
pub mod metrics;

pub use image::FrameImage;
pub use metrics::{mse, psnr, ssim};
