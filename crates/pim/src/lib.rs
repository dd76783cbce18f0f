//! Processing-in-memory hardware for the `pim-render` GPU simulator.
//!
//! Two designs from the paper live here:
//!
//! * **S-TFIM** (§IV) — [`MtuBank`]: every texture unit of the host GPU is
//!   moved wholesale into the HMC logic layer as a *Memory Texture Unit*
//!   with a request queue and FIFO scheduler. Texel reads become internal
//!   vault accesses, but every texture request and its response must
//!   cross the external links as oversized packages, and the GPU loses
//!   its texture caches — which is why the paper measures S-TFIM
//!   *increasing* texture traffic by ~2.8×.
//!
//! * **A-TFIM** (§V) — [`AtfimLogicLayer`]: only the anisotropic phase
//!   runs in memory, reordered ahead of bilinear/trilinear. The GPU
//!   fetches 8 *parent texels* per sample; on a texture-cache miss the
//!   [`OffloadUnit`] packs the misses into a compressed package, the
//!   [`TexelGenerator`] expands each parent into its child texels, the
//!   [`ChildConsolidator`] merges duplicate child reads, the
//!   [`ParentTexelBuffer`] holds in-flight state, and the
//!   [`CombinationUnit`] averages children into approximated parents sent
//!   back to the GPU.
//!
//! # Examples
//!
//! ```
//! use pimgfx_engine::Cycle;
//! use pimgfx_mem::Hmc;
//! use pimgfx_pim::{AtfimLogicLayer, ParentFetchBatch};
//!
//! let mut hmc = Hmc::with_defaults();
//! let mut logic = AtfimLogicLayer::with_defaults();
//! let batch = ParentFetchBatch {
//!     parent_line_addrs: vec![0x0, 0x40, 0x1000, 0x1040],
//!     aniso_ratio: 4,
//!     major_axis_x: true,
//!     line_bytes: 64,
//! };
//! let resp = logic.process(Cycle::ZERO, &batch, &mut hmc);
//! assert!(resp.completion > Cycle::ZERO);
//! assert!(resp.child_reads >= 4, "each parent expands into children");
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

pub mod atfim;
pub mod consolidate;
pub mod mtu;
pub mod offload;
pub mod parent_buffer;

pub use atfim::{AtfimConfig, AtfimLogicLayer, AtfimResponse, ParentFetchBatch};
pub use consolidate::ChildConsolidator;
pub use mtu::{Mtu, MtuBank, MtuConfig, TextureRequest};
pub use offload::OffloadUnit;
pub use parent_buffer::ParentTexelBuffer;

/// Re-exported combination back end (lives in [`atfim`]).
pub use atfim::CombinationUnit;
/// Re-exported child-texel generation front end (lives in [`atfim`]).
pub use atfim::TexelGenerator;
