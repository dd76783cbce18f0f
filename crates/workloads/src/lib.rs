//! Procedural game workloads for the `pim-render` GPU simulator.
//!
//! The paper replays ATTILA API traces captured from five commercial
//! games (Table II). Those traces are proprietary, so this crate builds
//! the closest synthetic equivalent: for each title, a procedurally
//! generated walkthrough scene whose *texture statistics* are tuned to
//! the characteristics that drive the paper's results —
//!
//! * the fraction of screen area covered by oblique surfaces (floors and
//!   walls seen at grazing angles), which sets the anisotropy-level
//!   distribution and hence the texel-fetch volume;
//! * texture resolution and count, which set cache working-set size;
//! * surface bumpiness (normal variation), which sets how much the
//!   camera angle differs between pixels sharing a parent texel — the
//!   knob the A-TFIM angle threshold trades against quality;
//! * camera motion per frame, which sets cross-frame angle coherence;
//! * overdraw, which sets Z/color-buffer traffic.
//!
//! Every generator is deterministic (seeded per game) so experiments are
//! exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use pimgfx_workloads::{build_scene, Game, Resolution};
//!
//! let scene = build_scene(Game::Doom3, Resolution::R320x240, 1);
//! assert_eq!(scene.width(), 320);
//! assert!(!scene.draws.is_empty());
//! assert_eq!(scene.cameras.len(), 1);
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

pub mod games;
pub mod mesh;
pub mod procedural;
pub mod scene;
pub mod synthetic;
pub mod trace_io;

pub use games::{Game, GameProfile, Resolution};
pub use scene::{
    build_scene, build_scene_unchecked, build_workload, DrawCall, SceneCache, SceneTrace,
};
pub use synthetic::{synthesize, SyntheticSpec, Workload};
