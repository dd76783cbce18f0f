//! Discrete-event simulation kernel for the `pim-render` GPU simulator.
//!
//! The ATTILA simulator the paper builds on models hardware as "boxes"
//! connected by "signals". This crate provides the equivalent primitives
//! for our timing layer:
//!
//! * [`Cycle`] / [`time::Duration`] — simulation time in clock
//!   cycles of a component's own clock domain.
//! * [`Server`] and [`MultiServer`] — pipelined throughput resources
//!   (initiation interval + latency), the model used for texture units,
//!   filtering ALUs and fixed-function stages.
//! * [`Bandwidth`] — a byte-serialized channel (memory buses, HMC serial
//!   links, TSV columns) with busy-time accounting.
//! * [`utilization`] — busy-cycle counters shared by the energy model.
//! * [`trace`] — the per-stage counter registry ([`StageTrace`]) behind
//!   the workspace's cycle-conservation auditor.
//!
//! All primitives are deterministic: replaying the same event stream
//! yields bit-identical timing.
//!
//! # Examples
//!
//! ```
//! use pimgfx_engine::{Cycle, Server};
//!
//! // A filtering pipeline: one result per cycle, 4-cycle latency.
//! // Completion = start of the op's issue slot + pipeline latency.
//! let mut alu = Server::new(1, 4);
//! let c1 = alu.issue(Cycle::ZERO);
//! let c2 = alu.issue(Cycle::ZERO);
//! assert_eq!(c1, Cycle::new(4));
//! assert_eq!(c2, Cycle::new(5)); // second op waits one initiation interval
//! ```

// --- lint wall (checked byte-for-byte by `cargo xtask lint`) ---
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]

pub mod bandwidth;
pub mod server;
pub mod time;
pub mod trace;
pub mod utilization;
pub mod window;

pub use bandwidth::Bandwidth;
pub use server::{MultiServer, Server};
pub use time::{Cycle, Duration};
pub use trace::{StageCounters, StageTrace};
pub use utilization::Utilization;
pub use window::InFlightWindow;
