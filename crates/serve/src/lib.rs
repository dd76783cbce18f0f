//! `pimgfx-serve` — simulation-as-a-service for the pim-render
//! reproduction.
//!
//! The crate turns the in-process experiment harness
//! ([`pimgfx_bench`]) into a long-lived daemon: clients submit
//! simulation jobs (one Table II benchmark column plus a set of design
//! variants and/or figure sections) over a zero-dependency TCP
//! protocol, the daemon fans the job's cells across the worker pool,
//! and results come back as the same schema-v4 manifest cells a local
//! `repro` run writes — byte-for-byte (the loopback integration test
//! in `tests/` enforces the equivalence).
//!
//! Layering, client to socket to simulator:
//!
//! * [`protocol`] — the `PGRPC` length-prefixed binary wire format:
//!   framing, request/response types, and codecs built on the same
//!   little-endian primitives as the `PGTR` trace format in
//!   `pimgfx_workloads::trace_io`.
//! * [`client`] — a blocking [`client::Client`] used by the
//!   `pimgfx-client` CLI and the integration tests.
//! * [`queue`] — a [`queue::BoundedQueue`] that bounds *outstanding*
//!   work (queued plus running); an over-capacity submission is
//!   rejected with `Busy` backpressure instead of queueing unboundedly.
//! * [`job`] — job-level helpers: variant-set expansion from explicit
//!   variants and figure sections, config digests, and the
//!   deterministic per-job manifest writer.
//! * [`server`] — the daemon: accept loop, job slots sharing the
//!   thread budget, per-job deadlines and cancellation, and graceful
//!   drain (finish everything accepted, flush results, refuse new work,
//!   exit cleanly).
//! * [`deadline`] — overflow-safe wall-clock deadline helpers shared
//!   by the queue, the client, and the daemon.
//!
//! The full protocol and operational story is documented in
//! `docs/SERVING.md`. The `PGRPC` frame definitions are guarded by the
//! `protocol-version` rule of `cargo xtask lint`: changing them without
//! bumping [`protocol::VERSION`] (and updating
//! `crates/serve/protocol.snapshot`) fails the lint.

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

pub mod client;
pub mod deadline;
pub mod job;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::Client;
pub use protocol::{JobId, JobSpec, JobState, Request, Response};
pub use server::{DrainHandle, ServeConfig, Server};
