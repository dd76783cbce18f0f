//! `PGRPC` — the versioned, length-prefixed binary wire protocol.
//!
//! Every message travels as one frame:
//!
//! ```text
//! [magic "PGRPC" (5 bytes)] [version u32] [kind u32] [len u32] [payload]
//! ```
//!
//! All integers are little-endian, reusing the public primitive codecs
//! of the `PGTR` trace format (`pimgfx_workloads::trace_io`). Strings
//! are a `u32` byte length followed by UTF-8 bytes. A reader rejects
//! bad magic, any version other than [`VERSION`], payloads larger than
//! [`MAX_PAYLOAD`], truncated frames, and trailing payload bytes — all
//! as [`ProtocolError::Format`], never a panic or an unbounded
//! allocation.
//!
//! The frame-definition region below (between the
//! `protocol:frames:begin/end` markers) is snapshotted by the
//! `protocol-version` rule of `cargo xtask lint`: structural changes
//! without a [`VERSION`] bump fail the lint (see
//! `crates/serve/protocol.snapshot` and `docs/SERVING.md`).

use pimgfx::Design;
use pimgfx_bench::Variant;
use pimgfx_workloads::trace_io::{
    get_f32, get_u32, get_workload, put_f32, put_u32, put_workload, resolution_from_tag,
    resolution_tag,
};
use pimgfx_workloads::{Resolution, Workload};
use std::fmt;
use std::io::{self, Read, Write};

// protocol:frames:begin

/// Protocol magic; distinct from the `PGTR` trace magic.
pub const MAGIC: [u8; 5] = *b"PGRPC";

/// Wire-format version. Bump on ANY structural change to the frame
/// definitions in this region, and update
/// `crates/serve/protocol.snapshot` (the `protocol-version` lint rule
/// enforces both).
///
/// v2 added [`MatrixSpec`] and [`Request::SubmitMatrix`] (wire kind 6)
/// for the `pimgfx-coord` sharding coordinator.
///
/// v3 widened the benchmark-column identity from a bare game tag to a
/// [`Workload`] tag (games 0–4 unchanged on the wire; synthetic 5
/// followed by the spec parameters, reusing the `PGTR` workload
/// codec), and added [`Request::Stats`] (wire kind 7) /
/// [`Response::Stats`] (kind 107) exposing worker cache counters.
pub const VERSION: u32 = 3;

/// Hard cap on a frame's declared payload length (16 MiB): a corrupt
/// or hostile length field must not drive a huge allocation.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// Server-assigned job identifier, unique per daemon process.
pub type JobId = u64;

/// A job submission: one benchmark column plus the variant set to
/// simulate over it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Benchmark workload: a Table II game or a procedural
    /// `syn.<params>` spec.
    pub workload: Workload,
    /// Frame resolution; must be in the game's Table II set (synthetic
    /// workloads accept any resolution).
    pub resolution: Resolution,
    /// Explicit design variants to simulate.
    pub variants: Vec<Variant>,
    /// Figure/section names (`fig11`, ...) whose variant sets are
    /// added to `variants` (deduplicated by label).
    pub sections: Vec<String>,
    /// Whether the client asked for the trace; recorded in the job's
    /// manifest and digest. A failed cycle-conservation audit fails the
    /// job either way.
    pub trace: bool,
    /// Per-job deadline in milliseconds (0 = server default; the
    /// server treats a configured 0 as "no deadline"). Cancellation
    /// is checked between cells, not mid-cell.
    pub deadline_ms: u64,
}

/// A matrix submission: several benchmark columns sharing one variant
/// set. Only the `pimgfx-coord` coordinator accepts these — it shards
/// the matrix into per-column [`JobSpec`]s and routes each shard to
/// the `pimgfx-serve` worker owning that column's stream key.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Benchmark columns (workload + resolution) to simulate.
    pub columns: Vec<(Workload, Resolution)>,
    /// Explicit design variants to simulate on every column.
    pub variants: Vec<Variant>,
    /// Figure/section names whose variant sets are added to
    /// `variants` (deduplicated by label).
    pub sections: Vec<String>,
    /// Forwarded to every shard's [`JobSpec::trace`].
    pub trace: bool,
    /// Per-shard deadline in milliseconds, forwarded to workers
    /// (0 = worker default).
    pub deadline_ms: u64,
}

/// A worker's cache counters, cumulative since process start. Queried
/// via [`Request::Stats`] — the coordinator sums them across workers
/// at matrix merge time, and `pimgfx-loadgen` reports them in
/// `BENCH_serve.json` (wire: four u64s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Scene-cache evictions (0 while the cache is unbounded).
    pub scene_evictions: u64,
    /// Frontend-stream cache hits.
    pub stream_hits: u64,
    /// Frontend-stream cache misses.
    pub stream_misses: u64,
    /// Frontend-stream cache evictions (0 while unbounded).
    pub stream_evictions: u64,
}

/// Client-to-server messages. Wire kinds 1–7, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; answered with `Submitted`, `Busy`, or an error.
    SubmitJob(JobSpec),
    /// Ask for a job's current [`JobState`].
    JobStatus(JobId),
    /// Fetch a finished job's manifest JSON.
    FetchResult(JobId),
    /// Request cancellation; takes effect between cells.
    CancelJob(JobId),
    /// Begin a graceful drain: finish accepted work, refuse new jobs,
    /// then exit.
    Shutdown,
    /// Submit a multi-column matrix job (coordinator only; a plain
    /// `pimgfx-serve` worker answers with an error).
    SubmitMatrix(MatrixSpec),
    /// Ask for the server's cumulative [`CacheStats`] (a coordinator
    /// answers with the sum over its workers).
    Stats,
}

/// Lifecycle of a submitted job. Wire tags 0–4, in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the scheduler.
    Queued,
    /// Cells in flight.
    Running {
        /// Cells started so far.
        done: u32,
        /// Total cells in the job.
        total: u32,
    },
    /// All cells finished; the manifest is fetchable.
    Done {
        /// Cells simulated.
        cells: u32,
    },
    /// The job failed; the message says why.
    Failed(String),
    /// The job was cancelled (client request or deadline).
    Cancelled(String),
}

/// Server-to-client messages. Wire kinds 101–107, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Job accepted under this identifier.
    Submitted(JobId),
    /// Backpressure: the outstanding-job queue is full; retry later.
    Busy {
        /// Jobs currently outstanding (queued + running).
        depth: u32,
        /// The queue's capacity bound.
        capacity: u32,
    },
    /// A job's current state.
    Status(JobState),
    /// A finished job's result.
    JobResult {
        /// The deterministic per-job manifest (schema v3 cells).
        manifest_json: String,
    },
    /// Request-level failure (unknown job, invalid spec, ...).
    Error(String),
    /// The server is draining and refuses new work.
    ShuttingDown,
    /// The server's cumulative cache counters.
    Stats(CacheStats),
}

// protocol:frames:end

/// Errors reading or writing `PGRPC` frames.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying transport failure.
    Io(io::Error),
    /// Structurally invalid frame (bad magic, version, truncation,
    /// trailing bytes, unknown tags, ...).
    Format(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::Format(m) => write!(f, "invalid PGRPC frame: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Format(_) => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Convenience alias for protocol operations.
pub type ProtoResult<T> = Result<T, ProtocolError>;

/// Maps an I/O error occurring mid-frame: an early EOF is a malformed
/// stream ([`ProtocolError::Format`]), anything else stays I/O.
fn truncated(e: io::Error, what: &str) -> ProtocolError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ProtocolError::Format(format!("truncated frame: stream ended inside {what}"))
    } else {
        ProtocolError::Io(e)
    }
}

fn fmt_err<T>(msg: impl Into<String>) -> ProtoResult<T> {
    Err(ProtocolError::Format(msg.into()))
}

// ---- payload primitives (little-endian, shared style with PGTR) ----

fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u64(cur: &mut &[u8]) -> ProtoResult<u64> {
    let mut b = [0u8; 8];
    cur.read_exact(&mut b)
        .map_err(|e| truncated(e, "a u64 field"))?;
    Ok(u64::from_le_bytes(b))
}

fn pget_u32(cur: &mut &[u8]) -> ProtoResult<u32> {
    get_u32(cur).map_err(|e| truncated(e, "a u32 field"))
}

fn pget_f32(cur: &mut &[u8]) -> ProtoResult<f32> {
    get_f32(cur).map_err(|e| truncated(e, "an f32 field"))
}

fn put_str<W: Write>(w: &mut W, s: &str) -> ProtoResult<()> {
    let Ok(len) = u32::try_from(s.len()) else {
        return fmt_err("string longer than u32::MAX bytes");
    };
    put_u32(w, len)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Reads a length-prefixed string. The length is validated against the
/// remaining payload *before* any allocation, so a corrupt length can
/// never drive an oversized buffer.
fn get_str(cur: &mut &[u8]) -> ProtoResult<String> {
    let len = pget_u32(cur)? as usize;
    if len > cur.len() {
        return fmt_err(format!(
            "declared string length {len} exceeds the {} remaining payload bytes",
            cur.len()
        ));
    }
    let (head, tail) = cur.split_at(len);
    let s = match std::str::from_utf8(head) {
        Ok(s) => s.to_string(),
        Err(_) => return fmt_err("string payload is not valid UTF-8"),
    };
    *cur = tail;
    Ok(s)
}

fn put_bool<W: Write>(w: &mut W, v: bool) -> io::Result<()> {
    put_u32(w, u32::from(v))
}

fn get_bool(cur: &mut &[u8]) -> ProtoResult<bool> {
    match pget_u32(cur)? {
        0 => Ok(false),
        1 => Ok(true),
        other => fmt_err(format!("bool field must be 0 or 1, got {other}")),
    }
}

// ---- variant and spec codecs ----

fn put_variant<W: Write>(w: &mut W, v: Variant) -> io::Result<()> {
    match v {
        Variant::Design(Design::Baseline) => put_u32(w, 0),
        Variant::Design(Design::BPim) => put_u32(w, 1),
        Variant::Design(Design::STfim) => put_u32(w, 2),
        Variant::Design(Design::ATfim) => put_u32(w, 3),
        Variant::AnisoOff => put_u32(w, 4),
        Variant::AtfimThreshold(f) => {
            put_u32(w, 5)?;
            put_f32(w, f)
        }
        Variant::AtfimNoRecalc => put_u32(w, 6),
        Variant::AtfimNoConsolidation => put_u32(w, 7),
        Variant::AtfimNoCompression => put_u32(w, 8),
    }
}

fn get_variant(cur: &mut &[u8]) -> ProtoResult<Variant> {
    match pget_u32(cur)? {
        0 => Ok(Variant::Design(Design::Baseline)),
        1 => Ok(Variant::Design(Design::BPim)),
        2 => Ok(Variant::Design(Design::STfim)),
        3 => Ok(Variant::Design(Design::ATfim)),
        4 => Ok(Variant::AnisoOff),
        5 => Ok(Variant::AtfimThreshold(pget_f32(cur)?)),
        6 => Ok(Variant::AtfimNoRecalc),
        7 => Ok(Variant::AtfimNoConsolidation),
        8 => Ok(Variant::AtfimNoCompression),
        other => fmt_err(format!("unknown variant tag {other}")),
    }
}

/// Maps a `PGTR` workload-codec failure (unknown tag, invalid
/// synthetic parameters, truncation) into a frame-format error.
fn pget_workload(cur: &mut &[u8]) -> ProtoResult<Workload> {
    get_workload(cur).map_err(|e| ProtocolError::Format(format!("{e}")))
}

fn put_spec<W: Write>(w: &mut W, spec: &JobSpec) -> ProtoResult<()> {
    put_workload(w, spec.workload)?;
    put_u32(w, resolution_tag(spec.resolution))?;
    let Ok(nvar) = u32::try_from(spec.variants.len()) else {
        return fmt_err("too many variants");
    };
    put_u32(w, nvar)?;
    for &v in &spec.variants {
        put_variant(w, v)?;
    }
    let Ok(nsec) = u32::try_from(spec.sections.len()) else {
        return fmt_err("too many sections");
    };
    put_u32(w, nsec)?;
    for s in &spec.sections {
        put_str(w, s)?;
    }
    put_bool(w, spec.trace)?;
    put_u64(w, spec.deadline_ms)?;
    Ok(())
}

fn get_spec(cur: &mut &[u8]) -> ProtoResult<JobSpec> {
    let workload = pget_workload(cur)?;
    let resolution =
        resolution_from_tag(pget_u32(cur)?).map_err(|e| ProtocolError::Format(format!("{e}")))?;
    let nvar = pget_u32(cur)? as usize;
    let mut variants = Vec::new();
    for _ in 0..nvar {
        variants.push(get_variant(cur)?);
    }
    let nsec = pget_u32(cur)? as usize;
    let mut sections = Vec::new();
    for _ in 0..nsec {
        sections.push(get_str(cur)?);
    }
    let trace = get_bool(cur)?;
    let deadline_ms = get_u64(cur)?;
    Ok(JobSpec {
        workload,
        resolution,
        variants,
        sections,
        trace,
        deadline_ms,
    })
}

fn put_matrix<W: Write>(w: &mut W, spec: &MatrixSpec) -> ProtoResult<()> {
    let Ok(ncol) = u32::try_from(spec.columns.len()) else {
        return fmt_err("too many columns");
    };
    put_u32(w, ncol)?;
    for &(workload, res) in &spec.columns {
        put_workload(w, workload)?;
        put_u32(w, resolution_tag(res))?;
    }
    let Ok(nvar) = u32::try_from(spec.variants.len()) else {
        return fmt_err("too many variants");
    };
    put_u32(w, nvar)?;
    for &v in &spec.variants {
        put_variant(w, v)?;
    }
    let Ok(nsec) = u32::try_from(spec.sections.len()) else {
        return fmt_err("too many sections");
    };
    put_u32(w, nsec)?;
    for s in &spec.sections {
        put_str(w, s)?;
    }
    put_bool(w, spec.trace)?;
    put_u64(w, spec.deadline_ms)?;
    Ok(())
}

fn get_matrix(cur: &mut &[u8]) -> ProtoResult<MatrixSpec> {
    let ncol = pget_u32(cur)? as usize;
    let mut columns = Vec::new();
    for _ in 0..ncol {
        let workload = pget_workload(cur)?;
        let res = resolution_from_tag(pget_u32(cur)?)
            .map_err(|e| ProtocolError::Format(format!("{e}")))?;
        columns.push((workload, res));
    }
    let nvar = pget_u32(cur)? as usize;
    let mut variants = Vec::new();
    for _ in 0..nvar {
        variants.push(get_variant(cur)?);
    }
    let nsec = pget_u32(cur)? as usize;
    let mut sections = Vec::new();
    for _ in 0..nsec {
        sections.push(get_str(cur)?);
    }
    let trace = get_bool(cur)?;
    let deadline_ms = get_u64(cur)?;
    Ok(MatrixSpec {
        columns,
        variants,
        sections,
        trace,
        deadline_ms,
    })
}

fn put_state<W: Write>(w: &mut W, state: &JobState) -> ProtoResult<()> {
    match state {
        JobState::Queued => put_u32(w, 0)?,
        JobState::Running { done, total } => {
            put_u32(w, 1)?;
            put_u32(w, *done)?;
            put_u32(w, *total)?;
        }
        JobState::Done { cells } => {
            put_u32(w, 2)?;
            put_u32(w, *cells)?;
        }
        JobState::Failed(m) => {
            put_u32(w, 3)?;
            put_str(w, m)?;
        }
        JobState::Cancelled(m) => {
            put_u32(w, 4)?;
            put_str(w, m)?;
        }
    }
    Ok(())
}

fn get_state(cur: &mut &[u8]) -> ProtoResult<JobState> {
    match pget_u32(cur)? {
        0 => Ok(JobState::Queued),
        1 => Ok(JobState::Running {
            done: pget_u32(cur)?,
            total: pget_u32(cur)?,
        }),
        2 => Ok(JobState::Done {
            cells: pget_u32(cur)?,
        }),
        3 => Ok(JobState::Failed(get_str(cur)?)),
        4 => Ok(JobState::Cancelled(get_str(cur)?)),
        other => fmt_err(format!("unknown job-state tag {other}")),
    }
}

// ---- framing ----

/// Assembles one complete frame (header + payload) as a single buffer
/// so a frame always hits the socket in one `write_all`.
fn frame(kind: u32, payload: &[u8]) -> ProtoResult<Vec<u8>> {
    if payload.len() > MAX_PAYLOAD {
        return fmt_err(format!(
            "payload of {} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD})",
            payload.len()
        ));
    }
    let mut out = Vec::with_capacity(17 + payload.len());
    out.extend_from_slice(&MAGIC);
    let _ = put_u32(&mut out, VERSION);
    let _ = put_u32(&mut out, kind);
    // Cast is safe: length validated against MAX_PAYLOAD above.
    let _ = put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    Ok(out)
}

/// Reads one frame header + payload. `Ok(None)` means the peer closed
/// the stream cleanly *before* the first byte of a frame; an EOF
/// anywhere later is a `Format` error.
fn read_frame<R: Read>(r: &mut R) -> ProtoResult<Option<(u32, Vec<u8>)>> {
    let mut magic = [0u8; 5];
    let mut filled = 0;
    while filled < magic.len() {
        match r.read(&mut magic[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return fmt_err("truncated frame: stream ended inside the magic");
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    if magic != MAGIC {
        return fmt_err(format!("bad magic {magic:?} (expected {MAGIC:?})"));
    }
    let version = get_u32(r).map_err(|e| truncated(e, "the version field"))?;
    if version != VERSION {
        return fmt_err(format!(
            "unsupported protocol version {version} (this build speaks {VERSION})"
        ));
    }
    let kind = get_u32(r).map_err(|e| truncated(e, "the kind field"))?;
    let len = get_u32(r).map_err(|e| truncated(e, "the length field"))? as usize;
    if len > MAX_PAYLOAD {
        return fmt_err(format!(
            "declared payload length {len} exceeds MAX_PAYLOAD ({MAX_PAYLOAD})"
        ));
    }
    // Bounded read: `take` caps what a lying peer can make us buffer at
    // the validated length, and a short stream surfaces as Format.
    let mut payload = Vec::with_capacity(len.min(1 << 16));
    let read = r
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| truncated(e, "the payload"))?;
    if read != len {
        return fmt_err(format!(
            "truncated frame: payload ended after {read} of {len} declared bytes"
        ));
    }
    Ok(Some((kind, payload)))
}

fn reject_trailing(cur: &[u8], what: &str) -> ProtoResult<()> {
    if cur.is_empty() {
        Ok(())
    } else {
        fmt_err(format!(
            "{} trailing bytes after a complete {what} payload",
            cur.len()
        ))
    }
}

/// Writes one request frame.
///
/// # Errors
///
/// Fails on transport errors or an over-sized payload.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> ProtoResult<()> {
    let mut payload = Vec::new();
    let kind = match req {
        Request::SubmitJob(spec) => {
            put_spec(&mut payload, spec)?;
            1
        }
        Request::JobStatus(id) => {
            put_u64(&mut payload, *id)?;
            2
        }
        Request::FetchResult(id) => {
            put_u64(&mut payload, *id)?;
            3
        }
        Request::CancelJob(id) => {
            put_u64(&mut payload, *id)?;
            4
        }
        Request::Shutdown => 5,
        Request::SubmitMatrix(spec) => {
            put_matrix(&mut payload, spec)?;
            6
        }
        Request::Stats => 7,
    };
    w.write_all(&frame(kind, &payload)?)?;
    w.flush()?;
    Ok(())
}

/// Reads one request frame; `Ok(None)` on a clean disconnect.
///
/// # Errors
///
/// Transport errors as [`ProtocolError::Io`]; malformed frames
/// (including truncation) as [`ProtocolError::Format`].
pub fn read_request<R: Read>(r: &mut R) -> ProtoResult<Option<Request>> {
    let Some((kind, payload)) = read_frame(r)? else {
        return Ok(None);
    };
    let mut cur: &[u8] = &payload;
    let req = match kind {
        1 => Request::SubmitJob(get_spec(&mut cur)?),
        2 => Request::JobStatus(get_u64(&mut cur)?),
        3 => Request::FetchResult(get_u64(&mut cur)?),
        4 => Request::CancelJob(get_u64(&mut cur)?),
        5 => Request::Shutdown,
        6 => Request::SubmitMatrix(get_matrix(&mut cur)?),
        7 => Request::Stats,
        other => return fmt_err(format!("unknown request kind {other}")),
    };
    reject_trailing(cur, "request")?;
    Ok(Some(req))
}

/// Writes one response frame.
///
/// # Errors
///
/// Fails on transport errors or an over-sized payload.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> ProtoResult<()> {
    let mut payload = Vec::new();
    let kind = match resp {
        Response::Submitted(id) => {
            put_u64(&mut payload, *id)?;
            101
        }
        Response::Busy { depth, capacity } => {
            put_u32(&mut payload, *depth)?;
            put_u32(&mut payload, *capacity)?;
            102
        }
        Response::Status(state) => {
            put_state(&mut payload, state)?;
            103
        }
        Response::JobResult { manifest_json } => {
            put_str(&mut payload, manifest_json)?;
            104
        }
        Response::Error(m) => {
            put_str(&mut payload, m)?;
            105
        }
        Response::ShuttingDown => 106,
        Response::Stats(s) => {
            put_u64(&mut payload, s.scene_evictions)?;
            put_u64(&mut payload, s.stream_hits)?;
            put_u64(&mut payload, s.stream_misses)?;
            put_u64(&mut payload, s.stream_evictions)?;
            107
        }
    };
    w.write_all(&frame(kind, &payload)?)?;
    w.flush()?;
    Ok(())
}

/// Reads one response frame. Unlike [`read_request`], a disconnect
/// before the frame is an error: a client awaiting a reply must not
/// mistake a dropped connection for silence.
///
/// # Errors
///
/// Transport errors as [`ProtocolError::Io`]; malformed frames, early
/// EOF, and unknown kinds as [`ProtocolError::Format`].
pub fn read_response<R: Read>(r: &mut R) -> ProtoResult<Response> {
    let Some((kind, payload)) = read_frame(r)? else {
        return fmt_err("connection closed while awaiting a response");
    };
    let mut cur: &[u8] = &payload;
    let resp = match kind {
        101 => Response::Submitted(get_u64(&mut cur)?),
        102 => Response::Busy {
            depth: pget_u32(&mut cur)?,
            capacity: pget_u32(&mut cur)?,
        },
        103 => Response::Status(get_state(&mut cur)?),
        104 => Response::JobResult {
            manifest_json: get_str(&mut cur)?,
        },
        105 => Response::Error(get_str(&mut cur)?),
        106 => Response::ShuttingDown,
        107 => Response::Stats(CacheStats {
            scene_evictions: get_u64(&mut cur)?,
            stream_hits: get_u64(&mut cur)?,
            stream_misses: get_u64(&mut cur)?,
            stream_evictions: get_u64(&mut cur)?,
        }),
        other => return fmt_err(format!("unknown response kind {other}")),
    };
    reject_trailing(cur, "response")?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_validate_length_before_allocating() {
        // Declared length far beyond the actual payload.
        let mut payload = Vec::new();
        put_u32(&mut payload, u32::MAX).expect("vec write");
        payload.extend_from_slice(b"abc");
        let mut cur: &[u8] = &payload;
        let err = get_str(&mut cur).expect_err("must reject");
        assert!(matches!(err, ProtocolError::Format(_)), "{err}");
        assert!(format!("{err}").contains("remaining payload"), "{err}");
    }

    #[test]
    fn bool_rejects_out_of_range() {
        let mut payload = Vec::new();
        put_u32(&mut payload, 7).expect("vec write");
        let mut cur: &[u8] = &payload;
        assert!(get_bool(&mut cur).is_err());
    }

    #[test]
    fn frame_rejects_oversized_payload() {
        let big = vec![0u8; MAX_PAYLOAD + 1];
        assert!(frame(1, &big).is_err());
    }

    #[test]
    fn clean_disconnect_is_none_for_requests_error_for_responses() {
        let empty: &[u8] = &[];
        assert!(matches!(read_request(&mut { empty }), Ok(None)));
        let empty: &[u8] = &[];
        assert!(read_response(&mut { empty }).is_err());
    }
}
