//! The `pimgfx-serve` daemon: accept loop, job slots, and drain logic.
//!
//! `B` job slots — `B` is the thread budget,
//! [`configured_workers`](pimgfx_bench::pool::configured_workers),
//! resolved when [`Server::run`] starts — pop job tokens off one bounded
//! queue, so up to `B` jobs run at once. A job that starts while
//! `running` jobs execute (itself included) takes `max(1, B / running)`
//! threads and spends them on its cell pool, its replay lanes and its
//! frontend build ([`pool::job_threads`]); a lone job keeps the whole
//! budget. Jobs share a [`SceneCache`] and a single-flight
//! [`FragmentStreamCache`], so two jobs on one cold column build its
//! frontend once. Connection handlers are cheap detached threads that
//! only parse frames and touch the job registry. Graceful drain (a
//! `Shutdown` request, or [`DrainHandle::drain`] from a signal watcher)
//! finishes every accepted job, flushes results, refuses new
//! submissions with `ShuttingDown`, joins every slot, and returns from
//! [`Server::run`] so the process can exit 0.

use crate::deadline::{deadline_after, expired};
use crate::job::{job_manifest_json, job_variants};
use crate::protocol::{
    self, CacheStats, JobId, JobSpec, JobState, ProtocolError, Request, Response,
};
use crate::queue::{BoundedQueue, PushError};
use pimgfx::{FragmentStreamCache, SimConfig};
use pimgfx_bench::manifest::{failed_audits, CellSummary};
use pimgfx_bench::{pool, Cell, Harness, HarnessResult, ReplayPlan, SECTIONS};
use pimgfx_types::{ConfigError, Error, FxHashMap};
use pimgfx_workloads::{Game, SceneCache, Workload};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Frames simulated per job column.
    pub frames: usize,
    /// Bound on outstanding jobs (queued + running); submissions over
    /// it get `Busy`.
    pub queue_capacity: usize,
    /// Default per-job deadline in milliseconds applied when a spec
    /// says 0; 0 here means "no deadline".
    pub default_deadline_ms: u64,
    /// Optional LRU bound on resident scene columns (`None` =
    /// unbounded, matching the local harness default).
    pub scene_capacity: Option<usize>,
    /// Optional LRU bound on resident frontend streams. `None` mirrors
    /// `scene_capacity` (a stream is useless once its scene is gone);
    /// a tighter explicit bound forces stream evictions without
    /// evicting scenes, as the `serve-churn` benchmark does.
    pub stream_capacity: Option<usize>,
    /// When set, every finished job's manifest is also flushed to
    /// `<dir>/job-<id>.json`.
    pub results_dir: Option<PathBuf>,
    /// Test scaffolding: sleep this long before a job's first cell,
    /// widening backpressure/cancellation windows deterministically
    /// (the daemon maps `PIMGFX_SERVE_HOLD_MS` onto it).
    pub hold_before_job: Duration,
    /// Read/write timeout applied to every accepted client socket. A
    /// peer that connects and then stalls longer than this — mid-frame
    /// or between requests — is treated as a clean disconnect instead
    /// of pinning its handler thread forever. `Duration::ZERO`
    /// disables the timeout (not recommended outside tests).
    pub io_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            frames: 2,
            queue_capacity: 4,
            default_deadline_ms: 0,
            scene_capacity: None,
            stream_capacity: None,
            results_dir: None,
            hold_before_job: Duration::ZERO,
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// Job execution phase, kept in the server-side registry.
#[derive(Debug)]
enum Phase {
    Queued,
    Running { done: Arc<AtomicU32>, total: u32 },
    Done { manifest: String, cells: u32 },
    Failed(String),
    Cancelled(String),
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    cancel: Arc<AtomicBool>,
    phase: Phase,
}

#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<JobId>,
    // lock:rank(10, serve.server.jobs)
    jobs: Mutex<FxHashMap<JobId, JobEntry>>,
    next_id: AtomicU64,
    draining: Arc<AtomicBool>,
    scenes: SceneCache,
    /// Frontend streams shared across jobs: consecutive variants (and
    /// consecutive or concurrent jobs) on one column pay the frontend
    /// pass once.
    streams: FragmentStreamCache,
    /// Jobs executing right now, across every slot.
    running: AtomicUsize,
}

impl Shared {
    /// Registry state is plain data; recover from a poisoned lock
    /// rather than wedging every connection.
    fn jobs(&self) -> MutexGuard<'_, FxHashMap<JobId, JobEntry>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_phase(&self, id: JobId, phase: Phase) {
        if let Some(entry) = self.jobs().get_mut(&id) {
            entry.phase = phase;
        }
    }
}

/// Handle for requesting a graceful drain from outside the server
/// (e.g. a SIGTERM watcher thread in the daemon binary).
#[derive(Debug, Clone)]
pub struct DrainHandle(Arc<AtomicBool>);

impl DrainHandle {
    /// Starts the drain: in-flight and queued jobs finish, new
    /// submissions are refused, and [`Server::run`] returns.
    pub fn drain(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the shared state.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the configuration is
    /// invalid (zero frames or queue capacity).
    pub fn bind(config: ServeConfig) -> HarnessResult<Self> {
        if config.frames == 0 {
            return Err(ConfigError::new("pimgfx-serve", "frames must be at least 1").into());
        }
        if config.queue_capacity == 0 {
            return Err(
                ConfigError::new("pimgfx-serve", "queue capacity must be at least 1").into(),
            );
        }
        if let Some(0) = config.scene_capacity {
            return Err(ConfigError::new(
                "pimgfx-serve",
                "scene cache capacity must be at least 1 column (omit for unbounded)",
            )
            .into());
        }
        if let Some(0) = config.stream_capacity {
            return Err(ConfigError::new(
                "pimgfx-serve",
                "stream cache capacity must be at least 1 column (omit for unbounded)",
            )
            .into());
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::io(format!("binding {}", config.addr), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io("reading bound address", e))?;
        let scenes = match config.scene_capacity {
            Some(cap) => SceneCache::with_capacity(config.frames, cap),
            None => SceneCache::new(config.frames),
        };
        // The stream cache mirrors the scene cache's bound unless an
        // explicit stream bound is set: a column's frontend artifact
        // is useless once its scene is evicted.
        let tile_px = SimConfig::default().tile_px;
        let streams = match config.stream_capacity.or(config.scene_capacity) {
            Some(cap) => FragmentStreamCache::with_capacity(tile_px, cap),
            None => FragmentStreamCache::new(tile_px),
        };
        let queue = BoundedQueue::new(config.queue_capacity);
        Ok(Self {
            listener,
            addr,
            shared: Arc::new(Shared {
                config,
                queue,
                jobs: Mutex::new(FxHashMap::default()),
                next_id: AtomicU64::new(0),
                draining: Arc::new(AtomicBool::new(false)),
                scenes,
                streams,
                running: AtomicUsize::new(0),
            }),
        })
    }

    /// The actually bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that triggers a graceful drain from another thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle(Arc::clone(&self.shared.draining))
    }

    /// Runs the daemon until drained: accepts connections, runs jobs on
    /// the job slots, and returns `Ok(())` once a drain request has been
    /// honored (all accepted jobs finished, results flushed, every slot
    /// joined).
    ///
    /// # Errors
    ///
    /// Fails on a malformed thread budget override, fatal listener
    /// errors, or a panicked job slot.
    pub fn run(self) -> HarnessResult<()> {
        // The budget: the number of job slots, and the threads the
        // running jobs split between them.
        let budget = pool::configured_workers()?;
        self.listener
            .set_nonblocking(true)
            .map_err(|e| Error::io("setting listener nonblocking", e))?;
        let shared = self.shared;
        let slots: Vec<_> = (0..budget)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || slot_loop(&sh, budget))
            })
            .collect();
        let fatal = loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let sh = Arc::clone(&shared);
                    // Detached on purpose: a drain must not wait on
                    // idle client connections, only on accepted jobs.
                    std::thread::spawn(move || handle_connection(&sh, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if shared.draining.load(Ordering::SeqCst) && shared.queue.is_idle() {
                        break None;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    shared.draining.store(true, Ordering::SeqCst);
                    break Some(Error::io("accepting connection", e));
                }
            }
        };
        shared.queue.close();
        // Join every slot before reporting, so no job outlives `run`.
        let panicked = slots
            .into_iter()
            .map(|s| s.join())
            .filter(Result::is_err)
            .count();
        if panicked > 0 {
            return Err(ConfigError::new(
                "pimgfx-serve",
                format!("{panicked} job slot(s) panicked"),
            )
            .into());
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// One job slot: pops and runs jobs until the queue closes or a drain
/// finds it idle.
fn slot_loop(shared: &Shared, budget: usize) {
    loop {
        match shared.queue.pop_timeout(Duration::from_millis(50)) {
            Some(id) => {
                execute_job(shared, id, budget);
                shared.queue.task_done();
            }
            None => {
                let drained = shared.draining.load(Ordering::SeqCst) && shared.queue.is_idle();
                if drained || shared.queue.is_closed() {
                    break;
                }
            }
        }
    }
}

/// Counts one job in [`Shared::running`] for as long as it executes,
/// whichever way it ends.
struct RunningJob<'a>(&'a AtomicUsize);

impl<'a> RunningJob<'a> {
    fn enter(running: &'a AtomicUsize) -> Self {
        running.fetch_add(1, Ordering::SeqCst);
        Self(running)
    }
}

impl Drop for RunningJob<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one job to a terminal phase on its share of the `budget`-thread
/// allowance. Never panics: every failure path lands in
/// `Phase::Failed`/`Phase::Cancelled` so clients always get an answer.
fn execute_job(shared: &Shared, id: JobId, budget: usize) {
    let (spec, cancel, done) = {
        let mut jobs = shared.jobs();
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        if entry.cancel.load(Ordering::SeqCst) {
            entry.phase = Phase::Cancelled("cancelled before start".to_string());
            return;
        }
        let variants = job_variants(&entry.spec);
        let total = u32::try_from(variants.len()).unwrap_or(u32::MAX);
        let done = Arc::new(AtomicU32::new(0));
        entry.phase = Phase::Running {
            done: Arc::clone(&done),
            total,
        };
        (entry.spec.clone(), Arc::clone(&entry.cancel), done)
    };
    let _running = RunningJob::enter(&shared.running);

    let deadline_ms = if spec.deadline_ms > 0 {
        spec.deadline_ms
    } else {
        shared.config.default_deadline_ms
    };
    // An unrepresentable deadline (absurdly large deadline_ms)
    // saturates into "no deadline" instead of panicking mid-job.
    let deadline = (deadline_ms > 0)
        .then(|| deadline_after(Duration::from_millis(deadline_ms)))
        .flatten();
    if shared.config.hold_before_job > Duration::ZERO {
        std::thread::sleep(shared.config.hold_before_job);
    }

    let variants = job_variants(&spec);
    let total = variants.len();
    let job_cells: Vec<Cell> = variants
        .iter()
        .map(|&v| (spec.workload, spec.resolution, v))
        .collect();
    let plan = match ReplayPlan::new(&job_cells) {
        Ok(p) => p,
        Err(e) => {
            shared.set_phase(id, Phase::Failed(format!("grouping cells: {e}")));
            return;
        }
    };
    // The job's share of the budget, fixed for its whole run: the group
    // pool, the replay lanes and the frontend build all draw from it,
    // so the jobs running now together keep at most `budget` threads
    // busy.
    let threads = pool::job_threads(
        budget,
        shared.running.load(Ordering::SeqCst),
        plan.groups().len(),
    );
    let lanes = match pool::replay_lanes_override() {
        Ok(pin) => pin.unwrap_or(threads.lanes),
        Err(e) => {
            shared.set_phase(id, Phase::Failed(format!("resolving replay lanes: {e}")));
            return;
        }
    };
    // Columns are validated at submission — games against Table II,
    // synthetic specs via `SyntheticSpec::validate` — so the scene
    // build cannot hit the cache's invalid-column panic here.
    let scene = shared.scenes.get(spec.workload, spec.resolution);
    // Fetch the column's frontend stream up front, so a cold column is
    // built on the job's share (once, even if another slot asks for it
    // at the same time) and the groups below replay it from the cache.
    if let Err(e) = shared.streams.get_with_workers(&scene, threads.build) {
        shared.set_phase(id, Phase::Failed(format!("frontend pass: {e}")));
        return;
    }
    // Per variant: its report, its group's error, or `None` when its
    // group was skipped.
    let results = plan.run(
        |_, _| Arc::clone(&scene),
        &shared.streams,
        threads.cell_workers,
        lanes,
        |group| {
            if cancel.load(Ordering::SeqCst) || expired(deadline) {
                return false;
            }
            done.fetch_add(group.len() as u32, Ordering::SeqCst);
            true
        },
    );
    // Operational visibility for the smoke test and operators: one
    // line per job on stderr, the daemon's diagnostic channel.
    #[allow(
        clippy::print_stderr,
        reason = "stderr is the daemon's diagnostic channel; the serve smoke test greps this line"
    )]
    {
        let stats = shared.streams.stats();
        eprintln!(
            "pimgfx-serve: job {id}: frontend_cache hits={} misses={} evictions={}",
            stats.hits, stats.misses, stats.evictions
        );
    }

    let skipped = results.iter().filter(|r| r.is_none()).count();
    if skipped > 0 {
        let ran = total - skipped;
        let reason = if cancel.load(Ordering::SeqCst) {
            format!("cancelled by client after {ran} of {total} cells")
        } else {
            format!("deadline of {deadline_ms} ms exceeded after {ran} of {total} cells")
        };
        shared.set_phase(id, Phase::Cancelled(reason));
        return;
    }

    let column = Harness::column_label(spec.workload, spec.resolution);
    let mut cells: Vec<CellSummary> = Vec::with_capacity(total);
    for (v, res) in variants.iter().zip(results) {
        match res {
            Some(Ok((report, _))) => {
                cells.push(CellSummary::from_report(&column, &v.label(), &report));
            }
            Some(Err(e)) => {
                shared.set_phase(id, Phase::Failed(format!("cell {}: {e}", v.label())));
                return;
            }
            None => {}
        }
    }

    // A failed cycle-conservation audit fails the job whether or not
    // the client asked for the trace.
    let bad = failed_audits(&cells);
    if bad > 0 {
        shared.set_phase(
            id,
            Phase::Failed(format!(
                "trace audit failed for {bad} of {} cells",
                cells.len()
            )),
        );
        return;
    }

    let manifest = job_manifest_json(id, &spec, shared.config.frames, &cells);
    if let Some(dir) = &shared.config.results_dir {
        let write = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("job-{id}.json")), &manifest));
        if let Err(e) = write {
            shared.set_phase(
                id,
                Phase::Failed(format!("writing result to {}: {e}", dir.display())),
            );
            return;
        }
    }
    let cell_count = u32::try_from(cells.len()).unwrap_or(u32::MAX);
    shared.set_phase(
        id,
        Phase::Done {
            manifest,
            cells: cell_count,
        },
    );
}

/// Whether a protocol failure is a socket read/write timeout — a
/// stalled peer, not a corrupt stream. Unix reports an expired
/// `SO_RCVTIMEO`/`SO_SNDTIMEO` as `WouldBlock`; Windows as `TimedOut`.
fn is_stall(e: &ProtocolError) -> bool {
    matches!(
        e,
        ProtocolError::Io(io)
            if matches!(io.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    )
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    // The regression this guards: an accepted socket with no timeouts
    // let a client that connects and stalls pin this detached thread
    // forever. A stalled peer now surfaces as a timeout, handled below
    // as a clean disconnect.
    let timeout = (shared.config.io_timeout > Duration::ZERO).then_some(shared.config.io_timeout);
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        match protocol::read_request(&mut reader) {
            Ok(Some(req)) => {
                let resp = dispatch(shared, &req);
                if protocol::write_response(&mut writer, &resp).is_err() {
                    break;
                }
            }
            Ok(None) => break,
            // A stalled peer gets no best-effort reply: writing to it
            // could stall in turn. Drop the connection cleanly.
            Err(e) if is_stall(&e) => break,
            Err(e) => {
                // Best-effort error reply; the connection is done
                // either way (framing is unrecoverable mid-stream).
                let _ = protocol::write_response(
                    &mut writer,
                    &Response::Error(format!("protocol error: {e}")),
                );
                break;
            }
        }
    }
}

fn dispatch(shared: &Shared, req: &Request) -> Response {
    match req {
        Request::SubmitJob(spec) => submit(shared, spec),
        Request::JobStatus(id) => status(shared, *id),
        Request::FetchResult(id) => fetch(shared, *id),
        Request::CancelJob(id) => cancel(shared, *id),
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
        Request::Stats => Response::Stats(cache_stats(shared)),
    }
}

/// Snapshot of this worker's cumulative cache counters.
fn cache_stats(shared: &Shared) -> CacheStats {
    let streams = shared.streams.stats();
    CacheStats {
        scene_evictions: shared.scenes.evictions(),
        stream_hits: streams.hits,
        stream_misses: streams.misses,
        stream_evictions: streams.evictions,
    }
}

fn submit(shared: &Shared, spec: &JobSpec) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::ShuttingDown;
    }
    match spec.workload {
        Workload::Game(g) => {
            if !Game::benchmark_matrix().contains(&(g, spec.resolution)) {
                return Response::Error(format!(
                    "{} is not a Table II benchmark column",
                    Harness::column_label(spec.workload, spec.resolution)
                ));
            }
        }
        // Synthetic columns are open-ended by design: any valid spec at
        // any resolution is renderable.
        Workload::Synthetic(s) => {
            if let Err(e) = s.validate() {
                return Response::Error(format!("invalid synthetic workload: {e}"));
            }
        }
    }
    for s in &spec.sections {
        if !SECTIONS.contains(&s.as_str()) {
            return Response::Error(format!(
                "unknown section `{s}` (expected one of: {})",
                SECTIONS.join(", ")
            ));
        }
    }
    let variants = job_variants(spec);
    if variants.is_empty() {
        return Response::Error(
            "job selects no simulation cells; pass variants or figure sections".to_string(),
        );
    }
    for v in &variants {
        if let Err(e) = v.config() {
            return Response::Error(format!("invalid variant `{}`: {e}", v.label()));
        }
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
    shared.jobs().insert(
        id,
        JobEntry {
            spec: spec.clone(),
            cancel: Arc::new(AtomicBool::new(false)),
            phase: Phase::Queued,
        },
    );
    match shared.queue.try_push(id) {
        Ok(()) => Response::Submitted(id),
        Err(PushError::Full { depth, capacity }) => {
            shared.jobs().remove(&id);
            Response::Busy {
                depth: u32::try_from(depth).unwrap_or(u32::MAX),
                capacity: u32::try_from(capacity).unwrap_or(u32::MAX),
            }
        }
        Err(PushError::Closed) => {
            shared.jobs().remove(&id);
            Response::ShuttingDown
        }
    }
}

fn state_of(entry: &JobEntry) -> JobState {
    match &entry.phase {
        Phase::Queued => JobState::Queued,
        Phase::Running { done, total } => JobState::Running {
            done: done.load(Ordering::SeqCst),
            total: *total,
        },
        Phase::Done { cells, .. } => JobState::Done { cells: *cells },
        Phase::Failed(m) => JobState::Failed(m.clone()),
        Phase::Cancelled(m) => JobState::Cancelled(m.clone()),
    }
}

fn status(shared: &Shared, id: JobId) -> Response {
    match shared.jobs().get(&id) {
        Some(entry) => Response::Status(state_of(entry)),
        None => Response::Error(format!("unknown job {id}")),
    }
}

fn fetch(shared: &Shared, id: JobId) -> Response {
    match shared.jobs().get(&id) {
        Some(entry) => match &entry.phase {
            Phase::Done { manifest, .. } => Response::JobResult {
                manifest_json: manifest.clone(),
            },
            Phase::Failed(m) => Response::Error(format!("job {id} failed: {m}")),
            Phase::Cancelled(m) => Response::Error(format!("job {id} was cancelled: {m}")),
            Phase::Queued | Phase::Running { .. } => {
                Response::Error(format!("job {id} is not finished"))
            }
        },
        None => Response::Error(format!("unknown job {id}")),
    }
}

fn cancel(shared: &Shared, id: JobId) -> Response {
    match shared.jobs().get(&id) {
        Some(entry) => {
            entry.cancel.store(true, Ordering::SeqCst);
            Response::Status(state_of(entry))
        }
        None => Response::Error(format!("unknown job {id}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_bench::Variant;
    use pimgfx_workloads::Resolution;

    #[test]
    fn bind_validates_configuration() {
        let bad_frames = ServeConfig {
            frames: 0,
            ..ServeConfig::default()
        };
        assert!(Server::bind(bad_frames).is_err());
        let bad_queue = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        assert!(Server::bind(bad_queue).is_err());
        let bad_cache = ServeConfig {
            scene_capacity: Some(0),
            ..ServeConfig::default()
        };
        assert!(Server::bind(bad_cache).is_err());
    }

    #[test]
    fn submit_rejects_invalid_variants_before_queueing() {
        let server = Server::bind(ServeConfig::default()).expect("bind 127.0.0.1:0");
        for fraction in [f32::NAN, f32::INFINITY, -0.5] {
            let spec = JobSpec {
                workload: Workload::Game(Game::Doom3),
                resolution: Resolution::R320x240,
                variants: vec![Variant::AtfimThreshold(fraction)],
                sections: Vec::new(),
                trace: false,
                deadline_ms: 0,
            };
            match submit(&server.shared, &spec) {
                Response::Error(m) => assert!(m.contains("a-tfim@"), "{fraction}: {m}"),
                other => panic!("{fraction}: expected an error, got {other:?}"),
            }
        }
        assert!(server.shared.jobs().is_empty(), "no job was registered");
    }

    #[test]
    fn ephemeral_bind_reports_a_real_port() {
        let server = Server::bind(ServeConfig::default()).expect("bind 127.0.0.1:0");
        assert_ne!(server.local_addr().port(), 0);
    }
}
