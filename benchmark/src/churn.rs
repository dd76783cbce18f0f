//! `serve-churn`: a closed loop of [`CLIENTS`] connections against an
//! in-process `pimgfx-serve` on an ephemeral loopback port.
//!
//! Each job is one small synthetic 320×240 column with one design. A
//! seeded sequence picks each job's column so that about half the jobs
//! find their column's stream in the server's bounded stream cache and
//! half rebuild the frontend. Every job is submitted, polled until it
//! finishes, fetched, and its cell compared byte for byte with a local
//! `Harness` run of the same cell made during set-up. Callers of
//! `pimgfx-client --wait` each wait for their reply, hence a closed loop.

use crate::host::{self, PROBES};
use crate::reference::Checker;
use crate::trace::Tracer;
use crate::{stats, Outcome, Plan, Unit, DESIGNS};
use pimgfx::Design;
use pimgfx_bench::{Harness, Variant};
use pimgfx_serve::{Client, JobSpec, JobState, Response, ServeConfig, Server};
use pimgfx_types::TinyRng;
use pimgfx_workloads::{synthesize, Resolution, SceneTrace, SyntheticSpec, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "serve-churn";

/// Jobs a run completes at least: enough for p90 with ten jobs beyond it.
pub const MIN_JOBS: usize = 100;

/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// Columns in the pool; every column runs with each of the four designs.
pub const POOL: usize = 64;

/// Columns one run draws from the pool.
const COLUMNS: usize = 8;

/// The server's stream-cache bound, in columns.
const STREAM_CACHE: usize = 3;

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 21;

/// Longest sequence a run can consume.
const MAX_JOBS: usize = 1 << 16;

/// Jobs per throughput unit.
const JOB_BLOCK: usize = 25;

/// Interval between status polls of a running job. `pimgfx-client`
/// polls every 100 ms and `pimgfx-loadgen` every 10 ms; 2 ms keeps the
/// added latency under a tenth of a job, and the polls (each one an RPC
/// the server answers) leave the replay lanes most of the CPU.
const POLL: Duration = Duration::from_millis(2);

const RES: Resolution = Resolution::R320x240;
const FRAMES: usize = 1;

/// Pool column `k`: a small all-grazing corridor without randomly
/// placed props, so every column costs about the same and a run's
/// latency does not depend on which columns its seed draws.
fn spec(k: usize) -> SyntheticSpec {
    SyntheticSpec {
        seed: 0x5E7E_0000 + k as u64,
        triangles: 400,
        textures: 4,
        texture_size: 32,
        kind_mask: 0xF,
        grazing_milli: 1000,
        overdraw: 1,
        path_frames: 8,
    }
}

/// One planned job: column index into the run's columns, design, and
/// whether the column's stream should be resident when the job runs.
type PlannedJob = (usize, Design, bool);

/// The run's columns and job sequence. The sequence replays the
/// server's LRU stream cache: each job picks, with even odds, a column
/// that should still be resident or one that should not.
fn plan_jobs(seed: u64) -> (Vec<usize>, Vec<PlannedJob>) {
    let mut rng = TinyRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = (0..POOL).collect();
    for i in (1..pool.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }
    let columns: Vec<usize> = pool[..COLUMNS].to_vec();
    let mut lru: Vec<usize> = Vec::new();
    let mut jobs = Vec::with_capacity(MAX_JOBS);
    for _ in 0..MAX_JOBS {
        let hit = !lru.is_empty() && rng.next_u64().is_multiple_of(2);
        let candidates: Vec<usize> = if hit {
            lru.clone()
        } else {
            (0..COLUMNS).filter(|c| !lru.contains(c)).collect()
        };
        let c = candidates[(rng.next_u64() % candidates.len() as u64) as usize];
        lru.retain(|&x| x != c);
        lru.push(c);
        if lru.len() > STREAM_CACHE {
            lru.remove(0);
        }
        let d = Design::ALL[(rng.next_u64() % Design::ALL.len() as u64) as usize];
        jobs.push((c, d, hit));
    }
    (columns, jobs)
}

/// Expected cell of one `(column, design)`: its manifest JSON object and
/// its simulated texture samples.
type Expected = BTreeMap<(usize, &'static str), (String, u64)>;

/// Frontend and replay timings of the local run. The server's own
/// calls are not visible from a client, so the traced run reports these
/// for the same cells run in process, on the same per-job lanes.
#[derive(Default)]
struct LocalTimings {
    builds_ms: Vec<f64>,
    frags: u64,
    replay: BTreeMap<&'static str, (Vec<f64>, u64)>,
    lanes: usize,
    first_scene: Option<Arc<SceneTrace>>,
}

/// Simulates every `(column, design)` of the run locally and checks each
/// against the committed reference.
fn local_reference(
    columns: &[usize],
    tracer: &Tracer,
    check: &mut Checker,
) -> (Expected, LocalTimings) {
    let mut h = Harness::new(FRAMES);
    let mut out = Expected::new();
    let mut timings = LocalTimings::default();
    for (c, &k) in columns.iter().enumerate() {
        let sp = tracer.open("workloads.scene", 0, None);
        let scene = h.scenes().get(spec(k), RES);
        tracer.close(sp);
        let column = Harness::column_label(spec(k), RES);
        for d in Design::ALL {
            match h.run(spec(k), RES, Variant::Design(d)) {
                Ok(report) => {
                    let summary = check.cell(NAME, &column, d.label(), report);
                    let samples = report.texture.samples;
                    out.insert((c, d.label()), (summary.to_json_object(), samples));
                    if let Some(w) = h.wall_split(&column, d.label()) {
                        let e = timings.replay.entry(d.label()).or_default();
                        e.0.push(w.backend_ms);
                        e.1 += samples;
                        timings.lanes = timings.lanes.max(w.replay_lanes);
                    }
                }
                Err(e) => check.error(format!("{NAME}: local {column}/{}: {e}", d.label())),
            }
        }
        if let Ok(stream) = h.streams().get(&scene) {
            timings
                .builds_ms
                .push(stream.build_wall().as_secs_f64() * 1e3);
            timings.frags += stream.fragment_count();
        }
        if tracer.is_on() && timings.first_scene.is_none() {
            timings.first_scene = Some(scene);
        }
    }
    (out, timings)
}

/// A single-cell job, audited by the server.
pub fn job_spec(workload: Workload, resolution: Resolution, variant: Variant) -> JobSpec {
    JobSpec {
        workload,
        resolution,
        variants: vec![variant],
        sections: Vec::new(),
        trace: true,
        deadline_ms: 0,
    }
}

/// A running in-process server.
struct Daemon {
    addr: std::net::SocketAddr,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

/// Starts a server rendering `frames` frames per job.
fn start_server(frames: usize) -> Result<Daemon, String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        frames,
        queue_capacity: 2 * CLIENTS,
        stream_capacity: Some(STREAM_CACHE),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
    Ok(Daemon { addr, thread })
}

fn stop_server(d: Daemon) -> Result<(), String> {
    Client::connect(d.addr)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("shutdown: {e}"))?;
    d.thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
}

/// One job's timings, ms.
#[derive(Debug, Clone, Copy, Default)]
struct JobTimes {
    total: f64,
    submit: f64,
    queue: f64,
    run: f64,
    fetch: f64,
    /// Completion, seconds since the measured phase began.
    done_s: f64,
}

/// Submits, waits for and fetches one job; returns the manifest.
fn job(
    client: &mut Client,
    spec: &JobSpec,
    tracer: &Tracer,
    group: u64,
) -> Result<(String, JobTimes), String> {
    let root = tracer.open("job", group, None);
    // det:boundary — job latency (cell_ms_p50 on serve-churn).
    let t0 = Instant::now();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let sp = tracer.open("serve.submit", group, root.as_ref());
    let mut busy = 0;
    let id = loop {
        match client.submit(spec).map_err(|e| e.to_string())? {
            Response::Submitted(id) => break id,
            Response::Busy { .. } if busy < 100 => {
                busy += 1;
                std::thread::sleep(POLL);
            }
            other => return Err(format!("submit refused: {other:?}")),
        }
    };
    tracer.close(sp);
    let mut times = JobTimes {
        submit: ms(t0),
        ..JobTimes::default()
    };
    let sp = tracer.open("serve.wait", group, root.as_ref());
    // det:boundary — submitted → running → done transitions.
    let submitted = Instant::now();
    let mut running: Option<Instant> = None;
    loop {
        match client.status(id).map_err(|e| e.to_string())? {
            JobState::Queued => {}
            JobState::Running { .. } => {
                // det:boundary — first poll that saw the job running.
                running.get_or_insert_with(Instant::now);
            }
            JobState::Done { .. } => break,
            other => return Err(format!("job {id} ended {other:?}")),
        }
        if submitted.elapsed() > Duration::from_secs(60) {
            return Err(format!("job {id} did not finish within 60 s"));
        }
        std::thread::sleep(POLL);
    }
    tracer.close(sp);
    let running = running.unwrap_or(submitted);
    times.queue = running.duration_since(submitted).as_secs_f64() * 1e3;
    times.run = ms(running);
    let sp = tracer.open("serve.fetch", group, root.as_ref());
    // det:boundary — fetch latency.
    let t = Instant::now();
    let manifest = client.fetch_manifest(id).map_err(|e| e.to_string())?;
    times.fetch = ms(t);
    tracer.close(sp);
    times.total = ms(t0);
    tracer.close(root);
    Ok((manifest, times))
}

/// Runs the closed loop until the plan's time and job minimums are met.
pub fn run(plan: &Plan<'_>, check: &mut Checker) -> Outcome {
    let tracer = plan.tracer;
    let (columns, jobs) = plan_jobs(plan.seed);
    let mut out = Outcome::default();

    // Set-up, timed: the run's scenes, then server start-up. Every
    // repetition but the last stops its server again.
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        // det:boundary — set-up wall time (setup_s).
        let t = Instant::now();
        for &k in &columns {
            let sp = tracer.open("workloads.scene", 0, None);
            std::hint::black_box(synthesize(&spec(k), RES, FRAMES));
            tracer.close(sp);
        }
        let sp = tracer.open("setup.server_start", 0, None);
        let started = start_server(FRAMES);
        tracer.close(sp);
        out.setup_s.push(t.elapsed().as_secs_f64());
        match started {
            Ok(d) if rep + 1 == SETUP_REPS => daemon = Some(d),
            Ok(d) => {
                if let Err(e) = stop_server(d) {
                    check.error(format!("{NAME}: {e}"));
                    return out;
                }
            }
            Err(e) => {
                check.error(format!("{NAME}: server start: {e}"));
                return out;
            }
        }
    }
    // Set-up, untimed: the local run every fetched manifest must match.
    let sp = tracer.open("setup.local_reference", 0, None);
    let (expected, local) = local_reference(&columns, tracer, check);
    tracer.close(sp);
    let Some(daemon) = daemon else { return out };
    out.speed_ms = (0..PROBES).map(|_| host::speed_probe_ms()).collect();
    let stats_before = Client::connect(daemon.addr).and_then(|mut c| c.stats());

    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let results: Mutex<Vec<(usize, JobTimes)>> = Mutex::new(Vec::new());
    let checkers: Mutex<Vec<Checker>> = Mutex::new(Vec::new());
    // det:boundary — measured-phase clock for the run length.
    let phase = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut mine = Checker::default();
                let mut client = match Client::connect(daemon.addr) {
                    Ok(c) => c,
                    Err(e) => {
                        mine.error(format!("{NAME}: connect: {e}"));
                        checkers.lock().expect("checker list").push(mine);
                        return;
                    }
                };
                while !stop.load(Ordering::SeqCst) {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&(c, d, _)) = jobs.get(i) else { break };
                    let spec = job_spec(spec(columns[c]).into(), RES, Variant::Design(d));
                    match job(&mut client, &spec, tracer, i as u64 + 1) {
                        Ok((manifest, mut times)) => {
                            let ok = expected
                                .get(&(c, d.label()))
                                .is_some_and(|(json, _)| manifest.contains(json.as_str()));
                            mine.expect(ok, || {
                                format!(
                                    "{NAME}: job {i} ({}/{}) differs from the local run",
                                    Harness::column_label(spec.workload, RES),
                                    d.label()
                                )
                            });
                            times.done_s = phase.elapsed().as_secs_f64();
                            let mut r = results.lock().expect("result list");
                            r.push((i, times));
                            if phase.elapsed().as_secs_f64() >= plan.seconds
                                && r.len() >= plan.min_samples
                            {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        Err(e) => mine.error(format!("{NAME}: job {i}: {e}")),
                    }
                }
                checkers.lock().expect("checker list").push(mine);
            });
        }
    });
    let wall = phase.elapsed().as_secs_f64();
    out.speed_ms
        .extend((0..PROBES).map(|_| host::speed_probe_ms()));
    let stats_after = Client::connect(daemon.addr).and_then(|mut c| c.stats());
    if let Err(e) = stop_server(daemon) {
        check.error(format!("{NAME}: {e}"));
    }
    for c in checkers.into_inner().expect("checker list") {
        check.absorb(c);
    }

    // Throughput units: blocks of JOB_BLOCK jobs in completion order,
    // each spanning the time since the previous block completed.
    let mut results = results.into_inner().expect("result list");
    results.sort_by(|a, b| a.1.done_s.total_cmp(&b.1.done_s));
    let mut since = 0.0;
    for block in results.chunks(JOB_BLOCK) {
        let end = block.last().map_or(since, |(_, t)| t.done_s);
        if block.len() == JOB_BLOCK || out.units.is_empty() {
            out.units.push(Unit {
                cells: block.len() as u64,
                samples: block
                    .iter()
                    .map(|&(i, _)| {
                        let (c, d, _) = jobs[i];
                        expected.get(&(c, d.label())).map_or(0, |e| e.1)
                    })
                    .sum(),
                wall_s: end - since,
            });
        }
        since = end;
    }
    out.latencies_ms = results.iter().map(|(_, t)| t.total).collect();
    out.strata = results
        .iter()
        .map(|&(i, _)| {
            let (_, d, hit) = jobs[i];
            format!("{}/{}", d.label(), if hit { "hit" } else { "miss" })
        })
        .collect();

    if tracer.is_on() {
        let times: Vec<JobTimes> = results.iter().map(|&(_, t)| t).collect();
        out.layers = serve_layers(&times, wall);
        if let (Ok(a), Ok(b)) = (stats_before, stats_after) {
            // The server looks a job's stream up twice (pre-warm, then
            // replay); only the first lookup can miss, so the share of
            // jobs that found their stream is 1 − misses / jobs.
            let misses = b.stream_misses - a.stream_misses;
            out.layers.insert(
                "stream.cache_hit_ratio".into(),
                1.0 - misses as f64 / results.len().max(1) as f64,
            );
            out.layers.insert(
                "serve.stream_evictions".into(),
                (b.stream_evictions - a.stream_evictions) as f64,
            );
        }
        local_layers(&mut out, local);
        let cells: Vec<_> = columns
            .iter()
            .flat_map(|&k| Design::ALL.map(|d| (spec(k).into(), RES, Variant::Design(d))))
            .collect();
        let psnr: Vec<_> = columns
            .iter()
            .map(|&k| (spec(k).into(), RES, Variant::Design(Design::ATfim)))
            .collect();
        out.layers.extend(crate::sweep::harness_probe(
            NAME, FRAMES, &cells, &psnr, check,
        ));
    }
    out
}

/// `serve.*` timings of finished jobs; `wall_s` is the time they ran in.
fn serve_layers(times: &[JobTimes], wall_s: f64) -> BTreeMap<String, f64> {
    let col = |f: fn(&JobTimes) -> f64| -> Vec<f64> { times.iter().map(f).collect() };
    let mut l = BTreeMap::new();
    l.insert("serve.submit_ms".into(), stats::median(&col(|t| t.submit)));
    l.insert("serve.queue_ms".into(), stats::median(&col(|t| t.queue)));
    l.insert("serve.run_ms".into(), stats::median(&col(|t| t.run)));
    l.insert("serve.fetch_ms".into(), stats::median(&col(|t| t.fetch)));
    l.insert(
        "serve.busy_ratio".into(),
        col(|t| t.run).iter().sum::<f64>() / (wall_s * 1e3),
    );
    l
}

/// Probe of the serving layer for the workloads that do not serve: one
/// client runs `jobs` one after another on a fresh in-process server
/// rendering `frames` frames. Each job is one cell, and its fetched
/// manifest must contain the given cell JSON (checked as `workload`).
/// Returns the `serve.*` figures.
pub fn serve_probe(
    workload: &str,
    frames: usize,
    jobs: &[(JobSpec, String)],
    check: &mut Checker,
) -> BTreeMap<String, f64> {
    let daemon = match start_server(frames) {
        Ok(d) => d,
        Err(e) => {
            check.error(format!("{workload}: serve probe: {e}"));
            return BTreeMap::new();
        }
    };
    let off = Tracer::new(false);
    let mut times = Vec::new();
    // det:boundary — probe wall time for serve.busy_ratio.
    let t = Instant::now();
    let ran = Client::connect(daemon.addr)
        .map_err(|e| e.to_string())
        .and_then(|mut client| {
            for (i, (spec, cell)) in jobs.iter().enumerate() {
                let (manifest, job_times) = job(&mut client, spec, &off, i as u64)?;
                check.expect(manifest.contains(cell.as_str()), || {
                    format!("{workload}: serve probe job {i} differs from the run's cell")
                });
                times.push(job_times);
            }
            client.stats().map_err(|e| e.to_string())
        });
    let wall = t.elapsed().as_secs_f64();
    let mut out = serve_layers(&times, wall);
    match ran {
        Ok(stats) => {
            out.insert(
                "serve.stream_evictions".into(),
                stats.stream_evictions as f64,
            );
        }
        Err(e) => check.error(format!("{workload}: serve probe: {e}")),
    }
    if let Err(e) = stop_server(daemon) {
        check.error(format!("{workload}: serve probe: {e}"));
    }
    out
}

/// Frontend and replay layers of the traced run, from the local run.
fn local_layers(out: &mut Outcome, local: LocalTimings) {
    let LocalTimings {
        builds_ms: builds,
        frags,
        replay,
        lanes,
        first_scene,
    } = local;
    out.probe_scenes.extend(first_scene);
    let l = &mut out.layers;
    let build_total: f64 = builds.iter().sum();
    l.insert("stream.build_ms".into(), stats::median(&builds));
    l.insert(
        "stream.ns_per_frag".into(),
        build_total * 1e6 / frags.max(1) as f64,
    );
    // Share of job latency a miss spends rebuilding the frontend.
    let misses = 1.0 - l.get("stream.cache_hit_ratio").copied().unwrap_or(0.0);
    let mean_job: f64 = out.latencies_ms.iter().sum::<f64>() / out.latencies_ms.len().max(1) as f64;
    l.insert(
        "stream.share_pct".into(),
        misses * stats::median(&builds) / mean_job * 100.0,
    );
    for d in DESIGNS {
        if let Some((v, samples)) = replay.get(d) {
            l.insert(format!("sim.replay_ms.{d}"), stats::median(v));
            l.insert(
                format!("sim.ns_per_sample.{d}"),
                v.iter().sum::<f64>() * 1e6 / (*samples).max(1) as f64,
            );
        }
    }
    l.insert("sim.lanes".into(), lanes as f64);
}

/// Records the reference digest of every pool column × design.
pub fn record(rec: &mut Checker) {
    let all: Vec<usize> = (0..POOL).collect();
    local_reference(&all, &Tracer::new(false), rec);
}
