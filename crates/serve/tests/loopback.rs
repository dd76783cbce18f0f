//! Loopback integration tests: a real daemon on an ephemeral port, a
//! real client, real sockets.
//!
//! The headline assertion is byte-equivalence: a manifest fetched over
//! the wire is identical to the one computed from a local
//! harness run of the same job. The rest exercises the robustness
//! story end-to-end — `Busy` backpressure at capacity, deadline
//! cancellation between cells, client cancellation, and graceful
//! drain that finishes in-flight work, flushes results, and lets
//! `Server::run` return cleanly.

use pimgfx::Design;
use pimgfx_bench::manifest::CellSummary;
use pimgfx_bench::{pool, Harness, Variant};
use pimgfx_serve::job::job_manifest_json;
use pimgfx_serve::{Client, JobSpec, JobState, Response, ServeConfig, Server};
use pimgfx_workloads::{Game, Resolution, SyntheticSpec, Workload};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

type ServerHandle = JoinHandle<pimgfx_bench::HarnessResult<()>>;

fn start(config: ServeConfig) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn baseline_spec() -> JobSpec {
    JobSpec {
        workload: Game::Doom3.into(),
        resolution: Resolution::R320x240,
        variants: vec![Variant::Design(Design::Baseline)],
        sections: Vec::new(),
        trace: true,
        deadline_ms: 0,
    }
}

fn submit_ok(client: &mut Client, spec: &JobSpec) -> u64 {
    match client.submit(spec).expect("submit") {
        Response::Submitted(id) => id,
        other => panic!("expected Submitted, got {other:?}"),
    }
}

/// The manifest a local harness run of the single-variant job `spec`
/// produces under job id `id`.
fn local_manifest(id: u64, spec: &JobSpec) -> String {
    let [variant] = spec.variants[..] else {
        panic!("single-variant job expected");
    };
    let mut h = Harness::new(1);
    let report = h
        .run(spec.workload, spec.resolution, variant)
        .expect("local run")
        .clone();
    let cell = CellSummary::from_report(
        &Harness::column_label(spec.workload, spec.resolution),
        &variant.label(),
        &report,
    );
    job_manifest_json(id, spec, 1, &[cell])
}

const WAIT: Duration = Duration::from_secs(300);
const POLL: Duration = Duration::from_millis(50);

fn test_synthetic() -> SyntheticSpec {
    SyntheticSpec {
        seed: 0xC0FFEE,
        triangles: 400,
        textures: 2,
        texture_size: 32,
        kind_mask: 0x3,
        grazing_milli: 500,
        overdraw: 1,
        path_frames: 4,
    }
}

#[test]
fn synthetic_job_is_served_and_matches_local_harness() {
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let spec = JobSpec {
        workload: Workload::Synthetic(test_synthetic()),
        ..baseline_spec()
    };
    let id = submit_ok(&mut client, &spec);
    let state = client.wait(id, WAIT, POLL).expect("wait");
    assert_eq!(state, JobState::Done { cells: 1 }, "synthetic job finishes");
    let served = client.fetch_manifest(id).expect("fetch");
    assert_eq!(
        served,
        local_manifest(id, &spec),
        "served synthetic manifest must match"
    );

    // The cumulative cache counters are queryable over the wire; an
    // unbounded cache never evicts.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.scene_evictions, 0);
    assert_eq!(stats.stream_evictions, 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn bounded_stream_cache_evicts_and_results_stay_identical() {
    // One resident stream: columns A, B, A each rebuild their frontend,
    // and the rebuilt A must serve the same bytes as the first A.
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        stream_capacity: Some(1),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let a = baseline_spec();
    let b = JobSpec {
        workload: Workload::Synthetic(test_synthetic()),
        ..baseline_spec()
    };
    for spec in [&a, &b, &a] {
        let id = submit_ok(&mut client, spec);
        let state = client.wait(id, WAIT, POLL).expect("wait");
        assert_eq!(state, JobState::Done { cells: 1 }, "job {id} finishes");
        let served = client.fetch_manifest(id).expect("fetch");
        assert_eq!(served, local_manifest(id, spec), "job {id} manifest");
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.stream_misses, 3, "every job rebuilds: {stats:?}");
    assert!(
        stats.stream_evictions >= 1,
        "bounded cache evicts: {stats:?}"
    );
    assert_eq!(stats.scene_evictions, 0, "scenes stay unbounded: {stats:?}");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn served_result_matches_local_harness_byte_for_byte() {
    let results_dir =
        std::env::temp_dir().join(format!("pimgfx_serve_equiv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results_dir);
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        results_dir: Some(results_dir.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let spec = baseline_spec();
    let id = submit_ok(&mut client, &spec);
    let state = client.wait(id, WAIT, POLL).expect("wait");
    assert_eq!(state, JobState::Done { cells: 1 }, "job must finish");
    let served = client.fetch_manifest(id).expect("fetch");

    // The same job, computed directly through the local harness.
    assert_eq!(
        served,
        local_manifest(id, &spec),
        "served manifest must be byte-identical to the harness-direct one"
    );

    // The flushed result file carries the same bytes.
    let on_disk = std::fs::read_to_string(results_dir.join(format!("job-{id}.json")))
        .expect("result file flushed");
    assert_eq!(on_disk, served);

    client.shutdown().expect("shutdown");
    handle
        .join()
        .expect("server thread")
        .expect("clean drain after shutdown");
    let _ = std::fs::remove_dir_all(&results_dir);
}

#[test]
fn over_capacity_submission_gets_busy_backpressure() {
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        queue_capacity: 1,
        hold_before_job: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let first = submit_ok(&mut client, &baseline_spec());
    // The queue bounds *outstanding* work, so while the first job is
    // queued or running the second submission must bounce.
    match client.submit(&baseline_spec()).expect("submit #2") {
        Response::Busy { depth, capacity } => {
            assert_eq!((depth, capacity), (1, 1));
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(
        client.wait(first, WAIT, POLL).expect("wait"),
        JobState::Done { cells: 1 }
    );
    // Capacity freed: a new submission is accepted again.
    let second = submit_ok(&mut client, &baseline_spec());
    assert_eq!(
        client.wait(second, WAIT, POLL).expect("wait #2"),
        JobState::Done { cells: 1 }
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn deadline_cancels_between_cells() {
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        hold_before_job: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let spec = JobSpec {
        deadline_ms: 1, // expires during the hold, before any cell
        variants: vec![
            Variant::Design(Design::Baseline),
            Variant::Design(Design::BPim),
        ],
        ..baseline_spec()
    };
    let id = submit_ok(&mut client, &spec);
    match client.wait(id, WAIT, POLL).expect("wait") {
        JobState::Cancelled(reason) => {
            assert!(reason.contains("deadline"), "{reason}");
            assert!(reason.contains("0 of 2"), "{reason}");
        }
        other => panic!("expected deadline cancellation, got {other:?}"),
    }
    // A cancelled job has no fetchable result.
    assert!(client.fetch_manifest(id).is_err());
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn client_cancellation_lands_between_cells() {
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        hold_before_job: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let id = submit_ok(&mut client, &baseline_spec());
    client.cancel(id).expect("cancel accepted");
    match client.wait(id, WAIT, POLL).expect("wait") {
        JobState::Cancelled(reason) => {
            assert!(reason.contains("cancelled"), "{reason}");
        }
        other => panic!("expected cancellation, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn shutdown_drains_inflight_work_then_run_returns_ok() {
    let results_dir =
        std::env::temp_dir().join(format!("pimgfx_serve_drain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results_dir);
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        results_dir: Some(results_dir.clone()),
        hold_before_job: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // Job in flight, then an immediate drain request.
    let id = submit_ok(&mut client, &baseline_spec());
    client.shutdown().expect("shutdown");
    // While draining, new work is refused.
    match client
        .submit(&baseline_spec())
        .expect("submit during drain")
    {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    // run() only returns once the accepted job finished...
    handle.join().expect("server thread").expect("clean drain");
    // ...and its manifest was flushed on the way out.
    let body = std::fs::read_to_string(results_dir.join(format!("job-{id}.json")))
        .expect("in-flight job flushed during drain");
    assert!(body.contains("\"schema_version\": 4"), "{body}");
    let _ = std::fs::remove_dir_all(&results_dir);
}

#[test]
fn jobs_run_concurrently_when_the_budget_allows() {
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        hold_before_job: Duration::from_millis(1500),
        ..ServeConfig::default()
    });
    let mut first = Client::connect(addr).expect("connect #1");
    let mut second = Client::connect(addr).expect("connect #2");
    // Two variants of one cold column: with two slots both jobs ask the
    // stream cache for it at once.
    let spec_a = baseline_spec();
    let spec_b = JobSpec {
        variants: vec![Variant::Design(Design::BPim)],
        ..baseline_spec()
    };
    let a = submit_ok(&mut first, &spec_a);
    let b = submit_ok(&mut second, &spec_b);

    let slots = pool::configured_workers().expect("thread budget");
    let t0 = std::time::Instant::now();
    if slots >= 2 {
        // Both jobs hold in their slots at the same time.
        loop {
            let sa = first.status(a).expect("status a");
            let sb = second.status(b).expect("status b");
            if matches!(sa, JobState::Running { .. }) && matches!(sb, JobState::Running { .. }) {
                break;
            }
            assert!(
                !matches!(sa, JobState::Done { .. }) && t0.elapsed() < WAIT,
                "never saw both jobs running: {sa:?} / {sb:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    } else {
        // One slot: the second job waits out the first. Reading the
        // second job's state before the first's makes the check
        // race-free: if the first is not done yet, it was not done
        // when the second was read either.
        loop {
            let sb = second.status(b).expect("status b");
            let sa = first.status(a).expect("status a");
            if matches!(sa, JobState::Done { .. }) {
                break;
            }
            assert_eq!(sb, JobState::Queued, "first job is {sa:?}");
            assert!(t0.elapsed() < WAIT, "first job never finished");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    for (client, id, spec) in [(&mut first, a, &spec_a), (&mut second, b, &spec_b)] {
        assert_eq!(
            client.wait(id, WAIT, POLL).expect("wait"),
            JobState::Done { cells: 1 }
        );
        let served = client.fetch_manifest(id).expect("fetch");
        assert_eq!(
            served,
            local_manifest(id, spec),
            "job {id}: served manifest must match the local harness"
        );
    }
    // However the jobs overlapped, the column's frontend was built once.
    assert_eq!(first.stats().expect("stats").stream_misses, 1);

    first.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn shutdown_drains_two_jobs_in_flight() {
    let results_dir =
        std::env::temp_dir().join(format!("pimgfx_serve_drain2_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results_dir);
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        results_dir: Some(results_dir.clone()),
        hold_before_job: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let spec_b = JobSpec {
        variants: vec![Variant::Design(Design::ATfim)],
        ..baseline_spec()
    };
    let a = submit_ok(&mut client, &baseline_spec());
    let b = submit_ok(&mut client, &spec_b);
    client.shutdown().expect("shutdown");
    // run() returns only after both accepted jobs finished, whether
    // they ran side by side or one after the other...
    handle.join().expect("server thread").expect("clean drain");
    // ...and both manifests were flushed on the way out.
    for (id, spec) in [(a, baseline_spec()), (b, spec_b)] {
        let body = std::fs::read_to_string(results_dir.join(format!("job-{id}.json")))
            .expect("in-flight job flushed during drain");
        assert_eq!(body, local_manifest(id, &spec), "job {id}");
    }
    let _ = std::fs::remove_dir_all(&results_dir);
}

#[test]
fn invalid_submissions_are_rejected_with_reasons() {
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // Wolfenstein only runs 640x480 in Table II.
    let bad_column = JobSpec {
        workload: Game::Wolfenstein.into(),
        resolution: Resolution::R320x240,
        ..baseline_spec()
    };
    match client.submit(&bad_column).expect("reply") {
        Response::Error(e) => assert!(e.contains("Table II"), "{e}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // Invalid synthetic specs bounce with the validation message. The
    // server validates specs at decode time, so after the best-effort
    // error reply it treats the frame as corrupt and drops the
    // connection — reconnect before the next check.
    let bad_synthetic = JobSpec {
        workload: Workload::Synthetic(SyntheticSpec {
            triangles: 0,
            ..test_synthetic()
        }),
        ..baseline_spec()
    };
    match client.submit(&bad_synthetic).expect("reply") {
        Response::Error(e) => assert!(e.contains("synthetic"), "{e}"),
        other => panic!("expected Error, got {other:?}"),
    }
    client = Client::connect(addr).expect("reconnect");

    let bad_section = JobSpec {
        variants: Vec::new(),
        sections: vec!["fig99".to_string()],
        ..baseline_spec()
    };
    match client.submit(&bad_section).expect("reply") {
        Response::Error(e) => assert!(e.contains("unknown section"), "{e}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // Static sections select zero simulation cells.
    let no_cells = JobSpec {
        variants: Vec::new(),
        sections: vec!["table1".to_string()],
        ..baseline_spec()
    };
    match client.submit(&no_cells).expect("reply") {
        Response::Error(e) => assert!(e.contains("no simulation cells"), "{e}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // Operations on unknown jobs answer with errors, not hangs.
    assert!(client.status(999).is_err());
    assert!(client.fetch_manifest(999).is_err());
    assert!(client.cancel(999).is_err());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn results_dir_is_optional() {
    // Sanity check the PathBuf plumbing: no results dir, still Done.
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        results_dir: None::<PathBuf>.clone(),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let id = submit_ok(&mut client, &baseline_spec());
    assert_eq!(
        client.wait(id, WAIT, POLL).expect("wait"),
        JobState::Done { cells: 1 }
    );
    assert!(client
        .fetch_manifest(id)
        .expect("fetch")
        .contains("\"tool\": \"pimgfx-serve\""));
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn stalled_connection_times_out_as_clean_disconnect() {
    // Regression: accepted sockets used to carry no read/write
    // timeouts, so a client that connected and stalled mid-frame
    // pinned its handler thread forever. With an io_timeout the stall
    // must surface as a clean disconnect — and never disturb healthy
    // clients on other connections.
    use std::io::{Read, Write};
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        io_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });

    // A raw socket that writes half the frame magic and stalls.
    let mut stall = std::net::TcpStream::connect(addr).expect("connect raw");
    stall.write_all(b"PG").expect("partial magic");
    stall.flush().expect("flush");
    stall
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = [0u8; 16];
    match stall.read(&mut buf) {
        // Clean EOF or a reset: the server dropped us. A stalled peer
        // gets no best-effort error reply (writing could stall too).
        Ok(0) => {}
        Ok(n) => panic!("server answered a stalled half-frame with {n} bytes"),
        // Our own 10s read timeout firing would mean the server never
        // closed the stalled connection — the original bug.
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "server never closed the stalled connection: {e}"
        ),
    }

    // A healthy client on a fresh connection is unaffected.
    let mut client = Client::connect(addr).expect("connect healthy");
    let id = submit_ok(&mut client, &baseline_spec());
    assert!(matches!(
        client.wait(id, WAIT, POLL).expect("wait"),
        JobState::Done { .. }
    ));
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}

#[test]
fn wait_with_duration_max_saturates_instead_of_panicking() {
    // Regression: `Instant::now() + Duration::MAX` inside
    // `Client::wait` panicked on entry. The overflow now saturates
    // into "no deadline" and the wait completes normally.
    let (addr, handle) = start(ServeConfig {
        frames: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let id = submit_ok(&mut client, &baseline_spec());
    assert_eq!(
        client.wait(id, Duration::MAX, POLL).expect("wait"),
        JobState::Done { cells: 1 }
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean drain");
}
