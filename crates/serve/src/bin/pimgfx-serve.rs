//! `pimgfx-serve` — the simulation-as-a-service daemon.
//!
//! ```text
//! pimgfx-serve [--addr HOST:PORT] [--frames N] [--queue-depth N]
//!              [--deadline-ms N] [--scene-cache N] [--stream-cache N]
//!              [--results DIR] [--port-file PATH] [--io-timeout-ms N]
//! ```
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; `--port-file` writes
//! the actually bound address to a file so scripts (the CI smoke test)
//! can find it. The daemon drains gracefully on a `Shutdown` request
//! or SIGTERM: accepted jobs finish, results flush, new submissions
//! get `ShuttingDown`, and the process exits 0.
//!
//! `PIMGFX_SERVE_HOLD_MS` (env) delays each job's first cell — test
//! scaffolding for deterministic backpressure/deadline exercises.

use pimgfx_serve::{DrainHandle, ServeConfig, Server};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "usage: pimgfx-serve [--addr HOST:PORT] [--frames N] [--queue-depth N] \
[--deadline-ms N] [--scene-cache N] [--stream-cache N] [--results DIR] [--port-file PATH] \
[--io-timeout-ms N]";

fn take_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{flag} needs a value\n{USAGE}")),
        },
        None => Ok(None),
    }
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} got an invalid value `{v}`\n{USAGE}"))
}

fn config_from_args(args: &[String]) -> Result<(ServeConfig, Option<String>), String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7421".to_string(),
        ..ServeConfig::default()
    };
    if let Some(v) = take_value(args, "--addr")? {
        config.addr = v;
    }
    if let Some(v) = take_value(args, "--frames")? {
        config.frames = parse("--frames", &v)?;
    }
    if let Some(v) = take_value(args, "--queue-depth")? {
        config.queue_capacity = parse("--queue-depth", &v)?;
    }
    if let Some(v) = take_value(args, "--deadline-ms")? {
        config.default_deadline_ms = parse("--deadline-ms", &v)?;
    }
    if let Some(v) = take_value(args, "--scene-cache")? {
        config.scene_capacity = Some(parse("--scene-cache", &v)?);
    }
    // Bounds the fragment-stream cache independently of the scene
    // cache, so a run can force stream rebuilds while scenes stay
    // resident.
    if let Some(v) = take_value(args, "--stream-cache")? {
        config.stream_capacity = Some(parse("--stream-cache", &v)?);
    }
    if let Some(v) = take_value(args, "--results")? {
        config.results_dir = Some(std::path::PathBuf::from(v));
    }
    if let Some(v) = take_value(args, "--io-timeout-ms")? {
        // 0 disables the socket timeout (not recommended outside tests).
        config.io_timeout = Duration::from_millis(parse("--io-timeout-ms", &v)?);
    }
    if let Ok(ms) = std::env::var("PIMGFX_SERVE_HOLD_MS") {
        config.hold_before_job = Duration::from_millis(parse("PIMGFX_SERVE_HOLD_MS", &ms)?);
    }
    let port_file = take_value(args, "--port-file")?;
    Ok((config, port_file))
}

static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    // Async-signal-safe: a single atomic store; the watcher thread
    // does the actual drain outside signal context.
    SIGTERM.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
}

fn install_sigterm_watcher(handle: DrainHandle) {
    #[cfg(unix)]
    {
        const SIGTERM_NO: i32 = 15;
        unsafe {
            signal(SIGTERM_NO, on_sigterm);
        }
    }
    std::thread::spawn(move || loop {
        if SIGTERM.load(Ordering::SeqCst) {
            eprintln!("[pimgfx-serve] SIGTERM: draining (finishing accepted jobs)");
            handle.drain();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (config, port_file) = match config_from_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    eprintln!(
        "[pimgfx-serve] listening on {addr} (frames={}, queue-depth={}, deadline={}ms)",
        config.frames, config.queue_capacity, config.default_deadline_ms
    );
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("error: writing port file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    install_sigterm_watcher(server.drain_handle());
    match server.run() {
        Ok(()) => {
            eprintln!("[pimgfx-serve] drained; bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
