//! Host fingerprint, thread-budget pinning and peak memory.

use pimgfx_bench::pool::{REPLAY_LANES_ENV, THREADS_ENV};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What a result was measured on. Results from hosts with different
/// fingerprints are never compared.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `PIMGFX_THREADS` as pinned for the run.
    pub threads_env: String,
    /// `PIMGFX_REPLAY_LANES` as pinned for the run (empty = unset).
    pub lanes_env: String,
}

/// Pins the thread budget so the calling shell cannot change what is
/// measured: `PIMGFX_THREADS = nproc`, `PIMGFX_REPLAY_LANES` unset.
/// Must run before any thread is spawned.
pub fn pin_thread_budget() -> Host {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    std::env::set_var(THREADS_ENV, nproc.to_string());
    std::env::remove_var(REPLAY_LANES_ENV);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Host {
        nproc,
        cpu,
        rustc,
        threads_env: std::env::var(THREADS_ENV).unwrap_or_default(),
        lanes_env: std::env::var(REPLAY_LANES_ENV).unwrap_or_default(),
    }
}

impl Host {
    /// One-line description for the run header.
    pub fn describe(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" rustc=\"{}\" {THREADS_ENV}={} {REPLAY_LANES_ENV}={}",
            self.nproc,
            self.cpu,
            self.rustc,
            self.threads_env,
            if self.lanes_env.is_empty() {
                "(unset)"
            } else {
                &self.lanes_env
            }
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The system allocator, counting the live bytes of large allocations
/// ([`LARGE`] bytes or more) and their peak.
///
/// Peak live bytes measure how much memory the run's work holds at
/// once. Peak RSS also counts freed memory an allocator keeps, and with
/// glibc's per-thread arenas that part depended on which threads shared
/// an arena: `VmHWM` of one workload on identical inputs varied by a
/// third between runs, while the live peak does not. Small allocations
/// are not counted: updating shared counters on each of them slowed the
/// serving workload measurably, and the buffers that set the peak
/// (frames, fragment streams, replay records) are all large.
pub struct CountingAlloc;

/// Smallest allocation the counters track, bytes.
pub const LARGE: usize = 4096;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and publish no other data (Relaxed).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

fn grow(bytes: usize) {
    if bytes >= LARGE {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if bytes >= LARGE {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// Peak live bytes of large allocations since start, MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Words in the speed probe's table: 32 KiB, resident in L1.
const PROBE_WORDS: usize = 4096;

/// Speed probes taken at each unit boundary.
pub const PROBES: usize = 5;

/// Steps of one speed probe.
const PROBE_STEPS: usize = 2_000_000;

/// Median probe time on the host `baseline.json` was measured on, ms.
/// Timings are reported as if the host ran at this speed.
pub const PROBE_REFERENCE_MS: f64 = 5.0;

/// Host slowdown against the reference speed: the median of `probe_ms`
/// over [`PROBE_REFERENCE_MS`]; 1 when no probe was taken.
pub fn slowdown(probe_ms: &[f64]) -> f64 {
    if probe_ms.is_empty() {
        return 1.0;
    }
    crate::stats::median(probe_ms) / PROBE_REFERENCE_MS
}

/// Times one host-speed probe: a fixed single-threaded random
/// read-modify-write walk over an L1-resident table, code of this file
/// alone, so no change to the repository's crates can move it. Runs
/// between measured units, never beside them. Returns milliseconds.
pub fn speed_probe_ms() -> f64 {
    let mut table = vec![1u64; PROBE_WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    // det:boundary — host-speed probe timing.
    let t = std::time::Instant::now();
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % PROBE_WORDS;
        table[i] = table[i].wrapping_add(x);
        acc = acc.wrapping_add(table[(i * 31 + 7) % PROBE_WORDS]);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_probe_over_the_reference() {
        assert_eq!(slowdown(&[]), 1.0);
        let probes = [2.0, 4.0, 1.0].map(|x| x * PROBE_REFERENCE_MS);
        assert_eq!(slowdown(&probes), 2.0);
        assert!(speed_probe_ms() > 0.0);
    }
}
