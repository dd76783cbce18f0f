//! `pimgfx-benchmark` — the repository's end-to-end and per-layer
//! host-time benchmark.
//!
//! ```text
//! pimgfx-benchmark --workload <sweep-quick|cold-cell|serve-churn>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! pimgfx-benchmark --write-reference
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and reports
//! the end-to-end metrics; with `--trace 1` it measures half the time
//! untraced and half traced, and reports the per-layer metrics plus the
//! tracing overhead. Every simulated number is checked against
//! `reference.txt`; the last stdout line is the JSON result. See
//! README.md for the metric table and how to read the traced run.

mod churn;
mod cold;
mod host;
mod probe;
mod reference;
mod stats;
mod sweep;
mod trace;

use pimgfx_workloads::SceneTrace;
use reference::Checker;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use trace::Tracer;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// End-to-end metrics, in report order: name, unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("samples_per_s", "samples/s"),
    ("peak_heap_mb", "MiB"),
];

/// Simulated designs, in `Design::ALL` order, by label.
pub const DESIGNS: [&str; 4] = ["baseline", "b-pim", "s-tfim", "a-tfim"];

/// Texture filters the sampler probe times.
pub const FILTERS: [&str; 3] = ["bilinear", "trilinear", "anisotropic"];

/// Per-layer metrics: name, unit. A metric that does not apply to a
/// workload reads 0 there (see README.md for where each applies).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("host.peak_rss_mb", "MiB");
    add("host.slowdown", "ratio");
    add("workloads.scene_ms", "ms");
    add("stream.build_ms", "ms");
    add("stream.ns_per_frag", "ns");
    add("stream.cache_hit_ratio", "ratio");
    add("stream.share_pct", "%");
    add("raster.ms", "ms");
    for d in DESIGNS {
        add(&format!("sim.replay_ms.{d}"), "ms");
    }
    for d in DESIGNS {
        add(&format!("sim.ns_per_sample.{d}"), "ns");
    }
    add("sim.lanes", "count");
    for d in DESIGNS {
        add(&format!("sim.lane_gain.{d}"), "ratio");
    }
    for f in FILTERS {
        add(&format!("texture.sample_ns.{f}"), "ns");
    }
    add("texture.cache_ns", "ns");
    add("texture.cache_hit_ratio", "ratio");
    add("mem.hmc_ns", "ns");
    add("mem.gddr5_ns", "ns");
    add("pim.atfim_ns", "ns");
    add("pool.utilization", "ratio");
    add("pool.max_cell_ms", "ms");
    add("pool.idle_ms", "ms");
    add("manifest.json_ms", "ms");
    add("manifest.bytes", "bytes");
    add("quality.psnr_ms", "ms");
    add("serve.submit_ms", "ms");
    add("serve.queue_ms", "ms");
    add("serve.run_ms", "ms");
    add("serve.fetch_ms", "ms");
    add("serve.busy_ratio", "ratio");
    add("serve.stream_evictions", "count");
    add("cells.n", "count");
    add("cells.tail_pct", "%");
    add("trace.overhead_pct", "%");
    v
}

/// What one measured phase of a workload needs to know.
pub struct Plan<'a> {
    /// Workload seed.
    pub seed: u64,
    /// Minimum measured time, seconds.
    pub seconds: f64,
    /// Minimum latency samples (cells or jobs) to collect.
    pub min_samples: usize,
    /// Span recorder (off in untraced phases).
    pub tracer: &'a Tracer,
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every measured cell or job, ms.
    pub latencies_ms: Vec<f64>,
    /// Stratum of each latency sample: the kind of cell or job it was
    /// (see [`stratified_p50`]).
    pub strata: Vec<String>,
    /// Throughput units: consecutive stretches of the measured phase
    /// (a sweep, a design rotation, a block of jobs). Throughput is the
    /// median over units, so a short stall of the host moves one unit,
    /// not the run's figure.
    pub units: Vec<Unit>,
    /// Host-speed probe times taken between units, ms
    /// ([`host::speed_probe_ms`]).
    pub speed_ms: Vec<f64>,
    /// Per-layer values gathered by the workload itself (traced phase).
    pub layers: BTreeMap<String, f64>,
    /// Scenes the layer probes replay (traced phase).
    pub probe_scenes: Vec<Arc<SceneTrace>>,
}

/// Work done in one throughput unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unit {
    /// Cells (or single-cell jobs) completed.
    pub cells: u64,
    /// Simulated texture samples of those cells.
    pub samples: u64,
    /// Wall time of the unit, seconds.
    pub wall_s: f64,
}

/// One benchmark workload.
struct Workload {
    name: &'static str,
    /// Latency samples a run collects at least; fixes the tail
    /// percentile via [`stats::tail_percentile`].
    min_samples: usize,
    run: fn(&Plan<'_>, &mut Checker) -> Outcome,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: sweep::NAME,
        min_samples: sweep::MIN_CELLS,
        run: sweep::run,
    },
    Workload {
        name: cold::NAME,
        min_samples: cold::MIN_CELLS,
        run: cold::run,
    },
    Workload {
        name: churn::NAME,
        min_samples: churn::MIN_JOBS,
        run: churn::run,
    },
];

/// `cell_ms_p50`: the median latency of each stratum, combined as a
/// geometric mean over strata.
///
/// The workloads mix cells whose latencies differ by up to 12× (A-TFIM
/// against B-PIM, a 640×480 column against a 320×240 one). The pooled
/// median of such a mix sits in a gap between two clusters, where which
/// cells a run happens to collect moves it by a fifth. Per-stratum
/// medians do not have that gap, and the geometric mean weighs a change
/// in every stratum by its ratio, so a 10% slower A-TFIM and a 10%
/// slower B-PIM move the figure alike.
pub fn stratified_p50(latencies_ms: &[f64], strata: &[String]) -> f64 {
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, &ms) in strata.iter().zip(latencies_ms) {
        by.entry(s.as_str()).or_default().push(ms);
    }
    if by.is_empty() {
        return 0.0;
    }
    // float:reassoc-ok — a handful of strata; order is the BTreeMap's.
    let log_sum: f64 = by.values().map(|v| stats::median(v).ln()).sum();
    (log_sum / by.len() as f64).exp()
}

/// Durations, in ms, of the spans named `name`.
pub fn span_ms(spans: &[trace::Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let write_reference = argv.iter().any(|a| a == "--write-reference");
    if write_reference {
        return Ok(Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            write_reference,
        });
    }
    let workload = get("--workload").ok_or("missing --workload")?.to_string();
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other} (expected 0 or 1)")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        write_reference,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pimgfx-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: the shell cannot change the budget.
    let host = host::pin_thread_budget();
    if args.write_reference {
        return write_reference();
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("pimgfx-benchmark: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let refs = reference::parse(reference::REFERENCE);
    let mut check = Checker::new(refs);
    println!(
        "# pimgfx-benchmark workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host: {}", host.describe());

    let tail_pct = stats::tail_percentile(w.min_samples).expect("workload minimums allow a tail");
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        traced(w, &args, &mut check)
    } else {
        let off = Tracer::new(false);
        let plan = Plan {
            seed: args.seed,
            seconds: args.seconds,
            min_samples: w.min_samples,
            tracer: &off,
        };
        let o = (w.run)(&plan, &mut check);
        let n = o.latencies_ms.len();
        println!("# samples: n={n} tail=p{tail_pct}");
        let rates: Vec<String> = o
            .units
            .iter()
            .map(|u| format!("{:.3}", u.cells as f64 / u.wall_s))
            .collect();
        println!("# cells/s per unit: {}", rates.join(" "));
        let rate = |f: fn(&Unit) -> f64| -> f64 {
            stats::median(&o.units.iter().map(f).collect::<Vec<_>>())
        };
        let raw = [
            stats::median(&o.setup_s),
            rate(|u| u.cells as f64 / u.wall_s),
            stratified_p50(&o.latencies_ms, &o.strata),
            stats::percentile(&o.latencies_ms, tail_pct).unwrap_or(0.0),
            rate(|u| u.samples as f64 / u.wall_s),
            host::peak_heap_mib(),
        ];
        // Timings at the reference host speed: a run on a host twice as
        // slow as the reference, by the speed probe, counts half its time.
        let slowdown = host::slowdown(&o.speed_ms);
        println!(
            "# host speed: {} probes, median {:.4} ms, reference {} ms, slowdown {slowdown:.4}",
            o.speed_ms.len(),
            stats::median(&o.speed_ms),
            host::PROBE_REFERENCE_MS
        );
        let raw_text: Vec<String> = END_TO_END
            .iter()
            .zip(raw)
            .map(|(&(name, _), v)| format!("{name}={v:.4}"))
            .collect();
        println!("# unscaled: {}", raw_text.join(" "));
        let values = [
            raw[0] / slowdown,
            raw[1] * slowdown,
            raw[2] / slowdown,
            raw[3] / slowdown,
            raw[4] * slowdown,
            raw[5],
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };

    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    let frac = check.failed as f64 / check.attempted.max(1) as f64;
    println!(
        "# checked: attempted={} failed={} fail_frac={frac}",
        check.attempted, check.failed
    );
    for note in &check.notes {
        eprintln!("pimgfx-benchmark: check failed: {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0 && check.attempted > 0,
        check.attempted.max(1),
        check.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Every digit of a finite value; non-finite values (never produced by
/// a successful run) print as 0 to keep the JSON valid.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// The `--trace 1` run: an untraced half, a traced half, then the layer
/// probes. Returns every per-layer metric.
fn traced(w: &Workload, args: &Args, check: &mut Checker) -> Vec<(String, f64, &'static str)> {
    let half = |tracer| Plan {
        seed: args.seed,
        seconds: args.seconds / 2.0,
        min_samples: w.min_samples.div_ceil(2),
        tracer,
    };
    let off = Tracer::new(false);
    let untraced = (w.run)(&half(&off), check);
    let on = Tracer::new(true);
    let mut o = (w.run)(&half(&on), check);
    let spans = on.spans();

    // Each half at the reference host speed, so a host that changed
    // speed between the halves does not read as tracing overhead.
    let slow_off = host::slowdown(&untraced.speed_ms);
    let slow_on = host::slowdown(&o.speed_ms);
    let p50_off = stratified_p50(&untraced.latencies_ms, &untraced.strata) / slow_off;
    let p50_on = stratified_p50(&o.latencies_ms, &o.strata) / slow_on;
    let mut layers = std::mem::take(&mut o.layers);
    layers.insert(
        "trace.overhead_pct".into(),
        (p50_on - p50_off) / p50_off * 100.0,
    );
    layers.insert("host.slowdown".into(), slow_on);
    layers.insert("cells.n".into(), o.latencies_ms.len() as f64);
    layers.insert("host.peak_rss_mb".into(), host::peak_rss_mib());
    layers.insert(
        "cells.tail_pct".into(),
        f64::from(stats::tail_percentile(w.min_samples).unwrap_or(50)),
    );
    let scene_ms = span_ms(&spans, "workloads.scene");
    layers.insert("workloads.scene_ms".into(), stats::median(&scene_ms));
    let scenes: Vec<&SceneTrace> = o.probe_scenes.iter().map(Arc::as_ref).collect();
    layers.extend(probe::run(&scenes, pimgfx::SimConfig::default().tile_px));

    // Spans go to disk once, when the run ends.
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::to_jsonl(&spans)))
    {
        eprintln!("pimgfx-benchmark: could not write {}: {e}", path.display());
    }
    eprintln!(
        "span summary ({} spans, written to {}):",
        spans.len(),
        path.display()
    );
    eprintln!(
        "{:<22} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, selfns)) in trace::summarize(&spans) {
        eprintln!(
            "{name:<22} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            selfns as f64 / 1e6
        );
    }
    eprintln!("tracing overhead: untraced p50 {p50_off:.3} ms, traced p50 {p50_on:.3} ms");

    per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = layers.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}

/// Recomputes every reference value and rewrites `reference.txt`.
fn write_reference() -> ExitCode {
    let mut rec = Checker::recorder();
    sweep::record(&mut rec);
    cold::record(&mut rec);
    churn::record(&mut rec);
    let recorded = rec.recording.take().unwrap_or_default();
    match std::fs::write(reference::REFERENCE_PATH, reference::render(&recorded)) {
        Ok(()) => {
            println!(
                "wrote {} reference values to {}",
                recorded.len(),
                reference::REFERENCE_PATH
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "pimgfx-benchmark: writing {}: {e}",
                reference::REFERENCE_PATH
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units the program reports are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(
                declared(name, unit),
                "end_to_end {name} [{unit}] not declared"
            );
        }
        for (name, unit) in per_layer() {
            assert!(
                declared(&name, unit),
                "per_layer {name} [{unit}] not declared"
            );
        }
        let count = json.matches("\"name\":").count();
        assert_eq!(
            count,
            END_TO_END.len() + per_layer().len() + WORKLOADS.len()
        );
    }

    #[test]
    fn stratified_p50_is_the_geometric_mean_of_stratum_medians() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        // Stratum a: median 10; stratum b: median 1000. The pooled median
        // (10 or 1000 depending on one sample) would jump; this does not.
        let lat = [9.0, 10.0, 11.0, 990.0, 1000.0, 1010.0];
        let strata = s(&["a", "a", "a", "b", "b", "b"]);
        assert!((stratified_p50(&lat, &strata) - 100.0).abs() < 1e-9);
        // Twice as many samples in one stratum do not shift the figure.
        let lat = [9.0, 10.0, 11.0, 9.5, 10.0, 10.5, 990.0, 1000.0, 1010.0];
        let strata = s(&["a", "a", "a", "a", "a", "a", "b", "b", "b"]);
        assert!((stratified_p50(&lat, &strata) - 100.0).abs() < 1e-9);
        assert_eq!(stratified_p50(&[], &[]), 0.0);
    }

    #[test]
    fn design_labels_follow_design_all() {
        assert_eq!(pimgfx::Design::ALL.map(|d| d.label()), DESIGNS);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
