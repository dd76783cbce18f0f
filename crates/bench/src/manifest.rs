//! Machine-readable run manifests (`BENCH_repro.json`).
//!
//! Every `repro` sweep emits one [`RunManifest`]: wall-time per figure,
//! aggregate cells/second, the worker count the pool resolved, a digest
//! of the sweep configuration, and a per-cell summary of every
//! [`RenderReport`] the harness produced. The file
//! is the repo's performance-trajectory datapoint — successive PRs can
//! diff manifests to see what a change did to sweep throughput — and an
//! observability surface for tooling (it is plain JSON, written without
//! any external dependency by [`RunManifest::to_json`]).
//!
//! The schema is versioned ([`SCHEMA_VERSION`]); consumers should ignore
//! unknown fields so the schema can grow additively.
//!
//! Schema v2 added two per-cell fields on top of v1 — both additive,
//! so v1 consumers keep working:
//!
//! - `"stages"`: the per-stage cycle/ops/bytes/stalls breakdown from
//!   the report's `pimgfx_engine::trace::StageTrace` (see
//!   `docs/OBSERVABILITY.md` for the stage taxonomy), and
//! - `"trace_audit"`: the outcome of
//!   [`RenderReport::audit`](pimgfx::RenderReport::audit) for that cell
//!   (`"ok"`, or the conservation violation's error display).
//!
//! Schema v3 added the frontend-stream cache's observability — again
//! additively:
//!
//! - top-level `"frontend_cache"`: the shared
//!   [`pimgfx::FragmentStreamCache`]'s hit/miss/eviction counters for
//!   the run, and
//! - per-cell `"frontend_wall_ms"` / `"backend_wall_ms"`: the cell's
//!   wall-clock split between obtaining the variant-invariant frontend
//!   artifact and replaying the variant-specific backend. Both are
//!   optional and *omitted* when not measured (the `pimgfx-serve` job
//!   manifests leave them out to stay byte-deterministic).
//!
//! Schema v4 (this version) adds cluster-parallel replay observability,
//! additively as before:
//!
//! - top-level `"load_balance"`: how even the per-cell wall times of
//!   the run's parallel fan-outs were (`max_cell_ms`, `mean_cell_ms`)
//!   and the fraction of pool capacity they filled
//!   (`pool_utilization`). Omitted when no parallel fan-out ran —
//!   `--serial` runs and the `pimgfx-serve` job manifests (the v3
//!   byte-determinism convention).
//! - per-cell `"replay_lanes"`: the intra-cell phase-1 helper count
//!   the backend replay used (1 = fully serial replay; see
//!   `docs/PARALLELISM.md`). Optional and omitted when not measured,
//!   like the wall-split fields.

use crate::HarnessResult;
use pimgfx::RenderReport;
use pimgfx_types::Error;

/// Version of the manifest layout; bumped on breaking field changes.
/// v2 added the per-cell `stages` breakdown and `trace_audit` fields;
/// v3 added the top-level `frontend_cache` counters and the optional
/// per-cell `frontend_wall_ms` / `backend_wall_ms` split; v4 added the
/// optional top-level `load_balance` block and the optional per-cell
/// `replay_lanes` count.
pub const SCHEMA_VERSION: u32 = 4;

/// Default file name, written into the CSV directory when one is given
/// (else the working directory).
pub const FILE_NAME: &str = "BENCH_repro.json";

/// Wall-time record for one figure (or table/analysis section).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTiming {
    /// Figure name as passed to `repro` (`fig11`, `table1`, ...).
    pub figure: String,
    /// Wall-clock milliseconds spent inside the figure printer.
    pub wall_ms: f64,
    /// `"ok"`, or the error display of a failed figure.
    pub status: String,
}

impl FigureTiming {
    /// True when the figure completed without error.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }
}

/// One row of a cell's per-stage trace breakdown (schema v2): the
/// stage name plus the four counters every stage carries.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage name from the trace taxonomy (`shader.alu`, `tex.filter`,
    /// `mem.external.texture`, `pim.atfim.buffer`, ...).
    pub stage: String,
    /// Cycles the stage spent doing work.
    pub busy_cycles: u64,
    /// Operations the stage completed (requests, fragments, ...).
    pub ops: u64,
    /// Bytes the stage moved.
    pub bytes: u64,
    /// Cycles (or events) the stage spent stalled on backpressure.
    pub stalls: u64,
}

/// Per-cell summary of one simulated `(column, variant)` report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Benchmark column label (`doom3-320x240`).
    pub column: String,
    /// Variant label (`a-tfim@0.05pi`).
    pub variant: String,
    /// Frames rendered.
    pub frames: u32,
    /// Total cycles for the trace.
    pub total_cycles: u64,
    /// Texture samples issued.
    pub texture_samples: u64,
    /// Mean per-sample filtering latency, cycles.
    pub avg_latency_cycles: f64,
    /// External (off-chip) bytes, all traffic classes.
    pub external_bytes: u64,
    /// External texture-fetch bytes (the Fig. 12 quantity).
    pub texture_bytes: u64,
    /// Bytes moved on internal HMC paths.
    pub internal_bytes: u64,
    /// Total energy, nanojoules.
    pub energy_nj: f64,
    /// Outcome of the cycle-conservation audit for this cell: `"ok"`,
    /// or the violated invariant's error display (schema v2).
    pub trace_audit: String,
    /// Milliseconds spent obtaining the frontend fragment stream for
    /// this cell (schema v3; `None` when not measured — the field is
    /// then omitted from the JSON).
    pub frontend_wall_ms: Option<f64>,
    /// Milliseconds spent in the backend replay for this cell
    /// (schema v3; `None` when not measured — omitted from the JSON).
    pub backend_wall_ms: Option<f64>,
    /// Replay lanes (phase-1 helper threads) the backend pass used (schema v4;
    /// 1 = fully serial replay; `None` when not measured — omitted
    /// from the JSON, which keeps serve job manifests byte-stable).
    pub replay_lanes: Option<u32>,
    /// Per-stage counter breakdown, in trace-recording order
    /// (schema v2).
    pub stages: Vec<StageSummary>,
}

impl CellSummary {
    /// Summarizes one harness report, including its per-stage trace
    /// breakdown and the outcome of the cycle-conservation audit.
    pub fn from_report(column: &str, variant: &str, report: &RenderReport) -> Self {
        Self {
            column: column.to_string(),
            variant: variant.to_string(),
            frames: report.frames,
            total_cycles: report.total_cycles,
            texture_samples: report.texture.samples,
            avg_latency_cycles: report.texture.avg_latency(),
            external_bytes: report.traffic.total().get(),
            texture_bytes: report.texture_traffic().get(),
            internal_bytes: report.internal_bytes,
            energy_nj: report.energy.total_nj(),
            trace_audit: match report.audit() {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("error: {e}"),
            },
            frontend_wall_ms: None,
            backend_wall_ms: None,
            replay_lanes: None,
            stages: report
                .trace
                .iter()
                .map(|(stage, c)| StageSummary {
                    stage: stage.to_string(),
                    busy_cycles: c.busy_cycles,
                    ops: c.ops,
                    bytes: c.bytes,
                    stalls: c.stalls,
                })
                .collect(),
        }
    }

    /// True when this cell's cycle-conservation audit passed.
    pub fn audit_ok(&self) -> bool {
        self.trace_audit == "ok"
    }

    /// Serializes this cell as the exact JSON object
    /// [`RunManifest::to_json`] embeds in `cell_reports`.
    ///
    /// Public so other manifest producers (the `pimgfx-serve` per-job
    /// manifests) emit byte-identical cell records — the served-vs-local
    /// equivalence test in `crates/serve/tests/` depends on it.
    pub fn to_json_object(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        s.push_str(&format!(
            "\"column\": {}, \"variant\": {}, \"frames\": {}, \
             \"total_cycles\": {}, \"texture_samples\": {}, \
             \"avg_latency_cycles\": {}, \"external_bytes\": {}, \
             \"texture_bytes\": {}, \"internal_bytes\": {}, \
             \"energy_nj\": {}, \"trace_audit\": {},\n",
            quote(&self.column),
            quote(&self.variant),
            self.frames,
            self.total_cycles,
            self.texture_samples,
            json_f64(self.avg_latency_cycles),
            self.external_bytes,
            self.texture_bytes,
            self.internal_bytes,
            json_f64(self.energy_nj),
            quote(&self.trace_audit)
        ));
        // Schema v3 wall-split fields: omitted entirely when not
        // measured, so producers that never time cells (the serve job
        // manifests) stay byte-deterministic.
        if let Some(ms) = self.frontend_wall_ms {
            s.push_str(&format!("     \"frontend_wall_ms\": {},\n", json_f64(ms)));
        }
        if let Some(ms) = self.backend_wall_ms {
            s.push_str(&format!("     \"backend_wall_ms\": {},\n", json_f64(ms)));
        }
        // Schema v4: the replay lane count, same omission convention.
        if let Some(lanes) = self.replay_lanes {
            s.push_str(&format!("     \"replay_lanes\": {lanes},\n"));
        }
        s.push_str("     \"stages\": [");
        for (j, stage) in self.stages.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"stage\": {}, \"busy_cycles\": {}, \"ops\": {}, \
                 \"bytes\": {}, \"stalls\": {}}}",
                quote(&stage.stage),
                stage.busy_cycles,
                stage.ops,
                stage.bytes,
                stage.stalls
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Frontend-stream cache counters for one run (schema v3): how many
/// cell simulations hit the shared [`pimgfx::FragmentStreamCache`],
/// how many built a stream, and how many streams a bounded cache
/// evicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendCacheSummary {
    /// Cells served from a resident stream.
    pub hits: u64,
    /// Cells (or pre-warm passes) that built a stream.
    pub misses: u64,
    /// Streams evicted from a bounded cache.
    pub evictions: u64,
}

impl FrontendCacheSummary {
    /// Converts the simulator-side counters into the manifest record.
    pub fn from_stats(stats: pimgfx::FrontendCacheStats) -> Self {
        Self {
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
        }
    }
}

/// The manifest of one `repro` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Tool that produced the manifest (`repro`).
    pub tool: String,
    /// Frames per benchmark column.
    pub frames: usize,
    /// Whether the reduced `--quick` column set was used.
    pub quick: bool,
    /// Whether the sweep ran serially (`--serial`) instead of through
    /// the worker pool.
    pub serial: bool,
    /// Worker threads the pool resolved (1 in serial mode).
    pub workers: usize,
    /// FNV-1a digest of the sweep configuration (frames, column set,
    /// figure list) — manifests with equal digests are comparable runs.
    pub config_digest: String,
    /// Distinct simulation cells executed.
    pub cells: usize,
    /// Scene-cache columns evicted during the run (always 0 for the
    /// unbounded default cache; nonzero only under a configured LRU
    /// bound). Additive field; consumers ignoring it keep working.
    pub scene_evictions: u64,
    /// Frontend-stream cache counters for the run (schema v3).
    pub frontend_cache: FrontendCacheSummary,
    /// Load-balance summary of the run's parallel fan-outs (schema v4;
    /// `None` when no fan-out ran — the block is then omitted).
    pub load_balance: Option<crate::LoadBalance>,
    /// End-to-end wall-clock milliseconds for the whole sweep.
    pub total_wall_ms: f64,
    /// Cells per wall-clock second (0 when no cell ran).
    pub cells_per_sec: f64,
    /// Per-figure wall times, in execution order.
    pub figures: Vec<FigureTiming>,
    /// Per-cell report summaries, sorted by (column, variant).
    pub cell_reports: Vec<CellSummary>,
}

impl RunManifest {
    /// Serializes the manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        push_kv(&mut s, 1, "schema_version", &SCHEMA_VERSION.to_string());
        push_kv(&mut s, 1, "tool", &quote(&self.tool));
        push_kv(&mut s, 1, "frames", &self.frames.to_string());
        push_kv(&mut s, 1, "quick", &self.quick.to_string());
        push_kv(&mut s, 1, "serial", &self.serial.to_string());
        push_kv(&mut s, 1, "workers", &self.workers.to_string());
        push_kv(&mut s, 1, "config_digest", &quote(&self.config_digest));
        push_kv(&mut s, 1, "cells", &self.cells.to_string());
        push_kv(
            &mut s,
            1,
            "scene_evictions",
            &self.scene_evictions.to_string(),
        );
        push_kv(
            &mut s,
            1,
            "frontend_cache",
            &format!(
                "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
                self.frontend_cache.hits, self.frontend_cache.misses, self.frontend_cache.evictions
            ),
        );
        if let Some(lb) = self.load_balance {
            push_kv(
                &mut s,
                1,
                "load_balance",
                &format!(
                    "{{\"max_cell_ms\": {}, \"mean_cell_ms\": {}, \"pool_utilization\": {}}}",
                    json_f64(lb.max_cell_ms),
                    json_f64(lb.mean_cell_ms),
                    json_f64(lb.pool_utilization)
                ),
            );
        }
        push_kv(&mut s, 1, "total_wall_ms", &json_f64(self.total_wall_ms));
        push_kv(&mut s, 1, "cells_per_sec", &json_f64(self.cells_per_sec));

        s.push_str("  \"figures\": [\n");
        for (i, f) in self.figures.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!(
                "\"figure\": {}, \"wall_ms\": {}, \"status\": {}",
                quote(&f.figure),
                json_f64(f.wall_ms),
                quote(&f.status)
            ));
            s.push('}');
            if i + 1 < self.figures.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n");

        s.push_str("  \"cell_reports\": [\n");
        for (i, c) in self.cell_reports.iter().enumerate() {
            s.push_str("    ");
            s.push_str(&c.to_json_object());
            if i + 1 < self.cell_reports.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be written.
    pub fn write(&self, path: &std::path::Path) -> HarnessResult<()> {
        std::fs::write(path, self.to_json())
            .map_err(|e| Error::io(format!("writing manifest {}", path.display()), e))
    }
}

/// How many of `cells` failed their cycle-conservation audit. A
/// nonzero count fails the run that produced them: `repro` exits
/// nonzero and `pimgfx-serve` fails the job, with or without tracing.
pub fn failed_audits(cells: &[CellSummary]) -> usize {
    cells.iter().filter(|c| !c.audit_ok()).count()
}

/// FNV-1a 64-bit digest over a canonical configuration string, hex
/// encoded. Stable across platforms and runs; used to key comparable
/// sweeps in [`RunManifest::config_digest`].
pub fn fnv1a_digest(canonical: &str) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in canonical.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:016x}")
}

fn push_kv(s: &mut String, indent: usize, key: &str, value: &str) {
    for _ in 0..indent {
        s.push_str("  ");
    }
    s.push('"');
    s.push_str(key);
    s.push_str("\": ");
    s.push_str(value);
    s.push_str(",\n");
}

/// JSON has no NaN/Infinity; clamp them to null-safe 0 (never produced
/// by real sweeps, but the writer must stay valid regardless).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0.0".to_string()
    }
}

/// Minimal JSON string quoting (the labels we emit are ASCII, but stay
/// correct for arbitrary input). Public so other zero-dependency JSON
/// writers in the workspace (the `pimgfx-serve` job manifests) quote
/// identically to this module.
pub fn json_quote(s: &str) -> String {
    quote(s)
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            tool: "repro".to_string(),
            frames: 2,
            quick: true,
            serial: false,
            workers: 4,
            config_digest: fnv1a_digest("frames=2;quick"),
            cells: 3,
            scene_evictions: 0,
            frontend_cache: FrontendCacheSummary {
                hits: 2,
                misses: 1,
                evictions: 0,
            },
            load_balance: None,
            total_wall_ms: 1234.5,
            cells_per_sec: 2.43,
            figures: vec![
                FigureTiming {
                    figure: "fig11".to_string(),
                    wall_ms: 1000.0,
                    status: "ok".to_string(),
                },
                FigureTiming {
                    figure: "fig15".to_string(),
                    wall_ms: 234.5,
                    status: "error: invalid harness configuration: x".to_string(),
                },
            ],
            cell_reports: vec![CellSummary {
                column: "doom3-320x240".to_string(),
                variant: "a-tfim@0.05pi".to_string(),
                frames: 2,
                total_cycles: 42,
                texture_samples: 7,
                avg_latency_cycles: 6.0,
                external_bytes: 100,
                texture_bytes: 60,
                internal_bytes: 30,
                energy_nj: 1.5,
                trace_audit: "ok".to_string(),
                frontend_wall_ms: None,
                backend_wall_ms: None,
                replay_lanes: None,
                stages: vec![
                    StageSummary {
                        stage: "shader.alu".to_string(),
                        busy_cycles: 40,
                        ops: 0,
                        bytes: 0,
                        stalls: 0,
                    },
                    StageSummary {
                        stage: "mem.external.texture".to_string(),
                        busy_cycles: 0,
                        ops: 2,
                        bytes: 60,
                        stalls: 0,
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_has_all_top_level_keys_and_balances() {
        let j = sample().to_json();
        for key in [
            "schema_version",
            "tool",
            "frames",
            "quick",
            "serial",
            "workers",
            "config_digest",
            "cells",
            "scene_evictions",
            "frontend_cache",
            "total_wall_ms",
            "cells_per_sec",
            "figures",
            "cell_reports",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}:\n{j}");
        }
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(
            j.matches('[').count(),
            j.matches(']').count(),
            "balanced brackets"
        );
        assert!(j.contains("\"wall_ms\": 1000.000"));
        assert!(j.contains("\"variant\": \"a-tfim@0.05pi\""));
    }

    #[test]
    fn schema_v3_emits_frontend_cache_and_optional_walls() {
        let j = sample().to_json();
        assert!(j.contains("\"schema_version\": 4"), "{j}");
        assert!(
            j.contains("\"frontend_cache\": {\"hits\": 2, \"misses\": 1, \"evictions\": 0}"),
            "{j}"
        );
        // Unmeasured walls are omitted entirely, not emitted as null —
        // the serve job manifests depend on this for byte determinism.
        assert!(!j.contains("frontend_wall_ms"), "{j}");
        assert!(!j.contains("backend_wall_ms"), "{j}");
        let mut timed = sample();
        timed.cell_reports[0].frontend_wall_ms = Some(12.3456);
        timed.cell_reports[0].backend_wall_ms = Some(78.9);
        let j = timed.to_json();
        assert!(j.contains("\"frontend_wall_ms\": 12.346"), "{j}");
        assert!(j.contains("\"backend_wall_ms\": 78.900"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }

    #[test]
    fn schema_v4_emits_load_balance_and_replay_lanes_when_measured() {
        // Unmeasured: both additions are omitted entirely (the serve
        // job manifests and --serial runs depend on the omission).
        let j = sample().to_json();
        assert!(!j.contains("load_balance"), "{j}");
        assert!(!j.contains("replay_lanes"), "{j}");

        let mut m = sample();
        m.load_balance = Some(crate::LoadBalance {
            max_cell_ms: 120.5,
            mean_cell_ms: 61.25,
            pool_utilization: 0.875,
        });
        m.cell_reports[0].replay_lanes = Some(4);
        let j = m.to_json();
        assert!(
            j.contains(
                "\"load_balance\": {\"max_cell_ms\": 120.500, \
                 \"mean_cell_ms\": 61.250, \"pool_utilization\": 0.875}"
            ),
            "{j}"
        );
        assert!(j.contains("\"replay_lanes\": 4"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }

    #[test]
    fn schema_v2_emits_trace_audit_and_stage_breakdown() {
        let j = sample().to_json();
        assert!(j.contains("\"trace_audit\": \"ok\""), "{j}");
        assert!(
            j.contains(
                "{\"stage\": \"shader.alu\", \"busy_cycles\": 40, \
                 \"ops\": 0, \"bytes\": 0, \"stalls\": 0}"
            ),
            "{j}"
        );
        assert!(j.contains("\"stage\": \"mem.external.texture\""), "{j}");
        assert!(sample().cell_reports[0].audit_ok());
        // An empty trace still serializes as a (valid, empty) array.
        let mut bare = sample();
        bare.cell_reports[0].stages.clear();
        bare.cell_reports[0].trace_audit = "error: drift".to_string();
        let j = bare.to_json();
        assert!(j.contains("\"stages\": []"), "{j}");
        assert!(!bare.cell_reports[0].audit_ok());
    }

    #[test]
    fn failed_audits_counts_failing_verdicts() {
        let ok = sample().cell_reports[0].clone();
        let mut bad = ok.clone();
        bad.trace_audit = "error: stage sums drift from report totals".to_string();
        assert_eq!(failed_audits(&[]), 0);
        assert_eq!(failed_audits(&[ok.clone(), ok.clone()]), 0);
        assert_eq!(failed_audits(&[ok.clone(), bad.clone(), ok, bad]), 2);
    }

    #[test]
    fn quoting_escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_quote("a\"b"), quote("a\"b"));
    }

    #[test]
    fn cell_object_is_embedded_verbatim_in_manifest() {
        // `pimgfx-serve` job manifests embed `CellSummary::to_json_object`
        // directly; served results are only byte-comparable with local
        // runs if the sweep manifest embeds the very same bytes.
        let m = sample();
        let cell = m.cell_reports[0].to_json_object();
        assert!(cell.starts_with('{') && cell.ends_with('}'), "{cell}");
        assert!(
            m.to_json().contains(&cell),
            "manifest does not embed the cell object verbatim:\n{cell}"
        );
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a_digest("abc"), fnv1a_digest("abc"));
        assert_ne!(fnv1a_digest("abc"), fnv1a_digest("abd"));
        assert_eq!(fnv1a_digest(""), format!("{:016x}", 0xcbf29ce484222325u64));
    }

    #[test]
    fn nonfinite_floats_stay_valid_json() {
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
        assert_eq!(json_f64(2.5), "2.500");
    }

    #[test]
    fn figure_timing_status() {
        assert!(sample().figures[0].is_ok());
        assert!(!sample().figures[1].is_ok());
    }

    #[test]
    fn manifest_writes_to_disk() {
        let dir = std::env::temp_dir().join("pimgfx_manifest_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(FILE_NAME);
        sample().write(&path).expect("written");
        let body = std::fs::read_to_string(&path).expect("readable");
        assert!(body.starts_with("{\n"));
        assert!(body.ends_with("}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
