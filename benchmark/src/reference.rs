//! Output checks against the committed reference values.
//!
//! `reference.txt` holds one line per checked output:
//! `<workload> <column>/<variant> <digest>` for a simulated cell, where
//! the digest is `fnv1a_digest` over the cell's
//! `CellSummary::to_json_object` (cycles, samples, traffic, energy,
//! per-stage counters and the audit verdict), and
//! `<workload> psnr:<column>/<variant> <dB>` for a fig15 PSNR. Every
//! check counts as one attempted operation; a mismatch, a missing
//! reference or a failed audit counts as one failure.

use pimgfx::RenderReport;
use pimgfx_bench::manifest::{fnv1a_digest, CellSummary};
use std::collections::BTreeMap;

/// The committed reference values.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// Where `--write-reference` writes fresh values.
pub const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");

/// Parses reference lines into `"<workload> <key>" -> value`.
pub fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (w, k, v) = (it.next()?, it.next()?, it.next()?);
            Some((format!("{w} {k}"), v.to_string()))
        })
        .collect()
}

/// The digest recorded for one simulated cell.
pub fn cell_digest(summary: &CellSummary) -> String {
    fnv1a_digest(&summary.to_json_object())
}

/// Formats a PSNR the way the reference records it.
pub fn psnr_value(db: f64) -> String {
    format!("{db:.6}")
}

/// Counts checked operations and failures for one run.
#[derive(Debug, Default)]
pub struct Checker {
    refs: BTreeMap<String, String>,
    /// When set, every checked value is recorded here instead of being
    /// compared (the `--write-reference` mode).
    pub recording: Option<BTreeMap<String, String>>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub notes: Vec<String>,
}

impl Checker {
    /// A checker comparing against `refs`.
    pub fn new(refs: BTreeMap<String, String>) -> Self {
        Self {
            refs,
            ..Self::default()
        }
    }

    /// A checker that records values instead of comparing them.
    pub fn recorder() -> Self {
        Self {
            recording: Some(BTreeMap::new()),
            ..Self::default()
        }
    }

    /// Checks one value against the reference.
    pub fn value(&mut self, workload: &str, key: &str, actual: &str) -> bool {
        self.attempted += 1;
        let id = format!("{workload} {key}");
        if let Some(rec) = &mut self.recording {
            rec.insert(id, actual.to_string());
            return true;
        }
        match self.refs.get(&id) {
            Some(expected) if expected == actual => true,
            Some(expected) => self.fail(format!("{id}: expected {expected}, got {actual}")),
            None => self.fail(format!("{id}: no reference value (got {actual})")),
        }
    }

    /// Checks one simulated cell: its audit must pass and its digest must
    /// match the reference. Returns the cell summary for further use.
    pub fn cell(
        &mut self,
        workload: &str,
        column: &str,
        variant: &str,
        report: &RenderReport,
    ) -> CellSummary {
        let summary = CellSummary::from_report(column, variant, report);
        let key = format!("{column}/{variant}");
        if self.value(workload, &key, &cell_digest(&summary)) && !summary.audit_ok() {
            self.failed += 1;
            self.note(format!("{workload} {key}: {}", summary.trace_audit));
        }
        summary
    }

    /// Counts one checked operation; `ok = false` counts it as failed
    /// with the message `what` gives.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        ok || self.fail(what())
    }

    /// Counts one operation that failed outright (errored or refused).
    pub fn error(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    fn fail(&mut self, what: String) -> bool {
        self.failed += 1;
        self.note(what);
        false
    }

    fn note(&mut self, what: String) {
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Adds another checker's counts (used to merge client threads).
    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            self.note(n);
        }
        if let (Some(mine), Some(theirs)) = (&mut self.recording, other.recording) {
            mine.extend(theirs);
        }
    }
}

/// Renders recorded values as `reference.txt` lines, sorted.
pub fn render(recorded: &BTreeMap<String, String>) -> String {
    let mut s = String::from(
        "# Reference outputs of the benchmark workloads; see README.md.\n\
         # Regenerate only when a change is meant to alter simulated numbers:\n\
         #   cargo run --release --manifest-path benchmark/Cargo.toml -- --write-reference\n",
    );
    for (k, v) in recorded {
        s.push_str(k);
        s.push(' ');
        s.push_str(v);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx::{Design, SimConfig, Simulator};
    use pimgfx_workloads::{synthesize, Resolution, SyntheticSpec};

    fn tiny_report() -> RenderReport {
        let spec = SyntheticSpec {
            seed: 5,
            triangles: 40,
            textures: 2,
            texture_size: 16,
            kind_mask: 0x3,
            grazing_milli: 500,
            overdraw: 1,
            path_frames: 2,
        };
        let scene = synthesize(&spec, Resolution::R320x240, 1);
        let config = SimConfig::builder()
            .design(Design::Baseline)
            .build()
            .expect("baseline config");
        Simulator::new(config)
            .expect("simulator")
            .render_trace(&scene)
            .expect("render")
    }

    #[test]
    fn one_altered_reference_value_counts_as_a_failure() {
        let report = tiny_report();
        let mut rec = Checker::recorder();
        rec.cell("w", "col", "baseline", &report);
        let text = render(rec.recording.as_ref().expect("recording"));

        let mut ok = Checker::new(parse(&text));
        ok.cell("w", "col", "baseline", &report);
        assert_eq!((ok.attempted, ok.failed), (1, 0), "{:?}", ok.notes);

        // Flip the last hex digit of the recorded digest.
        let line = text.lines().last().expect("a reference line");
        let flipped = if line.ends_with('0') { '1' } else { '0' };
        let altered = text.replace(line, &format!("{}{flipped}", &line[..line.len() - 1]));
        let mut bad = Checker::new(parse(&altered));
        bad.cell("w", "col", "baseline", &report);
        assert_eq!((bad.attempted, bad.failed), (1, 1));
        assert!(bad.failed as f64 / bad.attempted as f64 > 0.0);
    }

    #[test]
    fn a_missing_reference_is_a_failure() {
        let mut c = Checker::new(BTreeMap::new());
        assert!(!c.value("w", "psnr:x", &psnr_value(30.0)));
        assert_eq!((c.attempted, c.failed), (1, 1));
    }
}
