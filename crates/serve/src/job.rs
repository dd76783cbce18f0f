//! Job-level helpers: variant-set expansion, config digests, label
//! parsing, and the deterministic per-job manifest.
//!
//! The manifest writer here is the serving counterpart of
//! `pimgfx_bench::manifest::RunManifest::to_json`, with one deliberate
//! difference: it contains **no wall-clock fields**. A served result
//! must be byte-identical to the manifest a local harness run would
//! produce for the same job (the loopback test in `tests/` asserts
//! exactly that), so everything in it is a pure function of the job
//! spec and the simulated reports.

use crate::protocol::{JobId, JobSpec};
use pimgfx::Design;
use pimgfx_bench::manifest::{
    cell_reports_json, fnv1a_digest, json_quote, CellSummary, SCHEMA_VERSION,
};
use pimgfx_bench::{section_variants, Harness, Variant};

/// The full, deduplicated variant set of a job: the explicit variants
/// first, then each requested section's set, keeping the first
/// occurrence of every label (labels are the harness's memoization
/// keys, so label-equality is cell-equality).
pub fn job_variants(spec: &JobSpec) -> Vec<Variant> {
    let mut out: Vec<Variant> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    let from_sections = spec
        .sections
        .iter()
        .flat_map(|s| section_variants(s).into_iter());
    for v in spec.variants.iter().copied().chain(from_sections) {
        let label = v.label();
        if !seen.contains(&label) {
            seen.push(label);
            out.push(v);
        }
    }
    out
}

/// Parses a variant from its [`Variant::label`] form (`baseline`,
/// `b-pim`, `a-tfim@0.05pi`, ...) — the inverse the CLI needs.
pub fn variant_from_label(label: &str) -> Option<Variant> {
    match label {
        "baseline" => Some(Variant::Design(Design::Baseline)),
        "b-pim" => Some(Variant::Design(Design::BPim)),
        "s-tfim" => Some(Variant::Design(Design::STfim)),
        "a-tfim" => Some(Variant::Design(Design::ATfim)),
        "aniso-off" => Some(Variant::AnisoOff),
        "a-tfim-no" => Some(Variant::AtfimNoRecalc),
        "a-tfim-noconsol" => Some(Variant::AtfimNoConsolidation),
        "a-tfim-nocompress" => Some(Variant::AtfimNoCompression),
        other => other
            .strip_prefix("a-tfim@")?
            .strip_suffix("pi")?
            .parse::<f32>()
            .ok()
            .map(Variant::AtfimThreshold),
    }
}

/// FNV-1a digest of the job's canonical configuration, the serving
/// analogue of `RunManifest::config_digest`: equal digests mean
/// comparable results.
pub fn job_digest(spec: &JobSpec, frames: usize) -> String {
    let labels: Vec<String> = job_variants(spec).iter().map(|v| v.label()).collect();
    fnv1a_digest(&format!(
        "serve;column={};frames={frames};variants={};trace={}",
        Harness::column_label(spec.workload, spec.resolution),
        labels.join("+"),
        spec.trace
    ))
}

/// Serializes a finished job as deterministic schema-v4 JSON.
///
/// Cells are sorted by `(column, variant)` — the same canonical order
/// `Harness::report_cells` uses — and written by
/// [`cell_reports_json`], the writer of a local sweep manifest too, so a
/// served cell is byte-identical to the corresponding local cell.
pub fn job_manifest_json(
    job: JobId,
    spec: &JobSpec,
    frames: usize,
    cells: &[CellSummary],
) -> String {
    let mut sorted: Vec<&CellSummary> = cells.iter().collect();
    sorted.sort_by(|a, b| (&a.column, &a.variant).cmp(&(&b.column, &b.variant)));
    let mut s = String::with_capacity(4096);
    s.push_str("{\n");
    s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    s.push_str(&format!("  \"tool\": {},\n", json_quote("pimgfx-serve")));
    s.push_str(&format!("  \"job\": {job},\n"));
    s.push_str(&format!(
        "  \"column\": {},\n",
        json_quote(&Harness::column_label(spec.workload, spec.resolution))
    ));
    s.push_str(&format!("  \"frames\": {frames},\n"));
    s.push_str(&format!("  \"trace\": {},\n", spec.trace));
    s.push_str(&format!(
        "  \"config_digest\": {},\n",
        json_quote(&job_digest(spec, frames))
    ));
    s.push_str(&format!("  \"cells\": {},\n", sorted.len()));
    s.push_str(&cell_reports_json(sorted.into_iter()));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_workloads::{Game, Resolution};

    fn spec() -> JobSpec {
        JobSpec {
            workload: Game::Doom3.into(),
            resolution: Resolution::R320x240,
            variants: vec![Variant::Design(Design::Baseline)],
            sections: vec!["fig5".to_string()],
            trace: false,
            deadline_ms: 0,
        }
    }

    #[test]
    fn job_variants_dedup_by_label_first_wins() {
        // fig5 is {baseline, b-pim}; the explicit baseline dedups it.
        let vs = job_variants(&spec());
        let labels: Vec<String> = vs.iter().map(|v| v.label()).collect();
        assert_eq!(labels, vec!["baseline", "b-pim"]);
        // Static sections contribute nothing.
        let mut s = spec();
        s.sections = vec!["table1".to_string()];
        assert_eq!(job_variants(&s).len(), 1);
    }

    #[test]
    fn every_label_round_trips_through_the_parser() {
        let all = [
            Variant::Design(Design::Baseline),
            Variant::Design(Design::BPim),
            Variant::Design(Design::STfim),
            Variant::Design(Design::ATfim),
            Variant::AnisoOff,
            Variant::AtfimThreshold(0.05),
            Variant::AtfimNoRecalc,
            Variant::AtfimNoConsolidation,
            Variant::AtfimNoCompression,
        ];
        for v in all {
            assert_eq!(variant_from_label(&v.label()), Some(v), "{}", v.label());
        }
        assert_eq!(variant_from_label("nonsense"), None);
        assert_eq!(variant_from_label("a-tfim@xpi"), None);
    }

    #[test]
    fn digest_is_stable_and_spec_sensitive() {
        assert_eq!(job_digest(&spec(), 2), job_digest(&spec(), 2));
        assert_ne!(job_digest(&spec(), 2), job_digest(&spec(), 3));
        let mut traced = spec();
        traced.trace = true;
        assert_ne!(job_digest(&spec(), 2), job_digest(&traced, 2));
    }

    #[test]
    fn manifest_is_deterministic_and_sorted() {
        let mk = |variant: &str| CellSummary {
            column: "doom3-320x240".to_string(),
            variant: variant.to_string(),
            frames: 1,
            total_cycles: 10,
            texture_samples: 5,
            avg_latency_cycles: 2.0,
            external_bytes: 1,
            texture_bytes: 1,
            internal_bytes: 0,
            energy_nj: 0.5,
            trace_audit: "ok".to_string(),
            // Job manifests must stay byte-deterministic, so the
            // measured schema-v3/v4 fields are left unset (omitted).
            frontend_wall_ms: None,
            backend_wall_ms: None,
            replay_lanes: None,
            stages: Vec::new(),
        };
        // Input order baseline, b-pim — output must sort by variant.
        // Lexicographically `b-pim` < `baseline` (`-` < `a`), matching
        // the canonical `Harness::report_cells` order.
        let cells = [mk("baseline"), mk("b-pim")];
        let a = job_manifest_json(3, &spec(), 1, &cells);
        let b = job_manifest_json(3, &spec(), 1, &cells);
        assert_eq!(a, b, "manifest must be deterministic");
        let base_at = a.find("\"variant\": \"baseline\"").expect("baseline cell");
        let bpim_at = a.find("\"variant\": \"b-pim\"").expect("b-pim cell");
        assert!(bpim_at < base_at, "cells must sort by variant:\n{a}");
        assert!(a.contains("\"schema_version\": 4"), "{a}");
        assert!(a.contains("\"tool\": \"pimgfx-serve\""), "{a}");
        assert!(a.contains("\"job\": 3"), "{a}");
        assert!(!a.contains("wall_ms"), "no wall-clock fields:\n{a}");
        assert!(!a.contains("load_balance"), "no pool accounting:\n{a}");
        assert!(!a.contains("replay_lanes"), "no lane counts:\n{a}");
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }
}
