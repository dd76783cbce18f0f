//! CLI entry point for `cargo xtask`.
//!
//! Subcommands:
//!
//! * `lint` — run the workspace static-analysis pass; exit 1 when any
//!   blocking finding remains (deny severity, or warn severity without
//!   a `lint.baseline` entry).
//!   * `--format text|json|github` — human-readable diagnostics
//!     (default), the machine-readable report on stdout, or GitHub
//!     Actions `::error`/`::warning` annotations.
//!   * `--update-baseline` — rewrite `lint.baseline` from the current
//!     warn-level findings (fails if deny-level findings remain).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Locates the workspace root: the first ancestor of the xtask manifest
/// directory whose `Cargo.toml` declares `[workspace]`.
fn workspace_root() -> PathBuf {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut dir: &Path = &manifest_dir;
    while let Some(parent) = dir.parent() {
        let candidate = parent.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&candidate) {
            if text.contains("[workspace]") {
                return parent.to_path_buf();
            }
        }
        dir = parent;
    }
    manifest_dir
}

fn usage() {
    eprintln!("usage: cargo xtask lint [--format text|json|github] [--update-baseline]");
    eprintln!();
    eprintln!("  lint   run the repo-specific static-analysis pass over the workspace");
    eprintln!("         deny rules : no-panic, unit-cast, pub-docs, lint-wall, trace-stage,");
    eprintln!("                      nondeterminism, lock-order, stale-allow, manifest,");
    eprintln!("                      protocol-version, baseline");
    eprintln!("         warn rules : float-reduction (baselinable via lint.baseline)");
    eprintln!("         suppress with `// lint:allow(<rule>) — <reason>`; determinism");
    eprintln!("         markers: det:boundary, lock:rank(<n>, <name>), float:reassoc-ok");
    eprintln!("         (grammar and rank table: docs/STATIC_ANALYSIS.md)");
    eprintln!();
    eprintln!("  --format text    one line per finding + summary (default)");
    eprintln!("  --format json    versioned machine-readable report on stdout");
    eprintln!("  --format github  ::error/::warning workflow annotations");
    eprintln!("  --update-baseline  rewrite lint.baseline from current warn findings");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("help") | None => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown xtask subcommand `{other}` (try `cargo xtask lint`)");
            ExitCode::FAILURE
        }
    }
}

enum Format {
    Text,
    Json,
    Github,
}

fn lint(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!(
                        "error: --format takes text|json|github, got {}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("error: unknown lint flag `{other}`");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let report = match xtask::lint_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "cargo xtask lint: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };

    if update_baseline {
        return write_baseline(&root, &report);
    }

    match format {
        Format::Json => {
            // The report goes to stdout so CI can redirect it to an
            // artifact file; lint:allow is unneeded because main.rs is
            // a binary entry point, outside the print-wall scope.
            println!("{}", report.to_json());
        }
        Format::Github => {
            print!("{}", report.to_github());
            eprintln!("cargo xtask lint:\n{}", report.summary_text());
        }
        Format::Text => {
            for d in &report.diagnostics {
                eprintln!("{d}");
            }
            if report.is_clean() && report.diagnostics.is_empty() {
                eprintln!("cargo xtask lint: workspace is clean");
            }
            eprintln!("cargo xtask lint:\n{}", report.summary_text());
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Rewrites `lint.baseline` from the current warn-level findings.
/// Deny-level findings cannot be baselined, so their presence fails the
/// update (fix them first).
fn write_baseline(root: &Path, report: &xtask::LintReport) -> ExitCode {
    let deny: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == xtask::Severity::Deny && d.rule != "baseline")
        .collect();
    if !deny.is_empty() {
        for d in &deny {
            eprintln!("{d}");
        }
        eprintln!(
            "cargo xtask lint --update-baseline: {} deny-level finding(s) remain; \
             deny findings cannot be baselined",
            deny.len()
        );
        return ExitCode::FAILURE;
    }
    let mut out = String::from(
        "# Pre-existing warn-level lint findings that do not block the pass.\n\
         # One `rule|path|line` entry per line; regenerate with\n\
         # `cargo xtask lint --update-baseline`. This file should only shrink:\n\
         # stale entries are themselves findings, and new warn findings must be\n\
         # fixed or justified with their rule's marker, not appended here.\n",
    );
    for d in report
        .diagnostics
        .iter()
        .filter(|d| d.severity == xtask::Severity::Warn)
    {
        out.push_str(&format!("{}|{}|{}\n", d.rule, d.path, d.line));
    }
    let path = root.join("lint.baseline");
    match std::fs::write(&path, out) {
        Ok(()) => {
            eprintln!(
                "cargo xtask lint: wrote {} ({} entr{})",
                path.display(),
                report.warn_count(),
                if report.warn_count() == 1 { "y" } else { "ies" }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cargo xtask lint: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
