//! CLI entry point for `cargo xtask`.
//!
//! Subcommands:
//!
//! * `lint` — run the workspace static-analysis pass; exit 1 when any
//!   finding remains.
//!   * `--format text|github` — human-readable diagnostics (default), or
//!     GitHub Actions `::error` annotations.

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
    eprintln!("usage: cargo xtask lint [--format text|github]");
    eprintln!();
    eprintln!("  lint   run the repo-specific static-analysis pass over the workspace");
    eprintln!("         rules: unit-cast, lint-wall, trace-stage, nondeterminism,");
    eprintln!("                lock-order, float-reduction, stale-allow, manifest,");
    eprintln!("                protocol-version; every finding fails the pass");
    eprintln!("         suppress with `// lint:allow(<rule>) — <reason>`; determinism");
    eprintln!("         markers: det:boundary, lock:rank(<n>, <name>), float:reassoc-ok");
    eprintln!("         (grammar and rank table: docs/STATIC_ANALYSIS.md)");
    eprintln!("         no-panic and missing docs are compiler lints (the lint wall):");
    eprintln!("         run `cargo clippy --workspace --all-targets -- -D warnings`");
    eprintln!();
    eprintln!("  --format text    one line per finding + summary (default)");
    eprintln!("  --format github  ::error workflow annotations");
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
    Github,
}

fn lint(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!(
                        "error: --format takes text|github, got {}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
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

    match format {
        Format::Github => print!("{}", report.to_github()),
        Format::Text => {
            for d in &report.diagnostics {
                eprintln!("{d}");
            }
            if report.is_clean() {
                eprintln!("cargo xtask lint: workspace is clean");
            }
        }
    }
    eprintln!("cargo xtask lint:\n{}", report.summary_text());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
