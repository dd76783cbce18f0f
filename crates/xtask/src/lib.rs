//! Repo-specific static analysis for the pim-render workspace.
//!
//! This crate implements `cargo xtask lint`: a zero-dependency,
//! offline-capable pass over the whole workspace that enforces the
//! invariants the HPCA'17 reproduction's credibility rests on — cycles,
//! bytes, and nanojoules must never be silently mixed or dropped, and
//! results must stay byte-identical run to run (no ambient
//! nondeterminism, no reassociation-fragile float reductions, no
//! lock-order hazards). It checks only what rustc and clippy cannot:
//! panic-free library code and documented public items are compiler
//! lints, switched on by the lint wall every `lib.rs` carries.
//!
//! # Rules
//!
//! Every finding fails the pass.
//!
//! | rule | meaning |
//! |------|---------|
//! | `unit-cast` | no unit-erasing `.get() as <num>` / `.as_f32() as <num>` on `ByteCount` / `Cycle` / `Duration` / `Radians` outside the owning module |
//! | `lint-wall` | every crate's `lib.rs` carries the canonical lint-wall header, byte-for-byte: `forbid(unsafe_code)`, `deny(missing_docs)`, the clippy print/dbg warnings, and the clippy denials of `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` and of reason-less `#[allow]`/`#[expect]` |
//! | `trace-stage` | every `Server`/`MultiServer` constructed in `crates/core`, `crates/mem`, `crates/pim` carries a `trace:stage(<name>)` marker tying it to the cycle-conservation trace taxonomy (see `docs/OBSERVABILITY.md`) |
//! | `nondeterminism` | no ambient-seeded `std` `HashMap`/`HashSet`, no `Instant::now`/`SystemTime::now` without a `det:boundary — <reason>` marker, no unseeded entropy in library code (`pimgfx_types::fxhash` holds the sanctioned maps) |
//! | `lock-order` | every `Mutex`/`RwLock`/`Condvar` field carries a `lock:rank(<n>, <name>)` marker and nested acquisitions follow strictly increasing ranks |
//! | `float-reduction` | no reassociation-prone float accumulation (`.sum()` / `.fold(` / `.mul_add(` over floats, `.hsum(` / `.reduce_sum(` lane horizontal reductions) without a `float:reassoc-ok — <ULP bound>` justification |
//! | `stale-allow` | every `lint:allow(<rule>)` comment still suppresses a live finding on its own or the next line; rotted suppressions are themselves findings |
//! | `manifest` | every `crates/*/Cargo.toml` inherits workspace metadata and uses only workspace-declared dependencies |
//! | `protocol-version` | the `PGRPC` wire-frame definitions in `crates/serve/src/protocol.rs` match the committed `crates/serve/protocol.snapshot`; changing a frame without bumping `VERSION` fails the pass |
//!
//! # Allowlist and markers
//!
//! A violation is suppressed by a comment on the same line or the line
//! directly above:
//!
//! ```text
//! // lint:allow(unit-cast) — formatting only, feeds a display percentage
//! ```
//!
//! The justification after the dash is mandatory; an allowlist entry
//! without one is itself a diagnostic, and so is an entry whose finding
//! no longer fires (`stale-allow`). The determinism rules use dedicated
//! markers with the same same-line-or-above placement and mandatory
//! justification: `det:boundary — <reason>` declares a wall-clock read,
//! `lock:rank(<n>, <name>)` places a lock in the global acquisition
//! order, and `float:reassoc-ok — <ULP bound>` justifies a float
//! reduction. `docs/STATIC_ANALYSIS.md` holds the full grammar. The
//! compiler lints are suppressed the compiler's way, with
//! `#[expect(clippy::<lint>, reason = "…")]`.

// --- lint wall (checked byte-for-byte by `cargo xtask lint`) ---
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod report;
pub mod rules;
pub mod source;

pub use report::{LintReport, RuleStats};

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule name the pass can emit, in summary order. `lint:allow`
/// entries naming anything else are flagged by `stale-allow`.
pub const RULE_NAMES: [&str; 10] = [
    rules::unit_cast::RULE,
    rules::lint_wall::RULE,
    rules::trace_stage::RULE,
    rules::nondeterminism::RULE,
    rules::lock_order::RULE,
    rules::float_reduction::RULE,
    rules::stale_allow::RULE,
    rules::manifest::RULE,
    rules::protocol_version::RULE,
    "io",
];

/// One finding of the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that fired (`unit-cast`, `lint-wall`, ...).
    pub rule: &'static str,
    /// File the finding is in, workspace-relative where possible.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a finding.
    #[must_use]
    pub fn new(rule: &'static str, path: &str, line: usize, message: String) -> Self {
        Self {
            rule,
            path: path.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.path, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path, self.line, self.rule, self.message
            )
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .into_owned()
}

/// A named per-file source rule: `(rule name, check fn)`.
type SourceCheck = (&'static str, fn(&str, &str) -> Vec<Diagnostic>);

/// The per-file source rules that apply to `path`, as named check
/// functions (used both for the real pass and for the suppressed /
/// stale-allow accounting, which re-runs them on disarmed text).
fn source_checks(path: &str) -> Vec<SourceCheck> {
    let mut checks: Vec<SourceCheck> = vec![
        (rules::unit_cast::RULE, rules::unit_cast::check),
        (rules::trace_stage::RULE, rules::trace_stage::check),
        (rules::nondeterminism::RULE, rules::nondeterminism::check),
        (rules::lock_order::RULE, rules::lock_order::check),
        (rules::float_reduction::RULE, rules::float_reduction::check),
    ];
    if path.ends_with("/src/lib.rs") {
        checks.push((rules::lint_wall::RULE, rules::lint_wall::check));
    }
    checks
}

/// Runs the applicable source rules over one file, updating `diags`,
/// the per-rule counters, and the stale-allow pass.
fn lint_source_file(
    path: &str,
    text: &str,
    diags: &mut Vec<Diagnostic>,
    stats: &mut BTreeMap<&'static str, RuleStats>,
) {
    let disarmed = source::disarm(text);
    let mut potential: Vec<(&'static str, Vec<usize>)> = Vec::new();
    for (name, check) in source_checks(path) {
        let fired = check(path, text);
        let would_fire = check(path, &disarmed);
        let entry = stats.entry(name).or_default();
        entry.fired += fired.len();
        entry.suppressed += would_fire.len().saturating_sub(fired.len());
        potential.push((name, would_fire.iter().map(|d| d.line).collect()));
        diags.extend(fired);
    }
    let stale = rules::stale_allow::check(path, text, &potential);
    stats.entry(rules::stale_allow::RULE).or_default().fired += stale.len();
    diags.extend(stale);
}

/// Runs every rule over the workspace rooted at `root`.
///
/// # Errors
///
/// Returns an I/O error only when the workspace layout itself is
/// unreadable (missing `crates/` directory or root manifest); unreadable
/// individual files are reported as diagnostics instead.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut diags = Vec::new();
    let mut stats: BTreeMap<&'static str, RuleStats> = BTreeMap::new();
    for name in RULE_NAMES {
        stats.insert(name, RuleStats::default());
    }

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let workspace_manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let workspace_deps = rules::manifest::workspace_dependency_names(&workspace_manifest);

    for crate_dir in &crate_dirs {
        // Source rules over crates/*/src (library code only).
        let src_dir = crate_dir.join("src");
        for file in rust_files(&src_dir) {
            let path = rel(root, &file);
            // Binary entry points are not library code: they may read
            // the wall clock and report like any CLI.
            if path.contains("/src/bin/") || path.ends_with("/src/main.rs") {
                continue;
            }
            match std::fs::read_to_string(&file) {
                Ok(text) => lint_source_file(&path, &text, &mut diags, &mut stats),
                Err(e) => diags.push(Diagnostic::new(
                    "io",
                    &path,
                    0,
                    format!("unreadable source file: {e}"),
                )),
            }
        }

        // Manifest rule.
        let manifest_path = crate_dir.join("Cargo.toml");
        let path = rel(root, &manifest_path);
        match std::fs::read_to_string(&manifest_path) {
            Ok(text) => {
                let fired = rules::manifest::check(&path, &text, &workspace_deps);
                stats.entry(rules::manifest::RULE).or_default().fired += fired.len();
                diags.extend(fired);
            }
            Err(e) => diags.push(Diagnostic::new(
                "io",
                &path,
                0,
                format!("unreadable manifest: {e}"),
            )),
        }
    }

    // The facade crate's lib.rs carries the wall too.
    let facade = root.join("src/lib.rs");
    if let Ok(text) = std::fs::read_to_string(&facade) {
        lint_source_file(&rel(root, &facade), &text, &mut diags, &mut stats);
    }

    // Wire-protocol freeze: PGRPC frame drift without a VERSION bump.
    let protocol_path = crates_dir.join("serve/src/protocol.rs");
    if let Ok(text) = std::fs::read_to_string(&protocol_path) {
        let snapshot_path = crates_dir.join("serve/protocol.snapshot");
        let snapshot = std::fs::read_to_string(&snapshot_path).ok();
        let fired = rules::protocol_version::check(
            &rel(root, &protocol_path),
            &text,
            &rel(root, &snapshot_path),
            snapshot.as_deref(),
        );
        stats
            .entry(rules::protocol_version::RULE)
            .or_default()
            .fired += fired.len();
        diags.extend(fired);
    }

    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(LintReport {
        diagnostics: diags,
        rules: stats,
    })
}
