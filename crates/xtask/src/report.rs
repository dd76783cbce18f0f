//! The lint report: per-rule counters and the text / GitHub-annotation
//! emitters.
//!
//! Everything is emitted in sorted order (diagnostics by path/line/rule,
//! rules by name) so reports diff cleanly between runs.

use crate::Diagnostic;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fired/suppressed counters for one rule over the whole pass.
///
/// `suppressed` is the number of findings a rule *would* emit with every
/// `lint:allow` / `det:boundary` / `float:reassoc-ok` suppression
/// disarmed, minus what it actually emitted — i.e. how much the
/// escape hatches are carrying.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Findings actually emitted.
    pub fired: usize,
    /// Findings suppressed by allowlist entries or markers.
    pub suppressed: usize,
}

/// Everything one `cargo xtask lint` pass produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-rule fired/suppressed counters, keyed by rule name.
    pub rules: BTreeMap<&'static str, RuleStats>,
}

impl LintReport {
    /// True when the pass succeeds: every finding fails it.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The human-readable multi-line summary printed after the findings:
    /// per-rule fired/suppressed counts (quiet rules elided) and the
    /// finding count.
    #[must_use]
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        for (rule, stats) in &self.rules {
            if stats.fired == 0 && stats.suppressed == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {rule:<18} fired {:>3}   suppressed {:>3}",
                stats.fired, stats.suppressed
            );
        }
        let _ = write!(out, "  findings: {}", self.diagnostics.len());
        out
    }

    /// GitHub workflow annotations (`--format github`): one `::error`
    /// command per finding, which the Actions runner turns into inline
    /// PR annotations.
    #[must_use]
    pub fn to_github(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            if d.line == 0 {
                let _ = writeln!(
                    out,
                    "::error file={}::[{}] {}",
                    d.path,
                    d.rule,
                    annotation_escape(&d.message)
                );
            } else {
                let _ = writeln!(
                    out,
                    "::error file={},line={}::[{}] {}",
                    d.path,
                    d.line,
                    d.rule,
                    annotation_escape(&d.message)
                );
            }
        }
        out
    }
}

/// Escapes a workflow-command message (`%`, newlines) per the GitHub
/// Actions command grammar.
fn annotation_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}
