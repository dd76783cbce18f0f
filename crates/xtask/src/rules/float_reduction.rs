//! `float-reduction`: reassociation-prone float accumulation
//! must carry a `float:reassoc-ok — <ULP bound>` justification.
//!
//! Float addition is not associative, so the numeric value of a
//! `.sum()` / `.fold(...)` over floats depends on the order the
//! elements arrive — an iteration-order change (or a future
//! parallelization) silently shifts replay times, energy totals, and
//! quality scores in the last bits. The workspace's determinism story
//! therefore requires every float reduction to either run over an
//! explicitly indexed order or declare, with the `float:reassoc-ok`
//! marker, why the reassociation drift is bounded and harmless (state
//! the ULP bound or the consuming precision). `.mul_add(` is flagged
//! too: fused multiply-add rounds once where `a * b + c` rounds twice,
//! so mixing the two forms across code paths splits results between
//! targets with and without FMA contraction.
//!
//! Lane kernels get the same treatment: a *horizontal* reduction across
//! the lanes of an `F32x4`/`F32x8` (`.hsum(`, `.reduce_sum(`) collapses
//! values that the scalar reference accumulates in element order, so it
//! is reassociation by construction — the lane types deliberately do
//! not provide one today, and any future addition must carry the
//! `float:reassoc-ok` marker with its ULP bound (and a row in the
//! `docs/PERFORMANCE.md` deviation table).

use crate::source;
use crate::Diagnostic;
use std::collections::BTreeMap;

/// The rule name used in diagnostics and `lint:allow(...)` entries.
pub const RULE: &str = "float-reduction";

/// The justification marker (reason mandatory).
pub const MARKER: &str = "float:reassoc-ok";

/// True when a normalized-text segment smells like float math.
fn floaty(seg: &str) -> bool {
    seg.contains("f32") || seg.contains("f64") || seg.contains("0.0")
}

/// The normalized-text statement segment before `pos` (back to the
/// previous `;`, `{`, or `}`).
fn stmt_before(text: &str, pos: usize) -> &str {
    let start = text[..pos].rfind([';', '{', '}']).map_or(0, |i| i + 1);
    &text[start..pos]
}

/// Checks one library source file.
#[must_use]
pub fn check(path: &str, text: &str) -> Vec<Diagnostic> {
    let stripped = source::strip(text);
    let mask = source::test_mask(&stripped);
    let raw_lines: Vec<&str> = text.lines().collect();
    let norm = source::Normalized::new(&stripped);
    let mut by_line: BTreeMap<usize, Diagnostic> = BTreeMap::new();
    let mut out = Vec::new();

    for (idx, raw) in raw_lines.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        if source::allow_missing_reason(raw, RULE) {
            out.push(Diagnostic::new(
                RULE,
                path,
                idx + 1,
                "allowlist entry is missing its justification".to_string(),
            ));
        }
    }

    /// Where to look for evidence that the reduction is over floats.
    enum Evidence {
        /// Turbofish / FMA — the pattern itself is the evidence.
        None,
        /// `.sum()` takes no arguments: only the statement *before* the
        /// call can reveal the element type (a forward window would
        /// read into unrelated following code).
        Backward,
        /// `.fold(` carries its float accumulator in the arguments.
        Around,
    }
    let scans: [(&str, Evidence); 7] = [
        (".sum::<f32>()", Evidence::None),
        (".sum::<f64>()", Evidence::None),
        (".sum()", Evidence::Backward),
        (".fold(", Evidence::Around),
        (".mul_add(", Evidence::None),
        // Lane horizontal reductions: collapsing the lanes of an
        // F32x4/F32x8 reorders the scalar reference's element-order
        // accumulation, so the names are evidence enough.
        (".hsum(", Evidence::None),
        (".reduce_sum(", Evidence::None),
    ];
    for (pat, evidence) in scans {
        for (pos, line) in norm.find_all(pat) {
            let idx = line - 1;
            if mask.get(idx).copied().unwrap_or(false)
                || by_line.contains_key(&line)
                || source::is_allowed(&raw_lines, idx, RULE)
            {
                continue;
            }
            let supported = match evidence {
                Evidence::None => true,
                Evidence::Backward => floaty(stmt_before(&norm.text, pos)),
                Evidence::Around => {
                    let fwd_end = (pos + pat.len() + 120).min(norm.text.len());
                    floaty(stmt_before(&norm.text, pos)) || floaty(&norm.text[pos..fwd_end])
                }
            };
            if !supported {
                continue;
            }
            let op = pat.trim_matches(['.', '(']);
            if let Some(marker_line) = source::marker_line(&raw_lines, idx, MARKER) {
                if raw_lines
                    .get(marker_line)
                    .is_some_and(|l| source::marker_missing_reason(l, MARKER))
                {
                    by_line.insert(
                        line,
                        Diagnostic::new(
                            RULE,
                            path,
                            line,
                            format!(
                                "`{MARKER}` marker for `{op}` is missing its justification \
                                 (state the ULP bound or the consuming precision)"
                            ),
                        ),
                    );
                }
                continue;
            }
            by_line.insert(
                line,
                Diagnostic::new(
                    RULE,
                    path,
                    line,
                    format!(
                        "float reduction `{op}` is reassociation-sensitive; iterate in an \
                         explicitly indexed order or justify with \
                         `// {MARKER} — <ULP bound>`"
                    ),
                ),
            );
        }
    }

    out.extend(by_line.into_values());
    out.sort_by_key(|d| d.line);
    out
}
