//! The lint rules themselves.
//!
//! Every rule is a pure function from source text to diagnostics, so the
//! self-tests can feed seeded violation fixtures without touching the
//! filesystem. [`crate::lint_workspace`] wires them to the real tree.

use crate::source;
use crate::Diagnostic;

/// `nondeterminism`: no ambient-seeded maps, undeclared wall-clock
/// reads, or unseeded entropy in library code.
pub mod nondeterminism;

/// `lock-order`: every lock field is ranked and nested acquisitions
/// follow strictly increasing ranks.
pub mod lock_order;

/// `float-reduction`: no reassociation-prone float accumulation without
/// a justified `float:reassoc-ok` marker.
pub mod float_reduction;

/// `stale-allow`: every `lint:allow` comment still suppresses a live
/// finding.
pub mod stale_allow;

/// `unit-cast`: the raw value inside `ByteCount` / `Cycle` / `Duration` /
/// `Radians` must not be cast straight into unit-less arithmetic outside
/// the module that owns the newtype.
pub mod unit_cast {
    use super::{source, Diagnostic};

    /// The rule name used in diagnostics and `lint:allow(...)` entries.
    pub const RULE: &str = "unit-cast";

    /// Files that define the unit newtypes and may touch raw values.
    pub const OWNING_MODULES: [&str; 3] = [
        "crates/types/src/bytes.rs",
        "crates/types/src/angle.rs",
        "crates/engine/src/time.rs",
    ];

    const NUMERIC: [&str; 10] = [
        "u8", "u16", "u32", "u64", "usize", "i32", "i64", "isize", "f32", "f64",
    ];

    fn cast_after(line: &str, accessor: &str) -> Option<String> {
        let mut search = 0;
        while let Some(pos) = line[search..].find(accessor) {
            let after = &line[search + pos + accessor.len()..];
            let after_trim = after.trim_start();
            if let Some(rest) = after_trim.strip_prefix("as ") {
                let rest = rest.trim_start();
                for ty in NUMERIC {
                    if rest.starts_with(ty) {
                        return Some(format!("{accessor} as {ty}"));
                    }
                }
            }
            search += pos + accessor.len();
        }
        None
    }

    /// Checks one library source file.
    #[must_use]
    pub fn check(path: &str, text: &str) -> Vec<Diagnostic> {
        if OWNING_MODULES.iter().any(|m| path.ends_with(m)) {
            return Vec::new();
        }
        let stripped = source::strip(text);
        let mask = source::test_mask(&stripped);
        let raw_lines: Vec<&str> = text.lines().collect();
        let mut out = Vec::new();

        for (idx, line) in stripped.lines().enumerate() {
            if mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            if source::allow_missing_reason(raw_lines.get(idx).unwrap_or(&""), RULE) {
                out.push(Diagnostic::new(
                    RULE,
                    path,
                    idx + 1,
                    "allowlist entry is missing its justification".to_string(),
                ));
                continue;
            }
            for accessor in [".get()", ".as_f32()"] {
                if let Some(found) = cast_after(line, accessor) {
                    if source::is_allowed(&raw_lines, idx, RULE) {
                        continue;
                    }
                    out.push(Diagnostic::new(
                        RULE,
                        path,
                        idx + 1,
                        format!(
                            "unit-erasing `{found}`; use the typed conversion \
                             (`as_f64()` and friends) so clock-domain and traffic \
                             math stays dimensioned"
                        ),
                    ));
                    break;
                }
            }
        }
        out
    }
}

/// `trace-stage`: every `Server`/`MultiServer` constructed in the
/// timing crates must be tied to a trace stage.
///
/// The cycle-conservation auditor (`docs/OBSERVABILITY.md`) can only
/// audit what is attributed: a pipeline server constructed without a
/// stage is busy time that silently never reaches the trace. The rule
/// requires a `trace:stage(<name>)` marker comment on the construction
/// line or within the few lines above it (rustfmt may split the
/// constructor across lines); intentionally untraced units carry a
/// `lint:allow(trace-stage) — <reason>` justification instead.
pub mod trace_stage {
    use super::{source, Diagnostic};

    /// The rule name used in diagnostics and `lint:allow(...)` entries.
    pub const RULE: &str = "trace-stage";

    /// Crate source trees whose servers feed audited report totals.
    pub const TRACED_CRATES: [&str; 3] = ["crates/core/src", "crates/mem/src", "crates/pim/src"];

    /// How far above a construction the marker may sit (a rustfmt-split
    /// `(0..n).map(|_| Server::new(...))` puts it a couple lines up).
    const MARKER_WINDOW: usize = 3;

    /// Whether the rule applies to `path`.
    #[must_use]
    pub fn applies(path: &str) -> bool {
        TRACED_CRATES.iter().any(|c| path.starts_with(c))
    }

    fn has_marker(raw_lines: &[&str], idx: usize) -> bool {
        let lo = idx.saturating_sub(MARKER_WINDOW);
        raw_lines[lo..=idx.min(raw_lines.len().saturating_sub(1))]
            .iter()
            .any(|l| l.contains("trace:stage("))
    }

    /// Checks one library source file.
    #[must_use]
    pub fn check(path: &str, text: &str) -> Vec<Diagnostic> {
        if !applies(path) {
            return Vec::new();
        }
        let stripped = source::strip(text);
        let mask = source::test_mask(&stripped);
        let raw_lines: Vec<&str> = text.lines().collect();
        let mut out = Vec::new();

        for (idx, line) in stripped.lines().enumerate() {
            if mask.get(idx).copied().unwrap_or(false) {
                continue;
            }
            if source::allow_missing_reason(raw_lines.get(idx).unwrap_or(&""), RULE) {
                out.push(Diagnostic::new(
                    RULE,
                    path,
                    idx + 1,
                    "allowlist entry is missing its justification".to_string(),
                ));
                continue;
            }
            // `MultiServer::new(` contains `Server::new(`, so one
            // pattern covers both constructors.
            if !line.contains("Server::new(") {
                continue;
            }
            if has_marker(&raw_lines, idx) || source::is_allowed(&raw_lines, idx, RULE) {
                continue;
            }
            out.push(Diagnostic::new(
                RULE,
                path,
                idx + 1,
                format!(
                    "server constructed without a `trace:stage(<name>)` marker; \
                     tie it to a stage in `pimgfx_engine::trace::stage` \
                     (or justify with `// lint:allow({RULE}) — <reason>`)"
                ),
            ));
        }
        out
    }
}

/// `lint-wall`: every crate's `lib.rs` carries the canonical header.
///
/// The header is where the checks the compiler makes are switched on:
/// `deny(missing_docs)` documents every public item, and the clippy
/// denials keep library code free of `unwrap`/`expect`/`panic!` and
/// friends (test code is exempt through the root `clippy.toml`) and
/// make every `#[allow]`/`#[expect]` state its `reason`.
pub mod lint_wall {
    use super::Diagnostic;

    /// The rule name used in diagnostics.
    pub const RULE: &str = "lint-wall";

    /// The canonical header block, verified byte-for-byte.
    pub const CANONICAL: &str = "\
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
";

    /// Checks one `lib.rs`.
    #[must_use]
    pub fn check(path: &str, text: &str) -> Vec<Diagnostic> {
        if text.contains(CANONICAL) {
            return Vec::new();
        }
        let message = if text.contains("lint wall") {
            "lint-wall header present but differs from the canonical block; \
             it is compared byte-for-byte"
        } else {
            "missing the canonical lint-wall header \
             (`#![forbid(unsafe_code)]`, `#![deny(missing_docs)]`, clippy warns and denies)"
        };
        vec![Diagnostic::new(RULE, path, 0, message.to_string())]
    }
}

/// `manifest`: member manifests inherit workspace metadata and only use
/// workspace-declared dependencies.
pub mod manifest {
    use super::Diagnostic;

    /// The rule name used in diagnostics.
    pub const RULE: &str = "manifest";

    /// Metadata keys every member must inherit with `key.workspace = true`.
    pub const REQUIRED_WORKSPACE_KEYS: [&str; 7] = [
        "version",
        "edition",
        "license",
        "repository",
        "authors",
        "keywords",
        "categories",
    ];

    /// Extracts the dependency names declared in the root manifest's
    /// `[workspace.dependencies]` table.
    #[must_use]
    pub fn workspace_dependency_names(workspace_manifest: &str) -> Vec<String> {
        let mut names = Vec::new();
        let mut in_table = false;
        for line in workspace_manifest.lines() {
            let t = line.trim();
            if t.starts_with('[') {
                in_table = t == "[workspace.dependencies]";
                continue;
            }
            if in_table && !t.is_empty() && !t.starts_with('#') {
                if let Some((name, _)) = t.split_once('=') {
                    names.push(name.trim().to_string());
                }
            }
        }
        names
    }

    /// Checks one member `Cargo.toml`.
    #[must_use]
    pub fn check(path: &str, text: &str, workspace_deps: &[String]) -> Vec<Diagnostic> {
        let mut out = Vec::new();

        for key in REQUIRED_WORKSPACE_KEYS {
            let inherited = format!("{key}.workspace = true");
            let spelled = format!("{key} = {{ workspace = true }}");
            if !text.contains(&inherited) && !text.contains(&spelled) {
                out.push(Diagnostic::new(
                    RULE,
                    path,
                    0,
                    format!("package metadata `{key}` must inherit the workspace value"),
                ));
            }
        }

        let mut section = String::new();
        for (idx, line) in text.lines().enumerate() {
            let t = line.trim();
            if t.starts_with('[') {
                section = t.to_string();
                continue;
            }
            let in_deps = section == "[dependencies]"
                || section == "[dev-dependencies]"
                || section == "[build-dependencies]";
            if !in_deps || t.is_empty() || t.starts_with('#') {
                continue;
            }
            let Some((name, spec)) = t.split_once('=') else {
                continue;
            };
            let (name, spec) = (name.trim(), spec.trim());
            if !spec.contains("workspace = true") {
                out.push(Diagnostic::new(
                    RULE,
                    path,
                    idx + 1,
                    format!(
                        "dependency `{name}` must be `{{ workspace = true }}`, \
                         not an inline version/path/git spec"
                    ),
                ));
            } else if !workspace_deps.iter().any(|d| d == name) {
                out.push(Diagnostic::new(
                    RULE,
                    path,
                    idx + 1,
                    format!("dependency `{name}` is not declared in [workspace.dependencies]"),
                ));
            }
        }
        out
    }
}

/// `protocol-version`: the `PGRPC` frame definitions in
/// `crates/serve/src/protocol.rs` must not change without a `VERSION`
/// bump. A committed snapshot (`crates/serve/protocol.snapshot`) pins
/// the pair `(version, digest-of-frame-region)`; editing the frame
/// structs while leaving `VERSION` untouched makes the digests disagree
/// and the rule fires. Comment/doc-only edits are exempt — the digest
/// is computed over comment-stripped, whitespace-normalized code.
pub mod protocol_version {
    use super::{source, Diagnostic};

    /// The rule name used in diagnostics.
    pub const RULE: &str = "protocol-version";

    /// The file holding the wire-frame definitions.
    pub const PROTOCOL_FILE: &str = "crates/serve/src/protocol.rs";

    /// The committed snapshot pinning `(version, digest)`.
    pub const SNAPSHOT_FILE: &str = "crates/serve/protocol.snapshot";

    const BEGIN: &str = "// protocol:frames:begin";
    const END: &str = "// protocol:frames:end";

    /// Extracts the marker-delimited frame-definition region.
    #[must_use]
    pub fn frame_region(text: &str) -> Option<&str> {
        let b = text.find(BEGIN)?;
        let e = text.find(END)?;
        (e > b).then(|| &text[b + BEGIN.len()..e])
    }

    /// Parses `const VERSION: u32 = N;` out of the (stripped) region.
    #[must_use]
    pub fn declared_version(stripped_region: &str) -> Option<u32> {
        let needle = "VERSION: u32 =";
        let at = stripped_region.find(needle)?;
        let rest = stripped_region[at + needle.len()..].trim_start();
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    }

    /// FNV-1a 64 over the comment-stripped, whitespace-normalized
    /// region: each non-blank line is trimmed and terminated with `\n`.
    #[must_use]
    pub fn digest(region: &str) -> String {
        let stripped = source::strip(region);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in stripped.lines() {
            let t = line.trim();
            if t.is_empty() {
                continue;
            }
            for b in t.bytes().chain(std::iter::once(b'\n')) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{h:016x}")
    }

    /// Parses a snapshot file: `version=N` and `digest=HEX` lines.
    #[must_use]
    pub fn parse_snapshot(text: &str) -> Option<(u32, String)> {
        let mut version = None;
        let mut dig = None;
        for line in text.lines() {
            let line = line.trim();
            if let Some(v) = line.strip_prefix("version=") {
                version = v.trim().parse().ok();
            } else if let Some(d) = line.strip_prefix("digest=") {
                dig = Some(d.trim().to_string());
            }
        }
        Some((version?, dig?))
    }

    /// Cross-checks the protocol source against the snapshot.
    #[must_use]
    pub fn check(
        protocol_path: &str,
        protocol_text: &str,
        snapshot_path: &str,
        snapshot: Option<&str>,
    ) -> Vec<Diagnostic> {
        let diag = |path: &str, message: String| Diagnostic::new(RULE, path, 0, message);
        let Some(region) = frame_region(protocol_text) else {
            return vec![diag(
                protocol_path,
                format!("missing `{BEGIN}` / `{END}` markers around the frame definitions"),
            )];
        };
        let Some(version) = declared_version(&source::strip(region)) else {
            return vec![diag(
                protocol_path,
                "no `const VERSION: u32 = <n>;` inside the frame region".to_string(),
            )];
        };
        let d = digest(region);
        let Some(snap_text) = snapshot else {
            return vec![diag(
                snapshot_path,
                format!("snapshot file is missing; create it with lines `version={version}` and `digest={d}`"),
            )];
        };
        let Some((snap_version, snap_digest)) = parse_snapshot(snap_text) else {
            return vec![diag(
                snapshot_path,
                format!(
                    "snapshot is unparsable; expected lines `version={version}` and `digest={d}`"
                ),
            )];
        };
        match (d == snap_digest, version == snap_version) {
            (true, true) => Vec::new(),
            (true, false) => vec![diag(
                snapshot_path,
                format!(
                    "snapshot says version {snap_version} but the source declares VERSION {version} \
                     with unchanged frame definitions; restore VERSION or refresh the snapshot"
                ),
            )],
            (false, true) => vec![diag(
                protocol_path,
                format!(
                    "PGRPC frame definitions changed (digest {d}, snapshot {snap_digest}) without a \
                     VERSION bump; bump `VERSION` past {snap_version} and update {snapshot_path} to \
                     `digest={d}`"
                ),
            )],
            (false, false) => vec![diag(
                snapshot_path,
                format!(
                    "frame definitions and VERSION both changed; refresh the snapshot with lines \
                     `version={version}` and `digest={d}`"
                ),
            )],
        }
    }
}
