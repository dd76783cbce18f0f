//! Self-tests: every lint rule must fire on a seeded violation fixture,
//! stay quiet on clean code, and honor the allowlist mechanism.

use xtask::rules::{
    float_reduction, lint_wall, lock_order, manifest, nondeterminism, protocol_version,
    stale_allow, trace_stage, unit_cast,
};
use xtask::{Diagnostic, LintReport};

// --------------------------------------------------------------- unit-cast

#[test]
fn unit_cast_fires_on_get_then_cast() {
    let fixture = "pub fn f(b: ByteCount) -> f64 { b.get() as f64 * 2.0 }\n";
    let diags = unit_cast::check("crates/demo/src/lib.rs", fixture);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "unit-cast");
    assert!(diags[0].message.contains(".get() as f64"), "{}", diags[0]);
}

#[test]
fn unit_cast_fires_on_radians_cast() {
    let fixture = "pub fn f(r: Radians) -> f64 { r.as_f32() as f64 }\n";
    assert_eq!(unit_cast::check("crates/demo/src/lib.rs", fixture).len(), 1);
}

#[test]
fn unit_cast_quiet_on_typed_conversions_and_owning_modules() {
    let clean = "pub fn f(b: ByteCount) -> f64 { b.as_f64() * 2.0 }\n";
    assert!(unit_cast::check("crates/demo/src/lib.rs", clean).is_empty());

    let raw = "pub fn f(b: ByteCount) -> f64 { b.get() as f64 }\n";
    for owner in unit_cast::OWNING_MODULES {
        assert!(
            unit_cast::check(owner, raw).is_empty(),
            "{owner} owns its raw representation"
        );
    }
}

#[test]
fn unit_cast_allowlist_suppresses() {
    let fixture = "pub fn f(b: ByteCount) -> f64 { b.get() as f64 } // lint:allow(unit-cast) — formatting only, feeds a display percentage\n";
    assert!(unit_cast::check("crates/demo/src/lib.rs", fixture).is_empty());
}

// ------------------------------------------------------------- trace-stage

#[test]
fn trace_stage_fires_on_unmarked_server_construction() {
    for fixture in [
        "pub fn f() -> Server { Server::new(1, 4) }\n",
        "pub fn f() -> MultiServer { MultiServer::new(16, 1, 4) }\n",
    ] {
        let diags = trace_stage::check("crates/core/src/texunit.rs", fixture);
        assert_eq!(diags.len(), 1, "{fixture}");
        assert_eq!(diags[0].rule, "trace-stage");
        assert!(diags[0].message.contains("trace:stage"), "{}", diags[0]);
    }
}

#[test]
fn trace_stage_accepts_marked_constructions() {
    // Same line.
    let same = "pub fn f() -> Server { Server::new(1, 4) } // trace:stage(tex.filter)\n";
    assert!(trace_stage::check("crates/pim/src/mtu.rs", same).is_empty());

    // Line above.
    let above = "\
// trace:stage(tex.addr)
pub fn f() -> Server { Server::new(1, 1) }
";
    assert!(trace_stage::check("crates/core/src/texunit.rs", above).is_empty());

    // A rustfmt-split construction with the marker a few lines up.
    let split = "\
// trace:stage(tex.filter)
let pipes: Vec<Server> = (0..units)
    .map(|_| Server::new(1, latency))
    .collect();
";
    assert!(trace_stage::check("crates/core/src/texunit.rs", split).is_empty());
}

#[test]
fn trace_stage_scope_tests_and_allowlist() {
    let bare = "pub fn f() -> Server { Server::new(1, 4) }\n";
    // Out-of-scope crates are untouched.
    assert!(trace_stage::check("crates/engine/src/server.rs", bare).is_empty());
    assert!(trace_stage::check("crates/bench/src/lib.rs", bare).is_empty());
    // Test code inside a traced crate is exempt.
    let in_tests = "#[cfg(test)]\nmod tests {\n    fn t() { Server::new(1, 4); }\n}\n";
    assert!(trace_stage::check("crates/core/src/texunit.rs", in_tests).is_empty());
    // Allowlist with a reason suppresses; without one it is flagged.
    let allowed =
        "let s = Server::new(1, 4); // lint:allow(trace-stage) — measurement scaffold, never ticks the clock\n";
    assert!(trace_stage::check("crates/mem/src/gddr5.rs", allowed).is_empty());
    let bare_allow = "let s = Server::new(1, 4); // lint:allow(trace-stage)\n";
    let diags = trace_stage::check("crates/mem/src/gddr5.rs", bare_allow);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("justification"), "{}", diags[0]);
}

// --------------------------------------------------------------- lint-wall

#[test]
fn lint_wall_accepts_canonical_header() {
    let lib = format!("//! Docs.\n\n{}\npub mod m;\n", lint_wall::CANONICAL);
    assert!(lint_wall::check("crates/demo/src/lib.rs", &lib).is_empty());
}

#[test]
fn lint_wall_rejects_missing_or_mutated_header() {
    let missing = "//! Docs.\n#![forbid(unsafe_code)]\npub mod m;\n";
    let diags = lint_wall::check("crates/demo/src/lib.rs", missing);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "lint-wall");

    // One byte off (warn instead of deny) must not pass.
    let mutated = lint_wall::CANONICAL.replace("deny(missing_docs)", "warn(missing_docs)");
    let lib = format!("//! Docs.\n\n{mutated}\n");
    assert_eq!(lint_wall::check("crates/demo/src/lib.rs", &lib).len(), 1);

    // Every clippy denial is load-bearing: the no-panic policy and the
    // mandatory suppression reasons live in the wall, so dropping one
    // fails the pass.
    for lint in [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::allow_attributes_without_reason",
    ] {
        assert!(lint_wall::CANONICAL.contains(lint), "{lint}");
        let dropped = lint_wall::CANONICAL.replacen(&format!("    {lint},\n"), "", 1);
        let dropped = dropped.replacen(&format!(",\n    {lint}\n"), "\n", 1);
        assert_ne!(dropped, lint_wall::CANONICAL, "{lint} is on its own line");
        let lib = format!("//! Docs.\n\n{dropped}\npub mod m;\n");
        let diags = lint_wall::check("crates/demo/src/lib.rs", &lib);
        assert_eq!(diags.len(), 1, "{lint}");
        assert!(diags[0].message.contains("differs"), "{}", diags[0]);
    }
}

// ---------------------------------------------------------------- manifest

const WORKSPACE_MANIFEST: &str = r#"
[workspace]
members = ["crates/a"]

[workspace.dependencies]
pimgfx-types = { path = "crates/types" }
pimgfx-engine = { path = "crates/engine" }
"#;

fn member(metadata: &str, deps: &str) -> String {
    format!("[package]\nname = \"demo\"\n{metadata}\n[dependencies]\n{deps}")
}

#[test]
fn manifest_accepts_conforming_member() {
    let meta = manifest::REQUIRED_WORKSPACE_KEYS
        .iter()
        .map(|k| format!("{k}.workspace = true\n"))
        .collect::<String>();
    let toml = member(&meta, "pimgfx-types = { workspace = true }\n");
    let deps = manifest::workspace_dependency_names(WORKSPACE_MANIFEST);
    assert_eq!(deps, vec!["pimgfx-types", "pimgfx-engine"]);
    assert!(manifest::check("crates/a/Cargo.toml", &toml, &deps).is_empty());
}

#[test]
fn manifest_rejects_inline_version_and_undeclared_dep() {
    let meta = manifest::REQUIRED_WORKSPACE_KEYS
        .iter()
        .map(|k| format!("{k}.workspace = true\n"))
        .collect::<String>();
    let deps = manifest::workspace_dependency_names(WORKSPACE_MANIFEST);

    let pinned = member(&meta, "rand = \"0.8\"\n");
    let diags = manifest::check("crates/a/Cargo.toml", &pinned, &deps);
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].message.contains("workspace = true"),
        "{}",
        diags[0]
    );

    let undeclared = member(&meta, "mystery = { workspace = true }\n");
    let diags = manifest::check("crates/a/Cargo.toml", &undeclared, &deps);
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].message.contains("[workspace.dependencies]"),
        "{}",
        diags[0]
    );
}

#[test]
fn manifest_rejects_missing_metadata_inheritance() {
    let toml = member("version = \"0.1.0\"\n", "");
    let deps = manifest::workspace_dependency_names(WORKSPACE_MANIFEST);
    let diags = manifest::check("crates/a/Cargo.toml", &toml, &deps);
    // All seven keys missing (a literal version does not count).
    assert_eq!(diags.len(), manifest::REQUIRED_WORKSPACE_KEYS.len());
}

// ------------------------------------------------------- protocol-version

const PROTOCOL_FIXTURE: &str = "\
//! Wire protocol.
// protocol:frames:begin
/// Frame magic.
pub const MAGIC: [u8; 5] = *b\"PGRPC\";
/// Wire version.
pub const VERSION: u32 = 1;
/// A request.
pub enum Request {
    /// Stop.
    Shutdown,
}
// protocol:frames:end
fn helper() {}
";

fn fixture_snapshot() -> String {
    let region = protocol_version::frame_region(PROTOCOL_FIXTURE).expect("markers present");
    format!("version=1\ndigest={}\n", protocol_version::digest(region))
}

#[test]
fn protocol_version_matching_snapshot_is_quiet() {
    let snap = fixture_snapshot();
    let diags = protocol_version::check("p.rs", PROTOCOL_FIXTURE, "p.snapshot", Some(&snap));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn protocol_version_comment_only_edits_are_exempt() {
    let snap = fixture_snapshot();
    let edited = PROTOCOL_FIXTURE.replace("/// A request.", "/// A client request frame.");
    let diags = protocol_version::check("p.rs", &edited, "p.snapshot", Some(&snap));
    assert!(
        diags.is_empty(),
        "doc edits must not demand a bump: {diags:?}"
    );
}

#[test]
fn protocol_version_frame_change_without_bump_fires() {
    let snap = fixture_snapshot();
    let edited = PROTOCOL_FIXTURE.replace("Shutdown,", "Shutdown,\n    /// New.\n    Ping,");
    let diags = protocol_version::check("p.rs", &edited, "p.snapshot", Some(&snap));
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, protocol_version::RULE);
    assert!(diags[0].message.contains("without a"), "{}", diags[0]);
    assert!(diags[0].message.contains("VERSION bump"), "{}", diags[0]);
}

#[test]
fn protocol_version_bump_with_stale_snapshot_says_refresh() {
    let snap = fixture_snapshot();
    let edited = PROTOCOL_FIXTURE
        .replace("Shutdown,", "Shutdown,\n    /// New.\n    Ping,")
        .replace("VERSION: u32 = 1", "VERSION: u32 = 2");
    let diags = protocol_version::check("p.rs", &edited, "p.snapshot", Some(&snap));
    assert_eq!(diags.len(), 1);
    assert!(
        diags[0].message.contains("refresh the snapshot"),
        "{}",
        diags[0]
    );
    assert!(diags[0].message.contains("version=2"), "{}", diags[0]);
}

#[test]
fn protocol_version_missing_snapshot_tells_how_to_create_it() {
    let diags = protocol_version::check("p.rs", PROTOCOL_FIXTURE, "p.snapshot", None);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("version=1"), "{}", diags[0]);
    assert!(diags[0].message.contains("digest="), "{}", diags[0]);
}

#[test]
fn protocol_version_missing_markers_or_version_fire() {
    let snap = fixture_snapshot();
    let no_markers = "pub const VERSION: u32 = 1;\n";
    let diags = protocol_version::check("p.rs", no_markers, "p.snapshot", Some(&snap));
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("markers"), "{}", diags[0]);

    let no_version = PROTOCOL_FIXTURE.replace("pub const VERSION: u32 = 1;", "");
    let diags = protocol_version::check("p.rs", &no_version, "p.snapshot", Some(&snap));
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("VERSION"), "{}", diags[0]);
}

#[test]
fn protocol_version_snapshot_round_trips() {
    assert_eq!(
        protocol_version::parse_snapshot("version=3\ndigest=abc123\n"),
        Some((3, "abc123".to_string()))
    );
    assert_eq!(protocol_version::parse_snapshot("digest=abc123\n"), None);
    assert_eq!(protocol_version::parse_snapshot("garbage"), None);
}

// ---------------------------------------------------------- nondeterminism

#[test]
fn nondeterminism_fires_on_ambient_seeded_constructors() {
    for ctor in [
        "HashMap::new()",
        "HashMap::with_capacity(8)",
        "HashMap::default()",
        "HashSet::new()",
        "HashSet::default()",
    ] {
        let fixture = format!("pub fn f() {{ let m = {ctor}; }}\n");
        let diags = nondeterminism::check("crates/demo/src/lib.rs", &fixture);
        assert_eq!(diags.len(), 1, "{ctor}");
        assert_eq!(diags[0].rule, "nondeterminism");
        assert!(diags[0].message.contains("ambient-seeded"), "{}", diags[0]);
    }
}

#[test]
fn nondeterminism_fires_on_default_hasher_type_positions() {
    let two_arg = "pub struct S {\n    map: HashMap<String, u32>,\n}\n";
    let diags = nondeterminism::check("crates/demo/src/lib.rs", two_arg);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].line, 2);

    let one_arg = "pub struct S {\n    set: HashSet<(u32, u32)>,\n}\n";
    assert_eq!(
        nondeterminism::check("crates/demo/src/lib.rs", one_arg).len(),
        1
    );

    // A rustfmt-split type is still seen.
    let split = "pub struct S {\n    map: HashMap<\n        String,\n        u32,\n    >,\n}\n";
    assert_eq!(
        nondeterminism::check("crates/demo/src/lib.rs", split).len(),
        1
    );
}

#[test]
fn nondeterminism_accepts_seeded_hashers_and_fx_aliases() {
    let fixture = "\
use pimgfx_types::fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub struct S {
    a: FxHashMap<String, u32>,
    b: FxHashSet<u32>,
    c: HashMap<String, u32, FxBuildHasher>,
    d: std::collections::HashMap<String, u32, FxBuildHasher>,
}
pub fn f() -> FxHashMap<String, u32> { FxHashMap::default() }
";
    let diags = nondeterminism::check("crates/demo/src/lib.rs", fixture);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn nondeterminism_skips_use_decls_and_tests() {
    let fixture = "\
pub use std::collections::HashMap;
#[cfg(test)]
mod tests {
    fn t() { let m: HashMap<u32, u32> = HashMap::new(); }
}
";
    assert!(nondeterminism::check("crates/demo/src/lib.rs", fixture).is_empty());
}

#[test]
fn nondeterminism_wall_clock_needs_det_boundary() {
    let bare = "pub fn f() { let t = Instant::now(); }\n";
    let diags = nondeterminism::check("crates/demo/src/lib.rs", bare);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("det:boundary"), "{}", diags[0]);

    let system = "pub fn f() { let t = SystemTime::now(); }\n";
    assert_eq!(
        nondeterminism::check("crates/demo/src/lib.rs", system).len(),
        1
    );

    // Marker with a justification — same line, directly above, or in a
    // wrapped two-line comment — suppresses.
    for marked in [
        "pub fn f() { let t = Instant::now(); } // det:boundary — wall-time report field only\n",
        "// det:boundary — wall-time report field only\npub fn f() { let t = Instant::now(); }\n",
        "// det:boundary — wall-time report field,\n// never feeds simulated results.\npub fn f() { let t = Instant::now(); }\n",
    ] {
        let diags = nondeterminism::check("crates/demo/src/lib.rs", marked);
        assert!(diags.is_empty(), "{marked:?} -> {diags:?}");
    }

    // A bare marker without a justification is itself a finding.
    let bare_marker = "// det:boundary\npub fn f() { let t = Instant::now(); }\n";
    let diags = nondeterminism::check("crates/demo/src/lib.rs", bare_marker);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("justification"), "{}", diags[0]);
}

#[test]
fn nondeterminism_fires_on_unseeded_entropy() {
    for src in [
        "thread_rng()",
        "SmallRng::from_entropy()",
        "RandomState::new()",
    ] {
        let fixture = format!("pub fn f() {{ let r = {src}; }}\n");
        let diags = nondeterminism::check("crates/demo/src/lib.rs", &fixture);
        assert_eq!(diags.len(), 1, "{src}");
    }
}

#[test]
fn nondeterminism_allowlist_follows_house_rules() {
    let allowed = "pub fn f() { let m = HashMap::new(); } // lint:allow(nondeterminism) — iteration order never observed, drained unordered\n";
    assert!(nondeterminism::check("crates/demo/src/lib.rs", allowed).is_empty());

    let bare = "pub fn f() { let m = HashMap::new(); } // lint:allow(nondeterminism)\n";
    let diags = nondeterminism::check("crates/demo/src/lib.rs", bare);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("justification"), "{}", diags[0]);
}

// -------------------------------------------------------------- lock-order

const RANKED_PAIR: &str = "\
pub struct Q {
    // lock:rank(10, demo.q.state)
    state: Mutex<u32>,
    // lock:rank(20, demo.q.ready)
    ready: Condvar,
}
impl Q {
    pub fn wait(&self) {
        let g = self.state.lock().unwrap();
        let _g = self.ready.wait(g).unwrap();
    }
}
";

#[test]
fn lock_order_accepts_increasing_ranks() {
    let diags = lock_order::check("crates/demo/src/lib.rs", RANKED_PAIR);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lock_order_requires_a_rank_on_every_lock() {
    for decl in [
        "state: Mutex<u32>,",
        "state: RwLock<u32>,",
        "state: Condvar,",
    ] {
        let fixture = format!("pub struct Q {{\n    {decl}\n}}\n");
        let diags = lock_order::check("crates/demo/src/lib.rs", &fixture);
        assert_eq!(diags.len(), 1, "{decl}");
        assert!(diags[0].message.contains("lock:rank"), "{}", diags[0]);
    }

    // Initializers and imports are not declarations.
    let quiet = "\
use std::sync::{Condvar, Mutex};
pub fn f() -> Mutex<u32> { Mutex::new(0) }
";
    assert!(lock_order::check("crates/demo/src/lib.rs", quiet).is_empty());
}

#[test]
fn lock_order_detects_rank_inversion() {
    // Same shape as RANKED_PAIR with the ranks swapped: waiting on the
    // condvar (now rank 10) while holding the mutex (rank 20) inverts.
    let inverted = RANKED_PAIR
        .replace("lock:rank(10, demo.q.state)", "lock:rank(20, demo.q.state)")
        .replace("lock:rank(20, demo.q.ready)", "lock:rank(10, demo.q.ready)");
    let diags = lock_order::check("crates/demo/src/lib.rs", &inverted);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("rank inversion"), "{}", diags[0]);
    assert!(
        diags[0].message.contains("strictly increasing"),
        "{}",
        diags[0]
    );
}

#[test]
fn lock_order_detects_self_deadlock() {
    let fixture = "\
pub struct Q {
    // lock:rank(10, demo.q.state)
    state: Mutex<u32>,
}
impl Q {
    pub fn f(&self) {
        let a = self.state.lock().unwrap();
        let b = self.state.lock().unwrap();
    }
}
";
    let diags = lock_order::check("crates/demo/src/lib.rs", fixture);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("self-deadlock"), "{}", diags[0]);
}

#[test]
fn lock_order_releases_at_scope_end() {
    // Two sequential acquisitions in sibling scopes do not nest.
    let fixture = "\
pub struct Q {
    // lock:rank(10, demo.q.state)
    state: Mutex<u32>,
}
impl Q {
    pub fn f(&self) {
        {
            let a = self.state.lock().unwrap();
        }
        let b = self.state.lock().unwrap();
    }
}
";
    let diags = lock_order::check("crates/demo/src/lib.rs", fixture);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lock_order_resolves_guard_returning_wrappers() {
    let fixture = "\
pub struct C {
    // lock:rank(30, demo.c.inner)
    inner: Mutex<u32>,
    // lock:rank(10, demo.c.low)
    low: Mutex<u32>,
}
impl C {
    fn lock(&self) -> MutexGuard<'_, u32> {
        self.inner.lock().unwrap()
    }
    pub fn bad(&self) {
        let g = self.lock();
        let h = self.low.lock().unwrap();
    }
}
";
    let diags = lock_order::check("crates/demo/src/lib.rs", fixture);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(
        diags[0].message.contains("demo.c.inner"),
        "the wrapper call must count as the wrapped lock: {}",
        diags[0]
    );
}

#[test]
fn lock_order_flags_duplicate_and_unparsable_ranks() {
    let dup = "\
pub struct Q {
    // lock:rank(10, demo.q.a)
    a: Mutex<u32>,
    // lock:rank(10, demo.q.b)
    b: Mutex<u32>,
}
";
    let diags = lock_order::check("crates/demo/src/lib.rs", dup);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("reuses rank 10"), "{}", diags[0]);

    let bad = "\
pub struct Q {
    // lock:rank(first, demo.q.a)
    a: Mutex<u32>,
}
";
    let diags = lock_order::check("crates/demo/src/lib.rs", bad);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("unparsable"), "{}", diags[0]);
}

#[test]
fn lock_order_allowlist_and_tests_are_exempt() {
    let allowed = "\
pub struct Q {
    // lint:allow(lock-order) — single test-harness lock, never nested
    state: Mutex<u32>,
}
";
    assert!(lock_order::check("crates/demo/src/lib.rs", allowed).is_empty());

    let in_tests = "\
#[cfg(test)]
mod tests {
    struct Q { state: Mutex<u32> }
}
";
    assert!(lock_order::check("crates/demo/src/lib.rs", in_tests).is_empty());
}

// --------------------------------------------------------- float-reduction

#[test]
fn float_reduction_finding_fails_the_pass() {
    let fixture = "pub fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
    let diags = float_reduction::check("crates/demo/src/lib.rs", fixture);
    assert_eq!(diags.len(), 1);
    let report = LintReport {
        diagnostics: diags,
        rules: std::collections::BTreeMap::new(),
    };
    assert!(!report.is_clean(), "one unmarked float reduction fails");
}

#[test]
fn float_reduction_fires_on_float_reductions_only() {
    // Turbofish sums and an inferred float sum fire.
    let turbo = "pub fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n";
    assert_eq!(
        float_reduction::check("crates/demo/src/lib.rs", turbo).len(),
        1
    );

    let inferred = "pub fn f(xs: &[f64]) -> f64 {\n    let s: f64 = xs.iter().sum();\n    s\n}\n";
    assert_eq!(
        float_reduction::check("crates/demo/src/lib.rs", inferred).len(),
        1
    );

    let fold = "pub fn f(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, b| a + b) }\n";
    assert_eq!(
        float_reduction::check("crates/demo/src/lib.rs", fold).len(),
        1
    );

    let fma = "pub fn f(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }\n";
    assert_eq!(
        float_reduction::check("crates/demo/src/lib.rs", fma).len(),
        1
    );

    // Integer reductions stay quiet — even when the next statement
    // mentions floats (the evidence window is backward-only).
    let ints = "\
pub fn f(xs: &[u64]) -> f64 {
    let total: u64 = xs.iter().sum();
    total as f64
}
";
    let diags = float_reduction::check("crates/demo/src/lib.rs", ints);
    assert!(diags.is_empty(), "{diags:?}");

    let durations = "pub fn f(xs: &[Duration]) -> Duration { xs.iter().sum::<Duration>() }\n";
    assert!(float_reduction::check("crates/demo/src/lib.rs", durations).is_empty());
}

#[test]
fn float_reduction_fires_on_lane_horizontal_reductions() {
    // A horizontal sum across F32x4 lanes reassociates the scalar
    // element-order accumulation — flagged by name alone.
    let hsum = "pub fn f(v: F32x4) -> f32 { v.hsum() }\n";
    let diags = float_reduction::check("crates/demo/src/lib.rs", hsum);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("hsum"), "{}", diags[0]);

    let reduce = "pub fn f(v: F32x8) -> f32 { v.reduce_sum() }\n";
    assert_eq!(
        float_reduction::check("crates/demo/src/lib.rs", reduce).len(),
        1
    );

    // Marker with a stated ULP bound suppresses, as for .sum().
    let marked = "\
// float:reassoc-ok — 4-lane tree sum, ≤ 2 ULP vs element order,
// consumed by a display-precision average.
pub fn f(v: F32x4) -> f32 { v.hsum() }
";
    assert!(float_reduction::check("crates/demo/src/lib.rs", marked).is_empty());
}

#[test]
fn float_reduction_marker_suppresses_with_justification() {
    let marked = "\
// float:reassoc-ok — slice-order sum over ≤ 8 values, consumed at
// 3-sig-fig display precision.
pub fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }
";
    assert!(float_reduction::check("crates/demo/src/lib.rs", marked).is_empty());

    let bare = "// float:reassoc-ok\npub fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
    let diags = float_reduction::check("crates/demo/src/lib.rs", bare);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("justification"), "{}", diags[0]);

    let allowed = "pub fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() } // lint:allow(float-reduction) — display-only three significant figures\n";
    assert!(float_reduction::check("crates/demo/src/lib.rs", allowed).is_empty());
}

// ------------------------------------------------------------- stale-allow

#[test]
fn stale_allow_accepts_live_entries() {
    // Inline allow: the rule would fire on the entry's own line.
    let inline = "let a = b.get() as f64; // lint:allow(unit-cast) — display percentage only\n";
    let potential = vec![("unit-cast", vec![1])];
    assert!(stale_allow::check("crates/demo/src/lib.rs", inline, &potential).is_empty());

    // Standalone allow above the violation.
    let above = "// lint:allow(unit-cast) — display percentage only\nlet a = b.get() as f64;\n";
    let potential = vec![("unit-cast", vec![2])];
    assert!(stale_allow::check("crates/demo/src/lib.rs", above, &potential).is_empty());
}

#[test]
fn stale_allow_flags_rotted_and_unknown_entries() {
    // The violation was refactored away; the comment stayed.
    let rotted = "// lint:allow(unit-cast) — display percentage only\nlet a = b.as_f64();\n";
    let potential = vec![("unit-cast", Vec::new())];
    let diags = stale_allow::check("crates/demo/src/lib.rs", rotted, &potential);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("stale"), "{}", diags[0]);

    // An entry naming a rule that does not exist.
    let unknown = "let a = b.get() as f64; // lint:allow(unit-casts) — typo in the rule name\n";
    let diags = stale_allow::check("crates/demo/src/lib.rs", unknown, &[]);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("unknown rule"), "{}", diags[0]);
}

#[test]
fn stale_allow_skips_docs_strings_and_tests() {
    let fixture = "\
/// Suppress with `lint:allow(unit-cast)` where justified.
//! Module docs may mention lint:allow(unit-cast) too.
pub fn f() -> String { \"lint:allow(unit-cast)\".to_string() }
#[cfg(test)]
mod tests {
    // lint:allow(unit-cast) — test fixtures may carry entries
    fn t() {}
}
";
    let diags = stale_allow::check("crates/demo/src/lib.rs", fixture, &[]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ------------------------------------------------------------------ report

#[test]
fn github_annotations_escape_messages() {
    let report = LintReport {
        diagnostics: vec![
            Diagnostic::new("unit-cast", "a.rs", 3, "bad".to_string()),
            Diagnostic::new("float-reduction", "b.rs", 7, "50%\nof cases".to_string()),
            Diagnostic::new("manifest", "c/Cargo.toml", 0, "whole file".to_string()),
        ],
        rules: std::collections::BTreeMap::new(),
    };
    let out = report.to_github();
    assert!(
        out.contains("::error file=a.rs,line=3::[unit-cast] bad"),
        "{out}"
    );
    assert!(
        out.contains("::error file=b.rs,line=7::[float-reduction] 50%25%0Aof cases"),
        "{out}"
    );
    assert!(
        out.contains("::error file=c/Cargo.toml::[manifest] whole file"),
        "{out}"
    );
    assert_eq!(out.lines().count(), 3, "{out}");
}

#[test]
fn text_findings_name_path_line_and_rule() {
    let at_line = Diagnostic::new("unit-cast", "crates/a/src/lib.rs", 3, "bad".to_string());
    assert_eq!(
        at_line.to_string(),
        "crates/a/src/lib.rs:3: [unit-cast] bad"
    );
    let whole_file = Diagnostic::new("manifest", "crates/a/Cargo.toml", 0, "m".to_string());
    assert_eq!(whole_file.to_string(), "crates/a/Cargo.toml: [manifest] m");
}

#[test]
fn summary_counts_findings_and_elides_quiet_rules() {
    let mut rules = std::collections::BTreeMap::new();
    rules.insert(
        "unit-cast",
        xtask::RuleStats {
            fired: 1,
            suppressed: 2,
        },
    );
    rules.insert("lock-order", xtask::RuleStats::default());
    let report = LintReport {
        diagnostics: vec![Diagnostic::new("unit-cast", "a.rs", 3, "m".to_string())],
        rules,
    };
    let summary = report.summary_text();
    assert!(summary.contains("unit-cast"), "{summary}");
    assert!(
        !summary.contains("lock-order"),
        "quiet rules elided: {summary}"
    );
    assert!(summary.ends_with("findings: 1"), "{summary}");
    assert!(!report.is_clean());

    let empty = LintReport {
        diagnostics: Vec::new(),
        rules: std::collections::BTreeMap::new(),
    };
    assert!(empty.is_clean());
    assert_eq!(empty.summary_text(), "  findings: 0");
}

// -------------------------------------------------------- fixture workspace

/// A minimal workspace on disk — a root manifest and one conforming
/// member `crates/demo` with the canonical wall — under cargo's
/// per-target scratch directory, for `lint_workspace` end to end.
struct Fixture {
    root: std::path::PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("xtask-{name}"));
        let _ = std::fs::remove_dir_all(&root);
        let fixture = Self { root };
        fixture.write(
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/demo\"]\n\n[workspace.dependencies]\n\
             pimgfx-types = { path = \"crates/types\" }\n",
        );
        let meta: String = manifest::REQUIRED_WORKSPACE_KEYS
            .iter()
            .map(|k| format!("{k}.workspace = true\n"))
            .collect();
        fixture.write(
            "crates/demo/Cargo.toml",
            &format!("[package]\nname = \"demo\"\n{meta}\n[dependencies]\n"),
        );
        fixture.write(
            "crates/demo/src/lib.rs",
            &format!("//! Demo.\n\n{}\npub mod m;\n", lint_wall::CANONICAL),
        );
        fixture.write("crates/demo/src/m.rs", "//! Module.\n");
        fixture
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("relative path has a parent"))
            .expect("fixture directory");
        std::fs::write(path, text).expect("fixture file");
    }

    fn lint(&self) -> LintReport {
        xtask::lint_workspace(&self.root).expect("fixture workspace is readable")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn fixture_findings_fail_the_pass() {
    let clean = Fixture::new("clean");
    assert!(clean.lint().is_clean(), "{:?}", clean.lint().diagnostics);

    let fixture = Fixture::new("findings");
    fixture.write(
        "crates/demo/src/m.rs",
        "//! Module.\n/// Sum.\npub fn f(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>()\n}\n",
    );
    fixture.write(
        "crates/demo/src/lib.rs",
        "//! Demo.\n#![forbid(unsafe_code)]\npub mod m;\n",
    );
    let report = fixture.lint();
    let found: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.path.as_str(), d.line))
        .collect();
    assert_eq!(
        found,
        [
            (lint_wall::RULE, "crates/demo/src/lib.rs", 0),
            (float_reduction::RULE, "crates/demo/src/m.rs", 4),
        ]
    );
    assert!(!report.is_clean());
    assert_eq!(report.rules[float_reduction::RULE].fired, 1);
}

#[test]
fn fixture_binaries_and_test_code_are_not_library_code() {
    let fixture = Fixture::new("skips");
    let violation = "pub fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
    fixture.write("crates/demo/src/main.rs", violation);
    fixture.write("crates/demo/src/bin/tool.rs", violation);
    fixture.write(
        "crates/demo/src/m.rs",
        &format!("//! Module.\n#[cfg(test)]\nmod tests {{\n    {violation}}}\n"),
    );
    let report = fixture.lint();
    assert!(report.is_clean(), "{:?}", report.diagnostics);
}

// ------------------------------------------------------------- whole repo

#[test]
fn real_workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("xtask lives two levels below the workspace root");
    let report = xtask::lint_workspace(root).expect("workspace is readable");
    let findings: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert!(
        report.is_clean(),
        "`cargo xtask lint` must exit clean; findings:\n{}",
        findings.join("\n")
    );
}

/// A plain `cargo test` at the root runs the workspace's default
/// members, so they must list every member (and the root package).
#[test]
fn default_members_cover_the_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("xtask lives two levels below the workspace root");
    let text = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let list = |key: &str| -> Vec<String> {
        let start = text
            .find(&format!("\n{key} = ["))
            .unwrap_or_else(|| panic!("root manifest lists `{key}`"));
        let body = &text[start..];
        let end = body.find(']').expect("list is closed");
        body[..end]
            .split('"')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    };
    let members = list("members");
    let mut expected = vec![".".to_string()];
    expected.extend(members.iter().cloned());
    assert_eq!(list("default-members"), expected);
    assert!(members.len() >= 15, "{members:?}");
}
