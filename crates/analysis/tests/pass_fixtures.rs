//! Fixture-driven pass tests: each file under `tests/fixtures/` is a
//! deliberately violating (or deliberately clean) source that the
//! workspace scan itself skips (`fixtures` is in `SKIP_DIRS`). Scoping
//! is path-based, so each fixture is lexed from disk and then assigned
//! an in-scope synthetic path.

use std::path::Path;

use fdip_analysis::passes::{registry, PassCtx, SourceFile};
use fdip_analysis::report::{Finding, Severity};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn run_pass_on(pass_id: &str, path: &str, source: &str, metrics_doc: &str) -> Vec<Finding> {
    let ctx = PassCtx {
        metrics_doc: metrics_doc.to_string(),
        serve_doc: String::new(),
    };
    let src = SourceFile::new(path, source);
    let mut out = Vec::new();
    let passes = registry();
    let pass = passes
        .iter()
        .find(|p| p.id == pass_id)
        .unwrap_or_else(|| panic!("no pass named {pass_id}"));
    (pass.run)(&ctx, &src, &mut out);
    out
}

#[test]
fn atomics_fixture_flags_relaxed_only_in_exec() {
    let bad = fixture("atomics_bad.rs");
    let hits = run_pass_on("atomics", "crates/exec/src/lib.rs", &bad, "");
    assert_eq!(hits.len(), 2);
    assert!(hits.iter().all(|f| f.needle == "Ordering::Relaxed"));

    let good = fixture("atomics_good.rs");
    assert!(run_pass_on("atomics", "crates/exec/src/lib.rs", &good, "").is_empty());
    // Out of scope: Relaxed elsewhere is not this pass's business.
    assert!(run_pass_on("atomics", "crates/core/src/sim.rs", &bad, "").is_empty());
}

#[test]
fn schema_drift_fixture_flags_undocumented_keys() {
    let doc = "| `documented_key` | int | a documented key |";
    let hits = run_pass_on(
        "schema-drift",
        "crates/telemetry/src/manifest.rs",
        &fixture("schema_drift.rs"),
        doc,
    );
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].needle, "undocumented_key");
    // Vendored code does not emit schema documents.
    assert!(run_pass_on(
        "schema-drift",
        "vendor/criterion/src/lib.rs",
        &fixture("schema_drift.rs"),
        doc,
    )
    .is_empty());
}

#[test]
fn golden_diagnostic_rendering() {
    let hits = run_pass_on(
        "atomics",
        "crates/exec/src/lib.rs",
        &fixture("atomics_bad.rs"),
        "",
    );
    let rendered: Vec<String> = hits.iter().map(Finding::render).collect();
    assert_eq!(
        rendered,
        vec![
            "crates/exec/src/lib.rs:5:20: [atomics] error: Relaxed ordering on a cross-thread \
             atomic: anything guarding cross-thread hand-off needs Acquire/Release; a pure \
             telemetry tally may be allowlisted",
            "crates/exec/src/lib.rs:6:20: [atomics] error: Relaxed ordering on a cross-thread \
             atomic: anything guarding cross-thread hand-off needs Acquire/Release; a pure \
             telemetry tally may be allowlisted",
        ]
    );
}

#[test]
fn hot_alloc_fixture_flags_every_loop_reachable_allocation() {
    let hits = run_pass_on(
        "hot-alloc",
        "crates/core/src/sim.rs",
        &fixture("hot_alloc_bad.rs"),
        "",
    );
    let found: Vec<(&str, &str)> = hits.iter().map(|f| (f.kind, f.needle.as_str())).collect();
    assert_eq!(
        found,
        vec![
            ("alloc-in-loop", "Vec::new"),
            ("alloc-in-loop", "format!"),
            ("alloc-in-loop", "to_vec"),
            ("alloc-in-hot-fn", "String::from"),
        ],
        "{hits:?}"
    );
    assert!(hits.iter().all(|f| f.severity == Severity::Warn));
}

#[test]
fn hot_alloc_fixture_clean_version_passes() {
    let hits = run_pass_on(
        "hot-alloc",
        "crates/core/src/sim.rs",
        &fixture("hot_alloc_good.rs"),
        "",
    );
    assert!(hits.is_empty(), "clean fixture flagged: {hits:?}");
}

#[test]
fn lock_fixture_flags_all_three_hazards() {
    let hits = run_pass_on(
        "lock-discipline",
        "crates/serve/src/scheduler.rs",
        &fixture("lock_bad.rs"),
        "",
    );
    let kinds: Vec<&str> = hits.iter().map(|f| f.kind).collect();
    assert_eq!(
        kinds,
        vec![
            "wait-outside-loop",
            "guard-across-blocking-call",
            "lock-order-inversion"
        ],
        "{hits:?}"
    );
    // The inversion names both mutexes involved.
    assert_eq!(hits[2].needle, "slots/journal");
}

#[test]
fn lock_fixture_clean_version_passes() {
    let hits = run_pass_on(
        "lock-discipline",
        "crates/serve/src/scheduler.rs",
        &fixture("lock_good.rs"),
        "",
    );
    assert!(hits.is_empty(), "clean fixture flagged: {hits:?}");
}
