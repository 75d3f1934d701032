//! Schema/documentation coverage for Document 5 (`lint.json`): every
//! key `fdip-lint --json` emits must be documented in
//! `docs/METRICS.md`, and the documented report shape must actually be
//! emitted — the same bidirectional guard `tests/metrics_doc.rs`
//! applies to the harness documents.

use fdip_analysis::allow::Allowlist;
use fdip_analysis::report::LINT_SCHEMA_VERSION;
use fdip_analysis::{lint_workspace, passes, ALLOWLIST_PATH};
use fdip_telemetry::Json;
use std::collections::BTreeSet;
use std::path::Path;

mod common;

fn lint_json() -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allow_text =
        std::fs::read_to_string(root.join(ALLOWLIST_PATH)).expect("lint-allow.txt exists");
    let mut allowlist = Allowlist::parse(&allow_text).expect("allowlist parses");
    lint_workspace(root, &mut allowlist)
        .expect("workspace lints")
        .to_json()
}

#[test]
fn every_lint_json_field_is_documented() {
    let emitted = lint_json();
    // Document 5 carries its own version, not the telemetry documents'
    // global one; v2 introduced the per-finding `kind` field, v3 dropped
    // the advisory `note` severity.
    const _: () = assert!(LINT_SCHEMA_VERSION >= 3);
    assert_eq!(
        emitted.get("schema_version").and_then(Json::as_u64),
        Some(LINT_SCHEMA_VERSION)
    );
    let keys = common::collect_keys(&emitted, &[]);
    assert!(keys.len() > 10, "implausibly few keys in lint.json");
    common::assert_documented(
        &keys,
        &[&common::repo_doc("docs/METRICS.md")],
        "lint.json (docs/METRICS.md)",
    );
}

#[test]
fn documented_lint_report_shape_is_emitted() {
    // Reverse direction: the blocks and fields Document 5 tabulates
    // must actually exist in a real report.
    let emitted = lint_json();
    let lint = emitted.get("lint").expect("lint block");
    assert_eq!(lint.get("tool").and_then(Json::as_str), Some("fdip-lint"));
    for name in ["files_scanned", "passes", "findings", "summary"] {
        assert!(lint.get(name).is_some(), "lint field {name} missing");
    }
    let passes = lint.get("passes").and_then(Json::as_arr).expect("passes");
    let ids: BTreeSet<&str> = passes
        .iter()
        .filter_map(|p| p.get("id").and_then(Json::as_str))
        .collect();
    for id in ["atomics", "schema-drift", "hot-alloc", "lock-discipline"] {
        assert!(ids.contains(id), "pass rollup for {id} missing: {ids:?}");
    }
    for p in passes {
        for name in ["findings", "denied", "allowed"] {
            assert!(p.get(name).is_some(), "pass rollup field {name} missing");
        }
    }
    let summary = lint.get("summary").expect("summary block");
    for name in ["errors", "warnings", "allowlisted", "denied"] {
        assert!(summary.get(name).is_some(), "summary field {name} missing");
    }
    assert!(summary.get("notes").is_none(), "v3 has no note severity");
    // The tree at HEAD holds the --deny bar.
    assert_eq!(summary.get("denied").and_then(Json::as_u64), Some(0));
    // Findings entries carry the documented positional fields.
    if let Some(f) = lint
        .get("findings")
        .and_then(Json::as_arr)
        .and_then(|a| a.first())
    {
        for name in [
            "pass", "kind", "file", "line", "col", "severity", "needle", "message",
        ] {
            assert!(f.get(name).is_some(), "finding field {name} missing");
        }
    }
}

#[test]
fn diagnostic_kind_table_matches_the_registry_both_ways() {
    // Document 5's "Diagnostic kinds" table and `passes::KINDS` are the
    // same closed set: every registered kind must be documented as a
    // `| pass | kind | ...` row, and every documented row must name a
    // registered kind — renames fail in both directions.
    let doc = common::repo_doc("docs/METRICS.md");
    let documented: BTreeSet<(String, String)> = doc
        .lines()
        .filter_map(|l| {
            let mut cells = l.split('|').map(str::trim);
            cells.next()?; // leading empty cell
            let pass = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            let kind = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            Some((pass.to_string(), kind.to_string()))
        })
        .filter(|(pass, _)| passes::registry().iter().any(|p| p.id == pass) || pass == "allowlist")
        .collect();
    let registered: BTreeSet<(String, String)> = passes::KINDS
        .iter()
        .map(|(pass, kind, _)| (pass.to_string(), kind.to_string()))
        .collect();
    assert!(registered.len() >= 9, "implausibly few registered kinds");
    let missing: Vec<_> = registered.difference(&documented).collect();
    assert!(
        missing.is_empty(),
        "kinds emitted but not documented in docs/METRICS.md: {missing:?}"
    );
    let phantom: Vec<_> = documented.difference(&registered).collect();
    assert!(
        phantom.is_empty(),
        "kinds documented but not registered in passes::KINDS: {phantom:?}"
    );
}

#[test]
fn every_emitted_finding_kind_is_registered() {
    let emitted = lint_json();
    let findings = emitted
        .get("lint")
        .and_then(|l| l.get("findings"))
        .and_then(Json::as_arr)
        .expect("findings array");
    let registered: BTreeSet<(&str, &str)> =
        passes::KINDS.iter().map(|(p, k, _)| (*p, *k)).collect();
    for f in findings {
        let pass = f.get("pass").and_then(Json::as_str).expect("pass");
        let kind = f.get("kind").and_then(Json::as_str).expect("kind");
        assert!(
            registered.contains(&(pass, kind)),
            "finding emitted with unregistered kind {pass}/{kind}"
        );
    }
}
