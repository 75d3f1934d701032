//! Lints the actual workspace at HEAD and asserts the `--deny` bar
//! holds: every error/warn finding is covered by a justified
//! `lint-allow.txt` entry and the allowlist itself is sound. This is
//! the same check `scripts/verify.sh` runs via the binary, kept here so
//! `cargo test` alone catches regressions.

use std::path::{Path, PathBuf};

use fdip_analysis::allow::Allowlist;
use fdip_analysis::lexer::{lex, TokKind};
use fdip_analysis::{collect_files, lint_workspace, ALLOWLIST_PATH};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_is_lint_clean_under_deny() {
    let root = workspace_root();
    let allow_text =
        std::fs::read_to_string(root.join(ALLOWLIST_PATH)).expect("lint-allow.txt exists");
    let mut allowlist = Allowlist::parse(&allow_text).expect("allowlist parses");
    let outcome = lint_workspace(&root, &mut allowlist).expect("workspace lints");

    assert!(outcome.files_scanned > 50, "scan found the workspace");
    let denied: Vec<String> = outcome.denied().map(|f| f.render()).collect();
    assert!(
        denied.is_empty(),
        "fdip-lint --deny would fail on HEAD:\n{}",
        denied.join("\n")
    );
}

#[test]
fn all_four_passes_are_registered() {
    let ids: Vec<&str> = fdip_analysis::passes::registry()
        .iter()
        .map(|p| p.id)
        .collect();
    assert_eq!(
        ids,
        vec!["atomics", "schema-drift", "hot-alloc", "lock-discipline"]
    );
}

/// The `key = value` lines of the `[header]` table in a Cargo manifest,
/// or `None` when the manifest has no such table.
fn toml_table(manifest: &str, header: &str) -> Option<Vec<(String, String)>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.find(|l| *l == header)?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect(),
    )
}

fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
    kv.iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

// The unsafe, discarded-Result and hot-path panic checks are compiler
// lints. Each rests on an opt-in that a manifest or file edit can drop
// silently, so the opt-ins themselves are checked here.

#[test]
fn workspace_lints_hold_the_compiler_enforced_checks() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert_eq!(
        toml_table(&manifest, "[workspace.lints.rust]"),
        Some(pairs(&[
            ("unsafe_code", "\"forbid\""),
            ("unused_must_use", "\"deny\"")
        ]))
    );
    assert_eq!(
        toml_table(&manifest, "[workspace.lints.clippy]"),
        Some(pairs(&[("let_underscore_must_use", "\"deny\"")]))
    );
}

#[test]
fn every_workspace_member_opts_into_the_workspace_lints() {
    let root = workspace_root();
    // The root package plus every `crates/*` and `vendor/*` member.
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        let mut members: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .expect("member dir")
            .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect();
        members.sort();
        manifests.extend(members);
    }
    assert_eq!(manifests.len(), 19, "root + 15 crates + 3 vendor stand-ins");
    for path in &manifests {
        let manifest = std::fs::read_to_string(path).expect("member manifest");
        assert_eq!(
            toml_table(&manifest, "[lints]"),
            Some(pairs(&[("workspace", "true")])),
            "{} must opt into [workspace.lints]",
            path.display()
        );
    }
}

#[test]
fn hot_path_files_deny_panicking_calls_outside_tests() {
    const HEADER: &str = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,\
                          clippy::panic,clippy::unreachable,clippy::todo,clippy::unimplemented))]";
    let root = workspace_root();
    for file in fdip_analysis::passes::HOT_PATH_FILES {
        let text = std::fs::read_to_string(root.join(file)).expect("hot-path file");
        let compact: String = text.split_whitespace().collect();
        assert!(
            compact.contains(HEADER),
            "{file} must carry the clippy deny header for panicking calls"
        );
    }
}

// The determinism gate is clippy's `disallowed-types`/`disallowed-methods`
// reading the root `clippy.toml`. It weakens silently if an entry goes,
// if a manifest lowers the lints, or if a source file `allow`s them, so
// each of those is checked here.

/// The `path = "…"` entries of the `key = [ … ]` array in `clippy.toml`.
fn clippy_paths(config: &str, key: &str) -> Vec<String> {
    let mut lines = config.lines().map(str::trim);
    if !lines.any(|l| l.starts_with(key) && l.ends_with('[')) {
        return Vec::new();
    }
    lines
        .take_while(|l| *l != "]")
        .filter_map(|l| l.split_once("path = \"")?.1.split_once('"'))
        .map(|(path, _)| path.to_string())
        .collect()
}

#[test]
fn clippy_toml_bans_every_nondeterminism_source() {
    let root = workspace_root();
    let config = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    assert_eq!(
        clippy_paths(&config, "disallowed-types"),
        [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::collections::hash_map::RandomState",
            "std::time::Instant",
            "std::time::SystemTime",
        ]
    );
    assert_eq!(
        clippy_paths(&config, "disallowed-methods"),
        ["std::thread::current", "std::mem::drop"]
    );
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        !manifest.contains("disallowed_"),
        "[workspace.lints] must leave disallowed_types/disallowed_methods at their default level"
    );
}

#[test]
fn no_source_file_allows_the_determinism_lints() {
    let root = workspace_root();
    let mut offenders = Vec::new();
    for rel in collect_files(&root).expect("workspace scan") {
        let text = std::fs::read_to_string(root.join(&rel)).expect("source reads");
        let compact: String = text.split_whitespace().collect();
        let lowered = ["allow(", "warn("].iter().any(|attr| {
            compact.split(attr).skip(1).any(|rest| {
                let group = rest.split(')').next().unwrap_or_default();
                group.contains("clippy::disallowed_")
            })
        });
        if lowered {
            offenders.push(rel);
        }
    }
    assert!(
        offenders.is_empty(),
        "exempt a site with #[expect(.., reason)], never by lowering the lint: {offenders:?}"
    );
}

#[test]
fn only_the_clock_module_names_the_wall_clock_types() {
    let root = workspace_root();
    let mut readers = Vec::new();
    for rel in collect_files(&root).expect("workspace scan") {
        if !rel.starts_with("crates/") {
            continue;
        }
        let text = std::fs::read_to_string(root.join(&rel)).expect("source reads");
        if lex(&text)
            .iter()
            .any(|t| t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime"))
        {
            readers.push(rel);
        }
    }
    assert_eq!(readers, ["crates/telemetry/src/clock.rs"]);
}

#[test]
fn allowlist_round_trips_and_is_fully_used() {
    let root = workspace_root();
    let allow_text =
        std::fs::read_to_string(root.join(ALLOWLIST_PATH)).expect("lint-allow.txt exists");
    let parsed = Allowlist::parse(&allow_text).expect("allowlist parses");
    let reparsed = Allowlist::parse(&parsed.render()).expect("rendered allowlist parses");
    // Render drops comments, so line numbers shift; the content fields
    // must round-trip exactly.
    let content = |a: &Allowlist| -> Vec<(String, String, String, String)> {
        a.entries
            .iter()
            .map(|e| {
                (
                    e.pass.clone(),
                    e.file.clone(),
                    e.needle.clone(),
                    e.justification.clone(),
                )
            })
            .collect()
    };
    assert_eq!(content(&parsed), content(&reparsed));
    assert!(
        parsed.entries.iter().all(|e| !e.justification.is_empty()),
        "every checked-in entry must carry a justification"
    );

    // Linting marks every entry used — the apply pass reports stale
    // entries as errors, which the clean-tree test above would catch,
    // but assert directly for a clearer failure.
    let mut allowlist = parsed;
    lint_workspace(&root, &mut allowlist).expect("workspace lints");
    let stale: Vec<&str> = allowlist
        .entries
        .iter()
        .filter(|e| !e.used)
        .map(|e| e.needle.as_str())
        .collect();
    assert!(stale.is_empty(), "stale allowlist entries: {stale:?}");
}
