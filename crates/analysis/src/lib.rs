#![warn(missing_docs)]
//! `fdip-analysis` — the workspace's own static-analysis harness
//! (`fdip-lint`), in the repo's no-external-deps style.
//!
//! The repository's two hardest contracts are byte-identical results
//! across `FDIP_JOBS` worker counts and the bidirectional
//! `docs/METRICS.md` schema. Both are enforced at runtime by tests —
//! *after* a violation ships. This crate enforces the invariants that
//! back them statically, at `scripts/verify.sh` time, before any
//! simulation runs:
//!
//! | pass | invariant |
//! |---|---|
//! | `atomics` | no `Ordering::Relaxed` on executor/daemon/telemetry atomics without justification |
//! | `schema-drift` | every emitted JSON key is documented in `docs/METRICS.md` (serve/wire code may document keys in `docs/SERVE.md`) |
//! | `hot-alloc` | no heap allocation reachable inside loops in the hot-path modules |
//! | `lock-discipline` | Condvar waits re-checked in loops, no guard across blocking calls, one lock order |
//!
//! What the compiler can check is left to it: `unsafe`, discarded
//! `Result`s and hot-path panics are rustc/clippy lints (the root
//! `Cargo.toml`'s `[workspace.lints]` and each hot-path module's
//! header), and the determinism bans (hash-order collections,
//! wall-clock types, thread ids) are clippy's `disallowed-types` and
//! `disallowed-methods` in the root `clippy.toml`; none is a pass here.
//!
//! The architecture is a hand-rolled lexer ([`lexer`]) — comments,
//! strings, char-vs-lifetime, idents — a tolerant recursive-descent
//! parser over it ([`ast`]) with scope queries ([`scope`]), a registry
//! of passes ([`passes`]), a justified allowlist ([`allow`]),
//! machine-readable diagnostics plus a versioned `lint.json`
//! ([`report`], Document 5 of `docs/METRICS.md`), and a
//! detection-liveness harness ([`mutate`]) that splices known-bad
//! constructs in memory to prove each pass still fires. See
//! `docs/ANALYSIS.md` for the operator's view.

pub mod allow;
pub mod ast;
pub mod lexer;
pub mod mutate;
pub mod passes;
pub mod report;
pub mod scope;

use std::path::Path;

use allow::Allowlist;
use passes::{registry, PassCtx, SourceFile};
use report::{Finding, LintOutcome, Severity};

/// Workspace-relative path of the allowlist file.
pub const ALLOWLIST_PATH: &str = "lint-allow.txt";

/// Top-level directories scanned for `.rs` sources. Directory-walk order
/// is sorted, so two runs over the same tree report identically — the
/// lint tool holds itself to the workspace's determinism bar.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "vendor"];

/// Directory names never descended into: build output and the lint
/// crate's own deliberately-violating test fixtures.
const SKIP_DIRS: &[&str] = &["target", "fixtures"];

/// Collects every scannable `.rs` path under `root`, workspace-relative
/// with `/` separators, sorted.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let unix: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.push(unix.join("/"));
            }
        }
    }
    Ok(())
}

/// Lints every workspace source file under `root`, applying (and
/// auditing) the allowlist. The returned findings are sorted by
/// `(file, line, col, pass)`.
pub fn lint_workspace(root: &Path, allowlist: &mut Allowlist) -> std::io::Result<LintOutcome> {
    lint_workspace_with(root, allowlist, None)
}

/// [`lint_workspace`] with an optional detection-liveness mutation:
/// when `inject` names a pass, that pass's known-bad construct from
/// [`mutate::MUTATIONS`] is spliced (in memory only — nothing on disk
/// changes) into its target file before linting. A healthy pass then
/// produces at least one denying finding; a silently-dead one exits
/// clean, which `scripts/verify.sh` turns into a CI failure.
pub fn lint_workspace_with(
    root: &Path,
    allowlist: &mut Allowlist,
    inject: Option<&str>,
) -> std::io::Result<LintOutcome> {
    let mutation = match inject {
        Some(id) => Some(mutate::for_pass(id).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("no mutation registered for pass `{id}`"),
            )
        })?),
        None => None,
    };
    let metrics_doc = std::fs::read_to_string(root.join("docs/METRICS.md")).unwrap_or_default();
    let serve_doc = std::fs::read_to_string(root.join("docs/SERVE.md")).unwrap_or_default();
    let ctx = PassCtx {
        metrics_doc,
        serve_doc,
    };
    let passes = registry();
    let files = collect_files(root)?;
    let mut findings = Vec::new();
    for rel in &files {
        let mut text = std::fs::read_to_string(root.join(rel))?;
        if let Some(m) = mutation {
            if m.file == rel {
                text = mutate::splice(&text, m);
            }
        }
        let src = SourceFile::new(rel.clone(), &text);
        for pass in &passes {
            (pass.run)(&ctx, &src, &mut findings);
        }
    }
    apply_allowlist(&mut findings, allowlist);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.pass).cmp(&(b.file.as_str(), b.line, b.col, b.pass))
    });
    Ok(LintOutcome {
        findings,
        files_scanned: files.len(),
        pass_ids: passes.iter().map(|p| p.id).collect(),
    })
}

/// Marks findings covered by the allowlist and appends meta-findings for
/// allowlist problems: entries with no justification and entries that
/// matched nothing. Both are errors — a stale entry means the allowlist
/// no longer tracks reality and must be pruned before `--deny` passes.
pub fn apply_allowlist(findings: &mut Vec<Finding>, allowlist: &mut Allowlist) {
    for f in findings.iter_mut() {
        if let Some(entry) = allowlist.claim(f.pass, &f.file, &f.needle) {
            if !entry.justification.is_empty() {
                f.justification = Some(entry.justification.clone());
            }
        }
    }
    for e in &allowlist.entries {
        if e.justification.is_empty() {
            findings.push(Finding {
                pass: "allowlist",
                kind: "missing-justification",
                file: ALLOWLIST_PATH.to_string(),
                line: e.line,
                col: 1,
                severity: Severity::Error,
                needle: e.needle.clone(),
                message: format!(
                    "allowlist entry `{} | {} | {}` has no justification — every \
                     exemption must say why it is sound",
                    e.pass, e.file, e.needle
                ),
                justification: None,
            });
        } else if !e.used {
            findings.push(Finding {
                pass: "allowlist",
                kind: "stale-entry",
                file: ALLOWLIST_PATH.to_string(),
                line: e.line,
                col: 1,
                severity: Severity::Error,
                needle: e.needle.clone(),
                message: format!(
                    "stale allowlist entry `{} | {} | {}`: no finding matches it — \
                     remove it so the allowlist tracks reality",
                    e.pass, e.file, e.needle
                ),
                justification: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlisted_findings_stop_denying_and_entries_are_audited() {
        let mut findings = vec![
            Finding {
                pass: "atomics",
                kind: "relaxed-ordering",
                file: "crates/exec/src/lib.rs".into(),
                line: 5,
                col: 1,
                severity: Severity::Error,
                needle: "Ordering::Relaxed".into(),
                message: "relaxed".into(),
                justification: None,
            },
            Finding {
                pass: "hot-alloc",
                kind: "alloc-in-loop",
                file: "crates/core/src/sim.rs".into(),
                line: 9,
                col: 1,
                severity: Severity::Error,
                needle: "vec!".into(),
                message: "alloc in loop".into(),
                justification: None,
            },
        ];
        let mut al = Allowlist::parse(
            "atomics | crates/exec/src/lib.rs | Ordering::Relaxed | telemetry tally\n\
             hot-alloc | crates/mem/src/cache.rs | Box::new | no longer allocates\n\
             atomics | crates/obs/src/log.rs | Ordering::Relaxed |\n",
        )
        .unwrap();
        apply_allowlist(&mut findings, &mut al);
        // Covered finding carries the justification; uncovered still denies.
        assert_eq!(
            findings[0].justification.as_deref(),
            Some("telemetry tally")
        );
        assert!(!findings[0].denies());
        assert!(findings[1].denies());
        // Stale entries and empty justifications are both hard errors.
        let metas: Vec<(&str, &str, Severity)> = findings[2..]
            .iter()
            .map(|f| (f.needle.as_str(), f.kind, f.severity))
            .collect();
        assert!(metas.contains(&("Box::new", "stale-entry", Severity::Error)));
        assert!(metas.contains(&(
            "Ordering::Relaxed",
            "missing-justification",
            Severity::Error
        )));
    }
}
