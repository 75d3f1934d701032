//! The pass registry: four named passes over lexed + parsed sources.
//!
//! Each pass is a pure function from one source file (token stream,
//! syntax tree, and scope tables) to findings; scoping (which files a
//! pass examines) lives in the pass itself so the driver stays a dumb
//! loop. All passes skip `#[cfg(test)]` / `#[test]` regions.
//!
//! The token-level passes (`atomics`, `schema-drift`)
//! scan the stream directly; the syntax-aware passes (`hot-alloc`,
//! `lock-discipline`) walk the [`crate::ast`] tree with
//! [`crate::scope::ScopeInfo`] answering "inside a loop?" /
//! "which fn?" / "guard live?" questions.
//!
//! Checks the compiler can make are not passes here: `unsafe`, hot-path
//! panics and discarded `Result`s are rustc/clippy lints declared in the
//! root `Cargo.toml` and in each [`HOT_PATH_FILES`] module's header, and
//! the determinism bans (hash-order collections, wall-clock types,
//! thread ids, `drop` of a must-use value) are clippy's
//! `disallowed-types`/`disallowed-methods` in the root `clippy.toml`.

mod atomics;
mod hot_alloc;
mod lock_discipline;
mod schema_drift;

use crate::ast::{self, Ast};
use crate::lexer::{self, TokKind, Token};
use crate::report::{Finding, Severity};
use crate::scope::ScopeInfo;

/// Shared context passed to every pass.
pub struct PassCtx {
    /// Contents of `docs/METRICS.md` (empty when missing, which makes
    /// every emitted key a finding — the doc is part of the contract).
    pub metrics_doc: String,
    /// Contents of `docs/SERVE.md` — the wire-protocol contract. Keys
    /// emitted by the serve daemon and its client codec may be
    /// documented here instead of in `docs/METRICS.md`.
    pub serve_doc: String,
}

/// One source file: lexed, parsed, and scope-analyzed.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Token stream from [`crate::lexer::lex`].
    pub tokens: Vec<Token>,
    /// Syntax tree from [`crate::ast::parse`].
    pub ast: Ast,
    /// Scope tables over `ast`.
    pub scope: ScopeInfo,
}

impl SourceFile {
    /// Lexes, parses, and scope-analyzes `text` in one step.
    pub fn new(path: impl Into<String>, text: &str) -> SourceFile {
        let tokens = lexer::lex(text);
        let ast = ast::parse(&tokens);
        let scope = ScopeInfo::build(&ast);
        SourceFile {
            path: path.into(),
            tokens,
            ast,
            scope,
        }
    }
}

/// A registered pass.
pub struct Pass {
    /// Stable id used in diagnostics and allowlist entries.
    pub id: &'static str,
    /// One-line description for `--list-passes`.
    pub description: &'static str,
    /// The pass body.
    pub run: fn(&PassCtx, &SourceFile, &mut Vec<Finding>),
}

/// All passes, in fixed registry order.
pub fn registry() -> Vec<Pass> {
    vec![
        Pass {
            id: "atomics",
            description: "flags Ordering::Relaxed on executor/daemon/telemetry atomics \
                          (cross-thread hand-off needs Acquire/Release)",
            run: atomics::run,
        },
        Pass {
            id: "schema-drift",
            description: "cross-checks emitted JSON keys against docs/METRICS.md",
            run: schema_drift::run,
        },
        Pass {
            id: "hot-alloc",
            description: "flags heap allocation reachable inside loops in the hot-path \
                          modules (the allocation-free steady-state burn-down list)",
            run: hot_alloc::run,
        },
        Pass {
            id: "lock-discipline",
            description: "checks Condvar waits are loop-re-checked, no lock guard is held \
                          across blocking calls, and mutex acquisition order is consistent",
            run: lock_discipline::run,
        },
    ]
}

/// Every diagnostic kind a pass can emit, as `(pass, kind,
/// description)`. This is the machine-readable half of the
/// diagnostic-kind table in `docs/METRICS.md` (Document 5);
/// `tests/lint_doc.rs` keeps the two in sync.
pub const KINDS: &[(&str, &str, &str)] = &[
    (
        "atomics",
        "relaxed-ordering",
        "Ordering::Relaxed on a cross-thread atomic",
    ),
    (
        "schema-drift",
        "undocumented-key",
        "emitted JSON key absent from the schema docs",
    ),
    (
        "hot-alloc",
        "alloc-in-loop",
        "allocating construct executed inside a loop",
    ),
    (
        "hot-alloc",
        "alloc-in-hot-fn",
        "allocating construct in a fn called from inside a loop",
    ),
    (
        "lock-discipline",
        "wait-outside-loop",
        "Condvar wait whose predicate is not re-checked in a loop",
    ),
    (
        "lock-discipline",
        "guard-across-blocking-call",
        "lock guard live across a blocking channel/thread/simulation call",
    ),
    (
        "lock-discipline",
        "lock-order-inversion",
        "two mutexes acquired in both orders within one file",
    ),
    (
        "allowlist",
        "missing-justification",
        "allowlist entry with an empty justification column",
    ),
    (
        "allowlist",
        "stale-entry",
        "allowlist entry no claimed finding matches",
    ),
];

/// Crates with cross-thread coordination: the `atomics` and
/// `lock-discipline` passes cover the executor, the sweep daemon, and
/// the observability plane's lock-free handles.
pub(crate) const SYNC_CRATES: &[&str] =
    &["crates/exec/src/", "crates/serve/src/", "crates/obs/src/"];

/// Files allowed to document their emitted keys in `docs/SERVE.md`
/// (the wire-protocol spec) instead of `docs/METRICS.md`: the serve
/// daemon and the client-side codec in the harness.
pub(crate) fn uses_serve_doc(path: &str) -> bool {
    path.starts_with("crates/serve/src/") || path == "crates/harness/src/remote.rs"
}

/// Hot-path modules where a panic or a heap allocation costs
/// correctness or throughput on every simulated cycle. `hot-alloc`
/// covers them (and all of `crates/bpred/src/`); each one's header
/// denies clippy's panicking-call lints outside tests, which
/// `tests/workspace_clean.rs` checks.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/sim.rs",
    "crates/core/src/meta.rs",
    "crates/core/src/probe.rs",
    "crates/mem/src/cache.rs",
    "crates/mem/src/table.rs",
];

/// Indices of non-comment tokens, the scanning view every pass uses.
pub(crate) fn significant(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokKind::Comment)
        .map(|(i, _)| i)
        .collect()
}

/// Does `sig[s..]` start with the path `first::second`?
pub(crate) fn path_pair(
    tokens: &[Token],
    sig: &[usize],
    s: usize,
    first: &str,
    second: &str,
) -> bool {
    tokens[sig[s]].is_ident(first)
        && s + 3 < sig.len()
        && tokens[sig[s + 1]].is_punct(':')
        && tokens[sig[s + 2]].is_punct(':')
        && tokens[sig[s + 3]].is_ident(second)
}

pub(crate) fn finding(
    pass: &'static str,
    kind: &'static str,
    file: &str,
    t: &Token,
    severity: Severity,
    needle: &str,
    message: String,
) -> Finding {
    Finding {
        pass,
        kind,
        file: file.to_string(),
        line: t.line,
        col: t.col,
        severity,
        needle: needle.to_string(),
        message,
        justification: None,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    pub(crate) fn run_pass(id: &str, path: &str, code: &str, doc: &str) -> Vec<Finding> {
        run_pass_with_serve(id, path, code, doc, "")
    }

    pub(crate) fn run_pass_with_serve(
        id: &str,
        path: &str,
        code: &str,
        doc: &str,
        serve_doc: &str,
    ) -> Vec<Finding> {
        let ctx = PassCtx {
            metrics_doc: doc.to_string(),
            serve_doc: serve_doc.to_string(),
        };
        let src = SourceFile::new(path, code);
        src.ast.validate().expect("fixture parses cleanly");
        let pass = registry()
            .into_iter()
            .find(|p| p.id == id)
            .expect("pass registered");
        let mut out = Vec::new();
        (pass.run)(&ctx, &src, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_the_four_documented_passes() {
        let ids: Vec<&str> = registry().iter().map(|p| p.id).collect();
        assert_eq!(
            ids,
            ["atomics", "schema-drift", "hot-alloc", "lock-discipline"]
        );
    }

    #[test]
    fn every_kind_belongs_to_a_registered_pass_or_the_allowlist() {
        let ids: Vec<&str> = registry().iter().map(|p| p.id).collect();
        for (pass, kind, desc) in KINDS {
            assert!(
                ids.contains(pass) || *pass == "allowlist",
                "kind {kind} references unknown pass {pass}"
            );
            assert!(!desc.is_empty(), "kind {kind} needs a description");
        }
        // Kinds are unique per (pass, kind).
        let mut seen = std::collections::BTreeSet::new();
        for (pass, kind, _) in KINDS {
            assert!(seen.insert((pass, kind)), "duplicate kind {pass}/{kind}");
        }
    }
}
