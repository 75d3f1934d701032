//! Parser round-trip over the real workspace: every `.rs` file the
//! linter scans must parse into a tree that (a) consumed every
//! significant token exactly once, (b) has properly nested spans with
//! monotone siblings, and (c) carries `#[cfg(test)]` masking over from
//! the lexer. The parser is *tolerant* — it never rejects input — so
//! "parses" here means the structural invariants hold, which is what
//! the syntax-aware passes rely on.

use std::path::{Path, PathBuf};

use fdip_analysis::ast::{parse, NodeKind};
use fdip_analysis::collect_files;
use fdip_analysis::lexer::lex;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn every_workspace_source_file_round_trips() {
    let root = workspace_root();
    let files = collect_files(&root).expect("workspace scan");
    assert!(files.len() > 50, "scan found the workspace");
    let mut fns = 0usize;
    let mut loops = 0usize;
    let mut calls = 0usize;
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel)).expect("file reads");
        let tokens = lex(&text);
        let ast = parse(&tokens);
        ast.validate()
            .unwrap_or_else(|e| panic!("{rel}: parser invariant broken: {e}"));
        for id in ast.walk() {
            match &ast.nodes[id].kind {
                NodeKind::Fn { .. } => fns += 1,
                NodeKind::Loop { .. } => loops += 1,
                NodeKind::Call { .. } | NodeKind::MethodCall { .. } => calls += 1,
                _ => {}
            }
        }
    }
    // The tree is structural, not decorative: the workspace has
    // thousands of fns/calls and hundreds of loops, and a parser bug
    // that silently drops them would pass validate() alone.
    assert!(fns > 1_000, "only {fns} fn items recognized");
    assert!(loops > 300, "only {loops} loops recognized");
    assert!(calls > 10_000, "only {calls} calls recognized");
}

#[test]
fn fixture_files_round_trip_too() {
    // The lint fixtures are skipped by collect_files (deliberately
    // violating code) but must still parse cleanly.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut n = 0;
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("fixture reads");
            let ast = parse(&lex(&text));
            ast.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            n += 1;
        }
    }
    assert!(n >= 7, "expected the fixture corpus, found {n} files");
}
