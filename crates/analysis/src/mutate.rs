//! Detection-liveness mutations: one known-bad construct per pass.
//!
//! In the spirit of `fdip-fuzz --inject`, `fdip-lint --inject <pass>`
//! splices the pass's registered bad construct into its target file —
//! in memory only, nothing on disk changes — and the run must then
//! produce a denying finding. A pass that stays silent under its own
//! mutation is dead (scoping bug, parser regression, allowlist
//! swallow), and `scripts/verify.sh` turns that silence into a CI
//! failure. Snippets are top-level items appended at end-of-file, so
//! they land outside any `#[cfg(test)]` region; their needles are
//! chosen to never collide with a real `lint-allow.txt` entry for the
//! target file.

/// A registered bad construct for one pass.
pub struct Mutation {
    /// The pass this mutation must trigger.
    pub pass: &'static str,
    /// Workspace-relative file the snippet is spliced into (chosen to
    /// be inside the pass's scope).
    pub file: &'static str,
    /// Top-level item(s) appended to the file before linting.
    pub snippet: &'static str,
}

/// One mutation per registered pass, in registry order.
pub const MUTATIONS: &[Mutation] = &[
    Mutation {
        pass: "atomics",
        file: "crates/serve/src/scheduler.rs",
        snippet: "fn __lint_mutation_atomics(f: &std::sync::atomic::AtomicBool) {\n    \
                  f.store(true, std::sync::atomic::Ordering::Relaxed);\n}\n",
    },
    Mutation {
        pass: "schema-drift",
        file: "crates/core/src/stats.rs",
        snippet: "fn __lint_mutation_schema() {\n    \
                  let j = fdip_telemetry::Json::obj().with(\"__lint_mutation_undocumented__\", 1u64);\n    \
                  drop(j);\n}\n",
    },
    Mutation {
        pass: "hot-alloc",
        file: "crates/core/src/sim.rs",
        snippet: "fn __lint_mutation_hot_alloc(n: usize) -> usize {\n    \
                  let mut total = 0;\n    \
                  for i in 0..n {\n        let v = vec![i];\n        total += v.len();\n    }\n    \
                  total\n}\n",
    },
    Mutation {
        pass: "lock-discipline",
        file: "crates/serve/src/scheduler.rs",
        snippet: "fn __lint_mutation_lock(m: &std::sync::Mutex<bool>, cv: &std::sync::Condvar) {\n    \
                  let started = m.lock().expect(\"lock\");\n    \
                  let _woken = cv.wait(started);\n}\n",
    },
];

/// The mutation registered for `pass`, if any.
pub fn for_pass(pass: &str) -> Option<&'static Mutation> {
    MUTATIONS.iter().find(|m| m.pass == pass)
}

/// Appends the mutation's snippet to `original` (in memory).
pub fn splice(original: &str, m: &Mutation) -> String {
    let mut out = String::with_capacity(original.len() + m.snippet.len() + 2);
    out.push_str(original);
    if !original.ends_with('\n') {
        out.push('\n');
    }
    out.push('\n');
    out.push_str(m.snippet);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::registry;

    #[test]
    fn every_pass_has_exactly_one_mutation_in_scope() {
        let ids: Vec<&str> = registry().iter().map(|p| p.id).collect();
        assert_eq!(
            MUTATIONS.iter().map(|m| m.pass).collect::<Vec<_>>(),
            ids,
            "mutations must cover the registry in order"
        );
        for m in MUTATIONS {
            assert!(m.snippet.starts_with("fn __lint_mutation"), "{}", m.pass);
            assert!(m.snippet.ends_with('\n'), "{}", m.pass);
        }
    }

    #[test]
    fn splice_appends_after_a_clean_newline() {
        let m = for_pass("atomics").unwrap();
        let out = splice("fn a() {}", m);
        assert!(out.starts_with("fn a() {}\n\n"));
        assert!(out.ends_with(m.snippet));
    }
}
