//! Helpers shared by the schema-documentation tests
//! (`tests/{metrics,lint,serve,fuzz}_doc.rs`).

use std::collections::BTreeSet;

use fdip_telemetry::Json;

/// Reads a repository document, e.g. `repo_doc("docs/METRICS.md")`.
pub fn repo_doc(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel} exists: {e}"))
}

/// Every object key in `v` at any depth, except beneath a key named in
/// `opaque` (free-form maps such as an experiment's `metrics`).
pub fn collect_keys(v: &Json, opaque: &[&str]) -> BTreeSet<String> {
    fn walk(v: &Json, opaque: &[&str], keys: &mut BTreeSet<String>) {
        match v {
            Json::Obj(fields) => {
                for (k, child) in fields {
                    keys.insert(k.clone());
                    if !opaque.contains(&k.as_str()) {
                        walk(child, opaque, keys);
                    }
                }
            }
            Json::Arr(items) => {
                for item in items {
                    walk(item, opaque, keys);
                }
            }
            _ => {}
        }
    }
    let mut keys = BTreeSet::new();
    walk(v, opaque, &mut keys);
    keys
}

/// Panics unless each of `keys` appears backticked in at least one of
/// the document texts `docs`.
pub fn assert_documented(keys: &BTreeSet<String>, docs: &[&str], context: &str) {
    let undocumented: Vec<&String> = keys
        .iter()
        .filter(|k| {
            let tagged = format!("`{k}`");
            !docs.iter().any(|doc| doc.contains(&tagged))
        })
        .collect();
    assert!(
        undocumented.is_empty(),
        "{context}: keys emitted but not documented: {undocumented:?} — \
         document them (and bump schema_version on renames)"
    );
}
