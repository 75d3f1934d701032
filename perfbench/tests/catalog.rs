//! The metric catalog, `BENCHMARK.json`, the README and the command's
//! output name the same metrics with the same units, in both
//! directions.

use std::collections::BTreeMap;
use std::process::Command;

use fdip_perfbench::catalog;
use fdip_telemetry::Json;

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn benchmark_json() -> Json {
    Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn catalog_map(traced: bool) -> BTreeMap<String, String> {
    catalog::for_run(traced)
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_catalog() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), catalog_map(false));
    assert_eq!(listed(&doc, "per_layer"), catalog_map(true));
}

#[test]
fn readme_documents_every_metric_and_only_those() {
    let readme = read("README.md");
    let all: BTreeMap<String, String> = catalog_map(false)
        .into_iter()
        .chain(catalog_map(true))
        .collect();
    // The per-experiment and per-bucket families are documented once,
    // with a placeholder.
    let documented = |name: &str| {
        readme.contains(&format!("`{name}`"))
            || (name.starts_with("harness.")
                && readme.contains(&format!(
                    "`harness.<exp>.{}`",
                    name.rsplit('.').next().unwrap_or("")
                )))
            || (name.starts_with("core.stall.") && readme.contains("`core.stall.<bucket>`"))
    };
    let missing: Vec<&String> = all.keys().filter(|n| !documented(n)).collect();
    assert!(missing.is_empty(), "metrics not in README.md: {missing:?}");

    let prefixes = [
        "program.",
        "core.",
        "bpred.",
        "mem.",
        "prefetch.",
        "exec.",
        "harness.",
        "trace.",
    ];
    let stray: Vec<&str> = readme
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|t| prefixes.iter().any(|p| t.starts_with(p)))
        .filter(|t| !t.contains(['<', '*', ' ']) && !all.contains_key(*t))
        .collect();
    assert!(
        stray.is_empty(),
        "README.md names unknown metrics: {stray:?}"
    );
}

/// Runs the benchmark command and returns the parsed last line.
fn run_command(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_fdip-perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "benchmark exited with {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).expect("last line is JSON")
}

fn assert_prints_catalog(result: &Json, traced: bool) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let printed: BTreeMap<String, String> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(printed, catalog_map(traced));
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    assert_prints_catalog(&run_command("fdp_cell", "0"), false);
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_a_trace() {
    let result = run_command("fdp_cell", "1");
    assert_prints_catalog(&result, true);
    let exec_jobs = result
        .get("metrics")
        .and_then(|m| m.get("exec.jobs"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64);
    assert_eq!(
        exec_jobs,
        Some(396.0),
        "the quick-suite sweep simulates 396 cells"
    );
    let trace = read("out/grid-fdp-cell-seed0.json");
    let trace = Json::parse(&trace).expect("trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("events");
    for span in [
        "Simulator::run",
        "prefetch: EIP-128KB cell",
        "replay: Btb",
        "harness: fig10",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(span)),
            "no {span} span in the trace"
        );
    }
}
