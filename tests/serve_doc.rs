//! Bidirectional enforcement of `docs/SERVE.md`, in the style of
//! `tests/metrics_doc.rs`:
//!
//! * **emitted → documented**: every key that actually crosses the wire
//!   (grid request, grid response, every GET endpoint, error bodies) and
//!   every key in an on-disk cache entry must be documented — in
//!   `docs/SERVE.md`, or in `docs/METRICS.md` for the embedded
//!   stats/dists/histogram/Document-6 blocks specified there.
//! * **documented → real**: the endpoints, error codes, and
//!   content-address algorithms the doc spells out must behave exactly
//!   as written — the FNV-1a constants and canonical strings are
//!   re-implemented here from the doc's text and compared against the
//!   production codec.

use std::path::PathBuf;

mod common;

use fdip_harness::remote::{
    cell_key, config_hash, config_to_json, fnv1a64, grid_request, http_json_request, workload_hash,
    GRID_PATH, HEALTHZ_PATH, LOGS_PATH, METRICS_PATH, PROGRESS_PATH, SHUTDOWN_PATH, TELEMETRY_PATH,
};
use fdip_serve::{Server, ServerConfig};
use fdip_sim::CoreConfig;
use fdip_telemetry::Json;

fn serve_doc() -> String {
    common::repo_doc("docs/SERVE.md")
}

fn assert_documented(emitted: &Json, context: &str) {
    common::assert_documented(
        &common::collect_keys(emitted, &[]),
        &[&serve_doc(), &common::repo_doc("docs/METRICS.md")],
        &format!("{context} (docs/SERVE.md or docs/METRICS.md)"),
    );
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdip-serve-doc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn test_server(tag: &str) -> (Server, String, PathBuf) {
    let dir = state_dir(tag);
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(2);
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    (server, addr, dir)
}

#[test]
fn every_wire_key_is_documented() {
    let (server, addr, dir) = test_server("wire");
    let request = grid_request("serve-doc-test", "quick", 500, 2_000, &[CoreConfig::fdp()]);
    assert_documented(&request, "grid request");

    let (status, response) =
        http_json_request(&addr, "POST", GRID_PATH, Some(&request)).expect("grid served");
    assert_eq!(status, 200, "{response:?}");
    assert_documented(&response, "grid response");
    // The documented summary must reflect a fresh, fully simulated grid.
    let summary = response.get("summary").expect("summary");
    assert_eq!(summary.get("total_cells").and_then(Json::as_u64), Some(3));
    assert_eq!(summary.get("simulated").and_then(Json::as_u64), Some(3));
    assert_eq!(summary.get("cache_hits").and_then(Json::as_u64), Some(0));
    assert_eq!(summary.get("coalesced").and_then(Json::as_u64), Some(0));

    // Every JSON GET endpoint, same rule (`/v1/metrics` is text, not
    // JSON — its vocabulary is enforced by tests/obs_doc.rs instead).
    for (path, context) in [
        (HEALTHZ_PATH, "healthz"),
        (PROGRESS_PATH, "progress"),
        (TELEMETRY_PATH, "telemetry"),
        (LOGS_PATH, "logs"),
    ] {
        let (status, body) = http_json_request(&addr, "GET", path, None).expect(context);
        assert_eq!(status, 200, "{context}");
        assert_documented(&body, context);
    }

    // On-disk cache entries are an on-disk format: documented too.
    let cache_dir = dir.join("cache");
    let entry_path = std::fs::read_dir(&cache_dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("at least one cache entry");
    let entry = Json::parse(&std::fs::read_to_string(entry_path).unwrap()).expect("entry parses");
    assert_documented(&entry, "cache entry");

    // Shutdown response, and the drain it documents.
    let (status, body) = http_json_request(&addr, "POST", SHUTDOWN_PATH, None).expect("shutdown");
    assert_eq!(status, 200);
    assert_documented(&body, "shutdown response");
    assert_eq!(body.get("draining").and_then(Json::as_bool), Some(true));
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn documented_error_codes_behave_as_written() {
    let (server, addr, dir) = test_server("errors");

    // 404 not_found on an unknown path.
    let (status, body) = http_json_request(&addr, "GET", "/v1/nope", None).unwrap();
    assert_eq!(status, 404);
    assert_eq!(error_code(&body), "not_found");
    assert_documented(&body, "error body");

    // 400 bad_request on a structurally invalid grid.
    let (status, body) = http_json_request(&addr, "POST", GRID_PATH, Some(&Json::obj())).unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_code(&body), "bad_request");

    // 400 unsupported_suite: the daemon only rebuilds named suites.
    let request = grid_request("t", "custom", 500, 2_000, &[CoreConfig::fdp()]);
    let (status, body) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_code(&body), "unsupported_suite");

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_bodies_get_413_as_documented() {
    let dir = state_dir("toolarge");
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = Some(1);
    config.max_body_bytes = 64;
    let server = Server::spawn(config).expect("server spawns");
    let addr = server.addr().to_string();
    let request = grid_request("t", "quick", 500, 2_000, &[CoreConfig::fdp()]);
    let (status, body) = http_json_request(&addr, "POST", GRID_PATH, Some(&request)).unwrap();
    assert_eq!(status, 413);
    assert_eq!(error_code(&body), "too_large");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

fn error_code(body: &Json) -> &str {
    body.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error.code")
}

#[test]
fn documented_hash_algorithm_matches_the_codec() {
    // FNV-1a 64, re-implemented from the doc's stated constants.
    fn doc_fnv(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
    for sample in [&b""[..], b"a", b"fdip", b"\x00\xff"] {
        assert_eq!(fnv1a64(sample), doc_fnv(sample));
    }

    // Config hash: FNV-1a over the canonical object's compact form.
    let cfg = CoreConfig::fdp();
    assert_eq!(
        config_hash(&cfg),
        doc_fnv(config_to_json(&cfg).to_string().as_bytes())
    );

    // Cell key: the documented canonical string, 16 lowercase hex.
    let w = &fdip_program::workload::quick_suite()[0];
    let (ch, wh, seed) = (config_hash(&cfg), workload_hash(w), w.params.seed);
    let canon =
        format!("fdip-cell-v1|cfg={ch:016x}|wl={wh:016x}|seed={seed}|warmup=500|measure=2000");
    assert_eq!(
        cell_key(ch, wh, seed, 500, 2_000),
        format!("{:016x}", doc_fnv(canon.as_bytes()))
    );

    // Workload hash: FNV-1a over the documented canonical encoding of
    // the generator parameters.
    let p = &w.params;
    let bits = |x: f64| format!("{:016x}", x.to_bits());
    let canon = format!(
        "fdip-workload-v1|seed={}|num_funcs={}|blocks_per_func={}-{}|instrs_per_block={}-{}\
         |call_levels={}|cond_fraction={}|call_fraction={}|jump_fraction={}\
         |indirect_jump_fraction={}|indirect_call_fraction={}|strongly_biased_fraction={}\
         |loop_fraction={}|pattern_fraction={}|loop_trip={}-{}|mem_fraction={}\
         |dispatcher_fanout={}",
        p.seed,
        p.num_funcs,
        p.blocks_per_func.0,
        p.blocks_per_func.1,
        p.instrs_per_block.0,
        p.instrs_per_block.1,
        p.call_levels,
        bits(p.cond_fraction),
        bits(p.call_fraction),
        bits(p.jump_fraction),
        bits(p.indirect_jump_fraction),
        bits(p.indirect_call_fraction),
        bits(p.strongly_biased_fraction),
        bits(p.loop_fraction),
        bits(p.pattern_fraction),
        p.loop_trip.0,
        p.loop_trip.1,
        bits(p.mem_fraction),
        p.dispatcher_fanout,
    );
    assert_eq!(wh, doc_fnv(canon.as_bytes()));
}

#[test]
fn documented_paths_and_codes_appear_in_the_doc() {
    // The reverse textual direction: the doc must name every endpoint
    // constant and every error code the daemon can actually produce.
    let doc = serve_doc();
    for path in [
        GRID_PATH,
        HEALTHZ_PATH,
        PROGRESS_PATH,
        TELEMETRY_PATH,
        METRICS_PATH,
        LOGS_PATH,
        SHUTDOWN_PATH,
    ] {
        assert!(doc.contains(path), "docs/SERVE.md does not mention {path}");
    }
    for code in [
        "bad_request",
        "unsupported_suite",
        "not_found",
        "timeout",
        "too_large",
        "busy",
        "internal",
        "draining",
        "interrupted",
    ] {
        assert!(
            doc.contains(&format!("`{code}`")),
            "docs/SERVE.md does not document error code {code}"
        );
    }
    // And the grid-id canonical prefix is pinned verbatim.
    assert!(doc.contains("fdip-grid-v1|suite="));
    assert!(doc.contains("fdip-cell-v1|cfg="));
}
