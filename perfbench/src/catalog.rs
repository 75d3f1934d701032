//! The metric catalog: every metric the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! package's `tests/catalog.rs` keeps the two (and `perfbench/README.md`)
//! in step in both directions.

use fdip_harness::experiments;
use fdip_sim::STALL_REASON_NAMES;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with a fixed name, printed by traced runs
/// (`--trace 1`); [`per_layer`] adds the per-experiment and per-stall-
/// bucket families.
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("program.build_s", "s"),
    ("program.engine_ns_per_instr", "ns"),
    ("core.new_s", "s"),
    ("core.func_warmup_s", "s"),
    ("core.static_meta_s", "s"),
    ("core.setup_share", "ratio"),
    ("core.run_s", "s"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_instr", "ns"),
    ("core.cycles", "count"),
    ("core.retired", "count"),
    ("core.ftq.occupancy_avg", "entries"),
    ("core.ftq.fdp_accuracy", "ratio"),
    ("core.cost_model_residual", "ratio"),
    ("bpred.btb_ns_per_op", "ns"),
    ("bpred.tage_ns_per_op", "ns"),
    ("bpred.btb.lookups", "count"),
    ("bpred.btb.hit_rate", "ratio"),
    ("bpred.mispredicts", "count"),
    ("bpred.pfc_restreams", "count"),
    ("mem.fetch_ns_per_op", "ns"),
    ("mem.l1i.accesses", "count"),
    ("mem.l1i.misses", "count"),
    ("mem.l1i.tag_probes", "count"),
    ("mem.l2.misses", "count"),
    ("mem.dram_accesses", "count"),
    ("prefetch.ns_per_access", "ns"),
    ("prefetch.candidates", "count"),
    ("prefetch.issued", "count"),
    ("prefetch.useful", "count"),
    ("prefetch.accuracy", "ratio"),
    ("prefetch.coverage", "ratio"),
    ("exec.jobs", "count"),
    ("exec.busy_fraction", "ratio"),
    ("exec.idle_s", "s"),
    ("exec.steals", "count"),
    ("exec.queue_depth_max", "count"),
    ("trace.overhead_s", "s"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for bucket in STALL_REASON_NAMES {
        out.push((format!("core.stall.{bucket}"), "count"));
    }
    for e in experiments::all() {
        out.push((format!("harness.{}.s", e.id), "s"));
        out.push((format!("harness.{}.jobs", e.id), "count"));
    }
    out
}

/// The metrics a run prints: end-to-end when untraced, per-layer when
/// traced.
pub fn for_run(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect()
    }
}
