//! Machine-readable suite results: the `results.json` emitted by
//! `fdip-run --json` and consumed by regression tooling and plotting.
//!
//! The schema is versioned ([`fdip_telemetry::SCHEMA_VERSION`]) and
//! documented field-by-field in `docs/METRICS.md`; a root-level test
//! walks every emitted field name against that document so the two
//! cannot drift apart silently.

use std::path::Path;

use crate::runner::geomean;
use fdip_sim::{SimDists, SimStats};
use fdip_telemetry::{Json, RunManifest, ToJson, SCHEMA_VERSION};

/// One workload's measured results: scalar counters, derived metrics,
/// and distribution telemetry.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name (e.g. `server_a`).
    pub name: String,
    /// Workload family (`server`/`client`/`spec`).
    pub family: String,
    /// Measurement-interval counters.
    pub stats: SimStats,
    /// Measurement-interval distributions.
    pub dists: SimDists,
}

impl ToJson for WorkloadResult {
    /// Serializes as `{name, family, counters, derived, histograms,
    /// sampled_ipc}`.
    fn to_json(&self) -> Json {
        let stats = self.stats.to_json();
        Json::obj()
            .with("name", self.name.as_str())
            .with("family", self.family.as_str())
            .with(
                "counters",
                stats.get("counters").cloned().unwrap_or(Json::Null),
            )
            .with(
                "derived",
                stats.get("derived").cloned().unwrap_or(Json::Null),
            )
            .with(
                "histograms",
                Json::obj()
                    .with("ftq_occupancy", self.dists.ftq_occupancy.to_json())
                    .with(
                        "prefetch_lead_time",
                        self.dists.prefetch_lead_time.to_json(),
                    )
                    .with("decode_queue_fill", self.dists.decode_queue_fill.to_json()),
            )
            .with("sampled_ipc", self.dists.sampled_ipc.clone())
    }
}

/// A full suite run: manifest plus per-workload results, aggregated the
/// way the paper does (geometric-mean IPC, arithmetic-mean rates).
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Provenance of this run.
    pub manifest: RunManifest,
    /// Per-workload results, in suite order.
    pub workloads: Vec<WorkloadResult>,
}

impl SuiteResult {
    /// Geometric-mean IPC across the suite.
    pub fn geomean_ipc(&self) -> f64 {
        let ipcs: Vec<f64> = self.workloads.iter().map(|w| w.stats.ipc()).collect();
        geomean(&ipcs)
    }

    fn mean_of(&self, f: impl Fn(&SimStats) -> f64) -> f64 {
        if self.workloads.is_empty() {
            return 0.0;
        }
        self.workloads.iter().map(|w| f(&w.stats)).sum::<f64>() / self.workloads.len() as f64
    }

    /// The `aggregate` section of the schema.
    pub fn aggregate_json(&self) -> Json {
        Json::obj()
            .with("geomean_ipc", self.geomean_ipc())
            .with("mean_branch_mpki", self.mean_of(SimStats::branch_mpki))
            .with("mean_l1i_mpki", self.mean_of(SimStats::l1i_mpki))
            .with(
                "mean_starvation_pki",
                self.mean_of(SimStats::starvation_pki),
            )
            .with(
                "mean_icache_tag_pki",
                self.mean_of(SimStats::icache_tag_pki),
            )
            .with(
                "mean_exposed_fraction",
                self.mean_of(SimStats::exposed_fraction),
            )
    }

    /// Writes the pretty-printed JSON document to `path` atomically
    /// ([`fdip_telemetry::write_atomic`]).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write_json_file(&self, path: &Path) -> std::io::Result<()> {
        fdip_telemetry::write_atomic(path, self.to_json().to_string_pretty().as_bytes())
    }
}

impl ToJson for SuiteResult {
    /// Serializes as `{schema_version, manifest, workloads, aggregate}` —
    /// the top level of the documented schema.
    fn to_json(&self) -> Json {
        Json::obj()
            .with("schema_version", SCHEMA_VERSION)
            .with("manifest", self.manifest.to_json())
            .with(
                "workloads",
                Json::Arr(self.workloads.iter().map(ToJson::to_json).collect()),
            )
            .with("aggregate", self.aggregate_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_workload(name: &str, ipc_cycles: (u64, u64)) -> WorkloadResult {
        let (retired, cycles) = ipc_cycles;
        let mut dists = SimDists::new();
        dists.ftq_occupancy.record(12);
        dists.prefetch_lead_time.record(40);
        dists.decode_queue_fill.record(3);
        dists.sampled_ipc.push(retired as f64 / cycles as f64);
        WorkloadResult {
            name: name.to_string(),
            family: "server".to_string(),
            stats: SimStats {
                cycles,
                retired,
                ..SimStats::default()
            },
            dists,
        }
    }

    #[test]
    fn suite_json_has_the_documented_top_level() {
        let suite = SuiteResult {
            manifest: RunManifest::new("test", "quick", 1000, 4000, 2),
            workloads: vec![
                sample_workload("a", (4000, 2000)),
                sample_workload("b", (4000, 4000)),
            ],
        };
        let j = suite.to_json();
        assert_eq!(
            j.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert!(j.get("manifest").is_some());
        assert_eq!(
            j.get("workloads").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        // geomean(2.0, 1.0) = sqrt(2).
        let agg = j.get("aggregate").unwrap();
        let g = agg.get("geomean_ipc").and_then(Json::as_f64).unwrap();
        assert!((g - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn workload_json_nests_counters_derived_histograms() {
        let w = sample_workload("a", (2000, 1000));
        let j = w.to_json();
        assert_eq!(j.get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("retired"))
                .and_then(Json::as_u64),
            Some(2000)
        );
        let ipc = j
            .get("derived")
            .and_then(|d| d.get("ipc"))
            .and_then(Json::as_f64);
        assert_eq!(ipc, Some(2.0));
        let h = j.get("histograms").unwrap();
        for key in ["ftq_occupancy", "prefetch_lead_time", "decode_queue_fill"] {
            assert_eq!(
                h.get(key)
                    .and_then(|v| v.get("count"))
                    .and_then(Json::as_u64),
                Some(1),
                "histogram {key}"
            );
        }
    }

    #[test]
    fn empty_suite_aggregates_to_zero() {
        let suite = SuiteResult {
            manifest: RunManifest::new("test", "quick", 0, 0, 0),
            workloads: Vec::new(),
        };
        assert_eq!(suite.geomean_ipc(), 0.0);
        let agg = suite.aggregate_json();
        assert_eq!(
            agg.get("mean_branch_mpki").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn suite_json_round_trips_through_parser() {
        let suite = SuiteResult {
            manifest: RunManifest::new("test", "quick", 1000, 4000, 1),
            workloads: vec![sample_workload("a", (2000, 1000))],
        };
        let text = suite.to_json().to_string_pretty();
        let round = Json::parse(&text).unwrap();
        assert_eq!(round, suite.to_json());
    }
}
