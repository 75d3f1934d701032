//! Non-panicking invariant checks over simulation results.
//!
//! `run_detailed` *asserts* the stall-partition invariant — right for
//! normal runs, where a violation is a simulator bug worth a crash. The
//! fuzz harness needs the opposite: run thousands of generated programs,
//! **collect** violations as data, shrink the offending program, and
//! keep going. This module provides that path: pure checkers over
//! [`SimStats`] / [`OutcomeLedger`] values (so a harness can also
//! re-check deliberately perturbed stats to prove its detection
//! pipeline), plus [`run_workload_checked`], a drop-in for
//! [`run_workload_detailed`](crate::run_workload_detailed) that returns
//! violations instead of panicking.
//!
//! Checked invariants:
//!
//! * **Stall partition** — every cycle lands in exactly one stall
//!   bucket: `sum(stall buckets) == cycles`, over both the measured
//!   interval and the full run.
//! * **Outcome ledger** — every prefetch request is either resolved
//!   (timely / late / useless / dropped) or still in flight:
//!   `resolved + unresolved == requests`, for the FDP and dedicated-
//!   prefetcher sources independently.

use crate::config::CoreConfig;
use crate::dists::SimDists;
use crate::sim::Simulator;
use crate::stats::SimStats;
use std::fmt;

use fdip_program::Program;

/// One violated invariant, as data: which invariant, and the numbers
/// that broke it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InvariantViolation {
    /// Stable invariant identifier (`stall_partition` /
    /// `outcome_ledger`).
    pub invariant: &'static str,
    /// Human-readable mismatch description with the offending values.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Prefetch-request bookkeeping for one fill source: lifetime requests,
/// requests with a classified outcome, and requests still in flight.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct OutcomeLedger {
    /// Prefetch requests issued.
    pub requests: u64,
    /// Requests with a final outcome (timely / late / useless / dropped).
    pub resolved: u64,
    /// Requests still awaiting their first demand touch or eviction.
    pub unresolved: u64,
}

/// Checks `sum(stall buckets) == cycles` over `stats`; `context` names
/// the interval in the violation detail (e.g. `"measured"`, `"full"`).
pub fn check_stall_partition(context: &str, stats: &SimStats) -> Option<InvariantViolation> {
    let sum = stats.stall.sum();
    (sum != stats.cycles).then(|| InvariantViolation {
        invariant: "stall_partition",
        detail: format!(
            "{context}: stall buckets sum to {sum} but {} cycles elapsed",
            stats.cycles
        ),
    })
}

/// Checks `resolved + unresolved == requests` for one prefetch source
/// (`source` is `"fdp"` or `"pf"`).
pub fn check_outcome_ledger(source: &str, ledger: OutcomeLedger) -> Option<InvariantViolation> {
    let accounted = ledger.resolved + ledger.unresolved;
    (accounted != ledger.requests).then(|| InvariantViolation {
        invariant: "outcome_ledger",
        detail: format!(
            "{source}: {} resolved + {} unresolved != {} requests",
            ledger.resolved, ledger.unresolved, ledger.requests
        ),
    })
}

/// Result of a checked run: measured-interval stats and telemetry, plus
/// every invariant violation observed (empty on a healthy run).
#[derive(Clone, Debug)]
pub struct CheckedRun {
    /// Measurement-interval statistics (as from `run_workload_detailed`).
    pub stats: SimStats,
    /// Measurement-interval distribution telemetry.
    pub dists: SimDists,
    /// Violated invariants, in check order.
    pub violations: Vec<InvariantViolation>,
}

/// Like [`run_workload_detailed`](crate::run_workload_detailed) —
/// identical seed, so identical stats — but invariant violations come
/// back as data instead of a panic.
pub fn run_workload_checked(
    cfg: &CoreConfig,
    program: &Program,
    warmup: u64,
    measure: u64,
) -> CheckedRun {
    let mut sim = Simulator::new(cfg.clone(), program, crate::sim::RUN_SEED);
    let (stats, dists) = sim.run_detailed_unchecked(warmup, measure);
    let mut violations = Vec::new();
    violations.extend(check_stall_partition("measured", &stats));
    let full = sim.collect();
    violations.extend(check_stall_partition("full", &full));
    for (source, ledger) in sim.outcome_ledgers() {
        violations.extend(check_outcome_ledger(source, ledger));
    }
    CheckedRun {
        stats,
        dists,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload_detailed;
    use crate::stats::StallReason;
    use fdip_program::workload::{Workload, WorkloadFamily};

    fn tiny() -> Program {
        Workload::family_default("spec_a", WorkloadFamily::Spec, 301).build()
    }

    #[test]
    fn healthy_run_has_no_violations_and_matches_detailed() {
        let p = tiny();
        let cfg = CoreConfig::fdp();
        let checked = run_workload_checked(&cfg, &p, 2_000, 10_000);
        assert!(checked.violations.is_empty(), "{:?}", checked.violations);
        let (stats, dists) = run_workload_detailed(&cfg, &p, 2_000, 10_000);
        assert_eq!(checked.stats, stats);
        assert_eq!(
            checked.dists, dists,
            "checked and detailed runs must be the same run"
        );
    }

    #[test]
    fn perturbed_stall_bucket_is_detected() {
        let p = tiny();
        let mut checked = run_workload_checked(&CoreConfig::fdp(), &p, 2_000, 10_000);
        checked.stats.stall.charge(StallReason::Backend);
        let v = check_stall_partition("measured", &checked.stats).expect("leak detected");
        assert_eq!(v.invariant, "stall_partition");
        assert!(v.detail.contains("measured"), "{}", v.detail);
    }

    #[test]
    fn perturbed_ledger_is_detected() {
        let broken = OutcomeLedger {
            requests: 10,
            resolved: 6,
            unresolved: 3,
        };
        let v = check_outcome_ledger("fdp", broken).expect("drop detected");
        assert_eq!(v.invariant, "outcome_ledger");
        assert!(v.detail.contains("fdp"), "{}", v.detail);
        assert!(check_outcome_ledger(
            "fdp",
            OutcomeLedger {
                requests: 10,
                resolved: 6,
                unresolved: 4,
            }
        )
        .is_none());
    }

    #[test]
    fn violation_displays_invariant_name() {
        let v = InvariantViolation {
            invariant: "stall_partition",
            detail: "x".into(),
        };
        assert!(v.to_string().contains("stall_partition"));
    }
}
