//! `fdip-fuzz`: a seeded CFG-level workload fuzzer and
//! differential-invariant harness for the FDIP reproduction.
//!
//! The crate has four layers:
//!
//! - [`gen`] grows random-but-valid control-flow graphs (reducible
//!   loops, layered acyclic call graphs, tunable branch mixes and code
//!   footprints) and emits them as [`fdip_program::Program`] images
//!   through the typed `crates/program` CFG builder.
//! - [`matrix`] runs every generated program under the frontier config
//!   matrix and checks the cross-cutting invariants: stall-cycle
//!   partition, prefetch outcome ledger, retire bound, worker-count
//!   byte-identity, and repeated-run byte-stability.
//! - [`mod@shrink`] minimizes a failing program by iterative function /
//!   block / edge removal while the failure keeps reproducing.
//! - [`case`] / [`report`] persist minimized failures as replayable
//!   JSON cases and summarize runs as the deterministic METRICS.md
//!   Document 7 fuzz report.
//!
//! The `fdip-fuzz` binary fronts all of it: `run` for fuzz campaigns,
//! `replay` for saved cases, `corpus` for regenerating the committed
//! corpus under `tests/corpus/`.

#![warn(missing_docs)]

pub mod case;
pub mod gen;
pub mod matrix;
pub mod report;
pub mod shrink;

pub use case::CaseFile;
pub use gen::{generate, FuzzParams, FuzzProfile};
pub use matrix::{
    config_matrix, fuzz_seed_range, program_fails, run_matrix, CellViolation, Inject,
    MatrixOptions, MatrixOutcome, CHECK_NAMES, FUZZ_FUNC_WARMUP, RETIRE_SLACK,
};
pub use report::{report_to_json, ReportMeta};
pub use shrink::shrink;
