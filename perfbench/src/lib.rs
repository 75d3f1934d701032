#![forbid(unsafe_code)]
//! The repository benchmark: paper-sweep wall time, cycle-loop
//! throughput and per-crate layer costs. See `perfbench/README.md`.

pub mod catalog;
pub mod layers;
pub mod reference;
pub mod unit;
pub mod workload;
