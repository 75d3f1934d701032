//! Bench-support crate: the actual benchmarks live in `benches/` and use
//! [`fdip_harness`] experiment entry points at reduced scale.
