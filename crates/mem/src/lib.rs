#![warn(missing_docs)]
//! Memory-hierarchy substrate for the FDIP reproduction.
//!
//! Provides the ChampSim-class cache hierarchy the paper's evaluation sits
//! on (§V): split 32KB L1I / 48KB L1D, unified 512KB L2, 2MB LLC, and a
//! fixed-latency DRAM, with MSHR-style merging of in-flight fills,
//! prefetch plumbing (including the paper's "instant but traffic-visible"
//! perfect prefetch), and the per-cache counters the figures need —
//! notably I-cache **tag probes** (Fig. 9) and prefetch usefulness.
//!
//! # Examples
//!
//! ```
//! use fdip_mem::{Hierarchy, HierarchyConfig};
//!
//! let mut mem = Hierarchy::new(HierarchyConfig::default());
//! mem.prefetch_instr_line(7, 0);          // prefetcher fills ahead
//! let ready = mem.fetch_instr_line(7, 400); // demand hits
//! assert_eq!(ready, 401);
//! assert_eq!(mem.l1i_stats().useful_prefetches, 1);
//! ```

mod cache;
mod hierarchy;
mod table;

pub use cache::{Cache, CacheConfig, CacheStats, FillSrc, Lookup, PrefetchOutcomes};
pub use hierarchy::{Hierarchy, HierarchyConfig, TrafficStats};
