//! The benchmark's workloads and the inputs they generate from a seed.
//!
//! Every workload is a closed batch: one unit of work runs to completion
//! before the next starts, and nothing arrives on a schedule.

use std::sync::Arc;

use fdip_prefetch::PrefetcherKind;
use fdip_program::workload::{quick_suite, Workload as ProgramSpec};
use fdip_program::Program;
use fdip_sim::CoreConfig;

/// Seed every simulator and execution engine gets: the harness's own
/// fixed seed, so a benchmark cell simulates exactly what
/// `fdip-run`/`fdip-experiments` would for the same program.
pub const SIM_SEED: u64 = 0xf0cced;

/// Timed warm-up instructions of a sweep cell (the stock default).
pub const SWEEP_WARMUP: u64 = 50_000;
/// Measured instructions of a sweep cell (the stock default).
pub const SWEEP_MEASURE: u64 = 200_000;
/// Timed warm-up instructions of a single-cell workload.
pub const CELL_WARMUP: u64 = 500_000;
/// Measured instructions of a single-cell workload.
pub const CELL_MEASURE: u64 = 2_000_000;

/// Workers of the sweep's pool; the host has two cores.
pub const SWEEP_WORKERS: usize = 2;

/// Generator-seed offset of the sweep's programs: the stock quick suite,
/// the programs `fdip-experiments all` runs.
pub const SWEEP_INPUT: u64 = 0;

/// `server_a` variants a single-cell workload draws its units from:
/// generator-seed offsets `0..CELL_VARIANTS`, the offsets
/// `reference.tsv` covers.
pub const CELL_VARIANTS: u64 = 32;

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All 13 paper experiments over the quick suite, run concurrently
    /// on a 2-worker pool exactly as `fdip-experiments all` runs them.
    PaperSweep,
    /// One `CoreConfig::fdp()` cell on a `server_a` variant, single
    /// thread.
    FdpCell,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperSweep, Workload::FdpCell];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::FdpCell => "fdp_cell",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The input of repetition `index` of a run with `--seed seed`: the
    /// generator-seed offset its programs are built with.
    ///
    /// A sweep always runs the stock suite ([`SWEEP_INPUT`]); its seed
    /// orders the experiments instead (`unit::sweep_order`). A cell run
    /// walks the [`CELL_VARIANTS`] `server_a` variants in an order the
    /// seed picks (start and odd stride), one per repetition, so its
    /// median covers the population instead of hanging on one program's
    /// cost.
    pub fn unit_input(self, seed: u64, index: u64) -> u64 {
        match self {
            Workload::PaperSweep => SWEEP_INPUT,
            Workload::FdpCell => {
                let h = mix(seed);
                let start = h % CELL_VARIANTS;
                let stride = 2 * ((h >> 32) % (CELL_VARIANTS / 2)) + 1;
                (start + index * stride) % CELL_VARIANTS
            }
        }
    }

    /// The programs of one unit with generator-seed offset `input`: the
    /// whole quick suite for the sweep, `server_a` alone for the cells.
    pub fn programs(self, input: u64) -> Vec<ProgramSpec> {
        let mut suite = seeded_suite(input);
        if self != Workload::PaperSweep {
            suite.truncate(1);
        }
        suite
    }

    /// The configuration of the workload's single timed cell; for the
    /// sweep, the headline cell (FDP on `server_a`) the traced run uses
    /// to time the cycle loop.
    pub fn cell_config(self) -> CoreConfig {
        CoreConfig::fdp()
    }

    /// `(warm-up, measured)` instructions of [`Workload::cell_config`]'s
    /// cell.
    pub fn cell_lengths(self) -> (u64, u64) {
        match self {
            Workload::PaperSweep => (SWEEP_WARMUP, SWEEP_MEASURE),
            Workload::FdpCell => (CELL_WARMUP, CELL_MEASURE),
        }
    }
}

/// The cell the traced run takes the prefetch layer's counts from: no
/// FDP, EIP-128KB, on the workload's program and lengths. The headline
/// FDP cell has no prefetcher, so its own prefetch counts are zero.
pub fn eip_config() -> CoreConfig {
    CoreConfig::no_fdp().with_prefetcher(PrefetcherKind::Eip128)
}

/// Reference name of the [`eip_config`] cell on a `fdp_cell` input.
pub const EIP_CELL: &str = "eip_cell";

/// The quick suite (server_a, client_a, spec_a) with its generator seeds
/// offset by `seed`; seed 0 is the stock suite.
pub fn seeded_suite(seed: u64) -> Vec<ProgramSpec> {
    quick_suite()
        .into_iter()
        .map(|mut w| {
            w.params.seed = w.params.seed.wrapping_add(seed.wrapping_mul(1000));
            w
        })
        .collect()
}

/// Builds `workloads` into shareable programs.
pub fn build_all(workloads: &[ProgramSpec]) -> Vec<(String, Arc<Program>)> {
    workloads
        .iter()
        .map(|w| (w.name.clone(), Arc::new(w.build())))
        .collect()
}
