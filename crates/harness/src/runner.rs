//! Workload-suite runner: builds the synthetic programs once, then runs
//! `CoreConfig`s over every workload on the shared bounded job pool
//! (`fdip-exec`) and aggregates the way the paper does (geometric-mean
//! IPC speedups, arithmetic-mean MPKI).
//!
//! Every simulation goes through [`Runner::run_configs_detailed`]: the
//! whole config × workload grid is flattened into **one** batch so
//! distinct configs overlap on the pool, and results are collected into
//! indexed slots — `cfgs` order, never completion order — which keeps
//! sweeps deterministic for any `FDIP_JOBS` setting.
//!
//! # Each distinct cell is simulated once
//!
//! A cell is one `(CoreConfig, workload)` simulation. Its identity
//! within a `Runner` is the config's canonical wire form
//! ([`config_to_json`], which names every config field, so two configs
//! share a key only if they simulate identically) plus the workload's
//! index; the programs and run lengths are fixed when the `Runner` is
//! built. Results live in a [`CellTable`] for the `Runner`'s lifetime,
//! so a cell repeated within one sweep, or across the sweeps of
//! experiments running concurrently on one `Runner`, is simulated once.
//!
//! A sweep claims every cell nobody owns yet under one lock, runs only
//! its own claims as one pool batch, and waits on cells other sweeps own
//! only after that batch has finished and resolved each of its cells.
//! Every cell still running therefore belongs to a sweep that is driving
//! its batch, so sweeps cannot deadlock each other. A cell that panics
//! is marked failed: its owner re-raises the panic, every sweep waiting
//! on it panics too, and a later request simulates it again.
//!
//! The remote path ([`Runner::with_server`]) bypasses the table; the
//! daemon coalesces on its own.
//!
//! # Each workload is prepared once
//!
//! A cell's set-up splits into a config-dependent part (predictors,
//! caches, the BTB) and a part that depends only on the workload and
//! `func_warmup`: the decode of the image and the committed branch
//! stream of the functional warm-up. Each workload keeps the latter, for
//! the default `func_warmup` every sweep cell uses, in a
//! [`PreparedProgram`] beside its program, for the `Runner`'s lifetime
//! (a cell with another `func_warmup` records a one-off copy). Nothing
//! is prepared when the `Runner` is built: the first cell of a workload
//! to reach a pool worker records it inside the sweep, cells that
//! arrive meanwhile wait for that one recording, and every cell replays
//! the stream into its own BTB, so results equal a one-off
//! `Simulator::new`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::remote::{config_to_json, RemoteClient};
use crate::suite::{SuiteResult, WorkloadResult};
use fdip_exec::{CellTable, Claim, Pool};
use fdip_program::workload::{self, Workload};
use fdip_program::Program;
use fdip_sim::{run_workload_job, CoreConfig, PreparedProgram, SimDists, SimStats};
use fdip_telemetry::clock::Timer;
use fdip_telemetry::{RunManifest, ToJson};

/// Geometric mean of a slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One suite entry: a built program, with the warm-up input its cells
/// share, plus the labels it reports under.
struct SuiteEntry {
    name: String,
    family: String,
    program: Arc<PreparedProgram>,
}

/// A cell's identity within one [`Runner`]: the config's canonical wire
/// form and the workload's suite index.
type CellKey = (Arc<str>, usize);

/// One simulated cell, shared by the table and every sweep that asks.
type CellResult = Arc<(SimStats, SimDists)>;

/// The evaluation driver: a built workload suite plus run lengths.
pub struct Runner {
    workloads: Vec<SuiteEntry>,
    warmup: u64,
    measure: u64,
    suite_name: String,
    /// Private pool override; `None` uses the process-wide
    /// [`fdip_exec::global`] pool (sized by `FDIP_JOBS`/`--jobs`).
    pool: Option<Arc<Pool>>,
    /// Optional `fdip-serve` daemon; grids for the named `quick`/`full`
    /// suites are routed there instead of the local pool.
    remote: Option<RemoteClient>,
    /// Set after the first failed remote grid: later grids go straight
    /// to local execution instead of re-trying a dead daemon.
    remote_failed: AtomicBool,
    /// Every cell this runner has simulated or is simulating.
    cells: Arc<CellTable<CellKey, CellResult>>,
}

impl Runner {
    /// Builds a runner over the given workloads.
    pub fn new(workloads: Vec<Workload>, warmup: u64, measure: u64) -> Self {
        let built = workloads
            .into_iter()
            .map(|w| SuiteEntry {
                name: w.name.clone(),
                family: w.family.to_string(),
                program: Arc::new(PreparedProgram::new(Arc::new(w.build()))),
            })
            .collect();
        Runner::from_entries(built, warmup, measure)
    }

    /// Builds a runner over already-built programs (the fuzz harness'
    /// entry point: its programs come from a generator, not the named
    /// workload families). Results report under family `generated`.
    pub fn from_programs(programs: Vec<(String, Arc<Program>)>, warmup: u64, measure: u64) -> Self {
        let entries = programs
            .into_iter()
            .map(|(name, program)| SuiteEntry {
                name,
                family: "generated".to_string(),
                program: Arc::new(PreparedProgram::new(program)),
            })
            .collect();
        Runner::from_entries(entries, warmup, measure).with_suite_name("generated")
    }

    fn from_entries(workloads: Vec<SuiteEntry>, warmup: u64, measure: u64) -> Self {
        Runner {
            workloads,
            warmup,
            measure,
            suite_name: "custom".to_string(),
            pool: None,
            remote: None,
            remote_failed: AtomicBool::new(false),
            cells: Arc::new(CellTable::new()),
        }
    }

    /// Names the suite (used in emitted run manifests).
    #[must_use]
    pub fn with_suite_name(mut self, name: &str) -> Self {
        self.suite_name = name.to_string();
        self
    }

    /// Routes this runner's simulations through a private pool instead of
    /// the global one (tests pin the worker count this way).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The pool executing this runner's simulation jobs.
    pub fn pool(&self) -> &Pool {
        self.pool.as_deref().unwrap_or_else(|| fdip_exec::global())
    }

    /// Routes grids for the named `quick`/`full` suites to the
    /// `fdip-serve` daemon at `addr`, identifying as `client` in its
    /// per-client telemetry. Custom suites (which the daemon cannot
    /// rebuild by name) and any daemon failure fall back to local
    /// execution; results are byte-identical either way, because the
    /// daemon runs the same deterministic simulation and its wire codec
    /// round-trips every counter and float exactly.
    #[must_use]
    pub fn with_server(mut self, addr: &str, client: &str) -> Self {
        self.remote = Some(RemoteClient::new(addr, client));
        self
    }

    /// The remote grid path: `Some(grid)` if the whole sweep was served,
    /// `None` if the caller must run locally.
    fn try_remote(&self, cfgs: &[CoreConfig]) -> Option<Vec<Vec<(SimStats, SimDists)>>> {
        let remote = self.remote.as_ref()?;
        if !matches!(self.suite_name.as_str(), "quick" | "full") {
            return None;
        }
        if self.remote_failed.load(Ordering::Acquire) {
            return None;
        }
        match remote.run_grid(
            &self.suite_name,
            self.warmup,
            self.measure,
            cfgs,
            self.len(),
        ) {
            Ok(grid) => Some(grid),
            Err(e) => {
                if !self.remote_failed.swap(true, Ordering::AcqRel) {
                    fdip_obs::metrics::global()
                        .counter(
                            "fdip_client_fallbacks_total",
                            "Sweeps that fell back to local execution after a daemon error",
                        )
                        .inc();
                    fdip_obs::log::warn(
                        "harness",
                        "fdip-serve unavailable; falling back to local execution",
                        &[
                            ("addr", remote.addr().into()),
                            ("error", e.to_string().as_str().into()),
                        ],
                    );
                }
                None
            }
        }
    }

    /// Builds the default runner from the environment:
    /// `FDIP_SUITE` (`full`/`quick`), `FDIP_WARMUP`, `FDIP_INSTRS`.
    pub fn from_env() -> Self {
        let (suite, suite_name) = match std::env::var("FDIP_SUITE").as_deref() {
            Ok("quick") => (workload::quick_suite(), "quick"),
            _ => (workload::suite(), "full"),
        };
        let warmup = std::env::var("FDIP_WARMUP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50_000);
        let measure = std::env::var("FDIP_INSTRS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200_000);
        Runner::new(suite, warmup, measure).with_suite_name(suite_name)
    }

    /// A small fixed-size runner for tests and benches.
    pub fn quick(warmup: u64, measure: u64) -> Self {
        Runner::new(workload::quick_suite(), warmup, measure).with_suite_name("quick")
    }

    /// Warm-up instructions per workload.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Measured instructions per workload.
    pub fn measure(&self) -> u64 {
        self.measure
    }

    /// The suite name (`quick`/`full`/`custom`).
    pub fn suite_name(&self) -> &str {
        &self.suite_name
    }

    /// Workload names, in run order.
    pub fn names(&self) -> Vec<&str> {
        self.workloads.iter().map(|e| e.name.as_str()).collect()
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// Returns `true` if the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// Runs `cfg` over every workload on the pool and returns
    /// per-workload statistics in suite order.
    pub fn run_config(&self, cfg: &CoreConfig) -> Vec<SimStats> {
        self.run_config_detailed(cfg)
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    /// Like [`Runner::run_config`], but also returns each workload's
    /// distribution telemetry.
    pub fn run_config_detailed(&self, cfg: &CoreConfig) -> Vec<(SimStats, SimDists)> {
        self.run_configs_detailed(std::slice::from_ref(cfg))
            .pop()
            .unwrap_or_default()
    }

    /// Runs a whole config sweep: every `(config, workload)` cell this
    /// runner has not simulated yet becomes one pool job, submitted as a
    /// single batch so the grid saturates the pool. Returns one
    /// suite-ordered stats vector per config, in `cfgs` order.
    pub fn run_configs(&self, cfgs: &[CoreConfig]) -> Vec<Vec<SimStats>> {
        self.run_configs_detailed(cfgs)
            .into_iter()
            .map(|per_cfg| per_cfg.into_iter().map(|(s, _)| s).collect())
            .collect()
    }

    /// Like [`Runner::run_configs`], but with distribution telemetry.
    ///
    /// # Panics
    ///
    /// If a cell's simulation panics, in the sweep that simulated it
    /// (with the original payload) and in every sweep waiting on it.
    pub fn run_configs_detailed(&self, cfgs: &[CoreConfig]) -> Vec<Vec<(SimStats, SimDists)>> {
        if cfgs.is_empty() {
            return Vec::new();
        }
        if let Some(grid) = self.try_remote(cfgs) {
            return grid;
        }
        let n = self.workloads.len();
        let keys: Vec<CellKey> = cfgs
            .iter()
            .flat_map(|cfg| {
                let canon: Arc<str> = config_to_json(cfg).to_string().into();
                (0..n).map(move |wi| (Arc::clone(&canon), wi))
            })
            .collect();
        let claims = self.cells.claim(keys.iter().cloned());

        let (warmup, measure) = (self.warmup, self.measure);
        let mut jobs = Vec::new();
        for (i, (key, claim)) in keys.iter().zip(&claims).enumerate() {
            if !matches!(claim, Claim::Owned) {
                continue;
            }
            let cfg = cfgs[i / n].clone();
            let workload = Arc::clone(&self.workloads[key.1].program);
            let (cells, key) = (Arc::clone(&self.cells), key.clone());
            jobs.push(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_workload_job(cfg, &workload, warmup, measure)
                }))
                .map(Arc::new);
                cells.resolve(key, result.as_ref().ok().cloned());
                result
            });
        }
        let mut owned = self.pool().run_batch(jobs).into_iter();

        // Every owned cell is resolved now; only then wait on the rest.
        let mut flat = Vec::with_capacity(keys.len());
        for (key, claim) in keys.iter().zip(claims) {
            let cell = match claim {
                Claim::Owned => owned
                    .next()
                    .expect("one batch result per owned cell")
                    .unwrap_or_else(|payload| resume_unwind(payload)),
                Claim::Done(cell) => cell,
                Claim::Pending => self.cells.wait(key, self.pool()).unwrap_or_else(|| {
                    panic!(
                        "cell (workload {}) panicked in the sweep that simulated it",
                        self.workloads[key.1].name
                    )
                }),
            };
            flat.push((*cell).clone());
        }
        let mut flat = flat.into_iter();
        cfgs.iter().map(|_| (&mut flat).take(n).collect()).collect()
    }

    /// Runs `cfg` over the whole suite and packages the results (with a
    /// stamped [`RunManifest`], including pool telemetry) for JSON
    /// emission.
    pub fn run_suite(&self, cfg: &CoreConfig, tool: &str) -> SuiteResult {
        let t0 = Timer::start();
        let results = self.run_config_detailed(cfg);
        let workloads = self
            .workloads
            .iter()
            .zip(results)
            .map(|(entry, (stats, dists))| WorkloadResult {
                name: entry.name.clone(),
                family: entry.family.clone(),
                stats,
                dists,
            })
            .collect();
        let mut manifest = RunManifest::new(
            tool,
            &self.suite_name,
            self.warmup,
            self.measure,
            self.workloads.len(),
        );
        manifest.wall_seconds = t0.elapsed_secs();
        manifest.pool = Some(self.pool().stats().to_json());
        SuiteResult {
            manifest,
            workloads,
        }
    }

    /// Geometric-mean IPC speedup of `other` over `base`, in percent
    /// (the paper's headline aggregation).
    pub fn speedup_pct(base: &[SimStats], other: &[SimStats]) -> f64 {
        assert_eq!(base.len(), other.len());
        let ratios: Vec<f64> = base
            .iter()
            .zip(other)
            .map(|(b, o)| o.ipc() / b.ipc())
            .collect();
        100.0 * (geomean(&ratios) - 1.0)
    }

    /// Arithmetic-mean branch MPKI (the paper's MPKI aggregation).
    pub fn mean_mpki(stats: &[SimStats]) -> f64 {
        if stats.is_empty() {
            return 0.0;
        }
        stats.iter().map(SimStats::branch_mpki).sum::<f64>() / stats.len() as f64
    }

    /// Arithmetic mean of an arbitrary per-workload metric.
    pub fn mean_of(stats: &[SimStats], f: impl Fn(&SimStats) -> f64) -> f64 {
        if stats.is_empty() {
            return 0.0;
        }
        stats.iter().map(f).sum::<f64>() / stats.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_empty_slice_is_zero() {
        // An empty suite aggregates to 0, not NaN.
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_single_element_is_identity() {
        assert!((geomean(&[3.7]) - 3.7).abs() < 1e-9);
    }

    #[test]
    fn geomean_clamps_nonpositive_inputs() {
        // Zero/negative IPCs (a broken run) must not produce NaN.
        assert!(geomean(&[0.0, 4.0]).is_finite());
    }

    #[test]
    fn quick_runner_runs_three_workloads() {
        let r = Runner::quick(2_000, 8_000);
        assert_eq!(r.len(), 3);
        let stats = r.run_config(&CoreConfig::fdp());
        assert_eq!(stats.len(), 3);
        for s in &stats {
            assert!(s.retired >= 8_000 - 8);
        }
    }

    #[test]
    fn from_programs_matches_workload_runner() {
        // A runner built from pre-built programs must simulate exactly
        // what the workload-built runner simulates.
        let by_workload = Runner::quick(1_000, 5_000);
        let programs = workload::quick_suite()
            .into_iter()
            .map(|w| (w.name.clone(), Arc::new(w.build())))
            .collect();
        let by_program = Runner::from_programs(programs, 1_000, 5_000);
        assert_eq!(by_program.names(), by_workload.names());
        assert_eq!(by_program.suite_name(), "generated");
        assert_eq!(
            by_program.run_config(&CoreConfig::fdp()),
            by_workload.run_config(&CoreConfig::fdp())
        );
        let suite = by_program.run_suite(&CoreConfig::fdp(), "test-run");
        for w in &suite.workloads {
            assert_eq!(w.family, "generated");
        }
    }

    #[test]
    fn speedup_of_identical_runs_is_zero() {
        // Two runners, so the second run simulates afresh instead of
        // reading the first one's cells back.
        let a = Runner::quick(1_000, 5_000).run_config(&CoreConfig::fdp());
        let b = Runner::quick(1_000, 5_000).run_config(&CoreConfig::fdp());
        let s = Runner::speedup_pct(&a, &b);
        assert!(s.abs() < 1e-9, "{s}");
    }

    #[test]
    fn config_sweep_matches_individual_runs() {
        let r = Runner::quick(1_000, 5_000);
        let cfgs = [CoreConfig::no_fdp(), CoreConfig::fdp()];
        let grid = r.run_configs(&cfgs);
        assert_eq!(grid.len(), 2);
        // The flattened batch must land each (config, workload) result in
        // its own slot, identical to running the configs one at a time
        // (on a fresh runner, whose table holds none of the grid's cells).
        let fresh = Runner::quick(1_000, 5_000);
        assert_eq!(grid[0], fresh.run_config(&CoreConfig::no_fdp()));
        assert_eq!(grid[1], fresh.run_config(&CoreConfig::fdp()));
    }

    /// Serializes a detailed grid the way `results.json` does.
    fn grid_json(grid: &[Vec<(SimStats, SimDists)>]) -> Vec<String> {
        grid.iter()
            .flatten()
            .map(|(s, d)| s.to_json().to_string() + &d.to_json().to_string())
            .collect()
    }

    #[test]
    fn duplicate_configs_in_one_sweep_simulate_once() {
        let pool = Arc::new(Pool::new(2));
        let r = Runner::quick(1_000, 5_000).with_pool(Arc::clone(&pool));
        let cfgs = [
            CoreConfig::no_fdp(),
            CoreConfig::fdp(),
            CoreConfig::no_fdp(),
        ];
        let grid = r.run_configs_detailed(&cfgs);
        assert_eq!(
            pool.stats().jobs_completed,
            2 * 3,
            "2 distinct configs × 3 workloads"
        );
        let fresh = Runner::quick(1_000, 5_000);
        let one_at_a_time: Vec<_> = cfgs
            .iter()
            .map(|cfg| fresh.run_config_detailed(cfg))
            .collect();
        assert_eq!(grid_json(&grid), grid_json(&one_at_a_time));
    }

    #[test]
    fn concurrent_overlapping_sweeps_simulate_each_cell_once() {
        let pool = Arc::new(Pool::new(2));
        let r = Runner::quick(1_000, 5_000).with_pool(Arc::clone(&pool));
        let nl = CoreConfig::fdp().with_prefetcher(fdip_prefetch::PrefetcherKind::NextLine);
        let a = [CoreConfig::no_fdp(), CoreConfig::fdp()];
        let b = [CoreConfig::fdp(), nl, CoreConfig::no_fdp()];
        let start = std::sync::Barrier::new(2);
        let (ga, gb) = std::thread::scope(|s| {
            let ta = s.spawn(|| {
                start.wait();
                r.run_configs_detailed(&a)
            });
            let tb = s.spawn(|| {
                start.wait();
                r.run_configs_detailed(&b)
            });
            (ta.join().expect("sweep a"), tb.join().expect("sweep b"))
        });
        assert_eq!(
            pool.stats().jobs_completed,
            3 * 3,
            "3 distinct configs × 3 workloads"
        );
        let (ga, gb) = (grid_json(&ga), grid_json(&gb));
        // a = [no_fdp, fdp], b = [fdp, nl, no_fdp], 3 workloads each.
        assert_eq!(ga[..3], gb[6..]);
        assert_eq!(ga[3..], gb[..3]);
    }

    #[test]
    fn a_panicking_cell_fails_its_owner_and_waiters_then_reruns() {
        // A 3K-entry, 4-way BTB has 768 sets, not a power of two, so
        // building its simulator panics.
        let bad = CoreConfig::fdp().with_btb_entries(3 * 1024);
        let good = CoreConfig::fdp();
        let pool = Arc::new(Pool::new(1));
        let programs = workload::quick_suite()
            .into_iter()
            .take(1)
            .map(|w| (w.name.clone(), Arc::new(w.build())))
            .collect();
        let r = Runner::from_programs(programs, 500, 2_000).with_pool(Arc::clone(&pool));
        let submitted = |n: u64| {
            while pool.stats().queue_depth.count() < n {
                std::thread::yield_now();
            }
        };
        // Hold the only worker so the sweeps below queue behind it.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let blocker = Arc::clone(&pool);
            s.spawn(move || {
                blocker.run_batch(vec![move || {
                    started_tx.send(()).expect("test alive");
                    release_rx.recv().expect("released");
                }])
            });
            started_rx.recv().expect("blocker running");
            let owner = s.spawn(|| r.run_config(&bad));
            submitted(2);
            // Owns `good`, finds `bad` running: its job is queued once
            // its claim is made.
            let waiter = s.spawn(|| r.run_configs(&[good.clone(), bad.clone()]));
            submitted(3);
            release_tx.send(()).expect("blocker alive");
            assert!(owner.join().is_err(), "the owner re-raises the panic");
            assert!(
                waiter.join().is_err(),
                "the waiter panics instead of hanging"
            );
        });
        assert_eq!(
            pool.stats().jobs_completed,
            3,
            "blocker, bad and good ran once each"
        );
        let again = catch_unwind(AssertUnwindSafe(|| r.run_config(&bad)));
        assert!(again.is_err());
        assert_eq!(
            pool.stats().jobs_completed,
            4,
            "a failed cell is simulated again"
        );
        assert_eq!(r.run_config(&good).len(), 1);
        assert_eq!(pool.stats().jobs_completed, 4, "a finished cell is not");
    }

    #[test]
    fn all_experiments_simulate_only_their_distinct_cells() {
        // `fdip-experiments all` submits 396 quick-suite cells, 90
        // distinct configs × 3 workloads of them.
        let pool = Arc::new(Pool::new(2));
        let r = Runner::quick(200, 1_000).with_pool(Arc::clone(&pool));
        std::thread::scope(|s| {
            for e in crate::experiments::all() {
                let r = &r;
                s.spawn(move || (e.run)(r));
            }
        });
        assert_eq!(pool.stats().jobs_completed, 90 * 3);
    }

    #[test]
    fn concurrent_experiments_prepare_each_workload_once() {
        let pool = Arc::new(Pool::new(2));
        let r = Runner::quick(200, 1_000).with_pool(Arc::clone(&pool));
        let builds =
            |r: &Runner| -> Vec<u64> { r.workloads.iter().map(|w| w.program.builds()).collect() };
        assert_eq!(builds(&r), [0, 0, 0], "nothing is prepared before a sweep");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for id in ["fig7", "fig8"] {
                let e = crate::experiments::by_id(id).expect("registered experiment");
                let (r, start) = (&r, &start);
                s.spawn(move || {
                    start.wait();
                    (e.run)(r)
                });
            }
        });
        assert!(pool.stats().jobs_completed > 3, "many cells per workload");
        assert_eq!(builds(&r), [1, 1, 1], "one warm-up input per workload");
    }

    #[test]
    fn empty_sweep_returns_no_grids() {
        let r = Runner::quick(1_000, 5_000);
        assert!(r.run_configs(&[]).is_empty());
    }

    #[test]
    fn runner_stays_within_its_pool_bound() {
        // Regression for the old one-thread-per-workload Runner::run: the
        // pool, not the workload count, bounds live simulation workers.
        let pool = Arc::new(Pool::new(2));
        let r = Runner::quick(500, 3_000).with_pool(Arc::clone(&pool));
        let stats = r.run_config(&CoreConfig::fdp());
        assert_eq!(stats.len(), 3);
        let ps = pool.stats();
        assert_eq!(ps.jobs_completed, 3);
        assert!(
            ps.peak_busy <= 2,
            "peak busy workers {} exceeds the pool bound 2",
            ps.peak_busy
        );
    }

    #[test]
    fn run_suite_packages_manifest_and_workloads() {
        let r = Runner::quick(1_000, 5_000);
        let suite = r.run_suite(&CoreConfig::fdp(), "test-run");
        assert_eq!(suite.manifest.suite, "quick");
        assert_eq!(suite.manifest.workload_count, 3);
        assert_eq!(suite.workloads.len(), 3);
        assert!(suite.manifest.wall_seconds > 0.0);
        assert!(suite.geomean_ipc() > 0.1);
        for w in &suite.workloads {
            assert_eq!(w.dists.ftq_occupancy.count(), w.stats.cycles);
            assert!(w.dists.prefetch_lead_time.count() > 0);
        }
        // Pool telemetry rides along in the manifest.
        let pool = suite.manifest.pool.as_ref().expect("pool block");
        assert!(pool.get("workers").is_some());
        assert!(pool.get("jobs_completed").is_some());
    }

    #[test]
    fn mean_mpki_aggregates() {
        let r = Runner::quick(1_000, 5_000);
        let stats = r.run_config(&CoreConfig::fdp());
        let m = Runner::mean_mpki(&stats);
        assert!((0.0..200.0).contains(&m));
    }
}
