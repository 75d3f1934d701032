//! One timed unit of a workload, run in a fresh process per repetition
//! so no repetition reuses state or results of an earlier one: a full
//! paper sweep, or one `Simulator::new` + `run` cell.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use fdip_exec::{Pool, PoolStats};
use fdip_harness::experiments::{self, Experiment};
use fdip_harness::{Report, Runner};
use fdip_obs::span::{SpanRecorder, Track};
use fdip_program::Program;
use fdip_sim::{check_outcome_ledger, check_stall_partition, CoreConfig, SimStats, Simulator};
use fdip_telemetry::Json;

use crate::reference::{self, reference};
use crate::workload::{
    build_all, Workload, SIM_SEED, SWEEP_INPUT, SWEEP_MEASURE, SWEEP_WARMUP, SWEEP_WORKERS,
};

/// Set-up samples a process takes: a run of the sweep has one process,
/// a run of a cell workload a few dozen. `setup_s` is the median.
fn setup_samples(w: Workload) -> usize {
    match w {
        Workload::PaperSweep => 9,
        Workload::FdpCell => 3,
    }
}

/// Span recording around calls into the layers: a no-op in untraced
/// runs.
#[derive(Copy, Clone)]
pub struct Spans<'a>(pub Option<&'a SpanRecorder>);

impl Spans<'_> {
    /// Runs `f`, recording it as span `name` on `track` when tracing.
    pub fn time<T>(self, track: Track, name: &str, f: impl FnOnce() -> T) -> T {
        match self.0 {
            None => f(),
            Some(rec) => {
                let start = rec.now_us();
                let out = f();
                rec.slice(track, name, start, Json::obj());
                out
            }
        }
    }
}

/// What one unit reports to the parent process.
#[derive(Clone, Debug, Default)]
pub struct UnitRecord {
    /// Generator-seed offset of the unit's programs.
    pub input: u64,
    /// Seconds per set-up sample (program builds).
    pub setup_s: Vec<f64>,
    /// Host seconds of the timed unit (NaN if it panicked).
    pub wall_s: f64,
    /// Host seconds inside `Simulator::run` for a cell; the sweep's wall
    /// time for the sweep.
    pub run_s: f64,
    /// Simulated instructions retired within `run_s`.
    pub sim_instrs: u64,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells failed (panic, invariant violation or digest mismatch).
    pub failed: u64,
    /// Process resident-set high-water mark, MB.
    pub peak_rss_mb: f64,
    /// Modelled FDP speedup over the no-FDP baseline (fig6a), percent.
    pub fdp_speedup_pct: Option<f64>,
    /// What failed, one line per failure.
    pub notes: Vec<String>,
}

impl UnitRecord {
    /// Serializes the record as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("input", self.input)
            .with(
                "setup_s",
                Json::Arr(self.setup_s.iter().map(|&v| v.into()).collect()),
            )
            .with("wall_s", self.wall_s)
            .with("run_s", self.run_s)
            .with("sim_instrs", self.sim_instrs)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("peak_rss_mb", self.peak_rss_mb)
            .with(
                "notes",
                Json::Arr(self.notes.iter().map(|n| n.as_str().into()).collect()),
            );
        if let Some(s) = self.fdp_speedup_pct {
            j.set("fdp_speedup_pct", s);
        }
        j
    }

    /// Parses [`UnitRecord::to_json`] output.
    pub fn from_json(j: &Json) -> Option<UnitRecord> {
        let num = |k: &str| j.get(k).map(|v| v.as_f64().unwrap_or(f64::NAN));
        Some(UnitRecord {
            input: j.get("input")?.as_u64()?,
            setup_s: j
                .get("setup_s")?
                .as_arr()?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            wall_s: num("wall_s")?,
            run_s: num("run_s")?,
            sim_instrs: j.get("sim_instrs")?.as_u64()?,
            attempted: j.get("attempted")?.as_u64()?,
            failed: j.get("failed")?.as_u64()?,
            peak_rss_mb: num("peak_rss_mb")?,
            fdp_speedup_pct: j.get("fdp_speedup_pct").and_then(Json::as_f64),
            notes: j
                .get("notes")?
                .as_arr()?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// Builds the programs of input `input` [`setup_samples`] times,
/// returning the last build and the seconds each build took.
pub fn setup(w: Workload, input: u64, spans: Spans) -> (Vec<(String, Arc<Program>)>, Vec<f64>) {
    let workloads = w.programs(input);
    let mut samples = Vec::new();
    let mut built = Vec::new();
    for _ in 0..setup_samples(w) {
        // Free the previous build first, so the peak RSS holds one copy.
        built.clear();
        let t = Instant::now();
        built = spans.time(Track::Grid, "Workload::build", || build_all(&workloads));
        samples.push(t.elapsed().as_secs_f64());
    }
    (built, samples)
}

/// One simulated cell, timed.
pub struct CellRun {
    /// Statistics of the measured interval.
    pub stats: SimStats,
    /// Counters over the whole run (timed warm-up included).
    pub full: SimStats,
    /// Seconds in `Simulator::new` (functional warm-up included).
    pub new_s: f64,
    /// Seconds in `Simulator::run`.
    pub run_s: f64,
    /// Violated `fdip_sim::check` invariants.
    pub violations: Vec<String>,
}

/// Runs one cell and checks the simulator's invariants; a panic comes
/// back as its message.
pub fn run_cell(
    cfg: &CoreConfig,
    program: &Program,
    (warmup, measure): (u64, u64),
    spans: Spans,
) -> Result<CellRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let mut sim = spans.time(Track::Grid, "Simulator::new", || {
            Simulator::new(cfg.clone(), program, SIM_SEED)
        });
        let new_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let stats = spans.time(Track::Grid, "Simulator::run", || sim.run(warmup, measure));
        let run_s = t.elapsed().as_secs_f64();
        let full = spans.time(Track::Grid, "Simulator::collect", || sim.collect());
        let mut violations: Vec<String> = [
            check_stall_partition("measured", &stats),
            check_stall_partition("full", &full),
        ]
        .into_iter()
        .flatten()
        .map(|v| v.to_string())
        .collect();
        for (source, ledger) in sim.outcome_ledgers() {
            violations.extend(check_outcome_ledger(source, ledger).map(|v| v.to_string()));
        }
        CellRun {
            stats,
            full,
            new_s,
            run_s,
            violations,
        }
    }))
    .map_err(|p| panic_message(&p))
}

/// A single-cell workload's unit on the `server_a` variant `input`:
/// set-up, then one cell, checked.
pub fn cell_unit(w: Workload, input: u64, spans: Spans) -> (UnitRecord, Option<CellRun>) {
    let (built, setup_s) = setup(w, input, spans);
    let mut rec = UnitRecord {
        input,
        setup_s,
        attempted: 1,
        ..UnitRecord::default()
    };
    match run_cell(&w.cell_config(), &built[0].1, w.cell_lengths(), spans) {
        Ok(run) => {
            rec.wall_s = run.new_s + run.run_s;
            rec.run_s = run.run_s;
            rec.sim_instrs = run.full.retired;
            rec.notes.clone_from(&run.violations);
            let digest = reference::stats_digest(&run.stats);
            if !reference().agrees(w.name(), input, digest) {
                rec.notes.push(format!(
                    "{} input {input}: simulated statistics differ from the reference \
                     or it has none (digest {digest:016x})",
                    w.name()
                ));
            }
            rec.failed = u64::from(!rec.notes.is_empty());
            (rec, Some(run))
        }
        Err(msg) => {
            rec.wall_s = f64::NAN;
            rec.run_s = f64::NAN;
            rec.failed = 1;
            rec.notes
                .push(format!("{} input {input}: cell panicked: {msg}", w.name()));
            (rec, None)
        }
    }
}

/// A sweep over the given programs at stock lengths on a fresh pool of
/// [`SWEEP_WORKERS`].
pub fn sweep_runner(built: Vec<(String, Arc<Program>)>) -> (Runner, Arc<Pool>) {
    let pool = Arc::new(Pool::new(SWEEP_WORKERS));
    let runner = Runner::from_programs(built, SWEEP_WARMUP, SWEEP_MEASURE)
        .with_suite_name("quick")
        .with_pool(Arc::clone(&pool));
    (runner, pool)
}

fn run_experiment(e: &Experiment, runner: &Runner) -> Result<Report, String> {
    catch_unwind(AssertUnwindSafe(|| (e.run)(runner))).map_err(|p| panic_message(&p))
}

/// The 13 experiments in the order `seed` submits them: the stock order
/// rotated by `seed`.
pub fn sweep_order(seed: u64) -> Vec<Experiment> {
    let mut exps = experiments::all();
    let n = exps.len() as u64;
    exps.rotate_left((seed % n) as usize);
    exps
}

/// The paper sweep's unit: set-up, then every experiment concurrently on
/// one 2-worker pool, as `fdip-experiments all` runs them, started in
/// [`sweep_order`].
pub fn sweep_unit(seed: u64, spans: Spans) -> (UnitRecord, PoolStats) {
    let (built, setup_s) = setup(Workload::PaperSweep, SWEEP_INPUT, spans);
    let (runner, pool) = sweep_runner(built);
    let exps = sweep_order(seed);
    let t = Instant::now();
    let results: Vec<Result<Report, String>> = spans.time(Track::Grid, "sweep", || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = exps
                .iter()
                .map(|e| {
                    let runner = &runner;
                    scope
                        .spawn(move || spans.time(Track::Cells, e.id, || run_experiment(e, runner)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| Err(panic_message(&p))))
                .collect()
        })
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut rec = UnitRecord {
        input: SWEEP_INPUT,
        setup_s,
        wall_s,
        run_s: wall_s,
        ..UnitRecord::default()
    };
    for (e, result) in exps.iter().zip(&results) {
        judge_experiment(e, result, &mut rec);
    }
    rec.sim_instrs = rec.attempted * (SWEEP_WARMUP + SWEEP_MEASURE);
    (rec, pool.stats())
}

/// Seconds and pool jobs of one experiment run on its own.
pub struct ExperimentCost {
    /// Experiment id.
    pub id: &'static str,
    /// Host seconds.
    pub secs: f64,
    /// Cells the pool simulated for it.
    pub jobs: u64,
}

/// The harness layer, measured: every experiment run one at a time on a
/// fresh 2-worker pool over the stock quick suite, each checked.
pub fn harness_pass(spans: Spans, rec: &mut UnitRecord) -> (Vec<ExperimentCost>, PoolStats) {
    let built = build_all(&Workload::PaperSweep.programs(SWEEP_INPUT));
    let (runner, pool) = sweep_runner(built);
    let mut costs = Vec::new();
    for e in experiments::all() {
        let jobs_before = pool.stats().jobs_completed;
        let t = Instant::now();
        let result = spans.time(Track::Cells, &format!("harness: {}", e.id), || {
            run_experiment(&e, &runner)
        });
        let secs = t.elapsed().as_secs_f64();
        judge_experiment(&e, &result, rec);
        costs.push(ExperimentCost {
            id: e.id,
            secs,
            jobs: pool.stats().jobs_completed - jobs_before,
        });
    }
    (costs, pool.stats())
}

/// Counts an experiment's cells as attempted, and as failed if it
/// panicked or its report on the stock suite differs from the
/// reference.
fn judge_experiment(e: &Experiment, result: &Result<Report, String>, rec: &mut UnitRecord) {
    let cells = reference().cells(e.id).unwrap_or_else(|| {
        rec.notes.push(format!(
            "{}: no reference cell count; counted as one cell",
            e.id
        ));
        1
    });
    rec.attempted += cells;
    let failure = match result {
        Err(msg) => Some(format!("{}: experiment panicked: {msg}", e.id)),
        Ok(report) => {
            if e.id == "fig6a" {
                rec.fdp_speedup_pct = report.get("none_fdp_pct");
            }
            let digest = reference::report_digest(report);
            (!reference().agrees(e.id, SWEEP_INPUT, digest)).then(|| {
                format!(
                    "{}: report differs from the reference or it has none \
                     (digest {digest:016x})",
                    e.id
                )
            })
        }
    };
    if let Some(f) = failure {
        // A failed experiment without cells (a table) still counts once.
        rec.attempted += u64::from(cells == 0);
        rec.failed += cells.max(1);
        rec.notes.push(f);
    }
}

/// The message of a caught panic.
pub fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// This process's resident-set high-water mark (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
