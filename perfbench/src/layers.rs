//! The traced run: the workload's unit with spans around every layer
//! call, then each crate's own cost measured from outside through its
//! public functions.
//!
//! The committed stream of the workload's cell is recorded once from
//! `ExecutionEngine` and replayed through `Btb`, `Tage`, `Hierarchy` and
//! the EIP-128KB `Prefetcher` to price one operation of each; the cost
//! model then multiplies those prices by the cell's own counts and
//! reconciles the sum against the measured `Simulator::run` time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fdip_bpred::{Btb, BtbConfig, FoldPlan, GlobalHistory, Tage, TageConfig};
use fdip_exec::PoolStats;
use fdip_mem::{Hierarchy, HierarchyConfig};
use fdip_obs::span::{SpanRecorder, Track};
use fdip_prefetch::PrefetcherKind;
use fdip_program::{ExecutionEngine, Program};
use fdip_sim::{CoreConfig, DirectionConfig, SimStats, Simulator, StallReason, StaticMeta};
use fdip_types::{Addr, BranchKind, Cycle};

use crate::reference;
use crate::unit::{self, CellRun, Spans, UnitRecord};
use crate::workload::{eip_config, Workload, EIP_CELL, SIM_SEED};

/// Committed instructions the engine is timed over and recorded for.
pub const ENGINE_STEPS: u64 = 2_000_000;

/// Timed passes per replay or set-up call; the median is reported.
const PASSES: usize = 3;

/// One committed branch.
struct Branch {
    pc: Addr,
    kind: BranchKind,
    taken: bool,
    next_pc: Addr,
}

/// The committed stream, reduced to what the replays consume.
struct Stream {
    branches: Vec<Branch>,
    /// Instruction-fetch line at every change of line.
    lines: Vec<u64>,
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median seconds of [`PASSES`] calls of `f`.
fn time_median(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds per operation of [`PASSES`] calls of `pass`,
/// which returns the operations it performed.
fn ns_per_op(mut pass: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            let ops = pass();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn record_stream(program: &Program) -> Stream {
    let mut engine = ExecutionEngine::new(program, SIM_SEED);
    let mut s = Stream {
        branches: Vec::new(),
        lines: Vec::new(),
    };
    for _ in 0..ENGINE_STEPS {
        let d = engine.step();
        let line = d.pc.line_number();
        if s.lines.last() != Some(&line) {
            s.lines.push(line);
        }
        if let Some(kind) = d.kind.branch_kind() {
            s.branches.push(Branch {
                pc: d.pc,
                kind,
                taken: d.taken,
                next_pc: d.next_pc,
            });
        }
    }
    s
}

fn btb_replay(cfg: BtbConfig, s: &Stream) -> u64 {
    let mut btb = Btb::new(cfg);
    for b in &s.branches {
        black_box(btb.lookup(b.pc));
        if b.taken {
            btb.insert(b.pc, b.kind, b.next_pc);
        }
    }
    s.branches.len() as u64
}

/// TAGE predict + update per conditional branch, with the taken-only
/// target history (THR) pushed as the frontend does.
fn tage_replay(cfg: TageConfig, s: &Stream) -> u64 {
    let mut plan = FoldPlan::new();
    let mut tage = Tage::new(cfg, &mut plan);
    let mut folds = plan.initial();
    let mut ghr = GlobalHistory::new();
    let mut ops = 0;
    for b in &s.branches {
        if b.kind.is_conditional() {
            let pred = tage.predict(b.pc, &folds);
            tage.update(b.pc, &folds, b.taken, black_box(pred));
            ops += 1;
        }
        if b.taken {
            let hash = GlobalHistory::target_hash(b.pc, b.next_pc);
            plan.push(&mut folds, &ghr, hash, 2);
            ghr.push_bits(hash, 2);
        }
    }
    ops
}

/// A hierarchy prepared as `Simulator::new` prepares it: LLC pre-warmed
/// with the code image.
fn prewarmed(cfg: HierarchyConfig, program: &Program) -> Hierarchy {
    let mut mem = Hierarchy::new(cfg);
    let image = program.image();
    let first = image.base().line_number();
    let last = (image.base() + image.footprint_bytes()).line_number();
    mem.prewarm_llc_instr(first..=last);
    mem
}

fn fetch_replay(mut mem: Hierarchy, s: &Stream) -> u64 {
    let mut now: Cycle = 0;
    for &line in &s.lines {
        now = mem.fetch_instr_line(line, now);
    }
    black_box(now);
    s.lines.len() as u64
}

/// `(line, hit, cycle)` of every demand fetch, as the prefetcher sees
/// them.
fn access_log(mut mem: Hierarchy, s: &Stream) -> Vec<(u64, bool, Cycle)> {
    let mut now: Cycle = 0;
    s.lines
        .iter()
        .map(|&line| {
            let hit = mem.instr_line_present(line);
            let at = now;
            now = mem.fetch_instr_line(line, now);
            (line, hit, at)
        })
        .collect()
}

fn prefetch_replay(log: &[(u64, bool, Cycle)]) -> u64 {
    let mut pf = PrefetcherKind::Eip128.build();
    let mut out = Vec::new();
    for &(line, hit, now) in log {
        pf.on_access(line, hit, now, &mut out);
        black_box(&out);
        out.clear();
    }
    log.len() as u64
}

fn tage_config(cfg: &CoreConfig) -> TageConfig {
    match cfg.direction {
        DirectionConfig::Tage(t) => t,
        _ => TageConfig::kb18(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn put_exec(m: &mut BTreeMap<String, f64>, p: &PoolStats) {
    let elapsed = if p.jobs_per_sec > 0.0 {
        p.jobs_completed as f64 / p.jobs_per_sec
    } else {
        0.0
    };
    m.insert("exec.jobs".into(), p.jobs_completed as f64);
    m.insert("exec.busy_fraction".into(), p.busy_fraction);
    m.insert(
        "exec.idle_s".into(),
        (1.0 - p.busy_fraction) * p.workers as f64 * elapsed,
    );
    m.insert("exec.steals".into(), p.steals as f64);
    m.insert(
        "exec.queue_depth_max".into(),
        p.queue_depth.max().unwrap_or(0) as f64,
    );
}

fn put_counts(m: &mut BTreeMap<String, f64>, full: &SimStats) {
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("core.cycles", full.cycles as f64);
    put("core.retired", full.retired as f64);
    for reason in StallReason::ALL {
        put(
            &format!("core.stall.{}", reason.name()),
            full.stall.get(reason) as f64,
        );
    }
    put("core.ftq.occupancy_avg", full.avg_ftq_occupancy());
    put("core.ftq.fdp_accuracy", full.fdp_accuracy());
    put("bpred.btb.lookups", full.btb.lookups as f64);
    put("bpred.btb.hit_rate", full.btb_hit_rate());
    put("bpred.mispredicts", full.mispredicts as f64);
    put("bpred.pfc_restreams", full.pfc_restreams as f64);
    put("mem.l1i.accesses", full.l1i.demand_accesses as f64);
    put("mem.l1i.misses", full.l1i.demand_misses as f64);
    put("mem.l1i.tag_probes", full.l1i.tag_probes as f64);
    put("mem.l2.misses", full.l2.demand_misses as f64);
    put("mem.dram_accesses", full.traffic.dram_accesses as f64);
}

fn put_prefetch_counts(m: &mut BTreeMap<String, f64>, full: &SimStats) {
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let pf = full.l1i.outcomes_pf;
    let useful = pf.timely + pf.late;
    put("prefetch.candidates", full.prefetch_candidates as f64);
    put("prefetch.issued", pf.requests as f64);
    put("prefetch.useful", useful as f64);
    put("prefetch.accuracy", ratio(useful, pf.requests));
    put("prefetch.coverage", full.pf_coverage());
}

/// Runs one more cell in the traced run, counted in `record` as
/// attempted, and as failed on a panic, a violated invariant or, when
/// `reference` names an output and input, a digest that differs.
fn extra_cell(
    cfg: &CoreConfig,
    program: &Program,
    lengths: (u64, u64),
    reference: Option<(&str, u64)>,
    spans: Spans,
    record: &mut UnitRecord,
) -> Option<CellRun> {
    record.attempted += 1;
    let mut notes = Vec::new();
    let cell = match unit::run_cell(cfg, program, lengths, spans) {
        Ok(c) => {
            notes.clone_from(&c.violations);
            if let Some((name, input)) = reference {
                let digest = reference::stats_digest(&c.stats);
                if !reference::reference().agrees(name, input, digest) {
                    notes.push(format!(
                        "{name} input {input}: simulated statistics differ from the \
                         reference or it has none (digest {digest:016x})"
                    ));
                }
            }
            Some(c)
        }
        Err(msg) => {
            notes.push(format!("layer cell panicked: {msg}"));
            None
        }
    };
    record.failed += u64::from(!notes.is_empty());
    record.notes.extend(notes);
    cell
}

/// The result of a traced run.
pub struct Traced {
    /// Correctness and unit timing, as an untraced unit reports them.
    pub record: UnitRecord,
    /// Host seconds of the traced unit itself.
    pub unit_wall_s: f64,
    /// Every per-layer metric except `trace.overhead_s`.
    pub metrics: BTreeMap<String, f64>,
    /// `(term, count, ns/op)` per replayed layer, for the printed
    /// reconciliation.
    pub cost_terms: Vec<(&'static str, u64, f64)>,
}

/// Runs the workload's unit and every layer measurement with spans
/// recorded into `rec`.
pub fn traced_run(w: Workload, seed: u64, rec: &SpanRecorder) -> Traced {
    let spans = Spans(Some(rec));
    let mut m = BTreeMap::new();
    let cfg = w.cell_config();
    let input = w.unit_input(seed, 0);
    let server_a = w.programs(input)[0].build();

    // The unit, then the cell whose cycle loop the layers explain.
    let (mut record, sweep_pool, cell) = match w {
        Workload::PaperSweep => {
            let (mut record, pool) = unit::sweep_unit(seed, spans);
            let cell = extra_cell(&cfg, &server_a, w.cell_lengths(), None, spans, &mut record);
            (record, Some(pool), cell)
        }
        Workload::FdpCell => {
            let (record, cell) = unit::cell_unit(w, input, spans);
            (record, None, cell)
        }
    };
    let unit_wall_s = record.wall_s;
    let eip_reference = (w == Workload::FdpCell).then_some((EIP_CELL, input));
    let eip = spans.time(Track::Grid, "prefetch: EIP-128KB cell", || {
        let lengths = w.cell_lengths();
        extra_cell(
            &eip_config(),
            &server_a,
            lengths,
            eip_reference,
            spans,
            &mut record,
        )
    });
    m.insert("program.build_s".into(), median(&record.setup_s));

    let (core_new_s, run_s, full) = match &cell {
        Some(CellRun {
            new_s, run_s, full, ..
        }) => (*new_s, *run_s, *full),
        None => (f64::NAN, f64::NAN, SimStats::default()),
    };

    // Core set-up split.
    let new_s = spans.time(Track::Grid, "core: Simulator::new x3", || {
        time_median(|| drop(black_box(Simulator::new(cfg.clone(), &server_a, SIM_SEED))))
    });
    let no_warm = CoreConfig {
        func_warmup: 0,
        ..cfg.clone()
    };
    let new_cold_s = spans.time(Track::Grid, "core: Simulator::new func_warmup=0 x3", || {
        time_median(|| {
            drop(black_box(Simulator::new(
                no_warm.clone(),
                &server_a,
                SIM_SEED,
            )))
        })
    });
    let meta_s = spans.time(Track::Grid, "core: StaticMeta::new x3", || {
        time_median(|| drop(black_box(StaticMeta::new(&server_a))))
    });
    m.insert("core.new_s".into(), new_s);
    m.insert("core.func_warmup_s".into(), new_s - new_cold_s);
    m.insert("core.static_meta_s".into(), meta_s);
    m.insert("core.setup_share".into(), core_new_s / (core_new_s + run_s));
    m.insert("core.run_s".into(), run_s);
    m.insert("core.ns_per_cycle".into(), run_s * 1e9 / full.cycles as f64);
    m.insert(
        "core.ns_per_instr".into(),
        run_s * 1e9 / full.retired as f64,
    );
    put_counts(&mut m, &full);
    put_prefetch_counts(&mut m, &eip.map_or_else(SimStats::default, |c| c.full));

    // Program layer and the committed stream.
    let engine_ns = spans.time(Track::Grid, "program: ExecutionEngine::step x2M", || {
        ns_per_op(|| {
            let mut engine = ExecutionEngine::new(&server_a, SIM_SEED);
            for _ in 0..ENGINE_STEPS {
                black_box(engine.step());
            }
            ENGINE_STEPS
        })
    });
    m.insert("program.engine_ns_per_instr".into(), engine_ns);
    let stream = spans.time(Track::Grid, "record committed stream", || {
        record_stream(&server_a)
    });

    // Layer replays.
    let btb_ns = spans.time(Track::Grid, "replay: Btb", || {
        ns_per_op(|| btb_replay(cfg.btb, &stream))
    });
    let tage_ns = spans.time(Track::Grid, "replay: Tage", || {
        ns_per_op(|| tage_replay(tage_config(&cfg), &stream))
    });
    let fetch_ns = spans.time(Track::Grid, "replay: Hierarchy::fetch_instr_line", || {
        ns_per_op(|| fetch_replay(prewarmed(cfg.mem, &server_a), &stream))
    });
    let log = access_log(prewarmed(cfg.mem, &server_a), &stream);
    let pf_ns = spans.time(
        Track::Grid,
        "replay: Prefetcher::on_access EIP-128KB",
        || ns_per_op(|| prefetch_replay(&log)),
    );
    m.insert("bpred.btb_ns_per_op".into(), btb_ns);
    m.insert("bpred.tage_ns_per_op".into(), tage_ns);
    m.insert("mem.fetch_ns_per_op".into(), fetch_ns);
    m.insert("prefetch.ns_per_access".into(), pf_ns);

    // Cost model over the cell's own counts.
    let pf_accesses = if cfg.prefetcher == PrefetcherKind::None {
        0
    } else {
        full.l1i.demand_accesses
    };
    let cost_terms: Vec<(&'static str, u64, f64)> = vec![
        ("program.engine (retired)", full.retired, engine_ns),
        ("bpred.btb (lookups)", full.btb.lookups, btb_ns),
        (
            "bpred.tage (conditional branches)",
            full.retired_cond,
            tage_ns,
        ),
        (
            "mem.fetch (L1i accesses)",
            full.l1i.demand_accesses,
            fetch_ns,
        ),
        ("prefetch.on_access (L1i accesses)", pf_accesses, pf_ns),
    ];
    let modelled_s: f64 = cost_terms
        .iter()
        .map(|&(_, count, ns)| count as f64 * ns * 1e-9)
        .sum();
    m.insert("core.cost_model_residual".into(), 1.0 - modelled_s / run_s);

    // Harness layer: each experiment on its own. Its pool is the exec
    // layer for `fdp_cell`, which never uses one.
    let (costs, harness_pool) = unit::harness_pass(spans, &mut record);
    for c in &costs {
        m.insert(format!("harness.{}.s", c.id), c.secs);
        m.insert(format!("harness.{}.jobs", c.id), c.jobs as f64);
    }
    put_exec(&mut m, sweep_pool.as_ref().unwrap_or(&harness_pool));

    Traced {
        record,
        unit_wall_s,
        metrics: m,
        cost_terms,
    }
}
