//! Command-line driver of the repository benchmark.
//!
//! ```text
//! fdip-perfbench --workload <paper_sweep|fdp_cell>
//!                [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! fdip-perfbench record-reference
//! ```
//!
//! Each repetition of the timed unit runs in a fresh child process of
//! this binary (`unit <workload> <seed> <index>`); a traced run adds one
//! untraced unit and one `traced <workload> <seed>` child. The last
//! line of standard output is the result object `{correct, attempted,
//! failed, metrics}`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use fdip_harness::experiments;
use fdip_obs::span::SpanRecorder;
use fdip_perfbench::catalog;
use fdip_perfbench::layers::{self, median};
use fdip_perfbench::reference::{self, cells_line, digest_line};
use fdip_perfbench::unit::{self, Spans, UnitRecord};
use fdip_perfbench::workload::{
    build_all, eip_config, Workload, CELL_VARIANTS, EIP_CELL, SWEEP_INPUT,
};
use fdip_telemetry::Json;

/// Units every untraced run measures at least, even past `--seconds`:
/// a sweep takes 22–31 s on a 2-vCPU host, and one sweep alone would
/// put a single sample's host noise into the run's figure.
const MIN_UNITS: usize = 2;

/// The paper's FDP speedup over no-FDP/no-prefetch (Fig. 6a).
const PAPER_FDP_SPEEDUP_PCT: f64 = 41.0;

const USAGE: &str = "usage: fdip-perfbench --workload <paper_sweep|fdp_cell> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       \
                     fdip-perfbench record-reference";

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Directory for traces and result documents (git-ignored).
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("unit") => child_unit(&args[1..]),
        Some("traced") => child_traced(&args[1..]),
        Some("record-reference") => record_reference(&args[1..]),
        _ => bench(&args),
    }
}

/// Parses a child's `<workload> <n>...` arguments.
fn child_args<const N: usize>(args: &[String]) -> (Workload, [u64; N]) {
    let (w, nums) = match args.split_first() {
        Some((w, nums)) if nums.len() == N => (w, nums),
        _ => usage_exit("bad child arguments"),
    };
    let w = Workload::parse(w).unwrap_or_else(|| usage_exit("unknown workload"));
    let nums = std::array::from_fn(|i| {
        nums[i]
            .parse()
            .unwrap_or_else(|_| usage_exit("bad child argument"))
    });
    (w, nums)
}

/// Repetition `index` of an untraced run with `seed`; prints its record
/// as one JSON line.
fn child_unit(args: &[String]) {
    let (w, [seed, index]) = child_args(args);
    let input = w.unit_input(seed, index);
    let mut rec = match w {
        Workload::PaperSweep => unit::sweep_unit(seed, Spans(None)).0,
        Workload::FdpCell => unit::cell_unit(w, input, Spans(None)).0,
    };
    rec.peak_rss_mb = unit::peak_rss_mb();
    println!("{}", rec.to_json().to_string());
}

/// One traced run; writes the Chrome trace and prints the record, the
/// per-layer metrics and the cost terms as one JSON line.
fn child_traced(args: &[String]) {
    let (w, [seed]) = child_args(args);
    let spans = SpanRecorder::new();
    let mut traced = layers::traced_run(w, seed, &spans);
    traced.record.peak_rss_mb = unit::peak_rss_mb();
    // `SpanRecorder::write` keeps only alphanumerics and dashes.
    let grid_id = format!("{}-seed{seed}", w.name().replace('_', "-"));
    let trace_path = match spans.write(&out_dir(), &grid_id) {
        Ok(()) => out_dir()
            .join(format!("grid-{grid_id}.json"))
            .display()
            .to_string(),
        Err(e) => {
            traced.record.failed += 1;
            traced.record.attempted += 1;
            traced
                .record
                .notes
                .push(format!("cannot write the trace: {e}"));
            String::new()
        }
    };
    let mut metrics = Json::obj();
    for (k, v) in &traced.metrics {
        metrics.set(k, *v);
    }
    let terms = traced
        .cost_terms
        .iter()
        .map(|&(name, count, ns)| {
            Json::obj()
                .with("name", name)
                .with("count", count)
                .with("ns_per_op", ns)
        })
        .collect();
    let doc = Json::obj()
        .with("record", traced.record.to_json())
        .with("unit_wall_s", traced.unit_wall_s)
        .with("metrics", metrics)
        .with("cost_terms", Json::Arr(terms))
        .with("trace_path", trace_path);
    println!("{}", doc.to_string());
}

/// Runs a child of this binary and parses the JSON on its last stdout
/// line.
fn spawn_child(mode: &str, w: Workload, nums: &[u64]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([mode, w.name()])
        .args(nums.iter().map(u64::to_string))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {mode}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("{mode} child printed no result: {e}"))
}

/// Cells one unit of `w` attempts, charged as failed when its child
/// process dies.
fn unit_cells(w: Workload) -> u64 {
    match w {
        Workload::PaperSweep => experiments::all()
            .iter()
            .map(|e| reference::reference().cells(e.id).unwrap_or(1))
            .sum(),
        Workload::FdpCell => 1,
    }
}

fn crashed_unit(w: Workload, err: String) -> UnitRecord {
    let cells = unit_cells(w);
    UnitRecord {
        wall_s: f64::NAN,
        run_s: f64::NAN,
        peak_rss_mb: f64::NAN,
        attempted: cells,
        failed: cells,
        notes: vec![err],
        ..UnitRecord::default()
    }
}

/// Repetition `index` of a run with `seed`, in a fresh process.
fn run_unit(w: Workload, seed: u64, index: u64) -> UnitRecord {
    spawn_child("unit", w, &[seed, index])
        .and_then(|j| UnitRecord::from_json(&j).ok_or_else(|| "malformed unit record".into()))
        .unwrap_or_else(|e| crashed_unit(w, e))
}

/// First and third quartile (linear interpolation between order
/// statistics, as Python's `statistics.quantiles` does by default).
fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |p: f64| {
        let pos = (n as f64 + 1.0) * p;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (q(0.25), q(0.75))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, CPU model, compiler and revision of the measuring host.
fn host_fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let git = command_line("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    Json::obj()
        .with("nproc", nproc)
        .with("cpu", cpu)
        .with("rustc", rustc)
        .with("git_revision", git)
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        workload: Workload::PaperSweep,
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage_exit(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => o.seed = value.parse().unwrap_or_else(|_| usage_exit("bad --seed")),
            "--seconds" => {
                o.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage_exit("bad --seconds"))
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_exit("--trace takes 0 or 1"),
                }
            }
            _ => usage_exit(&format!("unknown argument {flag}")),
        }
    }
    o.workload = workload.unwrap_or_else(|| usage_exit("--workload is required"));
    o
}

fn bench(args: &[String]) {
    let o = parse_options(args);
    let w = o.workload;
    let host = host_fingerprint();
    println!("host: {}", host.to_string());
    let programs: Vec<String> = w
        .programs(w.unit_input(o.seed, 0))
        .iter()
        .map(|p| format!("{} (generator seed {})", p.name, p.params.seed))
        .collect();
    println!(
        "workload: {} seed={} first unit's programs=[{}]",
        w.name(),
        o.seed,
        programs.join(", ")
    );

    let mut units: Vec<UnitRecord> = Vec::new();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if o.trace {
        let untraced = run_unit(w, o.seed, 0);
        let traced = spawn_child("traced", w, &[o.seed]);
        match traced {
            Ok(doc) => {
                print_traced(&doc);
                if let Some(obj) = doc.get("metrics").and_then(Json::as_obj) {
                    for (k, v) in obj {
                        values.insert(k.clone(), v.as_f64().unwrap_or(f64::NAN));
                    }
                }
                let traced_wall = doc
                    .get("unit_wall_s")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                values.insert("trace.overhead_s".into(), traced_wall - untraced.wall_s);
                println!(
                    "trace.overhead_s: traced unit {traced_wall:.4} s - untraced unit {:.4} s",
                    untraced.wall_s
                );
                let rec = doc.get("record").and_then(UnitRecord::from_json);
                units
                    .push(rec.unwrap_or_else(|| crashed_unit(w, "malformed traced record".into())));
            }
            Err(e) => units.push(crashed_unit(w, e)),
        }
        units.push(untraced);
    } else {
        // Start another unit only if it should end within the budget,
        // after at least MIN_UNITS.
        let t0 = Instant::now();
        for index in 0.. {
            let t = Instant::now();
            units.push(run_unit(w, o.seed, index));
            let expected_end = (t0.elapsed() + t.elapsed()).as_secs_f64();
            if units.len() >= MIN_UNITS && expected_end > o.seconds {
                break;
            }
        }
        let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
        let setups: Vec<f64> = units.iter().flat_map(|u| u.setup_s.clone()).collect();
        let mips: Vec<f64> = units
            .iter()
            .map(|u| u.sim_instrs as f64 / u.run_s / 1e6)
            .collect();
        let rss: Vec<f64> = units.iter().map(|u| u.peak_rss_mb).collect();
        values.insert("setup_s".into(), median(&setups));
        values.insert("wall_s".into(), median(&walls));
        values.insert("sim_mips".into(), median(&mips));
        values.insert("peak_rss_mb".into(), median(&rss));
        let (q1, q3) = quartiles(&walls);
        println!(
            "wall_s: median={:.4} q1={q1:.4} q3={q3:.4} n={} (one unit = {})",
            values["wall_s"],
            walls.iter().filter(|x| !x.is_nan()).count(),
            match w {
                Workload::PaperSweep => "one full sweep",
                _ => "Simulator::new + Simulator::run of one cell",
            }
        );
        println!(
            "setup_s: median={:.4} over n={} program-build samples",
            values["setup_s"],
            setups.len()
        );
    }

    let attempted: u64 = units.iter().map(|u| u.attempted).sum();
    let failed: u64 = units.iter().map(|u| u.failed).sum();
    for note in units.iter().flat_map(|u| &u.notes) {
        println!("failure: {note}");
    }
    println!(
        "fail_frac: {failed}/{attempted} = {}",
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(s) = units.iter().find_map(|u| u.fdp_speedup_pct) {
        println!(
            "fdp_speedup: modelled {s:+.1}% vs paper {PAPER_FDP_SPEEDUP_PCT:+.1}% \
             (quick-suite geomean; a shape-level comparison, not a hardware validation)"
        );
    }

    let names = catalog::for_run(o.trace);
    let mut metrics = Json::obj();
    let mut all_finite = true;
    for (name, unit) in &names {
        let v = values.remove(name.as_str()).unwrap_or(f64::NAN);
        all_finite &= v.is_finite();
        metrics.set(name, Json::obj().with("value", v).with("unit", *unit));
    }
    assert!(
        values.is_empty(),
        "measured metrics missing from the catalog: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    let result = Json::obj()
        .with("correct", failed == 0 && all_finite)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    write_result_doc(&o, &host, &units, &result);
    println!("{}", result.to_string());
}

fn print_traced(doc: &Json) {
    if let Some(p) = doc.get("trace_path").and_then(Json::as_str) {
        println!("trace: {p}");
    }
    let metric = |k: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let run_s = metric("core.run_s");
    println!("cost model: sum of count x ns/op against core.run_s = {run_s:.4} s");
    let mut total = 0.0;
    for t in doc.get("cost_terms").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = t.get("name").and_then(Json::as_str).unwrap_or("?");
        let count = t.get("count").and_then(Json::as_u64).unwrap_or(0);
        let ns = t
            .get("ns_per_op")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let s = count as f64 * ns * 1e-9;
        total += s;
        println!(
            "  {name:36} {count:>10} x {ns:8.2} ns = {s:.4} s ({:.1}%)",
            100.0 * s / run_s
        );
    }
    println!(
        "  modelled {total:.4} s; residual {:.4} (core.cost_model_residual)",
        metric("core.cost_model_residual")
    );
}

/// Writes the full result with its provenance to `out/`.
fn write_result_doc(o: &Options, host: &Json, units: &[UnitRecord], result: &Json) {
    let doc = Json::obj()
        .with("host", host.clone())
        .with("workload", o.workload.name())
        .with("seed", o.seed)
        .with("seconds", o.seconds)
        .with("trace", o.trace)
        .with(
            "units",
            Json::Arr(units.iter().map(UnitRecord::to_json).collect()),
        )
        .with("result", result.clone());
    let path = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        o.workload.name(),
        o.seed,
        u8::from(o.trace)
    ));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.to_string_pretty()));
    match written {
        Ok(()) => println!("result document: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Prints a fresh `reference.tsv`: the digest of every input a run can
/// pick (the [`CELL_VARIANTS`] cell variants, each as the FDP cell and
/// as the traced run's EIP cell, and the sweep's stock suite) and the
/// cells each experiment asks for.
fn record_reference(args: &[String]) {
    if !args.is_empty() {
        usage_exit("record-reference takes no arguments");
    }
    println!("# kind\tname\tinput\tvalue (written by `fdip-perfbench record-reference`)");
    let w = Workload::FdpCell;
    for (name, cfg) in [(w.name(), w.cell_config()), (EIP_CELL, eip_config())] {
        for input in 0..CELL_VARIANTS {
            let program = w.programs(input)[0].build();
            let run = unit::run_cell(&cfg, &program, w.cell_lengths(), Spans(None))
                .unwrap_or_else(|msg| panic!("{name} input {input} panicked: {msg}"));
            assert!(run.violations.is_empty(), "{:?}", run.violations);
            println!(
                "{}",
                digest_line(name, input, reference::stats_digest(&run.stats))
            );
        }
    }
    let suite = Workload::PaperSweep.programs(SWEEP_INPUT);
    let (runner, pool) = unit::sweep_runner(build_all(&suite));
    for e in experiments::all() {
        let before = pool.stats().jobs_completed;
        let report = (e.run)(&runner);
        println!("{}", cells_line(e.id, pool.stats().jobs_completed - before));
        println!(
            "{}",
            digest_line(e.id, SWEEP_INPUT, reference::report_digest(&report))
        );
    }
}
