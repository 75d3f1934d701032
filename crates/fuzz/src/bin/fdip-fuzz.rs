//! `fdip-fuzz` — seeded CFG workload fuzzer + differential-invariant
//! harness.
//!
//! ```text
//! fdip-fuzz run    [--seed N] [--count N] [--profile P] [--jobs N]
//!                  [--warmup N] [--measure N] [--inject MODE]
//!                  [--json PATH] [--cases DIR] [--shrink-trials N]
//! fdip-fuzz replay [--jobs N] [--warmup N] [--measure N] FILE...
//! fdip-fuzz corpus [--seed N] [--count N] [--out DIR]
//!                  [--warmup N] [--measure N]
//! ```
//!
//! `run` generates `count` programs from `seed`, runs the differential
//! config matrix, shrinks failures to minimized replayable cases, and
//! emits the deterministic Document 7 report. Exit code 1 when any
//! invariant is violated. `replay` re-runs saved cases (honest mode) and
//! fails on any violation. `corpus` regenerates the committed corpus:
//! shrunk-but-representative programs spanning all generator profiles.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use fdip_fuzz::{
    generate, program_fails, report_to_json, run_matrix, shrink, CaseFile, FuzzProfile, Inject,
    MatrixOptions, ReportMeta,
};
use fdip_program::cfg::{CfgProgram, Terminator};
use fdip_program::Program;

/// Most failing programs shrunk + written per run; shrinking re-runs the
/// full matrix per trial, so this bounds the tail of a bad campaign.
const MAX_SHRUNK_CASES: usize = 3;

struct RunArgs {
    seed: u64,
    count: u64,
    profile: FuzzProfile,
    opts: MatrixOptions,
    json: Option<PathBuf>,
    cases: Option<PathBuf>,
    shrink_trials: usize,
}

struct ReplayArgs {
    opts: MatrixOptions,
    files: Vec<PathBuf>,
}

struct CorpusArgs {
    seed: u64,
    count: u64,
    out: PathBuf,
    opts: MatrixOptions,
}

fn usage() -> String {
    "usage: fdip-fuzz run [--seed N] [--count N] [--profile tiny|small|mixed|large] \
     [--jobs N] [--warmup N] [--measure N] [--inject stall-leak|ledger-drop] \
     [--json PATH] [--cases DIR] [--shrink-trials N]\n\
     \x20      fdip-fuzz replay [--jobs N] [--warmup N] [--measure N] FILE...\n\
     \x20      fdip-fuzz corpus [--seed N] [--count N] [--out DIR] [--warmup N] [--measure N]"
        .to_string()
}

fn parse_u64(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: bad number `{v}`"))
}

fn parse_common(
    a: &str,
    it: &mut impl Iterator<Item = String>,
    opts: &mut MatrixOptions,
) -> Result<bool, String> {
    match a {
        "--jobs" => opts.jobs = parse_u64(it, a)?.max(1) as usize,
        "--warmup" => opts.warmup = parse_u64(it, a)?,
        "--measure" => opts.measure = parse_u64(it, a)?,
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_run(it: &mut impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        seed: 0,
        count: 64,
        profile: FuzzProfile::Mixed,
        opts: MatrixOptions::default(),
        json: None,
        cases: None,
        shrink_trials: 200,
    };
    while let Some(a) = it.next() {
        if parse_common(&a, it, &mut args.opts)? {
            continue;
        }
        match a.as_str() {
            "--seed" => args.seed = parse_u64(it, "--seed")?,
            "--count" => args.count = parse_u64(it, "--count")?,
            "--shrink-trials" => args.shrink_trials = parse_u64(it, "--shrink-trials")? as usize,
            "--profile" => {
                let v = it.next().ok_or("--profile needs a value")?;
                args.profile =
                    FuzzProfile::from_name(&v).ok_or_else(|| format!("unknown profile `{v}`"))?;
            }
            "--inject" => {
                let v = it.next().ok_or("--inject needs a value")?;
                args.opts.inject =
                    Inject::from_name(&v).ok_or_else(|| format!("unknown inject mode `{v}`"))?;
            }
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or("--json needs a value")?)),
            "--cases" => {
                args.cases = Some(PathBuf::from(it.next().ok_or("--cases needs a value")?));
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn parse_replay(it: &mut impl Iterator<Item = String>) -> Result<ReplayArgs, String> {
    let mut args = ReplayArgs {
        opts: MatrixOptions::default(),
        files: Vec::new(),
    };
    while let Some(a) = it.next() {
        if parse_common(&a, it, &mut args.opts)? {
            continue;
        }
        if a.starts_with("--") {
            return Err(format!("unknown flag `{a}`\n{}", usage()));
        }
        args.files.push(PathBuf::from(a));
    }
    if args.files.is_empty() {
        return Err(format!("replay: no case files given\n{}", usage()));
    }
    Ok(args)
}

fn parse_corpus(it: &mut impl Iterator<Item = String>) -> Result<CorpusArgs, String> {
    let mut args = CorpusArgs {
        seed: 1,
        count: 24,
        out: PathBuf::from("tests/corpus"),
        opts: MatrixOptions::default(),
    };
    while let Some(a) = it.next() {
        if parse_common(&a, it, &mut args.opts)? {
            continue;
        }
        match a.as_str() {
            "--seed" => args.seed = parse_u64(it, "--seed")?,
            "--count" => args.count = parse_u64(it, "--count")?,
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

/// Bitmask of terminator kinds present — the "representativeness"
/// signature corpus shrinking must preserve.
fn kind_signature(p: &CfgProgram) -> u32 {
    let mut sig = 0u32;
    for blk in p.funcs.iter().flat_map(|f| &f.blocks) {
        sig |= 1
            << match blk.term {
                Terminator::FallThrough => 0,
                Terminator::Jump { .. } => 1,
                Terminator::Cond { .. } => 2,
                Terminator::Call { .. } => 3,
                Terminator::IndirectCall { .. } => 4,
                Terminator::IndirectJump { .. } => 5,
                Terminator::Return => 6,
            };
    }
    sig
}

fn cmd_run(args: &RunArgs) -> Result<ExitCode, String> {
    let params = args.profile.params();
    let programs: Vec<(String, u64, CfgProgram, Arc<Program>)> = (0..args.count)
        .map(|i| {
            let seed = args.seed.wrapping_add(i);
            let name = format!("fuzz_{}_{seed:08x}", args.profile.name());
            let cfg_prog = generate(&params, seed);
            let image = cfg_prog
                .emit(&name)
                .map_err(|e| format!("{name}: generator emitted invalid CFG: {e}"))?;
            Ok((name, seed, cfg_prog, Arc::new(image)))
        })
        .collect::<Result<_, String>>()?;
    let batch: Vec<(String, Arc<Program>)> = programs
        .iter()
        .map(|(n, _, _, p)| (n.clone(), Arc::clone(p)))
        .collect();
    let outcome = run_matrix(&batch, &args.opts);

    // Shrink the first few failing programs to replayable cases.
    let mut case_stems = Vec::new();
    for fail_name in outcome.failing_programs().iter().take(MAX_SHRUNK_CASES) {
        let (name, seed, cfg_prog, _) = programs
            .iter()
            .find(|(n, ..)| n == fail_name)
            .expect("failing program is in the batch");
        let mut reproduces = |cand: &CfgProgram| match cand.emit(name) {
            Ok(image) => program_fails(name, Arc::new(image), &args.opts),
            Err(_) => false,
        };
        let shrunk = shrink(cfg_prog, &mut reproduces, args.shrink_trials);
        eprintln!(
            "fdip-fuzz: {name} shrunk {} -> {} instrs",
            cfg_prog.instr_count(),
            shrunk.instr_count()
        );
        let case = CaseFile {
            seed: *seed,
            profile: args.profile.name().to_string(),
            inject: args.opts.inject.name().to_string(),
            violations: outcome
                .violations
                .iter()
                .filter(|v| &v.program == name)
                .map(|v| {
                    (
                        v.config.clone(),
                        v.violation.invariant.to_string(),
                        v.violation.detail.clone(),
                    )
                })
                .collect(),
            program: shrunk
                .emit(name)
                .map_err(|e| format!("{name}: shrunk CFG failed to emit: {e}"))?,
        };
        let stem = format!("case_{name}");
        if let Some(dir) = &args.cases {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("{stem}.json"));
            case.write(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("fdip-fuzz: wrote {}", path.display());
        }
        case_stems.push(stem);
    }

    let meta = ReportMeta {
        seed: args.seed,
        count: args.count,
        profile: args.profile.name().to_string(),
        cases: case_stems,
    };
    let report = report_to_json(&meta, &args.opts, &outcome);
    if let Some(path) = &args.json {
        fdip_telemetry::write_atomic(path, (report.to_string_pretty() + "\n").as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        println!("{}", report.to_string_pretty());
    }
    let failures = outcome.failing_programs().len();
    eprintln!(
        "fdip-fuzz: {} programs, {} sims, {} violations, {} failing",
        args.count,
        outcome.sims,
        outcome.violations.len(),
        failures
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_replay(args: &ReplayArgs) -> Result<ExitCode, String> {
    let mut failed = false;
    for path in &args.files {
        let case = CaseFile::read(path)?;
        let out = case.replay(&args.opts);
        if out.violations.is_empty() {
            eprintln!("fdip-fuzz: {}: clean ({} sims)", path.display(), out.sims);
        } else {
            failed = true;
            for v in &out.violations {
                eprintln!(
                    "fdip-fuzz: {}: [{}/{}] {}",
                    path.display(),
                    v.program,
                    v.config,
                    v.violation
                );
            }
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_corpus(args: &CorpusArgs) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut written = 0u64;
    for i in 0..args.count {
        let profile = FuzzProfile::ALL[(i as usize) % FuzzProfile::ALL.len()];
        let seed = args.seed.wrapping_add(i);
        let original = generate(&profile.params(), seed);
        // Shrink for compactness while keeping the program's terminator
        // mix, so the corpus stays representative of what it exercises.
        let sig = kind_signature(&original);
        let mut keeps_shape = |cand: &CfgProgram| kind_signature(cand) == sig;
        let shrunk = shrink(&original, &mut keeps_shape, 2_000);
        let name = format!("corpus_{}_{seed:08x}", profile.name());
        let image = shrunk
            .emit(&name)
            .map_err(|e| format!("{name}: corpus CFG failed to emit: {e}"))?;
        let out = run_matrix(&[(name.clone(), Arc::new(image.clone()))], &args.opts);
        if !out.violations.is_empty() {
            return Err(format!(
                "{name}: corpus candidate violates invariants: {:?}",
                out.violations[0].violation
            ));
        }
        let case = CaseFile {
            seed,
            profile: profile.name().to_string(),
            inject: "none".to_string(),
            violations: vec![],
            program: image,
        };
        let path = args.out.join(format!("{name}.json"));
        case.write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        written += 1;
    }
    eprintln!(
        "fdip-fuzz: wrote {written} corpus cases to {}",
        args.out.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1);
    let cmd = match it.next() {
        Some(c) => c,
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "run" => parse_run(&mut it).and_then(|a| cmd_run(&a)),
        "replay" => parse_replay(&mut it).and_then(|a| cmd_replay(&a)),
        "corpus" => parse_corpus(&mut it).and_then(|a| cmd_corpus(&a)),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}`\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fdip-fuzz: {e}");
            ExitCode::FAILURE
        }
    }
}
