//! `fdip-lint` — run the workspace static-analysis passes.
//!
//! ```text
//! fdip-lint [--root <dir>] [--allowlist <path>] [--json <path>]
//!           [--deny] [--list-passes] [--inject <pass>]
//! ```
//!
//! Prints one `file:line:col: [pass] severity: message` line per finding,
//! a summary, and optionally the versioned
//! `lint.json` document (Document 5 of `docs/METRICS.md`). With
//! `--deny`, exits non-zero when any error/warn finding lacks an
//! allowlist justification — the `scripts/verify.sh` gate.
//!
//! `--inject <pass>` is the detection-liveness harness: it splices the
//! named pass's registered bad construct into its target file (in
//! memory only) before linting, so a healthy pass *must* deny. CI runs
//! `--deny --inject <pass>` per pass and fails if the exit is zero.

use std::path::PathBuf;
use std::process::ExitCode;

use fdip_analysis::allow::Allowlist;
use fdip_analysis::report::Severity;
use fdip_analysis::{lint_workspace_with, passes, ALLOWLIST_PATH};

struct Args {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: Option<PathBuf>,
    deny: bool,
    list_passes: bool,
    inject: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        allowlist: None,
        json: None,
        deny: false,
        list_passes: false,
        inject: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a path")?),
            "--allowlist" => {
                args.allowlist = Some(PathBuf::from(it.next().ok_or("--allowlist needs a path")?))
            }
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?)),
            "--deny" => args.deny = true,
            "--list-passes" => args.list_passes = true,
            "--inject" => args.inject = Some(it.next().ok_or("--inject needs a pass id")?),
            "--help" | "-h" => {
                println!(
                    "usage: fdip-lint [--root <dir>] [--allowlist <path>] [--json <path>] \
                     [--deny] [--list-passes] [--inject <pass>]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fdip-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list_passes {
        for p in passes::registry() {
            println!("{:14} {}", p.id, p.description);
        }
        return ExitCode::SUCCESS;
    }
    let allow_path = args
        .allowlist
        .clone()
        .unwrap_or_else(|| args.root.join(ALLOWLIST_PATH));
    let allow_text = match std::fs::read_to_string(&allow_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            eprintln!("fdip-lint: reading {}: {e}", allow_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut allowlist = match Allowlist::parse(&allow_text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fdip-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(id) = &args.inject {
        eprintln!("fdip-lint: injecting the `{id}` mutation (in memory; no files change)");
    }
    let outcome = match lint_workspace_with(&args.root, &mut allowlist, args.inject.as_deref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fdip-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.findings {
        println!("{}", f.render());
    }
    let denied = outcome.denied().count();
    println!(
        "fdip-lint: {} files, {} errors, {} warnings, {} allowlisted, {} denied",
        outcome.files_scanned,
        outcome.count(Severity::Error),
        outcome.count(Severity::Warn),
        outcome.allowlisted(),
        denied
    );
    if let Some(path) = &args.json {
        let doc = outcome.to_json().to_string_pretty();
        if let Err(e) = fdip_telemetry::write_atomic(path, (doc + "\n").as_bytes()) {
            eprintln!("fdip-lint: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if args.deny && denied > 0 {
        eprintln!("fdip-lint: {denied} finding(s) denied (not allowlisted) — failing --deny");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
