//! The `scp-analyze` command-line interface.
//!
//! ```text
//! scp-analyze [--root DIR] [--deny] [--check-baseline] [--update-baseline]
//!             [--json PATH|-] [--verbose]
//! ```
//!
//! Exit codes: `0` clean, `1` gate failure (`--deny` violations or
//! `--check-baseline` drift of the committed surfaces), `2` usage or I/O
//! error. `--update-baseline` re-locks both surfaces.

use scp_analyze::files::find_workspace_root;
use scp_analyze::surface::SURFACE_FILE;
use scp_analyze::{analyze_all, store_surface};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: Option<PathBuf>,
    deny: bool,
    check_baseline: bool,
    update_baseline: bool,
    json: Option<String>,
    verbose: bool,
}

const USAGE: &str = "usage: scp-analyze [--root DIR] [--deny] [--check-baseline] \
[--update-baseline] [--json PATH|-] [--verbose]";

fn parse_opts(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        deny: false,
        check_baseline: false,
        update_baseline: false,
        json: None,
        verbose: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let dir = args.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--deny" => opts.deny = true,
            "--check-baseline" => opts.check_baseline = true,
            "--update-baseline" => opts.update_baseline = true,
            "--json" => {
                opts.json = Some(args.next().ok_or("--json needs a path (or `-`)")?);
            }
            "--verbose" | "-v" => opts.verbose = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_opts(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let start = opts.root.clone().unwrap_or_else(|| PathBuf::from("."));
    let Some(root) = find_workspace_root(&start) else {
        eprintln!(
            "scp-analyze: no workspace Cargo.toml found above {}",
            start.display()
        );
        return ExitCode::from(2);
    };

    let analysis = match analyze_all(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scp-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.update_baseline {
        if let Err(e) = store_surface(&root, &analysis) {
            eprintln!("scp-analyze: writing {SURFACE_FILE}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "scp-analyze: wrote {SURFACE_FILE} ({} panic-reachable, {} taint-reachable pub fns)",
            analysis.panic_surface.observed.functions.len(),
            analysis.det_surface.observed.functions.len()
        );
        // Violations of deny rules still gate below even after an update.
    }
    let report = analysis.report;
    let surface = analysis.panic_surface;
    let det = analysis.det_surface;

    match opts.json.as_deref() {
        Some("-") => println!("{}", report.render_json().to_pretty_string()),
        Some(path) => {
            if let Err(e) = std::fs::write(path, report.render_json().to_pretty_string()) {
                eprintln!("scp-analyze: writing {path}: {e}");
                return ExitCode::from(2);
            }
            print!("{}", report.render_human(opts.verbose));
        }
        None => print!("{}", report.render_human(opts.verbose)),
    }

    // Keep stdout pure JSON under `--json -`.
    if opts.json.as_deref() != Some("-") {
        println!(
            "panic surface: {} of {} pub fns reach a panic site ({} fns, {} edges in the call graph)",
            surface.observed.functions.len(),
            surface.observed.summary.values().map(|c| c.pub_fns).sum::<u64>(),
            surface.fn_count,
            surface.edge_count,
        );
        if opts.verbose {
            for (name, c) in &surface.observed.summary {
                println!(
                    "  {:28} {:3} reachable / {:3} pub",
                    name, c.reachable, c.pub_fns
                );
            }
        }
        for id in &surface.added {
            println!("  entered the panic surface: {id}");
        }
        for id in &surface.removed {
            println!("  left the panic surface (re-lock with --update-baseline): {id}");
        }
        for line in &surface.drifted {
            println!("  panic surface summary drifted (re-lock with --update-baseline): {line}");
        }
        println!(
            "determinism surface: {} of {} pub fns reachable by nondeterminism",
            det.observed.functions.len(),
            det.observed
                .summary
                .values()
                .map(|c| c.pub_fns)
                .sum::<u64>(),
        );
        if opts.verbose {
            for (name, c) in &det.observed.summary {
                println!(
                    "  {:28} {:3} tainted   / {:3} pub",
                    name, c.reachable, c.pub_fns
                );
            }
        }
        // Entries into the determinism surface already gate through
        // `--deny` as `nondet-taint` findings; only drift is reported
        // here.
        for id in &det.removed {
            println!("  left the determinism surface (re-lock with --update-baseline): {id}");
        }
        for line in &det.drifted {
            println!(
                "  determinism surface summary drifted (re-lock with --update-baseline): {line}"
            );
        }
    }

    let mut failed = false;
    if opts.deny && !report.deny_clean() {
        eprintln!(
            "scp-analyze: --deny: {} violation(s)",
            report.violations.len()
        );
        failed = true;
    }
    if opts.deny && !opts.update_baseline && !surface.no_regressions() {
        eprintln!(
            "scp-analyze: --deny: {} pub fn(s) entered the panic surface",
            surface.added.len()
        );
        failed = true;
    }
    let drift =
        |r: &scp_analyze::surface::SurfaceReport| r.added.len() + r.removed.len() + r.drifted.len();
    if opts.check_baseline && !opts.update_baseline && !(surface.in_sync() && det.in_sync()) {
        eprintln!(
            "scp-analyze: --check-baseline: {SURFACE_FILE} out of sync ({} difference(s))",
            drift(&surface) + drift(&det)
        );
        failed = true;
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
