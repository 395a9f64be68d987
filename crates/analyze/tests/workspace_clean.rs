//! The tier-1 gate: the workspace itself must analyze clean.
//!
//! "Clean" means (a) zero violations of the analyzer's rules, and (b)
//! both committed surfaces in `analyze-surface.json` exactly match what
//! the call graph observes (so an *improvement* must be locked in with
//! `--update-baseline` before it can merge — the ratchet only turns one
//! way).

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_analyze::analyze_all;
use scp_analyze::files::find_workspace_root;
use scp_analyze::surface::SurfaceReport;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("analyze crate lives inside the workspace")
}

#[test]
fn workspace_has_no_violations() {
    let report = analyze_all(&workspace_root())
        .expect("analysis runs")
        .report;
    assert!(report.files_scanned > 50, "workspace walk looks truncated");
    assert!(
        report.deny_clean(),
        "static-analysis violations (fix them or add a justified \
         `// scp-allow(<rule>): <reason>`):\n{}",
        report.render_human(true)
    );
}

fn assert_locked(name: &str, surface: &SurfaceReport) {
    assert!(
        surface.no_regressions(),
        "pub fns entered the {name} surface:\n{}",
        surface.added.join("\n")
    );
    assert!(
        surface.in_sync(),
        "the {name} surface in analyze-surface.json is out of sync with the tree; \
         run `cargo run -p scp-analyze -- --update-baseline` and commit the \
         result:\nadded: {}\nremoved: {}\ndrifted: {}",
        surface.added.join(", "),
        surface.removed.join(", "),
        surface.drifted.join(", ")
    );
}

#[test]
fn committed_panic_surface_is_in_sync_and_never_grows() {
    // The set-based ratchet: a pub fn may leave the committed panic
    // surface freely, but entering it (or drifting out of sync) must be
    // an explicit `--update-baseline` commit.
    assert_locked(
        "panic",
        &analyze_all(&workspace_root())
            .expect("analysis runs")
            .panic_surface,
    );
}

#[test]
fn committed_determinism_surface_is_in_sync_and_never_grows() {
    // Same set-ratchet for nondeterminism taint: a pub fn entering the
    // determinism surface fails the deny gate, drift fails here,
    // improvements re-lock with `--update-baseline`.
    assert_locked(
        "determinism",
        &analyze_all(&workspace_root())
            .expect("analysis runs")
            .det_surface,
    );
}

#[test]
fn determinism_surface_is_empty() {
    // PR-10 burned the surface to zero: every nondeterminism source
    // either got a real fix (the loadgen's pow_attempts orderings) or a
    // justified `// DETERMINISM:` laundering point. Keep it at zero —
    // this is stronger than the ratchet, which would tolerate re-locked
    // additions.
    let root = workspace_root();
    let surface = analyze_all(&root).expect("analysis runs").det_surface;
    assert!(
        surface.observed.functions.is_empty(),
        "pub fns reachable by unlaundered nondeterminism:\n{}",
        surface
            .observed
            .functions
            .iter()
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
    // In particular the three crates whose outputs feed journals and
    // reports are taint-free.
    for crate_name in ["scp-core", "scp-cluster", "scp-sim"] {
        let per = surface.observed.summary.get(crate_name);
        assert_eq!(
            per.map_or(0, |c| c.reachable),
            0,
            "{crate_name} carries determinism debt"
        );
    }
}

#[test]
fn panic_surface_stays_at_or_below_its_pr9_size() {
    // PR-10's trait-call precision fix plus the analyzer's own
    // slice-index burndown shrank the panic surface below its previous
    // 115 entries; the count must never silently climb back.
    let root = workspace_root();
    let surface = analyze_all(&root).expect("analysis runs").panic_surface;
    let n = surface.observed.functions.len();
    assert!(n <= 115, "panic surface grew to {n} entries (cap 115)");
}
