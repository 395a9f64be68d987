//! The tier-1 gate: the workspace itself must analyze clean.
//!
//! "Clean" means (a) zero deny-rule violations and zero ratchet
//! regressions beyond the committed `analyze-baseline.json`, and (b) the
//! committed baseline exactly matches what the analyzer observes (so a
//! debt *improvement* must be locked in with `--update-baseline` before
//! it can merge — the ratchet only turns one way).

use scp_analyze::analyze_workspace;
use scp_analyze::files::find_workspace_root;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("analyze crate lives inside the workspace")
}

#[test]
fn workspace_has_no_violations() {
    let report = analyze_workspace(&workspace_root()).expect("analysis runs");
    assert!(report.files_scanned > 50, "workspace walk looks truncated");
    assert!(
        report.deny_clean(),
        "static-analysis violations (fix them or add a justified \
         `// scp-allow(<rule>): <reason>`):\n{}",
        report.render_human(true)
    );
}

#[test]
fn committed_baseline_is_in_sync() {
    let report = analyze_workspace(&workspace_root()).expect("analysis runs");
    assert!(
        report.baseline_in_sync(),
        "analyze-baseline.json is out of sync with the tree; run \
         `cargo run -p scp-analyze -- --update-baseline` and commit the \
         result:\n{}",
        report.baseline_diff.join("\n")
    );
}

#[test]
fn committed_panic_surface_is_in_sync_and_never_grows() {
    // The set-based ratchet: a pub fn may leave the committed
    // `panic-surface.json` freely, but entering it (or drifting out of
    // sync) must be an explicit `--update-baseline` commit.
    let root = workspace_root();
    let surface = scp_analyze::analyze_panic_surface(&root).expect("call graph builds");
    assert!(
        surface.no_regressions(),
        "pub fns entered the panic surface:\n{}",
        surface.added.join("\n")
    );
    assert!(
        surface.in_sync(),
        "panic-surface.json is out of sync with the tree; run \
         `cargo run -p scp-analyze -- --update-baseline` and commit the \
         result:\nadded: {}\nremoved: {}",
        surface.added.join(", "),
        surface.removed.join(", ")
    );
}

#[test]
fn committed_determinism_surface_is_in_sync_and_never_grows() {
    // Same set-ratchet as the panic surface, for nondeterminism taint:
    // a pub fn entering `determinism-surface.json` fails the deny gate,
    // drift fails here, improvements re-lock with `--update-baseline`.
    let root = workspace_root();
    let surface = scp_analyze::analyze_det_surface(&root).expect("call graph builds");
    assert!(
        surface.no_regressions(),
        "pub fns entered the determinism surface:\n{}",
        surface.added.join("\n")
    );
    assert!(
        surface.in_sync(),
        "determinism-surface.json is out of sync with the tree; run \
         `cargo run -p scp-analyze -- --update-baseline` and commit the \
         result:\nadded: {}\nremoved: {}",
        surface.added.join(", "),
        surface.removed.join(", ")
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
    let surface = scp_analyze::analyze_det_surface(&root).expect("call graph builds");
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
    let surface = scp_analyze::analyze_panic_surface(&root).expect("call graph builds");
    let n = surface.observed.functions.len();
    assert!(n <= 115, "panic surface grew to {n} entries (cap 115)");
}

#[test]
fn new_analyzer_code_carries_no_ratcheted_debt() {
    // Everything added by the flow-aware analyzer (parser, call graph,
    // surface ratchet, interleaving explorer, taint and atomics passes)
    // was written index-free and unwrap-free; keep it that way.
    let report = analyze_workspace(&workspace_root()).expect("analysis runs");
    let fresh: Vec<_> = report
        .observed
        .counts
        .iter()
        .filter(|(file, _)| {
            [
                "crates/analyze/src/syntax.rs",
                "crates/analyze/src/callgraph.rs",
                "crates/analyze/src/surface.rs",
                "crates/analyze/src/interleave.rs",
                "crates/analyze/src/taint.rs",
                "crates/analyze/src/atomics.rs",
                "crates/analyze/src/lexer.rs",
                "crates/analyze/src/pragma.rs",
                "crates/analyze/src/files.rs",
                "crates/analyze/src/rules.rs",
            ]
            .contains(&file.as_str())
        })
        .collect();
    assert!(
        fresh.is_empty(),
        "new analyzer modules regained ratcheted debt: {fresh:?}"
    );
}

#[test]
fn scp_core_carries_no_ratcheted_debt() {
    // PR-2 burned scp-core's panic-safety debt to zero; keep it there.
    let report = analyze_workspace(&workspace_root()).expect("analysis runs");
    let core_debt: Vec<_> = report
        .observed
        .counts
        .iter()
        .filter(|(file, _)| file.starts_with("crates/core/"))
        .collect();
    assert!(
        core_debt.is_empty(),
        "scp-core regained ratcheted debt: {core_debt:?}"
    );
}
