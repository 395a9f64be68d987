//! Root-suite mirror of the static-analysis gates, so a plain `cargo test`
//! from the workspace root fails on determinism/panic-safety violations
//! even when nobody runs the analyzer binary or clippy. The analyzer's
//! rules and surfaces run here directly; the rules that moved to clippy
//! are checked through their configuration, since `cargo test` does not
//! run clippy. See `crates/analyze` for the rule set and README for the
//! workflow.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_analyze::files::{find_workspace_root, FileKind, SourceFile};
use scp_analyze::{analyze_all, analyze_sources, surface::Surface};
use std::path::{Path, PathBuf};

/// The deny-level clippy lints that replaced the analyzer's
/// `panic-path`, `slice-index`, `wall-clock`, `env-entropy`,
/// `concurrency-primitive` and `unsafe-hygiene` line rules.
const MOVED_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "indexing_slicing",
    "disallowed_methods",
    "disallowed_types",
    "undocumented_unsafe_blocks",
];

/// Every path the retired `wall-clock`, `env-entropy` and
/// `concurrency-primitive` rules checked, by `clippy.toml` key.
const DISALLOWED: &[(&str, &[&str])] = &[
    (
        "disallowed-methods",
        &[
            "std::time::Instant::now",
            "std::time::Instant::elapsed",
            "std::time::SystemTime::now",
            "std::time::SystemTime::elapsed",
            "std::env::var",
            "std::env::var_os",
            "std::env::vars",
            "std::env::vars_os",
            "std::thread::spawn",
            "std::thread::scope",
            "std::thread::Scope::spawn",
            "std::thread::Builder::spawn",
            "std::thread::Builder::spawn_scoped",
        ],
    ),
    (
        "disallowed-types",
        &[
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
            "std::hash::RandomState",
        ],
    ),
];

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of TOML table `[name]`, up to the next header.
fn toml_table<'a>(text: &'a str, name: &str) -> Vec<(&'a str, &'a str)> {
    let header = format!("[{name}]");
    text.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim().trim_matches('"')))
        .collect()
}

/// The `path = "..."` entries of `clippy.toml` array `key = [ ... ]`.
fn clippy_paths<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|l| !l.starts_with(&format!("{key} = [")))
        .skip(1)
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| l.split("path = \"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

#[test]
fn static_analysis_gate() {
    let analysis = analyze_all(&root()).expect("analysis runs");
    assert!(
        analysis.report.deny_clean(),
        "static-analysis violations:\n{}",
        analysis.report.render_human(true)
    );
    let panic = &analysis.panic_surface;
    assert!(
        panic.no_regressions() && panic.in_sync(),
        "the panic surface in analyze-surface.json is out of sync; run \
         `cargo run -p scp-analyze -- --update-baseline`:\nadded: {}\nremoved: {}\ndrifted: {}",
        panic.added.join(", "),
        panic.removed.join(", "),
        panic.drifted.join(", ")
    );
}

#[test]
fn determinism_surface_gate() {
    // The taint-pass twin of the gate above: the committed determinism
    // surface must match what the call graph observes, and nothing may
    // have entered it.
    let surface = analyze_all(&root()).expect("analysis runs").det_surface;
    assert!(
        surface.no_regressions(),
        "pub fns entered the determinism surface:\n{}",
        surface.added.join("\n")
    );
    assert!(
        surface.in_sync(),
        "the determinism surface in analyze-surface.json is out of sync; run \
         `cargo run -p scp-analyze -- --update-baseline`:\nadded: {}\nremoved: {}",
        surface.added.join(", "),
        surface.removed.join(", ")
    );
}

#[test]
fn a_new_tainted_pub_fn_would_fail_the_deny_gate() {
    // Synthetic proof the gate has teeth: a pub fn reading a clock,
    // checked against the committed (empty) surface, is a deny-class
    // `nondet-taint` violation.
    let sources = vec![SourceFile::from_source(
        "crates/cluster/src/synthetic.rs",
        "pub fn leaky() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
    )];
    let analysis = analyze_sources(&sources, &Surface::default(), &Surface::default());
    assert!(
        !analysis.report.deny_clean(),
        "a fresh tainted pub fn must fail --deny"
    );
    assert!(analysis
        .report
        .violations
        .iter()
        .any(|f| f.rule == "nondet-taint"));
    assert!(!analysis.det_surface.no_regressions());
}

#[test]
fn a_ghost_surface_entry_would_fail_the_sync_gate() {
    // The reverse direction: a committed entry no function justifies
    // (e.g. left over after a fix) is drift, which --check-baseline
    // rejects until the surface is re-locked.
    let sources = vec![SourceFile::from_source(
        "crates/cluster/src/synthetic.rs",
        "pub fn clean() -> u64 { 1 }\n",
    )];
    let mut ghost = Surface::default();
    ghost
        .functions
        .insert("crates/cluster/src/synthetic.rs::gone".to_owned());
    let analysis = analyze_sources(&sources, &Surface::default(), &ghost);
    assert!(analysis.report.deny_clean(), "removals alone are not deny");
    assert!(!analysis.det_surface.in_sync(), "drift must fail sync");
    assert_eq!(analysis.det_surface.removed.len(), 1);
}

#[test]
fn moved_lints_are_denied_for_every_crate() {
    let root = root();
    let manifest = read(&root.join("Cargo.toml"));
    let levels = toml_table(&manifest, "workspace.lints.clippy");
    for lint in MOVED_LINTS {
        let level = levels.iter().find(|(k, _)| k == lint).map(|(_, v)| *v);
        assert!(
            matches!(level, Some("deny" | "forbid")),
            "clippy::{lint} must be deny in [workspace.lints.clippy], found {level:?}"
        );
    }
    let clippy = read(&root.join("clippy.toml"));
    for (key, paths) in DISALLOWED {
        let listed = clippy_paths(&clippy, key);
        for path in *paths {
            assert!(listed.contains(path), "clippy.toml `{key}` lost `{path}`");
        }
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let dir = entry.expect("crates/ entry").path();
        if dir.join("Cargo.toml").is_file() {
            manifests.push(dir.join("Cargo.toml"));
        }
    }
    assert!(manifests.len() > 10, "crate walk looks truncated");
    // scp-e2e is a workspace of its own and cannot opt in: CI denies the
    // moved lints on its clippy command line instead.
    let ci = read(&root.join(".github/workflows/ci.yml"));
    let e2e_step = ci
        .split("- name: ")
        .find(|step| step.contains("cargo clippy -q --manifest-path crates/bench/src/bin/scp-e2e"))
        .expect("CI lints scp-e2e");
    for lint in MOVED_LINTS {
        assert!(
            e2e_step.contains(&format!("-D clippy::{lint} ")),
            "CI's scp-e2e clippy step does not deny clippy::{lint}"
        );
    }
    for path in manifests {
        let opted_in = toml_table(&read(&path), "lints").contains(&("workspace", "true"));
        assert!(
            opted_in,
            "{} does not opt into the workspace lints",
            path.display()
        );
    }
}

/// The clippy lint groups that hold a moved lint (`restriction` the panic,
/// indexing and unsafe lints, `style` and `all` the disallowed paths): an
/// allow of one overrides the workspace deny as surely as the lint's name.
const MOVED_LINT_GROUPS: &[&str] = &["restriction", "style", "all"];

/// `path:line` of every attribute in library or binary code, outside
/// `#[cfg(test)]`, that suppresses a moved lint other than by an
/// item-level `#[expect]` with a reason: any `allow`, any crate- or
/// file-wide `#![...]`, and any attribute naming a group that holds one.
fn moved_lint_suppressions(sources: &[SourceFile]) -> Vec<String> {
    let mut offenders = Vec::new();
    for file in sources
        .iter()
        .filter(|f| matches!(f.kind, FileKind::Library | FileKind::Binary))
    {
        let code = &file.masked.code;
        for opener in ["#[allow(", "#![allow(", "#![expect(", "#[expect("] {
            for (at, _) in code.match_indices(opener) {
                let line = code.get(..at).map_or(0, |s| s.matches('\n').count()) + 1;
                let attr = code.get(at..).and_then(|s| s.split(")]").next());
                let names: Vec<&str> = attr
                    .unwrap_or_default()
                    .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                    .collect();
                let named = |lints: &[&str]| {
                    lints
                        .iter()
                        .any(|l| names.contains(&format!("clippy::{l}").as_str()))
                };
                let reasoned = opener == "#[expect(" && names.contains(&"reason");
                let bad = named(MOVED_LINT_GROUPS) || (named(MOVED_LINTS) && !reasoned);
                if bad && !file.is_test_line(line) {
                    offenders.push(format!("{}:{line}", file.rel_path));
                }
            }
        }
    }
    offenders
}

#[test]
fn moved_lint_suppressions_in_library_code_are_item_expects() {
    // A suppression of a moved lint must be an item-level `#[expect]`
    // with a reason, so an unneeded one fails clippy.
    let sources = scp_analyze::files::collect_sources(&root()).expect("sources load");
    let offenders = moved_lint_suppressions(&sources);
    assert!(
        offenders.is_empty(),
        "moved lints suppressed by allow, file-wide, group or reasonless attributes: {offenders:?}"
    );
}

#[test]
fn seeded_moved_lint_suppressions_are_caught() {
    let lib = |src: &str| {
        vec![SourceFile::from_source(
            "crates/cluster/src/synthetic.rs",
            src,
        )]
    };
    let item = "fn f(v: &[u8]) -> u8 { v[0] }\n";
    let expected =
        format!("#[expect(clippy::indexing_slicing, reason = \"v is non-empty\")]\n{item}");
    assert!(moved_lint_suppressions(&lib(&expected)).is_empty());
    for attr in [
        "#[allow(clippy::indexing_slicing)]",
        "#[expect(clippy::indexing_slicing)]",
        "#![expect(clippy::indexing_slicing, reason = \"r\")]",
        "#[allow(clippy::restriction)]",
        "#[expect(clippy::restriction, reason = \"r\")]",
        "#![allow(clippy::style)]",
        "#[allow(clippy::all)]",
    ] {
        let seeded = moved_lint_suppressions(&lib(&format!("{attr}\n{item}")));
        assert_eq!(seeded, ["crates/cluster/src/synthetic.rs:1"], "{attr}");
    }
    let test_roots = "#[cfg(test)]\n#[allow(clippy::restriction)]\nmod tests {}\n";
    assert!(moved_lint_suppressions(&lib(test_roots)).is_empty());
}
