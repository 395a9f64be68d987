//! Golden tests: one positive and one negative example per line rule,
//! every accepted `scp-allow` suppression form, and the site detectors
//! behind the panic surface and the taint pass. These pin down the rule
//! semantics the workspace relies on, so a lexer or rule-engine change
//! that silently widens or narrows a rule fails here first. Panic paths,
//! indexing, clock reads, entropy, threads and locks are clippy lints;
//! `crates/analyze/tests/fixtures/clippy_seeded.rs` seeds one violation
//! of each for CI.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_analyze::files::SourceFile;
use scp_analyze::rules::{check_file, panic_site_lines, taint_site_lines, Finding};

/// Runs the rule engine over `src` as if it were non-test library code in
/// `scp-sim` (a crate in scope for every rule).
fn findings(src: &str) -> Vec<Finding> {
    check_file(&SourceFile::from_source("crates/sim/src/golden.rs", src))
}

fn active_rules(src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings(src)
        .into_iter()
        .filter(|f| !f.suppressed)
        .map(|f| f.rule)
        .collect();
    rules.dedup();
    rules
}

/// Lines of `src` (as `scp-sim` library code) the panic surface counts.
fn panic_sites(src: &str) -> Vec<usize> {
    panic_site_lines(&SourceFile::from_source("crates/sim/src/golden.rs", src))
}

/// Lines of `src` (as `scp-sim` library code) that seed taint.
fn taint_sites(src: &str) -> Vec<usize> {
    taint_site_lines(&SourceFile::from_source("crates/sim/src/golden.rs", src))
        .into_iter()
        .map(|s| s.line)
        .collect()
}

// --- taint sources: wall clock and ambient entropy ----------------------

#[test]
fn golden_wall_clock_instant_now() {
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    assert_eq!(taint_sites(src), vec![1]);
}

#[test]
fn golden_wall_clock_elapsed() {
    let src = "fn f(t: std::time::Instant) -> f64 { t.elapsed().as_secs_f64() }\n";
    assert_eq!(taint_sites(src), vec![1]);
}

#[test]
fn golden_wall_clock_system_time_now() {
    let src = "fn f() { let _t = std::time::SystemTime::now(); }\n";
    assert_eq!(taint_sites(src), vec![1]);
}

#[test]
fn golden_wall_clock_type_position_ok() {
    let src = "fn f(deadline: std::time::Instant) -> bool { deadline.checked_add(D).is_some() }\n";
    assert!(taint_sites(src).is_empty());
    assert!(taint_sites("use std::time::Instant;\n").is_empty());
}

#[test]
fn golden_env_entropy_randomstate() {
    let src = "fn f() { let _s = std::collections::hash_map::RandomState::new(); }\n";
    assert_eq!(taint_sites(src), vec![1]);
    let src = "fn f(x: X) { let _h: HashMap<K, V, RandomState> = x; }\n";
    assert_eq!(taint_sites(src), vec![1]);
}

#[test]
fn golden_env_entropy_env_var() {
    let src = "fn f() -> Option<String> { std::env::var(\"SCP_SEED\").ok() }\n";
    assert_eq!(taint_sites(src), vec![1]);
    assert!(taint_sites("fn f() { let _a = std::env::args(); }\n").is_empty());
}

// --- unsafe-hygiene -----------------------------------------------------

#[test]
fn golden_unsafe_fn_without_safety_comment() {
    // Blocks and impls are clippy's `undocumented_unsafe_blocks`; the
    // declarations it does not check stay here.
    let src = "unsafe fn f(p: *const u8) -> u8 {\n\
               \x20   // SAFETY: the caller's contract makes p valid\n\
               \x20   unsafe { *p }\n\
               }\n";
    assert_eq!(active_rules(src), vec!["unsafe-hygiene"]);
}

#[test]
fn golden_unsafe_fn_with_safety_comment() {
    let src = "// SAFETY: callers pass a pointer valid for reads\n\
               unsafe fn f(p: *const u8) -> u8 {\n\
               \x20   *p\n\
               }\n";
    assert!(active_rules(src).is_empty());
}

#[test]
fn golden_unsafe_block_is_left_to_clippy() {
    let src = "fn f(p: *const u8) -> u8 {\n\
               \x20   unsafe { *p }\n\
               }\n";
    assert!(active_rules(src).is_empty());
}

#[test]
fn golden_static_mut_fires_everywhere() {
    // `static mut` has no whitelist — even the explorer may not use it.
    let src = "static mut COUNTER: u64 = 0;\n";
    assert_eq!(active_rules(src), vec!["unsafe-hygiene"]);
    let f = check_file(&SourceFile::from_source(
        "crates/analyze/src/interleave.rs",
        src,
    ));
    assert!(f.iter().any(|f| f.rule == "unsafe-hygiene"), "{f:?}");
}

// --- panic sites --------------------------------------------------------

#[test]
fn golden_panic_path_unwrap_expect_panic() {
    for stmt in ["x.unwrap();", "x.expect(\"boom\");", "panic!(\"boom\");"] {
        let src = format!("fn f(x: Option<u64>) {{ {stmt} }}\n");
        assert_eq!(panic_sites(&src), vec![1], "{stmt}");
    }
}

#[test]
fn golden_panic_path_skips_cfg_test() {
    let src = "fn live() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { Some(1).unwrap(); }\n\
               }\n";
    assert!(panic_sites(src).is_empty());
}

#[test]
fn golden_panic_path_skips_integration_tests() {
    let src = "fn t() { Some(1).unwrap(); }\n";
    let file = SourceFile::from_source("crates/sim/tests/golden.rs", src);
    assert!(panic_site_lines(&file).is_empty());
}

#[test]
fn golden_panic_path_expect_method_on_result_type_ok() {
    // `.expect(..)?` is a Result-returning helper (scp-json's parser), not
    // a panic.
    let src = "fn f(p: &mut P) -> Result<(), E> { p.expect(b'{')?; Ok(()) }\n";
    assert!(panic_sites(src).is_empty());
}

#[test]
fn golden_panic_path_in_comment_or_string_ok() {
    let src = "fn f() -> &'static str {\n\
               \x20   // calling unwrap() here would be wrong\n\
               \x20   \"do not unwrap() me\"\n\
               }\n";
    assert!(panic_sites(src).is_empty());
}

#[test]
fn golden_slice_index_direct() {
    let src = "fn f(v: &[u64]) -> u64 { v[0] }\n";
    assert_eq!(panic_sites(src), vec![1]);
}

#[test]
fn golden_slice_index_full_range_cannot_panic() {
    let src = "fn f() -> &'static [u64] { &[][..] }\n\
               fn g(v: &[u64]) -> &[u64] { &v[ .. ] }\n\
               fn h(v: &[u64], n: usize) -> &[u64] { &v[..n] }\n\
               fn k(v: &[u64]) -> &[u64] { &v[..=2] }\n";
    assert_eq!(panic_sites(src), vec![3, 4]);
}

#[test]
fn golden_slice_index_ignores_macros_attrs_types() {
    let src = "#[derive(Debug)]\n\
               struct S { xs: Vec<[u8; 4]> }\n\
               fn f() -> Vec<u64> { vec![1, 2, 3] }\n";
    assert!(panic_sites(src).is_empty());
}

// --- float-eq -----------------------------------------------------------

#[test]
fn golden_float_eq_literal_comparison() {
    let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
    assert_eq!(active_rules(src), vec!["float-eq"]);
}

#[test]
fn golden_float_eq_inequality() {
    let src = "fn f(x: f64) -> bool { x != 1.5 }\n";
    assert_eq!(active_rules(src), vec!["float-eq"]);
}

#[test]
fn golden_float_eq_integer_comparison_ok() {
    let src = "fn f(x: u64) -> bool { x == 0 }\n";
    assert!(active_rules(src).is_empty());
}

// --- ordering-comment ---------------------------------------------------

#[test]
fn golden_ordering_without_comment() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn f(a: &AtomicU64) -> u64 {\n\
               \x20   a.load(Ordering::Relaxed)\n\
               }\n";
    assert_eq!(active_rules(src), vec!["ordering-comment"]);
}

#[test]
fn golden_ordering_same_line_comment() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn f(a: &AtomicU64) -> u64 {\n\
               \x20   a.load(Ordering::Relaxed) // ORDERING: single-writer counter\n\
               }\n";
    assert!(active_rules(src).is_empty());
}

#[test]
fn golden_ordering_comment_block_above() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn f(a: &AtomicU64) -> u64 {\n\
               \x20   // ORDERING: relaxed is enough — this counter is\n\
               \x20   // monitoring-only and tolerates staleness.\n\
               \x20   a.load(Ordering::Relaxed)\n\
               }\n";
    assert!(active_rules(src).is_empty());
}

#[test]
fn golden_ordering_window_stops_at_code() {
    // A justification separated from the use by a code line does not count.
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn f(a: &AtomicU64) -> u64 {\n\
               \x20   // ORDERING: this comment is about the line below\n\
               \x20   let x = 1u64;\n\
               \x20   x + a.load(Ordering::Acquire)\n\
               }\n";
    assert_eq!(active_rules(src), vec!["ordering-comment"]);
}

#[test]
fn golden_ordering_exempt_file() {
    // The interleaving explorer matches on `Ordering` variants as data;
    // requiring a justification per match arm would be noise.
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn f(a: &AtomicU64) -> u64 {\n\
               \x20   a.load(Ordering::Relaxed)\n\
               }\n";
    let f = check_file(&SourceFile::from_source(
        "crates/analyze/src/interleave.rs",
        src,
    ));
    assert!(f.iter().all(|f| f.rule != "ordering-comment"), "{f:?}");
}

// --- narrow-cast --------------------------------------------------------

#[test]
fn golden_narrow_cast_u32() {
    let src = "fn f(x: u64) -> u32 { x as u32 }\n";
    assert_eq!(active_rules(src), vec!["narrow-cast"]);
}

#[test]
fn golden_narrow_cast_widening_ok() {
    let src = "fn f(x: u32) -> u64 { x as u64 }\n\
               fn g(x: u32) -> usize { x as usize }\n\
               fn h(x: u32) -> f64 { x as f64 }\n";
    assert!(active_rules(src).is_empty());
}

#[test]
fn golden_narrow_cast_try_from_ok() {
    let src = "fn f(x: u64) -> u32 { u32::try_from(x).unwrap_or(u32::MAX) }\n";
    assert!(active_rules(src).is_empty());
}

// --- suppression forms --------------------------------------------------

#[test]
fn golden_allow_on_preceding_line() {
    let src = "fn f(x: f64) -> bool {\n\
               \x20   // scp-allow(float-eq): exact zero is the sentinel\n\
               \x20   x == 0.0\n\
               }\n";
    let f = findings(src);
    assert!(f.iter().all(|f| f.suppressed), "{f:?}");
    assert_eq!(f.len(), 1, "finding still recorded, just suppressed");
}

#[test]
fn golden_allow_on_same_line() {
    let src = "fn f(x: f64) -> bool { x == 0.0 } // scp-allow(float-eq): exact sentinel\n";
    let f = findings(src);
    assert!(f.iter().all(|f| f.suppressed), "{f:?}");
}

#[test]
fn golden_allow_requires_reason() {
    let src = "fn f(x: f64) -> bool {\n\
               \x20   // scp-allow(float-eq)\n\
               \x20   x == 0.0\n\
               }\n";
    let rules = active_rules(src);
    assert!(rules.contains(&"invalid-pragma"), "{rules:?}");
    assert!(rules.contains(&"float-eq"), "not suppressed: {rules:?}");
}

#[test]
fn golden_allow_suppressing_nothing_is_flagged() {
    let src = "// scp-allow(float-eq): nothing here\nfn f() {}\n";
    assert_eq!(active_rules(src), vec!["unused-allow"]);
}

#[test]
fn golden_allow_only_covers_named_rule() {
    let src = "fn f(x: u64) -> bool {\n\
               \x20   // scp-allow(narrow-cast): masked to 32 bits above\n\
               \x20   x as u32 as f64 == 0.0\n\
               }\n";
    let f = findings(src);
    let active: Vec<_> = f.iter().filter(|f| !f.suppressed).map(|f| f.rule).collect();
    assert_eq!(active, vec!["float-eq"], "float-eq must survive: {f:?}");
}

#[test]
fn golden_allow_retired_rule_is_invalid() {
    // The rules that moved to clippy are suppressed by `#[expect]`; their
    // old pragma names no longer parse.
    for rule in [
        "panic-path",
        "slice-index",
        "wall-clock",
        "env-entropy",
        "concurrency-primitive",
        "hash-iteration",
    ] {
        let src = format!("// scp-allow({rule}): old form\nfn f() {{}}\n");
        assert_eq!(active_rules(&src), vec!["invalid-pragma"], "{rule}");
    }
}

#[test]
fn golden_allow_unknown_rule_is_invalid() {
    let src = "// scp-allow(no-such-rule): because\nfn f() {}\n";
    assert_eq!(active_rules(src), vec!["invalid-pragma"]);
}

#[test]
fn golden_allow_narrow_cast_preceding_line() {
    let src = "fn f(x: u64) -> u32 {\n\
               \x20   // scp-allow(narrow-cast): hash is pre-masked to 32 bits\n\
               \x20   x as u32\n\
               }\n";
    let f = findings(src);
    assert!(f.iter().all(|f| f.suppressed), "{f:?}");
    assert_eq!(f.len(), 1, "finding still recorded, just suppressed");
}

#[test]
fn golden_allow_ordering_comment_same_line() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) } \
               // scp-allow(ordering-comment): justified in the module doc\n";
    let f = findings(src);
    assert!(f.iter().all(|f| f.suppressed), "{f:?}");
}

#[test]
fn golden_allow_new_rule_requires_reason() {
    let src = "fn f(x: u64) -> u32 {\n\
               \x20   // scp-allow(narrow-cast)\n\
               \x20   x as u32\n\
               }\n";
    let rules = active_rules(src);
    assert!(rules.contains(&"invalid-pragma"), "{rules:?}");
    assert!(rules.contains(&"narrow-cast"), "not suppressed: {rules:?}");
}

#[test]
fn golden_allow_rule_names_are_known_to_the_meta_rules() {
    // A pragma that suppresses nothing is `unused-allow`, not
    // `invalid-pragma` — the name itself is recognized.
    for rule in [
        "float-eq",
        "ordering-comment",
        "narrow-cast",
        "unsafe-hygiene",
    ] {
        let src = format!("// scp-allow({rule}): nothing here\nfn f() {{}}\n");
        assert_eq!(active_rules(&src), vec!["unused-allow"], "{rule}");
    }
}
