//! Golden tests for the two call-graph flow passes: atomic
//! happens-before pairing (`atomic-unpaired`) and transitive
//! nondeterminism taint (`nondet-taint` + `DETERMINISM:` hygiene).
//! Same spirit as `golden_rules.rs`: each test pins one semantic the
//! workspace relies on, so a scanner or propagation change that widens
//! or narrows a pass fails here first.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_analyze::analyze_sources;
use scp_analyze::atomics;
use scp_analyze::files::SourceFile;
use scp_analyze::rules::Finding;
use scp_analyze::surface::Surface;
use scp_analyze::Analysis;

/// Runs only the atomics pairing pass over `src` as serve library code.
fn atomic_findings(src: &str) -> Vec<Finding> {
    atomics::check_file(&SourceFile::from_source("crates/serve/src/golden.rs", src))
}

/// Runs the whole merged pipeline (line rules + atomics + taint +
/// pragma application) over an explicit file set, against empty
/// committed surfaces — so every tainted pub fn is an "entered the
/// surface" finding.
fn pipeline(files: &[(&str, &str)]) -> Analysis {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(p, t)| SourceFile::from_source(p, t))
        .collect();
    analyze_sources(&sources, &Surface::default(), &Surface::default())
}

fn rules_of(findings: &[Finding], rule: &str) -> Vec<Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .cloned()
        .collect()
}

// --- atomic-unpaired ----------------------------------------------------

#[test]
fn golden_atomic_paired_release_acquire_clean() {
    let src = "\
pub struct Ring { tail: AtomicU64 }
impl Ring {
    pub fn push(&self) { self.tail.store(1, Ordering::Release); }
    pub fn read(&self) -> u64 { self.tail.load(Ordering::Acquire) }
}
";
    assert!(atomic_findings(src).is_empty());
}

#[test]
fn golden_atomic_release_store_without_acquire_reader() {
    let src = "\
pub struct Ring { tail: AtomicU64 }
impl Ring {
    pub fn push(&self) { self.tail.store(1, Ordering::Release); }
    pub fn read(&self) -> u64 { self.tail.load(Ordering::Relaxed) }
}
";
    let f = atomic_findings(src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 3);
    assert!(
        f[0].message.contains("publishes to nobody"),
        "{}",
        f[0].message
    );
}

#[test]
fn golden_atomic_acquire_load_on_relaxed_only_field() {
    let src = "\
pub struct Ring { head: AtomicU64 }
impl Ring {
    pub fn bump(&self) { self.head.store(1, Ordering::Relaxed); }
    pub fn read(&self) -> u64 { self.head.load(Ordering::Acquire) }
}
";
    let f = atomic_findings(src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 4);
    assert!(
        f[0].message.contains("synchronizes with nothing"),
        "{}",
        f[0].message
    );
}

#[test]
fn golden_atomic_mixed_seqcst_and_relaxed() {
    let src = "\
pub struct Flag { state: AtomicU64 }
impl Flag {
    pub fn set(&self) { self.state.store(1, Ordering::SeqCst); }
    pub fn peek(&self) -> u64 { self.state.load(Ordering::Relaxed) }
}
";
    let f = atomic_findings(src);
    assert!(
        f.iter().any(|f| f.message.contains("mixes SeqCst")),
        "{f:?}"
    );
}

#[test]
fn golden_atomic_acqrel_rmw_is_self_pairing() {
    // A fetch_add(AcqRel) is both the release write and the acquire read
    // of its field; alone it is a complete pair.
    let src = "\
pub fn count(total: &AtomicU64) -> u64 {
    total.fetch_add(1, Ordering::AcqRel)
}
";
    assert!(atomic_findings(src).is_empty());
}

#[test]
fn golden_atomic_shared_field_across_handle_types_pairs() {
    // The batch ring splits one atomic between a producer and a consumer
    // handle; pairing pools per (file, field name), so the Release side
    // in one impl pairs with the Acquire side in the other.
    let src = "\
pub struct Producer { closed: Arc<AtomicBool> }
pub struct Consumer { closed: Arc<AtomicBool> }
impl Producer {
    pub fn close(&self) { self.closed.store(true, Ordering::Release); }
}
impl Consumer {
    pub fn is_closed(&self) -> bool { self.closed.load(Ordering::Acquire) }
}
";
    assert!(atomic_findings(src).is_empty());
}

#[test]
fn golden_atomic_never_fires_in_cfg_test() {
    let src = "\
pub fn live() {}
#[cfg(test)]
mod tests {
    fn t(a: &AtomicU64) { a.store(1, Ordering::Release); }
}
";
    assert!(atomic_findings(src).is_empty());
}

#[test]
fn golden_atomic_exempt_interleave_file() {
    let src = "\
pub fn model(a: &AtomicU64) { a.store(1, Ordering::Release); }
";
    let f = atomics::check_file(&SourceFile::from_source(
        "crates/analyze/src/interleave.rs",
        src,
    ));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn golden_atomic_unresolved_receiver_never_accused() {
    // A closure parameter cannot be attributed to a field; skipping is
    // the sound polarity — no finding even though the store is unpaired.
    let src = "\
pub fn f(xs: &[AtomicU64]) {
    xs.iter().for_each(|c| {
        c.store(1, Ordering::Release);
    });
}
";
    assert!(atomic_findings(src).is_empty());
}

// --- nondet-taint -------------------------------------------------------

#[test]
fn golden_taint_two_hop_pub_fn_enters_surface() {
    let a = pipeline(&[(
        "crates/cluster/src/golden.rs",
        "pub fn top() -> f64 { mid() }\n\
         fn mid() -> f64 { read_clock() }\n\
         fn read_clock() -> f64 { let _t = std::time::Instant::now(); 0.0 }\n\
         pub fn clean() -> u64 { 1 }\n",
    )]);
    let taints = rules_of(&a.report.findings, "nondet-taint");
    assert_eq!(taints.len(), 1, "{taints:?}");
    assert_eq!(taints[0].line, 1, "anchored at the pub decl");
    assert!(
        taints[0].message.contains("top -> mid -> read_clock"),
        "{}",
        taints[0].message
    );
    assert_eq!(a.det_surface.added.len(), 1);
    assert!(a.det_surface.added[0].ends_with("::top"));
}

#[test]
fn golden_taint_whitelisted_wall_clock_still_seeds() {
    // runner.rs may read the clock (its `timed` carries an `#[expect]` for
    // clippy) — but the taint pass still follows the value.
    let a = pipeline(&[(
        "crates/sim/src/runner.rs",
        "pub fn timed() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
    )]);
    assert_eq!(rules_of(&a.report.findings, "nondet-taint").len(), 1);
}

#[test]
fn golden_taint_determinism_pragma_cuts_flow() {
    let a = pipeline(&[(
        "crates/cluster/src/golden.rs",
        "pub fn top() -> f64 { mid() }\n\
         fn mid() -> f64 {\n\
             // DETERMINISM: wall time is progress metadata, never a result\n\
             read_clock()\n\
         }\n\
         fn read_clock() -> f64 { let _t = std::time::Instant::now(); 0.0 }\n",
    )]);
    assert!(rules_of(&a.report.findings, "nondet-taint").is_empty());
    assert!(rules_of(&a.report.findings, "unused-allow").is_empty());
    assert!(a.det_surface.added.is_empty());
}

#[test]
fn golden_taint_pragma_without_reason_is_invalid() {
    let a = pipeline(&[(
        "crates/cluster/src/golden.rs",
        "pub fn f() -> f64 {\n\
             // DETERMINISM:\n\
             std::time::Instant::now().elapsed().as_secs_f64()\n\
         }\n",
    )]);
    let invalid = rules_of(&a.report.findings, "invalid-pragma");
    assert_eq!(invalid.len(), 1, "{invalid:?}");
    assert!(invalid[0].message.contains("non-empty reason"));
}

#[test]
fn golden_taint_pragma_outside_any_fn_is_invalid() {
    let a = pipeline(&[(
        "crates/cluster/src/golden.rs",
        "// DETERMINISM: nothing contains this comment\n\
         pub fn clean() -> u64 { 1 }\n",
    )]);
    let invalid = rules_of(&a.report.findings, "invalid-pragma");
    assert_eq!(invalid.len(), 1, "{invalid:?}");
    assert!(invalid[0].message.contains("outside any function"));
}

#[test]
fn golden_taint_pragma_laundering_nothing_is_unused() {
    let a = pipeline(&[(
        "crates/cluster/src/golden.rs",
        "pub fn clean() -> u64 {\n\
             // DETERMINISM: nothing nondeterministic happens here\n\
             1\n\
         }\n",
    )]);
    let unused = rules_of(&a.report.findings, "unused-allow");
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert!(unused[0].message.contains("launders nothing"));
}

#[test]
fn golden_taint_relaxed_load_seeds_but_rmw_does_not() {
    // A fully-Relaxed load reads a racing value; a Relaxed fetch_add
    // returns a value, but the modification order still totally orders
    // the additions, so only the load seeds taint.
    let a = pipeline(&[(
        "crates/cluster/src/golden.rs",
        "pub fn peek(a: &AtomicU64) -> u64 {\n\
             // ORDERING: monitoring-only counter read\n\
             a.load(Ordering::Relaxed)\n\
         }\n",
    )]);
    assert_eq!(rules_of(&a.report.findings, "nondet-taint").len(), 1);
    let b = pipeline(&[(
        "crates/cluster/src/golden.rs",
        "pub fn bump(a: &AtomicU64) {\n\
             // ORDERING: counter, aggregated after join\n\
             a.fetch_add(1, Ordering::Relaxed);\n\
         }\n",
    )]);
    assert!(rules_of(&b.report.findings, "nondet-taint").is_empty());
}

#[test]
fn golden_taint_hash_iteration_method_call() {
    let a = pipeline(&[(
        "crates/sim/src/golden.rs",
        "use std::collections::HashMap;\n\
         pub fn f() -> u64 {\n\
             let m: HashMap<u64, u64> = HashMap::new();\n\
             m.iter().map(|(k, v)| k ^ v).next().unwrap_or(0)\n\
         }\n",
    )]);
    let taints = rules_of(&a.report.findings, "nondet-taint");
    assert_eq!(taints.len(), 1, "{taints:?}");
    assert!(
        taints[0].message.contains("m.iter()"),
        "{}",
        taints[0].message
    );
}

#[test]
fn golden_taint_hash_iteration_for_loop() {
    let a = pipeline(&[(
        "crates/sim/src/golden.rs",
        "use std::collections::HashSet;\n\
         pub fn f(s: HashSet<u64>) -> Vec<u64> {\n\
             let mut out = Vec::new();\n\
             for k in &s { out.push(*k); }\n\
             out\n\
         }\n",
    )]);
    let taints = rules_of(&a.report.findings, "nondet-taint");
    assert_eq!(taints.len(), 1, "{taints:?}");
    assert!(
        taints[0].message.contains("for ... in s"),
        "{}",
        taints[0].message
    );
}

#[test]
fn golden_taint_btreemap_iteration_is_clean() {
    let a = pipeline(&[(
        "crates/sim/src/golden.rs",
        "use std::collections::BTreeMap;\n\
         pub fn f(m: BTreeMap<u64, u64>) -> u64 {\n\
             m.values().sum()\n\
         }\n",
    )]);
    assert!(rules_of(&a.report.findings, "nondet-taint").is_empty());
}

#[test]
fn golden_taint_hash_iteration_seeds_in_every_crate() {
    // Hash iteration seeds taint in every library crate, scp-json
    // included; iteration order taints the pub caller.
    let a = pipeline(&[(
        "crates/json/src/golden.rs",
        "use std::collections::HashMap;\n\
         pub fn dump(m: &HashMap<u64, u64>) -> Vec<u64> {\n\
             m.keys().copied().collect()\n\
         }\n",
    )]);
    assert_eq!(rules_of(&a.report.findings, "nondet-taint").len(), 1);
}

#[test]
fn golden_taint_hash_iteration_cut_by_determinism_pragma() {
    // The one form a justified hash iteration takes: a `DETERMINISM:` cut
    // in the function that reduces the order away.
    let a = pipeline(&[(
        "crates/cache/src/golden.rs",
        "use std::collections::HashSet;\n\
         pub fn kept(a: &HashSet<u64>, b: &HashSet<u64>) -> usize {\n\
             // DETERMINISM: reduced to a cardinality, which has no order\n\
             a.intersection(b).count()\n\
         }\n",
    )]);
    assert!(rules_of(&a.report.findings, "nondet-taint").is_empty());
    assert!(rules_of(&a.report.findings, "unused-allow").is_empty());
}

#[test]
fn golden_taint_private_sink_stays_off_the_surface() {
    // Taint that never reaches a pub fn is debt nobody exports; the
    // surface (and the deny gate) only count pub entry points.
    let a = pipeline(&[(
        "crates/cluster/src/golden.rs",
        "fn read_clock() -> f64 { let _t = std::time::Instant::now(); 0.0 }\n\
         pub fn clean() -> u64 { 1 }\n",
    )]);
    assert!(rules_of(&a.report.findings, "nondet-taint").is_empty());
    assert!(a.det_surface.added.is_empty());
}

#[test]
fn golden_taint_committed_surface_entry_is_not_a_finding() {
    // A pub fn already in the committed surface is known debt, not a
    // regression: no nondet-taint finding, and the report stays in sync.
    let sources = vec![SourceFile::from_source(
        "crates/cluster/src/golden.rs",
        "pub fn top() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
    )];
    let observed = analyze_sources(&sources, &Surface::default(), &Surface::default());
    let committed = observed.det_surface.observed.clone();
    let a = analyze_sources(&sources, &Surface::default(), &committed);
    assert!(rules_of(&a.report.findings, "nondet-taint").is_empty());
    assert!(a.det_surface.added.is_empty());
    assert!(a.det_surface.in_sync());
}

// --- suppression forms for the flow rules -------------------------------

#[test]
fn golden_allow_atomic_unpaired_same_line() {
    let src = "\
pub struct Ring { tail: AtomicU64 }
impl Ring {
    pub fn push(&self) {
        // ORDERING: paired with the consumer crate's acquire
        // scp-allow(atomic-unpaired): reader lives in the sibling module
        self.tail.store(1, Ordering::Release);
    }
}
";
    let a = pipeline(&[("crates/serve/src/golden.rs", src)]);
    let unpaired = rules_of(&a.report.findings, "atomic-unpaired");
    assert_eq!(unpaired.len(), 1, "{unpaired:?}");
    assert!(unpaired[0].suppressed, "pragma must reach the atomics pass");
    assert!(rules_of(&a.report.findings, "unused-allow").is_empty());
}

#[test]
fn golden_allow_nondet_taint_on_decl_line() {
    let a = pipeline(&[(
        "crates/cluster/src/golden.rs",
        "// scp-allow(nondet-taint): clock value feeds a log line only\n\
         pub fn top() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
    )]);
    let taints = rules_of(&a.report.findings, "nondet-taint");
    assert_eq!(taints.len(), 1, "{taints:?}");
    assert!(taints[0].suppressed, "{taints:?}");
}

#[test]
fn golden_allow_flow_rule_names_are_known_to_the_meta_rules() {
    // A flow-rule pragma that suppresses nothing is `unused-allow`, not
    // `invalid-pragma` — both new names are registered.
    for rule in ["nondet-taint", "atomic-unpaired"] {
        let a = pipeline(&[(
            "crates/cluster/src/golden.rs",
            &format!("// scp-allow({rule}): nothing here\npub fn f() -> u64 {{ 1 }}\n"),
        )]);
        let rules: Vec<&str> = a
            .report
            .findings
            .iter()
            .filter(|f| !f.suppressed)
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, vec!["unused-allow"], "{rule}");
    }
}
