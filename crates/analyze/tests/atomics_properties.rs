//! Seeded randomized properties of the atomic-access indexer.
//!
//! The pairing pass ([`scp_analyze::atomics`]) is only as sound as its
//! extraction: accesses must be attributed to the right field, at the
//! right line, from the code mask only, and never from test code. These
//! tests generate random struct/impl files — atomic fields, random
//! ops/orderings, decoy accesses buried in comments and strings, and
//! `#[cfg(test)]` regions — with the workspace's own deterministic
//! Xoshiro256** (any failure reproduces exactly from the printed case
//! number).

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_analyze::atomics::{check_file, index_file, OpKind};
use scp_analyze::files::SourceFile;
use scp_workload::rng::{next_below, Rng, Xoshiro256StarStar};

const FIELDS: &[&str] = &["head", "tail", "seq", "closed", "quota", "epoch"];
const OPS: &[(&str, OpKind)] = &[
    ("load", OpKind::Load),
    ("store", OpKind::Store),
    ("swap", OpKind::Rmw),
    ("fetch_add", OpKind::Rmw),
    ("compare_exchange", OpKind::Rmw),
];
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One expected access the generator planted in real code.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Planted {
    field: &'static str,
    op: OpKind,
    orderings: Vec<&'static str>,
}

/// Renders one real access statement for `field`, returning the planted
/// expectation alongside.
fn access_stmt(rng: &mut dyn Rng, field: &'static str) -> (String, Planted) {
    let (name, op) = OPS[next_below(rng, OPS.len() as u64) as usize];
    let first = ORDERINGS[next_below(rng, ORDERINGS.len() as u64) as usize];
    match (name, op) {
        ("load", _) => (
            format!("        let _ = self.{field}.load(Ordering::{first});\n"),
            Planted {
                field,
                op,
                orderings: vec![first],
            },
        ),
        ("store", _) => (
            format!("        self.{field}.store(1, Ordering::{first});\n"),
            Planted {
                field,
                op,
                orderings: vec![first],
            },
        ),
        ("compare_exchange", _) => {
            let second = ORDERINGS[next_below(rng, ORDERINGS.len() as u64) as usize];
            (
                format!(
                    "        let _ = self.{field}.compare_exchange(\n\
                     \x20           0,\n\
                     \x20           1,\n\
                     \x20           Ordering::{first},\n\
                     \x20           Ordering::{second},\n\
                     \x20       );\n"
                ),
                Planted {
                    field,
                    op,
                    orderings: vec![first, second],
                },
            )
        }
        (name, op) => (
            format!("        let _ = self.{field}.{name}(1, Ordering::{first});\n"),
            Planted {
                field,
                op,
                orderings: vec![first],
            },
        ),
    }
}

/// A decoy that must never be indexed: the same access text buried in a
/// comment, a string, or a doc comment.
fn decoy_stmt(rng: &mut dyn Rng, field: &str) -> String {
    let core = format!("self.{field}.store(1, Ordering::Release)");
    match next_below(rng, 4) {
        0 => format!("        // decoy: {core}\n"),
        1 => format!("        /* {core} */\n"),
        2 => format!("        let _s = \"{core}\";\n"),
        _ => format!("    /// doc decoy: {core}\n"),
    }
}

/// Builds one random file plus the list of accesses actually planted in
/// live code, in source order.
fn random_file(rng: &mut dyn Rng) -> (String, Vec<Planted>) {
    let n_fields = 1 + next_below(rng, FIELDS.len() as u64 - 1) as usize;
    let mut src = String::from("use std::sync::atomic::{AtomicU64, Ordering};\n");
    src.push_str("pub struct Gen {\n");
    for field in &FIELDS[..n_fields] {
        src.push_str(&format!("    {field}: AtomicU64,\n"));
    }
    src.push_str("}\nimpl Gen {\n");
    let mut planted = Vec::new();
    let stmts = 1 + next_below(rng, 8) as usize;
    for s in 0..stmts {
        src.push_str(&format!("    pub fn m{s}(&self) {{\n"));
        let field = FIELDS[next_below(rng, n_fields as u64) as usize];
        if next_below(rng, 3) == 0 {
            src.push_str(&decoy_stmt(rng, field));
        } else {
            let (stmt, p) = access_stmt(rng, field);
            src.push_str(&stmt);
            planted.push(p);
        }
        src.push_str("    }\n");
    }
    src.push_str("}\n");
    if next_below(rng, 2) == 0 {
        // A test module full of accesses the pass must ignore.
        src.push_str(
            "#[cfg(test)]\nmod tests {\n    use super::*;\n    #[test]\n    fn t() {\n\
             \x20       let g = Gen { head: AtomicU64::new(0) };\n\
             \x20       g.head.store(1, Ordering::Release);\n\
             \x20       let _ = g.head.load(Ordering::Relaxed);\n\
             \x20   }\n}\n",
        );
    }
    (src, planted)
}

fn file_of(src: &str) -> SourceFile {
    SourceFile::from_source("crates/serve/src/generated.rs", src)
}

#[test]
fn prop_indexer_sees_exactly_the_planted_accesses() {
    // Mask alignment: decoys in comments/strings are invisible, planted
    // accesses are all found with the right field, op and orderings.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA70_0001);
    for case in 0..500 {
        let (src, planted) = random_file(&mut rng);
        let ix = index_file(&file_of(&src));
        let live: Vec<_> = ix.accesses.iter().filter(|a| !a.in_test).collect();
        assert_eq!(
            live.len(),
            planted.len(),
            "case {case}: indexed {live:?}\nfrom\n{src}"
        );
        for (a, p) in live.iter().zip(&planted) {
            assert_eq!(a.field.as_deref(), Some(p.field), "case {case}:\n{src}");
            assert_eq!(a.op, p.op, "case {case}");
            let got: Vec<&str> = a.orderings.iter().map(|o| o.name()).collect();
            assert_eq!(got, p.orderings, "case {case}");
            // The reported line really carries the access (mask alignment):
            // for multi-line calls it is the line of the method name.
            let line_text = src.lines().nth(a.line - 1).unwrap_or("");
            assert!(
                line_text.contains(&format!(".{}", method_of(p.op, &p.orderings))),
                "case {case}: line {} is {line_text:?}",
                a.line
            );
        }
    }
}

/// Maps a planted op back to the method-name substring its line carries.
fn method_of(op: OpKind, orderings: &[&str]) -> &'static str {
    match op {
        OpKind::Load => "load",
        OpKind::Store => "store",
        OpKind::Rmw if orderings.len() == 2 => "compare_exchange",
        OpKind::Rmw => "", // swap / fetch_add: the `.` check suffices
    }
}

#[test]
fn prop_field_keys_are_stable_under_reparse() {
    // Re-parsing the same text, or the same text shifted by a leading
    // comment line, must attribute every access to the same field key —
    // the pairing pools (and thus findings) may not depend on parse
    // incidentals.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA70_0002);
    for case in 0..500 {
        let (src, _) = random_file(&mut rng);
        let a = index_file(&file_of(&src));
        let b = index_file(&file_of(&src));
        let key = |ix: &scp_analyze::atomics::FileAtomics| {
            ix.accesses
                .iter()
                .map(|a| (a.line, a.field.clone(), a.op, a.orderings.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b), "case {case}: re-parse drifted");
        assert_eq!(a.fields, b.fields, "case {case}: field index drifted");

        let shifted_src = format!("// generated case {case}\n{src}");
        let shifted = index_file(&file_of(&shifted_src));
        let unshift = |ix: &scp_analyze::atomics::FileAtomics, by: usize| {
            ix.accesses
                .iter()
                .map(|a| (a.line - by, a.field.clone(), a.op, a.orderings.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            key(&a),
            unshift(&shifted, 1),
            "case {case}: a leading comment changed attribution\n{src}"
        );
    }
}

#[test]
fn prop_test_code_never_contributes() {
    // Everything inside `#[cfg(test)]` is indexed as in_test and the
    // pairing check stays silent even when the test accesses are wildly
    // unpaired.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA70_0003);
    for case in 0..500 {
        let n = 1 + next_below(&mut rng, 5) as usize;
        let mut body = String::new();
        for i in 0..n {
            let ord = ORDERINGS[next_below(&mut rng, ORDERINGS.len() as u64) as usize];
            body.push_str(&format!("        g.head.store({i}, Ordering::{ord});\n"));
        }
        let src = format!(
            "use std::sync::atomic::{{AtomicU64, Ordering}};\n\
             pub struct Gen {{ head: AtomicU64 }}\n\
             pub fn live() {{}}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
             \x20   use super::*;\n\
             \x20   #[test]\n\
             \x20   fn t() {{\n\
             \x20       let g = Gen {{ head: AtomicU64::new(0) }};\n\
             {body}\
             \x20   }}\n\
             }}\n"
        );
        let file = file_of(&src);
        let ix = index_file(&file);
        assert!(
            ix.accesses.iter().all(|a| a.in_test),
            "case {case}: a test access escaped: {:?}\n{src}",
            ix.accesses
        );
        assert!(
            check_file(&file).is_empty(),
            "case {case}: pairing fired on test code\n{src}"
        );
    }
}
