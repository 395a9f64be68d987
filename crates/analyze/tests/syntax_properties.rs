//! Seeded randomized properties of the brace-tree item parser.
//!
//! The parser promises totality and structural fidelity on the *code
//! mask*: comments and literal text never influence the item tree. These
//! tests generate random item forests (fns, mods, impls, structs, with
//! `#[cfg(test)]` sprinkled on preludes) around decoy text — commented-out
//! items, brace-bearing strings, raw strings — and assert four properties:
//!
//! 1. **recovery + cfg(test) agreement** — every generated fn is found
//!    exactly once, with the right qualified path, `pub`-ness and
//!    (inherited) `cfg_test` flag;
//! 2. **mask alignment** — fn spans index the code mask at the right
//!    places: body braces sit on the span's interior boundaries, the
//!    name is inside the span, and `lines` agrees with newline counts;
//! 3. **byte coverage** — top-level item spans are sorted, disjoint and
//!    cover every non-whitespace byte of the code mask;
//! 4. **idempotent re-parse** — parsing the code mask of the code mask
//!    yields the identical tree.
//!
//! The generator is the workspace's own deterministic Xoshiro256**, so
//! any failure reproduces exactly from the printed case number.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_analyze::lexer::mask;
use scp_analyze::syntax::{parse, ItemKind, ParsedFile};
use scp_workload::rng::{next_below, Rng, Xoshiro256StarStar};

/// What the generator promised to put in the file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Expect {
    qualified: String,
    is_pub: bool,
    cfg_test: bool,
}

/// Decoy lines that must not perturb the item tree: every one of them
/// mentions item keywords or braces inside comments or literals.
const DECOYS: &[&str] = &[
    "// fn decoy() { unbalanced {{",
    "/* mod fake { impl Fake { } */",
    "let _s = \"fn in_string(a: u64) -> u64 { a }\";",
    "let _r = r#\"struct InRaw { field: u64 }\"#;",
    "let _c = '{';",
    "/// fn doc_decoy() {}",
];

struct Gen<'a> {
    rng: &'a mut dyn Rng,
    src: String,
    expected: Vec<Expect>,
    counter: usize,
}

impl Gen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.src.push_str("    ");
        }
    }

    fn decoy_line(&mut self, depth: usize) {
        let i = next_below(self.rng, DECOYS.len() as u64) as usize;
        self.indent(depth);
        self.src
            .push_str(DECOYS.get(i).copied().unwrap_or("// decoy"));
        self.src.push('\n');
    }

    /// Emits one fn item and records the expectation.
    fn emit_fn(&mut self, path: &[String], inherited_test: bool, depth: usize) {
        let name = self.fresh("f");
        let own_test = next_below(self.rng, 5) == 0;
        let is_pub = next_below(self.rng, 2) == 0;
        if own_test {
            self.indent(depth);
            self.src.push_str("#[cfg(test)]\n");
        }
        if next_below(self.rng, 4) == 0 {
            self.indent(depth);
            self.src.push_str("#[inline]\n");
        }
        self.indent(depth);
        if is_pub {
            self.src.push_str("pub ");
        }
        self.src.push_str("fn ");
        self.src.push_str(&name);
        self.src.push_str("(v: u64) -> u64 {\n");
        let noise = next_below(self.rng, 3);
        for _ in 0..noise {
            self.decoy_line(depth + 1);
        }
        if next_below(self.rng, 3) == 0 {
            // Real nested braces in statement position.
            self.indent(depth + 1);
            self.src.push_str("if v > 1 { let _ = v; }\n");
        }
        self.indent(depth + 1);
        self.src.push_str("v + 1\n");
        self.indent(depth);
        self.src.push_str("}\n");
        let qualified = if path.is_empty() {
            name
        } else {
            format!("{}::{name}", path.join("::"))
        };
        self.expected.push(Expect {
            qualified,
            is_pub,
            cfg_test: inherited_test || own_test,
        });
    }

    /// Emits one item of any kind; recursion is bounded by `depth`.
    fn emit_item(&mut self, path: &mut Vec<String>, inherited_test: bool, depth: usize) {
        match next_below(self.rng, if depth < 2 { 6 } else { 3 }) {
            0 | 1 => self.emit_fn(path, inherited_test, depth),
            2 => {
                // A fn-free type item: must not contribute to `fns`.
                let name = self.fresh("S");
                self.indent(depth);
                self.src.push_str("struct ");
                self.src.push_str(&name);
                self.src.push_str(" { field: u64 }\n");
            }
            3 => {
                let name = self.fresh("m");
                let own_test = next_below(self.rng, 3) == 0;
                if own_test {
                    self.indent(depth);
                    self.src.push_str("#[cfg(test)]\n");
                }
                self.indent(depth);
                if next_below(self.rng, 2) == 0 {
                    self.src.push_str("pub ");
                }
                self.src.push_str("mod ");
                self.src.push_str(&name);
                self.src.push_str(" {\n");
                path.push(name);
                let n = 1 + next_below(self.rng, 2);
                for _ in 0..n {
                    self.emit_item(path, inherited_test || own_test, depth + 1);
                }
                path.pop();
                self.indent(depth);
                self.src.push_str("}\n");
            }
            _ => {
                let name = self.fresh("T");
                self.indent(depth);
                self.src.push_str("impl ");
                self.src.push_str(&name);
                self.src.push_str(" {\n");
                path.push(name);
                let n = 1 + next_below(self.rng, 2);
                for _ in 0..n {
                    self.emit_fn(path, inherited_test, depth + 1);
                }
                path.pop();
                self.indent(depth);
                self.src.push_str("}\n");
            }
        }
    }
}

/// Builds one random file and the list of fns it is expected to parse to.
fn random_file(rng: &mut dyn Rng) -> (String, Vec<Expect>) {
    let mut g = Gen {
        rng,
        src: String::new(),
        expected: Vec::new(),
        counter: 0,
    };
    let items = 2 + next_below(g.rng, 4);
    let mut path = Vec::new();
    for _ in 0..items {
        g.emit_item(&mut path, false, 0);
    }
    (g.src, g.expected)
}

fn sorted_fns(parsed: &ParsedFile) -> Vec<Expect> {
    let mut got: Vec<Expect> = parsed
        .fns
        .iter()
        .map(|f| Expect {
            qualified: f.qualified.clone(),
            is_pub: f.is_pub,
            cfg_test: f.cfg_test,
        })
        .collect();
    got.sort();
    got
}

#[test]
fn prop_parser_recovers_every_fn_with_cfg_test_agreement() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0011);
    for case in 0..500 {
        let (src, mut expected) = random_file(&mut rng);
        let parsed = parse(&mask(&src));
        expected.sort();
        assert_eq!(
            sorted_fns(&parsed),
            expected,
            "case {case}: fn recovery mismatch on\n{src}"
        );
    }
}

#[test]
fn prop_fn_spans_align_with_the_code_mask() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0012);
    for case in 0..500 {
        let (src, _) = random_file(&mut rng);
        let masked = mask(&src);
        let code = masked.code.as_bytes();
        let parsed = parse(&masked);
        for f in &parsed.fns {
            let (s, e) = f.span;
            assert!(s < e && e <= code.len(), "case {case}: span bounds {f:?}");
            let slice = masked.code.get(s..e).unwrap_or("");
            assert!(
                slice.contains(&format!("fn {}", f.name)),
                "case {case}: span misses header of {}",
                f.qualified
            );
            let (bs, be) = f.body.unwrap_or((0, 0));
            assert!(s < bs && be < e, "case {case}: body outside span {f:?}");
            assert_eq!(
                code.get(bs.wrapping_sub(1)).copied(),
                Some(b'{'),
                "case {case}: body start not after a brace {f:?}"
            );
            assert_eq!(
                code.get(be).copied(),
                Some(b'}'),
                "case {case}: body end not at a brace {f:?}"
            );
            // Line numbers agree with newline counts over the span.
            let text_start = s + slice.len() - slice.trim_start().len();
            let first = src
                .get(..text_start)
                .map(|p| p.matches('\n').count() + 1)
                .unwrap_or(0);
            let last = src
                .get(..e)
                .map(|p| p.matches('\n').count() + 1)
                .unwrap_or(0);
            assert_eq!(f.lines, (first, last), "case {case}: lines of {f:?}");
        }
    }
}

#[test]
fn prop_top_level_spans_cover_every_code_byte() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0013);
    for case in 0..500 {
        let (src, _) = random_file(&mut rng);
        let masked = mask(&src);
        let code = masked.code.as_bytes();
        let parsed = parse(&masked);
        let mut prev_end = 0usize;
        for item in &parsed.items {
            let (s, e) = item.span;
            assert!(
                s >= prev_end,
                "case {case}: overlapping top-level spans at {s}"
            );
            // The gap between consecutive items is whitespace-only.
            for (i, b) in code.get(prev_end..s).unwrap_or(&[]).iter().enumerate() {
                assert!(
                    b.is_ascii_whitespace(),
                    "case {case}: uncovered code byte {:?} at {}",
                    *b as char,
                    prev_end + i
                );
            }
            prev_end = e;
        }
        for (i, b) in code.get(prev_end..).unwrap_or(&[]).iter().enumerate() {
            assert!(
                b.is_ascii_whitespace(),
                "case {case}: uncovered trailing byte {:?} at {}",
                *b as char,
                prev_end + i
            );
        }
        assert_eq!(
            parsed
                .items
                .iter()
                .filter(|i| i.kind == ItemKind::Type)
                .flat_map(|i| i.children.iter())
                .count(),
            0,
            "case {case}: struct items must be leaves"
        );
    }
}

#[test]
fn prop_reparse_of_the_code_mask_is_identical() {
    // The code mask is itself valid "already-masked" input: re-masking and
    // re-parsing must be a fixed point of the whole pipeline.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0014);
    for case in 0..500 {
        let (src, _) = random_file(&mut rng);
        let once = mask(&src);
        let twice = mask(&once.code);
        let a = parse(&once);
        let b = parse(&twice);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "case {case}: re-parse diverged on\n{src}"
        );
    }
}
