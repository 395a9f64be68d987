//! Seeded randomized properties of the lexer and the rule engine.
//!
//! The analyzer's whole correctness story is "rules never see comment or
//! literal text". These tests generate random nestings of comments,
//! strings, raw strings and char literals around rule-triggering payloads
//! (`unwrap()`, `Instant::now()`, `v[0]`, ...) and assert the masks and
//! the rules behave. The generator is the workspace's own deterministic
//! Xoshiro256** (PR-1 style), so any failure reproduces exactly from the
//! printed case number.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use scp_analyze::files::SourceFile;
use scp_analyze::lexer::mask;
use scp_analyze::rules::{check_file, panic_site_lines, taint_site_lines};
use scp_workload::rng::{next_below, Rng, Xoshiro256StarStar};

/// Text that, if it leaked into the code mask, would trip at least one
/// rule or site detector when wrapped in a function body.
const PAYLOADS: &[&str] = &[
    "x.unwrap()",
    "x.expect(\\\"boom\\\")",
    "std::time::Instant::now()",
    "v[0]",
    "y == 0.0",
    "unsafe fn f() {}",
    "m.keys()",
];

/// One random non-code wrapper around `payload`.
fn wrap(rng: &mut dyn Rng, payload: &str) -> String {
    match next_below(rng, 7) {
        0 => format!("// {payload}\n"),
        1 => format!("/* {payload} */"),
        // Nested block comment.
        2 => format!("/* a /* {payload} */ b */"),
        3 => format!("let _s = \"{payload}\";"),
        4 => format!("let _s = r#\"{}\"#;", payload.replace('\\', "")),
        5 => format!(
            "let _s = r##\"quote \"# inside {}\"##;",
            payload.replace('\\', "")
        ),
        // Doc comment.
        _ => format!("/// {payload}\n"),
    }
}

/// Builds a whole random file: N wrapped payloads inside a function, with
/// occasional innocuous real code interleaved.
fn random_file(rng: &mut dyn Rng) -> String {
    let mut out = String::from("fn generated(v: &[u64]) -> u64 {\n");
    let items = 1 + next_below(rng, 8) as usize;
    for _ in 0..items {
        let payload = PAYLOADS[next_below(rng, PAYLOADS.len() as u64) as usize];
        out.push_str("    ");
        out.push_str(&wrap(rng, payload));
        out.push('\n');
        if next_below(rng, 3) == 0 {
            out.push_str("    let _k = v.len();\n");
        }
    }
    out.push_str("    v.len() as u64\n}\n");
    out
}

#[test]
fn prop_masks_are_byte_aligned_and_complementary() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0001);
    for case in 0..500 {
        let src = random_file(&mut rng);
        let m = mask(&src);
        assert_eq!(m.code.len(), src.len(), "case {case}: code mask length");
        assert_eq!(
            m.comments.len(),
            src.len(),
            "case {case}: comment mask length"
        );
        for (i, ((s, c), k)) in src
            .bytes()
            .zip(m.code.bytes())
            .zip(m.comments.bytes())
            .enumerate()
        {
            // Every mask byte is either the source byte or a space.
            assert!(c == s || c == b' ', "case {case}: code[{i}]");
            assert!(k == s || k == b' ', "case {case}: comments[{i}]");
            // Newlines survive in both masks; a byte never survives in both
            // masks unless it is whitespace.
            if s == b'\n' {
                assert_eq!(c, b'\n', "case {case}: newline lost in code[{i}]");
                assert_eq!(k, b'\n', "case {case}: newline lost in comments[{i}]");
            } else if !s.is_ascii_whitespace() {
                assert!(
                    c == b' ' || k == b' ',
                    "case {case}: byte {i} ({:?}) in both masks",
                    s as char
                );
            }
        }
    }
}

/// Whether any rule or site detector fires on `file`: a finding, a panic
/// site or a taint source.
fn fires(file: &SourceFile) -> bool {
    !check_file(file).is_empty()
        || !panic_site_lines(file).is_empty()
        || !taint_site_lines(file).is_empty()
}

#[test]
fn prop_wrapped_payloads_never_produce_findings() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0002);
    for case in 0..500 {
        let src = random_file(&mut rng);
        let file = SourceFile::from_source("crates/sim/src/generated.rs", &src);
        assert!(
            !fires(&file),
            "case {case}: rules fired on non-code text:\n{src}"
        );
    }
}

#[test]
fn prop_unwrapped_payload_is_always_caught() {
    // Control experiment: the same payloads *as real code* do produce
    // findings — otherwise the previous test would pass vacuously.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0003);
    for case in 0..200 {
        let idx = next_below(&mut rng, PAYLOADS.len() as u64) as usize;
        let payload = PAYLOADS[idx].replace('\\', "");
        let src = format!(
            "fn generated(v: &[u64], x: Option<u64>, y: f64, p: *const u8,\n\
             \x20            m: &std::collections::HashMap<u64, u64>) {{\n\
             \x20   let _ = {payload};\n\
             }}\n"
        );
        let file = SourceFile::from_source("crates/sim/src/generated.rs", &src);
        assert!(
            fires(&file),
            "case {case}: payload `{payload}` produced no finding"
        );
    }
}

#[test]
fn prop_mask_roundtrip_is_idempotent_on_code_mask() {
    // Masking the code mask again must be a fixed point: everything
    // non-code was already blanked, and blanking is idempotent.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0004);
    for case in 0..200 {
        let src = random_file(&mut rng);
        let once = mask(&src);
        let twice = mask(&once.code);
        assert_eq!(
            once.code, twice.code,
            "case {case}: code mask not a fixed point"
        );
    }
}
