//! The rule set and the engine that runs it over masked sources.
//!
//! Every rule scans the *code mask* of a file (see [`crate::lexer`]), so
//! comments and literals are invisible to it, and every rule is deny:
//! zero unsuppressed findings. Panic paths, indexing, wall-clock reads,
//! ambient entropy, threads, locks and undocumented `unsafe` blocks are
//! deny-level clippy lints instead (`[workspace.lints.clippy]` in the
//! root `Cargo.toml`, paths in `clippy.toml`); this crate keeps what no
//! stock lint checks:
//!
//! | rule | fires on |
//! |------|----------|
//! | `float-eq` | `==`/`!=` against a float literal, `0.0` included (clippy's `float_cmp` exempts zero) |
//! | `narrow-cast` | narrowing `as` cast (`as u32` & co.) in library code |
//! | `ordering-comment` | atomic `Ordering::` use without an `// ORDERING:` justification |
//! | `unsafe-hygiene` | an `unsafe` declaration (not a block or impl) without a `// SAFETY:` comment nearby; `static mut` anywhere |
//! | `nondet-taint` | a `pub` fn entering the determinism surface (see [`crate::taint`]) |
//! | `atomic-unpaired` | unpaired Release/Acquire (or mixed SeqCst/Relaxed) on one atomic field (see [`crate::atomics`]) |
//! | `invalid-pragma` | malformed `scp-allow` comment |
//! | `unused-allow` | `scp-allow` that suppressed nothing |
//!
//! The panic-site and nondeterminism-source matchers stay here as *site
//! detectors*: they feed the panic surface and the taint pass
//! ([`panic_site_lines`], [`taint_site_lines`]), not findings.

use crate::files::{FileKind, SourceFile};
use crate::pragma::parse_pragmas;
use crate::syntax::{at, sub, tail};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule name (used in pragmas and reports).
    pub name: &'static str,
    /// One-line description for reports.
    pub description: &'static str,
}

/// All rules, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "float-eq",
        description: "exact ==/!= comparison against a float literal",
    },
    RuleInfo {
        name: "narrow-cast",
        description: "narrowing `as` cast in library code; prefer `try_from` or a lossless `from`",
    },
    RuleInfo {
        name: "ordering-comment",
        description: "atomic `Ordering::` use without an `// ORDERING:` justification",
    },
    RuleInfo {
        name: "unsafe-hygiene",
        description: "`unsafe` declaration without a `// SAFETY:` comment; `static mut` anywhere",
    },
    RuleInfo {
        name: "nondet-taint",
        description:
            "pub fn entered the determinism surface (nondeterminism can transitively reach it)",
    },
    RuleInfo {
        name: "atomic-unpaired",
        description:
            "atomic field with unpaired Release/Acquire (or mixed SeqCst/Relaxed) orderings",
    },
    RuleInfo {
        name: "invalid-pragma",
        description: "malformed scp-allow pragma",
    },
    RuleInfo {
        name: "unused-allow",
        description: "scp-allow pragma that suppresses nothing",
    },
];

/// Rules a pragma may name (everything except the pragma meta-rules,
/// which would otherwise be able to silence themselves).
pub fn suppressible_rules() -> Vec<&'static str> {
    RULES
        .iter()
        .map(|r| r.name)
        .filter(|n| *n != "invalid-pragma" && *n != "unused-allow")
        .collect()
}

/// One finding, before suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule that fired.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed source line.
    pub snippet: String,
    /// Suppressed by an `scp-allow` pragma.
    pub suppressed: bool,
}

/// Runs every line rule over one file, applies its pragmas, and reports
/// pragma-hygiene findings alongside the code findings. The full
/// workspace pipeline ([`crate::analyze_sources`]) instead collects
/// raw findings from every pass (`check_file_raw`, the atomics and
/// taint passes) and applies pragmas once over the merged set, so a
/// pragma can target any rule's finding and unused-pragma detection sees
/// everything.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    apply_pragmas(file, check_file_raw(file))
}

/// Runs every line rule over one file, returning raw findings with no
/// pragma processing.
pub(crate) fn check_file_raw(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !library_code(file.kind) {
        return findings;
    }
    let code_lines = file.masked.code_lines();
    let comment_lines = file.masked.comment_lines();
    for (idx, line) in code_lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        let mut emit = |rule: &'static str, message: String| {
            findings.push(Finding {
                file: file.rel_path.clone(),
                line: lineno,
                rule,
                message,
                snippet: snippet_at(file, lineno),
                suppressed: false,
            });
        };
        check_float_eq(line, &mut emit);
        check_narrow_cast(line, &mut emit);
        if !file.is_model() {
            check_ordering_comment(line, idx, &code_lines, &comment_lines, &mut emit);
        }
        check_unsafe(line, idx, &comment_lines, &mut emit);
    }
    findings
}

fn library_code(kind: FileKind) -> bool {
    matches!(kind, FileKind::Library | FileKind::Binary)
}

/// 1-based lines of `file` carrying a panic-capable site
/// (`unwrap`/`expect`/`panic!`-family or `expr[...]` indexing). The
/// call-graph panic surface counts these even where an `#[expect]`
/// justifies them, because a justified `unwrap` can still panic; the
/// attribute documents why it should not, the surface records that it
/// could.
pub fn panic_site_lines(file: &SourceFile) -> Vec<usize> {
    let mut out = Vec::new();
    if !library_code(file.kind) {
        return out;
    }
    for (idx, line) in file.masked.code_lines().iter().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        let mut hit = false;
        let mut emit = |_msg: String| hit = true;
        check_panic_path(line, &mut emit);
        check_slice_index(line, &mut emit);
        if hit {
            out.push(lineno);
        }
    }
    out
}

/// One nondeterminism source site (see [`crate::taint`]).
#[derive(Debug, Clone)]
pub struct TaintSite {
    /// 1-based line of the source.
    pub line: usize,
    /// What kind of nondeterminism it injects (for traces and messages).
    pub what: String,
}

/// 1-based nondeterminism source sites of `file`: wall-clock reads, env
/// entropy, `HashMap`/`HashSet` iteration and fully-`Relaxed` atomic
/// loads, in every library crate. A clock read clippy lets stand where
/// it is is still a real source whose flow must be cut by a
/// `// DETERMINISM:` pragma (or end at a non-`pub` sink) to stay out of
/// the determinism surface. Model files ([`SourceFile::is_model`]) seed
/// nothing: their nondeterminism is the schedule space they enumerate.
pub fn taint_site_lines(file: &SourceFile) -> Vec<TaintSite> {
    let mut out = Vec::new();
    if !library_code(file.kind) || file.is_model() {
        return out;
    }
    let code_lines = file.masked.code_lines();
    let hash_names = hash_bound_names(&code_lines);
    for (idx, line) in code_lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        let mut emit = |what: String| out.push(TaintSite { line: lineno, what });
        check_wall_clock(line, &mut emit);
        check_env_entropy(line, &mut emit);
        check_hash_iteration(line, &hash_names, &mut emit);
    }
    for line in crate::atomics::relaxed_load_lines(file) {
        out.push(TaintSite {
            line,
            what: "`Relaxed` atomic load: the value read depends on thread interleaving".to_owned(),
        });
    }
    out.sort_by_key(|s| s.line);
    out
}

/// Applies one file's `scp-allow` pragmas to `findings` (which may come
/// from any mix of passes), appending `invalid-pragma`/`unused-allow`
/// hygiene findings, and returns the merged, line-sorted set.
pub(crate) fn apply_pragmas(file: &SourceFile, mut findings: Vec<Finding>) -> Vec<Finding> {
    let suppressible = suppressible_rules();
    let (pragmas, errors) = parse_pragmas(file, &suppressible);
    let mut used = vec![false; pragmas.len()];
    for f in &mut findings {
        for (pi, p) in pragmas.iter().enumerate() {
            if p.rule == f.rule && p.target_line == f.line {
                f.suppressed = true;
                if let Some(u) = used.get_mut(pi) {
                    *u = true;
                }
            }
        }
    }
    for e in errors {
        findings.push(Finding {
            file: file.rel_path.clone(),
            line: e.line,
            rule: "invalid-pragma",
            message: e.message,
            snippet: snippet_at(file, e.line),
            suppressed: false,
        });
    }
    for (p, was_used) in pragmas.iter().zip(used) {
        if !was_used {
            findings.push(Finding {
                file: file.rel_path.clone(),
                line: p.line,
                rule: "unused-allow",
                message: format!(
                    "scp-allow({}) suppresses nothing on line {}",
                    p.rule, p.target_line
                ),
                snippet: snippet_at(file, p.line),
                suppressed: false,
            });
        }
    }
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    findings
}

fn snippet_at(file: &SourceFile, line: usize) -> String {
    file.lines
        .get(line.saturating_sub(1))
        .map(|l| l.trim().to_owned())
        .unwrap_or_default()
}

// ---------------------------------------------------------------- helpers

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets where `tok` occurs with non-identifier characters on both
/// sides.
fn token_positions(line: &str, tok: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(off) = tail(line, from).find(tok) {
        let start = from + off;
        let end = start + tok.len();
        let left_ok = start == 0 || !is_ident(at(bytes, start - 1));
        // `at` yields NUL past the end, which is not an identifier byte.
        let right_ok = !is_ident(at(bytes, end));
        if left_ok && right_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

/// Whether the call opened by the `(` at `open` is followed by `?` —
/// i.e. the "expect" is a `Result`-returning helper, not a panic.
fn call_is_tried(line: &str, open: usize) -> bool {
    let bytes = line.as_bytes();
    let mut depth = 0usize;
    let mut j = open;
    while j < bytes.len() {
        match at(bytes, j) {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    let rest = tail(line, j + 1).trim_start();
                    return rest.starts_with('?');
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Call spans lines: be conservative and treat it as panicking.
    false
}

// ------------------------------------------------------- site detectors

fn check_panic_path(line: &str, emit: &mut impl FnMut(String)) {
    for method in ["unwrap", "unwrap_err"] {
        for pos in token_positions(line, method) {
            let prefixed = pos > 0 && at(line.as_bytes(), pos - 1) == b'.';
            if prefixed && tail(line, pos + method.len()).starts_with("()") {
                emit(format!(".{method}() can panic"));
            }
        }
    }
    for method in ["expect", "expect_err"] {
        for pos in token_positions(line, method) {
            let prefixed = pos > 0 && at(line.as_bytes(), pos - 1) == b'.';
            let open = pos + method.len();
            if prefixed && tail(line, open).starts_with('(') && !call_is_tried(line, open) {
                emit(format!(".{method}(...) can panic"));
            }
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for pos in token_positions(line, mac) {
            if tail(line, pos + mac.len()).starts_with("!(") {
                emit(format!("{mac}! aborts this path"));
            }
        }
    }
}

fn check_slice_index(line: &str, emit: &mut impl FnMut(String)) {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = at(bytes, i - 1);
        // `x[..]` is the whole of `x` and cannot panic.
        let full_range = tail(line, i + 1)
            .trim_start()
            .strip_prefix("..")
            .is_some_and(|rest| rest.trim_start().starts_with(']'));
        if (is_ident(prev) || prev == b')' || prev == b']') && !full_range {
            emit("indexing panics when out of bounds; prefer .get()".to_owned());
        }
    }
}

/// Names in this file bound to a `HashMap`/`HashSet` (let bindings with
/// or without type ascription, struct fields, fn parameters).
fn hash_bound_names(code_lines: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in code_lines {
        for ty in ["HashMap", "HashSet"] {
            for pos in token_positions(line, ty) {
                if let Some(name) = binding_before(line, pos) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// Walks left from a type token (`HashMap`, `AtomicU64`, ...) through
/// `std::collections::`-style paths, `&`/`mut`, a `:` type ascription or
/// an `=` initializer, to the identifier being bound. Returns `None` for
/// appearances that bind nothing (e.g. a bare `use` item). Shared with
/// [`crate::atomics`], which peels generic wrappers first.
pub(crate) fn binding_before(line: &str, ty_pos: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut i = ty_pos;
    // Skip the path prefix (`std::collections::`) and reference sigils.
    loop {
        let before = sub(line, 0, i).trim_end();
        i = before.len();
        if before.ends_with("::") {
            let mut j = i - 2;
            while j > 0 && (is_ident(at(bytes, j - 1)) || at(bytes, j - 1) == b':') {
                j -= 1;
            }
            i = j;
        } else if before.ends_with('&') || before.ends_with("mut") {
            i = before.len() - if before.ends_with('&') { 1 } else { 3 };
        } else {
            break;
        }
    }
    let before = sub(line, 0, i).trim_end();
    let sep = before.as_bytes().last().copied()?;
    let ident_end = match sep {
        b':' => before.len() - 1,
        b'=' => {
            // `let name = HashMap::new()` — or `name: Ty = HashMap::new()`.
            let lhs = sub(before, 0, before.len() - 1).trim_end();
            let lhs = match lhs.rfind(':') {
                Some(c) if !sub(lhs, 0, c).ends_with(':') => sub(lhs, 0, c).trim_end(),
                _ => lhs,
            };
            return last_ident(lhs);
        }
        _ => return None,
    };
    last_ident(sub(before, 0, ident_end))
}

fn last_ident(s: &str) -> Option<String> {
    let s = s.trim_end();
    let bytes = s.as_bytes();
    let mut i = s.len();
    while i > 0 && is_ident(at(bytes, i - 1)) {
        i -= 1;
    }
    if i == s.len() {
        return None;
    }
    let name = tail(s, i);
    if name.as_bytes().first().is_some_and(u8::is_ascii_digit) {
        return None;
    }
    Some(name.to_owned())
}

/// Methods whose call on a hash collection observes iteration order (or
/// iterates, even if only for a count — flagged so the justification is
/// written down).
const ITERATING_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
];

fn check_hash_iteration(line: &str, hash_names: &[String], emit: &mut impl FnMut(String)) {
    let bytes = line.as_bytes();
    for name in hash_names {
        for pos in token_positions(line, name) {
            let after = tail(line, pos + name.len());
            if let Some(rest) = after.strip_prefix('.') {
                for m in ITERATING_METHODS {
                    if rest.starts_with(m) && tail(rest, m.len()).starts_with('(') {
                        emit(format!(
                            "`{name}.{m}()` iterates a hash collection in nondeterministic order"
                        ));
                    }
                }
            }
            // `for x in name` / `for x in &name` / `for x in &mut name`.
            let before = sub(line, 0, pos).trim_end();
            let before = before
                .strip_suffix("&mut")
                .unwrap_or(before.strip_suffix('&').unwrap_or(before))
                .trim_end();
            if before.ends_with(" in") || before.ends_with("\tin") {
                let has_for = token_positions(line, "for").iter().any(|&f| f < pos);
                // A trailing `.` means the method-call match owns the site
                // (`for k in m.keys()` is reported as `m.keys()`).
                let follows = bytes.get(pos + name.len()).copied();
                let follows_ident = follows.is_some_and(|b| is_ident(b) || b == b'.');
                if has_for && !follows_ident {
                    emit(format!(
                        "`for ... in {name}` iterates a hash collection in nondeterministic order"
                    ));
                }
            }
        }
    }
}

fn check_wall_clock(line: &str, emit: &mut impl FnMut(String)) {
    for tok in ["Instant", "SystemTime"] {
        for pos in token_positions(line, tok) {
            let after = tail(line, pos + tok.len());
            // Imports and type positions are fine; *reads* are not.
            if after.starts_with("::now") {
                emit(format!("`{tok}` wall-clock read"));
            }
        }
    }
    for pos in token_positions(line, "elapsed") {
        let prefixed = pos > 0 && at(line.as_bytes(), pos - 1) == b'.';
        if prefixed && tail(line, pos + "elapsed".len()).starts_with('(') {
            emit("`.elapsed()` reads a wall clock".to_owned());
        }
    }
}

fn check_env_entropy(line: &str, emit: &mut impl FnMut(String)) {
    for tok in [
        "RandomState",
        "thread_rng",
        "from_entropy",
        "OsRng",
        "getrandom",
    ] {
        if !token_positions(line, tok).is_empty() {
            emit(format!(
                "`{tok}` injects ambient entropy into a deterministic system"
            ));
        }
    }
    for tok in ["var", "var_os", "vars", "vars_os"] {
        for pos in token_positions(line, tok) {
            let prefixed = sub(line, 0, pos).ends_with("env::");
            if prefixed && tail(line, pos + tok.len()).starts_with('(') {
                emit(format!(
                    "`env::{tok}` makes behavior depend on the environment"
                ));
            }
        }
    }
}

// ------------------------------------------------------------------ rules

fn check_float_eq(line: &str, emit: &mut impl FnMut(&'static str, String)) {
    let bytes = line.as_bytes();
    for op in ["==", "!="] {
        let mut from = 0usize;
        while let Some(off) = tail(line, from).find(op) {
            let opos = from + off;
            from = opos + op.len();
            // Exclude `<=`/`>=`-style composites and pattern `=>`.
            if opos > 0 && matches!(at(bytes, opos - 1), b'<' | b'>' | b'=' | b'!') {
                continue;
            }
            if bytes.get(opos + op.len()) == Some(&b'=') {
                continue;
            }
            let right = tail(line, opos + op.len()).trim_start();
            let left = sub(line, 0, opos).trim_end();
            if is_float_literal_prefix(right) || is_float_literal_suffix(left) {
                emit(
                    "float-eq",
                    format!("`{op}` against a float literal; compare via an epsilon helper"),
                );
            }
        }
    }
}

/// Does `s` *start* with a float literal (`1.0`, `-.5`, `2e-3`, `1f64`)?
fn is_float_literal_prefix(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s).trim_start();
    let bytes = s.as_bytes();
    if bytes.first().is_none_or(|b| !b.is_ascii_digit()) {
        return false;
    }
    let mut i = 0usize;
    while bytes
        .get(i)
        .is_some_and(|&b| b.is_ascii_digit() || b == b'_')
    {
        i += 1;
    }
    match bytes.get(i) {
        Some(b'.') => bytes.get(i + 1).is_some_and(u8::is_ascii_digit),
        Some(b'e') | Some(b'E') => true,
        Some(b'f') => tail(s, i).starts_with("f32") || tail(s, i).starts_with("f64"),
        _ => false,
    }
}

/// Does `s` *end* with a float literal?
fn is_float_literal_suffix(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut i = bytes.len();
    while i > 0 && (is_ident(at(bytes, i - 1)) || at(bytes, i - 1) == b'.') {
        i -= 1;
    }
    is_float_literal_prefix(tail(s, i))
}

/// Memory-ordering variant names (`std::sync::atomic::Ordering`). The
/// `cmp::Ordering` variants (`Less`/`Equal`/`Greater`) never collide.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn check_ordering_comment(
    line: &str,
    idx: usize,
    code_lines: &[&str],
    comment_lines: &[&str],
    emit: &mut impl FnMut(&'static str, String),
) {
    for variant in ATOMIC_ORDERINGS {
        for pos in token_positions(line, variant) {
            if !line.get(..pos).unwrap_or("").ends_with("Ordering::") {
                continue;
            }
            if !ordering_documented(idx, code_lines, comment_lines) {
                emit(
                    "ordering-comment",
                    format!(
                        "`Ordering::{variant}` without an `/ ORDERING:` comment \
                         justifying the choice"
                    ),
                );
            }
        }
    }
}

/// Whether line `idx` (0-based) carries an `ORDERING:` comment, either on
/// the line itself or in the contiguous comment-only block directly above
/// it (multi-line justifications are the norm).
fn ordering_documented(idx: usize, code_lines: &[&str], comment_lines: &[&str]) -> bool {
    let has = |i: usize| {
        comment_lines
            .get(i)
            .is_some_and(|c| c.contains("ORDERING:"))
    };
    if has(idx) {
        return true;
    }
    let mut j = idx;
    while j > 0 && idx - j < 16 {
        j -= 1;
        // Stop at the first line that has real code on it; blank and
        // comment-only lines extend the window upward.
        if code_lines.get(j).is_some_and(|c| !c.trim().is_empty()) {
            return false;
        }
        if has(j) {
            return true;
        }
    }
    false
}

/// Integer types an `as` cast may silently truncate into. `usize`/`u64`
/// and the float types are widening (or at least platform-word) targets
/// on every tier this workspace supports, and stay allowed.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn check_narrow_cast(line: &str, emit: &mut impl FnMut(&'static str, String)) {
    for pos in token_positions(line, "as") {
        let rest = line.get(pos + 2..).unwrap_or("").trim_start();
        for target in NARROW_TARGETS {
            let Some(after) = rest.strip_prefix(target) else {
                continue;
            };
            if !after.as_bytes().first().is_some_and(|&b| is_ident(b)) {
                emit(
                    "narrow-cast",
                    format!("`as {target}` can truncate silently; prefer `{target}::try_from`"),
                );
            }
        }
    }
}

fn check_unsafe(
    line: &str,
    idx: usize,
    comment_lines: &[&str],
    emit: &mut impl FnMut(&'static str, String),
) {
    for pos in token_positions(line, "unsafe") {
        // Blocks and impls are clippy's `undocumented_unsafe_blocks`.
        let rest = tail(line, pos + "unsafe".len()).trim_start();
        if rest.starts_with('{') || rest.starts_with("impl") {
            continue;
        }
        let lo = idx.saturating_sub(2);
        let documented = comment_lines
            .get(lo..=idx.min(comment_lines.len().saturating_sub(1)))
            .unwrap_or(&[])
            .iter()
            .any(|c| c.contains("SAFETY:"));
        if !documented {
            emit(
                "unsafe-hygiene",
                "`unsafe` declaration without a `// SAFETY:` comment on or just above the line"
                    .to_owned(),
            );
        }
    }
    for pos in token_positions(line, "static") {
        if tail(line, pos + "static".len())
            .trim_start()
            .starts_with("mut ")
        {
            emit(
                "unsafe-hygiene",
                "`static mut` is an unsynchronized global".to_owned(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(src: &str) -> Vec<&'static str> {
        check_file(&SourceFile::from_source("crates/sim/src/x.rs", src))
            .into_iter()
            .filter(|f| !f.suppressed)
            .map(|f| f.rule)
            .collect()
    }

    fn panic_lines(src: &str) -> Vec<usize> {
        panic_site_lines(&SourceFile::from_source("crates/sim/src/x.rs", src))
    }

    #[test]
    fn panic_sites_cover_unwrap_expect_macros_and_indexing() {
        let src = "let a = x.unwrap();\nlet a = x.expect(\"must\");\npanic!(\"boom\");\n\
                   unreachable!();\nlet a = xs[0];\nlet a = f()[i];\n";
        assert_eq!(panic_lines(src), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn lookalikes_are_not_panic_sites() {
        // scp-json's parser has a private `expect(&mut self, b: u8) ->
        // Result<..>`; the `?` marks it as tried, not panicking.
        let src = "self.expect(b\".\")?;\nlet a = x.unwrap_or(0);\nlet a = x.unwrap_or_default();\n\
                   let a: [f64; 4] = make();\nlet v = vec![0.0; n];\n#[derive(Debug)]\nlet [a, b] = pair;\n\
                   // call .unwrap() here\nlet s = \".unwrap()\";\n";
        assert!(panic_lines(src).is_empty());
    }

    #[test]
    fn float_eq_fires_both_sides_and_spares_integers() {
        assert_eq!(rules_fired("if x == 0.0 {"), vec!["float-eq"]);
        assert_eq!(rules_fired("if 1.5 != y {"), vec!["float-eq"]);
        assert_eq!(rules_fired("if x == 1e-12 {"), vec!["float-eq"]);
        assert_eq!(rules_fired("if x == 2f64 {"), vec!["float-eq"]);
        assert!(rules_fired("if x == 0 {").is_empty());
        assert!(rules_fired("if x <= 0.0 {").is_empty());
        assert!(rules_fired("if x >= 0.0 {").is_empty());
        assert!(rules_fired("match x { 0.0 => 1, _ => 2 }").is_empty());
    }

    #[test]
    fn unsafe_declarations_need_a_safety_comment_and_blocks_are_clippys() {
        assert_eq!(rules_fired("unsafe fn f() {}"), vec!["unsafe-hygiene"]);
        assert_eq!(rules_fired("pub unsafe trait T {}"), vec!["unsafe-hygiene"]);
        assert!(
            rules_fired("// SAFETY: callers uphold the contract\nunsafe fn f() {}\n").is_empty()
        );
        assert!(rules_fired("let p = unsafe { *ptr };").is_empty());
        assert!(rules_fired("unsafe impl Send for S {}").is_empty());
        assert_eq!(
            rules_fired("static mut N: u64 = 0;"),
            vec!["unsafe-hygiene"]
        );
    }

    #[test]
    fn pragmas_suppress_and_unused_pragmas_fire() {
        let same = "if x == 0.0 {} // scp-allow(float-eq): exact zero is the sentinel\n";
        let f = check_file(&SourceFile::from_source("crates/sim/src/x.rs", same));
        assert!(f.iter().all(|f| f.suppressed));
        let unused = "// scp-allow(float-eq): nothing here\nlet a = 1;\n";
        assert_eq!(rules_fired(unused), vec!["unused-allow"]);
        let retired = "// scp-allow(panic-path): now an #[expect]\nlet a = x.unwrap();\n";
        assert_eq!(rules_fired(retired), vec!["invalid-pragma"]);
    }

    #[test]
    fn test_regions_and_literals_never_fire() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x == 0.0; }\n}\n";
        assert!(rules_fired(src).is_empty());
        assert!(rules_fired("// x == 0.0\n").is_empty());
        assert!(rules_fired("let s = \"x == 0.0\";").is_empty());
    }
}
