//! The rule set and the engine that runs it over masked sources.
//!
//! Every rule scans the *code mask* of a file (see [`crate::lexer`]), so
//! comments and literals are invisible to it. Rules fall into two
//! enforcement classes:
//!
//! * **deny** rules must have zero unsuppressed findings — they protect
//!   the determinism guarantees PR 1 made headline claims about;
//! * **ratcheted** rules are enforced against the committed
//!   `analyze-baseline.json`: existing debt is grandfathered per
//!   `(file, rule)`, any count increase fails (see [`crate::baseline`]).
//!
//! | rule | class | fires on |
//! |------|-------|----------|
//! | `hash-iteration` | deny | iterating a `HashMap`/`HashSet` binding in `scp-core`/`scp-cluster`/`scp-sim`/`scp-cache` library code |
//! | `wall-clock` | deny | `Instant::now`/`SystemTime`/`.elapsed()` outside the timing whitelist |
//! | `env-entropy` | deny | `RandomState`, `env::var`, other ambient entropy |
//! | `unsafe-hygiene` | deny | an `unsafe` token without a `// SAFETY:` comment nearby |
//! | `invalid-pragma` | deny | malformed `scp-allow` comment |
//! | `unused-allow` | deny | `scp-allow` that suppressed nothing |
//! | `ordering-comment` | deny | atomic `Ordering::` use without an `// ORDERING:` justification |
//! | `concurrency-primitive` | deny | locks outside the lock whitelist, `spawn` outside the spawn whitelist, `static mut` anywhere |
//! | `narrow-cast` | deny | narrowing `as` cast (`as u32` & co.) in library code |
//! | `panic-path` | ratcheted | `unwrap`/`expect`/`panic!`-family in library code |
//! | `slice-index` | ratcheted | `expr[...]` indexing in library code |
//! | `float-eq` | ratcheted | `==`/`!=` against a float literal |
//! | `nondet-taint` | deny | a `pub` fn entering the determinism surface (see [`crate::taint`]) |
//! | `atomic-unpaired` | deny | unpaired Release/Acquire (or mixed SeqCst/Relaxed) on one atomic field (see [`crate::atomics`]) |

use crate::files::{FileKind, SourceFile};
use crate::pragma::parse_pragmas;
use crate::syntax::{at, sub, tail};

/// Enforcement class of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforcement {
    /// Zero unsuppressed findings allowed.
    Deny,
    /// Bounded per `(file, rule)` by the committed baseline.
    Ratcheted,
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule name (used in pragmas and the baseline).
    pub name: &'static str,
    /// Enforcement class.
    pub enforcement: Enforcement,
    /// One-line description for reports.
    pub description: &'static str,
}

/// All rules, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-iteration",
        enforcement: Enforcement::Deny,
        description: "HashMap/HashSet iteration order must not reach results",
    },
    RuleInfo {
        name: "wall-clock",
        enforcement: Enforcement::Deny,
        description: "wall-clock reads outside the timing whitelist",
    },
    RuleInfo {
        name: "env-entropy",
        enforcement: Enforcement::Deny,
        description: "environment-derived entropy (RandomState, env::var, ...)",
    },
    RuleInfo {
        name: "unsafe-hygiene",
        enforcement: Enforcement::Deny,
        description: "`unsafe` without an adjacent `// SAFETY:` comment",
    },
    RuleInfo {
        name: "invalid-pragma",
        enforcement: Enforcement::Deny,
        description: "malformed scp-allow pragma",
    },
    RuleInfo {
        name: "unused-allow",
        enforcement: Enforcement::Deny,
        description: "scp-allow pragma that suppresses nothing",
    },
    RuleInfo {
        name: "ordering-comment",
        enforcement: Enforcement::Deny,
        description: "atomic `Ordering::` use without an `// ORDERING:` justification",
    },
    RuleInfo {
        name: "concurrency-primitive",
        enforcement: Enforcement::Deny,
        description:
            "locks/threads (`Mutex`, `RwLock`, `spawn`) outside their whitelists; `static mut` anywhere",
    },
    RuleInfo {
        name: "narrow-cast",
        enforcement: Enforcement::Deny,
        description: "narrowing `as` cast in library code; prefer `try_from` or a lossless `from`",
    },
    RuleInfo {
        name: "panic-path",
        enforcement: Enforcement::Ratcheted,
        description: "unwrap/expect/panic! in non-test library code",
    },
    RuleInfo {
        name: "slice-index",
        enforcement: Enforcement::Ratcheted,
        description: "panicking slice/array indexing in non-test library code",
    },
    RuleInfo {
        name: "float-eq",
        enforcement: Enforcement::Ratcheted,
        description: "exact ==/!= comparison against a float literal",
    },
    RuleInfo {
        name: "nondet-taint",
        enforcement: Enforcement::Deny,
        description:
            "pub fn entered the determinism surface (nondeterminism can transitively reach it)",
    },
    RuleInfo {
        name: "atomic-unpaired",
        enforcement: Enforcement::Deny,
        description: "atomic field with unpaired Release/Acquire (or mixed SeqCst/Relaxed) orderings",
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

/// Looks up a rule's static info.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Crates whose library code the `hash-iteration` rule polices. Cache
/// *membership* tests are fine everywhere; these are the crates whose
/// outputs feed journals and reports, where iteration order could leak.
const HASH_ITER_CRATES: &[&str] = &["scp-core", "scp-cluster", "scp-sim", "scp-cache"];

/// Files allowed to read wall clocks: the runner measures wall time for
/// journal metadata explicitly, the bench harness is a timing tool, and
/// the serving engine's clock module is the single place the live path
/// reads wall time (everything else in `crates/serve` must go through
/// it, so shedding and reports stay a function of logical time).
const WALL_CLOCK_WHITELIST: &[&str] = &[
    "crates/sim/src/runner.rs",
    "crates/bench/",
    "crates/serve/src/clock.rs",
];

/// Files allowed to use blocking lock types (`Mutex`, `RwLock`,
/// `Condvar`). Only the interleaving explorer, which *models* a
/// scheduler and needs a real lock/condvar pair to sequence its shim
/// threads. The serving pipeline (loadgen, the SPSC ring, the batch
/// rings) is lock-free by design — PR 8 removed the
/// `Mutex<VecDeque> + Condvar` intake funnel, and this list is what
/// keeps a lock from quietly coming back: a `Mutex` reappearing in
/// `crates/serve/src/loadgen.rs` fires `concurrency-primitive`.
const LOCK_WHITELIST: &[&str] = &["crates/analyze/src/interleave.rs"];

/// Files allowed to start threads (`thread::spawn` / scoped spawns).
/// Everything else must be single-threaded: the determinism claims
/// hinge on thread interactions being confined to the audited fan-out
/// sites (the sweep/runner pool, the load generator's pipeline, and the
/// interleaving explorer's shim threads). `static mut` is never
/// whitelisted — an unsynchronized global is wrong everywhere.
const SPAWN_WHITELIST: &[&str] = &[
    "crates/sim/src/runner.rs",
    "crates/sim/src/sweep.rs",
    "crates/serve/src/loadgen.rs",
    "crates/analyze/src/interleave.rs",
];

/// Files exempt from `ordering-comment`: the interleaving explorer
/// *interprets* `Ordering` values handed to its shim (matching on every
/// variant), so per-use justifications would be noise there. Real atomic
/// call sites — spsc.rs, loadgen.rs — still justify every ordering.
const ORDERING_COMMENT_EXEMPT: &[&str] = &["crates/analyze/src/interleave.rs"];

/// One finding, before suppression/baseline classification.
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
/// workspace pipeline ([`crate::analyze_workspace`]) instead collects
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
    let code_lines = file.masked.code_lines();
    let comment_lines = file.masked.comment_lines();

    let hash_names = hash_bound_names(&code_lines);
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
                snippet: file
                    .lines
                    .get(idx)
                    .map(|l| l.trim().to_owned())
                    .unwrap_or_default(),
                suppressed: false,
            });
        };

        if library_code(file.kind) {
            check_panic_path(line, &mut emit);
            check_slice_index(line, &mut emit);
            check_float_eq(line, &mut emit);
            check_narrow_cast(line, &mut emit);
            if HASH_ITER_CRATES.contains(&file.crate_name.as_str()) {
                check_hash_iteration(line, &hash_names, &mut emit);
            }
            if !WALL_CLOCK_WHITELIST
                .iter()
                .any(|w| file.rel_path.starts_with(w) || file.rel_path == *w)
            {
                check_wall_clock(line, &mut emit);
            }
            check_concurrency(
                line,
                LOCK_WHITELIST.contains(&file.rel_path.as_str()),
                SPAWN_WHITELIST.contains(&file.rel_path.as_str()),
                &mut emit,
            );
            if !ORDERING_COMMENT_EXEMPT.contains(&file.rel_path.as_str()) {
                check_ordering_comment(line, idx, &code_lines, &comment_lines, &mut emit);
            }
            check_env_entropy(line, &mut emit);
        }
        check_unsafe(line, idx, &comment_lines, &mut emit);
    }

    findings
}

fn library_code(kind: FileKind) -> bool {
    matches!(kind, FileKind::Library | FileKind::Binary)
}

/// 1-based lines of `file` carrying a panic-capable site (`panic-path` or
/// `slice-index`), **before** suppression — the call-graph panic surface
/// counts these even when an `scp-allow` pragma justifies them, because a
/// justified `unwrap` can still panic; the pragma documents why it should
/// not, the surface report records that it could.
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
        let mut emit = |_rule: &'static str, _msg: String| hit = true;
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

/// Files whose sources never seed taint: the interleaving explorer
/// *models* atomics and schedules — its nondeterminism is the explored
/// schedule space, which it enumerates deterministically.
const TAINT_EXEMPT: &[&str] = &["crates/analyze/src/interleave.rs"];

/// 1-based nondeterminism source sites of `file`, **before** suppression
/// and **ignoring the wall-clock whitelist and hash-iteration crate
/// scoping**. The line rules answer "is this site justified where it
/// stands"; the taint pass answers "where do its values flow", and a
/// whitelisted clock read is still a real source whose flow must be cut
/// by a `// DETERMINISM:` pragma (or end at a non-`pub` sink) to stay
/// out of the determinism surface.
pub(crate) fn taint_site_lines(file: &SourceFile) -> Vec<TaintSite> {
    let mut out = Vec::new();
    if !library_code(file.kind) || TAINT_EXEMPT.contains(&file.rel_path.as_str()) {
        return out;
    }
    let code_lines = file.masked.code_lines();
    let hash_names = hash_bound_names(&code_lines);
    for (idx, line) in code_lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        let mut emit = |_rule: &'static str, msg: String| {
            out.push(TaintSite {
                line: lineno,
                what: msg,
            });
        };
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

// ------------------------------------------------------------------ rules

fn check_panic_path(line: &str, emit: &mut impl FnMut(&'static str, String)) {
    for method in ["unwrap", "unwrap_err"] {
        for pos in token_positions(line, method) {
            let prefixed = pos > 0 && at(line.as_bytes(), pos - 1) == b'.';
            if prefixed && tail(line, pos + method.len()).starts_with("()") {
                emit("panic-path", format!(".{method}() can panic"));
            }
        }
    }
    for method in ["expect", "expect_err"] {
        for pos in token_positions(line, method) {
            let prefixed = pos > 0 && at(line.as_bytes(), pos - 1) == b'.';
            let open = pos + method.len();
            if prefixed && tail(line, open).starts_with('(') && !call_is_tried(line, open) {
                emit("panic-path", format!(".{method}(...) can panic"));
            }
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for pos in token_positions(line, mac) {
            if tail(line, pos + mac.len()).starts_with("!(") {
                emit("panic-path", format!("{mac}! aborts this path"));
            }
        }
    }
}

fn check_slice_index(line: &str, emit: &mut impl FnMut(&'static str, String)) {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = at(bytes, i - 1);
        if is_ident(prev) || prev == b')' || prev == b']' {
            emit(
                "slice-index",
                "indexing panics when out of bounds; prefer .get()".to_owned(),
            );
        }
    }
}

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

fn check_hash_iteration(
    line: &str,
    hash_names: &[String],
    emit: &mut impl FnMut(&'static str, String),
) {
    let bytes = line.as_bytes();
    for name in hash_names {
        for pos in token_positions(line, name) {
            let after = tail(line, pos + name.len());
            if let Some(rest) = after.strip_prefix('.') {
                for m in ITERATING_METHODS {
                    if rest.starts_with(m) && tail(rest, m.len()).starts_with('(') {
                        emit(
                            "hash-iteration",
                            format!("`{name}.{m}()` iterates a hash collection in nondeterministic order"),
                        );
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
                // A trailing `.` means a method-call rule owns the site
                // (`for k in m.keys()` is reported as `m.keys()`).
                let follows = bytes.get(pos + name.len()).copied();
                let follows_ident = follows.is_some_and(|b| is_ident(b) || b == b'.');
                if has_for && !follows_ident {
                    emit(
                        "hash-iteration",
                        format!("`for ... in {name}` iterates a hash collection in nondeterministic order"),
                    );
                }
            }
        }
    }
}

fn check_wall_clock(line: &str, emit: &mut impl FnMut(&'static str, String)) {
    for tok in ["Instant", "SystemTime"] {
        for pos in token_positions(line, tok) {
            let after = tail(line, pos + tok.len());
            // Imports and type positions are fine; *reads* are not.
            if after.starts_with("::now") {
                emit(
                    "wall-clock",
                    format!("`{tok}` wall-clock read outside the timing whitelist"),
                );
            }
        }
    }
    for pos in token_positions(line, "elapsed") {
        let prefixed = pos > 0 && at(line.as_bytes(), pos - 1) == b'.';
        if prefixed && tail(line, pos + "elapsed".len()).starts_with('(') {
            emit(
                "wall-clock",
                "`.elapsed()` reads a wall clock outside the timing whitelist".to_owned(),
            );
        }
    }
}

fn check_env_entropy(line: &str, emit: &mut impl FnMut(&'static str, String)) {
    for tok in [
        "RandomState",
        "thread_rng",
        "from_entropy",
        "OsRng",
        "getrandom",
    ] {
        if !token_positions(line, tok).is_empty() {
            emit(
                "env-entropy",
                format!("`{tok}` injects ambient entropy into a deterministic system"),
            );
        }
    }
    for tok in ["var", "var_os", "vars", "vars_os"] {
        for pos in token_positions(line, tok) {
            let prefixed = sub(line, 0, pos).ends_with("env::");
            if prefixed && tail(line, pos + tok.len()).starts_with('(') {
                emit(
                    "env-entropy",
                    format!("`env::{tok}` makes behavior depend on the environment"),
                );
            }
        }
    }
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

fn check_concurrency(
    line: &str,
    locks_allowed: bool,
    spawns_allowed: bool,
    emit: &mut impl FnMut(&'static str, String),
) {
    if !locks_allowed {
        for ty in ["Mutex", "RwLock", "Condvar"] {
            if !token_positions(line, ty).is_empty() {
                emit(
                    "concurrency-primitive",
                    format!("`{ty}` outside the lock whitelist"),
                );
            }
        }
    }
    if !spawns_allowed {
        for method in ["spawn", "scope"] {
            for pos in token_positions(line, method) {
                let before = line.get(..pos).unwrap_or("");
                let after = line.get(pos + method.len()..).unwrap_or("");
                if after.starts_with('(') && (before.ends_with("thread::") || before.ends_with('.'))
                {
                    emit(
                        "concurrency-primitive",
                        format!("`{method}` spawns threads outside the spawn whitelist"),
                    );
                }
            }
        }
    }
    for pos in token_positions(line, "static") {
        let rest = line.get(pos + "static".len()..).unwrap_or("").trim_start();
        if rest.starts_with("mut ") {
            emit(
                "concurrency-primitive",
                "`static mut` is an unsynchronized global".to_owned(),
            );
        }
    }
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
    if token_positions(line, "unsafe").is_empty() {
        return;
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
            "`unsafe` without a `// SAFETY:` comment on or just above the line".to_owned(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::{FileKind, SourceFile};
    use crate::lexer::mask;

    fn lib_file(src: &str) -> SourceFile {
        let masked = mask(src);
        let in_test = crate::files::cfg_test_lines(&masked);
        SourceFile {
            rel_path: "crates/sim/src/x.rs".into(),
            crate_name: "scp-sim".into(),
            kind: FileKind::Library,
            in_test,
            masked,
            lines: src.lines().map(str::to_owned).collect(),
        }
    }

    fn rules_fired(src: &str) -> Vec<&'static str> {
        check_file(&lib_file(src))
            .into_iter()
            .filter(|f| !f.suppressed)
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn unwrap_and_expect_fire() {
        assert_eq!(rules_fired("let a = x.unwrap();"), vec!["panic-path"]);
        assert_eq!(
            rules_fired("let a = x.expect(\"must\");"),
            vec!["panic-path"]
        );
        assert_eq!(rules_fired("panic!(\"boom\");"), vec!["panic-path"]);
        assert_eq!(rules_fired("unreachable!();"), vec!["panic-path"]);
    }

    #[test]
    fn result_returning_expect_helper_is_not_a_panic() {
        // scp-json's parser has a private `expect(&mut self, b: u8) ->
        // Result<..>`; the `?` marks it as tried, not panicking.
        assert!(rules_fired("self.expect(b\".\")?;").is_empty());
        assert!(rules_fired("p.expect(b\".\")?.more();").is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        assert!(rules_fired("let a = x.unwrap_or(0);").is_empty());
        assert!(rules_fired("let a = x.unwrap_or_else(|| 0);").is_empty());
        assert!(rules_fired("let a = x.unwrap_or_default();").is_empty());
    }

    #[test]
    fn slice_index_fires_and_type_brackets_do_not() {
        assert_eq!(rules_fired("let a = xs[0];"), vec!["slice-index"]);
        assert_eq!(rules_fired("let a = f()[i];"), vec!["slice-index"]);
        assert!(rules_fired("let a: [f64; 4] = make();").is_empty());
        assert!(rules_fired("let v = vec![0.0; n];").is_empty());
        assert!(rules_fired("#[derive(Debug)]").is_empty());
        assert!(rules_fired("let [a, b] = pair;").is_empty());
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
    fn hash_iteration_tracks_bindings() {
        let src = "let mut m: HashMap<u64, u64> = HashMap::new();\nfor k in m.keys() {\n}\n";
        assert!(rules_fired(src).contains(&"hash-iteration"));
        let direct =
            "let m = std::collections::HashMap::new();\nlet v: Vec<_> = m.into_iter().collect();\n";
        assert!(rules_fired(direct).contains(&"hash-iteration"));
        let for_loop = "let s: HashSet<u32> = HashSet::new();\nfor x in &s {\n}\n";
        assert!(rules_fired(for_loop).contains(&"hash-iteration"));
        // Membership tests never fire.
        let member = "let s: HashSet<u32> = HashSet::new();\nif s.contains(&1) { s.len(); }\n";
        assert!(rules_fired(member).is_empty());
    }

    #[test]
    fn hash_iteration_scope_is_limited_to_result_crates() {
        let masked = mask("let m: HashMap<u64,u64> = HashMap::new();\nfor k in m.keys() {}\n");
        let n = masked.code.lines().count();
        let file = SourceFile {
            rel_path: "crates/workload/src/x.rs".into(),
            crate_name: "scp-workload".into(),
            kind: FileKind::Library,
            masked,
            in_test: vec![false; n],
            lines: vec![],
        };
        assert!(check_file(&file).is_empty());
    }

    #[test]
    fn wall_clock_fires_outside_whitelist() {
        assert_eq!(rules_fired("let t = Instant::now();"), vec!["wall-clock"]);
        assert_eq!(
            rules_fired("let t = SystemTime::now();"),
            vec!["wall-clock"]
        );
        assert_eq!(rules_fired("let d = start.elapsed();"), vec!["wall-clock"]);
        assert!(rules_fired("use std::time::Instant;").is_empty());
    }

    #[test]
    fn wall_clock_whitelist_applies() {
        let masked = mask("let t = Instant::now();\n");
        let file = SourceFile {
            rel_path: "crates/sim/src/runner.rs".into(),
            crate_name: "scp-sim".into(),
            kind: FileKind::Library,
            in_test: vec![false; 1],
            masked,
            lines: vec!["let t = Instant::now();".into()],
        };
        assert!(check_file(&file).is_empty());
        let masked = mask("let t = Instant::now();\n");
        let bench = SourceFile {
            rel_path: "crates/bench/src/harness.rs".into(),
            crate_name: "scp-bench".into(),
            kind: FileKind::Library,
            in_test: vec![false; 1],
            masked,
            lines: vec!["let t = Instant::now();".into()],
        };
        assert!(check_file(&bench).is_empty());
        let masked = mask("let t = Instant::now();\n");
        let clock = SourceFile {
            rel_path: "crates/serve/src/clock.rs".into(),
            crate_name: "scp-serve".into(),
            kind: FileKind::Library,
            in_test: vec![false; 1],
            masked,
            lines: vec!["let t = Instant::now();".into()],
        };
        assert!(check_file(&clock).is_empty());
        // Only the clock module is exempt — the rest of the serving
        // engine must route wall-clock reads through it.
        let masked = mask("let t = Instant::now();\n");
        let engine = SourceFile {
            rel_path: "crates/serve/src/engine.rs".into(),
            crate_name: "scp-serve".into(),
            kind: FileKind::Library,
            in_test: vec![false; 1],
            masked,
            lines: vec!["let t = Instant::now();".into()],
        };
        assert_eq!(check_file(&engine).len(), 1);
    }

    #[test]
    fn env_entropy_fires() {
        assert_eq!(
            rules_fired("let h: HashMap<K, V, RandomState> = x;"),
            vec!["env-entropy"]
        );
        assert_eq!(
            rules_fired("let v = std::env::var(\"SEED\");"),
            vec!["env-entropy"]
        );
        assert!(rules_fired("let a = std::env::args();").is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        assert_eq!(
            rules_fired("let p = unsafe { *ptr };"),
            vec!["unsafe-hygiene"]
        );
        let documented = "// SAFETY: ptr is valid for the whole call\nlet p = unsafe { *ptr };\n";
        assert!(rules_fired(documented).is_empty());
    }

    #[test]
    fn pragmas_suppress_and_unused_pragmas_fire() {
        let ok = "let a = x.unwrap(); // scp-allow(panic-path): checked above\n";
        let f = check_file(&lib_file(ok));
        assert!(f.iter().all(|f| f.suppressed));
        let above = "// scp-allow(slice-index): len checked by caller\nlet a = xs[0];\n";
        let f = check_file(&lib_file(above));
        assert!(f.iter().all(|f| f.suppressed));
        let unused = "// scp-allow(panic-path): nothing here\nlet a = 1;\n";
        assert_eq!(rules_fired(unused), vec!["unused-allow"]);
        let bad = "// scp-allow(not-a-rule): x\nlet a = 1;\n";
        assert_eq!(rules_fired(bad), vec!["invalid-pragma"]);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        assert!(rules_fired("// call .unwrap() here\n").is_empty());
        assert!(rules_fired("let s = \".unwrap()\";").is_empty());
        assert!(rules_fired("let s = r#\"panic!(\"x\")\"#;").is_empty());
    }
}
