//! Static atomic happens-before pairing over the masked source.
//!
//! The interleave explorer ([`crate::interleave`]) *dynamically* checks
//! the two ring protocols by enumerating schedules; this pass is its
//! static complement for every atomic in the workspace. It indexes every
//! atomic access — loads, stores and read-modify-writes that pass a
//! literal `Ordering::` argument — attributes each to a field or binding,
//! and denies unpaired synchronization (`atomic-unpaired`):
//!
//! * a Release-class **write** (`store`/RMW with `Release`, `AcqRel` or
//!   `SeqCst`) on a field with no Acquire-class reader of the same field;
//! * an Acquire-class **read** (`load`/RMW with `Acquire`, `AcqRel` or
//!   `SeqCst`) on a field that is only ever written `Relaxed` (or never
//!   written) — the acquire has nothing to synchronize with;
//! * mixed `SeqCst` and fully-`Relaxed` accesses on one field — one side
//!   is paying for an ordering the other side ignores.
//!
//! **Attribution.** Accesses are keyed per *file* by field name: a
//! receiver ending in `.name` (e.g. `self.tail`, `slot.seq`) keys on
//! `name`, and a bare identifier keys on itself when the file declares it
//! with an atomic type (a `name: &AtomicU64` parameter, a `static`, a
//! direct `let name = AtomicU64::new(..)`). Handle types that share one
//! underlying atomic (the batch ring's producer and consumer both hold
//! `closed`) therefore land in the same pool, which is exactly the pair
//! the check wants to see. Receivers the scanner cannot name (a closure
//! parameter, a call result) are indexed but not paired — skipping is the
//! sound direction for a linter: it can miss a pair, it cannot invent an
//! unpaired finding for a nameable field. Accesses whose `Ordering` is a
//! runtime variable (the interleave shim) contribute nothing.
//!
//! The declared-field index (`(type name, field name)`, from `struct`
//! bodies) and the per-access enclosing `impl` type are kept alongside
//! for reports and for the property tests that pin mask alignment and
//! re-parse stability.

use crate::files::{FileKind, SourceFile};
use crate::rules::Finding;
use crate::syntax::{self, at, sub, tail, Item, ItemKind};

/// Memory-ordering argument of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mo {
    /// `Ordering::Relaxed`
    Relaxed,
    /// `Ordering::Acquire`
    Acquire,
    /// `Ordering::Release`
    Release,
    /// `Ordering::AcqRel`
    AcqRel,
    /// `Ordering::SeqCst`
    SeqCst,
}

impl Mo {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "Relaxed" => Some(Self::Relaxed),
            "Acquire" => Some(Self::Acquire),
            "Release" => Some(Self::Release),
            "AcqRel" => Some(Self::AcqRel),
            "SeqCst" => Some(Self::SeqCst),
            _ => None,
        }
    }

    /// Variant name, for messages.
    pub fn name(self) -> &'static str {
        match self {
            Self::Relaxed => "Relaxed",
            Self::Acquire => "Acquire",
            Self::Release => "Release",
            Self::AcqRel => "AcqRel",
            Self::SeqCst => "SeqCst",
        }
    }
}

/// What an access does to the atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A pure read (`load`).
    Load,
    /// A pure write (`store`).
    Store,
    /// A read-modify-write (`swap`, `fetch_*`, `compare_exchange*`).
    Rmw,
}

/// Atomic method names the scanner recognizes, with their op kind.
const ATOMIC_OPS: &[(&str, OpKind)] = &[
    ("load", OpKind::Load),
    ("store", OpKind::Store),
    ("swap", OpKind::Rmw),
    ("fetch_add", OpKind::Rmw),
    ("fetch_sub", OpKind::Rmw),
    ("fetch_and", OpKind::Rmw),
    ("fetch_or", OpKind::Rmw),
    ("fetch_xor", OpKind::Rmw),
    ("fetch_nand", OpKind::Rmw),
    ("fetch_max", OpKind::Rmw),
    ("fetch_min", OpKind::Rmw),
    ("fetch_update", OpKind::Rmw),
    ("compare_exchange", OpKind::Rmw),
    ("compare_exchange_weak", OpKind::Rmw),
];

/// `std::sync::atomic` type names used to recognize declared fields and
/// bindings.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// One atomic access with a literal `Ordering::` argument.
#[derive(Debug, Clone)]
pub struct AtomicAccess {
    /// 1-based line of the method name.
    pub line: usize,
    /// The dotted receiver text as scanned (e.g. `self.tail`), possibly
    /// just the nameable tail of a longer chain.
    pub receiver: String,
    /// Field/binding name the access is keyed on for pairing; `None`
    /// when the receiver could not be named.
    pub field: Option<String>,
    /// Name of the `impl`/`trait` owning the enclosing function, when
    /// the access sits in an associated fn.
    pub owner: Option<String>,
    /// What the access does.
    pub op: OpKind,
    /// Every literal ordering the call passes (two for
    /// `compare_exchange`/`fetch_update`).
    pub orderings: Vec<Mo>,
    /// Whether the access sits in `#[cfg(test)]` code.
    pub in_test: bool,
}

/// Everything the scanner extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileAtomics {
    /// Declared atomic struct fields, as `(type name, field name)`.
    pub fields: Vec<(String, String)>,
    /// Bare identifiers declared with an atomic type (parameters,
    /// statics, direct `let` initializers).
    pub bindings: Vec<String>,
    /// Every recognized access, in source order.
    pub accesses: Vec<AtomicAccess>,
}

/// Indexes one file: declared atomic fields, atomic bindings, and every
/// access that passes a literal `Ordering::`.
pub fn index_file(file: &SourceFile) -> FileAtomics {
    let mut out = FileAtomics::default();
    if !matches!(file.kind, FileKind::Library | FileKind::Binary) {
        return out;
    }
    let code = file.masked.code.as_str();
    let parsed = syntax::parse(&file.masked);
    collect_fields(code, &parsed.items, &mut out.fields);
    collect_bindings(code, &mut out.bindings);

    let bytes = code.as_bytes();
    for (op_name, op) in ATOMIC_OPS {
        for pos in token_positions_str(code, op_name) {
            // `.name` directly after a receiver, `(` directly after.
            let mut open = pos + op_name.len();
            while at(bytes, open) == b' ' {
                open += 1;
            }
            if at(bytes, open) != b'(' {
                continue;
            }
            let Some(dot) = dot_before(bytes, pos) else {
                continue;
            };
            let close = match_paren(bytes, open);
            let orderings = orderings_in(sub(code, open, close));
            if orderings.is_empty() {
                continue;
            }
            let line = sub(code, 0, pos).matches('\n').count() + 1;
            let (receiver, segments, follows_expr) = receiver_before(code, dot);
            let field = match segments.last() {
                Some(last) if segments.len() >= 2 || follows_expr => Some(last.clone()),
                Some(last) if out.bindings.contains(last) => Some(last.clone()),
                _ => None,
            };
            out.accesses.push(AtomicAccess {
                line,
                receiver,
                field,
                owner: owner_of_offset(&parsed.fns, pos),
                op: *op,
                orderings,
                in_test: file.is_test_line(line),
            });
        }
    }
    out.accesses.sort_by_key(|a| a.line);
    out
}

/// 1-based lines of non-test accesses that are pure `Relaxed` loads —
/// the atomic taint seeds consumed by [`crate::taint`].
pub(crate) fn relaxed_load_lines(file: &SourceFile) -> Vec<usize> {
    index_file(file)
        .accesses
        .iter()
        .filter(|a| !a.in_test && a.op == OpKind::Load && a.orderings == [Mo::Relaxed])
        .map(|a| a.line)
        .collect()
}

/// Runs the pairing check over one file, returning raw (pre-pragma)
/// `atomic-unpaired` findings.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if file.is_model() {
        return findings;
    }
    let index = index_file(file);
    // Pool accesses per field name; unresolved receivers are not paired.
    let mut pools: std::collections::BTreeMap<&str, Vec<&AtomicAccess>> =
        std::collections::BTreeMap::new();
    for a in &index.accesses {
        if a.in_test {
            continue;
        }
        if let Some(field) = a.field.as_deref() {
            pools.entry(field).or_default().push(a);
        }
    }
    for (field, accesses) in pools {
        let release_write = |a: &AtomicAccess| {
            matches!(a.op, OpKind::Store | OpKind::Rmw)
                && a.orderings
                    .iter()
                    .any(|o| matches!(o, Mo::Release | Mo::AcqRel | Mo::SeqCst))
        };
        let acquire_read = |a: &AtomicAccess| {
            matches!(a.op, OpKind::Load | OpKind::Rmw)
                && a.orderings
                    .iter()
                    .any(|o| matches!(o, Mo::Acquire | Mo::AcqRel | Mo::SeqCst))
        };
        let has_release_write = accesses.iter().any(|&a| release_write(a));
        let has_acquire_read = accesses.iter().any(|&a| acquire_read(a));
        let has_seqcst = accesses.iter().any(|a| a.orderings.contains(&Mo::SeqCst));
        let all_relaxed = |a: &AtomicAccess| a.orderings.iter().all(|o| *o == Mo::Relaxed);
        let has_fully_relaxed = accesses.iter().any(|&a| all_relaxed(a));
        let mut emit = |a: &AtomicAccess, message: String| {
            findings.push(Finding {
                file: file.rel_path.clone(),
                line: a.line,
                rule: "atomic-unpaired",
                message,
                snippet: file
                    .lines
                    .get(a.line.saturating_sub(1))
                    .map(|l| l.trim().to_owned())
                    .unwrap_or_default(),
                suppressed: false,
            });
        };
        for a in accesses {
            if release_write(a) && !has_acquire_read {
                emit(
                    a,
                    format!(
                        "`{}` is written with {} ordering but no Acquire-side read of \
                         `{field}` exists in this file; the release publishes to nobody",
                        a.receiver,
                        a.orderings
                            .iter()
                            .map(|o| o.name())
                            .collect::<Vec<_>>()
                            .join("/"),
                    ),
                );
            }
            if acquire_read(a) && !has_release_write {
                emit(
                    a,
                    format!(
                        "`{}` is read with {} ordering but `{field}` is never written with \
                         Release-class ordering in this file; the acquire synchronizes with nothing",
                        a.receiver,
                        a.orderings
                            .iter()
                            .map(|o| o.name())
                            .collect::<Vec<_>>()
                            .join("/"),
                    ),
                );
            }
            if has_seqcst && has_fully_relaxed && a.orderings.contains(&Mo::SeqCst) {
                emit(
                    a,
                    format!(
                        "`{field}` mixes SeqCst and fully-Relaxed accesses; one side pays for \
                         an ordering the other ignores"
                    ),
                );
            }
        }
    }
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.message.cmp(&b.message)));
    findings
}

// ------------------------------------------------------------- extraction

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Byte offsets where `tok` occurs in `code` with non-identifier bytes on
/// both sides.
fn token_positions_str(code: &str, tok: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(off) = tail(code, from).find(tok) {
        let start = from + off;
        let end = start + tok.len();
        let left_ok = start == 0 || !is_ident(at(bytes, start - 1));
        let right_ok = end >= bytes.len() || !is_ident(at(bytes, end));
        if left_ok && right_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

/// Index of the `.` introducing the method at `pos`, skipping whitespace
/// (rustfmt puts chained calls on their own lines).
fn dot_before(bytes: &[u8], pos: usize) -> Option<usize> {
    let mut i = pos;
    while i > 0 && at(bytes, i - 1).is_ascii_whitespace() {
        i -= 1;
    }
    if i > 0 && at(bytes, i - 1) == b'.' {
        Some(i - 1)
    } else {
        None
    }
}

/// Index just past the `)` matching the `(` at `open` (depth-counted on
/// the code mask, so parens in literals cannot confuse it).
fn match_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < bytes.len() {
        match at(bytes, j) {
            b'(' => depth += 1,
            b')' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    bytes.len()
}

/// Every `Ordering::<Variant>` literal inside one argument list.
fn orderings_in(args: &str) -> Vec<Mo> {
    let bytes = args.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    const PREFIX: &str = "Ordering::";
    while let Some(off) = tail(args, from).find(PREFIX) {
        let start = from + off + PREFIX.len();
        let mut end = start;
        while end < bytes.len() && is_ident(at(bytes, end)) {
            end += 1;
        }
        if let Some(mo) = Mo::parse(sub(args, start, end)) {
            out.push(mo);
        }
        from = start;
    }
    out
}

/// Walks the dotted receiver chain left of the `.` at `dot`. Returns the
/// joined receiver text, its identifier segments in source order, and
/// whether the chain continues left into a non-identifier expression (a
/// call result or an index), which makes the last segment a field
/// projection even when it is the only segment collected.
fn receiver_before(code: &str, dot: usize) -> (String, Vec<String>, bool) {
    let bytes = code.as_bytes();
    let mut segments: Vec<String> = Vec::new();
    let mut follows_expr = false;
    let mut i = dot;
    loop {
        // Skip whitespace between the `.` and the segment before it.
        while i > 0 && at(bytes, i - 1).is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 {
            break;
        }
        let prev = at(bytes, i - 1);
        if prev == b')' || prev == b']' {
            follows_expr = true;
            break;
        }
        if !is_ident(prev) {
            break;
        }
        let end = i;
        while i > 0 && is_ident(at(bytes, i - 1)) {
            i -= 1;
        }
        segments.push(sub(code, i, end).to_owned());
        // Continue only through another `.`.
        let mut j = i;
        while j > 0 && at(bytes, j - 1).is_ascii_whitespace() {
            j -= 1;
        }
        if j > 0 && at(bytes, j - 1) == b'.' {
            i = j - 1;
        } else {
            break;
        }
    }
    segments.reverse();
    (segments.join("."), segments, follows_expr)
}

/// The enclosing `impl`/`trait` name of the innermost function covering
/// byte `offset`, when that function is associated.
fn owner_of_offset(fns: &[syntax::FnItem], offset: usize) -> Option<String> {
    let mut best: Option<&syntax::FnItem> = None;
    for f in fns {
        if f.span.0 <= offset && offset < f.span.1 {
            // Functions are flattened in pre-order; a later covering span
            // is more deeply nested.
            best = Some(f);
        }
    }
    best.and_then(|f| f.owner.clone())
}

/// Collects `(type, field)` pairs for fields declared with an atomic
/// type (possibly under wrappers like `CachePadded<AtomicU64>`).
fn collect_fields(code: &str, items: &[Item], out: &mut Vec<(String, String)>) {
    for item in items {
        if item.kind == ItemKind::Type && !item.cfg_test {
            if let Some((lo, hi)) = item.body {
                for line in sub(code, lo, hi).lines() {
                    for ty in ATOMIC_TYPES {
                        for pos in token_positions_str(line, ty) {
                            if let Some(name) = binding_for_type_token(line, pos) {
                                let pair = (item.name.clone(), name);
                                if !out.contains(&pair) {
                                    out.push(pair);
                                }
                            }
                        }
                    }
                }
            }
        }
        collect_fields(code, &item.children, out);
    }
}

/// Collects bare identifiers the file declares with an atomic type:
/// parameters and statics (`name: &AtomicU64`), and direct initializers
/// (`let name = AtomicU64::new(..)`).
fn collect_bindings(code: &str, out: &mut Vec<String>) {
    for line in code.lines() {
        for ty in ATOMIC_TYPES {
            for pos in token_positions_str(line, ty) {
                if let Some(name) = binding_for_type_token(line, pos) {
                    if !out.contains(&name) {
                        out.push(name);
                    }
                }
            }
        }
    }
}

/// Resolves the identifier a type token at `pos` declares, peeling
/// generic wrappers (`CachePadded<AtomicU64>`, `Arc<CachePadded<..>>`)
/// before delegating to the shared binding walker.
fn binding_for_type_token(line: &str, pos: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut i = pos;
    loop {
        let before = sub(line, 0, i).trim_end();
        if !before.ends_with('<') {
            break;
        }
        // Strip the `<`, the wrapper ident, and any `path::` prefix.
        let mut j = before.len() - 1;
        while j > 0 && is_ident(at(bytes, j - 1)) {
            j -= 1;
        }
        while j >= 2 && sub(line, j - 2, j) == "::" {
            j -= 2;
            while j > 0 && is_ident(at(bytes, j - 1)) {
                j -= 1;
            }
        }
        if j == i {
            break;
        }
        i = j;
    }
    crate::rules::binding_before(line, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::{cfg_test_lines, FileKind, SourceFile};
    use crate::lexer::mask;

    fn file(path: &str, src: &str) -> SourceFile {
        let masked = mask(src);
        let in_test = cfg_test_lines(&masked);
        SourceFile {
            rel_path: path.into(),
            crate_name: "scp-serve".into(),
            kind: FileKind::Library,
            in_test,
            masked,
            lines: src.lines().map(str::to_owned).collect(),
        }
    }

    fn lib_file(src: &str) -> SourceFile {
        file("crates/serve/src/x.rs", src)
    }

    #[test]
    fn indexes_fields_bindings_and_accesses() {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering};
pub struct Ring { tail: CachePadded<AtomicU64> }
impl Ring {
    pub fn push(&self) {
        self.tail.store(1, Ordering::Release);
    }
    pub fn read(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }
}
pub fn wait(stop: &AtomicU64) -> u64 {
    stop.load(Ordering::Acquire)
}
";
        let ix = index_file(&lib_file(src));
        assert_eq!(ix.fields, vec![("Ring".to_owned(), "tail".to_owned())]);
        assert!(ix.bindings.contains(&"stop".to_owned()));
        assert_eq!(ix.accesses.len(), 3);
        assert_eq!(ix.accesses[0].field.as_deref(), Some("tail"));
        assert_eq!(ix.accesses[0].owner.as_deref(), Some("Ring"));
        assert_eq!(ix.accesses[0].op, OpKind::Store);
        assert_eq!(ix.accesses[0].orderings, vec![Mo::Release]);
        assert_eq!(ix.accesses[2].field.as_deref(), Some("stop"));
        assert_eq!(ix.accesses[2].owner, None);
    }

    #[test]
    fn multiline_compare_exchange_collects_both_orderings() {
        let src = "\
pub fn claim(quota: &AtomicU64) {
    let _ = quota.compare_exchange(
        1,
        2,
        Ordering::AcqRel,
        Ordering::Relaxed,
    );
}
";
        let ix = index_file(&lib_file(src));
        assert_eq!(ix.accesses.len(), 1);
        assert_eq!(ix.accesses[0].op, OpKind::Rmw);
        assert_eq!(ix.accesses[0].orderings, vec![Mo::AcqRel, Mo::Relaxed]);
    }

    #[test]
    fn variable_orderings_and_plain_methods_are_ignored() {
        let src = "\
pub fn shim(a: &AtomicU64, o: Ordering) -> u64 {
    let v = a.load(o);
    map.load(\"key\");
    v
}
";
        let ix = index_file(&lib_file(src));
        assert!(ix.accesses.is_empty());
    }

    #[test]
    fn unresolved_receivers_are_indexed_but_not_paired() {
        let src = "\
pub fn f(xs: &[CachePadded<AtomicU64>]) {
    xs.iter().for_each(|c| {
        c.store(1, Ordering::Release);
    });
}
";
        let sf = lib_file(src);
        let ix = index_file(&sf);
        assert_eq!(ix.accesses.len(), 1);
        assert_eq!(ix.accesses[0].field, None);
        assert!(check_file(&sf).is_empty());
    }

    #[test]
    fn indexed_element_accesses_key_on_the_field() {
        let src = "\
pub fn f(&self) {
    self.slots[i].seq.store(1, Ordering::Release);
    let _ = self.slots[j].seq.load(Ordering::Acquire);
}
";
        let ix = index_file(&lib_file(src));
        assert_eq!(ix.accesses.len(), 2);
        assert_eq!(ix.accesses[0].field.as_deref(), Some("seq"));
        assert_eq!(ix.accesses[1].field.as_deref(), Some("seq"));
    }
}
