//! An intra-workspace call graph over the [`crate::syntax`] item trees.
//!
//! The graph exists for two consumers — the panic-surface report and the
//! determinism-surface report ([`crate::surface`], [`crate::taint`]) — so
//! its design goal is *sound reachability*, not precise name resolution:
//! when a call site could plausibly target a workspace function, the edge
//! is added. Overapproximation makes the surfaces larger, never smaller,
//! which is the safe direction for ratchets that only allow a surface to
//! shrink.
//!
//! Resolution is name-based and deterministic:
//!
//! * `name(...)` — a free call: candidates are functions named `name` in
//!   the same file, else the same crate, else any crate the file imports
//!   (via its `use` graph);
//! * `Type::name(...)` — a qualified call: candidates are functions whose
//!   qualified name ends in `Type::name` anywhere in the workspace, with
//!   the free-call fallback when the pair is unknown (e.g. the `Type`
//!   segment was a module name);
//! * `.name(...)` — a method call: candidates are functions named `name`
//!   in the same crate or an imported crate, *except* names on the
//!   `CALL_NAME_NOISE` list (ubiquitous `std` method names like `len`,
//!   `push`, `get` whose receiver is almost always a standard type —
//!   linking those would connect everything to everything). When the
//!   surviving candidates include `impl`-associated methods owned by
//!   exactly one type, the free functions and trait declarations sharing
//!   the name are dropped: a `.name(...)` call must dispatch to *some*
//!   inherent or trait impl, and with a single implementing type in scope
//!   that impl is the only possible target.
//!
//! Test code is excluded entirely (functions *and* call sites): the
//! surface describes what shipping code can reach, and a test helper can
//! never be called from a non-test path.

use crate::files::{FileKind, SourceFile};
use crate::pragma;
use crate::rules;
use crate::syntax;
use crate::syntax::{at, sub};
use crate::taint;
use std::collections::{BTreeMap, BTreeSet};

/// One function node of the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Stable identifier: `rel_path::qualified_name`, e.g.
    /// `crates/serve/src/spsc.rs::Producer::try_push`.
    pub id: String,
    /// Bare function name (last path segment).
    pub name: String,
    /// Crate the function belongs to (e.g. `scp-serve`).
    pub crate_name: String,
    /// Workspace-relative path of the defining file.
    pub rel_path: String,
    /// Whether the function carries a `pub` modifier.
    pub is_pub: bool,
    /// Nearest enclosing `impl`/`trait` name when the fn is associated.
    pub owner: Option<String>,
    /// Whether [`FnNode::owner`] is an `impl` (a concrete type) rather
    /// than a `trait` declaration.
    pub owner_is_impl: bool,
    /// 1-based line the declaration starts on.
    pub decl_line: usize,
    /// Number of panic-capable sites ([`crate::rules::panic_site_lines`])
    /// lexically inside this function.
    pub local_sites: usize,
    /// Whether the function can transitively reach a panic-capable site
    /// (including its own).
    pub reaches_panic: bool,
    /// Number of nondeterminism source sites
    /// (`rules::taint_site_lines`) lexically inside this function.
    pub taint_sites: usize,
    /// First local source site, as `(line, what)` — used by taint traces.
    pub first_taint: Option<(usize, String)>,
    /// Whether a `// DETERMINISM: <reason>` pragma inside this function
    /// marks it as a justified laundering point (see [`crate::taint`]).
    pub launders: bool,
    /// Lines of the `DETERMINISM:` pragmas inside this function.
    pub launder_lines: Vec<usize>,
    /// Whether nondeterminism can transitively reach this function's
    /// results (see [`crate::taint`]).
    pub tainted: bool,
    /// Indices (into [`CallGraph::fns`]) of resolved callees.
    pub callees: Vec<usize>,
}

/// The assembled workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test functions from library/binary files, in deterministic
    /// (path, source) order.
    pub fns: Vec<FnNode>,
    /// Total resolved call edges.
    pub edge_count: usize,
    /// Hygiene findings for `DETERMINISM:` pragmas (`invalid-pragma` for
    /// a missing reason or a pragma outside any function, `unused-allow`
    /// for a pragma that launders nothing), raw/pre-suppression.
    pub determinism_findings: Vec<rules::Finding>,
}

/// Method-call names so common on `std` types that linking them by name
/// would wire the whole workspace together. Calls through these names are
/// not resolved; a workspace method that shadows one of them simply
/// contributes no *incoming* method-call edges (its qualified calls still
/// resolve).
const CALL_NAME_NOISE: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "bytes",
    "ceil",
    "chain",
    "chars",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "expect_err",
    "extend",
    "exp",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_finite",
    "is_nan",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "load",
    "log2",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "new",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "parse",
    "partial_cmp",
    "position",
    "pow",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "pop",
    "remove",
    "repeat",
    "replace",
    "resize",
    "retain",
    "rev",
    "reverse",
    "rfind",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_whitespace",
    "sqrt",
    "starts_with",
    "step_by",
    "sum",
    "swap",
    "take",
    "then",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_into",
    "unwrap",
    "unwrap_err",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "windows",
    "wrapping_add",
    "wrapping_mul",
    "zip",
];

/// Keywords and call-like constructs that look like `ident(` but are not
/// function calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "use", "pub", "impl", "where", "unsafe", "async", "await",
    "dyn", "box", "Some", "Ok", "Err", "None",
];

/// Builds the call graph from classified sources, computing panic
/// reachability for every node.
pub fn build(sources: &[SourceFile]) -> CallGraph {
    let mut graph = CallGraph::default();
    // Per-file parse results and per-fn metadata, gathered first so the
    // name indices cover the whole workspace before resolution starts.
    let mut file_fn_ranges: Vec<(usize, usize)> = Vec::new(); // fn index range per file
    let mut parsed_files: Vec<Option<syntax::ParsedFile>> = Vec::new();

    for file in sources {
        let lo = graph.fns.len();
        if !matches!(file.kind, FileKind::Library | FileKind::Binary) {
            parsed_files.push(None);
            file_fn_ranges.push((lo, lo));
            continue;
        }
        let parsed = syntax::parse(&file.masked);
        let panic_lines = rules::panic_site_lines(file);
        let fn_of_line = innermost_fn_of_line(&parsed.fns, file.masked.code.lines().count());
        // Count panic sites per innermost enclosing fn.
        let mut sites_per_fn = vec![0usize; parsed.fns.len()];
        for &lineno in &panic_lines {
            if let Some(Some(fi)) = fn_of_line.get(lineno.saturating_sub(1)) {
                if let Some(n) = sites_per_fn.get_mut(*fi) {
                    *n += 1;
                }
            }
        }
        // Count nondeterminism sources per innermost enclosing fn and
        // remember the first one for taint traces.
        let mut taint_per_fn = vec![0usize; parsed.fns.len()];
        let mut first_taint: Vec<Option<(usize, String)>> = vec![None; parsed.fns.len()];
        for site in rules::taint_site_lines(file) {
            if let Some(Some(fi)) = fn_of_line.get(site.line.saturating_sub(1)) {
                if let Some(n) = taint_per_fn.get_mut(*fi) {
                    *n += 1;
                }
                if let Some(slot) = first_taint.get_mut(*fi) {
                    if slot.is_none() {
                        *slot = Some((site.line, site.what));
                    }
                }
            }
        }
        // Map `DETERMINISM:` pragmas onto their innermost fn; a pragma
        // outside every function has nothing to launder and is invalid.
        let (det_pragmas, det_errors) = pragma::parse_determinism(file);
        let mut launder_lines_per_fn: Vec<Vec<usize>> = vec![Vec::new(); parsed.fns.len()];
        for p in det_pragmas {
            match fn_of_line.get(p.line.saturating_sub(1)) {
                Some(Some(fi)) => {
                    if let Some(lines) = launder_lines_per_fn.get_mut(*fi) {
                        lines.push(p.line);
                    }
                }
                _ => graph.determinism_findings.push(rules::Finding {
                    file: file.rel_path.clone(),
                    line: p.line,
                    rule: "invalid-pragma",
                    message: "DETERMINISM: pragma outside any function has nothing to launder"
                        .to_owned(),
                    snippet: snippet_at(file, p.line),
                    suppressed: false,
                }),
            }
        }
        for e in det_errors {
            graph.determinism_findings.push(rules::Finding {
                file: file.rel_path.clone(),
                line: e.line,
                rule: "invalid-pragma",
                message: e.message,
                snippet: snippet_at(file, e.line),
                suppressed: false,
            });
        }
        for (fi, f) in parsed.fns.iter().enumerate() {
            if f.cfg_test {
                continue;
            }
            let launder_lines = launder_lines_per_fn.get(fi).cloned().unwrap_or_default();
            graph.fns.push(FnNode {
                id: format!("{}::{}", file.rel_path, f.qualified),
                name: f.name.clone(),
                crate_name: file.crate_name.clone(),
                rel_path: file.rel_path.clone(),
                is_pub: f.is_pub,
                owner: f.owner.clone(),
                owner_is_impl: f.owner_is_impl,
                decl_line: f.lines.0,
                local_sites: sites_per_fn.get(fi).copied().unwrap_or(0),
                reaches_panic: false,
                taint_sites: taint_per_fn.get(fi).copied().unwrap_or(0),
                first_taint: first_taint.get_mut(fi).and_then(Option::take),
                launders: !launder_lines.is_empty(),
                launder_lines,
                tainted: false,
                callees: Vec::new(),
            });
        }
        parsed_files.push(Some(parsed));
        file_fn_ranges.push((lo, graph.fns.len()));
    }

    let index = NameIndex::build(&graph.fns);

    // Second pass: extract call sites per file line, attribute each to its
    // innermost non-test fn, and resolve.
    for ((file, parsed), &(lo, hi)) in sources.iter().zip(&parsed_files).zip(&file_fn_ranges) {
        let Some(parsed) = parsed else {
            continue;
        };
        if lo == hi {
            continue;
        }
        // Map parsed-fn index -> graph node index (test fns were skipped).
        let mut node_of: Vec<Option<usize>> = Vec::with_capacity(parsed.fns.len());
        let mut next = lo;
        for f in &parsed.fns {
            if f.cfg_test {
                node_of.push(None);
            } else {
                node_of.push(Some(next));
                next += 1;
            }
        }
        let imported = imported_crates(&parsed.uses, &file.crate_name);
        let code_lines = file.masked.code_lines();
        let fn_of_line = innermost_fn_of_line(&parsed.fns, code_lines.len());
        for (idx, line) in code_lines.iter().enumerate() {
            let Some(Some(fi)) = fn_of_line.get(idx) else {
                continue;
            };
            let Some(Some(node)) = node_of.get(*fi).copied() else {
                continue;
            };
            let Some(caller) = graph.fns.get(node) else {
                continue;
            };
            let mut targets = Vec::new();
            for call in extract_calls(line) {
                targets.extend(index.resolve(&call, &graph.fns, caller, &imported));
            }
            let mut new_edges = 0usize;
            if let Some(n) = graph.fns.get_mut(node) {
                for target in targets {
                    if target != node && !n.callees.contains(&target) {
                        n.callees.push(target);
                        new_edges += 1;
                    }
                }
            }
            graph.edge_count += new_edges;
        }
    }

    propagate_reachability(&mut graph);
    taint::propagate(&mut graph);

    // A `DETERMINISM:` pragma that launders nothing — no local source
    // site and no tainted callee — is stale and must be removed, exactly
    // like an unused `scp-allow`.
    let mut unused: Vec<(String, usize)> = Vec::new();
    for f in &graph.fns {
        if !f.launders {
            continue;
        }
        let any_tainted_callee = f
            .callees
            .iter()
            .any(|&c| graph.fns.get(c).is_some_and(|cf| cf.tainted));
        if f.taint_sites == 0 && !any_tainted_callee {
            for &line in &f.launder_lines {
                unused.push((f.rel_path.clone(), line));
            }
        }
    }
    for (rel_path, line) in unused {
        let snippet = sources
            .iter()
            .find(|s| s.rel_path == rel_path)
            .map(|s| snippet_at(s, line))
            .unwrap_or_default();
        graph.determinism_findings.push(rules::Finding {
            file: rel_path,
            line,
            rule: "unused-allow",
            message: "DETERMINISM: pragma launders nothing (no nondeterminism reaches this \
                      function) — remove it"
                .to_owned(),
            snippet,
            suppressed: false,
        });
    }
    graph
}

/// Trimmed source text of a 1-based line, for finding snippets.
fn snippet_at(file: &SourceFile, line: usize) -> String {
    file.lines
        .get(line.saturating_sub(1))
        .map(|l| l.trim().to_owned())
        .unwrap_or_default()
}

/// For each 0-based line, the index (into `fns`) of the innermost
/// function whose line span covers it. Functions appear in pre-order, so
/// later (nested) spans overwrite their ancestors'.
fn innermost_fn_of_line(fns: &[syntax::FnItem], n_lines: usize) -> Vec<Option<usize>> {
    let mut map = vec![None; n_lines];
    for (fi, f) in fns.iter().enumerate() {
        let (first, last) = f.lines;
        for slot in map
            .iter_mut()
            .take(last.min(n_lines))
            .skip(first.saturating_sub(1))
        {
            *slot = Some(fi);
        }
    }
    map
}

/// One syntactic call site.
#[derive(Debug, PartialEq)]
enum Call {
    /// `name(...)` with no receiver.
    Free(String),
    /// `Prefix::name(...)`.
    Qualified(String, String),
    /// `.name(...)`.
    Method(String),
}

/// Extracts call sites from one code-mask line: identifiers directly
/// followed by `(`, classified by what precedes them. Macros (`name!`)
/// are skipped — panic-capable macros are already counted as sites by the
/// line rules.
fn extract_calls(line: &str) -> Vec<Call> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if !is_ident_start(at(bytes, i)) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident(at(bytes, i)) {
            i += 1;
        }
        let word = sub(line, start, i);
        // Next non-space byte must open a call.
        let mut j = i;
        while j < bytes.len() && at(bytes, j) == b' ' {
            j += 1;
        }
        if at(bytes, j) != b'(' {
            continue;
        }
        if NON_CALL_WORDS.contains(&word) {
            continue;
        }
        // Numeric-leading tokens can't be fn names.
        if at(bytes, start).is_ascii_digit() {
            continue;
        }
        let before = bytes.get(..start).unwrap_or(&[]);
        // `fn name(` is the definition, not a call on itself.
        if prev_word_is(before, b"fn") {
            continue;
        }
        if ends_with(before, b".") {
            out.push(Call::Method(word.to_owned()));
        } else if ends_with(before, b"::") {
            // Walk back over the preceding path segment.
            let seg_end = start.saturating_sub(2);
            let mut seg_start = seg_end;
            while seg_start > 0 && is_ident(at(bytes, seg_start - 1)) {
                seg_start -= 1;
            }
            if seg_start < seg_end {
                out.push(Call::Qualified(
                    sub(line, seg_start, seg_end).to_owned(),
                    word.to_owned(),
                ));
            } else {
                out.push(Call::Free(word.to_owned()));
            }
        } else {
            out.push(Call::Free(word.to_owned()));
        }
    }
    out
}

fn ends_with(bytes: &[u8], suffix: &[u8]) -> bool {
    // Skip trailing spaces between the token and its qualifier.
    let mut end = bytes.len();
    while end > 0 && at(bytes, end - 1) == b' ' {
        end -= 1;
    }
    end >= suffix.len() && bytes.get(end - suffix.len()..end) == Some(suffix)
}

/// Whether the last word before trailing spaces is exactly `word`.
fn prev_word_is(bytes: &[u8], word: &[u8]) -> bool {
    let mut end = bytes.len();
    while end > 0 && at(bytes, end - 1) == b' ' {
        end -= 1;
    }
    if end < word.len() || bytes.get(end - word.len()..end) != Some(word) {
        return false;
    }
    let word_at = end - word.len();
    word_at == 0 || !is_ident(at(bytes, word_at - 1))
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// Name-to-node lookup tables.
struct NameIndex {
    /// Bare name -> node indices, workspace-wide.
    by_name: BTreeMap<String, Vec<usize>>,
    /// (`Type`, `name`) from the last two qualified segments -> nodes.
    by_pair: BTreeMap<(String, String), Vec<usize>>,
}

impl NameIndex {
    fn build(fns: &[FnNode]) -> Self {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_pair: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            let mut segs = f.id.rsplit("::");
            if let (Some(last), Some(second_last)) = (segs.next(), segs.next()) {
                by_pair
                    .entry((second_last.to_owned(), last.to_owned()))
                    .or_default()
                    .push(i);
            }
        }
        Self { by_name, by_pair }
    }

    /// Deterministic candidate set for one call from `caller`; `fns` is
    /// the node vector the index was built over.
    fn resolve(
        &self,
        call: &Call,
        fns: &[FnNode],
        caller: &FnNode,
        imported: &BTreeSet<String>,
    ) -> Vec<usize> {
        let all = |name: &str| {
            self.by_name
                .get(name)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .to_vec()
        };
        let in_scope = |i: &usize| {
            fns.get(*i).is_some_and(|f| {
                f.crate_name == caller.crate_name || imported.contains(&f.crate_name)
            })
        };
        match call {
            Call::Free(name) => {
                let candidates = all(name);
                let same_file: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| fns.get(i).is_some_and(|f| f.rel_path == caller.rel_path))
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let same_crate: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| {
                        fns.get(i)
                            .is_some_and(|f| f.crate_name == caller.crate_name)
                    })
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                candidates.into_iter().filter(|i| in_scope(i)).collect()
            }
            Call::Qualified(prefix, name) => {
                // `Self::f(...)` names the caller's own impl type: swap in
                // that type (second-to-last id segment) so the pair lookup
                // stays precise instead of falling back workspace-wide.
                let prefix = if prefix == "Self" {
                    let mut segs = caller.id.rsplit("::");
                    segs.next();
                    match segs.next() {
                        Some(ty) if !ty.ends_with(".rs") => ty,
                        _ => prefix.as_str(),
                    }
                } else {
                    prefix.as_str()
                };
                if let Some(hits) = self.by_pair.get(&(prefix.to_owned(), name.clone())) {
                    return hits.clone();
                }
                // Unknown pair: the prefix was probably a module, or a
                // `std` type. Fall back to crate-scoped name resolution so
                // `bounds::upper_bound(...)` still links, while
                // `String::from(...)` links only if a workspace `from`
                // exists in scope. Noise names are excluded here too —
                // `Arc::new(...)` or `AtomicBool::new(...)` on a `std`
                // type must not link to every workspace constructor.
                if CALL_NAME_NOISE.contains(&name.as_str()) {
                    return Vec::new();
                }
                all(name).into_iter().filter(|i| in_scope(i)).collect()
            }
            Call::Method(name) => {
                if CALL_NAME_NOISE.contains(&name.as_str()) {
                    return Vec::new();
                }
                let candidates: Vec<usize> =
                    all(name).into_iter().filter(|i| in_scope(i)).collect();
                // A method call dispatches to an impl. When the in-scope
                // candidates include impl-associated methods owned by
                // exactly one type, that impl is the only possible target:
                // drop same-named free fns and trait declarations. With
                // zero impl candidates (or several owner types) keep the
                // full over-approximate set.
                let impl_owners: BTreeSet<&str> = candidates
                    .iter()
                    .filter_map(|&i| fns.get(i))
                    .filter(|f| f.owner_is_impl)
                    .filter_map(|f| f.owner.as_deref())
                    .collect();
                if impl_owners.len() == 1 {
                    return candidates
                        .into_iter()
                        .filter(|&i| fns.get(i).is_some_and(|f| f.owner_is_impl))
                        .collect();
                }
                candidates
            }
        }
    }
}

/// Crates a file's `use` declarations bring into scope, plus its own.
fn imported_crates(uses: &[syntax::UseDecl], own: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    out.insert(own.to_owned());
    for u in uses {
        if let Some(head) = u.path.first() {
            if let Some(crate_name) = crate_of_import(head) {
                out.insert(crate_name);
            }
        }
    }
    out
}

/// Maps a `use` path head to a workspace crate name.
fn crate_of_import(head: &str) -> Option<String> {
    if head == "secure_cache_provision" {
        return Some("secure-cache-provision".to_owned());
    }
    head.strip_prefix("scp_").map(|rest| format!("scp-{rest}"))
}

/// Fixed-point reachability: a node reaches panic if it has local sites
/// or any callee reaches panic.
fn propagate_reachability(graph: &mut CallGraph) {
    // Reverse edges, then BFS from every panic-bearing node.
    let n = graph.fns.len();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, f) in graph.fns.iter().enumerate() {
        for &c in &f.callees {
            if let Some(r) = rev.get_mut(c) {
                r.push(i);
            }
        }
    }
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in graph.fns.iter_mut().enumerate() {
        if f.local_sites > 0 {
            f.reaches_panic = true;
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        for &caller in rev.get(i).map(Vec::as_slice).unwrap_or(&[]) {
            if let Some(f) = graph.fns.get_mut(caller) {
                if !f.reaches_panic {
                    f.reaches_panic = true;
                    queue.push(caller);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, text)| SourceFile::from_source(path, text))
            .collect();
        build(&sources)
    }

    fn node<'a>(g: &'a CallGraph, id: &str) -> &'a FnNode {
        g.fns
            .iter()
            .find(|f| f.id.ends_with(id))
            .unwrap_or_else(|| panic!("no node ending in {id}"))
    }

    #[test]
    fn local_panic_site_marks_fn_and_direct_caller() {
        let g = graph_of(&[(
            "crates/sim/src/g.rs",
            "pub fn outer() { inner(); }\n\
             fn inner() { maybe().unwrap(); }\n\
             fn maybe() -> Option<u64> { None }\n\
             pub fn clean() -> u64 { 1 }\n",
        )]);
        assert_eq!(node(&g, "::inner").local_sites, 1);
        assert!(node(&g, "::inner").reaches_panic);
        assert!(node(&g, "::outer").reaches_panic);
        assert!(!node(&g, "::clean").reaches_panic);
        assert!(!node(&g, "::maybe").reaches_panic);
    }

    #[test]
    fn qualified_calls_link_across_crates() {
        let g = graph_of(&[
            (
                "crates/cache/src/g.rs",
                "pub struct C;\nimpl C {\n    pub fn lookup(&self) -> u64 { self.raw[0] }\n}\n",
            ),
            (
                "crates/serve/src/g.rs",
                "use scp_cache::C;\npub fn serve(c: &C) -> u64 { C::lookup(c) }\n",
            ),
        ]);
        assert!(node(&g, "::C::lookup").reaches_panic, "slice-index site");
        assert!(node(&g, "::serve").reaches_panic, "links via Type::method");
    }

    #[test]
    fn method_calls_resolve_within_imported_crates_only() {
        let g = graph_of(&[
            (
                "crates/cache/src/g.rs",
                "pub struct C;\nimpl C {\n    pub fn shed(&self) { panic!(\"x\") }\n}\n",
            ),
            (
                "crates/serve/src/g.rs",
                "use scp_cache::C;\npub fn f(c: &C) { c.shed() }\n",
            ),
            ("crates/sim/src/g.rs", "pub fn unrelated() -> u64 { 1 }\n"),
        ]);
        assert!(node(&g, "::f").reaches_panic);
        assert!(!node(&g, "::unrelated").reaches_panic);
    }

    #[test]
    fn noisy_method_names_do_not_link() {
        let g = graph_of(&[(
            "crates/sim/src/g.rs",
            "pub struct S;\nimpl S {\n    pub fn len(&self) -> usize { self.raw[0] }\n}\n\
             pub fn uses_std_len(v: &[u64]) -> usize { v.len() }\n",
        )]);
        assert!(node(&g, "S::len").reaches_panic);
        assert!(
            !node(&g, "::uses_std_len").reaches_panic,
            "`.len()` must not link to the workspace `len`"
        );
    }

    #[test]
    fn test_fns_and_test_call_sites_are_excluded() {
        let g = graph_of(&[(
            "crates/sim/src/g.rs",
            "pub fn clean() -> u64 { 1 }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() { x.unwrap(); }\n\
                 #[test]\n\
                 fn t() { helper(); super::clean(); }\n\
             }\n",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert!(!node(&g, "::clean").reaches_panic);
    }

    #[test]
    fn extraction_classifies_call_shapes() {
        let calls = extract_calls("a(); b.c(); D::e(); f::g(); h! (); 7(); if (x) {}");
        assert_eq!(
            calls,
            vec![
                Call::Free("a".into()),
                Call::Method("c".into()),
                Call::Qualified("D".into(), "e".into()),
                Call::Qualified("f".into(), "g".into()),
            ]
        );
    }

    #[test]
    fn free_calls_prefer_same_file_then_same_crate() {
        let g = graph_of(&[
            (
                "crates/sim/src/a.rs",
                "pub fn shared() { x.unwrap(); }\npub fn caller() { shared(); }\n",
            ),
            ("crates/sim/src/b.rs", "pub fn shared() -> u64 { 1 }\n"),
        ]);
        // caller links to a.rs's shared (panicking), not b.rs's clean one.
        assert!(node(&g, "a.rs::caller").reaches_panic);
        assert!(!node(&g, "b.rs::shared").reaches_panic);
    }

    #[test]
    fn cycles_terminate_and_propagate() {
        let g = graph_of(&[(
            "crates/sim/src/g.rs",
            "pub fn a(n: u64) { b(n); }\n\
             fn b(n: u64) { if n > 0 { a(n - 1); } c(); }\n\
             fn c() { x.expect(\"boom\"); }\n",
        )]);
        assert!(node(&g, "::a").reaches_panic);
        assert!(node(&g, "::b").reaches_panic);
    }
}
