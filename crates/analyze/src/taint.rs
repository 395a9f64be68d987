//! Transitive nondeterminism taint over the call graph.
//!
//! The line rules police nondeterminism *sources* where they stand; this
//! pass follows their **values**. A function is *tainted* when it
//! lexically contains a source site (`crate::rules::taint_site_lines`:
//! wall-clock reads — including whitelisted ones — env entropy,
//! `HashMap`/`HashSet` iteration, fully-`Relaxed` atomic loads) or calls
//! a tainted function, transitively along the (overapproximate) call
//! graph. Overapproximation is the right polarity here for the same
//! reason as the panic surface: a false edge can only keep a function
//! *in* the surface, never hide one.
//!
//! A `// DETERMINISM: <reason>` comment ([`crate::pragma`]) marks the
//! innermost function containing it as a justified *laundering point*:
//! the nondeterminism demonstrably does not corrupt results (a progress
//! display, wall-time journal *metadata*, a hash iteration whose output
//! is re-sorted or reduced to a cardinality). A laundering function is
//! never tainted and cuts propagation to its callers. A pragma that
//! launders nothing (no taint reaches its function) is reported as
//! `unused-allow`; a pragma without a reason is `invalid-pragma` — the
//! same hygiene the `scp-allow` machinery enforces.
//!
//! Every `pub` library function left tainted forms the **determinism
//! surface**, committed as `determinism-surface.json` and set-ratcheted
//! exactly like `panic-surface.json`: entering fails `--deny` (emitted as
//! a `nondet-taint` finding at the declaration), drift fails
//! `--check-baseline`, improvements re-lock with `--update-baseline`.

use crate::callgraph::CallGraph;
use crate::files::SourceFile;
use crate::rules::Finding;

/// Fixed-point taint propagation: a node is tainted if it has local
/// source sites or any callee is tainted — unless it launders
/// (`// DETERMINISM:`), which blocks both its own seeds and everything
/// flowing through it.
pub fn propagate(graph: &mut CallGraph) {
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
        if f.taint_sites > 0 && !f.launders {
            f.tainted = true;
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        for &caller in rev.get(i).map(Vec::as_slice).unwrap_or(&[]) {
            if let Some(f) = graph.fns.get_mut(caller) {
                if !f.tainted && !f.launders {
                    f.tainted = true;
                    queue.push(caller);
                }
            }
        }
    }
}

/// Renders a shortest call path from the function at `start` to a local
/// source site, e.g. `run_load -> client_loop -> claim_quota
/// (\`Relaxed\` atomic load... at line 108)`. Returns `None` when the
/// function is not tainted (no such path exists).
pub fn trace(graph: &CallGraph, start: usize) -> Option<String> {
    if !graph.fns.get(start)?.tainted {
        return None;
    }
    // BFS through tainted callees until a node with its own seed.
    let mut prev: Vec<Option<usize>> = vec![None; graph.fns.len()];
    let mut seen: Vec<bool> = vec![false; graph.fns.len()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    if let Some(s) = seen.get_mut(start) {
        *s = true;
    }
    while let Some(i) = queue.pop_front() {
        let f = graph.fns.get(i)?;
        if f.taint_sites > 0 {
            // Walk predecessors back to `start`.
            let mut path = vec![i];
            let mut cur = i;
            while let Some(Some(p)) = prev.get(cur) {
                path.push(*p);
                cur = *p;
            }
            path.reverse();
            let names: Vec<&str> = path
                .iter()
                .filter_map(|&j| graph.fns.get(j).map(|f| f.name.as_str()))
                .collect();
            let what = f
                .first_taint
                .as_ref()
                .map(|(line, what)| format!("{what} at line {line}"))
                .unwrap_or_default();
            return Some(format!("{} ({what})", names.join(" -> ")));
        }
        for &c in &f.callees {
            let is_new = graph.fns.get(c).is_some_and(|cf| cf.tainted)
                && seen.get(c).copied() == Some(false);
            if is_new {
                if let (Some(s), Some(p)) = (seen.get_mut(c), prev.get_mut(c)) {
                    *s = true;
                    *p = Some(i);
                }
                queue.push_back(c);
            }
        }
    }
    None
}

/// Builds one `nondet-taint` finding per function that *entered* the
/// determinism surface (`added`, from the surface report), anchored at
/// its declaration line with a source trace in the message.
pub fn surface_findings(
    graph: &CallGraph,
    added: &[String],
    sources: &[SourceFile],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for id in added {
        let Some((idx, node)) = graph.fns.iter().enumerate().find(|(_, f)| &f.id == id) else {
            continue;
        };
        let snippet = sources
            .iter()
            .find(|s| s.rel_path == node.rel_path)
            .and_then(|s| s.lines.get(node.decl_line.saturating_sub(1)))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default();
        let via = trace(graph, idx)
            .map(|t| format!(" via {t}"))
            .unwrap_or_default();
        out.push(Finding {
            file: node.rel_path.clone(),
            line: node.decl_line,
            rule: "nondet-taint",
            message: format!(
                "pub fn `{}` entered the determinism surface{via}; fix the source, cut the \
                 flow with `// DETERMINISM: <reason>` at a justified laundering point, or \
                 re-lock with --update-baseline",
                node.name
            ),
            snippet,
            suppressed: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::files::SourceFile;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, text)| SourceFile::from_source(path, text))
            .collect();
        callgraph::build(&sources)
    }

    fn node<'a>(g: &'a CallGraph, id: &str) -> &'a callgraph::FnNode {
        g.fns
            .iter()
            .find(|f| f.id.ends_with(id))
            .unwrap_or_else(|| panic!("no node ending in {id}"))
    }

    #[test]
    fn wall_clock_seed_taints_two_hop_callers() {
        let g = graph_of(&[(
            "crates/sim/src/t.rs",
            "pub fn top() -> f64 { mid() }\n\
             fn mid() -> f64 { read_clock() }\n\
             fn read_clock() -> f64 { let t = Instant::now(); 0.0 }\n\
             pub fn clean() -> u64 { 1 }\n",
        )]);
        assert!(node(&g, "::read_clock").taint_sites > 0);
        assert!(node(&g, "::read_clock").tainted);
        assert!(node(&g, "::mid").tainted);
        assert!(node(&g, "::top").tainted);
        assert!(!node(&g, "::clean").tainted);
    }

    #[test]
    fn determinism_pragma_cuts_propagation() {
        let g = graph_of(&[(
            "crates/sim/src/t.rs",
            "pub fn top() -> f64 { mid() }\n\
             fn mid() -> f64 {\n\
                 // DETERMINISM: wall time is progress metadata, never a result\n\
                 read_clock()\n\
             }\n\
             fn read_clock() -> f64 { let t = Instant::now(); 0.0 }\n",
        )]);
        assert!(node(&g, "::read_clock").tainted);
        assert!(node(&g, "::mid").launders);
        assert!(!node(&g, "::mid").tainted);
        assert!(!node(&g, "::top").tainted);
    }

    #[test]
    fn trace_names_the_path_and_source() {
        let g = graph_of(&[(
            "crates/sim/src/t.rs",
            "pub fn top() -> f64 { mid() }\n\
             fn mid() -> f64 { read_clock() }\n\
             fn read_clock() -> f64 { let t = Instant::now(); 0.0 }\n",
        )]);
        let idx = g
            .fns
            .iter()
            .position(|f| f.name == "top")
            .expect("top exists");
        let t = trace(&g, idx).expect("tainted");
        assert!(t.contains("top -> mid -> read_clock"), "{t}");
        assert!(t.contains("line 3"), "{t}");
    }
}
