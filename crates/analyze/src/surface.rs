//! Ratcheted call-graph surface reports.
//!
//! This module ratchets *sets* of `pub` function identities computed over
//! the [`crate::callgraph`]. Two surfaces share the machinery:
//!
//! * the **panic surface** — every `pub` library function that can
//!   transitively reach a panic-capable site
//!   (`unwrap`/`expect`/`panic!`/indexing, see
//!   [`crate::rules::panic_site_lines`], counted whether or not an
//!   `#[expect]` justifies the site);
//! * the **determinism surface** — every `pub` library function whose
//!   results nondeterminism can transitively reach (see [`crate::taint`]).
//!
//! Both sets are committed in one file at the workspace root
//! ([`SURFACE_FILE`]); the gate enforces that each can only shrink:
//!
//! * a `pub` function **entering** the surface fails `--deny` (new
//!   panic-reachable API is rejected);
//! * a function **leaving** the surface (or being deleted/renamed) passes
//!   `--deny` but fails `--check-baseline` until the file is regenerated
//!   with `--update-baseline`, locking the improvement in;
//! * a per-crate `summary` count (functions in the surface, `pub`
//!   functions seen) that differs from the observed one fails
//!   `--check-baseline` too, so the committed counts cannot drift from
//!   the committed list.
//!
//! Because call-graph resolution is overapproximate (see
//! [`crate::callgraph`]), membership means "the analyzer cannot rule a
//! panic out", not "a panic is reachable in practice". That is the right
//! polarity for a ratchet: false edges can only keep a function *in* the
//! surface, never silently drop it.

use crate::callgraph::{CallGraph, FnNode};
use scp_json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// File name of the committed surfaces, relative to the workspace root.
pub const SURFACE_FILE: &str = "analyze-surface.json";

/// Schema version written into the file.
pub const SURFACE_VERSION: u64 = 1;

/// The committed (or observed) surface: a set of function identifiers
/// (`rel_path::qualified_name`) and its per-crate counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Surface {
    /// Panic-reachable `pub` library functions.
    pub functions: BTreeSet<String>,
    /// Per-crate counts, keyed by crate name.
    pub summary: BTreeMap<String, CrateSurface>,
}

/// Per-crate aggregates, for reports and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrateSurface {
    /// `pub` library functions in the surface.
    pub reachable: u64,
    /// All `pub` library functions seen.
    pub pub_fns: u64,
}

/// The observed surface classified against the committed one.
#[derive(Debug, Default)]
pub struct SurfaceReport {
    /// What the call graph computed this run.
    pub observed: Surface,
    /// What the committed file promised.
    pub committed: Surface,
    /// Functions that entered the surface (regressions — fail `--deny`).
    pub added: Vec<String>,
    /// Functions that left the surface (improvements — require
    /// `--update-baseline` to re-lock).
    pub removed: Vec<String>,
    /// Crates whose committed `summary` counts differ from the observed
    /// ones, each as `name: committed → observed` (require
    /// `--update-baseline` to re-lock).
    pub drifted: Vec<String>,
    /// Total functions in the call graph (including non-`pub`).
    pub fn_count: usize,
    /// Total resolved call edges.
    pub edge_count: usize,
}

impl Surface {
    /// Extracts the panic surface from a built call graph: `pub`
    /// functions in library files that reach a panic site.
    pub fn from_graph(graph: &CallGraph) -> Self {
        Self::from_graph_by(graph, |f| f.reaches_panic)
    }

    /// Extracts a surface from a built call graph: `pub` functions for
    /// which `member` holds, with per-crate counts.
    pub fn from_graph_by(graph: &CallGraph, member: impl Fn(&FnNode) -> bool) -> Self {
        let mut surface = Self::default();
        for f in graph.fns.iter().filter(|f| f.is_pub) {
            let entry = surface.summary.entry(f.crate_name.clone()).or_default();
            entry.pub_fns += 1;
            if member(f) {
                entry.reachable += 1;
                surface.functions.insert(f.id.clone());
            }
        }
        surface
    }

    /// Serializes one surface: the function list and the per-crate
    /// `summary` counts.
    pub fn to_json(&self) -> Json {
        let summary: BTreeMap<String, Json> = self
            .summary
            .iter()
            .map(|(name, c)| {
                (
                    name.clone(),
                    Json::obj([
                        ("reachable", Json::Num(c.reachable as f64)),
                        ("pub_fns", Json::Num(c.pub_fns as f64)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("summary", Json::Obj(summary)),
            (
                "functions",
                Json::arr(self.functions.iter().map(|f| Json::Str(f.clone()))),
            ),
        ])
    }

    /// Parses one surface.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let items = json
            .get("functions")
            .and_then(Json::as_array)
            .ok_or("surface missing `functions` array")?;
        let mut functions = BTreeSet::new();
        for item in items {
            let id = item
                .as_str()
                .ok_or("surface `functions` entry is not a string")?;
            functions.insert(id.to_owned());
        }
        let mut summary = BTreeMap::new();
        match json.get("summary") {
            None => {}
            Some(Json::Obj(crates)) => {
                for (name, counts) in crates {
                    let count = |field: &str| {
                        counts.get(field).and_then(Json::as_u64).ok_or(format!(
                            "surface `summary.{name}` missing numeric `{field}`"
                        ))
                    };
                    let entry = CrateSurface {
                        reachable: count("reachable")?,
                        pub_fns: count("pub_fns")?,
                    };
                    summary.insert(name.clone(), entry);
                }
            }
            Some(_) => return Err("surface `summary` is not an object".to_owned()),
        }
        Ok(Self { functions, summary })
    }

    /// Parses the committed file into its `(panic, determinism)`
    /// surfaces.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse(text: &str) -> Result<(Self, Self), String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let version = json
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("surface missing numeric `version`")?;
        if version != SURFACE_VERSION {
            return Err(format!(
                "surface version {version} unsupported (expected {SURFACE_VERSION})"
            ));
        }
        let surface = |name: &str| {
            json.get(name)
                .ok_or(format!("surface file missing `{name}`"))
                .and_then(Self::from_json)
        };
        Ok((surface("panic")?, surface("determinism")?))
    }
}

/// Serializes both surfaces to the committed file form.
pub fn surfaces_to_json(panic: &Surface, determinism: &Surface) -> Json {
    Json::obj([
        ("version", Json::Num(SURFACE_VERSION as f64)),
        ("panic", panic.to_json()),
        ("determinism", determinism.to_json()),
    ])
}

impl SurfaceReport {
    /// Classifies `graph`'s panic surface against the committed one.
    pub fn build(graph: &CallGraph, committed: &Surface) -> Self {
        Self::build_by(graph, committed, |f| f.reaches_panic)
    }

    /// Classifies the surface selected by `member` against `committed`.
    pub fn build_by(
        graph: &CallGraph,
        committed: &Surface,
        member: impl Fn(&FnNode) -> bool,
    ) -> Self {
        let observed = Surface::from_graph_by(graph, &member);
        let added: Vec<String> = observed
            .functions
            .difference(&committed.functions)
            .cloned()
            .collect();
        let removed: Vec<String> = committed
            .functions
            .difference(&observed.functions)
            .cloned()
            .collect();
        let names: BTreeSet<&String> = observed
            .summary
            .keys()
            .chain(committed.summary.keys())
            .collect();
        let show = |c: Option<&CrateSurface>| {
            c.map_or("none".to_owned(), |c| {
                format!("{}/{}", c.reachable, c.pub_fns)
            })
        };
        let drifted = names
            .into_iter()
            .filter_map(|name| {
                let (was, now) = (committed.summary.get(name), observed.summary.get(name));
                (was != now).then(|| format!("{name}: {} → {}", show(was), show(now)))
            })
            .collect();
        Self {
            observed,
            committed: committed.clone(),
            added,
            removed,
            drifted,
            fn_count: graph.fns.len(),
            edge_count: graph.edge_count,
        }
    }

    /// No function entered the surface (the `--deny` condition).
    pub fn no_regressions(&self) -> bool {
        self.added.is_empty()
    }

    /// The committed file matches reality exactly, function list and
    /// per-crate counts (the `--check-baseline` condition).
    pub fn in_sync(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.drifted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::files::SourceFile;

    fn graph() -> CallGraph {
        callgraph::build(&[SourceFile::from_source(
            "crates/sim/src/g.rs",
            "pub fn risky() { x.unwrap(); }\n\
             pub fn wraps() { risky(); }\n\
             pub fn clean() -> u64 { 1 }\n\
             fn internal() { y.unwrap(); }\n",
        )])
    }

    #[test]
    fn surface_is_pub_reachable_only() {
        let s = Surface::from_graph(&graph());
        let ids: Vec<&str> = s.functions.iter().map(String::as_str).collect();
        assert_eq!(
            ids,
            vec!["crates/sim/src/g.rs::risky", "crates/sim/src/g.rs::wraps"],
            "clean is out; internal is non-pub"
        );
    }

    fn parse(text: &str) -> Result<Surface, String> {
        Json::parse(text)
            .map_err(|e| e.to_string())
            .and_then(|j| Surface::from_json(&j))
    }

    #[test]
    fn roundtrips_through_json() {
        let g = graph();
        let report = SurfaceReport::build(&g, &Surface::default());
        let text = surfaces_to_json(&report.observed, &Surface::default()).to_pretty_string();
        let (back, det) = Surface::parse(&text).expect("parse");
        assert_eq!(report.observed, back);
        assert_eq!(det, Surface::default());
        assert_eq!(
            SurfaceReport::build(&g, &back).drifted,
            Vec::<String>::new()
        );
    }

    #[test]
    fn report_classifies_added_and_removed() {
        let g = graph();
        let mut committed = Surface::from_graph(&g);
        committed
            .functions
            .insert("crates/sim/src/g.rs::ghost".to_owned());
        committed.functions.remove("crates/sim/src/g.rs::wraps");
        let report = SurfaceReport::build(&g, &committed);
        assert_eq!(report.added, vec!["crates/sim/src/g.rs::wraps"]);
        assert_eq!(report.removed, vec!["crates/sim/src/g.rs::ghost"]);
        assert!(!report.no_regressions());
        assert!(!report.in_sync());
    }

    #[test]
    fn in_sync_when_committed_matches() {
        let g = graph();
        let committed = Surface::from_graph(&g);
        let report = SurfaceReport::build(&g, &committed);
        assert!(report.no_regressions() && report.in_sync());
        let sim = report.observed.summary.get("scp-sim").expect("crate entry");
        assert_eq!(sim.pub_fns, 3);
        assert_eq!(sim.reachable, 2);
    }

    #[test]
    fn a_drifted_summary_count_fails_sync() {
        // The function list matches, but the committed counts do not: a
        // file edited by hand, or a `pub` function added outside the
        // surface without a re-lock.
        let g = graph();
        let text = Surface::from_graph(&g).to_json().to_pretty_string();
        let drifted = text.replace("\"reachable\": 2", "\"reachable\": 3");
        assert_ne!(text, drifted, "the fixture names the count");
        let committed = parse(&drifted).expect("parse");
        let report = SurfaceReport::build(&g, &committed);
        assert!(report.added.is_empty() && report.removed.is_empty());
        assert!(report.no_regressions());
        assert!(!report.in_sync(), "a drifted count must fail sync");
        assert_eq!(report.drifted, vec!["scp-sim: 3/3 → 2/3"]);
        // A file without a summary is out of sync as well.
        let bare = parse(
            "{\"functions\":[\"crates/sim/src/g.rs::risky\",\"crates/sim/src/g.rs::wraps\"]}",
        )
        .expect("parse");
        assert_eq!(bare.functions, committed.functions);
        assert!(!SurfaceReport::build(&g, &bare).in_sync());
    }

    #[test]
    fn rejects_bad_versions_and_shapes() {
        let empty = "{\"functions\":[]}";
        let file = |v: u64, panic: &str| {
            format!("{{\"version\":{v},\"panic\":{panic},\"determinism\":{empty}}}")
        };
        assert!(Surface::parse(&file(1, empty)).is_ok());
        assert!(Surface::parse("{}").is_err());
        assert!(Surface::parse(&file(99, empty)).is_err());
        assert!(Surface::parse(&format!("{{\"version\":1,\"panic\":{empty}}}")).is_err());
        assert!(Surface::parse(&file(1, "{\"functions\":[3]}")).is_err());
        assert!(parse("{}").is_err());
        assert!(parse("{\"functions\":[],\"summary\":[]}").is_err());
        assert!(parse("{\"functions\":[],\"summary\":{\"a\":{\"reachable\":1}}}").is_err());
    }
}
