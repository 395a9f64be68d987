//! `scp-analyze` — in-repo static analysis for determinism and
//! panic-safety.
//!
//! Bit-for-bit replayable run journals and thread-count-invariant adaptive
//! stopping are this workspace's headline guarantee. That guarantee rests
//! on *code* properties nothing used to enforce: no hash-order
//! iteration feeding results, no wall-clock or ambient entropy in result
//! paths, no panics tearing down a sweep halfway. Where a stock clippy
//! lint checks a property by type (panic paths, indexing, clock reads,
//! entropy, threads, locks, `unsafe` blocks — see `[workspace.lints]` and
//! `clippy.toml`), the lint does; this crate is a dependency-free checker
//! for the rest, in the same offline, in-repo spirit as `scp-json` and
//! `scp_bench::harness`.
//!
//! Pipeline: [`files`] walks the workspace and classifies every `.rs`
//! file; [`lexer`] masks comments and literals so rules only ever see
//! code; [`rules`] runs the line rules, [`atomics`] checks
//! Release/Acquire pairing per atomic field, and [`callgraph`] +
//! [`taint`] compute transitive panic reachability and nondeterminism
//! taint; all raw findings are merged per file before `scp-allow`
//! suppressions apply ([`pragma`]); [`surface`] set-ratchets the panic and
//! determinism surfaces; [`report`] collects the violations and renders
//! human/JSON output.
//!
//! Three consumers: the `scp-analyze` binary (CI runs it with `--deny
//! --check-baseline`), the tier-1 gate tests (`cargo test -p scp-analyze`
//! and the root suite), and developers re-locking the surfaces with
//! `--update-baseline`.

#![warn(missing_docs)]

pub mod atomics;
pub mod callgraph;
pub mod files;
pub mod interleave;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod surface;
pub mod syntax;
pub mod taint;

use files::SourceFile;
use report::Report;
use std::io;
use std::path::Path;
use surface::{Surface, SurfaceReport, SURFACE_FILE};

/// Everything one full analyzer run produces: the line/flow findings
/// report plus both ratcheted call-graph surfaces.
#[derive(Debug)]
pub struct Analysis {
    /// Findings of every rule. Includes the flow passes:
    /// `atomic-unpaired` findings, `nondet-taint` findings for functions
    /// that entered the determinism surface, and `DETERMINISM:` pragma
    /// hygiene.
    pub report: Report,
    /// The panic surface against the committed one.
    pub panic_surface: SurfaceReport,
    /// The determinism surface against the committed one.
    pub det_surface: SurfaceReport,
}

/// Runs every pass over the workspace under `root`, classifying both
/// surfaces against the committed [`SURFACE_FILE`] (an absent file holds
/// two empty surfaces).
///
/// # Errors
///
/// Returns an I/O error if sources cannot be read, or a surface parse
/// error as [`io::ErrorKind::InvalidData`].
pub fn analyze_all(root: &Path) -> io::Result<Analysis> {
    let (panic_committed, det_committed) = load_surface(root)?;
    let sources = files::collect_sources(root)?;
    Ok(analyze_sources(&sources, &panic_committed, &det_committed))
}

/// Runs every pass over an explicit source set and explicit committed
/// surfaces. This is the whole pipeline in one place: line rules and
/// atomic-pairing checks produce raw per-file findings, the call graph
/// produces both surfaces plus `nondet-taint` findings for determinism
/// regressions and `DETERMINISM:` pragma hygiene, and `scp-allow`
/// suppression is applied once per file over the merged set — so a
/// pragma can target any pass's finding, and unused-pragma detection
/// sees everything.
pub fn analyze_sources(
    sources: &[SourceFile],
    panic_committed: &Surface,
    det_committed: &Surface,
) -> Analysis {
    let graph = callgraph::build(sources);
    let panic_surface = SurfaceReport::build(&graph, panic_committed);
    let det_surface = SurfaceReport::build_by(&graph, det_committed, |f| f.tainted);
    let taint_findings = taint::surface_findings(&graph, &det_surface.added, sources);
    let mut findings = Vec::new();
    for file in sources {
        let mut raw = rules::check_file_raw(file);
        raw.extend(atomics::check_file(file));
        raw.extend(
            taint_findings
                .iter()
                .chain(&graph.determinism_findings)
                .filter(|f| f.file == file.rel_path)
                .cloned(),
        );
        raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        findings.extend(rules::apply_pragmas(file, raw));
    }
    Analysis {
        report: Report::build(sources.len(), findings),
        panic_surface,
        det_surface,
    }
}

/// Loads the committed `(panic, determinism)` surfaces from `root`, or
/// two empty ones if the file does not exist yet.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for a malformed surface file.
pub fn load_surface(root: &Path) -> io::Result<(Surface, Surface)> {
    let path = root.join(SURFACE_FILE);
    if !path.exists() {
        return Ok((Surface::default(), Surface::default()));
    }
    let text = std::fs::read_to_string(&path)?;
    Surface::parse(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{SURFACE_FILE}: {e}")))
}

/// Writes both observed surfaces (with their per-crate summaries) to the
/// committed location under `root`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn store_surface(root: &Path, analysis: &Analysis) -> io::Result<()> {
    let json = surface::surfaces_to_json(
        &analysis.panic_surface.observed,
        &analysis.det_surface.observed,
    );
    std::fs::write(root.join(SURFACE_FILE), json.to_pretty_string())
}
