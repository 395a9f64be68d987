//! `scp-analyze` — in-repo static analysis for determinism and
//! panic-safety.
//!
//! PR 1 made bit-for-bit replayable run journals and thread-count-invariant
//! adaptive stopping this workspace's headline guarantee. That guarantee
//! rests on *code* properties nothing used to enforce: no hash-order
//! iteration feeding results, no wall-clock or ambient entropy in result
//! paths, no panics tearing down a sweep halfway. This crate is a
//! dependency-free checker for exactly those properties, in the same
//! offline, in-repo spirit as `scp-json` and `scp_bench::harness`.
//!
//! Pipeline: [`files`] walks the workspace and classifies every `.rs`
//! file; [`lexer`] masks comments and literals so rules only ever see
//! code; [`rules`] runs the line rules, [`atomics`] checks
//! Release/Acquire pairing per atomic field, and [`callgraph`] +
//! [`taint`] compute transitive panic reachability and nondeterminism
//! taint; all raw findings are merged per file before `scp-allow`
//! suppressions apply ([`pragma`]); [`baseline`] ratchets pre-existing
//! debt and [`surface`] set-ratchets the panic and determinism surfaces;
//! [`report`] classifies findings into violations and renders human/JSON
//! output.
//!
//! Three consumers: the `scp-analyze` binary (CI runs it with `--deny
//! --check-baseline`), the tier-1 gate tests (`cargo test -p scp-analyze`
//! and the root suite), and developers iterating with
//! `--update-baseline`.

#![warn(missing_docs)]

pub mod atomics;
pub mod baseline;
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

use baseline::{Baseline, BASELINE_FILE};
use files::SourceFile;
use report::Report;
use std::io;
use std::path::Path;
use surface::{Surface, SurfaceReport, DET_SURFACE_FILE, SURFACE_FILE};

/// Everything one full analyzer run produces: the line/flow findings
/// report plus both ratcheted call-graph surfaces.
#[derive(Debug)]
pub struct Analysis {
    /// Findings classified against the ratcheted baseline. Includes the
    /// flow passes: `atomic-unpaired` findings, `nondet-taint` findings
    /// for functions that entered the determinism surface, and
    /// `DETERMINISM:` pragma hygiene.
    pub report: Report,
    /// The panic surface against `panic-surface.json`.
    pub panic_surface: SurfaceReport,
    /// The determinism surface against `determinism-surface.json`.
    pub det_surface: SurfaceReport,
}

/// Runs every pass over the workspace under `root`, classifying findings
/// against the committed baseline and both committed surfaces (absent
/// files are empty).
///
/// # Errors
///
/// Returns an I/O error if sources cannot be read, or a baseline/surface
/// parse error as [`io::ErrorKind::InvalidData`].
pub fn analyze_all(root: &Path) -> io::Result<Analysis> {
    let baseline = load_baseline(root)?;
    let panic_committed = load_surface(root)?;
    let det_committed = load_det_surface(root)?;
    let sources = files::collect_sources(root)?;
    Ok(analyze_sources(
        &sources,
        &baseline,
        &panic_committed,
        &det_committed,
    ))
}

/// Runs every pass over an explicit source set and explicit committed
/// artifacts. This is the whole pipeline in one place: line rules and
/// atomic-pairing checks produce raw per-file findings, the call graph
/// produces both surfaces plus `nondet-taint` findings for determinism
/// regressions and `DETERMINISM:` pragma hygiene, and `scp-allow`
/// suppression is applied once per file over the merged set — so a
/// pragma can target any pass's finding, and unused-pragma detection
/// sees everything.
pub fn analyze_sources(
    sources: &[SourceFile],
    baseline: &Baseline,
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
                .filter(|f| f.file == file.rel_path)
                .cloned(),
        );
        raw.extend(
            graph
                .determinism_findings
                .iter()
                .filter(|f| f.file == file.rel_path)
                .cloned(),
        );
        raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        findings.extend(rules::apply_pragmas(file, raw));
    }
    Analysis {
        report: Report::build(sources.len(), findings, baseline),
        panic_surface,
        det_surface,
    }
}

/// Analyzes every workspace `.rs` file under `root` and classifies the
/// findings against the committed baseline (an absent baseline file is an
/// empty baseline).
///
/// # Errors
///
/// Returns an I/O error if sources cannot be read, or a baseline parse
/// error as [`io::ErrorKind::InvalidData`].
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let committed = load_baseline(root)?;
    analyze_workspace_against(root, &committed)
}

/// Like [`analyze_workspace`], with an explicit baseline. The committed
/// surfaces are still loaded from `root` (absent files are empty), since
/// the `nondet-taint` deny findings are defined relative to the
/// committed determinism surface.
///
/// # Errors
///
/// Returns an I/O error if sources cannot be read, or a surface parse
/// error as [`io::ErrorKind::InvalidData`].
pub fn analyze_workspace_against(root: &Path, committed: &Baseline) -> io::Result<Report> {
    let panic_committed = load_surface(root)?;
    let det_committed = load_det_surface(root)?;
    let sources = files::collect_sources(root)?;
    Ok(analyze_sources(&sources, committed, &panic_committed, &det_committed).report)
}

/// Loads the committed baseline from `root`, or an empty one if the file
/// does not exist yet.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for a malformed baseline file.
pub fn load_baseline(root: &Path) -> io::Result<Baseline> {
    let path = root.join(BASELINE_FILE);
    if !path.exists() {
        return Ok(Baseline::default());
    }
    let text = std::fs::read_to_string(&path)?;
    Baseline::parse(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{BASELINE_FILE}: {e}")))
}

/// Writes `baseline` to its committed location under `root`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn store_baseline(root: &Path, baseline: &Baseline) -> io::Result<()> {
    std::fs::write(
        root.join(BASELINE_FILE),
        baseline.to_json().to_pretty_string(),
    )
}

/// Builds the workspace call graph and classifies its panic surface
/// against the committed `panic-surface.json` (an absent file is an
/// empty surface).
///
/// # Errors
///
/// Returns an I/O error if sources cannot be read, or a surface parse
/// error as [`io::ErrorKind::InvalidData`].
pub fn analyze_panic_surface(root: &Path) -> io::Result<SurfaceReport> {
    let committed = load_surface(root)?;
    let sources = files::collect_sources(root)?;
    let graph = callgraph::build(&sources);
    Ok(SurfaceReport::build(&graph, &committed))
}

/// Loads the committed panic surface from `root`, or an empty one if the
/// file does not exist yet.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for a malformed surface file.
pub fn load_surface(root: &Path) -> io::Result<Surface> {
    let path = root.join(SURFACE_FILE);
    if !path.exists() {
        return Ok(Surface::default());
    }
    let text = std::fs::read_to_string(&path)?;
    Surface::parse(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{SURFACE_FILE}: {e}")))
}

/// Writes the observed surface (with its per-crate summary) to the
/// committed location under `root`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn store_surface(root: &Path, report: &SurfaceReport) -> io::Result<()> {
    std::fs::write(
        root.join(SURFACE_FILE),
        report.observed.to_json().to_pretty_string(),
    )
}

/// Builds the workspace call graph and classifies its determinism
/// surface against the committed `determinism-surface.json` (an absent
/// file is an empty surface).
///
/// # Errors
///
/// Returns an I/O error if sources cannot be read, or a surface parse
/// error as [`io::ErrorKind::InvalidData`].
pub fn analyze_det_surface(root: &Path) -> io::Result<SurfaceReport> {
    let committed = load_det_surface(root)?;
    let sources = files::collect_sources(root)?;
    let graph = callgraph::build(&sources);
    Ok(SurfaceReport::build_by(&graph, &committed, |f| f.tainted))
}

/// Loads the committed determinism surface from `root`, or an empty one
/// if the file does not exist yet.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for a malformed surface file.
pub fn load_det_surface(root: &Path) -> io::Result<Surface> {
    let path = root.join(DET_SURFACE_FILE);
    if !path.exists() {
        return Ok(Surface::default());
    }
    let text = std::fs::read_to_string(&path)?;
    Surface::parse(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{DET_SURFACE_FILE}: {e}"),
        )
    })
}

/// Writes the observed determinism surface (with its per-crate summary)
/// to the committed location under `root`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn store_det_surface(root: &Path, report: &SurfaceReport) -> io::Result<()> {
    std::fs::write(
        root.join(DET_SURFACE_FILE),
        report.observed.to_json().to_pretty_string(),
    )
}
