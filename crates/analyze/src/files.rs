//! Workspace discovery, file classification and `#[cfg(test)]` regions.
//!
//! Rules need three pieces of context before they can decide whether to
//! fire: which *crate* a file belongs to, what *kind* of file it is
//! (library, binary, integration test, bench, example) and which *lines*
//! sit inside `#[cfg(test)]` items. This module computes all three.

use crate::lexer::{mask, MaskedSource};
use crate::syntax::{at, sub, tail};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What a `.rs` file is for. Panic-safety rules only police library and
/// binary code; tests, benches and examples may panic freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` code compiled into a library.
    Library,
    /// `src/bin/` or binary-target code.
    Binary,
    /// Integration tests (`tests/`).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// Files that *model* atomics and schedules rather than use them: the
/// interleaving explorer interprets every `Ordering` value handed to its
/// shim and enumerates the schedule space deterministically. Atomic
/// pairing, `ordering-comment` and taint seeding skip them.
pub const MODEL_FILES: &[&str] = &["crates/analyze/src/interleave.rs"];

/// One source file, masked and classified.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Package the file belongs to (e.g. `scp-core`), derived from layout.
    pub crate_name: String,
    /// File role.
    pub kind: FileKind,
    /// Code/comment masks (see [`crate::lexer`]).
    pub masked: MaskedSource,
    /// `in_test[i]` is true when 0-based line `i` is inside a
    /// `#[cfg(test)]` item (or the whole file is test-only).
    pub in_test: Vec<bool>,
    /// Original lines, for report snippets.
    pub lines: Vec<String>,
}

impl SourceFile {
    /// Builds a classified, masked source file from in-memory text, as if
    /// it lived at workspace-relative `rel_path`. This is how golden tests
    /// feed the rule engine snippets without touching the filesystem.
    pub fn from_source(rel_path: &str, text: &str) -> Self {
        let (crate_name, kind) = classify(rel_path);
        let masked = mask(text);
        let in_test = cfg_test_lines(&masked);
        Self {
            rel_path: rel_path.to_owned(),
            crate_name,
            kind,
            masked,
            in_test,
            lines: text.lines().map(str::to_owned).collect(),
        }
    }

    /// Whether this is one of the [`MODEL_FILES`].
    pub fn is_model(&self) -> bool {
        MODEL_FILES.contains(&self.rel_path.as_str())
    }

    /// Whether 1-based `line` is test code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.kind == FileKind::Test
            || self.kind == FileKind::Bench
            || self.kind == FileKind::Example
            || self
                .in_test
                .get(line.saturating_sub(1))
                .copied()
                .unwrap_or(false)
    }
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every workspace `.rs` file under `root`, classified and
/// masked, in deterministic (sorted) path order.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    paths.into_iter().map(|p| load_source(root, &p)).collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn load_source(root: &Path, path: &Path) -> io::Result<SourceFile> {
    let text = fs::read_to_string(path)?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Ok(SourceFile::from_source(&rel, &text))
}

/// Derives `(crate name, kind)` from the workspace-relative path.
fn classify(rel: &str) -> (String, FileKind) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (String, &[&str]) =
        if parts.first() == Some(&"crates") && parts.len() > 2 {
            (
                format!("scp-{}", parts.get(1).copied().unwrap_or_default()),
                parts.get(2..).unwrap_or(&[]),
            )
        } else {
            ("secure-cache-provision".to_owned(), parts.as_slice())
        };
    let kind = match rest.first().copied() {
        Some("tests") => FileKind::Test,
        Some("benches") => FileKind::Bench,
        Some("examples") => FileKind::Example,
        Some("src") if rest.get(1).copied() == Some("bin") => FileKind::Binary,
        Some("src") if rest.last().is_some_and(|f| f == &"main.rs") => FileKind::Binary,
        _ => FileKind::Library,
    };
    (crate_name, kind)
}

/// Marks lines covered by `#[cfg(test)]` items.
///
/// The scan runs on the code mask, so attribute text inside strings or
/// comments can never open a region. After each attribute the next `{`
/// opens the item body; its matching `}` (brace depth on masked code)
/// closes the region. An attribute followed by `;` before any `{` (e.g.
/// `#[cfg(test)] mod tests;`) covers only its own line.
pub(crate) fn cfg_test_lines(masked: &MaskedSource) -> Vec<bool> {
    let code = &masked.code;
    let n_lines = code.lines().count();
    let mut in_test = vec![false; n_lines];
    let bytes = code.as_bytes();
    let mut search_from = 0usize;
    while let Some(off) = tail(code, search_from)
        .find("#[cfg(test)]")
        .or_else(|| tail(code, search_from).find("#![cfg(test)]"))
    {
        let start = search_from + off;
        let attr_end = start + tail(code, start).find(']').map_or(0, |p| p + 1);
        // Find the item body: first `{` before a `;` at the same level.
        let mut i = attr_end;
        let mut open = None;
        while i < bytes.len() {
            match at(bytes, i) {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                _ => i += 1,
            }
        }
        let end = match open {
            Some(open_at) => {
                let mut depth = 0usize;
                let mut j = open_at;
                loop {
                    if j >= bytes.len() {
                        break bytes.len();
                    }
                    match at(bytes, j) {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break j + 1;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            None => i.min(bytes.len()),
        };
        let first_line = sub(code, 0, start).matches('\n').count();
        let last_line = sub(code, 0, end).matches('\n').count();
        for line in in_test.iter_mut().take(last_line + 1).skip(first_line) {
            *line = true;
        }
        search_from = end.max(start + 1);
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/core/src/theorem.rs"),
            ("scp-core".into(), FileKind::Library)
        );
        assert_eq!(
            classify("crates/repro/src/bin/fig4.rs"),
            ("scp-repro".into(), FileKind::Binary)
        );
        assert_eq!(
            classify("crates/cluster/tests/cluster_properties.rs"),
            ("scp-cluster".into(), FileKind::Test)
        );
        assert_eq!(
            classify("crates/bench/benches/samplers.rs"),
            ("scp-bench".into(), FileKind::Bench)
        );
        assert_eq!(
            classify("src/lib.rs"),
            ("secure-cache-provision".into(), FileKind::Library)
        );
        assert_eq!(
            classify("tests/determinism.rs"),
            ("secure-cache-provision".into(), FileKind::Test)
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            ("secure-cache-provision".into(), FileKind::Example)
        );
    }

    #[test]
    fn cfg_test_region_covers_mod_body() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let masked = mask(src);
        let flags = cfg_test_lines(&masked);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_outlined_module_covers_one_line() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() {}\n";
        let flags = cfg_test_lines(&mask(src));
        assert!(flags[0]);
        assert!(!flags[2]);
    }

    #[test]
    fn attribute_in_string_does_not_open_region() {
        let src = "let s = \"#[cfg(test)]\";\nfn live() {}\n";
        let flags = cfg_test_lines(&mask(src));
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn braces_in_strings_do_not_confuse_matching() {
        let src = "#[cfg(test)]\nmod tests {\n    let s = \"}\";\n    fn t() {}\n}\nfn live() {}\n";
        let flags = cfg_test_lines(&mask(src));
        assert!(flags[..5].iter().all(|&f| f), "{flags:?}");
        assert!(!flags[5]);
    }

    #[test]
    fn finds_workspace_root_from_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").is_dir());
    }
}
