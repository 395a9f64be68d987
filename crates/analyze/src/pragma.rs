//! `scp-allow` suppression pragmas.
//!
//! A finding can be silenced — with a mandatory human-readable reason — by
//! a comment of the form:
//!
//! ```text
//! some_code(); // scp-allow(rule-name): why this occurrence is sound
//! ```
//!
//! or, on its own line, applying to the next line that contains code:
//!
//! ```text
//! // scp-allow(rule-name): why this occurrence is sound
//! some_code();
//! ```
//!
//! Pragmas are parsed from the *comment mask*, so the marker can never be
//! smuggled in through a string literal, and only from plain `//` comments
//! — doc comments (`///`, `//!`) are documentation, not directives, so
//! prose like this paragraph can mention the marker freely. A pragma with
//! an unknown rule name or a missing reason is itself reported
//! (`invalid-pragma`), and a pragma that suppresses nothing is reported
//! too (`unused-allow`), so stale annotations cannot accumulate.

use crate::files::SourceFile;
use crate::syntax::{sub, tail};

/// The marker looked for inside comments.
pub const MARKER: &str = "scp-allow(";

/// The marker that cuts nondeterminism-taint propagation (see
/// [`crate::taint`]). Unlike `scp-allow`, which targets a *line*, a
/// `// DETERMINISM: <reason>` comment marks the innermost function that
/// lexically contains it as a justified laundering point: taint seeded
/// inside it, or flowing into it through calls, does not propagate to its
/// callers, and the function itself stays out of the determinism surface.
pub const DETERMINISM_MARKER: &str = "DETERMINISM:";

/// One parsed `DETERMINISM:` laundering pragma.
#[derive(Debug, Clone)]
pub struct DeterminismPragma {
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// Mandatory justification (non-empty).
    pub reason: String,
}

/// Extracts all `// DETERMINISM: <reason>` pragmas from a file's comment
/// mask. Same discipline as [`parse_pragmas`]: only plain `//` comments
/// count (doc comments are prose), the marker cannot be smuggled in
/// through a string literal, and pragmas inside test code are ignored.
/// The comment's content must *start* with the marker so ordinary prose
/// mentioning determinism never parses as a directive.
pub fn parse_determinism(file: &SourceFile) -> (Vec<DeterminismPragma>, Vec<PragmaError>) {
    let comment_lines = file.masked.comment_lines();
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for (idx, comment) in comment_lines.iter().enumerate() {
        let line = idx + 1;
        if file.is_test_line(line) {
            continue;
        }
        let trimmed = comment.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") || trimmed.starts_with("/**") {
            continue;
        }
        let Some(content) = trimmed.strip_prefix("//") else {
            continue;
        };
        let Some(rest) = content.trim_start().strip_prefix(DETERMINISM_MARKER) else {
            continue;
        };
        let reason = rest.trim();
        if reason.is_empty() {
            errors.push(PragmaError {
                line,
                message: "DETERMINISM: needs a non-empty reason".to_owned(),
            });
            continue;
        }
        pragmas.push(DeterminismPragma {
            line,
            reason: reason.to_owned(),
        });
    }
    (pragmas, errors)
}

/// One parsed suppression.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// 1-based line the pragma applies to.
    pub target_line: usize,
    /// Rule it suppresses.
    pub rule: String,
    /// Mandatory justification (non-empty).
    pub reason: String,
}

/// A malformed pragma occurrence.
#[derive(Debug, Clone)]
pub struct PragmaError {
    /// 1-based line of the broken pragma.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Extracts all pragmas from a file's comment mask.
///
/// `known_rules` drives unknown-name validation. Pragmas inside test code
/// are ignored entirely (rules do not fire there, so a pragma would always
/// be unused noise).
pub fn parse_pragmas(file: &SourceFile, known_rules: &[&str]) -> (Vec<Pragma>, Vec<PragmaError>) {
    let comment_lines = file.masked.comment_lines();
    let code_lines = file.masked.code_lines();
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();

    for (idx, comment) in comment_lines.iter().enumerate() {
        let line = idx + 1;
        if file.is_test_line(line) {
            continue;
        }
        let trimmed = comment.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") || trimmed.starts_with("/**") {
            continue;
        }
        let Some(pos) = comment.find(MARKER) else {
            continue;
        };
        let after = tail(comment, pos + MARKER.len());
        let Some(close) = after.find(')') else {
            errors.push(PragmaError {
                line,
                message: "unterminated scp-allow(: missing `)`".to_owned(),
            });
            continue;
        };
        let rule = sub(after, 0, close).trim().to_owned();
        let rest = tail(after, close + 1).trim_start();
        if !known_rules.contains(&rule.as_str()) {
            errors.push(PragmaError {
                line,
                message: format!("unknown rule `{rule}` in scp-allow"),
            });
            continue;
        }
        let Some(reason) = rest.strip_prefix(':').map(str::trim) else {
            errors.push(PragmaError {
                line,
                message: "scp-allow needs `: <reason>` after the rule name".to_owned(),
            });
            continue;
        };
        if reason.is_empty() {
            errors.push(PragmaError {
                line,
                message: "scp-allow reason must not be empty".to_owned(),
            });
            continue;
        }
        let target_line = if code_lines.get(idx).is_some_and(|c| !c.trim().is_empty()) {
            line
        } else {
            // Comment-only line: applies to the next line containing code.
            let mut t = idx + 1;
            while code_lines.get(t).is_some_and(|c| c.trim().is_empty()) {
                t += 1;
            }
            t + 1
        };
        pragmas.push(Pragma {
            line,
            target_line,
            rule,
            reason: reason.to_owned(),
        });
    }
    (pragmas, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::{FileKind, SourceFile};
    use crate::lexer::mask;

    const RULES: &[&str] = &["narrow-cast", "float-eq"];

    fn file(src: &str) -> SourceFile {
        let masked = mask(src);
        SourceFile {
            rel_path: "crates/x/src/lib.rs".into(),
            crate_name: "scp-x".into(),
            kind: FileKind::Library,
            in_test: vec![false; masked.code.lines().count()],
            masked,
            lines: src.lines().map(str::to_owned).collect(),
        }
    }

    #[test]
    fn same_line_pragma_targets_itself() {
        let (p, e) = parse_pragmas(
            &file("x as u32; // scp-allow(narrow-cast): invariant holds\n"),
            RULES,
        );
        assert!(e.is_empty());
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].target_line, 1);
        assert_eq!(p[0].rule, "narrow-cast");
        assert_eq!(p[0].reason, "invariant holds");
    }

    #[test]
    fn standalone_pragma_targets_next_code_line() {
        let src = "// scp-allow(float-eq): exact by construction\n\n// another comment\nlet ok = a == 1.0;\n";
        let (p, e) = parse_pragmas(&file(src), RULES);
        assert!(e.is_empty());
        assert_eq!(p[0].target_line, 4);
    }

    #[test]
    fn unknown_rule_and_missing_reason_are_errors() {
        let src = "// scp-allow(no-such-rule): x\nlet a = 1;\n// scp-allow(narrow-cast)\nlet b = 2;\n// scp-allow(narrow-cast):   \nlet c = 3;\n";
        let (p, e) = parse_pragmas(&file(src), RULES);
        assert!(p.is_empty());
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn pragma_in_string_is_ignored() {
        let src = "let s = \"// scp-allow(narrow-cast): nope\";\n";
        let (p, e) = parse_pragmas(&file(src), RULES);
        assert!(p.is_empty() && e.is_empty());
    }
}
