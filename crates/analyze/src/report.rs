//! Classified analysis results and their human/JSON renderings.

use crate::rules::{Finding, RULES};
use scp_json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Outcome of analyzing the whole workspace.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, including suppressed ones.
    pub findings: Vec<Finding>,
    /// Findings that the gate rejects: every unsuppressed finding.
    pub violations: Vec<Finding>,
}

impl Report {
    /// Classifies raw findings: every rule is deny, so each unsuppressed
    /// finding is a violation.
    pub fn build(files_scanned: usize, findings: Vec<Finding>) -> Self {
        let violations = findings.iter().filter(|f| !f.suppressed).cloned().collect();
        Self {
            files_scanned,
            findings,
            violations,
        }
    }

    /// Whether the deny gate passes (no violations).
    pub fn deny_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `(active, allowed by pragma)` findings of `rule`.
    fn totals(&self, rule: &str) -> (usize, usize) {
        let of_rule = self.findings.iter().filter(|f| f.rule == rule);
        let allowed = of_rule.clone().filter(|f| f.suppressed).count();
        (of_rule.count() - allowed, allowed)
    }

    /// Renders the human-readable report.
    pub fn render_human(&self, verbose: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scp-analyze: {} files, {} findings ({} allowed by pragma, {} violations)",
            self.files_scanned,
            self.findings.len(),
            self.findings.len() - self.violations.len(),
            self.violations.len(),
        );
        if !self.violations.is_empty() {
            let _ = writeln!(out, "\nviolations:");
            for f in &self.violations {
                let _ = writeln!(out, "  {}:{} [{}] {}", f.file, f.line, f.rule, f.message);
                let _ = writeln!(out, "      {}", f.snippet);
            }
        }
        if verbose {
            let _ = writeln!(out, "\nper-rule totals:");
            for rule in RULES {
                let (active, allowed) = self.totals(rule.name);
                let _ = writeln!(
                    out,
                    "  {:16} {:4} active, {:3} allowed  ({})",
                    rule.name, active, allowed, rule.description
                );
            }
        }
        out
    }

    /// Renders the machine-readable JSON report.
    pub fn render_json(&self) -> Json {
        let finding_json = |f: &Finding| {
            Json::obj([
                ("file", Json::Str(f.file.clone())),
                ("line", Json::Num(f.line as f64)),
                ("rule", Json::Str(f.rule.to_owned())),
                ("message", Json::Str(f.message.clone())),
                ("suppressed", Json::Bool(f.suppressed)),
            ])
        };
        let rule_totals: BTreeMap<String, Json> = RULES
            .iter()
            .map(|rule| {
                let (active, allowed) = self.totals(rule.name);
                (
                    rule.name.to_owned(),
                    Json::obj([
                        ("active", Json::Num(active as f64)),
                        ("allowed", Json::Num(allowed as f64)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("files_scanned", Json::Num(self.files_scanned as f64)),
            ("findings", Json::Num(self.findings.len() as f64)),
            (
                "violations",
                Json::arr(self.violations.iter().map(finding_json)),
            ),
            ("rules", Json::Obj(rule_totals)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, suppressed: bool) -> Finding {
        Finding {
            file: "a.rs".to_owned(),
            line: 1,
            rule,
            message: "m".to_owned(),
            snippet: "s".to_owned(),
            suppressed,
        }
    }

    #[test]
    fn unsuppressed_findings_are_violations() {
        let r = Report::build(1, vec![finding("float-eq", false)]);
        assert!(!r.deny_clean());
        assert_eq!(r.violations.len(), 1);
        let r = Report::build(1, vec![finding("float-eq", true)]);
        assert!(r.deny_clean());
    }

    #[test]
    fn renders_both_forms() {
        let r = Report::build(2, vec![finding("narrow-cast", false)]);
        let human = r.render_human(true);
        assert!(human.contains("violations"));
        assert!(human.contains("narrow-cast"));
        let json = r.render_json();
        assert_eq!(json.get("files_scanned").and_then(Json::as_u64), Some(2));
        assert_eq!(
            json.get("violations")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
    }
}
