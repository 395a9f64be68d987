//! Table rendering, CSV output and journal files.

use crate::{Opts, Result};
use scp_json::Json;
use scp_sim::journal::{RunJournal, CSV_HEADER};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned results table that can also be saved as CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new<S: Into<String>>(title: S, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatches header"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Prints the aligned text form to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// The CSV form (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let escaped: Vec<String> = row.iter().map(|c| escape_csv(c)).collect();
            let _ = writeln!(out, "{}", escaped.join(","));
        }
        out
    }

    /// Writes the CSV form to `dir/name.csv`, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn save_csv(&self, dir: &Path, name: &str) -> io::Result<std::path::PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

fn escape_csv(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// An ordered collection of labeled [`RunJournal`]s — one journal per
/// data point of an experiment (e.g. one per swept `x` in Figure 3).
///
/// Serializes to a single self-describing JSON file and to a flat CSV
/// with one row per repetition across all data points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalBook {
    entries: Vec<(String, RunJournal)>,
}

impl JournalBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the journal of one data point under `label`.
    pub fn push<S: Into<String>>(&mut self, label: S, journal: RunJournal) {
        self.entries.push((label.into(), journal));
    }

    /// Number of journals collected.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the book holds no journals.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The labels in insertion order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(l, _)| l.as_str())
    }

    /// The journals in insertion order.
    pub fn journals(&self) -> impl Iterator<Item = &RunJournal> {
        self.entries.iter().map(|(_, j)| j)
    }

    /// The book as a JSON array of `{label, journal}` objects.
    pub fn to_json(&self) -> Json {
        Json::arr(self.entries.iter().map(|(label, journal)| {
            Json::obj([
                ("label", Json::Str(label.clone())),
                ("journal", journal.to_json()),
            ])
        }))
    }

    /// The book as CSV: the per-run rows of every journal, prefixed with
    /// the journal's label.
    pub fn to_csv(&self) -> String {
        let mut out = format!("label,{CSV_HEADER}\n");
        for (label, journal) in &self.entries {
            let escaped = escape_csv(label);
            for line in journal.to_csv().lines().skip(1) {
                let _ = writeln!(out, "{escaped},{line}");
            }
        }
        out
    }

    /// Writes `dir/name.journal.json` (pretty JSON) and
    /// `dir/name.runs.csv`, creating `dir` if needed, and returns both
    /// paths.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or files.
    pub fn save(&self, dir: &Path, name: &str) -> io::Result<[std::path::PathBuf; 2]> {
        fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("{name}.journal.json"));
        fs::write(&json_path, self.to_json().to_pretty_string())?;
        let csv_path = dir.join(format!("{name}.runs.csv"));
        fs::write(&csv_path, self.to_csv())?;
        Ok([json_path, csv_path])
    }
}

/// Writes a [`JournalBook`] under `dir/name.*` if `dir` is set (the
/// `--journal` flag), reporting the outcome on stdout/stderr.
pub fn save_journals(dir: Option<&Path>, name: &str, book: &JournalBook) {
    let Some(dir) = dir else { return };
    match book.save(dir, name) {
        Ok(paths) => {
            for p in paths {
                println!("wrote {}", p.display());
            }
        }
        Err(e) => eprintln!("could not write {name} journals: {e}"),
    }
}

/// The named tables of one experiment group plus the journals of its
/// repeated runs (empty for groups without repetitions).
pub type GroupOutput = (Vec<(String, Table)>, JournalBook);

/// Prints one experiment group's tables and saves each as
/// `--out/<name>.csv` and its journals as `--journal/<group>.*`, or
/// reports the group's failure. Returns whether the group ran.
pub fn emit(opts: &Opts, group: &str, outcome: Result<GroupOutput>) -> bool {
    let (tables, book) = match outcome {
        Ok(output) => output,
        Err(e) => {
            eprintln!("{group} failed: {e}");
            return false;
        }
    };
    for (name, table) in &tables {
        table.print();
        println!();
        match table.save_csv(&opts.out, name) {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("could not write {name}.csv: {e}"),
        }
    }
    if !book.is_empty() {
        save_journals(opts.journal.as_deref(), group, &book);
    }
    true
}

/// Formats a float with sensible experiment precision.
pub fn fmt_f(v: f64) -> String {
    // scp-allow(float-eq): deliberate exact test so that only a true zero
    // prints as "0"; near-zero residue must stay visible in tables
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["x", "gain"]);
        t.push_row(vec!["201".into(), "5.97".into()]);
        t.push_row(vec!["1000000".into(), "1.0012".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("      x"));
        assert!(r.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_enforced() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes_specials() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["x,y".into()]);
        t.push_row(vec!["quote\"inside".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"quote\"\"inside\""));
    }

    #[test]
    fn save_csv_roundtrip() {
        let dir = std::env::temp_dir().join("scp_repro_test_out");
        let path = sample().save_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x,gain\n"));
        assert!(content.contains("201,5.97"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(5.9701), "5.9701");
        assert_eq!(fmt_f(0.000123), "0.000123");
        assert_eq!(fmt_f(123456.0), "123456");
    }

    fn sample_book(runs: usize) -> JournalBook {
        use scp_sim::config::SimConfig;
        use scp_sim::runner::{repeat_rate_simulation_journaled, StopRule};

        let cfg = SimConfig::builder()
            .nodes(30)
            .cache_capacity(5)
            .items(500)
            .rate(1e4)
            .seed(11)
            .build()
            .unwrap();
        let mut book = JournalBook::new();
        for (i, label) in ["x=6", "x=500"].iter().enumerate() {
            let mut point = cfg.clone();
            point.seed = cfg.seed ^ i as u64;
            let out = repeat_rate_simulation_journaled(&point, &StopRule::fixed(runs), 0).unwrap();
            book.push(*label, out.journal);
        }
        book
    }

    #[test]
    fn journal_book_json_keeps_labels_and_runs() {
        let book = sample_book(3);
        assert_eq!(book.len(), 2);
        assert_eq!(book.labels().collect::<Vec<_>>(), ["x=6", "x=500"]);
        let back = Json::parse(&book.to_json().to_pretty_string()).unwrap();
        let arr = back.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("label").and_then(Json::as_str), Some("x=6"));
        let runs = arr[1]
            .get("journal")
            .and_then(|j| j.get("runs"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(runs.len(), 3);
    }

    #[test]
    fn journal_book_csv_is_one_row_per_repetition() {
        let book = sample_book(4);
        let csv = book.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], format!("label,{CSV_HEADER}"));
        assert_eq!(lines.len(), 1 + 2 * 4);
        assert!(lines[1].starts_with("x=6,0,"));
        assert!(lines[5].starts_with("x=500,0,"));
    }

    #[test]
    fn journal_book_save_writes_both_files() {
        let dir = std::env::temp_dir().join("scp_repro_test_journals");
        let [json_path, csv_path] = sample_book(2).save(&dir, "demo").unwrap();
        assert!(json_path.ends_with("demo.journal.json"));
        assert!(csv_path.ends_with("demo.runs.csv"));
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(Json::parse(&json).is_ok());
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("label,run,seed"));
        std::fs::remove_file(json_path).ok();
        std::fs::remove_file(csv_path).ok();
    }
}
