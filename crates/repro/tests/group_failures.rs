//! A failing study fails its group's exit code, but not the other
//! studies of the group: each one that ran still writes its CSV, and
//! the failed one is named on stderr.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use std::process::Command;

/// Runs binary `exe` with `args` into a fresh `--out` directory and
/// returns the exit success, the stderr text and the file names written.
fn run(exe: &str, name: &str, args: &[&str]) -> (bool, String, Vec<String>) {
    let out =
        std::env::temp_dir().join(format!("scp-group-failures-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let output = Command::new(exe)
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("binary runs");
    let mut csvs: Vec<String> = std::fs::read_dir(&out)
        .map(|dir| {
            dir.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    csvs.sort();
    let _ = std::fs::remove_dir_all(&out);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.success(), stderr, csvs)
}

#[test]
fn reshard_keeps_its_disruption_table_when_the_drift_bisection_fails() {
    // A memoryless selector never brings the drift study's gain to 1 by
    // the bisection's upper bound; the disruption study does not care.
    let (ok, stderr, csvs) = run(
        env!("CARGO_BIN_EXE_reshard"),
        "reshard",
        &["--fast", "--selector", "random"],
    );
    assert!(!ok, "a failed study must fail the exit code");
    assert!(stderr.contains("reshard_cstar_drift failed"), "{stderr}");
    assert_eq!(csvs, ["reshard_disruption.csv"]);
}

#[test]
fn ablations_keep_every_table_but_the_one_that_fails() {
    // A3 sweeps replication on the steady-state engine, which rejects an
    // online-admission cache; the other seven studies run.
    let (ok, stderr, csvs) = run(
        env!("CARGO_BIN_EXE_ablations"),
        "ablations",
        &["--fast", "--admission", "online"],
    );
    assert!(!ok, "a failed study must fail the exit code");
    assert!(stderr.contains("ablation_a3 failed"), "{stderr}");
    let expected: Vec<String> = [1, 2, 4, 5, 6, 7, 8]
        .iter()
        .map(|i| format!("ablation_a{i}.csv"))
        .collect();
    assert_eq!(csvs, expected);
}
