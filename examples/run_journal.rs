//! Per-run observability: repeat an attack simulation under an adaptive
//! stopping rule and inspect the journal — one record per repetition with
//! the derived seed, duration and load shape — then replay the worst run
//! bit-for-bit from its recorded seed.
//!
//! ```sh
//! cargo run --release --example run_journal
//! ```

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, m, c) = (200usize, 200_000u64, 100usize);
    // Builder defaults give the optimal x = c + 1 attack automatically.
    let cfg = SimConfig::builder()
        .nodes(n)
        .items(m)
        .cache_capacity(c)
        .seed(42)
        .build()?;

    // Up to 64 repetitions, but stop as soon as the 95% CI half-width of
    // the gain drops below 0.05 (never before 8 runs).
    let rule = StopRule::adaptive(8, 64, 0.05);
    let out = repeat_rate_simulation_journaled(&cfg, &rule, 0)?;
    let journal = &out.journal;

    println!(
        "ran {} repetitions ({}), gain mean {:.3} +/- {:.3} (CI95)",
        journal.len(),
        if journal.stopping.stopped_early {
            "stopped early: CI target met"
        } else {
            "hit the run ceiling"
        },
        journal.gain_summary.mean,
        journal.stopping.ci_half_width,
    );

    println!("\n{:>4} {:>20} {:>10} {:>10}", "run", "seed", "gain", "ms");
    for r in &journal.records {
        println!(
            "{:>4} {:>20} {:>10.3} {:>10.3}",
            r.run,
            r.seed,
            r.gain,
            r.duration_secs * 1e3
        );
    }

    // The journal makes every run replayable: re-run the worst one.
    let worst = journal
        .records
        .iter()
        .max_by(|a, b| a.gain.total_cmp(&b.gain))
        .expect("journal is never empty");
    let mut replay = cfg.clone();
    replay.seed = worst.seed;
    let report = run_rate_simulation(&replay)?;
    println!(
        "\nworst run {} replayed from seed {}: gain {:.3} (journal said {:.3})",
        worst.run,
        worst.seed,
        report.gain().value(),
        worst.gain
    );
    assert!((report.gain().value() - worst.gain).abs() < 1e-12);

    // The whole journal serializes to self-describing JSON.
    let json = journal.to_json().to_pretty_string();
    println!("\njournal JSON is {} bytes; head:", json.len());
    for line in json.lines().take(12) {
        println!("  {line}");
    }
    Ok(())
}
