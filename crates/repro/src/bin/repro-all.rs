//! Regenerates every figure of the paper plus the ablations in one go.

use scp_repro::output::{emit, JournalBook};
use scp_repro::{ablation, fig3, fig4, fig5, gap, reshard, Opts};

fn main() {
    let opts = Opts::from_env();
    // scp-allow(wall-clock): progress display only; never enters tables,
    // CSVs or journals, so replays stay bit-for-bit identical
    let started = std::time::Instant::now();

    let mut ran = Vec::new();
    for (cache, name) in [(200usize, "fig3a"), (2000, "fig3b")] {
        let outcome = fig3::Fig3Config::paper(cache, &opts).and_then(|cfg| {
            let mut book = JournalBook::new();
            let rows = fig3::run_journaled(&cfg, &mut book)?;
            Ok((vec![(name.to_owned(), fig3::table(&cfg, &rows))], book))
        });
        ran.push(emit(&opts, name, outcome));
    }

    let outcome = fig4::Fig4Config::paper(&opts).and_then(|cfg| {
        let mut book = JournalBook::new();
        let rows = fig4::run_journaled(&cfg, &mut book)?;
        Ok((vec![("fig4".to_owned(), fig4::table(&cfg, &rows))], book))
    });
    ran.push(emit(&opts, "fig4", outcome));

    let outcome = fig5::Fig5Config::paper(&opts).and_then(|cfg| {
        let mut book = JournalBook::new();
        let outcome = fig5::run_journaled(&cfg, &mut book)?;
        let tables = vec![
            ("fig5a".to_owned(), fig5::table_panel_a(&cfg, &outcome)),
            ("fig5b".to_owned(), fig5::table_panel_b(&cfg, &outcome)),
        ];
        Ok((tables, book))
    });
    ran.push(emit(&opts, "fig5", outcome));

    ran.push(emit(&opts, "ablations", ablation::run_all_journaled(&opts)));

    let outcome = gap::GapConfig::paper(&opts).and_then(|cfg| {
        let outcome = gap::run(&cfg)?;
        let tables = vec![
            (
                "gap_margin".to_owned(),
                gap::table_margin(&cfg, &outcome.margins),
            ),
            (
                "gap_rotation".to_owned(),
                gap::table_rotation(&cfg, &outcome.rotations),
            ),
            ("gap_pow".to_owned(), gap::table_pow(&cfg, &outcome.pow)),
        ];
        Ok((tables, JournalBook::new()))
    });
    ran.push(emit(&opts, "gap", outcome));

    let outcome = reshard::ReshardConfig::paper(&opts).and_then(|cfg| {
        let outcome = reshard::run(&cfg)?;
        let tables = vec![
            (
                "reshard_disruption".to_owned(),
                reshard::table_disruption(&cfg, &outcome.disruption),
            ),
            (
                "reshard_cstar_drift".to_owned(),
                reshard::table_drift(&cfg, &outcome.drift),
            ),
        ];
        Ok((tables, JournalBook::new()))
    });
    ran.push(emit(&opts, "reshard", outcome));

    // scp-allow(wall-clock): progress display only; never enters tables,
    // CSVs or journals, so replays stay bit-for-bit identical
    println!("done in {:.1}s", started.elapsed().as_secs_f64());
    let failures = ran.iter().filter(|&&ok| !ok).count();
    if failures > 0 {
        eprintln!("{failures} experiment group(s) failed");
        std::process::exit(1);
    }
}
