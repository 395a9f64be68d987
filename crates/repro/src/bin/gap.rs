//! Oracle-vs-online admission gap study plus the proof-of-work shield
//! curve (see `scp_repro::gap`).

use scp_repro::gap::{run, table_margin, table_pow, table_rotation, GapConfig};
use scp_repro::output::{emit, JournalBook};
use scp_repro::Opts;

fn main() {
    let opts = Opts::from_env();
    let outcome = GapConfig::paper(&opts).and_then(|cfg| {
        let outcome = run(&cfg)?;
        let tables = vec![
            (
                "gap_margin".to_owned(),
                table_margin(&cfg, &outcome.margins),
            ),
            (
                "gap_rotation".to_owned(),
                table_rotation(&cfg, &outcome.rotations),
            ),
            ("gap_pow".to_owned(), table_pow(&cfg, &outcome.pow)),
        ];
        Ok((tables, JournalBook::new()))
    });
    if !emit(&opts, "gap", outcome) {
        std::process::exit(1);
    }
}
