//! Reproduces Figure 5(a) and 5(b): the best attack vs. cache size, the
//! empirical critical point, and the paper's bound.

use scp_repro::fig5::{run_journaled, table_panel_a, table_panel_b, Fig5Config};
use scp_repro::output::{emit, JournalBook};
use scp_repro::Opts;

fn main() {
    let opts = Opts::from_env();
    let outcome = Fig5Config::paper(&opts).and_then(|cfg| {
        let mut book = JournalBook::new();
        let outcome = run_journaled(&cfg, &mut book)?;
        let tables = vec![
            ("fig5a".to_owned(), Ok(table_panel_a(&cfg, &outcome))),
            ("fig5b".to_owned(), Ok(table_panel_b(&cfg, &outcome))),
        ];
        Ok((tables, book))
    });
    if !emit(&opts, "fig5", outcome) {
        std::process::exit(1);
    }
}
