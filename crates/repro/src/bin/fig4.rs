//! Reproduces Figure 4: access-pattern comparison across cluster sizes.

use scp_repro::fig4::{run_journaled, table, Fig4Config};
use scp_repro::output::{emit, JournalBook};
use scp_repro::Opts;

fn main() {
    let opts = Opts::from_env();
    let outcome = Fig4Config::paper(&opts).and_then(|cfg| {
        let mut book = JournalBook::new();
        let rows = run_journaled(&cfg, &mut book)?;
        Ok((vec![("fig4".to_owned(), table(&cfg, &rows))], book))
    });
    if !emit(&opts, "fig4", outcome) {
        std::process::exit(1);
    }
}
