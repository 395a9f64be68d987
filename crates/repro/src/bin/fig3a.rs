//! Reproduces Figure 3(a): x-sweep with a small (c = 200) cache.

use scp_repro::fig3::{run_journaled, table, Fig3Config};
use scp_repro::output::{emit, JournalBook};
use scp_repro::Opts;

fn main() {
    let opts = Opts::from_env();
    let outcome = Fig3Config::paper(200, &opts).and_then(|cfg| {
        let mut book = JournalBook::new();
        let rows = run_journaled(&cfg, &mut book)?;
        Ok((vec![("fig3a".to_owned(), Ok(table(&cfg, &rows)))], book))
    });
    if !emit(&opts, "fig3a", outcome) {
        std::process::exit(1);
    }
}
