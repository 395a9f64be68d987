//! Reproduces Figure 3(b): x-sweep with a provisioned (c = 2000) cache.

use scp_repro::fig3::{run_journaled, table, Fig3Config};
use scp_repro::output::{emit, JournalBook};
use scp_repro::Opts;

fn main() {
    let opts = Opts::from_env();
    let outcome = Fig3Config::paper(2000, &opts).and_then(|cfg| {
        let mut book = JournalBook::new();
        let rows = run_journaled(&cfg, &mut book)?;
        Ok((vec![("fig3b".to_owned(), Ok(table(&cfg, &rows)))], book))
    });
    if !emit(&opts, "fig3b", outcome) {
        std::process::exit(1);
    }
}
