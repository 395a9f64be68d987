//! Elastic-membership study: placement disruption per partitioning
//! scheme on a join/leave, and empirical `c*` drift across the epochs
//! of a join→leave schedule (see `scp_repro::reshard`).

use scp_repro::output::{emit, JournalBook};
use scp_repro::reshard::{run, table_disruption, table_drift, ReshardConfig};
use scp_repro::Opts;

fn main() {
    let opts = Opts::from_env();
    let outcome = ReshardConfig::paper(&opts).and_then(|cfg| {
        let outcome = run(&cfg)?;
        let tables = vec![
            (
                "reshard_disruption".to_owned(),
                table_disruption(&cfg, &outcome.disruption),
            ),
            (
                "reshard_cstar_drift".to_owned(),
                table_drift(&cfg, &outcome.drift),
            ),
        ];
        Ok((tables, JournalBook::new()))
    });
    if !emit(&opts, "reshard", outcome) {
        std::process::exit(1);
    }
}
