//! Runs ablations A1–A8 (selection, partitioning, replication, caches,
//! front-end fleets, operation costs, Zipf skew, rebalancing).

use scp_repro::ablation::run_all_journaled;
use scp_repro::output::emit;
use scp_repro::Opts;

fn main() {
    let opts = Opts::from_env();
    if !emit(&opts, "ablations", Ok(run_all_journaled(&opts))) {
        std::process::exit(1);
    }
}
