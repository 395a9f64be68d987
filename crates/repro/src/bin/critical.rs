//! Bisection search for the empirical critical cache size `c*` — the
//! smallest cache at which the best-response attack gain drops to 1.0.
//!
//! Paper setup: 1000 back-end nodes, replication 3, 1e6 stored keys
//! (`--fast`: 100 nodes, 1e5 keys); 200 repetitions per probe (the
//! bisection runs the `--runs` ceiling; `--ci-target` does not apply).

use scp_repro::Opts;
use scp_sim::critical::find_critical_cache_size;
use scp_sim::SimError;

fn run(opts: &Opts) -> Result<(), SimError> {
    let (nodes, items) = if opts.fast {
        (100, 100_000)
    } else {
        (1000, 1_000_000)
    };
    let base = opts
        .sim()
        .nodes(nodes)
        .items(items)
        .rate(1e6)
        .attack_x(items)
        .build()?;
    let runs = opts.stop_rule(200).max_runs;
    let point = find_critical_cache_size(&base, runs, opts.threads)?;
    println!(
        "empirical critical cache size: c* = {} (gain {:.4} there, {} probes, n={nodes}, m={items}, {runs} runs)",
        point.cache_size, point.gain_at, point.evaluations
    );
    for probe in &point.trace {
        println!("  probed c={:<8} gain {:.4}", probe.cache_size, probe.gain);
    }
    Ok(())
}

fn main() {
    let opts = Opts::from_env();
    if let Err(e) = run(&opts) {
        eprintln!("critical search failed: {e}");
        std::process::exit(1);
    }
}
