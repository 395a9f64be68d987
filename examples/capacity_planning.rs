//! Capacity planning: critical cache sizes across cluster shapes, the
//! largest cluster a given cache can protect, and per-node capacity
//! head-room under the worst-case attack.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::core::bounds::KParam;
use secure_cache_provision::core::params::SystemParams;
use secure_cache_provision::core::provision::Provisioner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fitted = Provisioner::default(); // the paper's fitted k = 1.2
    let theory = Provisioner::with_k(KParam::theory()); // conservative

    println!("Critical cache size c* by cluster shape");
    println!(
        "{:>8} {:>4} {:>14} {:>14}",
        "n", "d", "c* (fitted)", "c* (theory)"
    );
    for n in [100usize, 1000, 10_000, 100_000] {
        for d in [2usize, 3, 5] {
            println!(
                "{:>8} {:>4} {:>14} {:>14}",
                n,
                d,
                fitted.min_cache_size(n, d),
                theory.min_cache_size(n, d)
            );
        }
    }

    println!("\nLargest protectable cluster per cache budget (d = 3, fitted k)");
    println!("{:>12} {:>16}", "cache", "max nodes");
    for cache in [1_000usize, 10_000, 100_000, 1_000_000] {
        println!(
            "{:>12} {:>16}",
            cache,
            fitted.max_protectable_nodes(cache, 3)
        );
    }

    // How much per-node capacity survives the worst case at various cache
    // sizes? (1000 nodes, 100k qps: even share is 100 qps/node.)
    println!("\nPer-node capacity needed to survive the optimal attack");
    println!("(n=1000, d=3, m=1e6, R=100k qps; even share = 100 qps/node)");
    println!(
        "{:>8} {:>12} {:>18} {:>12}",
        "cache", "worst x", "needed qps/node", "protected"
    );
    for cache in [100usize, 400, 800, 1200, 1600, 2400] {
        let params = SystemParams::new(1000, 3, cache, 1_000_000, 1e5)?;
        let r = fitted.report(&params);
        println!(
            "{:>8} {:>12} {:>18.1} {:>12}",
            cache, r.worst_case_x, r.required_node_capacity, r.is_protected
        );
    }

    // The d = 1 cautionary tale: no finite cache gives the guarantee.
    println!(
        "\nWithout replication (d = 1), theory's c* is unbounded: {}",
        if theory.min_cache_size(1000, 1) == usize::MAX {
            "usize::MAX (provision replication first!)"
        } else {
            "finite?!"
        }
    );

    Ok(())
}
