//! The sticky selectors' page table against their map-only twins.
//!
//! A [`LeastLoadedSelector`] or [`RoundRobinSelector`] built for `D`
//! items keeps the state of keys below `D` in a page table and the rest
//! in a keyed map; one built for 0 items keeps everything in the map,
//! exactly as the selectors did before the table existed. Every case
//! drives both through one seeded stream — keys on both sides of `D`
//! (with `0`, `D − 1`, `D` and `u64::MAX`), groups that shrink so pins
//! leave and keys re-pin, pins to `NodeId(2^24 − 1)` and
//! `NodeId(u32::MAX)` (no 24-bit `node + 1` code), drifting loads,
//! partition epochs advanced one at a time and in bursts that wrap the
//! 8-bit pin tag, and mid-stream resets — and requires equal decisions,
//! equal `pinned()` and equal `pinned_keys()` at every step.
//!
//! A second pair of tests checks that `items` cannot size the table into
//! an allocator abort.

#![allow(clippy::restriction, clippy::disallowed_methods)]

use secure_cache_provision::cluster::select::{
    LeastLoadedSelector, RateAssignment, ReplicaSelector, RoundRobinSelector, DENSE_KEY_CAP,
};
use secure_cache_provision::cluster::{KeyId, NodeId};
use secure_cache_provision::prelude::*;
use secure_cache_provision::workload::fasthash::FastBuildHasher;
use secure_cache_provision::workload::rng::{mix, next_below, Rng, Xoshiro256StarStar};

const CASES: u64 = 500;
const STEPS: usize = 600;
const NODES: u64 = 12;
/// Domains on and off the 1024-key page boundaries.
const EDGE_DOMAINS: [u64; 8] = [1, 2, 1023, 1024, 1025, 2048, 3000, 4096];

/// The keys one case draws from: the domain's edges, one key in every
/// page of the table, keys above the domain and arbitrary 64-bit keys.
fn key_pool(rng: &mut Xoshiro256StarStar, domain: u64) -> Vec<u64> {
    let mut pool = vec![0, domain - 1, domain, domain + 1, u64::MAX, u64::MAX - 1];
    for page_start in (0..domain).step_by(1024) {
        pool.push(page_start + next_below(rng, (domain - page_start).min(1024)));
    }
    for _ in 0..8 {
        pool.push(next_below(rng, domain));
        pool.push(domain + next_below(rng, 4096));
        pool.push(rng.next_u64());
    }
    pool
}

/// The key's full replica group: three distinct nodes of `0..NODES`.
fn base_group(key: u64) -> Vec<NodeId> {
    let first = mix(&[key, 1]) % NODES;
    let second = (first + 1 + mix(&[key, 2]) % (NODES - 1)) % NODES;
    let mut third = (first + 1 + mix(&[key, 3]) % (NODES - 1)) % NODES;
    while third == first || third == second {
        third = (third + 1) % NODES;
    }
    [first, second, third]
        .into_iter()
        .map(|n| NodeId::new(u32::try_from(n).expect("small node id")))
        .collect()
}

/// One case: a domain-`D` selector pair against its map-only twins.
fn run_case(case: u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(mix(&[0x5E1E_C7ED, case]));
    let domain = match EDGE_DOMAINS.get(case as usize) {
        Some(&d) => d,
        None => 1 + next_below(&mut rng, 6000),
    };
    let pool = key_pool(&mut rng, domain);
    let (dense_seed, map_seed) = (FastBuildHasher::new(case), FastBuildHasher::new(!case));
    let mut ll = LeastLoadedSelector::for_items(domain, dense_seed);
    let mut ll_twin = LeastLoadedSelector::for_items(0, map_seed);
    let mut rr = RoundRobinSelector::for_items(domain, dense_seed);
    let mut rr_twin = RoundRobinSelector::for_items(0, map_seed);
    let mut loads = vec![0.0; NODES as usize];
    let wide = NodeId::new(u32::MAX);
    let no_code = NodeId::new((1 << 24) - 1);

    for step in 0..STEPS {
        let key_value = pool
            .get(next_below(&mut rng, pool.len() as u64) as usize)
            .copied()
            .expect("index below the pool size");
        let key = KeyId::new(key_value);
        let mut group = base_group(key_value);
        match next_below(&mut rng, 20) {
            // A member leaves: keys pinned to it re-pin.
            0..=2 => {
                group.remove(next_below(&mut rng, 3) as usize);
            }
            // Only nodes outside `loads`: the pin goes to the first one,
            // which has no 24-bit `node + 1` slot code.
            3 => {
                let first = [wide, no_code][next_below(&mut rng, 2) as usize];
                group = vec![first, NodeId::new(1_000)];
            }
            // That node next to tracked ones: a `u32::MAX` pin holds.
            4 => group.insert(0, wide),
            _ => {}
        }
        let ctx = format!("case {case}, D = {domain}, step {step}, {key}, group {group:?}");

        let (node, twin) = if next_below(&mut rng, 4) == 0 {
            let (a, b) = (
                ll.rate_assignment(key, &group, &loads),
                ll_twin.rate_assignment(key, &group, &loads),
            );
            assert_eq!(a, b, "least-loaded rate assignment, {ctx}");
            match a {
                RateAssignment::Pinned(n) => (n, n),
                RateAssignment::EvenSplit => panic!("a sticky selector pins, {ctx}"),
            }
        } else {
            (
                ll.select(key, &group, &loads),
                ll_twin.select(key, &group, &loads),
            )
        };
        assert_eq!(node, twin, "least-loaded decision, {ctx}");
        assert_eq!(ll.pinned(key), ll_twin.pinned(key), "pin report, {ctx}");
        assert_eq!(
            ll.pinned_keys(),
            ll_twin.pinned_keys(),
            "pinned keys, {ctx}"
        );
        assert_eq!(
            rr.select(key, &group, &loads),
            rr_twin.select(key, &group, &loads),
            "round-robin decision, {ctx}"
        );

        // Loads drift: the chosen node is charged, and now and then a
        // random node takes a burst, so a re-pin lands somewhere new.
        if let Some(load) = loads.get_mut(node.index()) {
            *load += 1.0;
        }
        if next_below(&mut rng, 16) == 0 {
            let hot = next_below(&mut rng, NODES) as usize;
            if let Some(load) = loads.get_mut(hot) {
                *load += next_below(&mut rng, 40) as f64;
            }
        }
        // A new partition epoch, now and then a burst past the tag's wrap.
        if next_below(&mut rng, 8) == 0 {
            let epochs = if next_below(&mut rng, 16) == 0 {
                200 + next_below(&mut rng, 120)
            } else {
                1
            };
            for _ in 0..epochs {
                ll.advance_epoch();
                ll_twin.advance_epoch();
            }
            assert_eq!(ll.pinned(key), None, "a new epoch unchecks, {ctx}");
            assert_eq!(ll_twin.pinned(key), None, "a new epoch unchecks, {ctx}");
        }
        if next_below(&mut rng, 150) == 0 {
            for s in [
                &mut ll as &mut dyn ReplicaSelector,
                &mut ll_twin,
                &mut rr,
                &mut rr_twin,
            ] {
                s.reset();
            }
            assert_eq!(ll.pinned_keys(), 0, "reset unpins, {ctx}");
        }
    }
}

#[test]
fn page_table_selectors_match_their_map_only_twins() {
    for case in 0..CASES {
        run_case(case);
    }
}

#[test]
fn items_at_u64_max_build_a_capped_selector() {
    // `--items` comes from the command line: the directory is sized from
    // `min(items, DENSE_KEY_CAP)`, never from `items` itself.
    let sim = SimConfig::builder()
        .items(u64::MAX)
        .build()
        .expect("u64::MAX items is a valid shape");
    let mut cluster = secure_cache_provision::cluster::Cluster::new(
        sim.build_partitioner().expect("partitioner builds"),
        sim.build_selector(),
    );
    for key in [0, DENSE_KEY_CAP - 1, DENSE_KEY_CAP, u64::MAX] {
        let first = cluster.route_query(KeyId::new(key)).expect("live cluster");
        assert_eq!(
            cluster.route_query(KeyId::new(key)).expect("live cluster"),
            first,
            "key {key} stays pinned"
        );
    }

    let mut cfg = ServeConfig::new(sim);
    cfg.total_queries = 1_000;
    let report = run_deterministic(&cfg).expect("serve runs at u64::MAX items");
    assert!(report.is_conserved() && report.is_drained());
}

#[test]
fn wide_pins_survive_resets_and_repins() {
    // `NodeId(u32::MAX)` is the one node without a `node + 1` slot code:
    // its pins live beside the page table and count like any other.
    let wide = NodeId::new(u32::MAX);
    let mut s = LeastLoadedSelector::for_items(2048, FastBuildHasher::new(3));
    let key = KeyId::new(1024);
    assert_eq!(s.select(key, &[wide], &[]), wide);
    assert_eq!(s.pinned_keys(), 1);
    // Still a member: the pin holds even though node 0 is less loaded.
    assert_eq!(s.select(key, &[NodeId::new(0), wide], &[0.0]), wide);
    // It leaves: the key re-pins into the table, still one pin.
    assert_eq!(s.select(key, &[NodeId::new(0)], &[0.0]), NodeId::new(0));
    assert_eq!(s.pinned_keys(), 1);
    assert_eq!(
        s.select(key, &[NodeId::new(0), wide], &[0.0]),
        NodeId::new(0)
    );
    s.reset();
    assert_eq!(s.pinned_keys(), 0);
}
