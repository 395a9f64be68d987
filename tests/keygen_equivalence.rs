//! Golden digests of `QueryStream`'s keys.
//!
//! Every case draws 200 000 keys from `QueryStream::with_mapping(p, seed,
//! mapping)` and checks each one against `p.sampler(seed)` followed by
//! `mapping.apply` on a twin sampler, or against the sampled rank itself
//! when `p` is uniform over exactly the mapping's domain (such a stream
//! draws its key directly); the keys also fold into an FNV-1a digest per
//! case. The patterns are a Zipf head, uniform ranks, a tiny
//! `x = 65` working set, the Eq. (4) head/tail shape and a rotating
//! subset, whose ranks lie mostly far from the head. The domains straddle
//! `2^14` (where the stream stops remembering ranks) and include ones
//! whose keys do not fit in 32 bits. `QueryStream::scattered` and the
//! identity `QueryStream::new` are pinned by digest alone.
//!
//! The digests were recorded while the stream still remembered ranks in
//! a 512-slot direct-mapped memo, except the whole-domain uniform ones,
//! re-recorded when those streams began drawing keys directly. Any key
//! the stream returns that the reference would not moves one of them.
//! Two more tests pin which streams draw directly, and that their keys
//! are uniform (chi-square at p = 10^-6 on fixed seeds).

mod golden;

use golden::Digest;
use secure_cache_provision::workload::permute::KeyMapping;
use secure_cache_provision::workload::rng::mix;
use secure_cache_provision::workload::stream::QueryStream;
use secure_cache_provision::workload::AccessPattern;

const DRAWS: usize = 200_000;
/// Domains around the `2^14` boundary, a small one and the paper's scale.
const DOMAINS: [u64; 5] = [5_000, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 100_000];

/// The five patterns over an `m`-key space.
fn patterns(m: u64) -> [AccessPattern; 5] {
    let x = 100.min(m);
    [
        AccessPattern::zipf(0.99, m).expect("valid zipf"),
        AccessPattern::uniform(m).expect("valid uniform"),
        AccessPattern::uniform_subset(65.min(m), m).expect("valid subset"),
        // h halfway between 1/x and 1/(x - 1): the tail rank is rarer
        // than the head ones but still drawn.
        AccessPattern::head_tail(x, m, 0.5 / x as f64 + 0.5 / (x - 1) as f64)
            .expect("valid head/tail"),
        AccessPattern::rotating_subset(151.min(m), m, 300).expect("valid rotation"),
    ]
}

/// Whether a stream of `pattern` under `mapping` draws its keys directly:
/// the pattern is uniform over its whole key space and the mapping is a
/// bijection on exactly that space.
fn draws_directly(pattern: &AccessPattern, mapping: &KeyMapping) -> bool {
    let whole = match *pattern {
        AccessPattern::Uniform { .. } => true,
        AccessPattern::UniformSubset { x, m } => x == m,
        _ => false,
    };
    whole && mapping.domain() == Some(pattern.key_space())
}

/// Draws `draws` keys through `with_mapping`, checks each against the
/// sampler followed by a plain `apply` (or the sampled rank, for a stream
/// that draws directly), and returns their digest.
fn run_case(pattern: &AccessPattern, seed: u64, mapping: &KeyMapping, draws: usize) -> String {
    let mut stream = QueryStream::with_mapping(pattern, seed, mapping.clone()).expect("stream");
    let mut sampler = pattern.sampler(seed).expect("sampler");
    let direct = draws_directly(pattern, mapping);
    let mut d = Digest::new();
    for i in 0..draws {
        let key = stream.next_key();
        let rank = sampler.sample();
        let want = if direct { rank } else { mapping.apply(rank) };
        assert_eq!(key, want, "{} seed {seed}: draw {i}", pattern.describe());
        d.word(key);
    }
    d.hex()
}

/// Digests of every pattern at every domain, mapped by a Feistel scatter
/// over exactly that domain, in `DOMAINS` × `patterns` order.
fn scattered_digests() -> Vec<String> {
    let mut out = Vec::new();
    for (i, &m) in DOMAINS.iter().enumerate() {
        for (j, pattern) in patterns(m).iter().enumerate() {
            let seed = mix(&[0x6E79_6765_6E00, i as u64, j as u64]);
            let mapping = KeyMapping::scattered(m, seed ^ 0x5EED).expect("mapping");
            out.push(run_case(pattern, seed, &mapping, DRAWS));
        }
    }
    out
}

#[test]
fn with_mapping_equals_sampler_then_apply_at_every_domain() {
    let want = [
        // m = 5 000
        "60edf593801a5544",
        "417f6c08f293cde9",
        "ffb588e8b6194a53",
        "ab28ea4649aba58d",
        "93bcad69ad5793b0",
        // m = 2^14 - 1
        "0340edb4b7be88f1",
        "b57dc3b1c1168c00",
        "d6e48e2046f03483",
        "b2aa8bc6dc294ff5",
        "2ca2dd3f52bac67e",
        // m = 2^14
        "46922514d7982205",
        "7e7d522521199d95",
        "6c05986ae5b95e12",
        "265f377a051f8193",
        "28ba73c5d202603e",
        // m = 2^14 + 1
        "6850b492bcc5617e",
        "774b58faae1d3a8d",
        "92e76509c0c7fbf1",
        "8cdf7041b04f3087",
        "b5ea300ae1970ed3",
        // m = 100 000
        "a63843a8174225c4",
        "de96d97f4543c1d2",
        "d8e0d5be23cdf5ec",
        "094aec3060926bd8",
        "adb97a780a7e17a4",
    ];
    let got = scattered_digests();
    for (k, (got, want)) in got.iter().zip(want).enumerate() {
        let m = DOMAINS[k / 5];
        assert_eq!(got, want, "m {m}, pattern {}", k % 5);
    }
}

#[test]
fn a_mapping_wider_than_the_pattern_is_applied_as_is() {
    // Ranks stay below 5 000 while the mapping's domain crosses 2^14, so
    // every rank is a head rank of a larger permutation.
    let pattern = AccessPattern::zipf(0.99, 5_000).expect("valid zipf");
    let mapping = KeyMapping::scattered((1 << 14) + 1, 77).expect("mapping");
    let got = run_case(&pattern, 78, &mapping, DRAWS);
    assert_eq!(got, "0e2af3c8361e4f05");
}

#[test]
fn domains_past_32_bits_are_applied_as_is() {
    // `key + 1` of these domains need not fit in 32 bits.
    let mut got = Vec::new();
    for m in [u64::from(u32::MAX) - 1, u64::from(u32::MAX), 1 << 40] {
        for pattern in [
            AccessPattern::zipf(0.99, m).expect("valid zipf"),
            AccessPattern::uniform_subset(65, m).expect("valid subset"),
        ] {
            let mapping = KeyMapping::scattered(m, m ^ 0xB16).expect("mapping");
            got.push(run_case(&pattern, m, &mapping, DRAWS / 10));
        }
    }
    assert_eq!(
        got,
        [
            "6b7fa5622ca6caf7",
            "8365b7160162adf0",
            "270349d2a9defc23",
            "a2418e348e1be28f",
            "f4fe29efe2fade8d",
            "483fc84c9c41b883",
        ]
    );
}

#[test]
fn scattered_and_identity_streams_keep_their_keys() {
    let mut got = Vec::new();
    for m in [(1 << 14) + 1, 100_000] {
        for (j, pattern) in patterns(m).iter().enumerate() {
            let seed = mix(&[0x5CA7, m, j as u64]);
            let mut d = Digest::new();
            for key in QueryStream::scattered(pattern, seed)
                .expect("scattered")
                .take(DRAWS)
            {
                d.word(key);
            }
            got.push(d.hex());

            // The identity stream's keys are its ranks.
            let mut stream = QueryStream::new(pattern, seed).expect("identity");
            let mut sampler = pattern.sampler(seed).expect("sampler");
            let mut d = Digest::new();
            for _ in 0..DRAWS / 10 {
                let key = stream.next_key();
                assert_eq!(key, sampler.sample());
                d.word(key);
            }
            got.push(d.hex());
        }
    }
    assert_eq!(
        got,
        [
            "27d99fbc03946466",
            "ccd79df4cb3e244f",
            "fdb19fdf5000b061",
            "ca0c04f58e2bd568",
            "e98fbaaf95b9abe8",
            "fde9c022e0f7c542",
            "d05348812d3efbb8",
            "8b4c8c105701941c",
            "85954c281a8f910f",
            "456abd40f543f076",
            "f74af6dba4317e8b",
            "f9bdecb0b7182341",
            "45c39df49df3a1e3",
            "1b1340b3e094ef91",
            "c022c21f8172ee5e",
            "bed8c66a2790aead",
            "2bfe7651cb358b98",
            "81c69eb5062f571b",
            "27262bf416cff148",
            "05b25a7156cbe8af",
        ]
    );
}

#[test]
fn only_a_whole_domain_uniform_stream_draws_directly() {
    for m in DOMAINS {
        let exact = || KeyMapping::scattered(m, m ^ 0xD1EC7).expect("mapping");
        let wider = KeyMapping::scattered(m + 1, m ^ 0xD1EC7).expect("mapping");
        let uniform = AccessPattern::uniform(m).expect("valid uniform");
        let subset = |x| AccessPattern::uniform_subset(x, m).expect("valid subset");
        let zipf = AccessPattern::zipf(0.99, m).expect("valid zipf");
        let cases = [
            (uniform.clone(), exact(), true),
            (subset(m), exact(), true),
            (subset(m - 1), exact(), false),
            (uniform.clone(), wider, false),
            (zipf, exact(), false),
        ];
        for (pattern, mapping, direct) in cases {
            let label = format!("{} over {:?} keys", pattern.describe(), mapping.domain());
            assert_eq!(draws_directly(&pattern, &mapping), direct, "{label}");
            let mut stream =
                QueryStream::with_mapping(&pattern, m, mapping.clone()).expect("stream");
            let mut sampler = pattern.sampler(m).expect("sampler");
            let (mut as_rank, mut as_applied) = (0, 0);
            for _ in 0..2_000 {
                let key = stream.next_key();
                let rank = sampler.sample();
                as_rank += usize::from(key == rank);
                as_applied += usize::from(key == mapping.apply(rank));
            }
            // The permutation fixes few ranks, so each count tells the
            // two paths apart.
            let (exact_count, other) = if direct {
                (as_rank, as_applied)
            } else {
                (as_applied, as_rank)
            };
            assert_eq!(exact_count, 2_000, "{label}");
            assert!(
                other < 100,
                "{label}: {other} draws agree with the other path"
            );
        }
        // `scattered` builds a mapping over exactly the key space.
        let mut stream = QueryStream::scattered(&uniform, m).expect("scattered");
        let mut sampler = uniform.sampler(m).expect("sampler");
        assert!((0..2_000).all(|_| stream.next_key() == sampler.sample()));
    }
}

/// Wilson–Hilferty approximation of the chi-square quantile with `k`
/// degrees of freedom at standard normal quantile `z`.
fn chi_square_quantile(k: u64, z: f64) -> f64 {
    let v = 2.0 / (9.0 * k as f64);
    k as f64 * (1.0 - v + z * v.sqrt()).powi(3)
}

#[test]
fn direct_draws_are_uniform_over_the_whole_domain() {
    // Normal quantile of 1 - 10^-6: each tail is rejected at p = 10^-6.
    const Z: f64 = 4.753_424;
    for (i, m) in [10_000, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 100_000]
        .into_iter()
        .enumerate()
    {
        let draws = 20 * m;
        for j in 0..2u64 {
            let seed = mix(&[0xC41_5E7, i as u64, j]);
            let mut stream = if j == 0 {
                let pattern = AccessPattern::uniform(m).expect("valid uniform");
                QueryStream::scattered(&pattern, seed).expect("scattered")
            } else {
                let pattern = AccessPattern::uniform_subset(m, m).expect("valid subset");
                let mapping = KeyMapping::scattered(m, seed ^ 0x5EED).expect("mapping");
                QueryStream::with_mapping(&pattern, seed, mapping).expect("stream")
            };
            let mut counts = vec![0u32; m as usize];
            for _ in 0..draws {
                counts[stream.next_key() as usize] += 1;
            }
            let expected = draws as f64 / m as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| (f64::from(c) - expected).powi(2) / expected)
                .sum();
            let (low, high) = (
                chi_square_quantile(m - 1, -Z),
                chi_square_quantile(m - 1, Z),
            );
            assert!(
                (low..high).contains(&chi2),
                "m {m}, stream {j}: chi-square {chi2:.1} outside [{low:.1}, {high:.1})"
            );
        }
    }
}
