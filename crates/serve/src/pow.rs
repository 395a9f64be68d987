//! Near-stateless proof-of-work admission (the `c < c*` shield).
//!
//! In the under-provisioned regime the paper's cache-size bound cannot
//! hold: the attacker's `x > c` working set always reaches the backend.
//! This module makes reaching the backend *expensive* instead. The design
//! follows rspow's stateless challenge scheme:
//!
//! * **Deterministic time-windowed server nonces.** The server never
//!   stores issued challenges. The nonce for window `w` is
//!   `mix(secret, w)`; any thread that knows the secret can re-derive it,
//!   so verification needs no issuance table. The verifier derives each
//!   live window's nonce once, when the window opens. Windows are slices
//!   of the serve path's *logical* clock (`submitted / R` seconds) — the
//!   wall-clock deny rule stays intact and deterministic runs stay
//!   bit-reproducible.
//! * **Grace of one window.** A solution is checked against the current
//!   *and* the previous window's nonce, so clients holding a nonce that
//!   just expired are not spuriously rejected; anything older fails.
//! * **Bounded replay cache.** Only *accepted* digests are remembered,
//!   and only for the two live windows; the memory bound is
//!   `2 · replay_capacity` entries regardless of attack volume. A full
//!   window rejects further proofs (fail-closed).
//! * **Cheap verification.** One or two `mix` evaluations plus a hash-set
//!   probe per request, on the admission thread. The replay sets hash
//!   with a [`FastBuildHasher`] keyed by the server secret: digests are
//!   client-steerable, so the bucket function must not be public, and the
//!   sets are never iterated, so the key changes layout only.
//!
//! A client attaches work by finding `nonce` such that
//! `mix(server_nonce, client, key, nonce)` has at least `difficulty`
//! leading zero bits — expected `2^difficulty` attempts. Binding the
//! digest to `(client, key)` keeps solutions non-transferable across
//! clients and queries.

use scp_workload::fasthash::FastBuildHasher;
use scp_workload::rng::{mix, MixPrefix};
use std::collections::HashSet;

/// Domain-separation tag for deriving the server secret from a run seed.
const SECRET_TAG: u64 = 0x7075_7A5A_6C65_5EED; // "puzzle seed"
/// Domain-separation tag for per-window server nonces.
const WINDOW_TAG: u64 = 0x7075_7A5A_6C65_57D0; // "puzzle window"
/// Domain-separation tag for per-request solver scan starts.
const START_TAG: u64 = 0x7075_7A5A_6C65_5CA0; // "puzzle scan"

/// Derives a per-request solver scan start from a client id and a local
/// sequence number, so repeat queries for one key yield distinct
/// solutions (see [`solve_from`]).
pub fn scan_start(client: u32, sequence: u64) -> u64 {
    mix(&[u64::from(client), sequence, START_TAG])
}

/// The server nonce of `window` under `secret`.
fn derive_nonce(secret: u64, window: u64) -> u64 {
    mix(&[secret, window, WINDOW_TAG])
}

/// Configuration of the proof-of-work shield.
#[derive(Debug, Clone, PartialEq)]
pub struct PowShield {
    /// Required leading zero bits in the work digest; expected client
    /// cost is `2^difficulty` hash evaluations per query.
    pub difficulty: u32,
    /// Length of a nonce window in *logical* seconds.
    pub window_secs: f64,
    /// Maximum accepted digests remembered per live window; a full
    /// window rejects further proofs rather than growing without bound.
    pub replay_capacity: usize,
}

impl PowShield {
    /// A shield at the given difficulty with one-logical-second windows
    /// and a 65 536-entry replay cache per window.
    pub fn new(difficulty: u32) -> Self {
        Self {
            difficulty,
            window_secs: 1.0,
            replay_capacity: 65_536,
        }
    }
}

/// Why a request was turned away (or not) by the shield.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowVerdict {
    /// The proof is fresh, sufficient, and previously unseen.
    Accepted,
    /// No proof was attached.
    Missing,
    /// The digest misses the difficulty target for both live windows
    /// (includes work solved against an expired nonce).
    BadWork,
    /// The exact digest was already accepted in its window, or the
    /// window's replay cache is full.
    Replayed,
}

/// The work digest a client must drive below the difficulty target.
pub fn pow_digest(server_nonce: u64, client: u32, key: u64, nonce: u64) -> u64 {
    mix(&[server_nonce, u64::from(client), key, nonce])
}

/// Whether a digest meets a difficulty target of leading zero bits.
pub fn meets_difficulty(digest: u64, difficulty: u32) -> bool {
    digest.leading_zeros() >= difficulty
}

/// Honest-client solver: scan nonces from zero until the digest meets
/// the target. Returns the winning nonce and the number of attempts
/// spent, which is the measurable work factor.
pub fn solve(server_nonce: u64, client: u32, key: u64, difficulty: u32) -> (u64, u64) {
    solve_from(server_nonce, client, key, difficulty, 0)
}

/// [`solve`] with an explicit scan start. Repeat queries for the same
/// key inside one window must start at *different* points (e.g. derived
/// from a per-client sequence number) — a fixed start would rediscover
/// the same winning nonce, whose digest the replay cache has already
/// seen and would reject.
pub fn solve_from(
    server_nonce: u64,
    client: u32,
    key: u64,
    difficulty: u32,
    start: u64,
) -> (u64, u64) {
    // Only the nonce changes between attempts: absorb the rest once.
    let prefix = MixPrefix::new(&[server_nonce, u64::from(client), key]);
    let mut nonce = start;
    let mut attempts = 1u64;
    loop {
        if meets_difficulty(prefix.finish(nonce), difficulty) {
            return (nonce, attempts);
        }
        nonce = nonce.wrapping_add(1);
        attempts = attempts.wrapping_add(1);
    }
}

/// Admission-side verifier state: the derived secret, the two live
/// windows' replay sets, and the difficulty knob.
#[derive(Debug)]
pub struct PowVerifier {
    secret: u64,
    difficulty: u32,
    window_secs: f64,
    replay_capacity: usize,
    current_window: u64,
    /// `server_nonce` of the current window.
    current_nonce: u64,
    /// `server_nonce` of the previous window (unused in window 0).
    previous_nonce: u64,
    seen_current: HashSet<u64, FastBuildHasher>,
    seen_previous: HashSet<u64, FastBuildHasher>,
}

impl PowVerifier {
    /// Builds the verifier for one run; the secret is derived from the
    /// run seed so deterministic runs are reproducible, and also keys the
    /// replay sets.
    pub fn new(shield: &PowShield, seed: u64) -> Self {
        let secret = mix(&[seed, SECRET_TAG]);
        Self::with_hasher(shield, secret, FastBuildHasher::new(secret))
    }

    fn with_hasher(shield: &PowShield, secret: u64, hasher: FastBuildHasher) -> Self {
        Self {
            secret,
            difficulty: shield.difficulty,
            window_secs: if shield.window_secs > 0.0 {
                shield.window_secs
            } else {
                1.0
            },
            replay_capacity: shield.replay_capacity.max(1),
            current_window: 0,
            current_nonce: derive_nonce(secret, 0),
            previous_nonce: 0,
            seen_current: HashSet::with_hasher(hasher),
            seen_previous: HashSet::with_hasher(hasher),
        }
    }

    /// The configured difficulty (leading zero bits).
    pub fn difficulty(&self) -> u32 {
        self.difficulty
    }

    /// The nonce window covering logical time `now`.
    pub fn window_at(&self, now: f64) -> u64 {
        if now > 0.0 {
            (now / self.window_secs) as u64
        } else {
            0
        }
    }

    /// The deterministic server nonce for a window — what rspow's
    /// `GetNonce` would hand a client during that window. The two live
    /// windows' nonces are stored; any other window's is derived.
    pub fn server_nonce(&self, window: u64) -> u64 {
        if window == self.current_window {
            self.current_nonce
        } else if self.current_window.checked_sub(1) == Some(window) {
            self.previous_nonce
        } else {
            derive_nonce(self.secret, window)
        }
    }

    /// Rolls the live windows forward to `window`; returns whether the
    /// current window changed (so callers can republish the nonce).
    pub fn advance_to(&mut self, window: u64) -> bool {
        if window <= self.current_window {
            return false;
        }
        if window == self.current_window + 1 {
            std::mem::swap(&mut self.seen_previous, &mut self.seen_current);
            self.seen_current.clear();
            self.previous_nonce = self.current_nonce;
        } else {
            self.seen_previous.clear();
            self.seen_current.clear();
            self.previous_nonce = derive_nonce(self.secret, window - 1);
        }
        self.current_window = window;
        self.current_nonce = derive_nonce(self.secret, window);
        true
    }

    /// Verifies one request's proof at logical time `now`.
    ///
    /// The digest is recomputed against the current window's nonce first
    /// and the previous window's as a grace fallback; an accepted digest
    /// is recorded in that window's replay set.
    pub fn verify(&mut self, now: f64, client: u32, key: u64, proof: Option<u64>) -> PowVerdict {
        self.advance_to(self.window_at(now));
        let Some(nonce) = proof else {
            return PowVerdict::Missing;
        };
        let digest = pow_digest(self.current_nonce, client, key, nonce);
        if meets_difficulty(digest, self.difficulty) {
            return self.record(digest, false);
        }
        if self.current_window > 0 {
            let prev = pow_digest(self.previous_nonce, client, key, nonce);
            if meets_difficulty(prev, self.difficulty) {
                return self.record(prev, true);
            }
        }
        PowVerdict::BadWork
    }

    fn record(&mut self, digest: u64, previous: bool) -> PowVerdict {
        let set = if previous {
            &mut self.seen_previous
        } else {
            &mut self.seen_current
        };
        if set.len() >= self.replay_capacity && !set.contains(&digest) {
            return PowVerdict::Replayed;
        }
        if set.insert(digest) {
            PowVerdict::Accepted
        } else {
            PowVerdict::Replayed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verifier(difficulty: u32) -> PowVerifier {
        PowVerifier::new(&PowShield::new(difficulty), 42)
    }

    #[test]
    fn solve_meets_the_target_and_verifies() {
        let mut v = verifier(8);
        let nonce_seed = v.server_nonce(0);
        let (nonce, attempts) = solve(nonce_seed, 3, 77, 8);
        assert!(attempts >= 1);
        assert_eq!(v.verify(0.0, 3, 77, Some(nonce)), PowVerdict::Accepted);
    }

    #[test]
    fn solve_from_equals_a_naive_digest_scan() {
        for case in 0..200u64 {
            let server_nonce = mix(&[case, 1]);
            let client = (case % 7) as u32 * 0x2000_0001;
            let key = mix(&[case, 2]) >> (case % 64);
            let start = match case % 4 {
                0 => u64::MAX,
                1 => u64::MAX - (case % 16),
                _ => mix(&[case, 3]),
            };
            for difficulty in [0, 1, 4, 8] {
                let mut nonce = start;
                let mut attempts = 1;
                while !meets_difficulty(pow_digest(server_nonce, client, key, nonce), difficulty) {
                    nonce = nonce.wrapping_add(1);
                    attempts += 1;
                }
                assert_eq!(
                    solve_from(server_nonce, client, key, difficulty, start),
                    (nonce, attempts),
                    "case {case}, difficulty {difficulty}"
                );
            }
        }
    }

    #[test]
    fn missing_and_garbage_proofs_are_rejected() {
        let mut v = verifier(12);
        assert_eq!(v.verify(0.0, 0, 1, None), PowVerdict::Missing);
        // A random nonce at difficulty 12 fails with probability
        // 1 - 2^-12; this specific one is checked to fail.
        let nonce_seed = v.server_nonce(0);
        let (good, _) = solve(nonce_seed, 0, 1, 12);
        assert_eq!(
            v.verify(0.0, 0, 1, Some(good.wrapping_add(1) ^ 0xDEAD)),
            PowVerdict::BadWork
        );
    }

    #[test]
    fn replay_of_an_accepted_digest_is_rejected() {
        let mut v = verifier(4);
        let (nonce, _) = solve(v.server_nonce(0), 1, 5, 4);
        assert_eq!(v.verify(0.0, 1, 5, Some(nonce)), PowVerdict::Accepted);
        assert_eq!(v.verify(0.0, 1, 5, Some(nonce)), PowVerdict::Replayed);
    }

    #[test]
    fn solutions_are_bound_to_client_and_key() {
        let mut v = verifier(4);
        let (nonce, _) = solve(v.server_nonce(0), 1, 5, 4);
        // Another client (or key) replaying the same nonce must re-meet
        // the target by luck only; craft guarantees this one fails or,
        // if it passes the 1-in-16 luck check, is still a distinct digest
        // and so not a conservation hazard. Assert non-transfer for a
        // case verified to fail the target.
        let stolen = pow_digest(v.server_nonce(0), 2, 5, nonce);
        if !meets_difficulty(stolen, 4) {
            assert_eq!(v.verify(0.0, 2, 5, Some(nonce)), PowVerdict::BadWork);
        }
    }

    #[test]
    fn previous_window_gets_grace_but_older_does_not() {
        let mut v = verifier(4);
        let w0 = v.server_nonce(0);
        let (nonce, _) = solve(w0, 9, 33, 4);
        // One window later: still accepted via the grace path (unless the
        // same nonce happens to also satisfy window 1 directly, which is
        // equally an acceptance).
        assert_eq!(v.verify(1.0, 9, 33, Some(nonce)), PowVerdict::Accepted);
        // Two windows later: the window-0 solution is dead.
        let mut v2 = verifier(4);
        let (nonce2, _) = solve(v2.server_nonce(0), 9, 34, 4);
        let fresh_ok = meets_difficulty(pow_digest(v2.server_nonce(2), 9, 34, nonce2), 4)
            || meets_difficulty(pow_digest(v2.server_nonce(1), 9, 34, nonce2), 4);
        if !fresh_ok {
            assert_eq!(v2.verify(2.0, 9, 34, Some(nonce2)), PowVerdict::BadWork);
        }
    }

    #[test]
    fn replay_cache_is_bounded_and_fails_closed() {
        let mut shield = PowShield::new(0); // difficulty 0: everything meets
        shield.replay_capacity = 4;
        let mut v = PowVerifier::new(&shield, 7);
        for key in 0..4u64 {
            assert_eq!(v.verify(0.0, 0, key, Some(key)), PowVerdict::Accepted);
        }
        assert_eq!(
            v.verify(0.0, 0, 99, Some(0)),
            PowVerdict::Replayed,
            "a full window must reject rather than grow"
        );
    }

    #[test]
    fn window_roll_forgets_old_digests_eventually() {
        let mut v = verifier(0);
        assert_eq!(v.verify(0.0, 0, 1, Some(7)), PowVerdict::Accepted);
        // Far future: both sets cleared, same digest solves against a new
        // nonce anyway; the old acceptance is forgotten.
        v.advance_to(10);
        assert!(v.seen_current.is_empty() && v.seen_previous.is_empty());
    }

    #[test]
    fn stored_nonces_equal_the_derived_ones_across_window_rolls() {
        // +1 steps (the swap path), multi-window jumps (both nonces
        // re-derived), stale and repeated windows (no roll), and window
        // 0, which has no previous window.
        let mut v = verifier(4);
        let secret = v.secret;
        let derived = |w: u64| mix(&[secret, w, WINDOW_TAG]);
        let check = |v: &PowVerifier| {
            let now = v.current_window;
            let probes = [
                0,
                1,
                2,
                now.saturating_sub(2),
                now.saturating_sub(1),
                now,
                now.wrapping_add(1),
                now.wrapping_add(2),
                u64::MAX,
            ];
            for w in probes {
                assert_eq!(v.server_nonce(w), derived(w), "window {w} at window {now}");
            }
        };
        check(&v);
        for window in [
            0,
            1,
            2,
            5,
            6,
            6,
            4,
            7,
            100,
            101,
            1_000,
            1_001,
            1_002,
            u64::MAX - 1,
            u64::MAX,
        ] {
            v.advance_to(window);
            check(&v);
        }
        assert_eq!(v.current_window, u64::MAX);
    }

    #[test]
    fn deterministic_across_verifiers_with_same_seed() {
        let a = verifier(6);
        let b = verifier(6);
        assert_eq!(a.server_nonce(3), b.server_nonce(3));
        assert_ne!(a.server_nonce(3), a.server_nonce(4));
    }

    #[test]
    fn verdicts_do_not_depend_on_the_replay_set_hasher() {
        // Replay sets are probed and sized, never iterated: keyed by two
        // different seeds they must return the same verdict sequence —
        // accepts, replays, bad work and fail-closed rejections of a full
        // window alike, across window rolls.
        let mut shield = PowShield::new(3);
        shield.replay_capacity = 40;
        let verdicts = |hasher_seed: u64| {
            let secret = mix(&[9, SECRET_TAG]);
            let mut v =
                PowVerifier::with_hasher(&shield, secret, FastBuildHasher::new(hasher_seed));
            let mut out = Vec::new();
            for i in 0..600u64 {
                let now = i as f64 / 150.0; // four windows
                let key = i % 50;
                let nonce = solve_from(v.server_nonce(v.window_at(now)), 1, key, 3, i % 7).0;
                let proof = match i % 5 {
                    0 => None,
                    1 => Some(nonce ^ 1),
                    _ => Some(nonce),
                };
                out.push(v.verify(now, 1, key, proof));
            }
            out
        };
        let a = verdicts(1);
        assert_eq!(a, verdicts(2));
        for kind in [
            PowVerdict::Accepted,
            PowVerdict::Replayed,
            PowVerdict::Missing,
        ] {
            assert!(a.contains(&kind), "stream never produced {kind:?}");
        }
    }

    #[test]
    fn expected_attempts_scale_with_difficulty() {
        // Mean attempts over keys ≈ 2^d; a loose band guards the knob's
        // meaning (work factor) without flaking.
        let v = verifier(6);
        let nonce_seed = v.server_nonce(0);
        let total: u64 = (0..200u64).map(|key| solve(nonce_seed, 0, key, 6).1).sum();
        let mean = total as f64 / 200.0;
        assert!(
            mean > 16.0 && mean < 256.0,
            "difficulty 6 should cost ~64 attempts, measured {mean}"
        );
    }
}
