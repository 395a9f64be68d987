//! A deterministic bounded interleaving explorer — a dependency-free
//! "mini-loom" — for the serve path's lock-free SPSC ring.
//!
//! [`scp_serve::spsc::RingCore`] is generic over its memory substrate
//! ([`AtomicWord`] counters and [`SlotCell`] element slots). Production
//! instantiates it with `std` atomics; this module instantiates the *same
//! algorithm* with instrumented shims and exhaustively explores bounded
//! producer/consumer schedules under a DFS scheduler. The code checked
//! here is byte-for-byte the code serving queries — there is no model
//! copy that could drift.
//!
//! # How it works
//!
//! Two persistent worker threads run fixed programs (`P` pushes of the
//! tokens `1..=P`, `C` pops) against one shared ring. Every atomic
//! load/store and every slot access parks the worker at a rendezvous; the
//! explorer thread grants exactly one access at a time, so a schedule is
//! the sequence of thread choices at each step. Depth-first search with
//! replay enumerates every choice sequence (up to an optional budget),
//! deterministically: no wall clock, no randomness, no dependence on OS
//! scheduling.
//!
//! The shims model the memory orderings the ring claims to need:
//!
//! * atomic values themselves are sequentially consistent (each load sees
//!   the latest store — the usual simplification for schedule explorers);
//! * every access ticks the acting thread's vector clock; a release store
//!   publishes the storer's clock with the value, an acquire load joins
//!   it — exactly the C11 release/acquire synchronizes-with edge;
//! * slot accesses are *non-atomic*: a `put`/`take` whose thread clock
//!   does not dominate the previous conflicting access's clock is a data
//!   race, and the schedule is reported as a violation.
//!
//! That last rule is what makes ordering bugs observable on any host
//! architecture: weakening the producer's `Release` publication of `tail`
//! to `Relaxed` (the [`Config::weaken_tail_release`] fault injection)
//! leaves the consumer's acquire load with nothing to join, so the first
//! schedule in which the consumer takes a pushed slot is flagged as a
//! race. The regression test below asserts the explorer *fails* on that
//! weakening — if it ever stops failing, the explorer has lost its teeth.
//!
//! After each schedule the explorer drains the ring sequentially and
//! checks the full-run invariants: FIFO (pops observe accepted tokens in
//! push order), conservation (every accepted token is popped or drained —
//! nothing lost, nothing duplicated), and no lost wakeups (an item
//! published before the drain is always visible to it).

use scp_serve::spsc::{AtomicWord, RingCore, SlotCell};
use std::cell::Cell;
use std::sync::atomic::Ordering;
#[expect(
    clippy::disallowed_types,
    reason = "the explorer models a scheduler with a real lock/condvar pair"
)]
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Model thread count: one producer, one consumer.
const THREADS: usize = 2;
const PRODUCER: usize = 0;
const CONSUMER: usize = 1;

/// Atomic variable ids inside the model.
const HEAD: usize = 0;
const TAIL: usize = 1;

thread_local! {
    /// Which model thread the current OS thread is acting as (`None` on
    /// the explorer thread, whose accesses run in free-run mode).
    static CURRENT_TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// One bounded exploration: ring capacity, program lengths, an optional
/// schedule budget, and an optional fault injection.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring capacity in slots (0 rounds up to 1, as in production).
    pub capacity: usize,
    /// Producer program: `try_push` calls with tokens `1..=pushes`.
    pub pushes: usize,
    /// Consumer program: `try_pop` calls.
    pub pops: usize,
    /// `Some(max)` switches the consumer program to the batch-amortized
    /// pop: each of its `pops` calls is a `try_pop_many_core(max, ..)`
    /// sweep (the serve intake's drain path) instead of a scalar
    /// `try_pop_core`. `None` keeps the scalar program.
    pub consumer_batch: Option<usize>,
    /// Stop after this many schedules (`None` = run to exhaustion).
    pub budget: Option<usize>,
    /// Fault injection: demote the producer's `Release` store of `tail`
    /// to `Relaxed` inside the shim. The ring under test is unchanged —
    /// only the modeled ordering weakens — and the explorer must then
    /// find a data race.
    pub weaken_tail_release: bool,
    /// Fault injection: demote the consumer's `Release` store of `head`
    /// to `Relaxed` — the batch half of the protocol, where one store
    /// frees a whole sweep of slots for producer reuse. The explorer
    /// must catch the producer's unordered overwrite of a recycled slot.
    pub weaken_head_release: bool,
}

/// What one exploration covered and whether it found a violation.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Distinct schedules fully executed.
    pub schedules: usize,
    /// Total scheduled accesses across all schedules.
    pub steps: u64,
    /// Longest single schedule, in accesses.
    pub max_depth: usize,
    /// First violated property, if any (a data race or a broken queue
    /// invariant), with the schedule that produced it.
    pub violation: Option<String>,
}

/// A vector clock over the two model threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Clock([u64; THREADS]);

impl Clock {
    fn tick(&mut self, tid: usize) {
        if let Some(c) = self.0.get_mut(tid) {
            *c += 1;
        }
    }

    fn join(&mut self, other: &Clock) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Pointwise `self >= other`: everything `other` saw happened before
    /// the state `self` describes.
    fn dominates(&self, other: &Clock) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(m, t)| m >= t)
    }
}

/// One modeled atomic word: an SC value plus the message clock its latest
/// store published (empty unless the store was a release).
#[derive(Debug, Default)]
struct AtomState {
    value: u64,
    msg: Clock,
}

/// One modeled element slot: the stored token plus the epoch of the last
/// conflicting (mutating) access, for race detection.
#[derive(Debug, Clone, Default)]
struct SlotModel {
    value: Option<u64>,
    last_access: Option<(usize, Clock)>,
}

/// All shared state: scheduler control, the memory model, and per-replay
/// program outcomes. Owned by one mutex so every transition is a plain
/// sequential update.
#[derive(Debug, Default)]
struct Model {
    epoch: u64,
    shutdown: bool,
    granted: Option<usize>,
    parked: [bool; THREADS],
    done: [bool; THREADS],
    free_run: bool,
    clocks: [Clock; THREADS],
    atoms: [AtomState; 2],
    slots: Vec<SlotModel>,
    race: Option<String>,
    accepted: Vec<u64>,
    popped: Vec<u64>,
    weaken_tail_release: bool,
    weaken_head_release: bool,
}

#[expect(
    clippy::disallowed_types,
    reason = "the explorer models a scheduler with a real lock/condvar pair"
)]
struct Ctl {
    state: Mutex<Model>,
    cv: Condvar,
}

fn lock(ctl: &Ctl) -> MutexGuard<'_, Model> {
    ctl.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a>(ctl: &'a Ctl, guard: MutexGuard<'a, Model>) -> MutexGuard<'a, Model> {
    ctl.cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The rendezvous every shim access goes through. Worker threads park
/// here until the explorer grants them the step; the access itself then
/// runs under the model lock. The explorer thread (no model tid) and
/// free-run mode execute immediately without scheduling.
fn access<R>(ctl: &Ctl, f: impl FnOnce(&mut Model, Option<usize>) -> R) -> R {
    let tid = CURRENT_TID.with(Cell::get);
    let mut m = lock(ctl);
    let Some(t) = tid.filter(|_| !m.free_run) else {
        return f(&mut m, None);
    };
    if let Some(p) = m.parked.get_mut(t) {
        *p = true;
    }
    ctl.cv.notify_all();
    while m.granted != Some(t) {
        m = wait(ctl, m);
    }
    if let Some(p) = m.parked.get_mut(t) {
        *p = false;
    }
    m.granted = None;
    if let Some(c) = m.clocks.get_mut(t) {
        c.tick(t);
    }
    let out = f(&mut m, Some(t));
    ctl.cv.notify_all();
    out
}

fn acquireish(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn releaseish(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// The instrumented counter handed to [`RingCore`].
struct ShimAtomic {
    ctl: Arc<Ctl>,
    var: usize,
}

impl AtomicWord for ShimAtomic {
    fn load(&self, order: Ordering) -> u64 {
        access(&self.ctl, |m, tid| {
            let (value, msg) = match m.atoms.get(self.var) {
                Some(a) => (a.value, a.msg.clone()),
                None => (0, Clock::default()),
            };
            if acquireish(order) {
                if let Some(c) = tid.and_then(|t| m.clocks.get_mut(t)) {
                    c.join(&msg);
                }
            }
            value
        })
    }

    fn store(&self, val: u64, order: Ordering) {
        access(&self.ctl, |m, tid| {
            let weakened = (m.weaken_tail_release && self.var == TAIL)
                || (m.weaken_head_release && self.var == HEAD);
            let publish = releaseish(order) && !weakened;
            let msg = match tid.filter(|_| publish) {
                Some(t) => m.clocks.get(t).cloned().unwrap_or_default(),
                None => Clock::default(),
            };
            if let Some(a) = m.atoms.get_mut(self.var) {
                a.value = val;
                a.msg = msg;
            }
        });
    }
}

/// The instrumented slot handed to [`RingCore`]. The token lives inside
/// the model, so both the memory effect and the race bookkeeping are one
/// locked update.
struct ShimSlot {
    ctl: Arc<Ctl>,
    idx: usize,
}

impl Default for ShimSlot {
    // Only exists to satisfy `from_parts`'s empty-`slots` fallback bound;
    // the explorer always passes a non-empty slot vector.
    #[expect(
        clippy::disallowed_types,
        reason = "the explorer models a scheduler with a real lock/condvar pair"
    )]
    fn default() -> Self {
        Self {
            ctl: Arc::new(Ctl {
                state: Mutex::new(Model::default()),
                cv: Condvar::new(),
            }),
            idx: 0,
        }
    }
}

impl SlotCell<u64> for ShimSlot {
    // SAFETY: the shim performs no unsafe operation; the contract is the
    // trait's sole-accessor precondition, which the race detector checks.
    unsafe fn put(&self, item: u64) {
        access(&self.ctl, |m, tid| {
            slot_access(m, self.idx, tid, Some(item))
        });
    }

    // SAFETY: as for `put` — fully safe shim, checked precondition.
    unsafe fn take(&self) -> Option<u64> {
        access(&self.ctl, |m, tid| slot_access(m, self.idx, tid, None))
    }
}

/// Executes one slot mutation (`Some` = put, `None` = take), flagging it
/// as a data race unless the acting thread's clock dominates the previous
/// conflicting access.
fn slot_access(m: &mut Model, idx: usize, tid: Option<usize>, put: Option<u64>) -> Option<u64> {
    if let Some(t) = tid {
        let ordered = match m.slots.get(idx).and_then(|s| s.last_access.as_ref()) {
            Some((prev, prev_clock)) if *prev != t => {
                m.clocks.get(t).is_some_and(|c| c.dominates(prev_clock))
            }
            _ => true,
        };
        if !ordered && m.race.is_none() {
            let kind = if put.is_some() { "put" } else { "take" };
            m.race = Some(format!(
                "slot {idx}: thread {t}'s {kind} is unordered against the previous access"
            ));
        }
    }
    let clock = tid.and_then(|t| m.clocks.get(t).cloned());
    let slot = m.slots.get_mut(idx)?;
    let out = match put {
        Some(v) => {
            slot.value = Some(v);
            None
        }
        None => slot.value.take(),
    };
    if let (Some(t), Some(c)) = (tid, clock) {
        slot.last_access = Some((t, c));
    }
    out
}

type ShimRing = RingCore<u64, ShimAtomic, ShimSlot>;

/// Producer program: waits for each replay epoch, pushes `1..=pushes`,
/// records the accepted tokens, and signals completion.
fn producer_loop(ctl: &Arc<Ctl>, ring: &Arc<ShimRing>, pushes: u64) {
    CURRENT_TID.with(|c| c.set(Some(PRODUCER)));
    let mut epoch_seen = 0u64;
    loop {
        {
            let mut m = lock(ctl);
            while m.epoch == epoch_seen && !m.shutdown {
                m = wait(ctl, m);
            }
            if m.shutdown {
                return;
            }
            epoch_seen = m.epoch;
        }
        let mut accepted = Vec::new();
        for token in 1..=pushes {
            if ring.try_push_core(token).is_ok() {
                accepted.push(token);
            }
        }
        let mut m = lock(ctl);
        m.accepted = accepted;
        if let Some(d) = m.done.get_mut(PRODUCER) {
            *d = true;
        }
        ctl.cv.notify_all();
    }
}

/// Consumer program: waits for each replay epoch, attempts `pops` pop
/// calls (scalar, or batch-amortized sweeps of up to `batch` elements
/// when configured), records the observed tokens, and signals completion.
fn consumer_loop(ctl: &Arc<Ctl>, ring: &Arc<ShimRing>, pops: u64, batch: Option<usize>) {
    CURRENT_TID.with(|c| c.set(Some(CONSUMER)));
    let mut epoch_seen = 0u64;
    loop {
        {
            let mut m = lock(ctl);
            while m.epoch == epoch_seen && !m.shutdown {
                m = wait(ctl, m);
            }
            if m.shutdown {
                return;
            }
            epoch_seen = m.epoch;
        }
        let mut popped = Vec::new();
        for _ in 0..pops {
            match batch {
                Some(max) => {
                    ring.try_pop_many_core(max, &mut |token| popped.push(token));
                }
                None => {
                    if let Some(token) = ring.try_pop_core() {
                        popped.push(token);
                    }
                }
            }
        }
        let mut m = lock(ctl);
        m.popped = popped;
        if let Some(d) = m.done.get_mut(CONSUMER) {
            *d = true;
        }
        ctl.cv.notify_all();
    }
}

/// Exhaustively explores every interleaving of the configured producer
/// and consumer programs (depth-first, deterministic), up to the optional
/// schedule budget, and reports coverage plus the first violation found.
///
/// The exploration runs a violating schedule's remaining steps to the end
/// (the programs always terminate), so a violation never wedges the
/// worker threads; it stops launching *new* schedules once one is found.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the explorer sequences its shim threads with a real lock/condvar pair"
)]
pub fn explore(cfg: &Config) -> Stats {
    let capacity = cfg.capacity.max(1);
    let ctl = Arc::new(Ctl {
        state: Mutex::new(Model {
            slots: vec![SlotModel::default(); capacity],
            weaken_tail_release: cfg.weaken_tail_release,
            weaken_head_release: cfg.weaken_head_release,
            ..Model::default()
        }),
        cv: Condvar::new(),
    });
    let ring = Arc::new(ShimRing::from_parts(
        ShimAtomic {
            ctl: Arc::clone(&ctl),
            var: HEAD,
        },
        ShimAtomic {
            ctl: Arc::clone(&ctl),
            var: TAIL,
        },
        (0..capacity)
            .map(|idx| ShimSlot {
                ctl: Arc::clone(&ctl),
                idx,
            })
            .collect(),
    ));

    let producer = {
        let (ctl, ring) = (Arc::clone(&ctl), Arc::clone(&ring));
        let pushes = cfg.pushes as u64;
        std::thread::spawn(move || producer_loop(&ctl, &ring, pushes))
    };
    let consumer = {
        let (ctl, ring) = (Arc::clone(&ctl), Arc::clone(&ring));
        let pops = cfg.pops as u64;
        let batch = cfg.consumer_batch;
        std::thread::spawn(move || consumer_loop(&ctl, &ring, pops, batch))
    };

    let mut stats = Stats::default();
    // DFS over schedules: each entry is (choice index, enabled count) at
    // that step. Backtracking bumps the deepest non-exhausted choice.
    let mut prefix: Vec<(usize, usize)> = Vec::new();
    'search: loop {
        reset_replay(&ctl, capacity, cfg);
        let depth = run_one_schedule(&ctl, &mut prefix, &mut stats);
        stats.schedules += 1;
        stats.max_depth = stats.max_depth.max(depth);
        if let Some(v) = check_replay(&ctl, &ring) {
            stats.violation = Some(format!("schedule {:?}: {v}", choices(&prefix)));
            break;
        }
        if cfg.budget.is_some_and(|b| stats.schedules >= b) {
            break;
        }
        loop {
            match prefix.pop() {
                None => break 'search,
                Some((c, n)) if c + 1 < n => {
                    prefix.push((c + 1, n));
                    break;
                }
                Some(_) => {}
            }
        }
    }

    {
        let mut m = lock(&ctl);
        m.shutdown = true;
        ctl.cv.notify_all();
    }
    let _ = producer.join();
    let _ = consumer.join();
    stats
}

/// The thread choices of a schedule prefix, for violation reports.
fn choices(prefix: &[(usize, usize)]) -> Vec<usize> {
    prefix.iter().map(|&(c, _)| c).collect()
}

/// Rearms the model for the next replay and releases the workers.
fn reset_replay(ctl: &Ctl, capacity: usize, cfg: &Config) {
    let mut m = lock(ctl);
    m.epoch += 1;
    m.granted = None;
    m.parked = [false; THREADS];
    m.done = [false; THREADS];
    m.free_run = false;
    m.clocks = <[Clock; THREADS]>::default();
    m.atoms = <[AtomState; 2]>::default();
    m.slots = vec![SlotModel::default(); capacity];
    m.race = None;
    m.accepted = Vec::new();
    m.popped = Vec::new();
    m.weaken_tail_release = cfg.weaken_tail_release;
    m.weaken_head_release = cfg.weaken_head_release;
    ctl.cv.notify_all();
}

/// Runs one replay to completion, following `prefix` and extending it
/// greedily (first enabled thread) past its end. Returns the depth.
fn run_one_schedule(ctl: &Ctl, prefix: &mut Vec<(usize, usize)>, stats: &mut Stats) -> usize {
    let mut step = 0usize;
    loop {
        let mut m = lock(ctl);
        // Every live worker settles at its next rendezvous (or finishes);
        // only then is the enabled set well defined.
        while !(0..THREADS).all(|t| flag(&m.done, t) || flag(&m.parked, t)) {
            m = wait(ctl, m);
        }
        let enabled: Vec<usize> = (0..THREADS)
            .filter(|&t| flag(&m.parked, t) && !flag(&m.done, t))
            .collect();
        if enabled.is_empty() {
            return step;
        }
        let choice = match prefix.get(step) {
            Some(&(c, _)) => c,
            None => {
                prefix.push((0, enabled.len()));
                0
            }
        };
        let Some(&tid) = enabled.get(choice) else {
            // Unreachable for a deterministic system: a replayed prefix
            // always sees the same enabled sets. Ending the schedule is
            // the safe answer.
            return step;
        };
        m.granted = Some(tid);
        ctl.cv.notify_all();
        while m.granted.is_some() || !(flag(&m.parked, tid) || flag(&m.done, tid)) {
            m = wait(ctl, m);
        }
        step += 1;
        stats.steps += 1;
    }
}

fn flag(flags: &[bool; THREADS], tid: usize) -> bool {
    flags.get(tid).copied().unwrap_or(true)
}

/// Post-schedule verification: no data race, and after a sequential
/// free-run drain the consumer-side observations equal the accepted
/// tokens in push order (FIFO + conservation + no lost items).
fn check_replay(ctl: &Ctl, ring: &ShimRing) -> Option<String> {
    let (accepted, popped, race) = {
        let mut m = lock(ctl);
        m.free_run = true;
        (m.accepted.clone(), m.popped.clone(), m.race.clone())
    };
    if let Some(r) = race {
        return Some(format!("data race: {r}"));
    }
    let mut observed = popped;
    let limit = accepted.len() + 1;
    for _ in 0..limit {
        match ring.try_pop_core() {
            Some(token) => observed.push(token),
            None => break,
        }
    }
    if observed != accepted {
        return Some(format!(
            "queue invariant broken: accepted {accepted:?} but observed {observed:?}"
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: usize, pushes: usize, pops: usize) -> Config {
        Config {
            capacity,
            pushes,
            pops,
            consumer_batch: None,
            budget: None,
            weaken_tail_release: false,
            weaken_head_release: false,
        }
    }

    #[test]
    fn exhaustive_small_config_is_clean_and_deterministic() {
        let a = explore(&cfg(1, 2, 2));
        assert_eq!(a.violation, None, "correct ring must verify clean");
        assert!(a.schedules > 100, "too few schedules: {}", a.schedules);
        let b = explore(&cfg(1, 2, 2));
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.max_depth, b.max_depth);
    }

    #[test]
    fn explorer_covers_ten_thousand_schedules() {
        let mut total = 0usize;
        for c in [
            cfg(1, 2, 2),
            Config {
                budget: Some(6000),
                ..cfg(2, 3, 3)
            },
            Config {
                budget: Some(6000),
                ..cfg(3, 4, 4)
            },
        ] {
            let stats = explore(&c);
            assert_eq!(
                stats.violation, None,
                "correct ring must verify clean under {c:?}"
            );
            assert!(stats.max_depth >= 4);
            total += stats.schedules;
        }
        assert!(total >= 10_000, "only {total} schedules explored");
    }

    #[test]
    fn batched_consumer_is_clean_across_twelve_thousand_schedules() {
        // The batch-amortized pop (`try_pop_many_core`) is the serve
        // intake's drain path; explore it over wraparound-forcing shapes
        // (capacity < pushes) so sweeps cross the index fold.
        let mut total = 0usize;
        for c in [
            Config {
                consumer_batch: Some(2),
                ..cfg(1, 2, 2)
            },
            Config {
                consumer_batch: Some(2),
                budget: Some(8000),
                ..cfg(2, 4, 3)
            },
            Config {
                consumer_batch: Some(3),
                budget: Some(8000),
                ..cfg(3, 4, 2)
            },
        ] {
            let stats = explore(&c);
            assert_eq!(
                stats.violation, None,
                "correct batch core must verify clean under {c:?}"
            );
            total += stats.schedules;
        }
        assert!(total >= 12_000, "only {total} schedules explored");
        // Determinism of the batched program, like the scalar one.
        let a = explore(&Config {
            consumer_batch: Some(2),
            ..cfg(1, 2, 2)
        });
        let b = explore(&Config {
            consumer_batch: Some(2),
            ..cfg(1, 2, 2)
        });
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn weakening_the_tail_release_is_caught() {
        // The production ring's `tail` publication is a Release store;
        // this run models it as Relaxed instead. The explorer must find
        // the resulting data race — this is the regression test that the
        // explorer can actually see ordering bugs.
        let stats = explore(&Config {
            weaken_tail_release: true,
            ..cfg(1, 2, 2)
        });
        let v = stats.violation.expect("weakened ordering must be caught");
        assert!(v.contains("data race"), "unexpected violation: {v}");
    }

    #[test]
    fn weakening_the_batched_head_release_is_caught() {
        // The batch pop frees a whole sweep of slots with one Release
        // store of `head`; this run models that store as Relaxed. With
        // capacity 1 and two pushes the producer must reuse slot 0, and
        // without the head edge its overwrite is unordered against the
        // consumer's take — the explorer must flag the race.
        let stats = explore(&Config {
            consumer_batch: Some(1),
            weaken_head_release: true,
            ..cfg(1, 2, 2)
        });
        let v = stats
            .violation
            .expect("weakened head ordering must be caught");
        assert!(v.contains("data race"), "unexpected violation: {v}");
    }

    #[test]
    fn budget_caps_the_search() {
        let stats = explore(&Config {
            budget: Some(5),
            ..cfg(2, 3, 3)
        });
        assert_eq!(stats.schedules, 5);
        assert_eq!(stats.violation, None);
    }

    /// Not a check — prints per-config coverage for the experiment log.
    /// Run with `cargo test -p scp-analyze interleave -- --ignored --nocapture`.
    #[test]
    #[ignore = "diagnostic probe, run manually"]
    fn print_state_space_sizes() {
        for c in [cfg(1, 2, 2), cfg(2, 3, 3), cfg(3, 4, 4)] {
            let c = Config {
                budget: Some(60_000),
                ..c
            };
            let stats = explore(&c);
            println!(
                "capacity={} pushes={} pops={}: {} schedules, {} steps, max depth {}",
                c.capacity, c.pushes, c.pops, stats.schedules, stats.steps, stats.max_depth
            );
        }
    }

    #[test]
    fn single_sided_programs_terminate() {
        let push_only = explore(&cfg(2, 3, 0));
        assert_eq!(push_only.violation, None);
        assert_eq!(push_only.schedules, 1, "one thread has one schedule");
        let pop_only = explore(&cfg(2, 0, 3));
        assert_eq!(pop_only.violation, None);
        assert_eq!(pop_only.schedules, 1);
    }
}
