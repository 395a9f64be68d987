//! Closed-loop multi-threaded load generation and the threaded serving
//! pipeline.
//!
//! Thread layout for a run over `S = sim.nodes` shards and `K` clients:
//!
//! ```text
//!  K client threads ──▶ K lock-free SPSC batch rings
//!                 ◀──── K freelist rings (recycled buffers)
//!                              │ round-robin sweep
//!                       admission thread
//!                  cache → route → r_i bucket → batch
//!                              │
//!              S bounded SPSC queues (1 per shard)
//!                              │
//!               S run-to-completion shard workers
//! ```
//!
//! There is no lock anywhere on the hot path: each client owns one
//! [`crate::batch_ring`] intake pair (one atomic acquire/release per
//! *batch*, buffers recycled through the freelist so the steady state
//! allocates nothing per query), the admission thread sweeps the rings
//! round-robin, and every idle wait is a bounded
//! [`spin-then-park`](crate::backoff::Backoff) ladder instead of a
//! `Condvar`. All cross-thread counters are
//! [cache-line-padded](crate::pad::CachePadded).
//!
//! Clients are **closed-loop**: each keeps at most `client_window`
//! requests outstanding, gated on a per-client completion counter that
//! the admission stage bumps for front-end completions (hits, sheds,
//! unserved) and workers bump for processed requests. Backpressure is
//! end-to-end: a full shard queue first stalls dispatch (bounded
//! retries), then sheds; a full intake ring stalls its client; a slow
//! admission stage stalls clients through their windows.
//!
//! Shutdown is graceful by construction: each client closes its intake
//! after its last send (drop closes too, so a panicking client cannot
//! wedge the sweep), the admission thread exits only when every intake
//! is closed *and* drained, and it then pushes a
//! `ShardMsg::Stop` marker *after* the last batch of
//! each shard queue — FIFO order guarantees workers drain everything
//! ahead of it. [`crate::report::ServeReport::is_drained`] cross-checks
//! with per-shard work checksums.

use crate::backoff::Backoff;
use crate::batch_ring::{intake_channel, BatchReceiver, BatchSender};
use crate::clock::Stopwatch;
use crate::config::{Result, ServeConfig, ServeError};
use crate::engine::{work_token, Admission, Request, ShardMsg, WorkerStats};
use crate::pad::CachePadded;
use crate::spsc::{self, Consumer, Producer};
use scp_workload::rng::mix;
use scp_workload::stream::QueryStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Padded per-client completion counters (padding keeps one client's
/// acknowledgement traffic off its neighbours' cache lines).
type Completions = [CachePadded<AtomicU64>];

/// Batches the admission sweep pulls per intake ring per visit: enough
/// to amortize the sweep, small enough to keep the round-robin fair.
const SWEEP_BATCHES: usize = 16;

/// Messages a shard worker pulls per ring sweep (one atomic pair for
/// the whole sweep via the batch-amortized pop).
const WORKER_POP: usize = 8;

/// Acknowledges one request back to its submitting client.
fn complete(completions: &Completions, client: u32) {
    complete_many(completions, client, 1);
}

/// Acknowledges `count` requests of one client in a single atomic bump.
fn complete_many(completions: &Completions, client: u32, count: u64) {
    if count == 0 {
        return;
    }
    if let Some(counter) = completions.get(client as usize) {
        // ORDERING: Release pairs with the client's Acquire load so the
        // completed requests' effects are visible before the count is.
        counter.fetch_add(count, Ordering::Release);
    }
}

/// Acknowledges a processed shard batch, coalescing same-client runs
/// into one atomic bump each (shard batches interleave clients, but
/// arrivals come in client bursts, so runs are common).
fn complete_batch(completions: &Completions, batch: &[Request]) {
    let mut run: Option<(u32, u64)> = None;
    for req in batch {
        run = match run {
            Some((client, count)) if client == req.client => Some((client, count + 1)),
            Some((client, count)) => {
                complete_many(completions, client, count);
                Some((req.client, 1))
            }
            None => Some((req.client, 1)),
        };
    }
    if let Some((client, count)) = run {
        complete_many(completions, client, count);
    }
}

/// Claims up to `want` queries from the shared submission quota.
fn claim_quota(quota: &AtomicU64, want: u64) -> u64 {
    // ORDERING: Relaxed is enough for the optimistic first read; the
    // compare-exchange below revalidates it.
    // DETERMINISM: the Relaxed read is only an optimistic hint — a stale
    // value costs one CAS retry; the claimed amount is decided by the
    // AcqRel compare-exchange, and the aggregate claimed total is the
    // fixed configured quota regardless of interleaving.
    let mut current = quota.load(Ordering::Relaxed);
    loop {
        if current == 0 {
            return 0;
        }
        let take = want.min(current);
        match quota.compare_exchange_weak(
            current,
            current - take,
            // ORDERING: AcqRel on success makes quota handoff a
            // synchronization point between competing clients.
            Ordering::AcqRel,
            // ORDERING: failure only refreshes `current` for the retry.
            Ordering::Relaxed,
        ) {
            Ok(_) => return take,
            Err(seen) => current = seen,
        }
    }
}

/// One closed-loop client: claim quota, wait for window room, solve the
/// proof-of-work challenge if configured, submit to its own intake ring.
///
/// `pow` carries the admission stage's published server nonce and the
/// difficulty target; it is `None` when the shield is off or this client
/// models an attacker that declines to work.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    id: u32,
    mut stream: QueryStream,
    cfg: &ServeConfig,
    quota: &AtomicU64,
    stop: &AtomicBool,
    completions: &Completions,
    mut intake: BatchSender<Request>,
    pow: Option<(&AtomicU64, u32)>,
    pow_attempts: &AtomicU64,
) {
    let window = cfg.client_window as u64;
    let mut submitted = 0u64;
    let mut backoff = Backoff::new();
    'run: loop {
        // ORDERING: Acquire pairs with the Release store in the stop
        // flag so everything before shutdown is visible here.
        if stop.load(Ordering::Acquire) {
            break;
        }
        let take = claim_quota(quota, cfg.submit_batch as u64);
        if take == 0 {
            break;
        }
        // Closed loop: back off until the window has room for the whole
        // claimed batch.
        backoff.reset();
        loop {
            // ORDERING: Acquire pairs with the stop flag's Release store.
            if stop.load(Ordering::Acquire) {
                // The batch was claimed but will never be submitted:
                // refund it or the run under-reports `submitted` against
                // the configured total with no accounting bucket.
                // ORDERING: AcqRel pairs with claim_quota's
                // compare-exchange so the refund is visible to any client
                // still claiming and to the final quota read after join.
                quota.fetch_add(take, Ordering::AcqRel);
                break 'run;
            }
            let done = completions
                .get(id as usize)
                // ORDERING: Acquire pairs with the Release increments in
                // `complete_many`.
                .map(|c| c.load(Ordering::Acquire))
                .unwrap_or(submitted);
            if submitted.saturating_sub(done) + take <= window {
                break;
            }
            backoff.snooze();
        }
        let mut batch = intake.buffer(cfg.submit_batch);
        for offset in 0..take {
            let key = stream.next_key();
            let pow = pow.map(|(published, difficulty)| {
                // ORDERING: Relaxed — the published nonce is
                // self-validating; a stale read is covered by the
                // verifier's one-window grace.
                // DETERMINISM: a stale nonce read changes which digest is
                // submitted, never whether it verifies — the one-window
                // grace accepts both the current and previous nonce, so
                // admission outcomes and report totals are unaffected.
                let server_nonce = published.load(Ordering::Relaxed);
                // A fresh scan start per request: re-solving the same
                // key must yield a new digest or the replay cache
                // would reject the honest repeat.
                let start = crate::pow::scan_start(id, submitted + offset);
                let (nonce, attempts) =
                    crate::pow::solve_from(server_nonce, id, key, difficulty, start);
                // ORDERING: Release pairs with the Acquire load after
                // join so every solver's attempts are visible in the
                // report total.
                pow_attempts.fetch_add(attempts, Ordering::Release);
                nonce
            });
            batch.push(Request {
                key,
                client: id,
                pow,
            });
        }
        // Submit; a full intake ring is backpressure from a slow
        // admission sweep, so back off and retry (refunding on stop).
        backoff.reset();
        let mut pending = batch;
        loop {
            match intake.send(pending) {
                Ok(()) => {
                    submitted += take;
                    break;
                }
                Err(back) => {
                    // ORDERING: Acquire pairs with the stop flag's
                    // Release store.
                    if stop.load(Ordering::Acquire) {
                        // Claimed and built but never submitted: refund,
                        // same as the window-wait stop above.
                        // ORDERING: AcqRel — see the refund above.
                        quota.fetch_add(take, Ordering::AcqRel);
                        break 'run;
                    }
                    pending = back;
                    backoff.snooze();
                }
            }
        }
    }
    intake.close();
}

/// One shard worker, run-to-completion: sweep up to [`WORKER_POP`]
/// messages off the queue per atomic pair, process them back-to-back,
/// back off only when the queue is empty, exit at the `Stop` marker.
fn worker_loop(mut rx: Consumer<ShardMsg>, completions: &Completions) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut backoff = Backoff::new();
    let mut msgs: Vec<ShardMsg> = Vec::with_capacity(WORKER_POP);
    loop {
        if rx.try_pop_many(WORKER_POP, &mut |m| msgs.push(m)) == 0 {
            backoff.snooze();
            continue;
        }
        backoff.reset();
        let mut stopped = false;
        for msg in msgs.drain(..) {
            match msg {
                ShardMsg::Batch(batch) => {
                    // `dispatch` folds its own copy of this sum before the
                    // hand-off: the two must meet across the ring.
                    stats.process(&batch);
                    complete_batch(completions, &batch);
                }
                // FIFO: Stop was pushed after the final batch, so
                // nothing can follow it — finish the sweep and exit.
                ShardMsg::Stop => stopped = true,
            }
        }
        if stopped {
            break;
        }
    }
    stats
}

/// Pushes one batch to its shard queue with bounded retries; a queue
/// that stays full sheds the whole batch as backpressure.
fn dispatch(
    cfg: &ServeConfig,
    admission: &mut Admission,
    producers: &mut [Producer<ShardMsg>],
    completions: &Completions,
    shard: usize,
    batch: Vec<Request>,
) {
    let count = batch.len() as u64;
    let checksum = batch
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(work_token(r.key)));
    let Some(tx) = producers.get_mut(shard) else {
        // Unreachable (one producer per shard), but shedding is the
        // conserved answer.
        admission.note_backpressure(shard, count);
        complete_batch(completions, &batch);
        return;
    };
    let mut msg = ShardMsg::Batch(batch);
    let mut attempts = 0u32;
    loop {
        match tx.try_push(msg) {
            Ok(()) => {
                admission.note_enqueued(shard, count, checksum);
                admission.note_depth(shard, tx.len());
                return;
            }
            Err(back) => {
                msg = back;
                attempts += 1;
                if attempts > cfg.push_retries {
                    break;
                }
                std::thread::yield_now();
            }
        }
    }
    if let ShardMsg::Batch(batch) = msg {
        admission.note_backpressure(shard, batch.len() as u64);
        complete_batch(completions, &batch);
    }
}

/// The admission thread: sweep the client intake rings round-robin
/// through the admission stage, dispatch full batches, enforce the
/// wall-clock budget, then flush and stop every shard. Returns
/// `(intake batches swept, buffers recycled to freelists)` for the
/// report's intake telemetry.
#[allow(clippy::too_many_arguments)]
fn admission_loop(
    cfg: &ServeConfig,
    admission: &mut Admission,
    producers: &mut [Producer<ShardMsg>],
    completions: &Completions,
    intakes: &mut [BatchReceiver<Request>],
    stop: &AtomicBool,
    stopwatch: &Stopwatch,
) -> (u64, u64) {
    let budget_secs = cfg.duration_ms as f64 / 1000.0;
    let mut intake_batches = 0u64;
    let mut intake_recycled = 0u64;
    let mut swept: Vec<Vec<Request>> = Vec::with_capacity(SWEEP_BATCHES);
    let mut ready: Vec<(usize, Vec<Request>)> = Vec::new();
    let mut backoff = Backoff::new();
    loop {
        if cfg.duration_ms > 0
            // ORDERING: Acquire pairs with the Release store below (and
            // any other setter) so the deadline fires exactly once.
            && !stop.load(Ordering::Acquire)
            && stopwatch.elapsed_secs() >= budget_secs
        {
            // ORDERING: Release publishes the shutdown decision to the
            // clients' Acquire loads.
            stop.store(true, Ordering::Release);
        }
        let mut progressed = false;
        for rx in intakes.iter_mut() {
            if rx.drain(SWEEP_BATCHES, &mut |batch| swept.push(batch)) == 0 {
                continue;
            }
            progressed = true;
            for batch in swept.drain(..) {
                intake_batches += 1;
                // Intake batches are single-client, so the front-end
                // completions of the whole batch collapse into one bump.
                let client = batch.first().map_or(0, |req| req.client);
                let completed = admission.admit_batch(&batch, &mut ready);
                complete_many(completions, client, completed);
                // An epoch change may have displaced buffered requests
                // of *other* clients; acknowledge them or their
                // closed-loop windows would stall forever.
                for displaced in admission.drain_migrated() {
                    complete(completions, displaced.client);
                }
                for (shard, full) in ready.drain(..) {
                    dispatch(cfg, admission, producers, completions, shard, full);
                }
                intake_recycled += u64::from(rx.recycle(batch));
            }
        }
        if progressed {
            backoff.reset();
            continue;
        }
        if intakes.iter().all(BatchReceiver::is_drained) {
            break;
        }
        backoff.snooze();
    }
    for (shard, batch) in admission.flush_all() {
        dispatch(cfg, admission, producers, completions, shard, batch);
    }
    for tx in producers.iter_mut() {
        let mut msg = ShardMsg::Stop;
        // Workers are actively draining, so this terminates; a batch is
        // never given up on here.
        while let Err(back) = tx.try_push(msg) {
            msg = back;
            std::thread::yield_now();
        }
    }
    (intake_batches, intake_recycled)
}

fn join_thread<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> Result<T> {
    handle.join().map_err(|payload| {
        let text = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        ServeError::WorkerPanic(text)
    })
}

/// Runs the full threaded pipeline: closed-loop clients, one admission
/// thread, `sim.nodes` shard workers over bounded SPSC queues.
///
/// The run stops when the query quota is exhausted, the wall-clock
/// budget elapses, or both; every queue is then drained gracefully (see
/// the module docs). Per-shard *results* (which queries shed, which
/// shard served what) are driven by logical time and the admission
/// order; thread scheduling only affects wall-clock metadata and the
/// interleaving of client streams.
///
/// # Errors
///
/// Returns an error on invalid configuration or a panicked engine
/// thread.
pub fn run_threaded(cfg: &ServeConfig) -> Result<crate::report::ServeReport> {
    cfg.validate()?;
    if cfg.client_window < cfg.submit_batch {
        return Err(ServeError::InvalidConfig {
            field: "client_window",
            reason: format!(
                "window {} cannot fit a submit batch of {}",
                cfg.client_window, cfg.submit_batch
            ),
        });
    }
    let stopwatch = Stopwatch::started();
    let mapping = cfg.sim.key_mapping()?;
    let mut admission = Admission::new(cfg, &mapping)?;
    // One queue + worker per shard *slot* of the largest scheduled
    // epoch: a join mid-run then starts routing to an already-running
    // (idle until now) worker, no thread churn at the boundary.
    let shards = admission.shard_slots();

    let mut producers: Vec<Producer<ShardMsg>> = Vec::with_capacity(shards);
    let mut consumers: Vec<Consumer<ShardMsg>> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = spsc::channel(cfg.queue_capacity);
        producers.push(tx);
        consumers.push(rx);
    }

    let mut streams = Vec::with_capacity(cfg.clients);
    for client in 0..cfg.clients {
        streams.push(QueryStream::with_mapping(
            &cfg.sim.pattern,
            mix(&[cfg.sim.seed, 4, client as u64 + 1]),
            mapping.clone(),
        )?);
    }

    let mut senders: Vec<BatchSender<Request>> = Vec::with_capacity(cfg.clients);
    let mut receivers: Vec<BatchReceiver<Request>> = Vec::with_capacity(cfg.clients);
    for _ in 0..cfg.clients {
        let (tx, rx) = intake_channel(cfg.intake_depth);
        senders.push(tx);
        receivers.push(rx);
    }

    let completions: Vec<CachePadded<AtomicU64>> = (0..cfg.clients)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let pow_handle = admission.pow_handle();
    let pow_attempts = CachePadded::new(AtomicU64::new(0));
    let stop = CachePadded::new(AtomicBool::new(false));
    let quota = CachePadded::new(AtomicU64::new(if cfg.total_queries > 0 {
        cfg.total_queries
    } else {
        u64::MAX
    }));

    let workers = std::thread::scope(|scope| -> Result<(Vec<WorkerStats>, (u64, u64))> {
        let completions = &completions;
        let stop = &stop;
        let quota = &quota;
        let pow_handle = &pow_handle;
        let pow_attempts = &pow_attempts;

        let worker_handles: Vec<_> = consumers
            .into_iter()
            .map(|rx| scope.spawn(move || worker_loop(rx, completions)))
            .collect();
        let client_handles: Vec<_> = streams
            .into_iter()
            .zip(senders)
            .enumerate()
            .map(|(id, (stream, intake))| {
                let attacker = id < cfg.attack_clients;
                let id = u32::try_from(id).unwrap_or(u32::MAX);
                let pow = pow_handle.as_ref().and_then(|(published, difficulty)| {
                    if attacker {
                        None
                    } else {
                        Some((published.as_ref(), *difficulty))
                    }
                });
                scope.spawn(move || {
                    client_loop(
                        id,
                        stream,
                        cfg,
                        quota,
                        stop,
                        completions,
                        intake,
                        pow,
                        pow_attempts,
                    )
                })
            })
            .collect();

        let intake = admission_loop(
            cfg,
            &mut admission,
            &mut producers,
            completions,
            &mut receivers,
            stop,
            &stopwatch,
        );

        for handle in client_handles {
            join_thread(handle)?;
        }
        let mut stats = Vec::with_capacity(shards);
        for handle in worker_handles {
            stats.push(join_thread(handle)?);
        }
        Ok((stats, intake))
    })?;
    let (workers, (intake_batches, intake_recycled)) = workers;

    let mut stats = admission.into_stats();
    stats.intake_batches = intake_batches;
    stats.intake_recycled = intake_recycled;
    if cfg.total_queries > 0 {
        // ORDERING: Acquire pairs with the clients' AcqRel refunds and
        // claims; every client has joined, so this is the final balance.
        stats.quota_unclaimed = quota.load(Ordering::Acquire);
    }
    // ORDERING: Acquire pairs with the solvers' Release fetch_adds so
    // the report total carries every attempt, not just the ones the
    // join's synchronization happened to flush.
    stats.pow_attempts += pow_attempts.load(Ordering::Acquire);

    Ok(crate::report::ServeReport::assemble(
        stats,
        &workers,
        stopwatch.elapsed_secs(),
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp_sim::SimConfig;

    fn cfg(shards: usize, queries: u64) -> ServeConfig {
        let sim = SimConfig::builder()
            .nodes(shards)
            .replication(3)
            .items(50_000)
            .cache_capacity(100)
            .attack_x(101)
            .rate(1e5)
            .seed(2013)
            .build()
            .unwrap();
        let mut cfg = ServeConfig::new(sim);
        cfg.total_queries = queries;
        cfg.clients = 3;
        cfg
    }

    #[test]
    fn threaded_run_conserves_and_drains() {
        let report = run_threaded(&cfg(8, 120_000)).unwrap();
        assert_eq!(report.submitted, 120_000);
        assert!(report.is_conserved(), "exact conservation: {report:?}");
        assert!(report.is_drained(), "graceful drain lost requests");
        assert_eq!(report.served() + report.shed() + report.unserved, 120_000);
        assert!(!report.deterministic);
        // Intake telemetry: every submitted query arrived in some swept
        // batch, and the recycled count can at most trail the sweep by
        // the freelists' total fill depth.
        assert!(report.intake_batches > 0, "sweep count not recorded");
        assert!(report.intake_recycled <= report.intake_batches);
    }

    #[test]
    fn threaded_quota_is_exact_across_clients() {
        // Quota not divisible by clients × submit_batch: the atomic
        // claim still hands out exactly the quota.
        let report = run_threaded(&cfg(4, 10_007)).unwrap();
        assert_eq!(report.submitted, 10_007);
        assert!(report.is_conserved());
    }

    #[test]
    fn duration_budget_stops_an_unbounded_run() {
        let mut c = cfg(4, 0);
        c.duration_ms = 50;
        let report = run_threaded(&c).unwrap();
        assert!(report.submitted > 0, "should serve something in 50ms");
        assert!(report.is_conserved());
        assert!(report.is_drained());
    }

    #[test]
    fn tiny_queues_shed_backpressure_but_conserve() {
        let mut c = cfg(3, 80_000);
        // Few shards, small batches, one-batch queues: admission
        // outpaces drain often enough to exercise the retry/shed path.
        c.queue_capacity = 1;
        c.batch_size = 8;
        c.push_retries = 0;
        let report = run_threaded(&c).unwrap();
        assert!(report.is_conserved());
        assert!(report.is_drained());
    }

    #[test]
    fn shallow_intake_rings_backpressure_but_conserve() {
        // A one-batch intake ring forces the client into its send-retry
        // path constantly; nothing may be lost or double-counted.
        let mut c = cfg(3, 60_000);
        c.intake_depth = 1;
        c.submit_batch = 16;
        let report = run_threaded(&c).unwrap();
        assert_eq!(report.submitted, 60_000);
        assert!(report.is_conserved());
        assert!(report.is_drained());
    }

    #[test]
    fn rejects_window_smaller_than_submit_batch() {
        let mut c = cfg(4, 1000);
        c.client_window = 8;
        c.submit_batch = 64;
        assert!(run_threaded(&c).is_err());
    }

    #[test]
    fn early_stop_refunds_claimed_quota_exactly() {
        // Regression: a client that claimed a batch and then observed
        // the stop flag used to drop its claim on the floor, so
        // submitted + quota_unclaimed fell short of total_queries.
        // A short duration budget against a huge quota forces the stop
        // to land between claim and submit on some thread eventually.
        for attempt in 0..4u64 {
            let mut c = cfg(3, 50_000_000);
            c.duration_ms = 25 + attempt * 10;
            c.queue_capacity = 2;
            c.batch_size = 8;
            let report = run_threaded(&c).unwrap();
            assert!(report.submitted < 50_000_000, "run must stop early");
            assert_eq!(
                report.submitted + report.quota_unclaimed,
                50_000_000,
                "claimed-but-unsubmitted quota must be refunded"
            );
            assert!(report.is_conserved());
            assert!(report.is_drained());
        }
    }

    #[test]
    fn pow_shield_rejects_attackers_and_passes_legit_threaded() {
        let mut c = cfg(4, 40_000);
        c.pow = Some(crate::pow::PowShield::new(4));
        c.attack_clients = 1; // client 0 never attaches work
        let report = run_threaded(&c).unwrap();
        assert!(report.is_conserved());
        assert!(report.is_drained());
        assert_eq!(
            report.attack.pow_rejected, report.attack.submitted,
            "workless attacker traffic must be rejected wholesale"
        );
        assert_eq!(
            report.legit.pow_rejected, 0,
            "honest solvers must never be rejected: {report:?}"
        );
        assert_eq!(
            report.legit.submitted + report.attack.submitted,
            report.submitted
        );
        assert_eq!(report.pow_rejected, report.attack.pow_rejected);
        assert!(
            report.pow_attempts >= report.legit.submitted,
            "every honest request costs at least one hash attempt"
        );
    }

    #[test]
    fn threaded_mid_traffic_join_and_leave_conserve_and_drain() {
        use crate::config::MembershipEvent;
        // The acceptance case: a node joins and another leaves while
        // closed-loop clients are mid-traffic. Every displaced in-flight
        // query lands in the migrated class and is acknowledged back to
        // its client, so windows never stall and the integer ledger
        // still balances exactly.
        let sim = SimConfig::builder()
            .nodes(8)
            .replication(3)
            .items(50_000)
            .cache_capacity(100)
            .attack_x(10_000) // x ≫ c: misses reach every shard, joiner included
            .rate(1e5)
            .seed(2013)
            .build()
            .unwrap();
        let mut c = ServeConfig::new(sim);
        c.total_queries = 120_000;
        c.clients = 3;
        c.batch_size = 128;
        c.membership = vec![
            "30000:join:8".parse::<MembershipEvent>().unwrap(),
            "70000:leave:1".parse::<MembershipEvent>().unwrap(),
        ];
        let report = run_threaded(&c).unwrap();
        assert_eq!(report.submitted, 120_000);
        assert_eq!(report.reshards, 2, "both epochs must apply mid-run");
        assert_eq!(report.epoch, 2);
        assert_eq!(report.shards.len(), 9, "pre-sized to the joiner's bound");
        assert!(
            report.is_conserved(),
            "conservation with migration: {report:?}"
        );
        assert!(report.is_drained(), "reshard must not strand requests");
        assert!(
            report.shards[8].processed > 0,
            "the joining shard must serve traffic after its epoch"
        );
    }

    #[test]
    fn capacity_shedding_engages_under_attack() {
        // The one uncached key's replicas receive at least R/(x·d), so
        // n > h·x·d (50 > 1.2 · 11 · 3) guarantees the excess over
        // r_i = h·R/n is shed.
        let sim = SimConfig::builder()
            .nodes(50)
            .replication(3)
            .items(50_000)
            .cache_capacity(10)
            .attack_x(11)
            .rate(1e5)
            .seed(2013)
            .build()
            .unwrap();
        let mut c = ServeConfig::new(sim);
        c.total_queries = 200_000;
        c.clients = 3;
        c.capacity_headroom = 1.2;
        let report = run_threaded(&c).unwrap();
        assert!(
            report.shed_capacity() > 0,
            "x = c + 1 attack must drive hot shards past r_i"
        );
        assert!(report.is_conserved());
        assert!(report.is_drained());
    }

    #[test]
    fn completion_batching_acks_mixed_client_runs_exactly() {
        let completions: Vec<CachePadded<AtomicU64>> = (0..3)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        let req = |client| Request {
            key: 1,
            client,
            pow: None,
        };
        complete_batch(
            &completions,
            &[req(0), req(0), req(1), req(0), req(2), req(2)],
        );
        let counts: Vec<u64> = completions
            .iter()
            // ORDERING: Relaxed — single-threaded test readback.
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        assert_eq!(counts, vec![3, 1, 2]);
    }
}
