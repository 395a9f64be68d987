//! The serving core: admission, capacity accounting, and the
//! deterministic single-threaded mode.
//!
//! Every query passes through the same **admission stage** in both modes:
//! the proof-of-work shield (when configured), one step of the
//! simulation engines' [`FrontEnd`] (the provisioned cache absorbs hits,
//! misses are routed by partitioner + replica selector), the target
//! shard's token bucket enforcing its provisioned capacity `r_i`, and
//! per-shard batching. The deterministic mode then processes batches
//! inline on the calling thread; the threaded mode (see
//! [`crate::loadgen`]) pushes them over SPSC queues to shard workers.
//!
//! # Logical time
//!
//! Capacity is enforced against **logical arrival time**: the `k`-th
//! admitted query arrives at `k / R` seconds, where `R` is the configured
//! offered rate. Token buckets refill on that clock, so whether a shard
//! sheds is a pure function of the arrival sequence — the same on a
//! loaded laptop and an idle server, and identical between the
//! deterministic and threaded modes for the same admission order.

use crate::config::{MembershipEvent, Result, ServeConfig, ServeError};
use crate::pow::{PowVerdict, PowVerifier};
use scp_cluster::{KeyId, NodeId, Topology};
use scp_sim::front_end::{FrontEnd, Served};
use scp_sim::multi_frontend::FrontendRouting;
use scp_sim::SimError;
use scp_workload::permute::KeyMapping;
use scp_workload::rng::mix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One query in flight: the key and the submitting client's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The queried key id.
    pub key: u64,
    /// Index of the submitting load-generator client.
    pub client: u32,
    /// Proof-of-work nonce attached by the client (`None` when the
    /// shield is off or the client declined to solve).
    pub pow: Option<u64>,
}

/// What travels over a shard queue.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// A batch of admitted requests for this shard.
    Batch(Vec<Request>),
    /// Graceful shutdown: drain everything before this, then exit.
    Stop,
}

/// The per-request "work" a shard performs; folding these into a checksum
/// keeps the processing loop honest (nothing for the optimizer to delete)
/// and lets reports prove queues lost nothing in transit.
pub(crate) fn work_token(key: u64) -> u64 {
    mix(&[key, 0x1BAD_B002])
}

/// A token bucket enforcing a shard's provisioned rate `r_i` against
/// logical time.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/second, holding at most
    /// `burst` (floored at one so a unit request can ever pass).
    pub fn new(rate: f64, burst: f64) -> Self {
        let burst = burst.max(1.0);
        Self {
            rate: rate.max(0.0),
            burst,
            tokens: burst,
            last: 0.0,
        }
    }

    /// Refills for the logical time elapsed since the last call, then
    /// tries to take one token. `false` means the caller should shed.
    pub fn try_take(&mut self, now: f64) -> bool {
        if now > self.last {
            self.tokens = (self.tokens + (now - self.last) * self.rate).min(self.burst);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Re-provisions the bucket for a new per-shard rate (a topology
    /// epoch changed `r_i = h·R/n`). Accumulated tokens survive, clamped
    /// to the new burst, and the refill clock is untouched.
    pub fn set_rate(&mut self, rate: f64, burst: f64) {
        self.rate = rate.max(0.0);
        self.burst = burst.max(1.0);
        self.tokens = self.tokens.min(self.burst);
    }
}

/// Admission-side counters, all exact integers so conservation can be
/// checked without tolerances.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AdmitStats {
    /// Queries that entered admission.
    pub submitted: u64,
    /// Served by the front-end cache.
    pub hits: u64,
    /// Whole replica group down.
    pub unserved: u64,
    /// Per-shard: routed to the shard (before capacity enforcement).
    pub routed: Vec<u64>,
    /// Per-shard: dropped by the shard's token bucket.
    pub shed_capacity: Vec<u64>,
    /// Per-shard: dropped because the shard queue stayed full.
    pub shed_backpressure: Vec<u64>,
    /// Per-shard: handed to a worker (or processed inline).
    pub enqueued: Vec<u64>,
    /// Per-shard: checksum of everything handed to a worker.
    pub expected_checksum: Vec<u64>,
    /// Per-shard histogram of queue depth (in batches) observed at each
    /// successful dispatch; index = depth, clamped to the last bucket.
    pub depth_hist: Vec<Vec<u64>>,
    /// Rejected by the proof-of-work shield (a completion class of its
    /// own in the conservation law).
    pub pow_rejected: u64,
    /// Total hash attempts clients spent solving proofs (the measurable
    /// work factor; expected `2^difficulty` per accepted query).
    pub pow_attempts: u64,
    /// Counters for clients modeling legitimate traffic.
    pub legit: LaneStats,
    /// Counters for clients modeling the attacker fleet.
    pub attack: LaneStats,
    /// Attack gain (`n · max routed / total routed`) per logical
    /// gain-tracking window, in window order.
    pub window_gains: Vec<f64>,
    /// Admission-filter rejections reported by the cache policy.
    pub cache_rejections: u64,
    /// Frequency-sketch halving resets reported by the cache policy.
    pub sketch_resets: u64,
    /// Quota claimed by clients but refunded on early stop (threaded
    /// mode; makes `submitted + quota_unclaimed == total_queries` exact).
    pub quota_unclaimed: u64,
    /// Batches the admission sweep pulled off client intake rings
    /// (threaded mode; zero in deterministic replay, which has no rings).
    pub intake_batches: u64,
    /// Swept intake buffers returned to a client freelist for reuse —
    /// the zero-allocation steady state is `intake_recycled` tracking
    /// `intake_batches` minus the freelist's fill depth.
    pub intake_recycled: u64,
    /// In-flight queries rerouted off a shard that lost their key at an
    /// epoch boundary — their own completion class in the conservation
    /// law, exactly like `pow_rejected`.
    pub migrated: u64,
    /// Topology epochs applied mid-run.
    pub reshards: u64,
    /// The topology epoch at the end of the run.
    pub epoch: u64,
}

/// Per-traffic-class admission counters (legitimate vs modeled-attacker
/// clients, split by the configured `attack_clients` prefix).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Queries from this class that entered admission.
    pub submitted: u64,
    /// Front-end cache hits for this class.
    pub hits: u64,
    /// Queries from this class rejected by the proof-of-work shield.
    pub pow_rejected: u64,
}

impl AdmitStats {
    fn sized(shards: usize, queue_capacity: usize) -> Self {
        Self {
            routed: vec![0; shards],
            shed_capacity: vec![0; shards],
            shed_backpressure: vec![0; shards],
            enqueued: vec![0; shards],
            expected_checksum: vec![0; shards],
            depth_hist: vec![vec![0; queue_capacity + 1]; shards],
            ..Self::default()
        }
    }

    /// The counters of the attacker lane or the legitimate one.
    fn lane(&mut self, attack: bool) -> &mut LaneStats {
        if attack {
            &mut self.attack
        } else {
            &mut self.legit
        }
    }
}

fn bump(counters: &mut [u64], shard: usize) {
    if let Some(c) = counters.get_mut(shard) {
        *c += 1;
    }
}

/// The admission stage: shield, front end (cache → route), capacity,
/// batching.
///
/// Owned by exactly one thread (the calling thread in deterministic
/// mode, the admission thread in threaded mode); nothing here is shared.
pub(crate) struct Admission {
    /// The simulation engines' front end: one cache, by-client routing.
    front: FrontEnd,
    buckets: Option<Vec<TokenBucket>>,
    pending: Vec<Vec<Request>>,
    batch_size: usize,
    inv_rate: f64,
    pow: Option<PowVerifier>,
    /// The current window's server nonce, published for threaded
    /// clients (rspow's `GetNonce`, as one atomic word).
    pow_publish: Arc<AtomicU64>,
    attack_clients: usize,
    gain_window_secs: f64,
    gain_window_index: u64,
    window_routed: Vec<u64>,
    /// The current topology epoch; membership events mutate it in place.
    topology: Topology,
    /// Scheduled membership events, ordered by `at_query`.
    schedule: Vec<MembershipEvent>,
    next_event: usize,
    /// Provisioning inputs needed to re-derive `r_i` after an epoch
    /// change (`r_i = headroom · R / n`, `n` = current member count).
    headroom: f64,
    /// In-flight requests displaced by the latest reshard, waiting for
    /// the driver to acknowledge them (see [`Admission::drain_migrated`]).
    migrated_out: Vec<Request>,
    pub stats: AdmitStats,
}

impl Admission {
    /// Builds the stage for `cfg` around the query engine's front end,
    /// whose perfect cache is seeded with the top-`c` keys of `mapping`.
    pub fn new(cfg: &ServeConfig, mapping: &KeyMapping) -> Result<Self> {
        // Pre-size every per-shard vector to the largest index bound any
        // scheduled epoch reaches: a mid-run join then only flips state,
        // never reallocates (and the threaded mode can pre-spawn its
        // workers and queues once).
        let (_, shards) = cfg.replay_topology()?;
        let topology = Topology::with_nodes(cfg.sim.nodes).map_err(SimError::from)?;
        let front = FrontEnd::new(&cfg.sim, mapping, 1, FrontendRouting::ByClient)?;
        let buckets = cfg.shard_capacity().map(|r| {
            let burst = (r * 0.01).max(8.0);
            (0..shards).map(|_| TokenBucket::new(r, burst)).collect()
        });
        let pow = cfg
            .pow
            .as_ref()
            .map(|shield| PowVerifier::new(shield, cfg.sim.seed));
        let initial_nonce = pow.as_ref().map_or(0, |p| p.server_nonce(0));
        Ok(Self {
            front,
            buckets,
            pending: (0..shards)
                .map(|_| Vec::with_capacity(cfg.batch_size))
                .collect(),
            batch_size: cfg.batch_size,
            inv_rate: 1.0 / cfg.sim.rate,
            pow,
            pow_publish: Arc::new(AtomicU64::new(initial_nonce)),
            attack_clients: cfg.attack_clients,
            gain_window_secs: cfg.gain_window_secs,
            gain_window_index: 0,
            window_routed: vec![0; shards],
            topology,
            schedule: cfg.membership.clone(),
            next_event: 0,
            headroom: cfg.capacity_headroom,
            migrated_out: Vec::with_capacity(0),
            stats: AdmitStats::sized(shards, cfg.queue_capacity),
        })
    }

    /// Number of shard slots the stage is provisioned for (the largest
    /// index bound across all scheduled epochs).
    pub fn shard_slots(&self) -> usize {
        self.pending.len()
    }

    /// Handle for threaded clients to fetch the live server nonce plus
    /// the difficulty target; `None` when the shield is off.
    pub fn pow_handle(&self) -> Option<(Arc<AtomicU64>, u32)> {
        self.pow
            .as_ref()
            .map(|p| (Arc::clone(&self.pow_publish), p.difficulty()))
    }

    /// Deterministic-mode client helper: solve the proof the shield will
    /// demand for the arrival `offset` positions past the current
    /// submitted count. The deterministic driver pre-solves a whole
    /// client batch before admitting it; the shield's challenge is a pure
    /// function of the arrival index, so pre-solving yields exactly the
    /// nonces a solve-one-admit-one loop would. Returns `None` for
    /// attacker clients (they decline to work) and when the shield is
    /// off; hash attempts are accumulated into
    /// [`AdmitStats::pow_attempts`].
    pub fn solve_at(&mut self, client: u32, key: u64, offset: u64) -> Option<u64> {
        let pow = self.pow.as_ref()?;
        if (client as usize) < self.attack_clients {
            return None;
        }
        let at = self.stats.submitted + offset;
        let now = at as f64 * self.inv_rate;
        let server_nonce = pow.server_nonce(pow.window_at(now));
        let start = crate::pow::scan_start(client, at);
        let (nonce, attempts) =
            crate::pow::solve_from(server_nonce, client, key, pow.difficulty(), start);
        self.stats.pow_attempts += attempts;
        Some(nonce)
    }

    /// Rolls the proof-of-work nonce window and the gain-tracking window
    /// forward to logical time `now`.
    fn roll_windows(&mut self, now: f64) {
        if let Some(pow) = &mut self.pow {
            let window = pow.window_at(now);
            if pow.advance_to(window) {
                let nonce = pow.server_nonce(window);
                // ORDERING: Relaxed — the published nonce is
                // self-validating (a client holding the previous one is
                // covered by the verifier's one-window grace), so nothing
                // else needs to be ordered with this store.
                self.pow_publish.store(nonce, Ordering::Relaxed);
            }
        }
        if self.gain_window_secs > 0.0 {
            let index = (now / self.gain_window_secs) as u64;
            if index != self.gain_window_index {
                self.finish_gain_window();
                self.gain_window_index = index;
            }
        }
    }

    /// Closes the current gain window: records `n · max / total` over
    /// the window's routed counts, then zeroes them.
    fn finish_gain_window(&mut self) {
        let total: u64 = self.window_routed.iter().sum();
        if total == 0 {
            return;
        }
        let max = self.window_routed.iter().copied().max().unwrap_or(0);
        let shards = self.window_routed.len() as f64;
        self.stats
            .window_gains
            .push(max as f64 * shards / total as f64);
        for count in &mut self.window_routed {
            *count = 0;
        }
    }

    /// Applies every membership event due at the current submitted
    /// count: mutate the topology, reshard the cluster, re-provision the
    /// token buckets for the new member count, and reroute in-flight
    /// (batched but not yet dispatched) requests whose shard lost their
    /// key — those complete as `migrated`, their own class in the
    /// conservation law.
    fn apply_membership(&mut self) {
        while let Some(event) = self.schedule.get(self.next_event) {
            if event.at_query > self.stats.submitted {
                break;
            }
            let event = *event;
            self.next_event += 1;
            // Config validation replayed the whole schedule, so failures
            // are unreachable; skipping keeps the run conserved anyway.
            if event.change.apply(&mut self.topology).is_err() {
                continue;
            }
            if self.front.cluster_mut().reshard(&self.topology).is_err() {
                continue;
            }
            self.stats.reshards += 1;
            self.stats.epoch = self.topology.epoch();
            self.reprovision_buckets();
            self.reroute_pending();
        }
    }

    /// Re-derives `r_i = headroom · R / n` for the current member count
    /// and applies it to every bucket slot (slots of non-members are
    /// inert — routing never reaches them).
    fn reprovision_buckets(&mut self) {
        let Some(buckets) = &mut self.buckets else {
            return;
        };
        let n = self.topology.len();
        if self.headroom <= 0.0 || n == 0 {
            return;
        }
        let r = self.headroom / (self.inv_rate * n as f64);
        let burst = (r * 0.01).max(8.0);
        for bucket in buckets.iter_mut() {
            bucket.set_rate(r, burst);
        }
    }

    /// Drains-and-reroutes in-flight queries across the epoch boundary:
    /// a buffered request stays with its shard while that shard is still
    /// in the key's replica group (the data is still there); otherwise
    /// it is displaced into `migrated_out` and counted `migrated`.
    fn reroute_pending(&mut self) {
        let cluster = self.front.cluster();
        let migrated = &mut self.migrated_out;
        let mut displaced = 0u64;
        for (shard, buf) in self.pending.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let node = NodeId::from_index(shard);
            buf.retain(|req| {
                if cluster.replica_group(KeyId::new(req.key)).contains(node) {
                    true
                } else {
                    migrated.push(*req);
                    displaced += 1;
                    false
                }
            });
        }
        self.stats.migrated += displaced;
    }

    /// Requests displaced by epoch changes since the last call; the
    /// driver must acknowledge each to its submitting client (they are
    /// already counted in [`AdmitStats::migrated`]).
    pub fn drain_migrated(&mut self) -> Vec<Request> {
        std::mem::take(&mut self.migrated_out)
    }

    /// Admits one client batch request by request, pushing any filled
    /// shard batches into `ready` and returning how many requests
    /// finished at the front end (hits, sheds, unserved, shield
    /// rejections) — the caller owes that many acknowledgements to the
    /// batch's submitting client. Intake batches are single-client by
    /// construction, so one acknowledgement count covers the whole batch.
    ///
    /// Where a stream is cut into batches changes nothing observable:
    /// deterministic replay cuts at `submit_batch`, the threaded sweep
    /// at whatever a client had queued, and both must agree.
    pub fn admit_batch(&mut self, reqs: &[Request], ready: &mut Vec<(usize, Vec<Request>)>) -> u64 {
        let mut completed = 0u64;
        for req in reqs {
            completed += u64::from(self.admit(*req, ready));
        }
        completed
    }

    /// Pushes one request through shield → cache → routing → capacity →
    /// batching. Returns `true` if it finished at the front end, `false`
    /// if it was buffered toward a shard (a batch it filled goes to
    /// `ready`).
    fn admit(&mut self, req: Request, ready: &mut Vec<(usize, Vec<Request>)>) -> bool {
        if self.next_event < self.schedule.len() {
            self.apply_membership();
        }
        let now = self.stats.submitted as f64 * self.inv_rate;
        self.roll_windows(now);
        self.stats.submitted += 1;
        let attack = (req.client as usize) < self.attack_clients;
        self.stats.lane(attack).submitted += 1;

        if let Some(pow) = &mut self.pow {
            if pow.verify(now, req.client, req.key, req.pow) != PowVerdict::Accepted {
                self.stats.pow_rejected += 1;
                self.stats.lane(attack).pow_rejected += 1;
                return true;
            }
        }

        let shard = match self.front.step(req.key, 1.0) {
            Served::Hit => {
                self.stats.hits += 1;
                self.stats.lane(attack).hits += 1;
                return true;
            }
            Served::Unserved => {
                self.stats.unserved += 1;
                return true;
            }
            Served::Routed(node) => node.index(),
        };
        let Some(buf) = self.pending.get_mut(shard) else {
            // Unreachable (the cluster only returns indices < n), but an
            // unserved count is a safe, conserved answer.
            self.stats.unserved += 1;
            return true;
        };
        bump(&mut self.stats.routed, shard);
        bump(&mut self.window_routed, shard);
        if let Some(buckets) = &mut self.buckets {
            if let Some(bucket) = buckets.get_mut(shard) {
                if !bucket.try_take(now) {
                    bump(&mut self.stats.shed_capacity, shard);
                    return true;
                }
            }
        }
        buf.push(req);
        if buf.len() >= self.batch_size {
            ready.push((shard, std::mem::take(buf)));
        }
        false
    }

    /// Drains every non-empty partial batch (shutdown path).
    pub fn flush_all(&mut self) -> Vec<(usize, Vec<Request>)> {
        let mut out = Vec::new();
        for (shard, buf) in self.pending.iter_mut().enumerate() {
            if !buf.is_empty() {
                out.push((shard, std::mem::take(buf)));
            }
        }
        out
    }

    /// Records a batch as successfully handed to its shard (dispatch
    /// succeeded, or the deterministic mode processed it inline).
    pub fn note_enqueued(&mut self, shard: usize, count: u64, checksum: u64) {
        if let Some(c) = self.stats.enqueued.get_mut(shard) {
            *c += count;
        }
        if let Some(c) = self.stats.expected_checksum.get_mut(shard) {
            *c = c.wrapping_add(checksum);
        }
    }

    /// Records a batch dropped because the shard queue stayed full.
    pub fn note_backpressure(&mut self, shard: usize, count: u64) {
        if let Some(c) = self.stats.shed_backpressure.get_mut(shard) {
            *c += count;
        }
    }

    /// Records the observed queue depth (in batches) after a dispatch.
    pub fn note_depth(&mut self, shard: usize, depth: usize) {
        if let Some(hist) = self.stats.depth_hist.get_mut(shard) {
            let slot = depth.min(hist.len().saturating_sub(1));
            if let Some(c) = hist.get_mut(slot) {
                *c += 1;
            }
        }
    }

    /// Consumes the stage, yielding its counters (closing the final gain
    /// window and folding in the cache policy's telemetry).
    pub fn into_stats(mut self) -> AdmitStats {
        self.finish_gain_window();
        if let Some(cache) = self.front.caches().first() {
            self.stats.cache_rejections = cache.stats().rejections();
            self.stats.sketch_resets = cache.sketch_resets();
        }
        self.stats
    }
}

/// What one shard worker did (also produced by the inline processor in
/// deterministic mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkerStats {
    /// Requests fully processed.
    pub processed: u64,
    /// Batches consumed.
    pub batches: u64,
    /// Fold of [`work_token`] over every processed key.
    pub checksum: u64,
}

impl WorkerStats {
    /// Processes one batch, acknowledging nobody (the caller owns
    /// completion accounting). Returns the batch's fold of
    /// [`work_token`].
    pub fn process(&mut self, batch: &[Request]) -> u64 {
        self.batches += 1;
        let sum = batch
            .iter()
            .fold(0u64, |acc, r| acc.wrapping_add(work_token(r.key)));
        self.checksum = self.checksum.wrapping_add(sum);
        self.processed += batch.len() as u64;
        sum
    }
}

/// Runs the engine single-threaded and bit-reproducibly: one stream,
/// inline batch processing, no queues and no wall-clock influence on any
/// counter. The stream is [`scp_sim::SimConfig::query_stream`] and the
/// front end the query engine's, so with the shield, the token buckets
/// and membership off, the run routes exactly the queries
/// `run_query_simulation` does on the same [`scp_sim::SimConfig`].
///
/// # Errors
///
/// Returns an error on invalid configuration or a missing query quota
/// (`total_queries == 0`; the deterministic mode has no other stopping
/// criterion).
pub fn run_deterministic(cfg: &ServeConfig) -> Result<crate::report::ServeReport> {
    cfg.validate()?;
    if cfg.total_queries == 0 {
        return Err(ServeError::InvalidConfig {
            field: "total_queries",
            reason: "deterministic mode stops on the query quota; set one".to_owned(),
        });
    }
    let stopwatch = crate::clock::Stopwatch::started();
    let mapping = cfg.sim.key_mapping()?;
    let mut admission = Admission::new(cfg, &mapping)?;
    let mut stream = cfg.sim.query_stream(mapping)?;
    let mut workers: Vec<WorkerStats> = vec![WorkerStats::default(); admission.shard_slots()];

    let process_inline = |admission: &mut Admission,
                          workers: &mut [WorkerStats],
                          shard: usize,
                          batch: Vec<Request>| {
        // One fold serves both sides of the conservation check: the
        // inline worker's checksum and the dispatch's expected one.
        let sum = workers.get_mut(shard).map_or(0, |w| w.process(&batch));
        admission.note_enqueued(shard, batch.len() as u64, sum);
        admission.note_depth(shard, 0);
    };

    // The deterministic mode drives the same batched admission path the
    // threaded intake uses: draw and pre-solve a client batch, admit it
    // in one call, process any filled shard batches inline.
    let batch = cfg.submit_batch.max(1);
    let mut reqs: Vec<Request> = Vec::with_capacity(batch);
    let mut ready: Vec<(usize, Vec<Request>)> = Vec::new();
    let mut remaining = cfg.total_queries;
    while remaining > 0 {
        let take = remaining.min(batch as u64);
        reqs.clear();
        for offset in 0..take {
            let key = stream.next_key();
            // The single deterministic client solves the shield's
            // challenge unless it is configured as the attacker
            // (attack_clients > 0).
            let pow = admission.solve_at(0, key, offset);
            reqs.push(Request {
                key,
                client: 0,
                pow,
            });
        }
        admission.admit_batch(&reqs, &mut ready);
        for (shard, full) in ready.drain(..) {
            process_inline(&mut admission, &mut workers, shard, full);
        }
        // Displaced in-flight requests are already counted `migrated`;
        // the deterministic mode has no client windows to acknowledge.
        admission.drain_migrated();
        remaining -= take;
    }
    for (shard, batch) in admission.flush_all() {
        process_inline(&mut admission, &mut workers, shard, batch);
    }

    Ok(crate::report::ServeReport::assemble(
        admission.into_stats(),
        &workers,
        stopwatch.elapsed_secs(),
        true,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp_sim::SimConfig;

    // With a perfect cache over x = c + 1 keys, only one key misses; its
    // replicas receive between R/(x·d) (even split) and R/x (sticky
    // selection), so n > h·x·d guarantees shedding under headroom h.
    fn small(headroom: f64, x: u64) -> ServeConfig {
        let sim = SimConfig::builder()
            .nodes(50)
            .replication(3)
            .items(20_000)
            .cache_capacity(10)
            .attack_x(x)
            .rate(1e4)
            .seed(42)
            .build()
            .unwrap();
        let mut cfg = ServeConfig::new(sim);
        cfg.capacity_headroom = headroom;
        cfg.total_queries = 50_000;
        cfg
    }

    #[test]
    fn token_bucket_enforces_rate() {
        let mut b = TokenBucket::new(10.0, 5.0);
        // Burst drains first.
        let burst: usize = (0..5).filter(|_| b.try_take(0.0)).count();
        assert_eq!(burst, 5);
        assert!(!b.try_take(0.0));
        // One second refills ten tokens (capped at burst = 5).
        let refilled: usize = (0..20).filter(|_| b.try_take(1.0)).count();
        assert_eq!(refilled, 5);
    }

    #[test]
    fn token_bucket_ignores_time_going_backwards() {
        let mut b = TokenBucket::new(10.0, 2.0);
        assert!(b.try_take(5.0));
        assert!(b.try_take(1.0), "stale timestamp must not panic or drain");
    }

    #[test]
    fn deterministic_run_conserves_and_drains() {
        let report = run_deterministic(&small(0.0, 11)).unwrap();
        assert_eq!(report.submitted, 50_000);
        assert!(report.is_conserved());
        assert!(report.is_drained());
        assert_eq!(report.shed_capacity(), 0);
        assert!(report.cache_hits > 0);
    }

    #[test]
    fn deterministic_run_is_reproducible() {
        let a = run_deterministic(&small(0.0, 11)).unwrap();
        let b = run_deterministic(&small(0.0, 11)).unwrap();
        assert_eq!(a.submitted, b.submitted);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(
            a.shards.iter().map(|s| s.routed).collect::<Vec<_>>(),
            b.shards.iter().map(|s| s.routed).collect::<Vec<_>>()
        );
        assert_eq!(
            a.shards.iter().map(|s| s.checksum).collect::<Vec<_>>(),
            b.shards.iter().map(|s| s.checksum).collect::<Vec<_>>()
        );
    }

    #[test]
    fn admit_batch_is_invariant_to_where_the_stream_is_cut() {
        // Deterministic replay cuts the stream at `submit_batch`, the
        // threaded sweep wherever a client's intake ring happened to be;
        // both rely on the cut changing nothing. The scenario fires
        // everything that could make it matter mid-batch: gain-window
        // rolls, membership events (with pending-buffer rerouting), token
        // buckets, and the shield with a modeled attacker lane.
        use crate::config::MembershipChange;
        let sim = SimConfig::builder()
            .nodes(12)
            .replication(3)
            .items(5_000)
            .cache_capacity(32)
            .attack_x(2_000) // x ≫ c: misses reach every shard
            .rate(1e3)
            .seed(77)
            .build()
            .unwrap();
        let mut cfg = ServeConfig::new(sim);
        cfg.capacity_headroom = 1.1;
        cfg.total_queries = 20_000;
        cfg.batch_size = 5;
        cfg.gain_window_secs = 0.93;
        cfg.pow = Some(crate::pow::PowShield::new(2));
        cfg.attack_clients = 1; // client 0 declines to solve
        cfg.membership = vec![
            MembershipEvent {
                at_query: 4_001,
                change: MembershipChange::Leave(3),
            },
            MembershipEvent {
                at_query: 9_003,
                change: MembershipChange::Join(12),
            },
            MembershipEvent {
                at_query: 13_007,
                change: MembershipChange::Crash(5),
            },
            MembershipEvent {
                at_query: 16_001,
                change: MembershipChange::Recover(5),
            },
        ];
        cfg.validate().unwrap();
        let total = cfg.total_queries;

        // Everything observable about one pass over the stream, cut
        // every `cut` requests.
        let run = |cut: u64| {
            let mapping = cfg.sim.key_mapping().unwrap();
            let mut admission = Admission::new(&cfg, &mapping).unwrap();
            let mut stream = cfg.sim.query_stream(mapping).unwrap();
            let mut ready: Vec<(usize, Vec<Request>)> = Vec::new();
            let mut completed = 0u64;
            let mut migrated: Vec<Request> = Vec::new();
            let mut reqs: Vec<Request> = Vec::new();
            let mut q = 0u64;
            while q < total {
                let take = (total - q).min(cut);
                reqs.clear();
                for offset in 0..take {
                    let key = stream.next_key();
                    let client = u32::from(!(q + offset).is_multiple_of(3)); // 1/3 attacker traffic
                    let pow = admission.solve_at(client, key, offset);
                    reqs.push(Request { key, client, pow });
                }
                completed += admission.admit_batch(&reqs, &mut ready);
                migrated.extend(admission.drain_migrated());
                q += take;
            }
            let flushed = admission.flush_all();
            (ready, completed, migrated, flushed, admission.into_stats())
        };

        let reference = run(1);
        let (_, completed, migrated, _, stats) = &reference;
        assert!(*completed > 0 && !migrated.is_empty() && stats.reshards == 4);
        assert!(stats.pow_rejected > 0 && stats.window_gains.len() > 10);
        assert!(stats.shed_capacity.iter().sum::<u64>() > 0);
        assert!(stats.routed.iter().all(|&r| r > 0), "every shard routed");
        for cut in [7, 64, total] {
            assert_eq!(run(cut), reference, "diverged at cut {cut}");
        }
    }

    #[test]
    fn overdriven_shard_sheds_instead_of_queueing() {
        // x = c + 1 concentrates every miss on one key; with headroom
        // below the resulting gain, its replica group must shed.
        let report = run_deterministic(&small(1.2, 11)).unwrap();
        assert!(report.shed_capacity() > 0, "attack must overflow r_i");
        assert!(report.is_conserved());
        assert!(report.is_drained());
    }

    #[test]
    fn ample_headroom_never_sheds() {
        // Headroom far above the attainable gain: capacity never binds.
        let report = run_deterministic(&small(1000.0, 11)).unwrap();
        assert_eq!(report.shed_capacity(), 0);
        assert!(report.is_conserved());
    }

    #[test]
    fn pow_shield_preserves_hits_when_clients_solve() {
        let base = run_deterministic(&small(0.0, 11)).unwrap();
        let mut cfg = small(0.0, 11);
        cfg.pow = Some(crate::pow::PowShield::new(4));
        let shielded = run_deterministic(&cfg).unwrap();
        // The single deterministic client solves every puzzle, so the
        // shield must be transparent to the admission outcome.
        assert_eq!(shielded.pow_rejected, 0);
        assert_eq!(shielded.cache_hits, base.cache_hits);
        assert_eq!(shielded.submitted, base.submitted);
        assert!(shielded.pow_attempts >= shielded.submitted);
        assert!(shielded.is_conserved());
    }

    #[test]
    fn pow_shield_rejects_workless_deterministic_attacker() {
        let mut cfg = small(0.0, 11);
        cfg.pow = Some(crate::pow::PowShield::new(4));
        cfg.attack_clients = 1; // the lone client 0 skips solving
        let report = run_deterministic(&cfg).unwrap();
        assert_eq!(report.pow_rejected, report.submitted);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.attack.pow_rejected, report.submitted);
        assert_eq!(report.legit.submitted, 0);
        assert_eq!(report.pow_attempts, 0, "no work was ever performed");
        assert!(report.is_conserved());
        assert!(report.is_drained());
    }

    #[test]
    fn pow_shield_runs_are_reproducible() {
        let mut cfg = small(0.0, 11);
        cfg.pow = Some(crate::pow::PowShield::new(6));
        let a = run_deterministic(&cfg).unwrap();
        let b = run_deterministic(&cfg).unwrap();
        assert_eq!(a.pow_attempts, b.pow_attempts);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(
            a.shards.iter().map(|s| s.checksum).collect::<Vec<_>>(),
            b.shards.iter().map(|s| s.checksum).collect::<Vec<_>>()
        );
    }

    #[test]
    fn per_window_gain_telemetry_tracks_the_attack() {
        let mut cfg = small(0.0, 11);
        cfg.gain_window_secs = 0.5;
        let report = run_deterministic(&cfg).unwrap();
        assert!(
            !report.window_gains.is_empty(),
            "a 5-second run at 0.5s windows must log windows"
        );
        for g in &report.window_gains {
            assert!(*g >= 1.0, "per-window gain below uniform: {g}");
        }
    }

    #[test]
    fn mid_run_join_and_leave_reshard_conserves_and_drains() {
        use crate::config::MembershipEvent;
        let sim = SimConfig::builder()
            .nodes(20)
            .replication(3)
            .items(20_000)
            .cache_capacity(10)
            .attack_x(2_000) // x ≫ c: misses spread across every shard
            .rate(1e4)
            .partitioner(scp_sim::config::PartitionerKind::MultiProbe)
            .seed(42)
            .build()
            .unwrap();
        let mut cfg = ServeConfig::new(sim);
        cfg.total_queries = 50_000;
        cfg.capacity_headroom = 2.0; // exercise bucket re-provisioning
        cfg.batch_size = 256; // keep in-flight buffers full across epochs
        cfg.membership = vec![
            "10000:join:20".parse::<MembershipEvent>().unwrap(),
            "30000:leave:2".parse::<MembershipEvent>().unwrap(),
        ];
        let report = run_deterministic(&cfg).unwrap();
        assert_eq!(report.reshards, 2, "both scheduled epochs must apply");
        assert_eq!(report.epoch, 2);
        assert_eq!(report.shards.len(), 21, "pre-sized to the joiner's bound");
        assert!(
            report.is_conserved(),
            "conservation with migrated class: {report:?}"
        );
        assert!(report.is_drained());
        assert!(
            report.migrated > 0,
            "a leave with full buffers must displace in-flight queries"
        );
        let joiner = &report.shards[20];
        assert!(
            joiner.processed > 0,
            "the joiner must serve after its epoch"
        );
        // The leaver took no new work after departing: everything it was
        // handed drained (is_drained above) and nothing else arrives, so
        // its routed count is strictly below a surviving shard's share.
        let leaver_routed = report.shards[2].routed;
        let max_routed = report.shards.iter().map(|s| s.routed).max().unwrap_or(0);
        assert!(
            leaver_routed < max_routed,
            "leaver kept absorbing load after departure"
        );
    }

    #[test]
    fn crash_and_recover_keep_placement_and_conserve() {
        use crate::config::MembershipEvent;
        let mut cfg = small(0.0, 11);
        cfg.membership = vec![
            "10000:crash:7".parse::<MembershipEvent>().unwrap(),
            "30000:recover:7".parse::<MembershipEvent>().unwrap(),
        ];
        let report = run_deterministic(&cfg).unwrap();
        assert_eq!(report.reshards, 2);
        assert_eq!(
            report.shards.len(),
            50,
            "liveness-only epochs never grow the shard set"
        );
        assert!(report.is_conserved());
        assert!(report.is_drained());
        assert_eq!(
            report.migrated, 0,
            "crash/recover move no data, so nothing migrates"
        );
    }

    #[test]
    fn reshard_runs_are_reproducible() {
        use crate::config::MembershipEvent;
        let build = || {
            let mut cfg = small(1.5, 11);
            cfg.membership = vec!["20000:join:50".parse::<MembershipEvent>().unwrap()];
            cfg
        };
        let a = run_deterministic(&build()).unwrap();
        let b = run_deterministic(&build()).unwrap();
        assert_eq!(a.migrated, b.migrated);
        assert_eq!(
            a.shards.iter().map(|s| s.checksum).collect::<Vec<_>>(),
            b.shards.iter().map(|s| s.checksum).collect::<Vec<_>>()
        );
    }

    #[test]
    fn invalid_membership_schedules_are_rejected() {
        use crate::config::MembershipEvent;
        // Out of order.
        let mut cfg = small(0.0, 11);
        cfg.membership = vec![
            "30000:join:50".parse::<MembershipEvent>().unwrap(),
            "10000:leave:1".parse::<MembershipEvent>().unwrap(),
        ];
        assert!(run_deterministic(&cfg).is_err());
        // Leaving a node that was never a member.
        let mut cfg = small(0.0, 11);
        cfg.membership = vec!["10000:leave:99".parse::<MembershipEvent>().unwrap()];
        assert!(run_deterministic(&cfg).is_err());
        // Shrinking below the replication factor.
        let mut cfg = small(0.0, 11);
        for (i, id) in (0..48u32).enumerate() {
            cfg.membership.push(
                format!("{}:leave:{id}", 1000 * (i as u64 + 1))
                    .parse()
                    .unwrap(),
            );
        }
        assert!(run_deterministic(&cfg).is_err(), "d=3 needs 3 members");
    }

    #[test]
    fn membership_event_spec_round_trips() {
        use crate::config::MembershipEvent;
        for spec in ["0:join:5", "120000:leave:3", "7:crash:0", "9:recover:2"] {
            let ev: MembershipEvent = spec.parse().unwrap();
            assert_eq!(ev.to_string(), spec);
        }
        assert!("oops".parse::<MembershipEvent>().is_err());
        assert!("10:explode:3".parse::<MembershipEvent>().is_err());
        assert!("x:join:3".parse::<MembershipEvent>().is_err());
        assert!("10:join:y".parse::<MembershipEvent>().is_err());
    }

    #[test]
    fn deterministic_mode_requires_quota() {
        let mut cfg = small(0.0, 11);
        cfg.total_queries = 0;
        cfg.duration_ms = 50;
        assert!(run_deterministic(&cfg).is_err());
    }
}
