//! A bounded single-producer / single-consumer queue.
//!
//! The serving engine fans admitted batches out to shard workers over one
//! of these per shard: the admission thread is the only producer, the
//! shard worker the only consumer. That pairing needs no locks at all —
//! two atomic counters and a slot array are enough:
//!
//! * `tail` counts pushes and is written only by the producer;
//! * `head` counts pops and is written only by the consumer;
//! * slot `i % capacity` holds the `i`-th element in flight.
//!
//! A full queue rejects the push ([`Producer::try_push`] hands the value
//! back), which is exactly the backpressure signal the admission stage
//! turns into load shedding. Counters are monotonically increasing
//! `u64`s, so index arithmetic never wraps in any realistic run
//! (2^64 pushes at 10M/s is fifty thousand years).
//!
//! # The substrate seam
//!
//! The algorithm itself lives in [`RingCore`], generic over the two
//! memory primitives it touches: an atomic 64-bit counter
//! ([`AtomicWord`]) and an interiorly-mutable slot ([`SlotCell`]). The
//! production queue instantiates it with `std` atomics and `UnsafeCell`
//! slots (zero-cost — the generics monomorphize to exactly the
//! hand-written code). `scp-analyze`'s interleaving explorer instantiates
//! the *same* algorithm with instrumented shim types and exhaustively
//! model-checks bounded producer/consumer schedules, so the code verified
//! by the explorer is byte-for-byte the code running in production — no
//! `cfg`-forked copy that could drift.

use crate::pad::CachePadded;
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Largest accepted ring capacity (slots). A ring is sized in batches,
/// not queries — every test, bench and default uses at most 64 — and
/// the engine pre-allocates per-slot state (the queue-depth histogram)
/// before any traffic, so the bound is also what keeps a mistyped
/// `--queue-capacity` from becoming a multi-gigabyte allocation.
pub const MAX_CAPACITY: usize = 1 << 16;

/// An atomic 64-bit counter as the ring algorithm sees it: real
/// [`AtomicU64`] in production, an instrumented shim under the
/// interleaving explorer. Implementations must provide genuine atomic
/// load/store with at least the requested ordering.
pub trait AtomicWord {
    /// Atomically loads the value with ordering `order`.
    fn load(&self, order: Ordering) -> u64;
    /// Atomically stores `val` with ordering `order`.
    fn store(&self, val: u64, order: Ordering);
}

impl AtomicWord for AtomicU64 {
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }

    fn store(&self, val: u64, order: Ordering) {
        AtomicU64::store(self, val, order)
    }
}

/// One interiorly-mutable element slot of the ring.
///
/// Both methods take `&self`: the SPSC head/tail protocol — not the type
/// system — guarantees exclusive access, which is why they are `unsafe`.
pub trait SlotCell<T> {
    /// Writes `item` into the slot.
    ///
    /// # Safety
    ///
    /// The caller must be the sole accessor of this slot for the duration
    /// of the call (in the ring: the producer, between reserving a `tail`
    /// index and publishing it).
    // SAFETY: contract stated in the `# Safety` section above.
    unsafe fn put(&self, item: T);

    /// Takes the slot's current contents.
    ///
    /// # Safety
    ///
    /// The caller must be the sole accessor of this slot for the duration
    /// of the call (in the ring: the consumer, between observing a
    /// published `tail` and advancing `head`).
    // SAFETY: contract stated in the `# Safety` section above.
    unsafe fn take(&self) -> Option<T>;
}

/// The production slot: a bare `UnsafeCell`, no instrumentation.
pub struct StdSlot<T>(UnsafeCell<Option<T>>);

impl<T> Default for StdSlot<T> {
    fn default() -> Self {
        Self(UnsafeCell::new(None))
    }
}

// A slot is accessed mutably only by the producer (between reserving a
// `tail` index and publishing it) or only by the consumer (between
// observing a published `tail` and advancing `head`).
// SAFETY: the acquire/release pairs on `tail` and `head` order all slot
// accesses, so the slot moves between threads whenever `T` is Send.
unsafe impl<T: Send> Send for StdSlot<T> {}
// SAFETY: as for `Send` — every shared mutation is mediated by the
// head/tail protocol, never by `&StdSlot` aliasing alone.
unsafe impl<T: Send> Sync for StdSlot<T> {}

impl<T> SlotCell<T> for StdSlot<T> {
    // SAFETY: precondition inherited from the trait (caller is the
    // slot's sole accessor for the duration of the call).
    unsafe fn put(&self, item: T) {
        // SAFETY: forwarded to the caller — sole-accessor is this
        // method's own precondition.
        unsafe {
            *self.0.get() = Some(item);
        }
    }

    // SAFETY: precondition inherited from the trait (caller is the
    // slot's sole accessor for the duration of the call).
    unsafe fn take(&self) -> Option<T> {
        // SAFETY: forwarded to the caller — sole-accessor is this
        // method's own precondition.
        unsafe { (*self.0.get()).take() }
    }
}

/// The ring algorithm, generic over its memory substrate.
///
/// This is the *entire* lock-free logic of the queue; [`Producer`] and
/// [`Consumer`] are thin single-owner handles around an `Arc` of it. The
/// interleaving explorer in `scp-analyze` drives these very methods under
/// a deterministic scheduler, so any ordering bug here is caught by a
/// tier-1 test, not just by code review.
pub struct RingCore<T, A, S> {
    slots: Box<[S]>,
    /// Pops so far; written only by the consumer.
    head: A,
    /// Pushes so far; written only by the producer.
    tail: A,
    marker: PhantomData<fn(T) -> T>,
}

impl<T, A: AtomicWord, S: SlotCell<T>> RingCore<T, A, S> {
    /// Assembles a ring from pre-built parts (both counters must read 0).
    /// An empty `slots` is given one default slot so the ring can always
    /// make progress.
    pub fn from_parts(head: A, tail: A, mut slots: Vec<S>) -> Self
    where
        S: Default,
    {
        if slots.is_empty() {
            slots.push(S::default());
        }
        Self {
            slots: slots.into_boxed_slice(),
            head,
            tail,
            marker: PhantomData,
        }
    }

    fn capacity(&self) -> u64 {
        self.slots.len() as u64
    }

    fn len(&self) -> u64 {
        // ORDERING: acquire both counters so a len() observed by either
        // side is no staler than the last publication it synchronized
        // with; len is monitoring-only and needs no slot contents.
        let tail = self.tail.load(Ordering::Acquire);
        // ORDERING: see above — paired acquire for the head counter.
        let head = self.head.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// The producer's half of the protocol. Must only ever be called from
    /// one thread at a time (enforced by [`Producer`] taking `&mut self`).
    pub fn try_push_core(&self, item: T) -> Result<(), T> {
        // ORDERING: relaxed is enough — `tail` is written only by this
        // thread, so it always reads its own latest value.
        // DETERMINISM: a single-writer self-read — the producer is the
        // only thread that stores `tail`, so the value never depends on
        // interleaving.
        let tail = self.tail.load(Ordering::Relaxed);
        // ORDERING: acquire pairs with the consumer's release store of
        // `head`, making the consumer's take() of the recycled slot
        // happen-before our overwrite of it.
        let head = self.head.load(Ordering::Acquire);
        if tail - head >= self.capacity() {
            return Err(item);
        }
        let Some(slot) = self.slots.get((tail % self.capacity()) as usize) else {
            // Unreachable (`x % len < len`), but refusing is a safe
            // answer: the queue just looks full.
            return Err(item);
        };
        // Index `tail` is not yet published, so the consumer never
        // touches this slot until the release store below.
        // SAFETY: we are the only producer; no other writer exists.
        unsafe {
            slot.put(item);
        }
        // ORDERING: release publishes the slot write above — the
        // consumer's acquire load of `tail` that sees `tail + 1` also
        // sees the filled slot. Weakening this to relaxed is the exact
        // bug the interleaving explorer's regression test injects.
        self.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// The consumer's half of the protocol. Must only ever be called from
    /// one thread at a time (enforced by [`Consumer`] taking `&mut self`).
    pub fn try_pop_core(&self) -> Option<T> {
        // ORDERING: relaxed is enough — `head` is written only by this
        // thread, so it always reads its own latest value.
        // DETERMINISM: a single-writer self-read — the consumer is the
        // only thread that stores `head`, so the value never depends on
        // interleaving.
        let head = self.head.load(Ordering::Relaxed);
        // ORDERING: acquire pairs with the producer's release store of
        // `tail`, making the producer's slot write happen-before our
        // take() below.
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = self.slots.get((head % self.capacity()) as usize)?;
        // `head < tail`: the producer published this slot with the
        // release store on `tail` that our acquire load observed, and it
        // will not rewrite the slot until `head` advances past it.
        // SAFETY: we are the only consumer of a published slot.
        let item = unsafe { slot.take() };
        // ORDERING: release publishes the take() above — the producer's
        // acquire load of `head` that sees `head + 1` knows the slot is
        // free for reuse.
        self.head.store(head + 1, Ordering::Release);
        item
    }

    /// The batch-amortized consumer: pops up to `max` elements into
    /// `sink`, paying **one** atomic acquire/release pair for the whole
    /// sweep instead of one per element. Returns how many were taken.
    ///
    /// Must only ever be called from one thread at a time (enforced by
    /// [`Consumer`] taking `&mut self`), like [`try_pop_core`].
    ///
    /// [`try_pop_core`]: RingCore::try_pop_core
    pub fn try_pop_many_core(&self, max: usize, sink: &mut impl FnMut(T)) -> usize {
        // ORDERING: relaxed is enough — `head` is written only by this
        // thread, so it always reads its own latest value.
        // DETERMINISM: a single-writer self-read — the consumer is the
        // only thread that stores `head`, so the value never depends on
        // interleaving.
        let head = self.head.load(Ordering::Relaxed);
        // ORDERING: acquire pairs with the producer's release store of
        // `tail`: every slot published at or before the observed `tail`
        // is visible to the takes below.
        let tail = self.tail.load(Ordering::Acquire);
        let available = tail.saturating_sub(head).min(max as u64);
        let mut taken = 0u64;
        while taken < available {
            let Some(slot) = self.slots.get(((head + taken) % self.capacity()) as usize) else {
                // Unreachable (`x % len < len`); stopping early keeps the
                // head publication below exact.
                break;
            };
            // Indices `head..tail` are published and the producer cannot
            // reuse any of them until `head` advances past them, which
            // only the store below does.
            // SAFETY: we are the only consumer of a published slot.
            let Some(item) = (unsafe { slot.take() }) else {
                break;
            };
            taken += 1;
            sink(item);
        }
        if taken > 0 {
            // ORDERING: release publishes every take() of this sweep in a
            // single store — the batch half of the protocol: the
            // producer's acquire load of `head` that observes it knows
            // all `taken` slots are free for reuse at once. Weakening
            // this to relaxed is the exact bug the interleaving
            // explorer's batch regression test injects.
            self.head.store(head + taken, Ordering::Release);
        }
        usize::try_from(taken).unwrap_or(usize::MAX)
    }
}

/// The production ring: `std` atomics, `UnsafeCell` slots. The head and
/// tail each get their own cache line ([`CachePadded`]) — they are
/// written by different threads, and sharing a line would make every
/// push invalidate the consumer's pops and vice versa.
type Ring<T> = RingCore<T, CachePadded<AtomicU64>, StdSlot<T>>;

/// The sending half; owned by exactly one thread.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

/// The receiving half; owned by exactly one thread.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

/// A rejected queue capacity (see [`try_channel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// The capacity the caller asked for.
    pub requested: usize,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spsc capacity {} invalid: must be in 1..={MAX_CAPACITY}",
            self.requested
        )
    }
}

impl std::error::Error for CapacityError {}

/// Creates a bounded SPSC queue holding at most `capacity` elements,
/// rejecting degenerate sizes: zero (a queue that cannot hold anything)
/// and anything above [`MAX_CAPACITY`].
///
/// # Errors
///
/// Returns [`CapacityError`] when `capacity` is outside
/// `1..=MAX_CAPACITY`.
pub fn try_channel<T>(capacity: usize) -> Result<(Producer<T>, Consumer<T>), CapacityError> {
    if capacity == 0 || capacity > MAX_CAPACITY {
        return Err(CapacityError {
            requested: capacity,
        });
    }
    Ok(ring_with(capacity))
}

/// Creates a bounded SPSC queue holding at most `capacity` elements.
///
/// The forgiving construction path: the capacity is clamped into
/// `1..=MAX_CAPACITY`, so a zero capacity still yields a queue that can
/// make progress (validated callers should prefer [`try_channel`], which
/// rejects instead of clamping).
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    ring_with(capacity.clamp(1, MAX_CAPACITY))
}

/// Allocates the ring behind both constructors; `capacity` is already
/// in `1..=MAX_CAPACITY`.
fn ring_with<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let slots: Vec<StdSlot<T>> = (0..capacity).map(|_| StdSlot::default()).collect();
    let ring = Arc::new(Ring::from_parts(
        CachePadded::new(AtomicU64::new(0)),
        CachePadded::new(AtomicU64::new(0)),
        slots,
    ));
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

impl<T> Producer<T> {
    /// Attempts to enqueue `item`; a full queue returns it unchanged
    /// (the caller's backpressure signal).
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        self.ring.try_push_core(item)
    }

    /// Elements currently queued.
    pub fn len(&self) -> usize {
        self.ring.len() as usize
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity() as usize
    }
}

impl<T> Consumer<T> {
    /// Dequeues the oldest element, or `None` when the queue is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        self.ring.try_pop_core()
    }

    /// Dequeues up to `max` elements into `sink` with a single atomic
    /// acquire/release pair (see [`RingCore::try_pop_many_core`]).
    /// Returns how many elements were taken.
    pub fn try_pop_many(&mut self, max: usize, sink: &mut impl FnMut(T)) -> usize {
        self.ring.try_pop_many_core(max, sink)
    }

    /// Elements currently queued.
    pub fn len(&self) -> usize {
        self.ring.len() as usize
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (mut tx, mut rx) = channel(4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn full_queue_rejects_and_returns_item() {
        let (mut tx, mut rx) = channel(2);
        tx.try_push("a").unwrap();
        tx.try_push("b").unwrap();
        assert_eq!(tx.try_push("c"), Err("c"));
        assert_eq!(rx.try_pop(), Some("a"));
        tx.try_push("c").unwrap();
        assert_eq!(rx.try_pop(), Some("b"));
        assert_eq!(rx.try_pop(), Some("c"));
    }

    #[test]
    fn zero_capacity_rounds_up_to_one() {
        let (mut tx, mut rx) = channel(0);
        assert_eq!(tx.capacity(), 1);
        tx.try_push(7u64).unwrap();
        assert_eq!(tx.try_push(8), Err(8));
        assert_eq!(rx.try_pop(), Some(7));
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut tx, mut rx) = channel(3);
        for round in 0u64..1000 {
            tx.try_push(round).unwrap();
            assert_eq!(rx.try_pop(), Some(round));
        }
        assert!(rx.is_empty());
        assert!(tx.is_empty());
    }

    #[test]
    fn cross_thread_transfer_is_lossless_and_ordered() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel(64);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                match tx.try_push(next) {
                    Ok(()) => next += 1,
                    Err(_) => std::hint::spin_loop(),
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(got) = rx.try_pop() {
                assert_eq!(got, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty());
    }

    #[test]
    fn try_channel_validates_capacity() {
        assert_eq!(
            super::try_channel::<u64>(0).err(),
            Some(CapacityError { requested: 0 })
        );
        assert_eq!(
            super::try_channel::<u64>(MAX_CAPACITY + 1).err(),
            Some(CapacityError {
                requested: MAX_CAPACITY + 1
            })
        );
        assert_eq!(channel::<u64>(usize::MAX).0.capacity(), MAX_CAPACITY);
        let (mut tx, mut rx) = super::try_channel(2).unwrap();
        tx.try_push(1u64).unwrap();
        assert_eq!(rx.try_pop(), Some(1));
        let msg = CapacityError { requested: 0 }.to_string();
        assert!(msg.contains("capacity 0"), "unhelpful error: {msg}");
    }

    #[test]
    fn pop_many_drains_fifo_and_respects_max() {
        let (mut tx, mut rx) = channel(8);
        for i in 0..6u64 {
            tx.try_push(i).unwrap();
        }
        let mut got = Vec::new();
        assert_eq!(rx.try_pop_many(4, &mut |v| got.push(v)), 4);
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(rx.try_pop_many(4, &mut |v| got.push(v)), 2);
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.try_pop_many(4, &mut |v| got.push(v)), 0);
        assert!(rx.is_empty());
    }

    #[test]
    fn pop_many_wraps_around_and_mixes_with_single_pops() {
        let (mut tx, mut rx) = channel(3);
        let mut expected = 0u64;
        let mut next = 0u64;
        for _ in 0..100 {
            while tx.try_push(next).is_ok() {
                next += 1;
            }
            let mut got = Vec::new();
            rx.try_pop_many(2, &mut |v| got.push(v));
            for v in got {
                assert_eq!(v, expected);
                expected += 1;
            }
            if let Some(v) = rx.try_pop() {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        assert!(expected > 100, "wraparound exercised many revolutions");
    }

    #[test]
    fn pop_many_cross_thread_is_lossless() {
        const N: u64 = 100_000;
        let (mut tx, mut rx) = channel(16);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                match tx.try_push(next) {
                    Ok(()) => next += 1,
                    Err(_) => std::hint::spin_loop(),
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            let before = expected;
            rx.try_pop_many(8, &mut |got| {
                assert_eq!(got, expected);
                expected += 1;
            });
            if expected == before {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty());
    }

    #[test]
    fn ring_counters_do_not_share_a_cache_line() {
        // The head/tail pair is padded: the ring struct must span at
        // least two full 128-byte blocks plus the slot box.
        assert!(std::mem::size_of::<super::Ring<u64>>() >= 256);
    }

    #[test]
    fn drops_queued_items_with_the_ring() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = channel(8);
        for _ in 0..5 {
            tx.try_push(Counted).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }
}
