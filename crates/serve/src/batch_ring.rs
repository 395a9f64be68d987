//! Per-client batched intake: the lock-free replacement for the old
//! `Mutex<VecDeque> + Condvar` submission funnel.
//!
//! Each client owns a [`BatchSender`]; the admission thread owns the
//! matching [`BatchReceiver`]s and sweeps them round-robin. Two SPSC
//! rings (the [`crate::spsc::RingCore`] algorithm, unchanged) connect
//! each pair, both carrying **whole batches** (`Vec<T>`) so one atomic
//! acquire/release pair is paid per batch rather than per query:
//!
//! ```text
//!   client ── data ring: Vec<Request> batches ──▶ admission
//!   client ◀─ freelist ring: recycled buffers ─── admission
//! ```
//!
//! The freelist ring closes the allocation loop: the admission stage
//! hands drained buffers back (cleared, capacity intact), so the steady
//! state allocates nothing per query — a buffer is minted only while the
//! freelist is empty (startup, or after a depth change). A full freelist
//! simply drops the buffer; a starved client allocates a fresh one.
//!
//! Shutdown is a cache-padded `closed` flag with release/acquire
//! ordering: the sender closes **after** its last `send`, so a receiver
//! that observes `closed` and then finds the data ring empty has seen
//! every batch (the release store happens-after the last tail
//! publication, and the acquire load orders the emptiness check after
//! both). [`BatchSender`] also closes on drop, so a panicking client
//! can never wedge the admission sweep.

use crate::pad::CachePadded;
use crate::spsc::{self, Consumer, Producer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The client half: submit batches, reuse recycled buffers.
pub struct BatchSender<T> {
    data: Producer<Vec<T>>,
    free: Consumer<Vec<T>>,
    closed: Arc<CachePadded<AtomicBool>>,
}

/// The admission half: drain batches, return buffers for reuse.
pub struct BatchReceiver<T> {
    data: Consumer<Vec<T>>,
    free: Producer<Vec<T>>,
    closed: Arc<CachePadded<AtomicBool>>,
}

/// Creates one client↔admission intake pair holding at most `depth`
/// in-flight batches (and up to `depth` recycled buffers). A zero depth
/// is rounded up to one, as in [`spsc::channel`].
pub fn intake_channel<T>(depth: usize) -> (BatchSender<T>, BatchReceiver<T>) {
    let (data_tx, data_rx) = spsc::channel(depth);
    let (free_tx, free_rx) = spsc::channel(depth);
    let closed = Arc::new(CachePadded::new(AtomicBool::new(false)));
    (
        BatchSender {
            data: data_tx,
            free: free_rx,
            closed: Arc::clone(&closed),
        },
        BatchReceiver {
            data: data_rx,
            free: free_tx,
            closed,
        },
    )
}

impl<T> BatchSender<T> {
    /// A buffer to fill: recycled from the freelist when one is waiting
    /// (cleared, with its allocation intact), freshly allocated with
    /// room for `capacity` elements otherwise.
    pub fn buffer(&mut self, capacity: usize) -> Vec<T> {
        self.free
            .try_pop()
            .unwrap_or_else(|| Vec::with_capacity(capacity))
    }

    /// Submits one batch; a full ring returns it unchanged (the caller's
    /// backpressure signal — retry after backing off).
    pub fn send(&mut self, batch: Vec<T>) -> Result<(), Vec<T>> {
        self.data.try_push(batch)
    }

    /// Announces that no further batch will ever be sent. Must be called
    /// after the last [`send`](BatchSender::send) (drop does it too).
    pub fn close(&self) {
        // ORDERING: Release pairs with the receiver's Acquire load in
        // `is_closed`: a receiver that observes the close also observes
        // every batch published before it, so `closed + empty` really
        // means "drained everything".
        self.closed.store(true, Ordering::Release);
    }

    /// In-flight batches currently queued.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no batches are queued.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl<T> Drop for BatchSender<T> {
    fn drop(&mut self) {
        // A client that unwinds mid-run must still release the admission
        // sweep, or shutdown would hang waiting for its close.
        self.close();
    }
}

impl<T> BatchReceiver<T> {
    /// Drains up to `max` batches into `sink` with a single atomic pair
    /// (the batch-amortized pop). Returns how many batches were taken.
    pub fn drain(&mut self, max: usize, sink: &mut impl FnMut(Vec<T>)) -> usize {
        self.data.try_pop_many(max, sink)
    }

    /// Returns a drained buffer to the client for reuse: cleared here,
    /// capacity kept. A full freelist drops the buffer instead (returns
    /// `false`); the client then mints a fresh one on demand.
    pub fn recycle(&mut self, mut buf: Vec<T>) -> bool {
        buf.clear();
        self.free.try_push(buf).is_ok()
    }

    /// Whether the sender has announced it is done.
    pub fn is_closed(&self) -> bool {
        // ORDERING: Acquire pairs with the sender's Release store in
        // `close`, ordering any subsequent emptiness check after the
        // sender's final batch publication.
        self.closed.load(Ordering::Acquire)
    }

    /// Whether the sender closed **and** everything it sent has been
    /// drained — the condition for retiring this intake. The close flag
    /// is read first (acquire), so the emptiness check below cannot miss
    /// a batch published before the close.
    pub fn is_drained(&self) -> bool {
        self.is_closed() && self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp_workload::rng::{Rng, Xoshiro256StarStar};

    #[test]
    fn batches_flow_fifo_and_buffers_recycle() {
        let (mut tx, mut rx) = intake_channel::<u64>(4);
        for round in 0..3u64 {
            let mut b = tx.buffer(8);
            b.extend([round * 10, round * 10 + 1]);
            tx.send(b).unwrap();
        }
        let mut seen = Vec::new();
        let drained = rx.drain(8, &mut |b| seen.push(b));
        assert_eq!(drained, 3);
        assert_eq!(
            seen.iter().map(Vec::as_slice).collect::<Vec<_>>(),
            vec![&[0, 1][..], &[10, 11], &[20, 21]]
        );
        for b in seen {
            assert!(rx.recycle(b));
        }
        // The next buffers come from the freelist with capacity intact.
        let reused = tx.buffer(0);
        assert!(reused.is_empty());
        assert!(reused.capacity() >= 2, "recycled allocation was lost");
    }

    #[test]
    fn full_data_ring_backpressures() {
        let (mut tx, mut rx) = intake_channel::<u64>(1);
        tx.send(vec![1]).unwrap();
        let back = tx.send(vec![2]).unwrap_err();
        assert_eq!(back, vec![2]);
        let mut seen = Vec::new();
        rx.drain(4, &mut |b| seen.push(b));
        assert_eq!(seen, vec![vec![1]]);
        tx.send(back).unwrap();
    }

    #[test]
    fn full_freelist_drops_instead_of_blocking() {
        let (mut tx, mut rx) = intake_channel::<u64>(1);
        tx.send(vec![1]).unwrap();
        let mut bufs = Vec::new();
        rx.drain(4, &mut |b| bufs.push(b));
        assert!(rx.recycle(bufs.remove(0)));
        assert!(!rx.recycle(Vec::new()), "freelist depth is bounded");
    }

    #[test]
    fn close_after_last_send_means_drained_sees_everything() {
        let (mut tx, mut rx) = intake_channel::<u64>(8);
        tx.send(vec![7]).unwrap();
        tx.close();
        assert!(rx.is_closed());
        assert!(!rx.is_drained(), "a queued batch must block retirement");
        let mut seen = Vec::new();
        rx.drain(8, &mut |b| seen.push(b));
        assert_eq!(seen, vec![vec![7]]);
        assert!(rx.is_drained());
    }

    #[test]
    fn drop_closes_the_intake() {
        let (tx, rx) = intake_channel::<u64>(2);
        assert!(!rx.is_closed());
        drop(tx);
        assert!(rx.is_closed());
        assert!(rx.is_drained());
    }

    /// Seeded property test: a producer thread sends randomly-sized
    /// batches of a counting sequence with interleaved recycling and a
    /// mid-stream close; the consumer must observe exactly the sequence,
    /// in order (per-producer FIFO + exact conservation across shutdown).
    #[test]
    #[expect(clippy::disallowed_methods, reason = "test code: a producer thread")]
    fn seeded_threaded_conservation_and_fifo() {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let (mut tx, mut rx) = intake_channel::<u64>(4);
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let total: u64 = 10_000 + (rng.next_u64() % 5_000);
            let producer = std::thread::spawn(move || {
                let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xF00D);
                let mut next = 0u64;
                while next < total {
                    let size = 1 + (rng.next_u64() % 64).min(total - next - 1);
                    let mut batch = tx.buffer(64);
                    for _ in 0..size {
                        batch.push(next);
                        next += 1;
                    }
                    let mut pending = batch;
                    loop {
                        match tx.send(pending) {
                            Ok(()) => break,
                            Err(back) => {
                                pending = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
                tx.close();
                total
            });
            let mut expected = 0u64;
            loop {
                // Only stop once a drain that started *after* close
                // comes back empty — anything pushed before close is
                // still owed to us.
                let closed_before = rx.is_closed();
                let got = rx.drain(4, &mut |batch| {
                    for v in &batch {
                        assert_eq!(*v, expected, "FIFO broken at seed {seed}");
                        expected += 1;
                    }
                });
                if got == 0 {
                    if closed_before {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
            let sent = producer.join().unwrap();
            assert_eq!(expected, sent, "conservation broken at seed {seed}");
            assert!(rx.is_drained());
        }
    }
}
