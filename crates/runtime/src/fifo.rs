//! Bounded FIFO connections.
//!
//! Each `(src, dst, channel)` connection is a queue with the protocol's
//! FIFO slot count (§6.1): a send finds no room when every slot is full,
//! a receive finds nothing when the queue is empty. Neither call blocks:
//! [`try_send`] deposits under the queue lock (so a `Send` trace
//! timestamp taken in its callback provably precedes the matching
//! `Recv`) or hands the tile back, and [`try_recv_into`] drains every
//! available tile in one lock acquisition, amortizing synchronization
//! across a burst. A task that finds the queue full/empty parks in the
//! scheduler's wait table; the peer's next `try_*` call is followed by a
//! wake of the connection's key.
//!
//! [`try_send`]: Fifo::try_send
//! [`try_recv_into`]: Fifo::try_recv_into

use std::collections::VecDeque;
use std::sync::Mutex;

/// A bounded queue of tiles for one connection.
///
/// Generic over the payload so the runtime can carry pooled tiles by
/// ownership (zero copies in transit) while tests use plain vectors. The
/// backing deque is allocated at the protocol's slot count up front and
/// never grows: the send path debug-asserts the bound before every push.
pub struct Fifo<T> {
    queue: Mutex<VecDeque<T>>,
    capacity: usize,
}

fn relock<T>(result: Result<T, std::sync::PoisonError<T>>) -> T {
    // A poisoning panic in some worker already fails the run via the
    // cancel token; the queue itself is always left consistent.
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T> Fifo<T> {
    /// A FIFO with `capacity` slots (at least one), preallocated.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// The slot bound this connection was created with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth — the scheduler's readiness probe for parked
    /// send/receive waits.
    #[must_use]
    pub fn len(&self) -> usize {
        relock(self.queue.lock()).len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every queued tile — the execution plan's between-runs reset:
    /// a failed run can leave tiles undelivered.
    pub fn clear(&self) {
        relock(self.queue.lock()).clear();
    }

    /// Deposits `value` if a slot is free. `on_enqueued` runs under the
    /// queue lock with the post-push depth — the occupancy the receiver
    /// will observe — so a timestamp taken there provably precedes the
    /// matching receive's on any other thread. On a full queue the value
    /// is handed back unchanged and the callback does not run.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when every slot is full.
    pub fn try_send(&self, value: T, on_enqueued: impl FnOnce(usize)) -> Result<(), T> {
        let mut guard = relock(self.queue.lock());
        if guard.len() >= self.capacity {
            return Err(value);
        }
        on_enqueued(guard.len() + 1);
        debug_assert!(
            guard.len() < self.capacity && guard.capacity() >= self.capacity,
            "FIFO bound violated: {} of {} slots used (capacity {})",
            guard.len(),
            self.capacity,
            guard.capacity()
        );
        guard.push_back(value);
        Ok(())
    }

    /// Drains every queued tile into `out` under one lock acquisition,
    /// oldest first, and returns how many were moved. The receiver-side
    /// batching half of the scheduler's FIFO protocol: one wakeup can
    /// hand a task a whole burst of tiles, each consumed by a later
    /// instruction without touching the queue lock again. Draining frees
    /// every slot, so a parked sender's scheduler wakeup should follow
    /// any call that returns nonzero.
    pub fn try_recv_into(&self, out: &mut VecDeque<T>) -> usize {
        let mut guard = relock(self.queue.lock());
        let n = guard.len();
        out.extend(guard.drain(..));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_send_fills_to_capacity_then_rejects() {
        let f = Fifo::new(2);
        assert_eq!(f.capacity(), 2);
        assert_eq!(f.try_send(vec![1.0], |d| assert_eq!(d, 1)), Ok(()));
        assert_eq!(f.try_send(vec![2.0], |d| assert_eq!(d, 2)), Ok(()));
        assert_eq!(f.len(), 2);
        // Full: the payload comes back unchanged, no callback.
        assert_eq!(
            f.try_send(vec![3.0], |_| panic!("enqueued")),
            Err(vec![3.0])
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn try_recv_into_drains_in_order() {
        let f = Fifo::new(4);
        for v in 1..=3 {
            f.try_send(vec![v as f32], |_| ()).unwrap();
        }
        let mut out = VecDeque::new();
        assert_eq!(f.try_recv_into(&mut out), 3);
        assert!(f.is_empty());
        assert_eq!(out, VecDeque::from(vec![vec![1.0], vec![2.0], vec![3.0]]));
        assert_eq!(f.try_recv_into(&mut out), 0);
    }

    /// A drain frees every slot: the send a full queue refused goes in.
    #[test]
    fn drain_frees_slots_for_the_refused_send() {
        let f = Fifo::new(1);
        f.try_send(0u32, |_| ()).unwrap();
        let refused = f.try_send(1, |_| ()).unwrap_err();
        let mut out = VecDeque::new();
        assert_eq!(f.try_recv_into(&mut out), 1);
        assert_eq!(f.try_send(refused, |d| assert_eq!(d, 1)), Ok(()));
        f.clear();
        assert!(f.is_empty());
    }

    /// One producer and one consumer spinning on the `try_*` calls — the
    /// shape every connection has — move 100k items through two slots
    /// with nothing lost, duplicated or reordered.
    #[test]
    fn spsc_spin_keeps_order_and_count() {
        const ITEMS: u64 = 100_000;
        let f = Fifo::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for mut item in 0..ITEMS {
                    while let Err(back) = f.try_send(item, |depth| assert!(depth <= 2)) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            });
            let mut inbox = VecDeque::new();
            let mut next = 0;
            while next < ITEMS {
                if f.try_recv_into(&mut inbox) == 0 {
                    std::thread::yield_now();
                }
                for item in inbox.drain(..) {
                    assert_eq!(item, next);
                    next += 1;
                }
            }
        });
        assert!(f.is_empty());
    }
}
