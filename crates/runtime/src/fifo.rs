//! Bounded FIFO connections with blocking instrumentation.
//!
//! Each `(src, dst, channel)` connection is a queue with the protocol's
//! FIFO slot count (§6.1): a send blocks when every slot is full, a
//! receive blocks when the queue is empty. Unlike an off-the-shelf
//! channel, these report *whether* a call blocked and invoke a callback at
//! the moment blocking starts, which is what lets the tracer timestamp
//! `SendBlock`/`RecvBlock` at the start of the stall rather than after it.
//!
//! The scheduler's hot path uses the non-blocking half — [`try_send`]
//! deposits under the queue lock (so a `Send` trace timestamp taken in
//! its callback provably precedes the matching `Recv`), and
//! [`try_recv_into`] drains every available tile in one lock acquisition,
//! amortizing synchronization across a burst. A task that finds the queue
//! full/empty parks in the scheduler's wait table; the peer's next
//! `try_*` call wakes it. The blocking [`send`]/[`recv`] remain for
//! direct users and tests; their condvar waits run to the full deadline,
//! interrupted by cancellation through the token's [`Poke`] waker rather
//! than by slicing the sleep.
//!
//! [`try_send`]: Fifo::try_send
//! [`try_recv_into`]: Fifo::try_recv_into
//! [`send`]: Fifo::send
//! [`recv`]: Fifo::recv

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::cancel::{CancelToken, Poke};

/// Why a blocking FIFO call stopped without completing. The executor's
/// hot path uses the non-blocking `try_*` API; the blocking calls remain
/// as the reference semantics their unit tests pin down.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoStop {
    /// The deadline elapsed while blocked (deadlock or hang).
    Timeout,
    /// The run was cancelled by another worker's failure.
    Cancelled,
}

/// What a [`Fifo::send`] reports through its callback, in call order.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMoment {
    /// Every slot was full; the call is about to block (reported once).
    Blocked,
    /// The tile is being deposited. Reported while the queue lock is still
    /// held, so a timestamp taken here provably precedes the matching
    /// receive's timestamp on any other thread.
    Enqueued {
        /// Queue depth *including* the tile being deposited — the
        /// occupancy the receiver will observe, feeding the per-channel
        /// peak-occupancy gauge.
        depth: usize,
    },
}

/// A bounded queue of tiles for one connection.
///
/// Generic over the payload so the runtime can carry pooled tiles by
/// ownership (zero copies in transit) while tests use plain vectors. The
/// backing deque is allocated at the protocol's slot count up front and
/// never grows: the send path debug-asserts the bound before every push.
pub struct Fifo<T> {
    queue: Mutex<VecDeque<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

fn relock<T>(result: Result<T, std::sync::PoisonError<T>>) -> T {
    // A poisoning panic in some worker already fails the run via the scope
    // join; the queue itself is always left consistent.
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T: Send> Poke for Fifo<T> {
    /// Wakes blocked senders and receivers so they observe a
    /// cancellation. Takes the queue lock first: a waiter between its
    /// flag check and its park holds that lock, so the notification
    /// cannot slip past it.
    fn poke(&self) {
        let _guard = relock(self.queue.lock());
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

impl<T> Fifo<T> {
    /// A FIFO with `capacity` slots (at least one), preallocated.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
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

    /// Deposits `value` if a slot is free, without blocking. `on_enqueued`
    /// runs under the queue lock with the post-push depth, preserving the
    /// happens-before contract of [`SendMoment::Enqueued`]. On a full
    /// queue the value is handed back unchanged.
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
        drop(guard);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Drains every queued tile into `out` under one lock acquisition,
    /// oldest first, and returns how many were moved. The receiver-side
    /// batching half of the scheduler's FIFO protocol: one wakeup can
    /// hand a task a whole burst of tiles, each consumed by a later
    /// instruction without touching the queue lock again. Draining frees
    /// slots exactly like [`recv`](Fifo::recv) does, so blocked senders
    /// are woken (and a parked sender's scheduler wakeup should follow
    /// any call that returns nonzero).
    pub fn try_recv_into(&self, out: &mut VecDeque<T>) -> usize {
        let mut guard = relock(self.queue.lock());
        let n = guard.len();
        out.extend(guard.drain(..));
        drop(guard);
        if n > 0 {
            self.not_full.notify_all();
        }
        n
    }

    #[cfg_attr(not(test), allow(dead_code))]
    fn wait_until<'a>(
        cv: &Condvar,
        guard: MutexGuard<'a, VecDeque<T>>,
        deadline: Instant,
        cancel: &CancelToken,
    ) -> Result<MutexGuard<'a, VecDeque<T>>, FifoStop> {
        if cancel.is_cancelled() {
            return Err(FifoStop::Cancelled);
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(FifoStop::Timeout);
        }
        let (guard, _) = relock(cv.wait_timeout(guard, remaining));
        Ok(guard)
    }

    /// Deposits `value`, blocking while all slots are full. `on_event`
    /// reports [`SendMoment::Blocked`] once at the moment the call starts
    /// blocking (only if it blocks) and [`SendMoment::Enqueued`] under the
    /// queue lock as the tile goes in. Returns whether the call blocked.
    /// For cancellation to interrupt the wait before the deadline, attach
    /// the FIFO to the token as a waker (see `CancelToken::attach`).
    ///
    /// # Errors
    ///
    /// Returns [`FifoStop::Timeout`] if the queue stays full past
    /// `deadline`, or [`FifoStop::Cancelled`] if the run is cancelled.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn send(
        &self,
        value: T,
        deadline: Instant,
        cancel: &CancelToken,
        mut on_event: impl FnMut(SendMoment),
    ) -> Result<bool, FifoStop> {
        let mut guard = relock(self.queue.lock());
        let mut blocked = false;
        while guard.len() >= self.capacity {
            if !blocked {
                blocked = true;
                on_event(SendMoment::Blocked);
            }
            guard = Self::wait_until(&self.not_full, guard, deadline, cancel)?;
        }
        on_event(SendMoment::Enqueued {
            depth: guard.len() + 1,
        });
        debug_assert!(
            guard.len() < self.capacity && guard.capacity() >= self.capacity,
            "FIFO bound violated: {} of {} slots used (capacity {})",
            guard.len(),
            self.capacity,
            guard.capacity()
        );
        guard.push_back(value);
        drop(guard);
        self.not_empty.notify_one();
        Ok(blocked)
    }

    /// Removes the oldest tile, blocking while the queue is empty.
    /// `on_block` runs once, at the moment the call starts blocking, only
    /// if it blocks. Returns the tile and whether the call blocked. As
    /// with [`send`](Fifo::send), prompt cancellation requires attaching
    /// the FIFO to the token.
    ///
    /// # Errors
    ///
    /// Returns [`FifoStop::Timeout`] if the queue stays empty past
    /// `deadline`, or [`FifoStop::Cancelled`] if the run is cancelled.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn recv(
        &self,
        deadline: Instant,
        cancel: &CancelToken,
        on_block: impl FnOnce(),
    ) -> Result<(T, bool), FifoStop> {
        let mut guard = relock(self.queue.lock());
        let mut blocked = false;
        let mut on_block = Some(on_block);
        loop {
            if let Some(value) = guard.pop_front() {
                drop(guard);
                self.not_full.notify_one();
                return Ok((value, blocked));
            }
            if let Some(f) = on_block.take() {
                blocked = true;
                f();
            }
            guard = Self::wait_until(&self.not_empty, guard, deadline, cancel)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Weak};
    use std::time::Duration;

    use crate::cancel::{FailureCause, FailureOrigin};

    fn after(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn passes_values_in_order() {
        let f = Fifo::new(2);
        let c = CancelToken::new();
        assert_eq!(f.send(vec![1.0], after(100), &c, |_| ()), Ok(false));
        assert_eq!(f.send(vec![2.0], after(100), &c, |_| ()), Ok(false));
        assert_eq!(f.recv(after(100), &c, || ()), Ok((vec![1.0], false)));
        assert_eq!(f.recv(after(100), &c, || ()), Ok((vec![2.0], false)));
    }

    #[test]
    fn try_send_fills_to_capacity_then_rejects() {
        let f = Fifo::new(2);
        assert_eq!(f.try_send(vec![1.0], |d| assert_eq!(d, 1)), Ok(()));
        assert_eq!(f.try_send(vec![2.0], |d| assert_eq!(d, 2)), Ok(()));
        assert_eq!(f.len(), 2);
        // Full: the payload comes back unchanged, no callback.
        assert_eq!(
            f.try_send(vec![3.0], |_| panic!("enqueued")),
            Err(vec![3.0])
        );
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

    /// Draining wakes a blocked (legacy-API) sender: the slots really do
    /// free up.
    #[test]
    fn try_recv_into_unblocks_sender() {
        let f = Arc::new(Fifo::new(1));
        let c = CancelToken::new();
        f.try_send(vec![0.0], |_| ()).unwrap();
        let f2 = Arc::clone(&f);
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || f2.send(vec![1.0], after(5000), &c2, |_| ()));
        std::thread::sleep(Duration::from_millis(20));
        let mut out = VecDeque::new();
        assert_eq!(f.try_recv_into(&mut out), 1);
        assert_eq!(h.join().unwrap(), Ok(true));
    }

    #[test]
    fn send_blocks_when_full_and_reports_it() {
        let f = Arc::new(Fifo::new(1));
        let c = CancelToken::new();
        f.send(vec![0.0], after(5000), &c, |_| ()).unwrap();
        let f2 = Arc::clone(&f);
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || f2.send(vec![1.0], after(5000), &c2, |_| ()));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(f.recv(after(5000), &c, || ()), Ok((vec![0.0], false)));
        assert_eq!(h.join().unwrap(), Ok(true));
        assert_eq!(f.recv(after(5000), &c, || ()), Ok((vec![1.0], false)));
    }

    #[test]
    fn recv_blocks_when_empty_and_reports_it() {
        let f = Arc::new(Fifo::new(1));
        let c = CancelToken::new();
        let f2 = Arc::clone(&f);
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || f2.recv(after(5000), &c2, || ()));
        std::thread::sleep(Duration::from_millis(20));
        f.send(vec![3.0], after(5000), &c, |_| ()).unwrap();
        assert_eq!(h.join().unwrap(), Ok((vec![3.0], true)));
    }

    #[test]
    fn timeouts_are_reported() {
        let f = Fifo::new(1);
        let c = CancelToken::new();
        assert_eq!(f.recv(after(10), &c, || ()), Err(FifoStop::Timeout));
        f.send(vec![0.0], after(10), &c, |_| ()).unwrap();
        assert_eq!(
            f.send(vec![1.0], after(10), &c, |_| ()),
            Err(FifoStop::Timeout)
        );
    }

    #[test]
    fn send_moments_fire_in_order() {
        let f = Fifo::new(1);
        let c = CancelToken::new();
        let mut moments = Vec::new();
        f.send(vec![0.0], after(10), &c, |m| moments.push(m))
            .unwrap();
        assert_eq!(moments, vec![SendMoment::Enqueued { depth: 1 }]);
        let mut moments = Vec::new();
        let _ = f.send(vec![1.0], after(10), &c, |m| moments.push(m));
        assert_eq!(moments, vec![SendMoment::Blocked]);
    }

    /// A cancellation elsewhere unblocks an attached receiver long before
    /// its deadline — via the token's waker, with no polling in the wait.
    #[test]
    fn cancellation_unblocks_promptly() {
        let f = Arc::new(Fifo::<Vec<f32>>::new(1));
        let c = CancelToken::new();
        c.attach(Arc::downgrade(&f) as Weak<dyn Poke>);
        let f2 = Arc::clone(&f);
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            let start = Instant::now();
            let r = f2.recv(after(30_000), &c2, || ());
            (r, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        c.cancel(FailureOrigin {
            rank: 0,
            tb: 0,
            step: 0,
            cause: FailureCause::StepTimeout,
        });
        let (r, took) = h.join().unwrap();
        assert_eq!(r, Err(FifoStop::Cancelled));
        assert!(took < Duration::from_secs(1), "took {took:?}");
    }
}
