//! Monotonic semaphores for cross-thread-block synchronization.
//!
//! The CUDA interpreter (Figure 5) gives every thread block a semaphore in
//! global memory set to the completed step after each instruction with
//! `hasDep`; dependent instructions spin until the value is reached. Here
//! the value counts instructions monotonically *across tiles* so that
//! waits from tile `t` can never be satisfied by a completion from tile
//! `t - 1`.
//!
//! The scheduler's hot path never blocks on a semaphore: a task polls
//! [`current`](Semaphore::current) and, if the target is not yet reached,
//! parks in the scheduler's wait table until the setter wakes it. The
//! blocking [`wait_at_least`](Semaphore::wait_at_least) remains for the
//! epoch machinery's tests and direct users; its condvar wait runs to the
//! full deadline and is interrupted by cancellation through the token's
//! [`Poke`] waker (attach the semaphore to the token for that), not by
//! slicing the sleep.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::cancel::{CancelToken, Poke};

/// How a cooperative wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum WaitOutcome {
    /// The awaited condition became true.
    Reached,
    /// The deadline passed first.
    TimedOut,
    /// The run was cancelled by another worker's failure.
    Cancelled,
}

/// A monotonically increasing counter others can block on.
#[derive(Default)]
pub struct Semaphore {
    value: Mutex<u64>,
    cv: Condvar,
}

impl Poke for Semaphore {
    /// Wakes blocked waiters so they observe a cancellation. Takes the
    /// value lock first: a waiter between its flag check and its park
    /// holds that lock, so the notification cannot slip past it.
    fn poke(&self) {
        let _guard = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }
}

impl Semaphore {
    /// Creates a semaphore at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current value, without blocking — the scheduler's readiness
    /// probe for parked dependency waits.
    #[must_use]
    pub fn current(&self) -> u64 {
        *self.value.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rewinds the counter to `v` between runs — the one non-monotonic
    /// operation, for an execution plan reusing its semaphores (zero on
    /// a fresh run, the block's checkpoint watermark on a resume). Must
    /// not race with waiters: the plan calls it with every worker idle.
    pub fn reset(&self, v: u64) {
        *self.value.lock().unwrap_or_else(PoisonError::into_inner) = v;
    }

    /// Advances the counter to `v` (monotonic; lower values are ignored)
    /// and wakes waiters.
    pub fn set(&self, v: u64) {
        let mut guard = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        if v > *guard {
            *guard = v;
            self.cv.notify_all();
        }
    }

    /// Adds one to the counter, wakes waiters, and returns the new value
    /// — the arrival primitive of the epoch barrier: each worker
    /// contributes one arrival and the last one (the designated
    /// snapshotter) sees the full count.
    pub fn increment(&self) -> u64 {
        let mut guard = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        *guard += 1;
        self.cv.notify_all();
        *guard
    }

    /// Blocks until the counter reaches `v`, the `deadline` passes, or
    /// `cancel` trips. For the cancellation to interrupt the wait before
    /// the deadline, the semaphore must be attached to the token as a
    /// waker (see [`CancelToken::attach`]); the wait itself never polls.
    #[must_use]
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn wait_at_least(&self, v: u64, deadline: Instant, cancel: &CancelToken) -> WaitOutcome {
        let mut guard = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        while *guard < v {
            if cancel.is_cancelled() {
                return WaitOutcome::Cancelled;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return WaitOutcome::TimedOut;
            }
            guard = self
                .cv
                .wait_timeout(guard, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        WaitOutcome::Reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Weak};
    use std::time::Duration;

    use crate::cancel::{FailureCause, FailureOrigin};

    fn soon(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn set_and_wait() {
        let s = Semaphore::new();
        let c = CancelToken::new();
        s.set(3);
        assert_eq!(s.current(), 3);
        assert_eq!(s.wait_at_least(3, soon(10), &c), WaitOutcome::Reached);
        assert_eq!(s.wait_at_least(4, soon(10), &c), WaitOutcome::TimedOut);
    }

    #[test]
    fn set_is_monotonic() {
        let s = Semaphore::new();
        let c = CancelToken::new();
        s.set(5);
        s.set(2);
        assert_eq!(s.current(), 5);
        assert_eq!(s.wait_at_least(5, soon(10), &c), WaitOutcome::Reached);
    }

    #[test]
    fn cross_thread_wakeup() {
        let s = Arc::new(Semaphore::new());
        let c = CancelToken::new();
        let s2 = Arc::clone(&s);
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || s2.wait_at_least(1, soon(5000), &c2));
        std::thread::sleep(Duration::from_millis(20));
        s.set(1);
        assert_eq!(h.join().unwrap(), WaitOutcome::Reached);
    }

    /// A cancellation elsewhere must wake an attached waiter long before
    /// its own deadline — without any polling inside the wait.
    #[test]
    fn cancellation_interrupts_wait_promptly() {
        let s = Arc::new(Semaphore::new());
        let c = CancelToken::new();
        c.attach(Arc::downgrade(&s) as Weak<dyn Poke>);
        let s2 = Arc::clone(&s);
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            let start = Instant::now();
            let outcome = s2.wait_at_least(1, soon(30_000), &c2);
            (outcome, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        c.cancel(FailureOrigin {
            rank: 0,
            tb: 0,
            step: 0,
            cause: FailureCause::StepTimeout,
        });
        let (outcome, took) = h.join().unwrap();
        assert_eq!(outcome, WaitOutcome::Cancelled);
        assert!(took < Duration::from_secs(1), "took {took:?}");
    }
}
