//! Monotonic semaphores for cross-thread-block synchronization.
//!
//! The CUDA interpreter (Figure 5) gives every thread block a semaphore in
//! global memory — a plain word — set to the completed step after each
//! instruction with `hasDep`; dependent instructions spin until the value
//! is reached. Here it is an [`AtomicU64`], and the value counts
//! instructions monotonically *across tiles* so that waits from tile `t`
//! can never be satisfied by a completion from tile `t - 1`.
//!
//! Nothing blocks on a semaphore. A task reads
//! [`current`](Semaphore::current) and, if the target is not yet reached,
//! parks in the scheduler's wait table until the setter wakes its key.
//!
//! **Ordering.** Every operation is `SeqCst`, and the wait table's slots
//! are too: the setter stores the value and then loads the wait slots,
//! the waiter stores its wait slot and then loads the value. Each side is
//! a store followed by a load of the *other* location, which only
//! sequential consistency keeps in order; with anything weaker both
//! loads could miss and the wakeup would be lost.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter tasks probe.
#[derive(Default)]
pub struct Semaphore(AtomicU64);

impl Semaphore {
    /// Creates a semaphore at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current value — the readiness probe for dependency waits.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Rewinds the counter to zero between runs — the one non-monotonic
    /// operation, for an execution plan reusing its semaphores. The plan
    /// calls it with every worker idle.
    pub fn reset(&self) {
        self.0.store(0, Ordering::SeqCst);
    }

    /// Advances the counter to `v` (monotonic; lower values are ignored).
    pub fn set(&self, v: u64) {
        self.0.fetch_max(v, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn set_is_monotonic_and_reset_rewinds() {
        let s = Semaphore::new();
        assert_eq!(s.current(), 0);
        s.set(5);
        s.set(2);
        assert_eq!(s.current(), 5);
        s.reset();
        assert_eq!(s.current(), 0);
        s.set(3);
        assert_eq!(s.current(), 3);
    }

    /// Two threads race interleaved `set`s (one the even values, one the
    /// odd) while a third watches: the value never moves backwards and
    /// ends at the largest value either thread set.
    #[test]
    fn racing_sets_stay_monotonic() {
        const TOP: u64 = 200_000;
        let s = Semaphore::new();
        let start = Barrier::new(3);
        std::thread::scope(|scope| {
            for parity in 0..2 {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for v in (1..=TOP).filter(|v| v % 2 == parity) {
                        s.set(v);
                    }
                });
            }
            start.wait();
            let mut last = 0;
            while last < TOP {
                let now = s.current();
                assert!(now >= last, "semaphore went back from {last} to {now}");
                last = now;
            }
        });
        assert_eq!(s.current(), TOP);
    }
}
