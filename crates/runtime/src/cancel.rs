//! Cooperative cancellation shared by every worker of one execution.
//!
//! The first failure anywhere — a blocking-step timeout, the global
//! deadline, a panic, an injected kill — cancels the token and records
//! the *originating* failure. Cancellation is **event-driven**: parked
//! waiters (the scheduler's worker pool, or a primitive's condvar in the
//! blocking test APIs) register a [`Poke`] waker on the token, and
//! [`CancelToken::cancel`] notifies every registered waker after
//! tripping the flag. No wait anywhere in the runtime polls the token on
//! a timer; a blocked thread observes cancellation as one wakeup, so the
//! run reports one precise origin instead of a cascade of secondary
//! timeouts — and idle workers burn no CPU slicing their sleeps.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::Instant;

/// A parked waiter that a cancellation must wake. Implementations lock
/// whatever mutex their condvar waits under before notifying, so the
/// wakeup can never race past a waiter that has checked the flag but not
/// yet parked (the classic lost-wakeup window).
pub(crate) trait Poke: Send + Sync {
    fn poke(&self);
}

/// Why an execution failed, as seen at the point of origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// A single blocking step exceeded the per-step timeout.
    StepTimeout,
    /// The global wall-clock deadline passed.
    Deadline,
    /// The worker panicked; carries the panic payload.
    Panic(String),
    /// A planned fault killed the thread block; carries the fault.
    InjectedKill(String),
}

impl FailureCause {
    /// Stable machine-readable label used by the black-box dump format.
    pub fn label(&self) -> &'static str {
        match self {
            FailureCause::StepTimeout => "hang",
            FailureCause::Deadline => "deadline",
            FailureCause::Panic(_) => "panic",
            FailureCause::InjectedKill(_) => "injected_kill",
        }
    }

    /// The free-form payload carried by the cause, if any (panic message
    /// or the injected fault's plan line).
    pub fn detail(&self) -> &str {
        match self {
            FailureCause::StepTimeout | FailureCause::Deadline => "",
            FailureCause::Panic(s) | FailureCause::InjectedKill(s) => s,
        }
    }
}

/// The first failure of a run: who, where, why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureOrigin {
    /// Rank of the originating thread block.
    pub rank: usize,
    /// Thread block id.
    pub tb: usize,
    /// Step it was executing.
    pub step: usize,
    /// Why it failed.
    pub cause: FailureCause,
}

/// A shared flag workers check between instructions, plus the recorded
/// origin of the first failure and the wakers to notify when it trips.
#[derive(Default)]
pub(crate) struct CancelToken {
    cancelled: AtomicBool,
    origin: Mutex<Option<(FailureOrigin, Instant)>>,
    wakers: Mutex<Vec<Weak<dyn Poke>>>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish_non_exhaustive()
    }
}

impl CancelToken {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Re-arms a tripped token for the next run of the plan that owns
    /// it. Attached wakers stay attached. Must not race with a run: the
    /// plan calls it with every worker idle.
    pub(crate) fn reset(&self) {
        *self.origin.lock().unwrap_or_else(PoisonError::into_inner) = None;
        self.cancelled.store(false, Ordering::Release);
    }

    /// Whether some worker has already failed.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Registers a waker to notify when the token trips. Weak: the token
    /// may outlive the primitive it wakes. If the token has already
    /// tripped, the waker is poked immediately instead of stored, so a
    /// waiter that registers after the failure still cannot sleep through
    /// it.
    pub(crate) fn attach(&self, waker: Weak<dyn Poke>) {
        if self.is_cancelled() {
            if let Some(w) = waker.upgrade() {
                w.poke();
            }
            return;
        }
        let mut guard = self.wakers.lock().unwrap_or_else(PoisonError::into_inner);
        guard.push(waker);
        drop(guard);
        // Trip observed between the check and the push: the canceller may
        // have drained the list already, so poke from here.
        if self.is_cancelled() {
            self.poke_all();
        }
    }

    fn poke_all(&self) {
        let wakers = self.wakers.lock().unwrap_or_else(PoisonError::into_inner);
        for w in wakers.iter() {
            if let Some(w) = w.upgrade() {
                w.poke();
            }
        }
    }

    /// Records `origin` (with the cancellation instant), trips the flag
    /// and wakes every attached waiter. Only the first caller's origin is
    /// kept; returns whether this call was the first.
    pub(crate) fn cancel(&self, origin: FailureOrigin) -> bool {
        let mut guard = self.origin.lock().unwrap_or_else(PoisonError::into_inner);
        let first = guard.is_none();
        if first {
            *guard = Some((origin, Instant::now()));
        }
        drop(guard);
        // Release-store after the origin write so a worker that observes
        // the flag can rely on the origin being present.
        self.cancelled.store(true, Ordering::Release);
        self.poke_all();
        first
    }

    /// The recorded origin, if any worker failed.
    pub(crate) fn origin(&self) -> Option<FailureOrigin> {
        self.origin
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|(o, _)| o.clone())
    }

    /// When the first failure tripped the token, if any — the start of
    /// the cancellation drain the executor measures workers against.
    pub(crate) fn cancelled_at(&self) -> Option<Instant> {
        self.origin
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|&(_, at)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn origin(rank: usize) -> FailureOrigin {
        FailureOrigin {
            rank,
            tb: 0,
            step: 1,
            cause: FailureCause::StepTimeout,
        }
    }

    #[test]
    fn first_cancel_wins() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.origin().is_none());
        assert!(t.cancel(origin(3)));
        assert!(!t.cancel(origin(7)));
        assert!(t.is_cancelled());
        assert_eq!(t.origin().unwrap().rank, 3);
    }

    #[test]
    fn cancellation_is_visible_across_threads() {
        let t = CancelToken::new();
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            while !t2.is_cancelled() {
                std::thread::yield_now();
            }
            t2.origin().unwrap().rank
        });
        std::thread::sleep(Duration::from_millis(10));
        t.cancel(origin(5));
        assert_eq!(h.join().unwrap(), 5);
    }

    struct CountingPoke(AtomicUsize);
    impl Poke for CountingPoke {
        fn poke(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn cancel_pokes_attached_wakers() {
        let t = CancelToken::new();
        let p = Arc::new(CountingPoke(AtomicUsize::new(0)));
        t.attach(Arc::downgrade(&p) as Weak<dyn Poke>);
        t.cancel(origin(0));
        assert_eq!(p.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn attach_after_cancel_pokes_immediately() {
        let t = CancelToken::new();
        t.cancel(origin(0));
        let p = Arc::new(CountingPoke(AtomicUsize::new(0)));
        t.attach(Arc::downgrade(&p) as Weak<dyn Poke>);
        assert_eq!(p.0.load(Ordering::SeqCst), 1);
    }
}
