//! Cooperative cancellation shared by every worker of one execution.
//!
//! The first failure anywhere — a blocking-step timeout, the global
//! deadline, a panic, an injected kill — cancels the token and records
//! the *originating* failure. Cancellation is **event-driven**: the only
//! threads that ever sleep during a run are pool workers parked on the
//! scheduler's [`Parker`], so the token holds that parker and
//! [`CancelToken::cancel`] bumps it after tripping the flag. No wait
//! anywhere in the runtime polls the token on a timer; a parked worker
//! observes cancellation as one wakeup, so the run reports one precise
//! origin instead of a cascade of secondary timeouts — and idle workers
//! burn no CPU slicing their sleeps.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::sched::Parker;

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
/// origin of the first failure and the parker to bump when it trips.
pub(crate) struct CancelToken {
    cancelled: AtomicBool,
    origin: Mutex<Option<(FailureOrigin, Instant)>>,
    parker: Arc<Parker>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish_non_exhaustive()
    }
}

impl CancelToken {
    /// A token that wakes the workers parked on `parker` when it trips.
    pub(crate) fn new(parker: Arc<Parker>) -> Self {
        Self {
            cancelled: AtomicBool::new(false),
            origin: Mutex::new(None),
            parker,
        }
    }

    /// Re-arms a tripped token for the next run of the plan that owns
    /// it. Must not race with a run: the plan calls it with every worker
    /// idle.
    pub(crate) fn reset(&self) {
        *self.origin.lock().unwrap_or_else(PoisonError::into_inner) = None;
        self.cancelled.store(false, Ordering::Release);
    }

    /// Whether some worker has already failed.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Records `origin` (with the cancellation instant), trips the flag
    /// and wakes every parked worker. The bump comes after the flag store
    /// and moves the parker's sequence under its lock, so a worker that
    /// read the sequence before the trip cannot sleep through it: its
    /// park sees the sequence changed and returns at once. Only the first
    /// caller's origin is kept; returns whether this call was the first.
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
        self.parker.bump();
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
        let t = CancelToken::new(Parker::new());
        assert!(!t.is_cancelled());
        assert!(t.origin().is_none());
        assert!(t.cancel(origin(3)));
        assert!(!t.cancel(origin(7)));
        assert!(t.is_cancelled());
        assert_eq!(t.origin().unwrap().rank, 3);
        t.reset();
        assert!(!t.is_cancelled());
        assert!(t.origin().is_none());
    }

    /// The lost-wakeup window: a worker reads the parker sequence, the
    /// token trips, and only then does the worker park. The trip moved
    /// the sequence, so the park returns instead of sleeping to its
    /// bound.
    #[test]
    fn trip_after_the_sequence_read_still_wakes() {
        let parker = Parker::new();
        let t = CancelToken::new(Arc::clone(&parker));
        let seen = parker.epoch();
        t.cancel(origin(0));
        let t0 = Instant::now();
        parker.park(seen, Some(t0 + Duration::from_secs(30)));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    /// A worker already asleep on the parker is woken by a trip on
    /// another thread long before its own bound, and finds the origin
    /// recorded.
    #[test]
    fn trip_wakes_a_parked_worker() {
        let parker = Parker::new();
        let t = CancelToken::new(Arc::clone(&parker));
        let (ready, go) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let seen = parker.epoch();
                ready.send(()).unwrap();
                let t0 = Instant::now();
                parker.park(seen, Some(t0 + Duration::from_secs(30)));
                (t.origin().map(|o| o.rank), t0.elapsed())
            });
            // Whether the trip lands before or after the worker is
            // actually asleep, the sequence protocol wakes it.
            go.recv().unwrap();
            t.cancel(origin(5));
            let (rank, took) = worker.join().unwrap();
            assert_eq!(rank, Some(5));
            assert!(took < Duration::from_secs(5), "took {took:?}");
        });
    }
}
