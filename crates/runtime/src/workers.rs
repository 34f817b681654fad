//! Resident worker threads: the pool's workers `1..N`, parked between
//! runs instead of spawned per run.
//!
//! [`Workers::run`] is `std::thread::scope` with the spawn taken out: it
//! hands one borrowed closure to every resident thread, runs worker 0's
//! share inline on the caller, and does not return — or unwind — until
//! every thread has come back from the closure. That blocking wait is the
//! whole soundness argument for lending non-`'static` data (the caller's
//! inputs, its fault injector, the plan) to threads that outlive the
//! call: between runs a resident thread holds nothing but its own parked
//! stack. Dropping the pool joins the threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// What a run lends its workers: called once per worker with the
/// worker's index.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// The current job with its lifetime erased (see [`Workers::run`]).
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// SAFETY: the pointee is `Sync`, so calling it from another thread is
// allowed; that it is still alive when called is `Workers::run`'s
// obligation, argued there.
unsafe impl Send for JobPtr {}

struct State {
    /// Bumped once per job; a worker runs each generation exactly once.
    generation: u64,
    /// The job of the current generation; present only while
    /// [`Workers::run`] is on its caller's stack.
    job: Option<JobPtr>,
    /// Resident workers that have not yet returned from the current job.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for the next generation (or shutdown).
    start: Condvar,
    /// The caller waits here for `active` to reach zero.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // No code path panics while holding this lock; the payload is
        // plain counters, valid at every step.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The resident threads of one [`ExecArena`](crate::ExecArena).
pub(crate) struct Workers {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Threads spawned over this pool's lifetime (resizes included).
    spawned: u64,
}

impl Workers {
    /// An empty pool: [`run`](Self::run) executes inline only.
    pub(crate) fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    generation: 0,
                    job: None,
                    active: 0,
                    shutdown: false,
                }),
                start: Condvar::new(),
                done: Condvar::new(),
            }),
            handles: Vec::new(),
            spawned: 0,
        }
    }

    /// Threads spawned so far — the plan-hit test's evidence that a warm
    /// run spawns nothing.
    pub(crate) fn spawned(&self) -> u64 {
        self.spawned
    }

    /// Makes the pool hold exactly `n` resident threads (workers
    /// `1..=n`). A size change retires the old threads and spawns a
    /// fresh set; the common case — same size as last run — does
    /// nothing.
    pub(crate) fn resize(&mut self, n: usize) {
        if self.handles.len() == n {
            return;
        }
        let spawned = self.spawned;
        *self = Self::new();
        self.spawned = spawned;
        for w in 1..=n {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("msccl-worker-{w}"))
                .spawn(move || resident(&shared, w))
                .expect("spawn executor worker thread");
            self.handles.push(handle);
            self.spawned += 1;
        }
    }

    /// Calls `job(w)` on every resident worker `w` and `job(0)` on the
    /// calling thread, returning once all of them have returned. A
    /// panicking `job` is contained on resident threads (the executor's
    /// job catches its own panics and converts them to a cancellation
    /// first); on the calling thread it propagates, after the wait.
    pub(crate) fn run(&mut self, job: &Job<'_>) {
        if !self.handles.is_empty() {
            let ptr: *const Job<'_> = job;
            // SAFETY (lifetime erasure): resident threads dereference
            // this pointer only between the publish below and their
            // decrement of `active`, and `Quiesce` — dropped on return
            // *and* on unwind — blocks this frame until `active` is
            // zero and unpublishes the pointer. `job` is borrowed for
            // this whole frame, so every dereference happens while the
            // borrow is live. `&mut self` rules out a second run
            // publishing over this one.
            let erased =
                JobPtr(unsafe { std::mem::transmute::<*const Job<'_>, *const Job<'static>>(ptr) });
            let mut state = self.shared.lock();
            state.job = Some(erased);
            state.generation += 1;
            state.active = self.handles.len();
            drop(state);
            self.shared.start.notify_all();
        }
        let _quiesce = Quiesce(&self.shared);
        job(0);
    }
}

/// Blocks until every resident worker has returned from the current job.
struct Quiesce<'a>(&'a Shared);

impl Drop for Quiesce<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        while state.active > 0 {
            state = self
                .0
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.start.notify_all();
        for handle in self.handles.drain(..) {
            // A resident thread catches every job panic, so a join error
            // would mean the loop itself broke; nothing to do about it
            // from a destructor.
            let _ = handle.join();
        }
    }
}

/// One resident thread: wait for a generation, run its job, report back.
fn resident(shared: &Shared, w: usize) {
    let mut seen = 0;
    loop {
        let job = {
            let mut state = shared.lock();
            while state.generation == seen && !state.shutdown {
                state = shared
                    .start
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.shutdown {
                return;
            }
            seen = state.generation;
            state.job.expect("a published generation carries its job")
        };
        // SAFETY: `Workers::run` published this pointer for the current
        // generation and stays blocked in `Quiesce` until this thread's
        // decrement below — which comes after the call has returned — so
        // the closure and everything it borrows are alive throughout.
        let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(w) }));
        let mut state = shared.lock();
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every worker index runs exactly once per job, borrowed stack data
    /// is visible to all of them, and the pool is reusable across jobs.
    #[test]
    fn runs_each_worker_once_per_job_over_borrowed_data() {
        let mut pool = Workers::new();
        pool.resize(3);
        for round in 1..=50usize {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(&|w| {
                hits[w].fetch_add(round, Ordering::Relaxed);
            });
            let got: Vec<usize> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
            assert_eq!(got, vec![round; 4]);
        }
        assert_eq!(pool.spawned(), 3);
    }

    /// A job panicking on a resident thread neither kills the thread nor
    /// wedges the caller; a panic on the calling thread propagates only
    /// after the residents have quiesced.
    #[test]
    fn job_panics_are_contained_and_the_pool_survives() {
        let mut pool = Workers::new();
        pool.resize(2);
        pool.run(&|w| assert!(w != 1, "resident worker 1 panics"));
        let finished = AtomicUsize::new(0);
        let inline = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                assert!(w != 0, "the caller's share panics");
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(inline.is_err());
        assert_eq!(
            finished.load(Ordering::SeqCst),
            2,
            "unwound before quiescence"
        );
        let ran = AtomicUsize::new(0);
        pool.run(&|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    /// Resizing retires the old threads; an empty pool runs inline.
    #[test]
    fn resize_respawns_and_zero_is_inline_only() {
        let mut pool = Workers::new();
        pool.resize(2);
        pool.resize(2);
        assert_eq!(pool.spawned(), 2);
        pool.resize(0);
        let ran = AtomicUsize::new(0);
        pool.run(&|w| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        pool.resize(1);
        assert_eq!(pool.spawned(), 3);
    }
}
