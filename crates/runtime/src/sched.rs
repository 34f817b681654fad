//! Work-stealing scheduler for resumable thread-block tasks.
//!
//! The executor compiles each IR thread block into a resumable state
//! machine (`TbTask` in [`crate::task`]) and runs all of them on a
//! fixed pool of `min(num_cpus, num_tbs)` worker threads instead of one
//! OS thread per block. This module is the machinery under that: per-
//! worker run queues with stealing, a wait table recording *what* each
//! task is blocked on, one timer slot per task for sleeps and hang
//! deadlines, and a [`Parker`] that lets idle workers sleep without
//! polling. All of it is sized from the execution plan's dense task and
//! connection indices when the plan is built and [`reset`] between runs:
//! blocking and waking are a compare-and-swap on a flat slot array, with
//! no lock, hash or allocation.
//!
//! Ownership discipline: a task index lives in **exactly one** place at
//! any moment — some worker's deque, the global injector, its wait
//! slot, or "running" on a worker. Every transfer is a removal from one
//! place followed by an insertion into another (a deque lock, or the
//! compare-and-swap that empties a wait slot), so a task can never be
//! run by two workers at once.
//!
//! The blocked path uses *register-then-recheck*: the worker writes the
//! key into the task's wait slot, then re-probes the condition. If the
//! condition turned true in between, whoever empties the slot first
//! (the worker itself, or a waker that got there between the write and
//! the probe) owns the single ticket to make the task runnable again.
//! Combined with wakers that fire *after* publishing their state
//! (semaphore set, FIFO push), no wakeup can be lost.
//!
//! Parking uses a sequence lock: producers bump [`Parker::bump`] after
//! every enqueue, and a worker only sleeps if the sequence is unchanged
//! from before it last probed the queues. The run's [`CancelToken`]
//! holds the parker and bumps it when it trips, which turns a
//! cancellation anywhere into an immediate wakeup of every parked worker
//! — no sleep anywhere in the executor is sliced by a poll interval.
//!
//! [`CancelToken`]: crate::cancel::CancelToken
//! [`reset`]: Scheduler::reset

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use msccl_metrics::{bucket_index, BUCKETS};

use crate::flight::{
    encode_key, FlightRecorder, KEY_TAG_RECV, KEY_TAG_SEM, KEY_TAG_SEND, KEY_TAG_SLEEP,
};

fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// What a blocked task is waiting for. The task that makes the condition
/// true wakes the key; tasks whose condition involves a timeout also arm
/// a timer so hangs are detected without any waker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum WakeKey {
    /// Task `i`'s own semaphore advanced (dependency waits).
    Sem(usize),
    /// Connection `i`'s FIFO received a tile (receive waits).
    Recv(usize),
    /// Connection `i`'s FIFO freed a slot (send waits on a full FIFO).
    Send(usize),
    /// Task `i`'s private timer (fault stalls, straggle pauses, delivery
    /// delays) — nothing wakes this key except its timer slot and
    /// cancellation.
    Sleep(usize),
}

impl WakeKey {
    /// Compact encoding for flight-recorder payloads.
    pub(crate) fn flight_code(self) -> u64 {
        match self {
            WakeKey::Sem(i) => encode_key(KEY_TAG_SEM, i),
            WakeKey::Recv(i) => encode_key(KEY_TAG_RECV, i),
            WakeKey::Send(i) => encode_key(KEY_TAG_SEND, i),
            WakeKey::Sleep(i) => encode_key(KEY_TAG_SLEEP, i),
        }
    }

    /// The key as a wait-slot word: its flight code plus one, so that
    /// [`NOT_WAITING`] (zero) never names a key.
    fn slot(self) -> u64 {
        self.flight_code() + 1
    }

    /// Inverse of [`slot`](Self::slot) for a non-zero slot word.
    fn from_slot(word: u64) -> Self {
        let code = word - 1;
        let i = (code & 0x0FFF_FFFF) as usize;
        match code >> 28 {
            KEY_TAG_SEM => WakeKey::Sem(i),
            KEY_TAG_RECV => WakeKey::Recv(i),
            KEY_TAG_SEND => WakeKey::Send(i),
            _ => WakeKey::Sleep(i),
        }
    }

    /// Human rendering for the black-box wait-table snapshot.
    pub(crate) fn render(self) -> String {
        match self {
            WakeKey::Sem(i) => format!("sem({i})"),
            WakeKey::Recv(i) => format!("recv({i})"),
            WakeKey::Send(i) => format!("send({i})"),
            WakeKey::Sleep(i) => format!("sleep({i})"),
        }
    }
}

/// A wait slot holding no key: the task is running, runnable or done.
const NOT_WAITING: u64 = 0;
/// A timer slot holding no deadline.
const NO_DEADLINE: u64 = u64::MAX;

/// The pool's sleep/wake rendezvous: a sequence counter under a mutex
/// plus a condvar. Producers bump after enqueuing; a worker reads the
/// sequence, re-probes the queues, and only then sleeps — a bump between
/// the read and the sleep aborts the sleep, so wakeups cannot be lost.
pub(crate) struct Parker {
    /// `(sequence, workers asleep on the condvar)`. The sleeper count
    /// lives under the same lock as the sequence, so a bump that finds
    /// nobody asleep can skip the notify (a futex syscall) knowing no
    /// worker can be between its sequence check and its wait.
    seq: Mutex<(u64, usize)>,
    cv: Condvar,
}

impl Parker {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            seq: Mutex::new((0, 0)),
            cv: Condvar::new(),
        })
    }

    /// Current sequence; take this *before* the final queue probe.
    pub(crate) fn epoch(&self) -> u64 {
        relock(self.seq.lock()).0
    }

    /// Advances the sequence and wakes every parked worker. Called after
    /// each enqueue and timer arm, and by a tripping cancel token.
    pub(crate) fn bump(&self) {
        let mut guard = relock(self.seq.lock());
        guard.0 = guard.0.wrapping_add(1);
        if guard.1 > 0 {
            self.cv.notify_all();
        }
    }

    /// Sleeps until a bump past `seen`, `until` (when set), or a
    /// spurious wakeup. Returns immediately if the sequence already
    /// moved.
    pub(crate) fn park(&self, seen: u64, until: Option<Instant>) {
        let mut guard = relock(self.seq.lock());
        if guard.0 != seen {
            return;
        }
        guard.1 += 1;
        let mut guard = match until {
            Some(at) => {
                let remaining = at.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    guard
                } else {
                    relock(self.cv.wait_timeout(guard, remaining)).0
                }
            }
            None => relock(self.cv.wait(guard)),
        };
        guard.1 -= 1;
    }
}

/// Counters the scheduler keeps about itself, read after the run for the
/// `msccl_sched_*` metrics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SchedStats {
    /// Tasks a worker took from another worker's deque.
    pub(crate) steals: u64,
    /// Times a worker went to sleep with nothing runnable.
    pub(crate) parks: u64,
    /// Total nanoseconds workers spent parked.
    pub(crate) park_ns: u64,
    /// Peak number of runnable tasks queued at once.
    pub(crate) peak_runnable: u64,
}

/// Wait-table snapshot frozen at cancellation: each blocked key with the
/// task indices parked on it.
type CapturedWaits = Vec<(WakeKey, Vec<usize>)>;

/// Who can be waiting on each key — a function of the program alone, so
/// the plan resolves it once: a connection's FIFO has the receiving
/// (sending) thread block as the only possible waiter on its `Recv`
/// (`Send`) key, and a semaphore's waiters are the blocks with a
/// dependency on its owner. (`Sleep(i)` can hold only task `i`.) The
/// lists, not a one-waiter assumption, are what `wake` walks, so
/// hand-built IR that shares a connection between blocks still wakes all
/// of them.
pub(crate) struct Waiters {
    /// Per connection index: tasks receiving from it.
    pub(crate) recv: Vec<Vec<usize>>,
    /// Per connection index: tasks sending into it.
    pub(crate) send: Vec<Vec<usize>>,
    /// Per task index: tasks with a dependency on that task's semaphore.
    pub(crate) sem: Vec<Vec<usize>>,
}

/// The work-stealing scheduler: run queues, wait table, timers, parker.
/// Built once per execution plan and [`reset`](Self::reset) between
/// runs; nothing in it allocates on the run path.
pub(crate) struct Scheduler {
    /// One deque per worker. Owners pop the back (LIFO, cache-warm);
    /// thieves and wakers touch the front/back under the same mutex.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Overflow/fairness queue: timer-fired and drained tasks land here
    /// so any worker can pick them up.
    injector: Mutex<VecDeque<usize>>,
    /// The wait table, one slot per task: the key the task is parked on
    /// ([`WakeKey::slot`]) or [`NOT_WAITING`]. Whoever swings a slot back
    /// to `NOT_WAITING` holds the single ticket to make that task
    /// runnable — a waker, a fired timer, the cancellation drain, or the
    /// blocking worker itself when its re-probe succeeds.
    waiting: Vec<AtomicU64>,
    waiters: Waiters,
    /// One timer per task (a task has at most one wait in flight): the
    /// hang deadline or sleep expiry of its latest wait, in nanoseconds
    /// since `origin`, or [`NO_DEADLINE`]. A slot outliving its wait is
    /// harmless — firing it finds the task not waiting, or wakes it
    /// spuriously into a re-probe.
    deadlines: Vec<AtomicU64>,
    /// The earliest deadline the last idle scan (or a later arm) saw: an
    /// arm earlier than this re-bounds the parked workers' sleeps.
    earliest: AtomicU64,
    origin: Instant,
    pub(crate) parker: Arc<Parker>,
    /// Tasks not yet finished; workers exit when this hits zero.
    remaining: AtomicUsize,
    /// Tasks currently sitting in some queue (not running, not waiting).
    runnable: AtomicUsize,
    peak_runnable: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    /// Per-log2-bucket park-episode counts and nanosecond sums, folded
    /// into the `msccl_sched_park_ns` histogram after the run. Kept here
    /// (not in the registry) so parking stays registry-free on the idle
    /// path and the runtime's lazy metric policy is preserved.
    park_bucket_counts: Box<[AtomicU64]>,
    park_bucket_ns: Box<[AtomicU64]>,
    /// First-wins snapshot of the wait table, captured by whichever
    /// worker first observes cancellation — *before* `drain_waiting`
    /// scatters the evidence into the injector.
    captured_waits: Mutex<Option<CapturedWaits>>,
    /// The always-on flight recorder, when this run keeps one.
    flight: Option<Arc<FlightRecorder>>,
}

impl Scheduler {
    /// A scheduler for `num_tasks` tasks on `workers` worker threads,
    /// with the initial tasks dealt round-robin across the deques.
    pub(crate) fn new(workers: usize, num_tasks: usize, waiters: Waiters) -> Self {
        let mut sched = Self {
            deques: (0..workers)
                .map(|_| Mutex::new(VecDeque::with_capacity(num_tasks)))
                .collect(),
            injector: Mutex::new(VecDeque::with_capacity(num_tasks)),
            waiting: (0..num_tasks).map(|_| AtomicU64::new(0)).collect(),
            waiters,
            deadlines: (0..num_tasks).map(|_| AtomicU64::new(0)).collect(),
            earliest: AtomicU64::new(NO_DEADLINE),
            origin: Instant::now(),
            parker: Parker::new(),
            remaining: AtomicUsize::new(0),
            runnable: AtomicUsize::new(0),
            peak_runnable: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            park_bucket_counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            park_bucket_ns: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            captured_waits: Mutex::new(None),
            flight: None,
        };
        sched.reset(None);
        sched
    }

    /// Returns the scheduler to its just-built state for the next run —
    /// every task runnable and dealt round-robin, wait and timer slots
    /// empty, counters zero — whatever a failed run left behind. `flight`,
    /// when given, receives this run's steal/park/wake records.
    pub(crate) fn reset(&mut self, flight: Option<Arc<FlightRecorder>>) {
        let num_tasks = self.waiting.len();
        let workers = self.deques.len();
        for (w, deque) in self.deques.iter_mut().enumerate() {
            let deque = relock(deque.get_mut());
            deque.clear();
            deque.extend((w..num_tasks).step_by(workers));
        }
        relock(self.injector.get_mut()).clear();
        for slot in &mut self.waiting {
            *slot.get_mut() = NOT_WAITING;
        }
        for slot in &mut self.deadlines {
            *slot.get_mut() = NO_DEADLINE;
        }
        *self.earliest.get_mut() = NO_DEADLINE;
        *self.remaining.get_mut() = num_tasks;
        *self.runnable.get_mut() = num_tasks;
        *self.peak_runnable.get_mut() = num_tasks as u64;
        *self.steals.get_mut() = 0;
        *self.parks.get_mut() = 0;
        for b in self
            .park_bucket_counts
            .iter_mut()
            .chain(self.park_bucket_ns.iter_mut())
        {
            *b.get_mut() = 0;
        }
        *relock(self.captured_waits.get_mut()) = None;
        self.flight = flight;
    }

    /// Counts `n` tasks as runnable. Must be called *before* the tasks
    /// are published to a queue: a peer can pop a published task
    /// immediately, and its decrement landing before this increment
    /// would wrap the counter. A transient over-count is harmless.
    fn note_enqueued(&self, n: usize) {
        let now = self.runnable.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_runnable.fetch_max(now as u64, Ordering::Relaxed);
    }

    /// Next task for worker `w`: own deque first (LIFO), then the
    /// injector, then stealing from the other deques (FIFO — the
    /// coldest work).
    pub(crate) fn pop(&self, w: usize) -> Option<usize> {
        if let Some(t) = relock(self.deques[w].lock()).pop_back() {
            self.runnable.fetch_sub(1, Ordering::Relaxed);
            return Some(t);
        }
        if let Some(t) = relock(self.injector.lock()).pop_front() {
            self.runnable.fetch_sub(1, Ordering::Relaxed);
            return Some(t);
        }
        let n = self.deques.len();
        for i in 1..n {
            let victim = (w + i) % n;
            if let Some(t) = relock(self.deques[victim].lock()).pop_front() {
                self.runnable.fetch_sub(1, Ordering::Relaxed);
                self.steals.fetch_add(1, Ordering::Relaxed);
                if let Some(fl) = &self.flight {
                    fl.steal(w, victim, t);
                }
                return Some(t);
            }
        }
        None
    }

    /// Takes `task`'s wake ticket if it is parked on `key`. The read-
    /// modify-write is the ownership transfer: exactly one claimant per
    /// registration succeeds.
    fn claim(&self, task: usize, key: u64) -> bool {
        self.waiting[task]
            .compare_exchange(key, NOT_WAITING, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn since_origin(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos())
            .unwrap_or(NO_DEADLINE - 1)
    }

    /// Registers `task` as blocked on `key`, arms `timer` (a hang
    /// deadline or a sleep expiry) when given, then re-probes the
    /// condition via `probe`. Returns `true` when the condition is
    /// already satisfied *and* this call won the race to reclaim the
    /// task — the caller keeps running it. On `false` the task is
    /// parked (or a concurrent waker owns its re-enqueue).
    pub(crate) fn block(
        &self,
        task: usize,
        key: WakeKey,
        timer: Option<Instant>,
        probe: impl FnOnce() -> bool,
    ) -> bool {
        // A read-modify-write, not a store: it orders this registration
        // after a concurrent drain's swap, so the probe below cannot
        // miss the cancellation that drain was reacting to.
        self.waiting[task].swap(key.slot(), Ordering::SeqCst);
        // Armed after registering, so a concurrent timer scan can never
        // consume the deadline of a task that is not parked yet. Only
        // the worker holding the task writes its timer slot.
        if let Some(at) = timer {
            let at = self.since_origin(at);
            self.deadlines[task].store(at, Ordering::SeqCst);
            // Parked workers bound their sleep by the earliest deadline
            // their idle scan saw; only an earlier one must re-bound
            // them. (This worker rescans before it parks in any case, so
            // the bump buys promptness under load, not detection.)
            if at < self.earliest.fetch_min(at, Ordering::SeqCst) {
                self.parker.bump();
            }
        }
        probe() && self.claim(task, key.slot())
    }

    /// Makes every task blocked on `key` runnable on worker `w`'s deque.
    /// Call *after* publishing the state the key stands for. Returns how
    /// many tasks were woken.
    pub(crate) fn wake(&self, key: WakeKey, w: usize) -> usize {
        let slot = key.slot();
        let mut n = 0;
        let mut claim = |t: usize| {
            if self.waiting[t].load(Ordering::SeqCst) == slot && self.claim(t, slot) {
                self.note_enqueued(1);
                relock(self.deques[w].lock()).push_back(t);
                n += 1;
            }
        };
        match key {
            WakeKey::Sem(i) => self.waiters.sem[i].iter().copied().for_each(claim),
            WakeKey::Recv(i) => self.waiters.recv[i].iter().copied().for_each(claim),
            WakeKey::Send(i) => self.waiters.send[i].iter().copied().for_each(claim),
            WakeKey::Sleep(i) => claim(i),
        }
        if n > 0 {
            self.parker.bump();
            if let Some(fl) = &self.flight {
                fl.wake(w, key.flight_code(), n);
            }
        }
        n
    }

    /// Fires every timer at or before `now`: each task still parked
    /// moves to the injector (the task re-probes its condition itself —
    /// a fired hang deadline makes it fail, a fired sleep makes it
    /// continue). Returns whether anything was woken and the next
    /// pending fire time.
    pub(crate) fn fire_timers(&self, now: Instant) -> (bool, Option<Instant>) {
        let now = self.since_origin(now);
        let mut next = NO_DEADLINE;
        let mut woke = false;
        for (t, slot) in self.deadlines.iter().enumerate() {
            let at = slot.load(Ordering::SeqCst);
            if at > now {
                next = next.min(at);
                continue;
            }
            // Disarm only the deadline that was read: a fresh wait may
            // have re-armed the slot since.
            if slot
                .compare_exchange(at, NO_DEADLINE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            let key = self.waiting[t].load(Ordering::SeqCst);
            if key != NOT_WAITING && self.claim(t, key) {
                self.note_enqueued(1);
                relock(self.injector.lock()).push_back(t);
                woke = true;
            }
        }
        self.earliest.store(next, Ordering::SeqCst);
        let next = (next != NO_DEADLINE).then(|| self.origin + Duration::from_nanos(next));
        (woke, next)
    }

    /// Moves every waiting task to the injector — the cancellation path:
    /// each woken task observes the tripped token and unwinds, so the
    /// run drains within wakeup latency instead of timeout bounds.
    pub(crate) fn drain_waiting(&self) {
        let mut drained = 0;
        for (t, slot) in self.waiting.iter().enumerate() {
            if slot.swap(NOT_WAITING, Ordering::SeqCst) != NOT_WAITING {
                self.note_enqueued(1);
                relock(self.injector.lock()).push_back(t);
                drained += 1;
            }
        }
        if drained > 0 {
            self.parker.bump();
        }
    }

    /// Marks one task finished. The last finish wakes every parked
    /// worker so the pool can exit.
    pub(crate) fn task_done(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.parker.bump();
        }
    }

    /// Whether every task has finished (the workers' exit condition).
    pub(crate) fn is_finished(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Parks worker `w` until the parker sequence moves past `seen` or
    /// `until` arrives, and buckets how long the nap actually lasted.
    /// The two clock reads live on the *idle* path — a worker only gets
    /// here with nothing runnable — so measuring costs nothing where
    /// throughput is made.
    pub(crate) fn park(&self, w: usize, seen: u64, until: Option<Instant>) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        self.parker.park(seen, until);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let b = bucket_index(ns);
        self.park_bucket_counts[b].fetch_add(1, Ordering::Relaxed);
        self.park_bucket_ns[b].fetch_add(ns, Ordering::Relaxed);
        if let Some(fl) = &self.flight {
            fl.park(w, ns / 1_000);
        }
    }

    /// Non-empty park-time buckets as `(bucket, episodes, total_ns)`,
    /// for folding into the `msccl_sched_park_ns` histogram.
    pub(crate) fn park_histogram(&self) -> Vec<(usize, u64, u64)> {
        (0..BUCKETS)
            .filter_map(|b| {
                let count = self.park_bucket_counts[b].load(Ordering::Relaxed);
                (count > 0).then(|| (b, count, self.park_bucket_ns[b].load(Ordering::Relaxed)))
            })
            .collect()
    }

    /// Captures the wait table for the post-mortem wait-for graph. First
    /// capture wins; callers invoke this *before* [`drain_waiting`]
    /// (which empties the table to tear the run down) so the evidence of
    /// who-waited-on-what survives cancellation.
    ///
    /// [`drain_waiting`]: Self::drain_waiting
    pub(crate) fn capture_waits(&self) {
        let mut slot = relock(self.captured_waits.lock());
        if slot.is_none() {
            let mut parked: Vec<(WakeKey, usize)> = self
                .waiting
                .iter()
                .enumerate()
                .filter_map(|(t, s)| match s.load(Ordering::SeqCst) {
                    NOT_WAITING => None,
                    word => Some((WakeKey::from_slot(word), t)),
                })
                .collect();
            parked.sort_unstable();
            let mut snap: CapturedWaits = Vec::new();
            for (key, t) in parked {
                match snap.last_mut() {
                    Some((k, tasks)) if *k == key => tasks.push(t),
                    _ => snap.push((key, vec![t])),
                }
            }
            *slot = Some(snap);
        }
    }

    /// The captured wait table (empty when the run never cancelled),
    /// rendered for the black box.
    pub(crate) fn captured_waits(&self) -> Vec<(String, Vec<usize>)> {
        relock(self.captured_waits.lock())
            .as_ref()
            .map(|snap| snap.iter().map(|(k, v)| (k.render(), v.clone())).collect())
            .unwrap_or_default()
    }

    /// The run's scheduler counters, read after the workers join.
    pub(crate) fn stats(&self) -> SchedStats {
        SchedStats {
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            park_ns: self
                .park_bucket_ns
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .sum(),
            peak_runnable: self.peak_runnable.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduler whose every key (8 connections) can hold any task.
    fn sched(workers: usize, num_tasks: usize) -> Scheduler {
        let all: Vec<usize> = (0..num_tasks).collect();
        let waiters = Waiters {
            recv: vec![all.clone(); 8],
            send: vec![all.clone(); 8],
            sem: vec![all; num_tasks],
        };
        Scheduler::new(workers, num_tasks, waiters)
    }

    #[test]
    fn seeds_tasks_round_robin_and_pops_own_first() {
        let s = sched(2, 5);
        // Worker 0 got 0, 2, 4; owner pops LIFO.
        assert_eq!(s.pop(0), Some(4));
        assert_eq!(s.pop(0), Some(2));
        assert_eq!(s.pop(0), Some(0));
        // Own deque empty: steal from worker 1's front (FIFO), counted.
        assert_eq!(s.pop(0), Some(1));
        assert_eq!(s.stats().steals, 1);
        assert_eq!(s.pop(1), Some(3));
        assert_eq!(s.pop(0), None);
        assert_eq!(s.stats().peak_runnable, 5);
    }

    #[test]
    fn block_reclaims_when_probe_turns_true() {
        let s = sched(1, 1);
        assert_eq!(s.pop(0), Some(0));
        // Condition already true at re-probe: the worker keeps the task.
        assert!(s.block(0, WakeKey::Sem(0), None, || true));
        // And the wait table is clean: a later wake finds nothing.
        assert_eq!(s.wake(WakeKey::Sem(0), 0), 0);
    }

    #[test]
    fn wake_moves_blocked_tasks_to_deque() {
        let s = sched(1, 2);
        assert_eq!(s.pop(0), Some(1));
        assert_eq!(s.pop(0), Some(0));
        assert!(!s.block(0, WakeKey::Recv(7), None, || false));
        assert_eq!(s.pop(0), None);
        assert_eq!(s.wake(WakeKey::Recv(7), 0), 1);
        assert_eq!(s.pop(0), Some(0));
    }

    #[test]
    fn timers_fire_into_injector() {
        let s = sched(1, 1);
        assert_eq!(s.pop(0), Some(0));
        let past = Instant::now() - Duration::from_millis(1);
        assert!(!s.block(0, WakeKey::Sleep(0), Some(past), || false));
        let (woke, next) = s.fire_timers(Instant::now());
        assert!(woke);
        assert_eq!(next, None);
        assert_eq!(s.pop(0), Some(0));
        // A stale timer for an ended wait is discarded silently.
        let (woke, _) = s.fire_timers(Instant::now());
        assert!(!woke);
    }

    #[test]
    fn drain_wakes_everything() {
        let s = sched(2, 3);
        for _ in 0..2 {
            s.pop(0);
        }
        s.pop(1);
        assert!(!s.block(0, WakeKey::Sem(1), None, || false));
        assert!(!s.block(1, WakeKey::Sleep(1), None, || false));
        assert!(!s.block(2, WakeKey::Send(3), None, || false));
        s.drain_waiting();
        let mut got = [s.pop(0), s.pop(0), s.pop(0)]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn finish_accounting_reaches_zero() {
        let s = sched(1, 2);
        assert!(!s.is_finished());
        s.task_done();
        assert!(!s.is_finished());
        s.task_done();
        assert!(s.is_finished());
    }

    /// The parker's sequence protocol: a bump between epoch-read and
    /// park aborts the park, so an enqueue cannot be slept through.
    #[test]
    fn parker_bump_between_probe_and_park_aborts_sleep() {
        let s = sched(1, 1);
        let seen = s.parker.epoch();
        s.parker.bump();
        let t0 = Instant::now();
        s.park(0, seen, Some(Instant::now() + Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(s.stats().parks, 1);
    }

    /// A waker only claims tasks parked on *its* key, and a claimed task
    /// cannot be claimed twice (timer fire after wake finds nothing).
    #[test]
    fn one_ticket_per_registration() {
        let s = sched(1, 2);
        s.pop(0);
        s.pop(0);
        let soon = Instant::now() - Duration::from_millis(1);
        assert!(!s.block(0, WakeKey::Send(2), Some(soon), || false));
        assert!(!s.block(1, WakeKey::Recv(2), None, || false));
        assert_eq!(s.wake(WakeKey::Send(2), 0), 1);
        let (woke, next) = s.fire_timers(Instant::now());
        assert!(!woke, "the waker already took task 0's ticket");
        assert_eq!(next, None);
        assert_eq!(s.pop(0), Some(0));
        assert_eq!(s.pop(0), None);
    }

    /// The captured wait table groups tasks under sorted keys, and
    /// `reset` returns a dirty scheduler (parked tasks, an armed timer, a
    /// capture) to its just-built state.
    #[test]
    fn capture_renders_sorted_and_reset_clears_everything() {
        let mut s = sched(2, 3);
        while s.pop(0).is_some() {}
        let later = Instant::now() + Duration::from_secs(60);
        assert!(!s.block(2, WakeKey::Sem(1), Some(later), || false));
        assert!(!s.block(0, WakeKey::Sem(1), None, || false));
        assert!(!s.block(1, WakeKey::Recv(0), None, || false));
        s.capture_waits();
        assert_eq!(
            s.captured_waits(),
            vec![
                ("sem(1)".to_string(), vec![0, 2]),
                ("recv(0)".to_string(), vec![1]),
            ]
        );
        s.reset(None);
        assert!(s.captured_waits().is_empty());
        assert_eq!(s.wake(WakeKey::Sem(1), 0), 0, "wait slots cleared");
        assert_eq!(s.fire_timers(Instant::now()).1, None, "timer slots cleared");
        assert_eq!(s.pop(0), Some(2));
        assert_eq!(s.pop(0), Some(0));
        assert_eq!(s.pop(1), Some(1));
        assert!(!s.is_finished());
    }
}
