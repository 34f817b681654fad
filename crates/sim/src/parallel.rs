//! The round loop: conservative barrier-synchronized execution of the
//! per-node shards on one or more workers.
//!
//! # Rounds
//!
//! Let `fmin` be the globally earliest pending event and `L` the minimum
//! cross-node lookahead ([`crate::engine`] computes `L` as the smallest
//! `alpha × alpha_factor` over split connections). Every round processes,
//! on each shard independently, all events strictly below `fmin + L`.
//! Any cross-shard message emitted while processing an event at time
//! `t ≥ fmin` carries a timestamp `≥ t + L ≥ fmin + L` — a tile pays the
//! egress serialization plus the link latency, a credit pays the link
//! latency — so no message can land inside the round that produced it.
//! Shards are therefore perfectly independent within a round, and the
//! per-shard event sequences do not depend on which thread runs which
//! shard, in what order.
//!
//! Two degenerate modes keep the loop total:
//!
//! * no cross-node connections → the bound is `+∞` and a single round
//!   processes everything (a single-node program on one shard runs the
//!   classic serial event loop verbatim);
//! * zero (or negative) lookahead → the bound collapses to `fmin`
//!   *inclusive*, guaranteeing at least one event of progress per round;
//!   [`crate::engine::simulate`] also drops to one worker in this mode,
//!   since there is no conservative window to parallelize over.
//!
//! # Workers
//!
//! Worker `k` of `W` owns the contiguous block of shards
//! `k·n/W .. (k+1)·n/W`. The calling thread is worker 0 and `W − 1`
//! scoped threads are the others, so the serial engine is this loop with
//! one worker and no thread. There is no driver: in each round every
//! worker
//!
//! 1. publishes its block's earliest pending event into its own slot;
//! 2. waits at the barrier;
//! 3. derives `fmin` and the bound from all slots — every worker gets the
//!    same answer — and stops when no event is pending anywhere;
//! 4. runs its shards up to the bound;
//! 5. publishes whether one of its shards halted on an error;
//! 6. moves its shards' outbound messages, in shard order, into
//!    `exchange[k][owner(dst)]`;
//! 7. waits at the barrier;
//! 8. stops when any slot reports a halt;
//! 9. delivers `exchange[0][k]`, `exchange[1][k]`, … in that order to its
//!    own shards.
//!
//! Blocks are contiguous and increasing, so every destination receives
//! its messages in `(source shard, emission order)` order whatever the
//! worker count, and its queue assigns them the same sequence numbers.
//!
//! # Errors
//!
//! A shard that hits a structured error (an injected kill) records it as
//! a [`Candidate`] and halts; the workers stop at the end of that round
//! and the caller, holding every shard again, aborts with the
//! lexicographically smallest `(time, shard)` candidate. This equals the
//! first error a global merge would hit: the halted shard's unprocessed
//! events all order after its candidate, and every other shard processed
//! its sub-bound events error-free. When every queue drains with thread
//! blocks still unfinished, the run is deadlocked and the caller reports
//! [`SimError::Stuck`] at the latest time any shard reached.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

use msccl_faults::FaultInjector;

use crate::actor::Shard;
use crate::config::{f64_bits, SimConfig, SimError};
use crate::sync::{Candidate, Outbound};

/// Everything a shard needs to process events, shared read-only across
/// workers.
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'a> {
    pub config: &'a SimConfig,
    pub params: &'a msccl_topology::ProtocolParams,
    pub tile_bytes: f64,
    pub num_tiles: usize,
    pub injector: Option<&'a FaultInjector>,
}

/// The round bound for the next round: `(bound, inclusive)`.
fn bound_for(fmin: f64, lookahead: Option<f64>) -> (f64, bool) {
    match lookahead {
        None => (f64::INFINITY, true),
        Some(l) if l > 0.0 => (fmin + l, false),
        Some(_) => (fmin, true),
    }
}

/// The minimum pending-event time, or `None` when every queue is drained
/// (or owned by a finished shard). Ties keep the first, so folding
/// per-block minima in block order equals one fold over all shards.
fn fmin_of(times: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    times.flatten().fold(None, |acc: Option<f64>, t| {
        Some(match acc {
            None => t,
            Some(a) if t < a => t,
            Some(a) => a,
        })
    })
}

/// The end-of-run verdict once every queue is drained.
fn finish(
    all_done: bool,
    last_time: f64,
    injector: Option<&FaultInjector>,
) -> Result<(), SimError> {
    if all_done {
        Ok(())
    } else {
        Err(SimError::Stuck {
            at_us: f64_bits::from_f64(last_time),
            fired_faults: injector.map(FaultInjector::fired).unwrap_or_default(),
        })
    }
}

/// Picks the abort winner among the halted shards' candidates, if any.
fn resolve_candidates(candidates: impl Iterator<Item = Candidate>) -> Option<SimError> {
    let mut winner: Option<Candidate> = None;
    for c in candidates {
        if winner.as_ref().is_none_or(|w| c.beats(w)) {
            winner = Some(c);
        }
    }
    winner.map(|w| w.error)
}

/// Drives the shards to completion on `threads` workers (at most one per
/// shard; 0 and 1 both mean the calling thread alone).
///
/// # Errors
///
/// Returns the winning shard's [`SimError`] on an injected kill, or
/// [`SimError::Stuck`] on deadlock.
pub(crate) fn run(
    shards: &mut [Shard],
    threads: usize,
    lookahead: Option<f64>,
    ctx: &RunCtx<'_>,
) -> Result<(), SimError> {
    let n = shards.len();
    let workers = threads.clamp(1, n.max(1));
    let start = |k: usize| k * n / workers;
    let rounds = Rounds {
        lookahead,
        ctx,
        slots: (0..workers).map(|_| Slot::default()).collect(),
        exchange: (0..workers * workers)
            .map(|_| Mutex::new(Vec::new()))
            .collect(),
        owner: (0..workers)
            .flat_map(|k| (start(k)..start(k + 1)).map(move |_| k))
            .collect(),
        barrier: RoundBarrier::new(workers),
    };
    std::thread::scope(|scope| {
        let mut rest = &mut *shards;
        let mut blocks = Vec::with_capacity(workers);
        for k in 0..workers {
            let (block, tail) = rest.split_at_mut(start(k + 1) - start(k));
            blocks.push(block);
            rest = tail;
        }
        let mut blocks = blocks.into_iter().enumerate();
        let (_, own) = blocks.next().expect("at least one worker");
        for (k, block) in blocks {
            let rounds = &rounds;
            scope.spawn(move || rounds.work(k, start(k), block));
        }
        rounds.work(0, 0, own);
    });
    if let Some(err) = resolve_candidates(shards.iter_mut().filter_map(|s| s.candidate.take())) {
        return Err(err);
    }
    let last = shards
        .iter()
        .map(|s| s.last_time)
        .fold(f64::NEG_INFINITY, f64::max);
    finish(shards.iter().all(Shard::done), last, ctx.injector)
}

/// One worker's published round state, alone on its cache lines.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    /// Whether the block has a pending event, and its time's bits.
    pending: AtomicBool,
    next: AtomicU64,
    /// Whether a shard of the block halted on a structured error.
    halted: AtomicBool,
}

// Relaxed throughout: a slot is written before a barrier wait and read
// after one, and the barrier orders the two.
impl Slot {
    fn publish_next(&self, time: Option<f64>) {
        self.pending.store(time.is_some(), Ordering::Relaxed);
        self.next
            .store(time.unwrap_or_default().to_bits(), Ordering::Relaxed);
    }

    fn next(&self) -> Option<f64> {
        self.pending
            .load(Ordering::Relaxed)
            .then(|| f64::from_bits(self.next.load(Ordering::Relaxed)))
    }
}

/// What the workers of one simulation share.
struct Rounds<'a> {
    lookahead: Option<f64>,
    ctx: &'a RunCtx<'a>,
    slots: Vec<Slot>,
    /// `exchange[src * W + dst]`: messages worker `src` emitted this round
    /// for worker `dst`'s shards. Written before the second wait, drained
    /// after it, so each lock is uncontended.
    exchange: Vec<Mutex<Vec<Outbound>>>,
    /// The worker owning each shard.
    owner: Vec<usize>,
    barrier: RoundBarrier,
}

impl Rounds<'_> {
    fn cell(&self, src: usize, dst: usize) -> MutexGuard<'_, Vec<Outbound>> {
        self.exchange[src * self.slots.len() + dst]
            .lock()
            .expect("exchange mutex")
    }

    /// Worker `k`'s round loop over its block, whose first shard is
    /// `first`; returns when the workers stop (see the module doc).
    fn work(&self, k: usize, first: usize, block: &mut [Shard]) {
        let workers = self.slots.len();
        let slot = &self.slots[k];
        let mut staged: Vec<Vec<Outbound>> = vec![Vec::new(); workers];
        loop {
            slot.publish_next(fmin_of(block.iter().map(Shard::next_time)));
            self.barrier.wait();
            let Some(fmin) = fmin_of(self.slots.iter().map(Slot::next)) else {
                return;
            };
            let (bound, inclusive) = bound_for(fmin, self.lookahead);
            for shard in block.iter_mut() {
                shard.run_until(bound, inclusive, self.ctx);
            }
            let halted = block.iter().any(|s| s.candidate.is_some());
            slot.halted.store(halted, Ordering::Relaxed);
            for shard in block.iter_mut() {
                for m in shard.out.drain(..) {
                    staged[self.owner[m.dst]].push(m);
                }
            }
            for (dst, out) in staged.iter_mut().enumerate() {
                // Hands this round's messages over and takes back the
                // buffer `dst` drained last round.
                std::mem::swap(&mut *self.cell(k, dst), out);
            }
            self.barrier.wait();
            if self.slots.iter().any(|s| s.halted.load(Ordering::Relaxed)) {
                return;
            }
            for src in 0..workers {
                for m in self.cell(src, k).drain(..) {
                    block[m.dst - first].deliver_msg(m.ts, m.payload);
                }
            }
        }
    }
}

/// `std::thread::available_parallelism`, asked once per process: the
/// call reads cgroup files, which costs more than a small simulation.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// How many times a waiter polls the generation before it blocks: about
/// 23 µs of `pause` on a Sapphire Rapids Xeon, longer than two workers'
/// usual imbalance in a round, short enough that a host running several
/// simulations side by side loses little before the waiter sleeps.
const SPIN_LIMIT: u32 = 1 << 10;

/// A reusable barrier for a fixed number of parties: the last to arrive
/// bumps the generation. Waiters spin a bounded number of polls when
/// every party can have a CPU of its own, and otherwise (or after the
/// spin) block on a condvar. Every wait orders all memory writes before
/// it, by any party, before all reads after it.
struct RoundBarrier {
    parties: usize,
    spin: bool,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Parties blocked on `wake`.
    sleepers: Mutex<usize>,
    wake: Condvar,
}

impl RoundBarrier {
    fn new(parties: usize) -> Self {
        Self {
            parties,
            spin: parties <= host_cpus(),
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: Mutex::new(0),
            wake: Condvar::new(),
        }
    }

    fn wait(&self) {
        if self.parties <= 1 {
            return;
        }
        // Read before arriving: once this party has arrived, the last one
        // may bump the generation at any moment.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            let sleepers = self.sleepers.lock().expect("barrier mutex");
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            let any = *sleepers > 0;
            drop(sleepers);
            if any {
                self.wake.notify_all();
            }
            return;
        }
        let released = || self.generation.load(Ordering::Acquire) != generation;
        if self.spin {
            for _ in 0..SPIN_LIMIT {
                if released() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        let mut sleepers = self.sleepers.lock().expect("barrier mutex");
        *sleepers += 1;
        while !released() {
            sleepers = self.wake.wait(sleepers).expect("barrier mutex");
        }
        *sleepers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every party sees every other party's pre-wait write after the
    /// wait, generation after generation — spinning at 2 parties on a
    /// multi-core host, blocking at once when the parties outnumber the
    /// CPUs.
    #[test]
    fn barrier_orders_every_generation() {
        const GENERATIONS: usize = 10_000;
        for parties in [2, 3, 5] {
            let barrier = RoundBarrier::new(parties);
            let counter = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..parties {
                    scope.spawn(|| {
                        for g in 0..GENERATIONS {
                            counter.fetch_add(1, Ordering::Relaxed);
                            barrier.wait();
                            assert_eq!(counter.load(Ordering::Relaxed), parties * (g + 1));
                            // Nobody bumps for the next generation until
                            // every party has checked this one.
                            barrier.wait();
                        }
                    });
                }
            });
            assert_eq!(counter.into_inner(), parties * GENERATIONS);
        }
    }
}
