//! The round driver: conservative barrier-synchronized execution of the
//! per-node shards, serially or across worker threads.
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
//! shard, in what order. Messages are routed at the round boundary by
//! one deterministic pass in `(source shard, emission order)` order.
//!
//! Two degenerate modes keep the driver total:
//!
//! * no cross-node connections → the bound is `+∞` and a single round
//!   processes everything (a single-node program on one shard runs the
//!   classic serial event loop verbatim);
//! * zero (or negative) lookahead → the bound collapses to `fmin`
//!   *inclusive*, guaranteeing at least one event of progress per round;
//!   [`crate::engine::simulate`] also drops to one worker in this mode,
//!   since there is no conservative window to parallelize over.
//!
//! # Errors
//!
//! A shard that hits a structured error (an injected kill) records it as
//! a [`Candidate`] and halts; at the end of the round the driver aborts
//! with the lexicographically smallest `(time, shard)` candidate. This
//! equals the first error a global merge would hit: the halted shard's
//! unprocessed events all order after its candidate, and every other
//! shard processed its sub-bound events error-free. When every queue
//! drains with thread blocks still unfinished, the run is deadlocked and
//! the driver reports [`SimError::Stuck`] at the latest time any shard
//! reached.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use msccl_faults::FaultInjector;

use crate::actor::Shard;
use crate::config::{f64_bits, SimConfig, SimError};
use crate::sync::Candidate;

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

/// The minimum pending-event time across shards, or `None` when every
/// queue is drained (or owned by a finished shard).
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

/// Picks the abort winner among this round's candidates, if any.
fn resolve_candidates(candidates: impl Iterator<Item = Candidate>) -> Option<SimError> {
    let mut winner: Option<Candidate> = None;
    for c in candidates {
        if winner.as_ref().is_none_or(|w| c.beats(w)) {
            winner = Some(c);
        }
    }
    winner.map(|w| w.error)
}

/// Drives the shards to completion.
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
    if threads <= 1 || shards.len() <= 1 {
        run_serial(shards, lookahead, ctx)
    } else {
        run_parallel(shards, threads.min(shards.len()), lookahead, ctx)
    }
}

/// Routes every message emitted this round, in `(source shard, emission
/// order)` order — the deterministic pass that assigns destination-shard
/// sequence numbers identically in both drivers.
fn route(shards: &mut [Shard]) {
    for i in 0..shards.len() {
        let out = std::mem::take(&mut shards[i].out);
        for m in out {
            shards[m.dst].deliver_msg(m.ts, m.payload);
        }
    }
}

fn run_serial(
    shards: &mut [Shard],
    lookahead: Option<f64>,
    ctx: &RunCtx<'_>,
) -> Result<(), SimError> {
    loop {
        let Some(fmin) = fmin_of(shards.iter().map(Shard::next_time)) else {
            let last = shards
                .iter()
                .map(|s| s.last_time)
                .fold(f64::NEG_INFINITY, f64::max);
            return finish(shards.iter().all(Shard::done), last, ctx.injector);
        };
        let (bound, inclusive) = bound_for(fmin, lookahead);
        for shard in shards.iter_mut() {
            shard.run_until(bound, inclusive, ctx);
        }
        if let Some(err) = resolve_candidates(shards.iter_mut().filter_map(|s| s.candidate.take()))
        {
            return Err(err);
        }
        route(shards);
    }
}

fn run_parallel(
    shards: &mut [Shard],
    threads: usize,
    lookahead: Option<f64>,
    ctx: &RunCtx<'_>,
) -> Result<(), SimError> {
    let n = shards.len();
    // Workers claim shard indices dynamically; the mutexes are
    // uncontended (each index is claimed exactly once per round) and
    // exist only to hand `&mut Shard` across the scope.
    let cells: Vec<Mutex<&mut Shard>> = shards.iter_mut().map(Mutex::new).collect();
    let barrier = Barrier::new(threads + 1);
    let claim = AtomicUsize::new(0);
    let bound_bits = AtomicU64::new(0);
    let inclusive = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let mut result: Result<(), SimError> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                barrier.wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let bound = f64::from_bits(bound_bits.load(Ordering::Acquire));
                let inc = inclusive.load(Ordering::Acquire);
                loop {
                    let i = claim.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let mut shard = cells[i].lock().expect("shard mutex");
                    shard.run_until(bound, inc, ctx);
                }
                barrier.wait();
            });
        }
        // The driver owns the shards between barriers: workers only touch
        // them inside a round, and the scope's joins order everything.
        loop {
            let fmin = fmin_of(
                cells
                    .iter()
                    .map(|c| c.lock().expect("shard mutex").next_time()),
            );
            let Some(fmin) = fmin else {
                let mut last = f64::NEG_INFINITY;
                let mut all_done = true;
                for c in &cells {
                    let s = c.lock().expect("shard mutex");
                    last = last.max(s.last_time);
                    all_done &= s.done();
                }
                result = finish(all_done, last, ctx.injector);
                stop.store(true, Ordering::Release);
                barrier.wait();
                break;
            };
            let (bound, inc) = bound_for(fmin, lookahead);
            bound_bits.store(bound.to_bits(), Ordering::Release);
            inclusive.store(inc, Ordering::Release);
            claim.store(0, Ordering::Release);
            barrier.wait(); // open the round
            barrier.wait(); // every shard processed
            let candidates: Vec<Candidate> = cells
                .iter()
                .filter_map(|c| c.lock().expect("shard mutex").candidate.take())
                .collect();
            if let Some(err) = resolve_candidates(candidates.into_iter()) {
                result = Err(err);
                stop.store(true, Ordering::Release);
                barrier.wait();
                break;
            }
            for i in 0..n {
                let out = std::mem::take(&mut cells[i].lock().expect("shard mutex").out);
                for m in out {
                    cells[m.dst]
                        .lock()
                        .expect("shard mutex")
                        .deliver_msg(m.ts, m.payload);
                }
            }
        }
    });
    result
}
