//! The thread-block interpreter: one resumable [`TbTask`] per IR thread
//! block (the tiling outer loop around the instruction loop of Figure 5),
//! and the pool worker loop that runs tasks until they park.
//!
//! A task runs until it would block — on a dependency semaphore, a FIFO,
//! or a fault-injected sleep — and then suspends with a
//! [`WakeKey`] naming what it waits for; the peer that makes the
//! condition true wakes the key and the task resumes, possibly on a
//! different worker. The run driver in [`crate::executor`] builds the
//! [`RunCtx`] the tasks read and collects their state afterwards.

use std::collections::VecDeque;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use msccl_faults::{corrupt_payload, BlockAction, DeliveryAction};
use msccl_trace::EventKind;
use mscclang::StepValue;

use crate::cancel::{FailureCause, FailureOrigin};
use crate::executor::{payload_string, Recorder, RunCtx, LATENCY_SAMPLE_PERIOD};
use crate::flight::{BlockedOn, EventRing, Moment};
use crate::kernels;
use crate::memory::RankMemory;
use crate::plan::{Dep, Instr, Source, TbPlan};
use crate::pool::PooledTile;
use crate::sched::WakeKey;
use crate::semaphore::Semaphore;

/// Whether a just-expired wait was bounded by the global deadline rather
/// than the per-step timeout.
fn deadline_hit(global_deadline: Option<Instant>) -> bool {
    global_deadline.is_some_and(|g| Instant::now() >= g)
}

/// A persistent straggler chronically slows the whole rank: every
/// instruction pays a deterministic extra delay proportional to the
/// planned slowdown factor. Unlike block faults this is not one-shot —
/// the rank stays slow across tiles, steps and retried attempts.
pub(crate) const STRAGGLE_UNIT_NS: f64 = 20_000.0;

/// What `TbTask::advance` hands back to its worker.
enum Yield {
    /// The task must wait for `key`. `timer` is set only when this is a
    /// *fresh* wait (a hang deadline or a sleep expiry to arm); re-blocks
    /// after a spurious wake pass `None` and keep the armed one.
    Blocked {
        key: WakeKey,
        timer: Option<Instant>,
    },
    /// The task finished (successfully or by dying); never run it again.
    Done,
}

/// The resumption point of a suspended interpreter — everything between
/// two potential waits is one arm of the `advance` loop.
#[derive(Debug, Clone, Copy)]
enum Pc {
    /// Emit `TileBegin` and enter the instruction list.
    TileBegin,
    /// Per-instruction preamble: cancellation, deadline, block faults.
    PreInstr,
    /// Sleeping out an injected stall; then the straggle check.
    Stall { until: Instant },
    /// Sleeping out the rank's chronic straggle; then dependencies.
    Straggle { until: Instant },
    /// Waiting on cross-thread-block dependency `idx` of this step.
    Dep { idx: usize },
    /// Dependencies satisfied: stamp `InstrBegin` and dispatch.
    Body,
    /// A receive-class op needs an inbound tile.
    RecvTile,
    /// The op's memory work; never blocks.
    Compute,
    /// Delivery-fault resolution for an outbound tile, once per send.
    PreXmit,
    /// Sleeping out injected delivery delays; then the send.
    Delay { until: Instant },
    /// Pushing `copy` (0 = original, 1 = duplicate) into the send FIFO.
    Xmit { copy: usize },
    /// Instruction epilogue: counters, ring, semaphore set.
    PostInstr,
    /// End of the instruction list for this tile.
    PostTile,
    /// Terminal; `advance` must not be called again.
    Finished,
}

/// One thread block's interpreter as a resumable state machine (the
/// tiling outer loop of Figure 5). `advance` runs until the block must
/// wait, then yields the [`WakeKey`] naming what it waits for instead of
/// blocking its OS thread — so a fixed worker pool can carry any number
/// of blocks. Every payload travels in a [`PooledTile`] taken from the
/// shared pool and recycled on receipt; the steady-state hot path
/// allocates nothing. The per-block sequence of trace events, ring
/// entries, semaphore values and FIFO operations is identical to the
/// retired thread-per-block executor at any pool size.
///
/// A task holds only its own interpreter state; its program
/// ([`TbPlan`]), wiring and the run's parameters come through the
/// [`RunCtx`] each call. That keeps it free of borrows, so it lives in
/// the [`ExecPlan`] across runs and a run starts with
/// [`reset`](Self::reset) instead of a rebuild.
pub(crate) struct TbTask {
    // ---- Identity (fixed for the plan).
    pub(crate) rank: usize,
    pub(crate) tb_id: usize,
    /// This task's index in spawn order: its semaphore and wake key, and
    /// its metrics shard.
    pub(crate) flat: usize,
    // ---- Per-run parameters.
    straggle: Option<Duration>,
    // ---- Interpreter position.
    /// Monotonic completed-instruction count — the same encoding the
    /// semaphores use.
    pub(crate) completed: u64,
    pub(crate) tile: usize,
    pub(crate) step: usize,
    send_seq: u64,
    recv_seq: u64,
    pc: Pc,
    // ---- Wait scratch (at most one wait in flight).
    /// The hang deadline of the wait in flight: min(step timeout, global
    /// deadline), fixed when the wait starts and kept across re-blocks.
    fail_at: Option<Instant>,
    /// Whether the wait's timer has been handed to the scheduler.
    timer_armed: bool,
    /// When the in-flight dependency wait began (sem_wait_ns base).
    wait_start: Option<Instant>,
    /// When the in-flight FIFO wait began (fifo_*_block_ns base).
    blocked_at: Option<Instant>,
    /// Whether the in-flight FIFO wait already emitted its Block event.
    block_emitted: bool,
    // ---- Instruction scratch.
    instr_start: Option<Instant>,
    /// Tiles drained from the receive FIFO but not yet consumed: one
    /// `try_recv_into` batches a whole queue under a single lock.
    inbox: VecDeque<PooledTile>,
    inbound: Option<PooledTile>,
    outbound: Option<PooledTile>,
    dup_pending: Option<PooledTile>,
    xmit_bytes: u64,
    // ---- Diagnostics and results.
    pub(crate) rec: Recorder,
    pub(crate) ring: EventRing,
    /// The wait the task was stuck on when it died, stashed by `die()`
    /// before the program counter is overwritten — the wait-for graph's
    /// evidence for dead tasks.
    pub(crate) frozen: Option<BlockedOn>,
    /// The task will never advance again.
    pub(crate) done: bool,
    /// The task stopped without finishing its program (cancelled, failed
    /// or panicked); it contributes no completed instructions.
    pub(crate) dead: bool,
}

impl TbTask {
    /// A task for thread block `tb_id` of `rank`, at flat index `flat`.
    /// Not runnable until [`reset`](Self::reset).
    pub(crate) fn new(rank: usize, tb_id: usize, flat: usize) -> Self {
        Self {
            rank,
            tb_id,
            flat,
            straggle: None,
            completed: 0,
            tile: 0,
            step: 0,
            send_seq: 0,
            recv_seq: 0,
            pc: Pc::Finished,
            fail_at: None,
            timer_armed: false,
            wait_start: None,
            blocked_at: None,
            block_emitted: false,
            instr_start: None,
            inbox: VecDeque::new(),
            inbound: None,
            outbound: None,
            dup_pending: None,
            xmit_bytes: 0,
            rec: Recorder {
                enabled: false,
                epoch: Instant::now(),
                rank,
                tb: tb_id,
                events: Vec::new(),
            },
            ring: EventRing::new(rank, tb_id),
            frozen: None,
            done: true,
            dead: false,
        }
    }

    /// Puts the task at the start of a run, whatever state the previous
    /// run left it in (parked mid-wait, dead, tiles in hand — those go
    /// back to the pool here).
    pub(crate) fn reset(
        &mut self,
        straggle: Option<Duration>,
        tracing: bool,
        clock_epoch: Instant,
    ) {
        self.straggle = straggle;
        self.completed = 0;
        self.tile = 0;
        self.step = 0;
        self.send_seq = 0;
        self.recv_seq = 0;
        self.pc = Pc::TileBegin;
        self.fail_at = None;
        self.timer_armed = false;
        self.wait_start = None;
        self.blocked_at = None;
        self.block_emitted = false;
        self.instr_start = None;
        self.inbox.clear();
        self.inbound = None;
        self.outbound = None;
        self.dup_pending = None;
        self.xmit_bytes = 0;
        self.rec.enabled = tracing;
        self.rec.epoch = clock_epoch;
        self.rec.events.clear();
        self.ring = EventRing::new(self.rank, self.tb_id);
        self.frozen = None;
        self.done = false;
        self.dead = false;
    }

    /// Each blocking wait runs against min(step deadline, global
    /// deadline); when one expires, `deadline_hit` disambiguates the
    /// cause.
    fn wait_deadline(ctx: &RunCtx<'_>, now: Instant) -> Instant {
        let step = now + ctx.timeout;
        ctx.global_deadline.map_or(step, |g| step.min(g))
    }

    /// Opens a fresh wait at `now`: fixes its hang deadline and marks its
    /// timer unarmed so the first `Blocked` yield pushes it.
    fn open_wait(&mut self, ctx: &RunCtx<'_>, now: Instant) {
        self.fail_at = Some(Self::wait_deadline(ctx, now));
        self.timer_armed = false;
    }

    /// The timer to hand the scheduler for the wait in flight: its hang
    /// deadline on the first block, `None` on re-blocks.
    fn arm_fail(&mut self) -> Option<Instant> {
        if self.timer_armed {
            None
        } else {
            self.timer_armed = true;
            self.fail_at
        }
    }

    /// Like [`Self::arm_fail`], for sleeps (which have an expiry instead
    /// of a hang deadline).
    fn arm_at(&mut self, at: Instant) -> Option<Instant> {
        if self.timer_armed {
            None
        } else {
            self.timer_armed = true;
            Some(at)
        }
    }

    /// Stops without finishing: cancelled from elsewhere, own failure
    /// already recorded, or killed. Stashes the wait the task was stuck
    /// on before the program counter is overwritten, so the post-mortem
    /// wait-for graph keeps its edge.
    fn die(&mut self, ctx: &RunCtx<'_>) -> Yield {
        self.frozen = self.frozen_wait(&ctx.tbs[self.flat], ctx.sems);
        self.dead = true;
        self.done = true;
        self.pc = Pc::Finished;
        Yield::Done
    }

    /// The resource the current program counter is blocked on, typed for
    /// the wait-for graph, or `None` when the task is mid-computation.
    /// Mirrors the probes in [`blocked_ready`](Self::blocked_ready).
    pub(crate) fn frozen_wait(&self, tb: &TbPlan, sems: &[Semaphore]) -> Option<BlockedOn> {
        match self.pc {
            Pc::Dep { idx } => {
                let dep = tb.instrs.get(self.step)?.deps.get(idx)?;
                Some(BlockedOn::Sem {
                    dep_tb: dep.tb,
                    target: self.dep_target(dep),
                    current: sems[dep.flat].current(),
                })
            }
            Pc::RecvTile => tb.recv.as_ref().map(|c| BlockedOn::Recv {
                src: c.peer,
                channel: c.channel,
            }),
            Pc::Xmit { .. } => tb.send.as_ref().map(|c| BlockedOn::Send {
                dst: c.peer,
                channel: c.channel,
            }),
            Pc::Stall { .. } | Pc::Straggle { .. } | Pc::Delay { .. } => Some(BlockedOn::Sleep),
            _ => None,
        }
    }

    /// The semaphore value `dep` must reach for this tile: the monotonic
    /// encoding counts instructions across tiles, so a completion from
    /// tile `t - 1` can never satisfy a wait from tile `t`.
    fn dep_target(&self, dep: &Dep) -> u64 {
        self.tile as u64 * dep.len + dep.step + 1
    }

    /// Records this task's own wait-timeout failure and dies.
    fn fail_own(&mut self, ctx: &RunCtx<'_>) -> Yield {
        let cause = if deadline_hit(ctx.global_deadline) {
            FailureCause::Deadline
        } else {
            FailureCause::StepTimeout
        };
        ctx.cancel.cancel(FailureOrigin {
            rank: self.rank,
            tb: self.tb_id,
            step: self.step,
            cause,
        });
        self.die(ctx)
    }

    /// Whether the condition this task suspended on now holds. Called by
    /// the scheduler under its wait-table race (register-then-recheck),
    /// and by timer fires indirectly: a woken task re-runs `advance`,
    /// which re-evaluates the same condition authoritatively. Cancellation
    /// and an expired hang deadline always count as ready — the task must
    /// run to observe them and die.
    fn blocked_ready(&self, ctx: &RunCtx<'_>, now: Instant) -> bool {
        if ctx.cancel.is_cancelled() {
            return true;
        }
        if self.fail_at.is_some_and(|at| now >= at) {
            return true;
        }
        match self.pc {
            Pc::Stall { until } | Pc::Straggle { until } | Pc::Delay { until } => now >= until,
            Pc::Dep { idx } => {
                let dep = &ctx.tbs[self.flat].instrs[self.step].deps[idx];
                ctx.sems[dep.flat].current() >= self.dep_target(dep)
            }
            Pc::RecvTile => ctx.tbs[self.flat]
                .recv
                .as_ref()
                .is_some_and(|c| !ctx.fifos[c.idx].is_empty()),
            Pc::Xmit { .. } => ctx.tbs[self.flat].send.as_ref().is_some_and(|c| {
                let fifo = &ctx.fifos[c.idx];
                fifo.len() < fifo.capacity()
            }),
            _ => true,
        }
    }

    /// Runs the interpreter until it finishes or must wait. The worker
    /// calls this with the task's lock held; on `Blocked` it registers
    /// the key with the scheduler and moves on to other tasks.
    fn advance(&mut self, ctx: &RunCtx<'_>, w: usize) -> Yield {
        let tb = &ctx.tbs[self.flat];
        let metrics = ctx.metrics.map(|m| &m[self.flat]);
        loop {
            match self.pc {
                Pc::TileBegin => {
                    self.rec.emit(EventKind::TileBegin { tile: self.tile });
                    self.pc = if self.step < tb.instrs.len() {
                        Pc::PreInstr
                    } else {
                        Pc::PostTile
                    };
                }
                Pc::PostTile => {
                    self.rec.emit(EventKind::TileEnd { tile: self.tile });
                    self.tile += 1;
                    self.step = 0;
                    if self.tile >= ctx.num_tiles {
                        return self.finish();
                    }
                    self.pc = Pc::TileBegin;
                }
                Pc::PreInstr => {
                    // A failure elsewhere, or the global deadline, stops
                    // the task between instructions even when it never
                    // blocks.
                    if ctx.cancel.is_cancelled() {
                        return self.die(ctx);
                    }
                    if deadline_hit(ctx.global_deadline) {
                        ctx.cancel.cancel(FailureOrigin {
                            rank: self.rank,
                            tb: self.tb_id,
                            step: self.step,
                            cause: FailureCause::Deadline,
                        });
                        return self.die(ctx);
                    }
                    // Planned block faults strike as the instruction
                    // starts; `on_block` is one-shot, so it is consulted
                    // exactly once per (rank, tb, step) firing.
                    match ctx
                        .injector
                        .and_then(|i| i.on_block(self.rank, self.tb_id, self.step))
                    {
                        Some(BlockAction::Stall(d)) => {
                            self.timer_armed = false;
                            self.pc = Pc::Stall {
                                until: Instant::now() + d,
                            };
                        }
                        Some(BlockAction::Kill) => {
                            let (rank, tb_id, step) = (self.rank, self.tb_id, self.step);
                            ctx.cancel.cancel(FailureOrigin {
                                rank,
                                tb: tb_id,
                                step,
                                cause: FailureCause::InjectedKill(format!(
                                    "kill block r{rank} tb{tb_id} step{step}"
                                )),
                            });
                            return self.die(ctx);
                        }
                        None => self.pc = self.after_stall(),
                    }
                }
                Pc::Stall { until } => {
                    if ctx.cancel.is_cancelled() {
                        return self.die(ctx);
                    }
                    if Instant::now() < until {
                        return Yield::Blocked {
                            key: WakeKey::Sleep(self.flat),
                            timer: self.arm_at(until),
                        };
                    }
                    self.pc = self.after_stall();
                }
                Pc::Straggle { until } => {
                    if ctx.cancel.is_cancelled() {
                        return self.die(ctx);
                    }
                    if Instant::now() < until {
                        return Yield::Blocked {
                            key: WakeKey::Sleep(self.flat),
                            timer: self.arm_at(until),
                        };
                    }
                    self.pc = Pc::Dep { idx: 0 };
                }
                Pc::Dep { idx } => {
                    // Cross-thread-block dependencies gate the
                    // instruction, so they trace *before* InstrBegin: a
                    // begin event means they were already satisfied.
                    let instr = &tb.instrs[self.step];
                    let Some(dep) = instr.deps.get(idx) else {
                        self.pc = Pc::Body;
                        continue;
                    };
                    let target = self.dep_target(dep);
                    if self.wait_start.is_none() {
                        self.ring.push(
                            self.tile,
                            self.step,
                            instr.op,
                            Moment::WaitingDep {
                                dep_tb: dep.tb,
                                target,
                            },
                        );
                        self.rec.emit(EventKind::SemWaitEnter {
                            dep_tb: dep.tb,
                            target,
                        });
                        let now = Instant::now();
                        self.wait_start = Some(now);
                        self.open_wait(ctx, now);
                    }
                    if ctx.sems[dep.flat].current() >= target {
                        if let Some(m) = metrics {
                            let t0 = self.wait_start.expect("dep wait opened above");
                            m.sem_wait_ns.add(m.shard, t0.elapsed().as_nanos() as u64);
                        }
                        self.rec.emit(EventKind::SemWaitExit {
                            dep_tb: dep.tb,
                            target,
                        });
                        self.wait_start = None;
                        self.fail_at = None;
                        self.pc = Pc::Dep { idx: idx + 1 };
                        continue;
                    }
                    if ctx.cancel.is_cancelled() {
                        return self.die(ctx);
                    }
                    if Instant::now() >= self.fail_at.expect("dep wait opened above") {
                        return self.fail_own(ctx);
                    }
                    return Yield::Blocked {
                        key: WakeKey::Sem(dep.flat),
                        timer: self.arm_fail(),
                    };
                }
                Pc::Body => {
                    let instr = &tb.instrs[self.step];
                    self.ring
                        .push(self.tile, self.step, instr.op, Moment::Started);
                    self.rec.emit(EventKind::InstrBegin {
                        step: self.step,
                        tile: self.tile,
                        op: instr.op,
                    });
                    // Latency observations are sampled: the two clock
                    // reads they need cost more than every counter in
                    // this loop combined, and taking them on every
                    // instruction busts the always-on overhead budget at
                    // small sizes. One instruction in
                    // [`LATENCY_SAMPLE_PERIOD`] per block keeps the
                    // histogram's shape; the `instructions` counter
                    // stays exact.
                    self.instr_start = metrics
                        .filter(|_| self.completed.is_multiple_of(LATENCY_SAMPLE_PERIOD))
                        .map(|_| Instant::now());
                    self.pc = if instr.op.rule().recv {
                        Pc::RecvTile
                    } else {
                        Pc::Compute
                    };
                }
                Pc::RecvTile => {
                    if self.inbox.is_empty() {
                        let conn = tb
                            .recv
                            .as_ref()
                            .expect("recv op requires a receive connection");
                        // Batched pop: drain everything the peer has
                        // queued under one lock. The freed slots may
                        // unblock the sender — wake it.
                        if ctx.fifos[conn.idx].try_recv_into(&mut self.inbox) > 0 {
                            let idx = conn.idx;
                            if let Some(fl) = ctx.flight {
                                // A batched drain leaves the FIFO empty.
                                fl.fifo_depth(w, self.rank, self.tb_id, idx, 0);
                            }
                            ctx.sched.wake(WakeKey::Send(idx), w);
                        }
                    }
                    if self.inbox.is_empty() {
                        let (src, channel, idx) = {
                            let c = tb.recv.as_ref().expect("checked above");
                            (c.peer, c.channel, c.idx)
                        };
                        if !self.block_emitted {
                            self.block_emitted = true;
                            let op = tb.instrs[self.step].op;
                            self.ring.push(
                                self.tile,
                                self.step,
                                op,
                                Moment::BlockedRecv { src, channel },
                            );
                            self.rec.emit(EventKind::RecvBlock { src, channel });
                            let now = Instant::now();
                            self.blocked_at = Some(now);
                            self.open_wait(ctx, now);
                        }
                        if ctx.cancel.is_cancelled() {
                            return self.die(ctx);
                        }
                        if Instant::now() >= self.fail_at.expect("recv wait opened above") {
                            return self.fail_own(ctx);
                        }
                        return Yield::Blocked {
                            key: WakeKey::Recv(idx),
                            timer: self.arm_fail(),
                        };
                    }
                    let value = self.inbox.pop_front().expect("checked non-empty");
                    let (src, channel) = {
                        let c = tb.recv.as_ref().expect("checked above");
                        (c.peer, c.channel)
                    };
                    if self.block_emitted {
                        self.rec.emit(EventKind::RecvResume { src, channel });
                        if let (Some(m), Some(t0)) = (metrics, self.blocked_at) {
                            m.fifo_recv_block_ns
                                .add(m.shard, t0.elapsed().as_nanos() as u64);
                        }
                        self.block_emitted = false;
                        self.blocked_at = None;
                        self.fail_at = None;
                    }
                    let bytes = (value.len() * std::mem::size_of::<f32>()) as u64;
                    self.rec.emit(EventKind::Recv {
                        src,
                        channel,
                        seq: self.recv_seq,
                        bytes,
                    });
                    if let Some(m) = metrics {
                        if let Some((bytes_recv, recvs)) = &m.recv_conn {
                            bytes_recv.add(m.shard, bytes);
                            recvs.inc(m.shard);
                        }
                    }
                    self.recv_seq += 1;
                    self.inbound = Some(value);
                    self.pc = Pc::Compute;
                }
                Pc::Compute => {
                    let instr = &tb.instrs[self.step];
                    let mem = &*ctx.memories[self.rank];
                    let elem_off = self.tile * ctx.tile_elems;
                    let len = (ctx.chunk_elems - elem_off).min(ctx.tile_elems);
                    let rule = instr.op.rule();
                    match rule.value {
                        StepValue::None => {}
                        // Local data movement never touches the pool: the
                        // chunks move memory-to-memory under the fixed
                        // lock order (see `RankMemory::copy_between_at`).
                        StepValue::Src if !rule.send => {
                            let src = instr.src.expect("instruction requires src");
                            let dst = instr.dst.expect("instruction requires dst");
                            for i in 0..instr.count {
                                mem.copy_between_at(src.plus(i), dst.plus(i), elem_off, len);
                            }
                        }
                        StepValue::DstOpSrc => {
                            let src = instr.src.expect("instruction requires src");
                            let dst = instr.dst.expect("instruction requires dst");
                            for i in 0..instr.count {
                                mem.reduce_between_at(
                                    src.plus(i),
                                    dst.plus(i),
                                    elem_off,
                                    len,
                                    ctx.op,
                                );
                            }
                        }
                        value => {
                            let mut tile = if value == StepValue::Src {
                                let mut tile = ctx.pool.take(instr.count * len);
                                fill_src(ctx, self.rank, instr, elem_off, len, &mut tile);
                                tile
                            } else {
                                self.inbound.take().expect("recv op received a tile")
                            };
                            if value == StepValue::SrcOpReceived {
                                combine_read(ctx, self.rank, instr, elem_off, len, &mut tile);
                            }
                            if rule.store {
                                write_dst(mem, instr, elem_off, len, &tile);
                            }
                            // Zero-copy forward: the tile is handed onward
                            // as-is; one that is not sent returns to the
                            // pool here.
                            if rule.send {
                                self.outbound = Some(tile);
                            }
                        }
                    }
                    self.pc = if rule.send {
                        Pc::PreXmit
                    } else {
                        Pc::PostInstr
                    };
                }
                Pc::PreXmit => {
                    // Planned delivery faults apply here, where the tile
                    // leaves the sender: corruption rewrites the payload,
                    // a delay holds it back, a drop discards it (the
                    // sequence number still advances, as a real lost
                    // packet leaves the sender none the wiser), a
                    // duplicate enqueues it twice. `on_delivery` drains
                    // one-shot specs, so it is consulted exactly once per
                    // logical send.
                    let (dst, channel) = {
                        let c = tb
                            .send
                            .as_ref()
                            .expect("send op requires a send connection");
                        (c.peer, c.channel)
                    };
                    let mut dropped = false;
                    let mut duplicated = false;
                    let mut delay = Duration::ZERO;
                    if let Some(inj) = ctx.injector {
                        let outbound = self.outbound.as_mut().expect("entered with outbound");
                        for action in inj.on_delivery(self.rank, dst, channel, self.send_seq) {
                            match action {
                                DeliveryAction::Corrupt { bit } => corrupt_payload(outbound, bit),
                                DeliveryAction::Delay(d) => delay += d,
                                DeliveryAction::Drop => dropped = true,
                                DeliveryAction::Duplicate => duplicated = true,
                            }
                        }
                    }
                    if dropped {
                        // The tile drops here and its buffer returns to
                        // the pool: a lost packet costs nothing.
                        self.send_seq += 1;
                        self.outbound = None;
                        self.pc = Pc::PostInstr;
                        continue;
                    }
                    // Copy-on-write duplication: the second tile is taken
                    // from the pool only when the fault actually fires,
                    // and only after corruption, so both deliveries carry
                    // the same (possibly corrupted) payload.
                    self.dup_pending = duplicated.then(|| {
                        self.outbound
                            .as_ref()
                            .expect("entered with outbound")
                            .duplicate()
                    });
                    self.xmit_bytes = (self.outbound.as_ref().expect("entered with outbound").len()
                        * std::mem::size_of::<f32>()) as u64;
                    if delay > Duration::ZERO {
                        self.timer_armed = false;
                        self.pc = Pc::Delay {
                            until: Instant::now() + delay,
                        };
                    } else {
                        self.pc = Pc::Xmit { copy: 0 };
                    }
                }
                Pc::Delay { until } => {
                    if ctx.cancel.is_cancelled() {
                        return self.die(ctx);
                    }
                    if Instant::now() < until {
                        return Yield::Blocked {
                            key: WakeKey::Sleep(self.flat),
                            timer: self.arm_at(until),
                        };
                    }
                    self.pc = Pc::Xmit { copy: 0 };
                }
                Pc::Xmit { copy } => {
                    let payload = if copy == 0 {
                        self.outbound.take()
                    } else {
                        self.dup_pending.take()
                    };
                    let payload = payload.expect("xmit entered with a payload staged");
                    let (dst, channel, idx) = {
                        let c = tb
                            .send
                            .as_ref()
                            .expect("send op requires a send connection");
                        (c.peer, c.channel, c.idx)
                    };
                    let bytes = self.xmit_bytes;
                    let seq = self.send_seq;
                    let was_blocked = self.block_emitted;
                    let blocked_at = self.blocked_at;
                    // `SendResume` and `Send` are stamped from inside the
                    // callback — while the queue lock is held — so the
                    // receiver's `Recv` timestamp can never precede them.
                    let rec = &mut self.rec;
                    let flight = ctx.flight;
                    let (rank, tb_id) = (self.rank, self.tb_id);
                    let result = ctx.fifos[idx].try_send(payload, |depth| {
                        if let Some(fl) = flight {
                            fl.fifo_depth(w, rank, tb_id, idx, depth);
                        }
                        if was_blocked {
                            rec.emit(EventKind::SendResume { dst, channel });
                        }
                        if copy == 0 {
                            rec.emit(EventKind::Send {
                                dst,
                                channel,
                                seq,
                                bytes,
                            });
                        }
                        if let Some(m) = metrics {
                            if was_blocked {
                                if let Some(t0) = blocked_at {
                                    m.fifo_send_block_ns
                                        .add(m.shard, t0.elapsed().as_nanos() as u64);
                                }
                            }
                            if let Some((bytes_sent, sends, peak)) = &m.send_conn {
                                peak.set_max(depth as u64);
                                if copy == 0 {
                                    bytes_sent.add(m.shard, bytes);
                                    sends.inc(m.shard);
                                }
                            }
                        }
                    });
                    match result {
                        Ok(()) => {
                            self.block_emitted = false;
                            self.blocked_at = None;
                            self.fail_at = None;
                            // The enqueued tile may unblock the receiver.
                            ctx.sched.wake(WakeKey::Recv(idx), w);
                            if copy == 0 && self.dup_pending.is_some() {
                                self.pc = Pc::Xmit { copy: 1 };
                            } else {
                                self.send_seq += 1;
                                self.pc = Pc::PostInstr;
                            }
                        }
                        Err(returned) => {
                            if copy == 0 {
                                self.outbound = Some(returned);
                            } else {
                                self.dup_pending = Some(returned);
                            }
                            if !self.block_emitted {
                                self.block_emitted = true;
                                let op = tb.instrs[self.step].op;
                                self.ring.push(
                                    self.tile,
                                    self.step,
                                    op,
                                    Moment::BlockedSend { dst, channel },
                                );
                                self.rec.emit(EventKind::SendBlock { dst, channel });
                                let now = Instant::now();
                                self.blocked_at = Some(now);
                                self.open_wait(ctx, now);
                            }
                            if ctx.cancel.is_cancelled() {
                                return self.die(ctx);
                            }
                            if Instant::now() >= self.fail_at.expect("send wait opened above") {
                                return self.fail_own(ctx);
                            }
                            return Yield::Blocked {
                                key: WakeKey::Send(idx),
                                timer: self.arm_fail(),
                            };
                        }
                    }
                }
                Pc::PostInstr => {
                    let instr = &tb.instrs[self.step];
                    if let Some(m) = metrics {
                        let (count, latency) = &m.ops[instr.op.index()];
                        count.inc(m.shard);
                        if let Some(t0) = self.instr_start.take() {
                            latency.record(m.shard, t0.elapsed().as_nanos() as u64);
                        }
                    }
                    self.completed += 1;
                    debug_assert_eq!(
                        self.completed,
                        self.tile as u64 * tb.instrs.len() as u64 + self.step as u64 + 1
                    );
                    self.ring
                        .push(self.tile, self.step, instr.op, Moment::Completed);
                    // Stamp completion *before* advancing the semaphore:
                    // a waiter the set releases stamps its own events
                    // after returning from the wait, so this InstrEnd can
                    // never postdate a dependent's InstrBegin.
                    if instr.has_dep {
                        self.rec.emit(EventKind::SemSet {
                            value: self.completed,
                        });
                    }
                    self.rec.emit(EventKind::InstrEnd {
                        step: self.step,
                        tile: self.tile,
                        op: instr.op,
                    });
                    if instr.has_dep {
                        ctx.sems[self.flat].set(self.completed);
                        if let Some(fl) = ctx.flight {
                            fl.sem_set(w, self.rank, self.tb_id, self.flat, self.completed);
                        }
                        ctx.sched.wake(WakeKey::Sem(self.flat), w);
                    }
                    self.step += 1;
                    self.pc = if self.step < tb.instrs.len() {
                        Pc::PreInstr
                    } else {
                        Pc::PostTile
                    };
                }
                Pc::Finished => return Yield::Done,
            }
        }
    }

    /// Where control goes after the (possible) injected stall: the
    /// chronic straggle delay, or straight to the dependency waits.
    fn after_stall(&mut self) -> Pc {
        match self.straggle {
            Some(d) => {
                self.timer_armed = false;
                Pc::Straggle {
                    until: Instant::now() + d,
                }
            }
            None => Pc::Dep { idx: 0 },
        }
    }

    fn finish(&mut self) -> Yield {
        debug_assert!(self.inbox.is_empty(), "undelivered tile at program end");
        self.done = true;
        self.pc = Pc::Finished;
        Yield::Done
    }
}

// ---- Tile-shaped helpers: each moves `count` chunk segments directly
// between a pooled tile and rank memory or the caller's input — no
// intermediate Vec on any path.

/// Hands `f` the `len` elements at `elem_off` of chunk `i` of `instr`'s
/// read operand: the caller's input in place when the plan proved the
/// read pristine, rank memory under its read lock otherwise. The one way
/// the helpers below read.
fn with_read(
    ctx: &RunCtx<'_>,
    rank: usize,
    instr: &Instr,
    i: usize,
    elem_off: usize,
    len: usize,
    f: impl FnOnce(&[f32]),
) {
    match instr.read.expect("instruction reads an operand") {
        Source::Memory(loc) => ctx.memories[rank].read_with_at(loc.plus(i), elem_off, len, f),
        Source::Input(chunk) => {
            let start = (chunk + i) * ctx.chunk_elems + elem_off;
            f(&ctx.inputs[rank][start..start + len]);
        }
    }
}

fn fill_src(
    ctx: &RunCtx<'_>,
    rank: usize,
    instr: &Instr,
    elem_off: usize,
    len: usize,
    tile: &mut PooledTile,
) {
    for i in 0..instr.count {
        let part = &mut tile[i * len..(i + 1) * len];
        with_read(ctx, rank, instr, i, elem_off, len, |src| {
            part.copy_from_slice(src);
        });
    }
}

fn write_dst(mem: &RankMemory, instr: &Instr, elem_off: usize, len: usize, values: &[f32]) {
    let loc = instr.dst.expect("instruction requires dst");
    for i in 0..instr.count {
        mem.write_at(loc.plus(i), elem_off, &values[i * len..(i + 1) * len]);
    }
}

/// tile = op(read operand, tile): the receive-side merge of `rrc`, `rrs`
/// and `rrcs`. Local operand on the left.
fn combine_read(
    ctx: &RunCtx<'_>,
    rank: usize,
    instr: &Instr,
    elem_off: usize,
    len: usize,
    tile: &mut PooledTile,
) {
    for i in 0..instr.count {
        let part = &mut tile[i * len..(i + 1) * len];
        with_read(ctx, rank, instr, i, elem_off, len, |src| {
            kernels::reduce_from_slice(ctx.op, part, src);
        });
    }
}

/// Runs task `t` until it parks or finishes. Panics inside the
/// interpreter become a cancellation with a recorded origin rather than a
/// bare thread death the others wait out; every lock in the runtime is
/// poison-tolerant, so unwinding with locks held cannot wedge the
/// survivors.
fn run_task(t: usize, w: usize, ctx: &RunCtx<'_>) {
    // Uncontended by the scheduler's ownership discipline: a task index
    // lives in exactly one place (a deque, the injector, its wait slot,
    // or here), so no other worker holds this lock.
    let mut task = ctx.tasks[t].lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(fl) = ctx.flight {
        fl.run(w, task.rank, task.tb_id, t, task.completed);
    }
    loop {
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.advance(ctx, w)));
        match step {
            Ok(Yield::Done) => {
                ctx.sched.task_done();
                return;
            }
            Ok(Yield::Blocked { key, timer }) => {
                if let Some(fl) = ctx.flight {
                    fl.block(
                        w,
                        task.rank,
                        task.tb_id,
                        key.flight_code(),
                        task.tile,
                        task.step,
                    );
                }
                let probe_task = &*task;
                if !ctx.sched.block(t, key, timer, || {
                    probe_task.blocked_ready(ctx, Instant::now())
                }) {
                    // Parked: a waker, a timer, or the cancellation drain
                    // re-enqueues it. This worker moves on.
                    return;
                }
                // The condition turned true between registering and
                // probing, and this call won the reclaim race: keep
                // running the task.
            }
            Err(payload) => {
                ctx.cancel.cancel(FailureOrigin {
                    rank: task.rank,
                    tb: task.tb_id,
                    step: task.ring.last_step(),
                    cause: FailureCause::Panic(payload_string(payload.as_ref())),
                });
                // Panicked mid-advance: the pc is wherever the unwind left
                // it, which names no trustworthy wait — freeze nothing.
                task.frozen = None;
                task.dead = true;
                task.done = true;
                task.pc = Pc::Finished;
                ctx.sched.task_done();
                return;
            }
        }
    }
}

/// One pool worker: pops tasks (own deque LIFO, then the injector, then
/// stealing FIFO from peers) and runs each until it parks. When idle it
/// fires due timers and parks on the scheduler's [`Parker`] until
/// something is published. Returns when every task is done — or, after
/// a cancellation, when the queues are drained dry.
///
/// [`Parker`]: crate::sched::Parker
pub(crate) fn worker_loop(w: usize, ctx: &RunCtx<'_>) {
    let (sched, cancel) = (ctx.sched, ctx.cancel);
    loop {
        let t = 'find: loop {
            if let Some(t) = sched.pop(w) {
                break 'find t;
            }
            if sched.is_finished() {
                return;
            }
            if cancel.is_cancelled() {
                // Snapshot the wait table before the drain empties it:
                // it is the post-mortem's record of who was parked on
                // what at the moment of failure. First capture wins.
                sched.capture_waits();
                // Wake everything so each task observes the token and
                // unwinds; once the queues are dry this worker is done —
                // a task stranded by a worker death outside the
                // interpreter no longer counts.
                sched.drain_waiting();
                match sched.pop(w) {
                    Some(t) => break 'find t,
                    None => return,
                }
            }
            // Park protocol: read the epoch, re-probe, then sleep bounded
            // by the next timer. Any publish after the epoch read bumps
            // it and the park returns immediately.
            let seen = sched.parker.epoch();
            if let Some(t) = sched.pop(w) {
                break 'find t;
            }
            if sched.is_finished() || cancel.is_cancelled() {
                continue;
            }
            let (woke, next_timer) = sched.fire_timers(Instant::now());
            if woke {
                continue;
            }
            sched.park(w, seen, next_timer);
        };
        run_task(t, w, ctx);
    }
}
