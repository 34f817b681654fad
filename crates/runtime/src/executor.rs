//! The run driver: options, errors, the arena, and [`run`] — the one way
//! to execute a program.
//!
//! A request is a [`Run`]: program, inputs, options, and optionally an
//! arena to run in, a fault injector, and whether to record a trace or
//! fold a metrics snapshot. [`run`] returns a [`RunReport`] with the
//! result and everything else the run produced.
//! [`execute`], [`execute_in_arena`] and [`execute_with_metrics`] are
//! one-expression conveniences over it; the recovery ladder
//! ([`crate::execute_with_recovery`]) takes the same request.
//!
//! Each IR thread block is a resumable task (see [`crate::task`]) on a
//! work-stealing pool of `min(num_cpus, num_tbs)` workers (override:
//! [`RunOptions::worker_threads`]). The compiled per-block instruction
//! order is untouched — only *who* runs a block's next step, and when,
//! varies — so results are bit-exact at any pool size.
//!
//! Nothing about the *program* is derived per call: the lowered
//! instruction tables, connection and task indices, FIFOs, semaphores,
//! tasks and scheduler live in an [`ExecPlan`] held in the
//! [`ExecArena`] with those of the other recently run programs (see
//! [`crate::plan`]), and the pool's workers `1..N`
//! are threads resident in the arena. A run on a matching plan is reset,
//! load inputs, wake the workers, interpret, extract; a request without
//! an arena takes the same path in a throwaway one.
//!
//! Independently of tracing, each task keeps a small ring buffer of its
//! recent activity, and when the run fails the error carries every
//! thread block's last few entries — enough to see who stalled on what.
//!
//! Failure handling is *cooperative* (see [`crate::cancel`]): the first
//! task to fail — step timeout, global deadline, panic, injected kill —
//! trips the plan's cancel token recording the originating failure, and
//! every other task aborts its waits within milliseconds. The run
//! therefore reports one precise origin instead of N cascading timeouts,
//! and a kill anywhere tears the whole execution down in well under a
//! second regardless of the configured timeouts.
//!
//! Deterministic faults ([`msccl_faults`]) are injected at two hook
//! points: block faults (stall/kill) as an instruction starts, delivery
//! faults (drop/delay/duplicate/corrupt) as a tile is handed to its FIFO.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use msccl_faults::{FaultInjector, FaultPlanError};
use msccl_metrics::{names, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use msccl_topology::Protocol;
use msccl_trace::{ClockDomain, EventKind, Trace, TraceEvent};

use mscclang::{IrProgram, OpCode, ReduceOp};

use crate::cancel::{CancelToken, FailureCause, FailureOrigin};
use crate::fifo::Fifo;
use crate::flight::{
    Blackbox, BlackboxConn, BlackboxFailure, BlackboxSched, FlightRecorder, StallDiagnosis,
    TaskStall, WaitForGraph,
};
use crate::memory::{RankMemory, SpaceBuffers};
use crate::plan::{worker_pool_size, ExecPlan, PlanCounters, TbPlan};
use crate::pool::{PoolStats, PooledTile, TilePool};
use crate::sched::Scheduler;
use crate::semaphore::Semaphore;
use crate::task::{worker_loop, TbTask, STRAGGLE_UNIT_NS};
use crate::workers::Workers;

/// Options controlling an execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Protocol whose slot size sets the default tile size and whose slot
    /// count bounds each connection's FIFO (§6.1).
    pub protocol: Protocol,
    /// Override for the tile size in elements; defaults to
    /// `slot_bytes / 4`.
    pub tile_elems: Option<usize>,
    /// The reduction operator.
    pub reduce_op: ReduceOp,
    /// How long any single blocking step may wait before the run is
    /// declared hung (a deadlock diagnostic for hand-written IR; compiled
    /// IR is deadlock-free by construction). Progress resets the clock:
    /// a run may legitimately take far longer than this end to end, as
    /// long as no *individual* semaphore wait, FIFO send or FIFO receive
    /// stalls past it. Bound total wall-clock time with [`deadline`].
    ///
    /// [`deadline`]: RunOptions::deadline
    pub timeout: Duration,
    /// Optional global wall-clock budget for the whole execution,
    /// measured from entry. Unlike [`timeout`], this fires even when
    /// every step makes (slow) progress. `None` means unbounded.
    ///
    /// [`timeout`]: RunOptions::timeout
    pub deadline: Option<Duration>,
    /// Whether to keep the always-on metric counters (bytes/messages per
    /// connection, wait and block time, per-instruction-kind latency
    /// histograms — see [`msccl_metrics::names`]). On by default: the hot
    /// path per counter is one relaxed atomic add into a per-worker
    /// shard, and the throughput bench gates the total overhead below a
    /// few percent. Disable only to measure that overhead.
    pub metrics: bool,
    /// Size of the work-stealing worker pool (`--threads`). `0` (the
    /// default) picks `min(available_parallelism, num_tbs)`; any other
    /// value is clamped to `[1, num_tbs]`. Results are bit-exact at
    /// every pool size — the setting trades scheduling parallelism
    /// against oversubscription, nothing else.
    pub worker_threads: usize,
    /// Whether to keep the always-on flight recorder: per-worker
    /// fixed-capacity ring buffers of compact binary records (task
    /// dispatches, blocks, wakes, steals, parks, semaphore sets, FIFO
    /// depths). On by default — the hot path is two relaxed atomic
    /// stores into a preallocated ring with no clock reads, and the
    /// throughput bench gates the overhead below the same few-percent
    /// budget as metrics. The rings feed the post-mortem black box;
    /// disable only to measure the overhead.
    pub flight: bool,
    /// Directory for post-mortem black-box dumps. When set, every failed
    /// run (hang, deadline, panic, injected kill) serializes a versioned
    /// [`msccl-blackbox-v1`](crate::BLACKBOX_VERSION) JSON artifact —
    /// flight rings, wait-for graph, stall diagnosis, scheduler and
    /// connection state — readable by `msccl doctor`. `None` (the
    /// default) writes nothing; the library never touches the
    /// filesystem unless asked.
    pub blackbox_dir: Option<std::path::PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            protocol: Protocol::Simple,
            tile_elems: None,
            reduce_op: ReduceOp::Sum,
            timeout: Duration::from_secs(20),
            deadline: None,
            metrics: true,
            worker_threads: 0,
            flight: true,
            blackbox_dir: None,
        }
    }
}

/// Errors from the functional runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The provided inputs do not match the program's layout.
    InputShape {
        /// Description of the mismatch.
        message: String,
    },
    /// The [`RunOptions`] are self-contradictory or degenerate.
    InvalidOptions {
        /// Which option, and why.
        message: String,
    },
    /// The program fails [`IrProgram::check_structure`]: it cannot be
    /// lowered to an execution plan.
    InvalidProgram {
        /// The structure check's message.
        message: String,
    },
    /// A fault plan does not fit the program it was asked to disrupt.
    InvalidFaultPlan {
        /// The underlying [`FaultPlanError`], rendered.
        message: String,
    },
    /// A thread block blocked longer than the timeout (deadlock or hang).
    Hang {
        /// Rank of the stuck thread block.
        rank: usize,
        /// Thread block id.
        tb: usize,
        /// Step it was executing.
        step: usize,
        /// Every thread block's most recent activity (one line per ring
        /// entry, oldest first), plus any injected faults that struck
        /// and the classified stall diagnosis.
        context: Vec<String>,
        /// Structured wait-for-graph diagnosis of the stall (boxed: the
        /// graph snapshot is large relative to the happy-path variants).
        diagnosis: Box<StallDiagnosis>,
        /// Observed cancellation latency: time from the failing worker
        /// tripping the cancel token to the last worker joining. This is
        /// what "prompt teardown" means, independent of how loaded the
        /// host is before or after the run.
        drain: Duration,
    },
    /// The global wall-clock [`deadline`](RunOptions::deadline) passed.
    DeadlineExceeded {
        /// Rank of the thread block that observed the deadline first.
        rank: usize,
        /// Thread block id.
        tb: usize,
        /// Step it was executing.
        step: usize,
        /// Every thread block's most recent activity, plus any injected
        /// faults that struck.
        context: Vec<String>,
        /// Structured stall diagnosis (see [`RuntimeError::Hang`]).
        diagnosis: Box<StallDiagnosis>,
        /// Observed cancellation latency (see [`RuntimeError::Hang`]).
        drain: Duration,
    },
    /// A worker thread panicked.
    WorkerPanic {
        /// Rank of the panicking thread block.
        rank: usize,
        /// Thread block id.
        tb: usize,
        /// Step it was executing when it panicked.
        step: usize,
        /// The panic payload, stringified.
        payload: String,
        /// Every thread block's most recent activity.
        context: Vec<String>,
        /// Structured stall diagnosis (see [`RuntimeError::Hang`]).
        diagnosis: Box<StallDiagnosis>,
        /// Observed cancellation latency (see [`RuntimeError::Hang`]).
        drain: Duration,
    },
    /// An injected fault killed a thread block.
    InjectedFault {
        /// Rank of the killed thread block.
        rank: usize,
        /// Thread block id.
        tb: usize,
        /// Step at which the fault struck.
        step: usize,
        /// The fault, rendered in fault-plan syntax.
        fault: String,
        /// Every thread block's most recent activity, plus any injected
        /// faults that struck.
        context: Vec<String>,
        /// Structured stall diagnosis (see [`RuntimeError::Hang`]).
        diagnosis: Box<StallDiagnosis>,
        /// Observed cancellation latency (see [`RuntimeError::Hang`]).
        drain: Duration,
    },
    /// Outputs did not match the collective's reference semantics (raised
    /// by the recovery layer's verification, never by plain execution).
    VerificationFailed {
        /// First mismatch found.
        message: String,
    },
    /// The whole-recovery deadline budget ([`RunOptions::deadline`] under
    /// [`execute_with_recovery`](crate::execute_with_recovery)) ran out
    /// between attempts: the remaining budget was smaller than the next
    /// backoff, so the loop failed fast instead of sleeping past it.
    RecoveryBudgetExhausted {
        /// Attempts completed before the budget ran out.
        attempts: usize,
        /// The backoff that would have overrun the budget, in
        /// milliseconds.
        next_backoff_ms: u64,
        /// Budget remaining when the decision was taken, in milliseconds.
        remaining_ms: u64,
        /// The transient failure that would have been retried, rendered.
        last_error: String,
    },
}

fn write_context(f: &mut fmt::Formatter<'_>, context: &[String]) -> fmt::Result {
    if !context.is_empty() {
        write!(f, "; recent activity per thread block:")?;
        for line in context {
            write!(f, "\n  {line}")?;
        }
    }
    Ok(())
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InputShape { message } => write!(f, "bad input shape: {message}"),
            RuntimeError::InvalidOptions { message } => write!(f, "invalid run options: {message}"),
            RuntimeError::InvalidProgram { message } => write!(f, "invalid program: {message}"),
            RuntimeError::InvalidFaultPlan { message } => {
                write!(f, "invalid fault plan: {message}")
            }
            RuntimeError::Hang {
                rank,
                tb,
                step,
                context,
                ..
            } => {
                write!(f, "execution hung at rank {rank} tb {tb} step {step}")?;
                write_context(f, context)
            }
            RuntimeError::DeadlineExceeded {
                rank,
                tb,
                step,
                context,
                ..
            } => {
                write!(
                    f,
                    "global deadline exceeded at rank {rank} tb {tb} step {step}"
                )?;
                write_context(f, context)
            }
            RuntimeError::WorkerPanic {
                rank,
                tb,
                step,
                payload,
                context,
                ..
            } => {
                write!(
                    f,
                    "worker panicked at rank {rank} tb {tb} step {step}: {payload}"
                )?;
                write_context(f, context)
            }
            RuntimeError::InjectedFault {
                rank,
                tb,
                step,
                fault,
                context,
                ..
            } => {
                write!(
                    f,
                    "injected fault killed rank {rank} tb {tb} step {step}: {fault}"
                )?;
                write_context(f, context)
            }
            RuntimeError::VerificationFailed { message } => {
                write!(f, "output verification failed: {message}")
            }
            RuntimeError::RecoveryBudgetExhausted {
                attempts,
                next_backoff_ms,
                remaining_ms,
                last_error,
            } => {
                write!(
                    f,
                    "recovery deadline budget exhausted after {attempts} attempt(s): \
                     {remaining_ms}ms remaining < {next_backoff_ms}ms next backoff \
                     (last failure: {last_error})"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<FaultPlanError> for RuntimeError {
    fn from(e: FaultPlanError) -> Self {
        RuntimeError::InvalidFaultPlan {
            message: e.to_string(),
        }
    }
}

impl RuntimeError {
    /// Whether a retry of the same execution could plausibly succeed.
    /// Structural rejections (bad inputs, bad options, bad plans) are
    /// permanent; everything rooted in timing, scheduling or injected
    /// faults is transient under one-shot injection semantics.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        !matches!(
            self,
            RuntimeError::InputShape { .. }
                | RuntimeError::InvalidOptions { .. }
                | RuntimeError::InvalidProgram { .. }
                | RuntimeError::InvalidFaultPlan { .. }
                | RuntimeError::RecoveryBudgetExhausted { .. }
        )
    }

    /// The observed cancellation latency — time from the failing worker
    /// tripping the cancel token to the last worker joining — for the
    /// failure variants that tear a run down. This, not wall clock around
    /// the whole call, is the right thing to assert "prompt abort" on:
    /// it excludes setup and scheduling noise on loaded hosts.
    #[must_use]
    pub fn drain(&self) -> Option<Duration> {
        match self {
            RuntimeError::Hang { drain, .. }
            | RuntimeError::DeadlineExceeded { drain, .. }
            | RuntimeError::WorkerPanic { drain, .. }
            | RuntimeError::InjectedFault { drain, .. } => Some(*drain),
            _ => None,
        }
    }

    /// The structured wait-for-graph diagnosis for the failure variants
    /// that tear a run down, or `None` for structural rejections.
    #[must_use]
    pub fn diagnosis(&self) -> Option<&StallDiagnosis> {
        match self {
            RuntimeError::Hang { diagnosis, .. }
            | RuntimeError::DeadlineExceeded { diagnosis, .. }
            | RuntimeError::WorkerPanic { diagnosis, .. }
            | RuntimeError::InjectedFault { diagnosis, .. } => Some(diagnosis),
            _ => None,
        }
    }

    /// Path of the black-box dump written for this failure, when
    /// [`RunOptions::blackbox_dir`] was set.
    #[must_use]
    pub fn blackbox_path(&self) -> Option<&std::path::Path> {
        self.diagnosis().and_then(|d| d.dump.as_deref())
    }
}

/// Observability counters for one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tile-pool behaviour *during this run* (allocation/reuse deltas;
    /// `free` is the pool's absolute level afterwards). In a warm
    /// [`ExecArena`], `pool.allocated` is zero.
    pub pool: PoolStats,
    /// Instruction instances completed across all thread blocks and
    /// tiles — the denominator for allocations-per-step.
    pub instructions: u64,
    /// Input elements this run copied into rank memory before
    /// interpreting. Only input chunks some instruction reads from rank
    /// memory are copied; every other read of the caller's input happens
    /// in place (see [`crate::plan`]). Zero for ring allreduce.
    pub input_elems_loaded: u64,
}

/// The tile pool for `ir` under `opts`: buffers sized to one maximal tile
/// (`tile_elems` × the largest instruction `count`).
fn tile_pool_for(ir: &IrProgram, opts: &RunOptions) -> Arc<TilePool> {
    let params = opts.protocol.params();
    let tile_elems = opts
        .tile_elems
        .unwrap_or_else(|| ((params.slot_bytes as usize) / std::mem::size_of::<f32>()).max(1));
    let max_count = ir
        .gpus
        .iter()
        .flat_map(|g| &g.threadblocks)
        .flat_map(|t| &t.instructions)
        .map(|i| i.count.max(1))
        .max()
        .unwrap_or(1);
    TilePool::new(tile_elems * max_count)
}

/// How many execution plans one [`ExecArena`] keeps: the plan of the
/// program that ran last plus the most recently run others, parked. A
/// run of a program whose plan is held, by content (see [`crate::plan`]),
/// builds nothing; past this bound the least recently run plan is
/// dropped. 64 is `msccl serve`'s default IR-cache capacity, so a slot
/// keeps a plan for every program its cache can hold.
pub const ARENA_PLANS: usize = 64;

/// Warm, reusable execution state: the tile pool, recycled rank memory
/// spaces and (optionally) result vectors, the execution plans of the
/// programs that ran here most recently (at most [`ARENA_PLANS`]), and
/// the worker pool's resident threads. A [`Run`] with [`Run::arena`] set
/// draws every buffer of the data path from here and stashes the space
/// buffers back after the run, so repeated executions of the same
/// program allocate nothing on the data path in steady state — not
/// tiles, not rank memory, and, when finished outputs are handed back
/// with [`recycle_outputs`](ExecArena::recycle_outputs), not result
/// buffers either — and rebuild nothing about the program: a run on a
/// held plan is reset, load inputs, wake the workers, interpret,
/// extract. Programs that alternate in one arena — a recovery ladder's
/// primary and fallback, a daemon slot's traffic — each keep their plan.
/// Beyond skipping `malloc`, reuse keeps the pages faulted in: for large
/// buffers that is worth more than the allocation itself.
///
/// The arena owns workers `1..N` of the pool as threads parked between
/// runs (worker 0 is the calling thread); dropping the arena joins them.
pub struct ExecArena {
    pool: Arc<TilePool>,
    spares: Vec<SpaceBuffers>,
    outputs: Vec<Vec<f32>>,
    /// The held plans, in no order: a plan stays where it was built, and
    /// a dropped plan's slot takes the next one built.
    plans: Vec<ExecPlan>,
    /// Indices into `plans`, most recently run first: the front one is
    /// the last run's, possibly left dirty by a failure; the rest are
    /// parked with no tile out of the pool. See [`take_plan`].
    recent: Vec<usize>,
    counters: PlanCounters,
    workers: Workers,
}

impl ExecArena {
    /// An arena whose tile pool is sized for `ir` under `opts` (one
    /// maximal tile per buffer). Memory-space and output buffers are adopted
    /// from whatever program runs in it, and a program's plan is built by
    /// its first run, so one arena can serve different programs of similar
    /// size — each program costs one plan build while it stays among the
    /// [`ARENA_PLANS`] most recently run.
    #[must_use]
    pub fn new(ir: &IrProgram, opts: &RunOptions) -> Self {
        Self {
            pool: tile_pool_for(ir, opts),
            spares: Vec::new(),
            outputs: Vec::new(),
            plans: Vec::new(),
            recent: Vec::new(),
            counters: PlanCounters::default(),
            workers: Workers::new(),
        }
    }

    /// The arena's tile pool, e.g. for inspecting cumulative
    /// [`stats`](TilePool::stats).
    #[must_use]
    pub fn pool(&self) -> &Arc<TilePool> {
        &self.pool
    }

    /// How many execution plans this arena has built so far: one per
    /// run of a program whose plan it did not hold. A warm arena's count
    /// stands still.
    #[must_use]
    pub fn plans_built(&self) -> u64 {
        self.counters.plans_built
    }

    /// Hands finished output buffers back for reuse as the next run's
    /// result vectors.
    pub fn recycle_outputs(&mut self, outputs: Vec<Vec<f32>>) {
        self.outputs.extend(outputs);
    }
}

/// The held plan matching `(ir, num_slots, pool_threads)`, built when
/// none matches, now first in `recent` — checked most recent first, so
/// a run of the last program costs the one compare it always did. The
/// plan it displaces from the front is parked: its FIFOs and tasks give
/// back any tile a failed run stranded there, so parked plans hold
/// nothing of the pool. Past [`ARENA_PLANS`] a new plan replaces the
/// least recently run one. Only indices move; a plan never does.
fn take_plan<'p>(
    plans: &'p mut Vec<ExecPlan>,
    recent: &mut Vec<usize>,
    counters: &mut PlanCounters,
    ir: &IrProgram,
    num_slots: usize,
    pool_threads: usize,
) -> mscclang::Result<&'p mut ExecPlan> {
    match recent
        .iter()
        .position(|&i| plans[i].matches(ir, num_slots, pool_threads))
    {
        Some(0) => {}
        Some(held) => {
            plans[recent[0]].release_tiles();
            recent[..=held].rotate_right(1);
        }
        None => {
            let built = ExecPlan::build(ir, num_slots, pool_threads, counters)?;
            if let Some(&front) = recent.first() {
                plans[front].release_tiles();
            }
            let slot = if plans.len() < ARENA_PLANS {
                plans.push(built);
                plans.len() - 1
            } else {
                let lru = recent.pop().expect("a full arena holds plans");
                plans[lru] = built;
                lru
            };
            recent.insert(0, slot);
        }
    }
    debug_assert!(plans.len() <= ARENA_PLANS && recent.len() == plans.len());
    debug_assert!(
        recent[1..].iter().all(|&i| !plans[i].holds_tiles()),
        "a parked plan holds tiles"
    );
    Ok(&mut plans[recent[0]])
}

impl fmt::Debug for ExecArena {
    /// What the arena holds and what building it has cost: a warm arena
    /// shows `plans_built` and `threads_spawned` standing still.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecArena")
            .field("pool", &self.pool.stats())
            .field("spare_memories", &self.spares.len())
            .field("spare_outputs", &self.outputs.len())
            .field("plans_held", &self.plans.len())
            .field("plans_built", &self.counters.plans_built)
            .field("elision_scans", &self.counters.elision_scans)
            .field("tasks_built", &self.counters.tasks_built)
            .field("threads_spawned", &self.workers.spawned())
            .finish()
    }
}

/// One in this many instructions of each thread block gets a
/// latency-histogram observation: a task samples when its own completed-
/// instruction count is a multiple of this. Counting every instruction is
/// cheap; *timing* every instruction is not — two clock reads dwarf the
/// relaxed adds the rest of the instrumentation costs. Sampling keeps the
/// per-op latency distribution honest while staying inside the <3%
/// always-on budget. The first instruction of every thread block is
/// always sampled (on a fresh run), so even a one-instruction run
/// produces an observation per active opcode.
pub(crate) const LATENCY_SAMPLE_PERIOD: u64 = 8;

// The per-task diagnostic ring (`EventRing`, `Moment`) lives in
// `crate::flight` alongside the rest of the forensics layer.

/// Per-worker trace recorder: a plain `Vec` owned by the worker thread
/// (lock-free by construction), merged into one [`Trace`] after join.
pub(crate) struct Recorder {
    pub(crate) enabled: bool,
    pub(crate) epoch: Instant,
    pub(crate) rank: usize,
    pub(crate) tb: usize,
    pub(crate) events: Vec<TraceEvent>,
}

impl Recorder {
    pub(crate) fn emit(&mut self, kind: EventKind) {
        if self.enabled {
            self.events.push(TraceEvent {
                ts_us: self.epoch.elapsed().as_secs_f64() * 1e6,
                rank: self.rank,
                tb: self.tb,
                kind,
            });
        }
    }
}

/// One worker's metric handles, resolved from the [`Registry`] at spawn
/// time so the hot path never touches the registry lock: each update is
/// an array index plus a relaxed atomic add into this worker's shard.
pub(crate) struct WorkerMetrics {
    /// This worker's shard in every sharded metric.
    pub(crate) shard: usize,
    pub(crate) sem_wait_ns: Arc<Counter>,
    pub(crate) fifo_send_block_ns: Arc<Counter>,
    pub(crate) fifo_recv_block_ns: Arc<Counter>,
    /// `(bytes_sent, sends, peak_occupancy)` for this thread block's send
    /// connection, when it has one.
    pub(crate) send_conn: Option<(Arc<Counter>, Arc<Counter>, Arc<Gauge>)>,
    /// `(bytes_received, recvs)` for this thread block's receive
    /// connection, when it has one.
    pub(crate) recv_conn: Option<(Arc<Counter>, Arc<Counter>)>,
    /// Per-opcode `(instruction counter, latency histogram)`, indexed by
    /// [`OpCode::index`].
    pub(crate) ops: Vec<(Arc<Counter>, Arc<Histogram>)>,
}

impl WorkerMetrics {
    fn new(reg: &Registry, shard: usize, rank: usize, tb: &mscclang::IrThreadBlock) -> Self {
        let conn = |src: usize, dst: usize| -> [(String, String); 3] {
            [
                ("src".to_string(), src.to_string()),
                ("dst".to_string(), dst.to_string()),
                ("channel".to_string(), tb.channel.to_string()),
            ]
        };
        fn as_refs(pairs: &[(String, String); 3]) -> Vec<(&str, &str)> {
            pairs
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect()
        }
        let send_conn = tb.send_peer.map(|peer| {
            let labels = conn(rank, peer);
            let labels = as_refs(&labels);
            (
                reg.counter(names::BYTES_SENT, &labels),
                reg.counter(names::SENDS, &labels),
                reg.gauge(names::FIFO_PEAK_OCCUPANCY, &labels),
            )
        });
        let recv_conn = tb.recv_peer.map(|peer| {
            let labels = conn(peer, rank);
            let labels = as_refs(&labels);
            (
                reg.counter(names::BYTES_RECEIVED, &labels),
                reg.counter(names::RECVS, &labels),
            )
        });
        Self {
            shard,
            sem_wait_ns: reg.counter(names::SEM_WAIT_NS, &[]),
            fifo_send_block_ns: reg.counter(names::FIFO_SEND_BLOCK_NS, &[]),
            fifo_recv_block_ns: reg.counter(names::FIFO_RECV_BLOCK_NS, &[]),
            send_conn,
            recv_conn,
            ops: OpCode::ALL
                .iter()
                .map(|op| {
                    (
                        reg.counter(names::INSTRUCTIONS, &[("op", op.mnemonic())]),
                        reg.histogram(names::INSTR_LATENCY_NS, &[("op", op.mnemonic())]),
                    )
                })
                .collect(),
        }
    }

    /// Zeroes this task's slice of every metric it writes, at the start
    /// of a snapshotting run, so reused plan handles yield a per-run
    /// snapshot: shards are disjoint per task, and the peak-occupancy
    /// gauge has the sending thread block as its only writer.
    fn reset_own_shard(&self) {
        self.sem_wait_ns.reset_shard(self.shard);
        self.fifo_send_block_ns.reset_shard(self.shard);
        self.fifo_recv_block_ns.reset_shard(self.shard);
        if let Some((bytes_sent, sends, peak)) = &self.send_conn {
            bytes_sent.reset_shard(self.shard);
            sends.reset_shard(self.shard);
            peak.reset();
        }
        if let Some((bytes_recv, recvs)) = &self.recv_conn {
            bytes_recv.reset_shard(self.shard);
            recvs.reset_shard(self.shard);
        }
        for (count, latency) in &self.ops {
            count.reset_shard(self.shard);
            latency.reset_shard(self.shard);
        }
    }
}

/// A program's metric infrastructure, resolved once per execution plan
/// and reused: the registry plus one [`WorkerMetrics`] per thread block
/// in spawn order. Handle resolution goes through the registry mutex
/// with owned label strings and allocates every metric's shard array, so
/// doing it per run costs tens of microseconds — real money against the
/// <3% always-on overhead budget at small message sizes.
pub(crate) struct ArenaMetrics {
    registry: Registry,
    workers: Vec<WorkerMetrics>,
    /// Tile-pool counters, written on shard 0 by the main thread after
    /// the workers quiesce.
    pool_allocated: Arc<Counter>,
    pool_reused: Arc<Counter>,
}

impl ArenaMetrics {
    pub(crate) fn new(ir: &IrProgram) -> Self {
        let num_workers = ir.num_threadblocks();
        let registry = Registry::new(num_workers.max(1));
        let mut workers = Vec::with_capacity(num_workers);
        for gpu in &ir.gpus {
            for tb in &gpu.threadblocks {
                workers.push(WorkerMetrics::new(&registry, workers.len(), gpu.rank, tb));
            }
        }
        let pool_allocated = registry.counter(names::POOL_ALLOCATED, &[]);
        let pool_reused = registry.counter(names::POOL_REUSED, &[]);
        Self {
            registry,
            workers,
            pool_allocated,
            pool_reused,
        }
    }
}

pub(crate) fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn validate_options(opts: &RunOptions) -> Result<(), RuntimeError> {
    if opts.timeout.is_zero() {
        return Err(RuntimeError::InvalidOptions {
            message: "timeout must be positive".into(),
        });
    }
    if opts.tile_elems == Some(0) {
        return Err(RuntimeError::InvalidOptions {
            message: "tile_elems must be positive when set".into(),
        });
    }
    if opts.deadline.is_some_and(|d| d.is_zero()) {
        return Err(RuntimeError::InvalidOptions {
            message: "deadline must be positive when set".into(),
        });
    }
    Ok(())
}

/// One execution request: the program, its inputs and options, and the
/// four things a caller may add to a plain run. Build the plain form
/// with [`Run::new`] and set what differs with struct-update syntax:
///
/// ```
/// # use msccl_runtime::{reference, run, ExecArena, Run, RunOptions};
/// # use mscclang::{compile, CompileOptions};
/// # let program = msccl_algos::ring_all_reduce(4, 1)?;
/// # let ir = compile(&program, &CompileOptions::default())?;
/// # let inputs = reference::random_inputs(&ir, 64, 42);
/// # let opts = RunOptions::default();
/// let mut arena = ExecArena::new(&ir, &opts);
/// let report = run(Run {
///     arena: Some(&mut arena),
///     trace: true,
///     ..Run::new(&ir, &inputs, 64, &opts)
/// });
/// assert!(report.result.is_ok() && report.trace.is_some());
/// # Ok::<(), mscclang::Error>(())
/// ```
///
/// The fields compose freely — a traced run in a warm arena, faults with
/// a metrics snapshot — because each is read at one place in the one run
/// path.
pub struct Run<'a> {
    /// The compiled program.
    pub ir: &'a IrProgram,
    /// `inputs[r]` must hold `in_chunks * chunk_elems` elements.
    pub inputs: &'a [Vec<f32>],
    /// Elements per chunk.
    pub chunk_elems: usize,
    /// Protocol, tiling, reduce operator, timeouts, pool size.
    pub opts: &'a RunOptions,
    /// Draw every buffer of the data path — tiles, rank memory, result
    /// vectors — and the execution plan and worker threads from this
    /// arena, and return them to it afterwards. After one warm-up run
    /// (and with outputs handed back via [`ExecArena::recycle_outputs`])
    /// a run of the same program allocates nothing on the data path and
    /// rebuilds nothing about the program. `None` runs in a throwaway arena: plan built, used once
    /// and dropped, threads spawned and joined.
    pub arena: Option<&'a mut ExecArena>,
    /// Inject deterministic faults. A fault plan describes one incident:
    /// injection is one-shot per spec *across the injector's lifetime*,
    /// and the recovery ladder ([`crate::execute_with_recovery`]) hands
    /// the injector to its first attempt only, so neither a retry nor
    /// the fallback meets a fault — persistent benign ones (a straggler,
    /// a latency spike) included. A disruptive
    /// fault surfaces as a structured error whose context names the
    /// faults that struck; a corrupting fault surfaces only through
    /// output verification (see
    /// [`reference::check_outputs`](crate::reference::check_outputs) or
    /// the recovery layer). Costs one branch per instruction and per
    /// send.
    pub injector: Option<&'a FaultInjector>,
    /// Record a wall-clock [`Trace`] of every instruction, semaphore
    /// wait, FIFO block and message. Each task appends to its own buffer
    /// (no synchronization beyond what execution itself needs); the
    /// buffers are merged after the workers quiesce. Costs a clock read
    /// and a push per event; off, every event push is skipped.
    pub trace: bool,
    /// Fold the always-on counters — bytes and messages per connection,
    /// semaphore wait and FIFO block time, per-instruction-kind latency
    /// histograms, tile-pool behaviour — into [`RunReport::metrics`].
    /// The counters are kept either way (see [`RunOptions::metrics`]);
    /// this zeroes them before the run and pays the shard sums and key
    /// clones after it.
    pub snapshot: bool,
}

impl<'a> Run<'a> {
    /// A plain run: throwaway arena, no faults, no trace, no snapshot.
    #[must_use]
    pub fn new(
        ir: &'a IrProgram,
        inputs: &'a [Vec<f32>],
        chunk_elems: usize,
        opts: &'a RunOptions,
    ) -> Self {
        Self {
            ir,
            inputs,
            chunk_elems,
            opts,
            arena: None,
            injector: None,
            trace: false,
            snapshot: false,
        }
    }
}

/// Everything one [`run`] produces.
#[derive(Debug)]
pub struct RunReport {
    /// Each rank's output buffer (`out_chunks * chunk_elems` elements),
    /// or why there is none: shape mismatches, invalid options, hangs,
    /// deadline overruns, worker panics, injected kills.
    pub result: Result<Vec<Vec<f32>>, RuntimeError>,
    /// Tile-pool allocation counters and instructions executed.
    pub stats: ExecStats,
    /// The trace, when [`Run::trace`] was set and the run succeeded.
    pub trace: Option<Trace>,
    /// The metrics snapshot; empty unless [`Run::snapshot`] and
    /// [`RunOptions::metrics`] were both on.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// The report of a request rejected before anything ran.
    fn rejected(error: RuntimeError) -> Self {
        Self {
            result: Err(error),
            stats: ExecStats::default(),
            trace: None,
            metrics: MetricsSnapshot::default(),
        }
    }
}

/// [`run`] with every [`Run`] field at its default, returning only the
/// outputs.
///
/// # Errors
///
/// Returns [`RuntimeError`] on shape mismatches, invalid options, hangs,
/// deadline overruns and worker panics.
pub fn execute(
    ir: &IrProgram,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    opts: &RunOptions,
) -> Result<Vec<Vec<f32>>, RuntimeError> {
    run(Run::new(ir, inputs, chunk_elems, opts)).result
}

/// [`run`] with [`Run::snapshot`] set, returning the outputs and the
/// [`MetricsSnapshot`] (empty when [`RunOptions::metrics`] is off).
///
/// # Errors
///
/// As [`execute`].
pub fn execute_with_metrics(
    ir: &IrProgram,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    opts: &RunOptions,
) -> Result<(Vec<Vec<f32>>, MetricsSnapshot), RuntimeError> {
    let report = run(Run {
        snapshot: true,
        ..Run::new(ir, inputs, chunk_elems, opts)
    });
    report.result.map(|outputs| (outputs, report.metrics))
}

/// [`run`] in a caller-owned [`ExecArena`], returning the outputs and
/// the run's [`ExecStats`] — the steady-state configuration the
/// benchmark measures.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_in_arena(
    ir: &IrProgram,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    opts: &RunOptions,
    arena: &mut ExecArena,
) -> Result<(Vec<Vec<f32>>, ExecStats), RuntimeError> {
    let report = run(Run {
        arena: Some(arena),
        ..Run::new(ir, inputs, chunk_elems, opts)
    });
    report.result.map(|outputs| (outputs, report.stats))
}

/// Everything one run's workers share, borrowed for exactly the span of
/// [`Workers::run`]: the plan's tables and reusable primitives, this
/// run's memories and fault injector, and the per-run scalars. Tasks
/// keep only their own interpreter state and reach the rest through
/// here, which is what lets them outlive the run inside the plan.
pub(crate) struct RunCtx<'r> {
    pub(crate) tbs: &'r [TbPlan],
    pub(crate) fifos: &'r [Fifo<PooledTile>],
    pub(crate) sems: &'r [Semaphore],
    pub(crate) tasks: &'r [Mutex<TbTask>],
    pub(crate) sched: &'r Scheduler,
    pub(crate) cancel: &'r CancelToken,
    pub(crate) memories: &'r [Arc<RankMemory>],
    /// The caller's inputs, which pristine reads take in place.
    pub(crate) inputs: &'r [Vec<f32>],
    pub(crate) pool: &'r Arc<TilePool>,
    pub(crate) injector: Option<&'r FaultInjector>,
    /// One [`WorkerMetrics`] per task, in flat order, when metered.
    pub(crate) metrics: Option<&'r [WorkerMetrics]>,
    pub(crate) flight: Option<&'r FlightRecorder>,
    pub(crate) num_tiles: usize,
    pub(crate) tile_elems: usize,
    pub(crate) chunk_elems: usize,
    pub(crate) op: ReduceOp,
    pub(crate) timeout: Duration,
    pub(crate) global_deadline: Option<Instant>,
}

/// What is wrong with the request's shape or options, if anything.
fn validate(run: &Run<'_>) -> Result<(), RuntimeError> {
    validate_options(run.opts)?;
    let num_ranks = run.ir.num_ranks();
    if run.inputs.len() != num_ranks {
        return Err(RuntimeError::InputShape {
            message: format!("{} input buffers for {} ranks", run.inputs.len(), num_ranks),
        });
    }
    if run.chunk_elems == 0 {
        return Err(RuntimeError::InputShape {
            message: "chunk_elems must be positive".into(),
        });
    }
    let in_elems = run.ir.collective.in_chunks() * run.chunk_elems;
    for (r, buf) in run.inputs.iter().enumerate() {
        if buf.len() != in_elems {
            return Err(RuntimeError::InputShape {
                message: format!(
                    "rank {r} input has {} elements, expected {in_elems}",
                    buf.len()
                ),
            });
        }
    }
    Ok(())
}

/// Executes a compiled program over real `f32` buffers: the one way in.
/// Everything a caller can ask of an execution is a field of [`Run`];
/// everything it can get back is a field of [`RunReport`].
///
/// The run path is: validate, take the arena's held execution plan for
/// the program (or build one), load the input chunks the plan reads from memory into recycled
/// rank memory, reset the plan, interpret on the worker pool, extract
/// outputs, stash the buffers back.
#[must_use]
pub fn run(req: Run<'_>) -> RunReport {
    if let Err(e) = validate(&req) {
        return RunReport::rejected(e);
    }
    let Run {
        ir,
        inputs,
        chunk_elems,
        opts,
        arena,
        injector,
        trace: tracing,
        snapshot: want_snapshot,
    } = req;
    let collective = &ir.collective;
    let num_ranks = ir.num_ranks();

    let params = opts.protocol.params();
    let tile_elems = opts
        .tile_elems
        .unwrap_or_else(|| ((params.slot_bytes as usize) / std::mem::size_of::<f32>()).max(1));
    let num_tiles = chunk_elems.div_ceil(tile_elems);

    // ---- Metrics: one shard per task, so a hot-path update is a relaxed
    // atomic add with no sharing; merged on snapshot. Arena counters are
    // cumulative (the Prometheus model): only a run that materializes a
    // snapshot zeroes the shards first, so plain metered runs pay
    // nothing but the hot-path adds. With no arena and no snapshot
    // requested, the counters would be dropped unread, so they are not
    // collected at all.
    let metered = opts.metrics && (want_snapshot || arena.is_some());

    // ---- One code path: a call without an arena runs in a throwaway
    // one — its plan built, used once and dropped, its threads joined.
    let mut throwaway;
    let arena = match arena {
        Some(arena) => arena,
        None => {
            throwaway = ExecArena::new(ir, opts);
            &mut throwaway
        }
    };
    let ExecArena {
        pool,
        spares,
        outputs: spare_outs,
        plans,
        recent,
        counters,
        workers,
    } = arena;
    // Tile-pool counters are read as before/after deltas so a shared
    // pool's history from earlier runs does not leak into this run's
    // stats.
    let pool_base = pool.stats();

    // ---- The plan: a held one on a content match, built otherwise.
    // Tasks outnumbering workers is the normal case — oversubscription
    // is handled by cooperative yields, not by the OS scheduler
    // thrashing between threads.
    let pool_threads = worker_pool_size(opts.worker_threads, ir.num_threadblocks());
    let plan = match take_plan(plans, recent, counters, ir, params.num_slots, pool_threads) {
        Ok(plan) => plan,
        Err(e) => {
            return RunReport::rejected(RuntimeError::InvalidProgram {
                message: e.to_string(),
            })
        }
    };
    // Worker 0 runs inline on the calling thread — a one-worker pool has
    // no threads at all. Workers 1.. are resident in the arena.
    workers.resize(pool_threads - 1);

    // ---- Memory. Recycled space buffers keep their warmed-up pages.
    // The plan's happens-before sweep decides what is left to do to
    // them: chunks it proves written before every read skip even the
    // re-zero, and of the input chunks only those some instruction reads
    // from memory before writing them are loaded — every other read takes
    // the caller's input in place, so stale recycled contents there are
    // unobservable.
    let mut input_elems_loaded = 0u64;
    let memories: Vec<Arc<RankMemory>> = (0..num_ranks)
        .map(|r| {
            let elide_zero = &plan.elide_zero[r];
            let mem = RankMemory::recycled_skipping(
                collective,
                r,
                ir.gpu(r).scratch_chunks,
                chunk_elems,
                spares.pop().unwrap_or_default(),
                |space, c| elide_zero[space.index()].get(c).copied().unwrap_or(false),
            );
            // The alias map is affine in the chunk index: a rank's input
            // chunks are one contiguous range of one space.
            for load in &plan.input_loads[r] {
                let elems = load.start * chunk_elems..load.end * chunk_elems;
                input_elems_loaded += elems.len() as u64;
                mem.write_at(plan.input_at[r].plus(load.start), 0, &inputs[r][elems]);
            }
            Arc::new(mem)
        })
        .collect();

    // Shared wall-clock origin so all workers' timestamps are comparable;
    // the global deadline, when set, counts from here too.
    let epoch = Instant::now();
    let global_deadline = opts.deadline.map(|d| epoch + d);

    // ---- Reset: FIFOs emptied, semaphores and tasks at zero, every
    // task runnable, wait and timer slots clear, cancel token re-armed.
    plan.reset(metered, opts.flight, |tb, task| {
        let straggle = injector
            .and_then(|i| i.rank_slowdown(tb.rank))
            .filter(|f| *f > 1.0)
            .map(|f| Duration::from_nanos((STRAGGLE_UNIT_NS * (f - 1.0)) as u64));
        task.reset(straggle, tracing, epoch);
    });
    let run_metrics = plan.metrics.as_ref().filter(|_| metered);
    if let Some(m) = run_metrics.filter(|_| want_snapshot) {
        for worker in &m.workers {
            worker.reset_own_shard();
        }
        m.pool_allocated.reset_shard(0);
        m.pool_reused.reset_shard(0);
        m.registry.gauge(names::SCHED_RUNNABLE_PEAK, &[]).reset();
    }
    let flight = plan.flight.as_deref().filter(|_| opts.flight);

    // ---- Interpret. The caller is worker 0; `Workers::run` returns
    // only when every resident worker has quiesced, which is what makes
    // lending them this frame's borrows sound.
    let ctx = RunCtx {
        tbs: &plan.tbs,
        fifos: &plan.fifos,
        sems: &plan.sems,
        tasks: &plan.tasks,
        sched: &plan.sched,
        cancel: &plan.cancel,
        memories: &memories,
        inputs,
        pool,
        injector,
        metrics: run_metrics.map(|m| &m.workers[..]),
        flight,
        num_tiles,
        tile_elems,
        chunk_elems,
        op: opts.reduce_op,
        timeout: opts.timeout,
        global_deadline,
    };
    workers.run(&|w| {
        // Tasks never unwind past run_task's catch_unwind; a panic out
        // of the loop itself means the scheduler broke.
        let looped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            worker_loop(w, &ctx);
        }));
        if looped.is_err() && !ctx.cancel.is_cancelled() {
            ctx.cancel.cancel(FailureOrigin {
                rank: 0,
                tb: 0,
                step: 0,
                cause: FailureCause::Panic("worker died outside the interpreter".into()),
            });
        }
    });

    let sched_stats = plan.sched.stats();
    let origin = plan.cancel.origin();
    let mut buffers: Vec<Vec<TraceEvent>> = Vec::new();
    let mut stalls: Vec<TaskStall> = Vec::new();
    let mut instructions = 0u64;
    for (tb, task) in plan.tbs.iter().zip(&mut plan.tasks) {
        let t = task.get_mut().unwrap_or_else(PoisonError::into_inner);
        // A task that died (cancelled, panicked, or stranded) matches the
        // old model where a stopped worker contributed no instructions.
        if t.done && !t.dead {
            instructions += t.completed;
        }
        if origin.is_some() {
            // Snapshot what the task was (or froze) waiting on, in spawn
            // order, for the wait-for graph. Dead tasks stashed their
            // wait in `die()`; parked tasks still hold it in their `pc`.
            stalls.push(TaskStall {
                rank: t.rank,
                tb: t.tb_id,
                tile: t.tile,
                step: t.step,
                done: t.done,
                dead: t.dead,
                completed: t.completed,
                wait: t.frozen.clone().or_else(|| t.frozen_wait(tb, &plan.sems)),
                send_peer: tb.send.as_ref().map(|c| (c.peer, c.channel)),
                recv_peer: tb.recv.as_ref().map(|c| (c.peer, c.channel)),
                recent: t.ring.dump(),
            });
        }
        if tracing {
            buffers.push(std::mem::take(&mut t.rec.events));
        }
    }
    // Observed cancellation latency: the failing worker stamped the token
    // when it recorded the origin, and at this point every worker has
    // quiesced. This — not wall clock around the whole call — is what
    // "prompt teardown" means on a loaded host.
    let drain = plan
        .cancel
        .cancelled_at()
        .map_or(Duration::ZERO, |at| at.elapsed());

    let pool_now = pool.stats();
    let stats = ExecStats {
        pool: PoolStats {
            allocated: pool_now.allocated.saturating_sub(pool_base.allocated),
            reused: pool_now.reused.saturating_sub(pool_base.reused),
            free: pool_now.free,
        },
        instructions,
        input_elems_loaded,
    };
    // Scrape model: counters are always recorded, but folding them into
    // a snapshot (key clones, shard sums) happens only for callers that
    // return one — entry points that discard it shouldn't pay for it.
    let metrics = run_metrics.filter(|_| want_snapshot).map(|m| {
        // The pool is shared by all workers; its per-run deltas land in
        // shard 0 once the workers have quiesced.
        m.pool_allocated.add(0, stats.pool.allocated);
        m.pool_reused.add(0, stats.pool.reused);
        // Scheduler counters, resolved lazily: a run whose pool never
        // stole or parked carries no scheduler series, so the
        // runtime-vs-simulator metric parity is undisturbed.
        if sched_stats.steals > 0 {
            m.registry
                .counter(names::SCHED_STEALS, &[])
                .add(0, sched_stats.steals);
        }
        if sched_stats.parks > 0 {
            m.registry
                .counter(names::SCHED_PARKS, &[])
                .add(0, sched_stats.parks);
            // Park *time*, pre-bucketed by the scheduler on its idle
            // path: distinguishes "parked often" from "parked long".
            let park_hist = m.registry.histogram(names::SCHED_PARK_NS, &[]);
            for (bucket, count, sum) in plan.sched.park_histogram() {
                park_hist.record_bucketed(0, bucket, count, sum);
            }
        }
        m.registry
            .gauge(names::SCHED_RUNNABLE_PEAK, &[])
            .set_max(sched_stats.peak_runnable);
        m.registry.snapshot()
    });
    let metrics = metrics.unwrap_or_default();

    // Every clone of the memories is gone by now (tasks reach them only
    // through the run context), so they unwrap cleanly and their buffers
    // go back to the arena.
    let stash = |spares: &mut Vec<SpaceBuffers>, memories: Vec<Arc<RankMemory>>| {
        *spares = memories
            .into_iter()
            .filter_map(|m| Arc::try_unwrap(m).ok())
            .map(RankMemory::into_buffers)
            .collect();
    };

    if let Some(origin) = origin {
        stash(spares, memories);
        let FailureOrigin { rank, tb, step, .. } = origin;
        let fired: Vec<String> = injector.map_or_else(Vec::new, |inj| {
            inj.fired().into_iter().map(|f| f.to_string()).collect()
        });
        // One origin, one structured story: classify the wait-for graph
        // built from every task's frozen wait, rooted at the origin.
        let mut diagnosis = if stalls.is_empty() {
            StallDiagnosis::unavailable((rank, tb, step), fired)
        } else {
            let origin_idx = stalls
                .iter()
                .position(|s| s.rank == rank && s.tb == tb)
                .unwrap_or(0);
            let graph = WaitForGraph::build(stalls);
            let mut d = graph.classify(origin_idx, fired);
            // The error reports the origin's step as recorded at the
            // cancel, which can lag the task's own counter by the
            // in-flight instruction; keep the two consistent.
            d.origin = (rank, tb, step);
            d
        };
        // Post-mortem artifact, only when asked for: the library never
        // touches the filesystem on its own.
        if let Some(dir) = opts.blackbox_dir.as_deref() {
            let blackbox = Blackbox {
                version: crate::flight::BLACKBOX_VERSION.to_string(),
                program: ir.name.clone(),
                failure: BlackboxFailure {
                    cause: origin.cause.label().to_string(),
                    detail: origin.cause.detail().to_string(),
                    rank,
                    tb,
                    step,
                    drain_us: drain.as_micros() as u64,
                },
                diagnosis: diagnosis.clone(),
                sched: BlackboxSched {
                    steals: sched_stats.steals,
                    parks: sched_stats.parks,
                    park_ns: sched_stats.park_ns,
                    waits: plan.sched.captured_waits(),
                },
                conns: plan
                    .conns
                    .iter()
                    .zip(&plan.fifos)
                    .map(|(&(src, dst, channel), fifo)| BlackboxConn {
                        src,
                        dst,
                        channel,
                        occupancy: fifo.len(),
                        capacity: fifo.capacity(),
                    })
                    .collect(),
                flight: flight.map_or_else(Vec::new, FlightRecorder::drain),
                metrics: vec![
                    ("instructions_completed".to_string(), instructions),
                    ("pool_tiles_allocated".to_string(), stats.pool.allocated),
                    ("pool_tiles_reused".to_string(), stats.pool.reused),
                ],
            };
            match blackbox.write_to_dir(dir) {
                Ok(path) => diagnosis.dump = Some(path),
                Err(e) => eprintln!("msccl: failed to write black-box dump: {e}"),
            }
        }
        let context = diagnosis.context_lines();
        let diagnosis = Box::new(diagnosis);
        let error = match origin.cause {
            FailureCause::StepTimeout => RuntimeError::Hang {
                rank,
                tb,
                step,
                context,
                diagnosis,
                drain,
            },
            FailureCause::Deadline => RuntimeError::DeadlineExceeded {
                rank,
                tb,
                step,
                context,
                diagnosis,
                drain,
            },
            FailureCause::Panic(payload) => RuntimeError::WorkerPanic {
                rank,
                tb,
                step,
                payload,
                context,
                diagnosis,
                drain,
            },
            FailureCause::InjectedKill(fault) => RuntimeError::InjectedFault {
                rank,
                tb,
                step,
                fault,
                context,
                diagnosis,
                drain,
            },
        };
        return RunReport {
            result: Err(error),
            stats,
            trace: None,
            metrics,
        };
    }

    let trace = tracing.then(|| {
        buffers.push(vec![
            TraceEvent {
                ts_us: 0.0,
                rank: 0,
                tb: 0,
                kind: EventKind::KernelLaunch,
            },
            TraceEvent {
                ts_us: epoch.elapsed().as_secs_f64() * 1e6,
                rank: 0,
                tb: 0,
                kind: EventKind::PoolStats {
                    allocated: stats.pool.allocated,
                    reused: stats.pool.reused,
                },
            },
        ]);
        Trace::from_buffers(ClockDomain::Wall, buffers)
    });

    // ---- Extract outputs. A rank's output chunks are one contiguous
    // range of one space. When that range is the whole space, the
    // space's backing vector *is* the result: steal it via a pointer
    // swap (handing in a recycled vector so the arena cycle stays
    // allocation-free) instead of copying `out_chunks × chunk_elems`
    // elements. Otherwise one `read_into` pass copies the range out.
    let out_elems = collective.out_chunks() * chunk_elems;
    let outputs = (0..num_ranks)
        .map(|r| {
            let spare = spare_outs.pop().unwrap_or_default();
            let (at, whole_space) = plan.output_at[r];
            if whole_space {
                return memories[r].swap_space_buffer(at.space, spare);
            }
            let mut out = spare;
            if out.is_empty() {
                out = vec![0.0; out_elems];
            } else {
                out.resize(out_elems, 0.0);
            }
            if out_elems > 0 {
                memories[r].read_into_at(at, 0, &mut out);
            }
            out
        })
        .collect();
    stash(spares, memories);
    RunReport {
        result: Ok(outputs),
        stats,
        trace,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscclang::{compile, CompileOptions};

    fn run_and_check(program: &mscclang::Program, instances: usize, chunk_elems: usize) {
        let ir = compile(
            program,
            &CompileOptions::default().with_instances(instances),
        )
        .unwrap();
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 7);
        let outputs = execute(&ir, &inputs, chunk_elems, &RunOptions::default()).unwrap();
        crate::reference::check_outputs(
            &ir.collective,
            &inputs,
            &outputs,
            chunk_elems,
            ReduceOp::Sum,
        )
        .unwrap();
    }

    #[test]
    fn ring_allreduce_computes_correct_sums() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        run_and_check(&p, 1, 16);
    }

    #[test]
    fn multi_channel_multi_instance_ring() {
        let p = msccl_algos::ring_all_reduce(4, 2).unwrap();
        run_and_check(&p, 2, 8);
    }

    #[test]
    fn tiling_pipelines_large_chunks() {
        // Force multiple tiles with a tiny tile size.
        let p = msccl_algos::ring_all_reduce(3, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 10;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 3);
        let opts = RunOptions {
            tile_elems: Some(3),
            ..RunOptions::default()
        };
        let outputs = execute(&ir, &inputs, chunk_elems, &opts).unwrap();
        crate::reference::check_outputs(
            &ir.collective,
            &inputs,
            &outputs,
            chunk_elems,
            ReduceOp::Sum,
        )
        .unwrap();
    }

    #[test]
    fn rejects_bad_input_shape() {
        let p = msccl_algos::ring_all_reduce(2, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let err = execute(&ir, &[vec![0.0; 3]], 4, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::InputShape { .. }));
    }

    #[test]
    fn rejects_degenerate_options_by_name() {
        let p = msccl_algos::ring_all_reduce(2, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let inputs = crate::reference::random_inputs(&ir, 4, 1);
        let cases: [(RunOptions, &str); 3] = [
            (
                RunOptions {
                    timeout: Duration::ZERO,
                    ..RunOptions::default()
                },
                "timeout",
            ),
            (
                RunOptions {
                    tile_elems: Some(0),
                    ..RunOptions::default()
                },
                "tile_elems",
            ),
            (
                RunOptions {
                    deadline: Some(Duration::ZERO),
                    ..RunOptions::default()
                },
                "deadline",
            ),
        ];
        for (opts, named) in cases {
            let err = execute(&ir, &inputs, 4, &opts).unwrap_err();
            let RuntimeError::InvalidOptions { message } = &err else {
                panic!("expected InvalidOptions for {named}, got {err:?}");
            };
            assert!(message.contains(named), "{message:?} names {named}");
            assert!(!err.is_transient());
        }
    }

    /// Tracing must not change results, and the trace must pass the
    /// consistency oracle against the IR.
    #[test]
    fn traced_execution_matches_untraced() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 5);
        let plain = execute(&ir, &inputs, chunk_elems, &RunOptions::default()).unwrap();
        let opts = RunOptions::default();
        let report = run(Run {
            trace: true,
            ..Run::new(&ir, &inputs, chunk_elems, &opts)
        });
        let trace = report.trace.expect("tracing was enabled");
        assert_eq!(plain, report.result.unwrap());
        assert!(!trace.is_empty());
        trace.check_consistency(Some(&ir)).unwrap();
        // Every instruction appears exactly once (single tile).
        assert_eq!(trace.executed_instructions().len(), ir.num_instructions());
    }

    #[test]
    fn untraced_execution_records_nothing() {
        let p = msccl_algos::ring_all_reduce(2, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let inputs = crate::reference::random_inputs(&ir, 4, 9);
        let report = run(Run::new(&ir, &inputs, 4, &RunOptions::default()));
        assert!(report.result.is_ok());
        assert!(report.trace.is_none());
        assert!(report.metrics.samples.is_empty());
    }

    fn deadlocked_ir() -> mscclang::IrProgram {
        use mscclang::Collective;
        let collective = Collective::all_gather(2, 1, false);
        let gpu = |rank: usize, peer: usize| mscclang::ir::IrGpu {
            rank,
            input_chunks: 1,
            output_chunks: 2,
            scratch_chunks: 0,
            threadblocks: vec![mscclang::IrThreadBlock {
                id: 0,
                send_peer: Some(peer),
                recv_peer: Some(peer),
                channel: 0,
                instructions: vec![
                    mscclang::IrInstruction {
                        step: 0,
                        op: OpCode::Recv,
                        src: None,
                        dst: Some(mscclang::ir::IrLoc {
                            buffer: mscclang::BufferKind::Output,
                            index: 0,
                        }),
                        count: 1,
                        deps: vec![],
                        has_dep: false,
                    },
                    mscclang::IrInstruction {
                        step: 1,
                        op: OpCode::Send,
                        src: Some(mscclang::ir::IrLoc {
                            buffer: mscclang::BufferKind::Input,
                            index: 0,
                        }),
                        dst: None,
                        count: 1,
                        deps: vec![],
                        has_dep: false,
                    },
                ],
            }],
        };
        mscclang::IrProgram {
            name: "deadlock".into(),
            collective,
            protocol: None,
            num_channels: 1,
            refinement: 1,
            gpus: vec![gpu(0, 1), gpu(1, 0)],
            epoch_cuts: vec![],
        }
    }

    /// A hand-built IR where both ranks only receive: the runtime's
    /// watchdog must report the hang instead of blocking forever.
    #[test]
    fn hang_is_detected() {
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        assert!(matches!(err, RuntimeError::Hang { .. }), "got {err:?}");
        assert!(err.is_transient());
    }

    /// The hang error carries each thread block's last ring entries, and
    /// its display names the blocking receives.
    #[test]
    fn hang_dumps_recent_activity() {
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        let RuntimeError::Hang { step, context, .. } = &err else {
            panic!("expected hang, got {err:?}");
        };
        assert_eq!(*step, 0);
        // Both thread blocks contribute their stuck receive.
        assert!(context
            .iter()
            .any(|l| l.starts_with("rank 0 tb 0") && l.contains("blocked receiving from rank 1")));
        assert!(context
            .iter()
            .any(|l| l.starts_with("rank 1 tb 0") && l.contains("blocked receiving from rank 0")));
        let shown = err.to_string();
        assert!(shown.contains("recent activity per thread block:"));
        assert!(shown.contains("blocked receiving"));
    }

    /// The hang error carries a structured diagnosis: the two mutually
    /// blocked receives close a cycle in the wait-for graph.
    #[test]
    fn hang_diagnosis_classifies_deadlock_cycle() {
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        let d = err.diagnosis().expect("hang carries a diagnosis");
        assert_eq!(d.kind, crate::flight::StallKind::DeadlockCycle, "{d:?}");
        assert!(!d.chain.is_empty());
        assert_eq!(d.graph.tasks.len(), 2);
        let RuntimeError::Hang { context, .. } = &err else {
            panic!("expected hang, got {err:?}");
        };
        assert!(
            context
                .iter()
                .any(|l| l.contains("diagnosis: deadlock_cycle")),
            "{context:?}"
        );
        assert!(
            context.iter().any(|l| l.starts_with("root cause: ")),
            "{context:?}"
        );
    }

    /// With `blackbox_dir` set, a failed run writes a versioned dump
    /// that parses back and names the same failure.
    #[test]
    fn failed_run_writes_parseable_blackbox() {
        let dir = std::env::temp_dir().join(format!("msccl-bb-test-{}", std::process::id()));
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            blackbox_dir: Some(dir.clone()),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        let path = err
            .blackbox_path()
            .expect("dump path recorded on the error")
            .to_path_buf();
        let raw = std::fs::read_to_string(&path).unwrap();
        let bb = Blackbox::from_json(&raw).expect("dump parses");
        assert_eq!(bb.version, crate::flight::BLACKBOX_VERSION);
        assert_eq!(bb.failure.cause, "hang");
        assert_eq!(bb.program, "deadlock");
        assert_eq!(bb.diagnosis.kind, crate::flight::StallKind::DeadlockCycle);
        assert!(!bb.flight.is_empty(), "flight rings captured");
        assert!(!bb.conns.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An injected kill's diagnosis is a self-fault rooted at the
    /// injected rank/tb/step, with the fired fault attached.
    #[test]
    fn injected_kill_diagnosis_names_fault_site() {
        use msccl_faults::{FaultKind, FaultPlan, FaultSite, FaultSpec};
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 5);
        let plan = FaultPlan {
            seed: 0,
            specs: vec![FaultSpec {
                site: FaultSite::Block {
                    rank: 1,
                    tb: 0,
                    step: 0,
                },
                kind: FaultKind::KillBlock,
            }],
        };
        let injector = FaultInjector::new(&plan);
        let opts = RunOptions {
            timeout: Duration::from_secs(5),
            ..RunOptions::default()
        };
        let err = run(Run {
            injector: Some(&injector),
            ..Run::new(&ir, &inputs, chunk_elems, &opts)
        })
        .result
        .unwrap_err();
        let d = err.diagnosis().expect("kill carries a diagnosis");
        assert_eq!(d.kind, crate::flight::StallKind::SelfFault, "{d:?}");
        assert_eq!(
            (d.root.0, d.root.1),
            (1, 0),
            "root names the killed block: {d:?}"
        );
        assert!(
            d.fired_faults
                .iter()
                .any(|f| f.contains("kill block r1 tb0 step0")),
            "{d:?}"
        );
    }

    /// Disabling the flight recorder still yields a full wait-for-graph
    /// diagnosis — only the binary rings go missing.
    #[test]
    fn flight_off_still_diagnoses() {
        let ir = deadlocked_ir();
        let opts = RunOptions {
            timeout: Duration::from_millis(200),
            flight: false,
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        assert_eq!(
            err.diagnosis().unwrap().kind,
            crate::flight::StallKind::DeadlockCycle
        );
    }

    /// A global deadline fires even when every step makes progress, and
    /// the error is distinguishable from a per-step hang.
    #[test]
    fn global_deadline_is_enforced() {
        let ir = deadlocked_ir();
        // Generous per-step timeout, tight global deadline: only the
        // deadline can fire first.
        let opts = RunOptions {
            timeout: Duration::from_secs(20),
            deadline: Some(Duration::from_millis(100)),
            ..RunOptions::default()
        };
        let inputs = vec![vec![1.0], vec![2.0]];
        let start = Instant::now();
        let err = execute(&ir, &inputs, 1, &opts).unwrap_err();
        assert!(
            matches!(err, RuntimeError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    /// A worker panic is caught, attributed to its rank/tb/step, carries
    /// the payload text, and cancels the other workers promptly.
    #[test]
    fn worker_panic_is_attributed() {
        // Rank 0 sends one chunk and then waits to receive; rank 1's
        // receive expects two, so its worker panics slicing the short
        // tile. The structure check does not match counts across a
        // connection (the verifier does), so the program runs.
        let mut ir = deadlocked_ir();
        let rank0 = &mut ir.gpus[0].threadblocks[0].instructions;
        rank0.swap(0, 1);
        for (step, instr) in rank0.iter_mut().enumerate() {
            instr.step = step;
        }
        ir.gpus[1].threadblocks[0].instructions[0].count = 2;
        ir.check_structure().unwrap();
        let inputs = vec![vec![1.0], vec![2.0]];
        let start = Instant::now();
        let err = execute(&ir, &inputs, 1, &RunOptions::default()).unwrap_err();
        let RuntimeError::WorkerPanic {
            rank,
            tb,
            step,
            payload,
            ..
        } = &err
        else {
            panic!("expected WorkerPanic, got {err:?}");
        };
        assert_eq!((*rank, *tb, *step), (1, 0, 0));
        assert!(!payload.is_empty());
        // Cancellation, not the 20 s default timeout, freed rank 0.
        assert!(start.elapsed() < Duration::from_secs(2));
        let shown = err.to_string();
        assert!(shown.contains("worker panicked at rank 1 tb 0 step 0"));
        assert!(err.is_transient());
    }

    use mscclang::OpCode;

    #[test]
    fn max_reduction_operator() {
        let p = msccl_algos::allpairs_all_reduce(3).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 4;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 11);
        let opts = RunOptions {
            reduce_op: ReduceOp::Max,
            ..RunOptions::default()
        };
        let outputs = execute(&ir, &inputs, chunk_elems, &opts).unwrap();
        crate::reference::check_outputs(
            &ir.collective,
            &inputs,
            &outputs,
            chunk_elems,
            ReduceOp::Max,
        )
        .unwrap();
    }

    /// A plan hit rebuilds nothing: over 100 warm runs — changing inputs,
    /// chunk size, tile size and metering, none of which is part of the
    /// plan's shape — the arena builds no plan (so runs no lowering, no
    /// `HashMap`, no `TbTask::new`, no happens-before sweep), spawns no
    /// thread and never asks the OS for its parallelism again; nor does
    /// a run of a program whose plan another program's run parked.
    #[test]
    fn warm_runs_build_no_plan_and_spawn_no_thread() {
        use std::sync::atomic::Ordering;
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        // `worker_threads: 0` goes through the host-parallelism helper.
        let opts = RunOptions::default();
        let pool = worker_pool_size(0, ir.num_threadblocks());
        let mut arena = ExecArena::new(&ir, &opts);
        let run = |arena: &mut ExecArena, seed: u64, chunk_elems: usize, opts: &RunOptions| {
            let inputs = crate::reference::random_inputs(&ir, chunk_elems, seed);
            let (outputs, _) = execute_in_arena(&ir, &inputs, chunk_elems, opts, arena).unwrap();
            crate::reference::check_outputs(
                &ir.collective,
                &inputs,
                &outputs,
                chunk_elems,
                ReduceOp::Sum,
            )
            .unwrap();
            arena.recycle_outputs(outputs);
        };
        // Cold: the plan is built, with its one sweep per rank.
        run(&mut arena, 0, 32, &opts);
        assert_eq!(
            arena.counters,
            PlanCounters {
                plans_built: 1,
                elision_scans: ir.num_ranks() as u64,
                tasks_built: ir.num_threadblocks() as u64,
            }
        );
        run(&mut arena, 1, 32, &opts);
        let warm = arena.counters;
        assert_eq!(arena.workers.spawned(), pool as u64 - 1);
        let probes = crate::plan::HOST_PARALLELISM_PROBES.load(Ordering::Relaxed);
        assert_eq!(probes, 1, "the OS is asked once per process");

        for i in 0..100u64 {
            let varied = RunOptions {
                tile_elems: (i % 3 == 0).then_some(5),
                metrics: i % 2 == 0,
                flight: i % 5 != 0,
                ..RunOptions::default()
            };
            run(&mut arena, 2 + i, if i % 4 == 0 { 64 } else { 32 }, &varied);
        }
        assert_eq!(arena.counters, warm, "a warm run rebuilt part of the plan");
        assert_eq!(
            arena.workers.spawned(),
            pool as u64 - 1,
            "a warm run spawned"
        );
        assert_eq!(
            crate::plan::HOST_PARALLELISM_PROBES.load(Ordering::Relaxed),
            probes
        );
        // An IR equal in content but at another address still hits; a
        // different program misses exactly once.
        let moved = Box::new(ir.clone());
        let inputs = crate::reference::random_inputs(&moved, 32, 7);
        execute_in_arena(&moved, &inputs, 32, &opts, &mut arena).unwrap();
        assert_eq!(arena.counters, warm);
        let other = compile(
            &msccl_algos::allpairs_all_reduce(4).unwrap(),
            &CompileOptions::default(),
        )
        .unwrap();
        let inputs = crate::reference::random_inputs(&other, 32, 8);
        execute_in_arena(&other, &inputs, 32, &opts, &mut arena).unwrap();
        assert_eq!(arena.counters.plans_built, 2);
        // The first program's plan was parked, not dropped: running it
        // again builds nothing.
        run(&mut arena, 9, 32, &opts);
        assert_eq!(arena.plans_built(), 2);
        assert!(format!("{arena:?}").contains("plans_built: 2"));
        assert!(format!("{arena:?}").contains("plans_held: 2"));
    }

    #[test]
    fn arena_reuse_is_bit_identical_and_allocation_free() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 32;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 23);
        let opts = RunOptions {
            tile_elems: Some(9),
            ..RunOptions::default()
        };

        let fresh = execute(&ir, &inputs, chunk_elems, &opts).unwrap();

        let mut arena = ExecArena::new(&ir, &opts);
        let (first, _) = execute_in_arena(&ir, &inputs, chunk_elems, &opts, &mut arena).unwrap();
        assert_eq!(fresh, first, "arena-backed run diverged from fresh run");
        arena.recycle_outputs(first);

        // Second run through the warmed arena: identical bits, and the
        // entire data path (tiles, rank memory, output vectors) recycles.
        let (second, stats) =
            execute_in_arena(&ir, &inputs, chunk_elems, &opts, &mut arena).unwrap();
        for (a, b) in fresh.iter().zip(&second) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(
            stats.pool.allocated, 0,
            "warmed arena still allocated tiles: {:?}",
            stats.pool
        );
        assert!(stats.pool.reused > 0, "pool was bypassed entirely");
    }

    /// The metrics snapshot agrees with the trace recorded in the same
    /// run: same per-connection bytes/sends/receives, same instruction
    /// count, pool counters mirroring `ExecStats`.
    #[test]
    fn profiled_metrics_agree_with_trace() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let chunk_elems = 16;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 31);
        let profiled = |opts: &RunOptions| {
            let report = run(Run {
                trace: true,
                snapshot: true,
                ..Run::new(&ir, &inputs, chunk_elems, opts)
            });
            (
                report.result.unwrap(),
                report.trace.expect("tracing was enabled"),
                report.metrics,
            )
        };
        let (outputs, trace, snapshot) = profiled(&RunOptions::default());
        crate::reference::check_outputs(
            &ir.collective,
            &inputs,
            &outputs,
            chunk_elems,
            ReduceOp::Sum,
        )
        .unwrap();

        // The trace-derived snapshot carries the same logical counters:
        // bytes, sends, receives per connection, instructions per op.
        let derived = msccl_trace::snapshot_from_trace(&trace);
        for name in [
            msccl_metrics::names::BYTES_SENT,
            msccl_metrics::names::BYTES_RECEIVED,
            msccl_metrics::names::SENDS,
            msccl_metrics::names::RECVS,
            msccl_metrics::names::INSTRUCTIONS,
        ] {
            let live: Vec<_> = snapshot.with_name(name).collect();
            assert!(!live.is_empty(), "no live samples for {name}");
            for sample in live {
                let labels: Vec<(&str, &str)> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                assert_eq!(
                    derived.counter(name, &labels),
                    snapshot.counter(name, &labels),
                    "mismatch on {name} {labels:?}"
                );
            }
        }
        assert_eq!(
            snapshot.counter_total(msccl_metrics::names::INSTRUCTIONS),
            trace.executed_instructions().len() as u64,
        );

        // Metrics off: the run still works, and the snapshot is empty.
        let opts = RunOptions {
            metrics: false,
            ..RunOptions::default()
        };
        let (_, _, empty) = profiled(&opts);
        assert!(empty.samples.is_empty());
    }
}
