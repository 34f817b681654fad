//! The structured event model shared by the runtime and the simulator.
//!
//! Both executors observe the same phenomena — instructions starting and
//! finishing, semaphore waits, FIFO slots filling up, tiles pipelining —
//! so they emit one shared vocabulary of events and differ only in their
//! clock: the runtime stamps wall-clock microseconds, the simulator stamps
//! virtual microseconds.

use mscclang::OpCode;

/// Which clock produced a trace's timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Wall-clock microseconds measured by the threaded runtime.
    Wall,
    /// Virtual microseconds advanced by the discrete-event simulator.
    Virtual,
}

impl ClockDomain {
    /// Short label used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ClockDomain::Wall => "wall",
            ClockDomain::Virtual => "virtual",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The kernel (all thread blocks) launched.
    KernelLaunch,
    /// A thread block entered tile `tile` of its outer pipelining loop.
    TileBegin {
        /// Tile index.
        tile: usize,
    },
    /// A thread block finished tile `tile`.
    TileEnd {
        /// Tile index.
        tile: usize,
    },
    /// An instruction started executing (dependencies already satisfied).
    InstrBegin {
        /// Step index within the thread block.
        step: usize,
        /// Tile iteration the step ran under.
        tile: usize,
        /// Opcode.
        op: OpCode,
    },
    /// An instruction finished.
    InstrEnd {
        /// Step index within the thread block.
        step: usize,
        /// Tile iteration the step ran under.
        tile: usize,
        /// Opcode.
        op: OpCode,
    },
    /// The thread block started blocking on another block's semaphore.
    SemWaitEnter {
        /// Thread block whose semaphore is awaited.
        dep_tb: usize,
        /// Monotonic counter value awaited.
        target: u64,
    },
    /// The semaphore wait was satisfied.
    SemWaitExit {
        /// Thread block whose semaphore was awaited.
        dep_tb: usize,
        /// Monotonic counter value awaited.
        target: u64,
    },
    /// The thread block advanced its own semaphore to `value`.
    SemSet {
        /// New (monotonic) counter value.
        value: u64,
    },
    /// A send found every FIFO slot full and blocked.
    SendBlock {
        /// Destination rank.
        dst: usize,
        /// Channel id.
        channel: usize,
    },
    /// A blocked send acquired a slot and resumed.
    SendResume {
        /// Destination rank.
        dst: usize,
        /// Channel id.
        channel: usize,
    },
    /// A tile was deposited into a FIFO slot (the `seq`-th send on this
    /// connection, counting from zero).
    Send {
        /// Destination rank.
        dst: usize,
        /// Channel id.
        channel: usize,
        /// Per-connection send sequence number.
        seq: u64,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A receive found the FIFO empty and blocked.
    RecvBlock {
        /// Source rank.
        src: usize,
        /// Channel id.
        channel: usize,
    },
    /// A blocked receive saw data arrive and resumed.
    RecvResume {
        /// Source rank.
        src: usize,
        /// Channel id.
        channel: usize,
    },
    /// A tile was consumed from a FIFO slot (the `seq`-th receive on this
    /// connection, counting from zero).
    Recv {
        /// Source rank.
        src: usize,
        /// Channel id.
        channel: usize,
        /// Per-connection receive sequence number.
        seq: u64,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Tile-pool allocation counters for the whole run, emitted once at
    /// the end by the threaded runtime (`rank = 0`, `tb = 0`: the pool is
    /// shared by every thread block). `allocated` is the number of fresh
    /// tile-buffer allocations (pool misses); in a warm steady state it
    /// is zero and every tile movement reuses a recycled buffer.
    PoolStats {
        /// Fresh tile-buffer allocations (pool misses) during the run.
        allocated: u64,
        /// Takes served from recycled buffers (pool hits) during the run.
        reused: u64,
    },
    /// The recovery layer decided what to do after an execution attempt
    /// (emitted with `rank = 0`, `tb = 0`: recovery is collective-level,
    /// not per-block).
    Recovery {
        /// Zero-based attempt the decision follows.
        attempt: usize,
        /// What the recovery layer decided.
        decision: RecoveryDecision,
    },
}

/// The outcome of one attempt, as judged by the recovery layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryDecision {
    /// The attempt produced verified-correct outputs; the run is done.
    Accept,
    /// The attempt failed transiently; retry after backoff.
    Retry,
    /// Retries are exhausted; switch to the fallback algorithm.
    Fallback,
}

impl RecoveryDecision {
    /// Stable lowercase name used by the exporters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RecoveryDecision::Accept => "accept",
            RecoveryDecision::Retry => "retry",
            RecoveryDecision::Fallback => "fallback",
        }
    }
}

impl EventKind {
    /// Stable lowercase name used by both exporters.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::KernelLaunch => "kernel_launch",
            EventKind::TileBegin { .. } => "tile_begin",
            EventKind::TileEnd { .. } => "tile_end",
            EventKind::InstrBegin { .. } => "instr_begin",
            EventKind::InstrEnd { .. } => "instr_end",
            EventKind::SemWaitEnter { .. } => "sem_wait_enter",
            EventKind::SemWaitExit { .. } => "sem_wait_exit",
            EventKind::SemSet { .. } => "sem_set",
            EventKind::SendBlock { .. } => "send_block",
            EventKind::SendResume { .. } => "send_resume",
            EventKind::Send { .. } => "send",
            EventKind::RecvBlock { .. } => "recv_block",
            EventKind::RecvResume { .. } => "recv_resume",
            EventKind::Recv { .. } => "recv",
            EventKind::PoolStats { .. } => "pool_stats",
            EventKind::Recovery { .. } => "recovery",
        }
    }
}

/// One timestamped observation from one thread block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Timestamp in microseconds within the trace's [`ClockDomain`].
    pub ts_us: f64,
    /// Rank the thread block belongs to.
    pub rank: usize,
    /// Thread block id within the rank.
    pub tb: usize,
    /// What happened.
    pub kind: EventKind,
}
