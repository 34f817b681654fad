//! Crash/hang forensics: the always-on flight recorder, the wait-for
//! graph built at teardown, and the `msccl-blackbox-v1` post-mortem
//! artifact.
//!
//! Three layers, all of which exist because a mis-scheduled MSCCLang
//! program fails *silently* — a hang, not a crash — and the central
//! debugging question is "which thread block is stuck on what, and who
//! was supposed to signal it":
//!
//! 1. **Flight recorder** ([`FlightRecorder`]): per-worker fixed-capacity
//!    ring buffers of compact binary records (task dispatch, blocks with
//!    their wake keys, wakes, steals, parks, semaphore sets, FIFO depth
//!    changes). The hot path is one relaxed `fetch_add`
//!    plus two relaxed stores into a preallocated ring — no locks, no
//!    allocation, no clock reads, and each worker's head on its own
//!    cache lines — in the spirit of the sharded metric counters. Always on; the throughput bench gates its overhead.
//! 2. **Wait-for graph** ([`WaitForGraph`]): at teardown of a failed run
//!    the executor freezes every task's blocked-on resource (semaphore
//!    target, FIFO connection, injected sleep) into a
//!    [`TaskStall`], resolves each resource to the task expected to
//!    signal it (from the IR's dependency/connection structure), and
//!    classifies the shape: a cycle is a deadlock, a wait on a finished
//!    or dead task is orphaned, a wait chain ending in a sleeping or
//!    still-running task is a straggler.
//! 3. **Black box** ([`Blackbox`]): the versioned JSON artifact a failed
//!    run can serialize ([`crate::RunOptions::blackbox_dir`]) and the
//!    `msccl doctor` command reads back: failure origin, diagnosis,
//!    wait-for graph, flight rings, scheduler counters and a metrics
//!    snapshot. Hand-rolled serialization both ways — no serde — with a
//!    byte-stable writer so dumps diff cleanly.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use msccl_trace::{ClockDomain, EventKind, Trace, TraceEvent};
use mscclang::OpCode;

/// How many recent ring entries each task keeps for failure diagnostics.
pub(crate) const RING_CAPACITY: usize = 8;

/// A phase of an instruction's life, recorded in the diagnostic ring.
#[derive(Clone, Copy)]
pub(crate) enum Moment {
    Started,
    WaitingDep { dep_tb: usize, target: u64 },
    BlockedRecv { src: usize, channel: usize },
    BlockedSend { dst: usize, channel: usize },
    Completed,
}

#[derive(Clone, Copy)]
struct RingEntry {
    tile: usize,
    step: usize,
    op: OpCode,
    moment: Moment,
}

/// Fixed-size ring of a task's recent activity. Always on: pushing is a
/// couple of word stores, and it is the cheapest evidence left when a
/// hand-written IR deadlocks or a worker panics.
pub(crate) struct EventRing {
    rank: usize,
    tb: usize,
    entries: [Option<RingEntry>; RING_CAPACITY],
    next: usize,
}

impl EventRing {
    pub(crate) fn new(rank: usize, tb: usize) -> Self {
        Self {
            rank,
            tb,
            entries: [None; RING_CAPACITY],
            next: 0,
        }
    }

    pub(crate) fn push(&mut self, tile: usize, step: usize, op: OpCode, moment: Moment) {
        self.entries[self.next % RING_CAPACITY] = Some(RingEntry {
            tile,
            step,
            op,
            moment,
        });
        self.next += 1;
    }

    /// The step of the most recent entry — the best available guess at
    /// where a worker was when it panicked.
    pub(crate) fn last_step(&self) -> usize {
        if self.next == 0 {
            return 0;
        }
        self.entries[(self.next - 1) % RING_CAPACITY].map_or(0, |e| e.step)
    }

    pub(crate) fn dump(&self) -> Vec<String> {
        let mut out = Vec::new();
        for i in self.next.saturating_sub(RING_CAPACITY)..self.next {
            let Some(e) = self.entries[i % RING_CAPACITY] else {
                continue;
            };
            let what = match e.moment {
                Moment::Started => "started".to_string(),
                Moment::WaitingDep { dep_tb, target } => {
                    format!("waiting on tb {dep_tb} (semaphore target {target})")
                }
                Moment::BlockedRecv { src, channel } => {
                    format!("blocked receiving from rank {src} on channel {channel}")
                }
                Moment::BlockedSend { dst, channel } => {
                    format!("blocked sending to rank {dst} on channel {channel} (FIFO full)")
                }
                Moment::Completed => "completed".to_string(),
            };
            out.push(format!(
                "rank {} tb {} tile {} step {} ({}): {what}",
                self.rank,
                self.tb,
                e.tile,
                e.step,
                e.op.mnemonic()
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Records each worker keeps in its flight ring. Small enough to be
/// cheap, large enough that the records around a failure — the only ones
/// that matter — survive until teardown.
pub(crate) const FLIGHT_CAPACITY: usize = 256;

/// Binary record kinds. The tag lives in the top byte of the first word.
const FK_RUN: u8 = 1;
const FK_BLOCK: u8 = 2;
const FK_WAKE: u8 = 3;
const FK_STEAL: u8 = 4;
const FK_PARK: u8 = 5;
const FK_SEM_SET: u8 = 6;
const FK_FIFO: u8 = 7;

/// Sentinel packed where a record has no rank/tb attribution
/// (worker-level events: wakes, steals, parks).
const NO_ID: u64 = 0xFFF;

/// Wake-key tags for the compact `a` payload of block/wake records.
const KEY_SEM: u64 = 0;
const KEY_RECV: u64 = 1;
const KEY_SEND: u64 = 2;
const KEY_SLEEP: u64 = 4;

/// Packs a wake key as `tag << 28 | index` for a flight record payload.
pub(crate) fn encode_key(tag: u64, idx: usize) -> u64 {
    (tag << 28) | (idx as u64 & 0x0FFF_FFFF)
}

pub(crate) const KEY_TAG_SEM: u64 = KEY_SEM;
pub(crate) const KEY_TAG_RECV: u64 = KEY_RECV;
pub(crate) const KEY_TAG_SEND: u64 = KEY_SEND;
pub(crate) const KEY_TAG_SLEEP: u64 = KEY_SLEEP;

/// One worker's ring: a monotone head plus `2 * FLIGHT_CAPACITY` words.
/// Single writer (the owning worker); readers only look after the pool
/// joins, so relaxed ordering everywhere is sound. Padded like the
/// metric shards, so no two workers' heads share a cache line.
#[repr(align(128))]
struct FlightShard {
    head: AtomicUsize,
    words: Box<[AtomicU64]>,
}

impl FlightShard {
    fn new() -> Self {
        Self {
            head: AtomicUsize::new(0),
            words: (0..2 * FLIGHT_CAPACITY)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    #[inline]
    fn record(&self, w0: u64, w1: u64) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % FLIGHT_CAPACITY;
        self.words[2 * slot].store(w0, Ordering::Relaxed);
        self.words[2 * slot + 1].store(w1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.head.store(0, Ordering::Relaxed);
    }
}

/// The always-on black-box recorder: one [`FlightShard`] per worker.
/// Zero steady-state allocation — the rings are preallocated at
/// construction and reusable across runs via [`reset`](Self::reset).
pub(crate) struct FlightRecorder {
    shards: Vec<FlightShard>,
}

#[inline]
fn pack_w0(kind: u8, rank: u64, tb: u64, a: u64) -> u64 {
    (u64::from(kind) << 56) | ((rank & 0xFFF) << 44) | ((tb & 0xFFF) << 32) | (a & 0xFFFF_FFFF)
}

impl FlightRecorder {
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            shards: (0..workers.max(1)).map(|_| FlightShard::new()).collect(),
        }
    }

    /// Zeroes every shard head so a warm arena can reuse the rings.
    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.reset();
        }
    }

    /// Worker `w` dispatched task `flat` (a run begins) having already
    /// completed `completed` instruction instances.
    #[inline]
    pub(crate) fn run(&self, w: usize, rank: usize, tb: usize, flat: usize, completed: u64) {
        self.shards[w].record(
            pack_w0(FK_RUN, rank as u64, tb as u64, flat as u64),
            completed,
        );
    }

    /// Task blocked on an encoded wake key at (tile, step).
    #[inline]
    pub(crate) fn block(
        &self,
        w: usize,
        rank: usize,
        tb: usize,
        key: u64,
        tile: usize,
        step: usize,
    ) {
        self.shards[w].record(
            pack_w0(FK_BLOCK, rank as u64, tb as u64, key),
            ((tile as u64) << 16) | (step as u64 & 0xFFFF),
        );
    }

    /// A wake on an encoded key made `woken` tasks runnable.
    #[inline]
    pub(crate) fn wake(&self, w: usize, key: u64, woken: usize) {
        self.shards[w].record(pack_w0(FK_WAKE, NO_ID, NO_ID, key), woken as u64);
    }

    /// Worker `w` stole `task` from `victim`'s deque.
    #[inline]
    pub(crate) fn steal(&self, w: usize, victim: usize, task: usize) {
        self.shards[w].record(pack_w0(FK_STEAL, NO_ID, NO_ID, victim as u64), task as u64);
    }

    /// Worker `w` parked for `waited_us` microseconds.
    #[inline]
    pub(crate) fn park(&self, w: usize, waited_us: u64) {
        self.shards[w].record(
            pack_w0(FK_PARK, NO_ID, NO_ID, waited_us.min(u64::from(u32::MAX))),
            0,
        );
    }

    /// Task `flat` advanced its own semaphore to `value`.
    #[inline]
    pub(crate) fn sem_set(&self, w: usize, rank: usize, tb: usize, flat: usize, value: u64) {
        self.shards[w].record(
            pack_w0(FK_SEM_SET, rank as u64, tb as u64, flat as u64),
            value,
        );
    }

    /// Connection `conn`'s FIFO occupancy changed to `depth`.
    #[inline]
    pub(crate) fn fifo_depth(&self, w: usize, rank: usize, tb: usize, conn: usize, depth: usize) {
        self.shards[w].record(
            pack_w0(FK_FIFO, rank as u64, tb as u64, conn as u64),
            depth as u64,
        );
    }

    /// Decodes every shard's surviving records, oldest first per worker.
    pub(crate) fn drain(&self) -> Vec<FlightRecord> {
        let mut out = Vec::new();
        for (w, shard) in self.shards.iter().enumerate() {
            let head = shard.head.load(Ordering::Relaxed);
            let start = head.saturating_sub(FLIGHT_CAPACITY);
            for seq in start..head {
                let slot = seq % FLIGHT_CAPACITY;
                let w0 = shard.words[2 * slot].load(Ordering::Relaxed);
                let w1 = shard.words[2 * slot + 1].load(Ordering::Relaxed);
                let kind = (w0 >> 56) as u8;
                if kind == 0 {
                    continue;
                }
                let rank = (w0 >> 44) & 0xFFF;
                let tb = (w0 >> 32) & 0xFFF;
                out.push(FlightRecord {
                    worker: w,
                    seq: seq as u64,
                    kind,
                    rank: (rank != NO_ID).then_some(rank as usize),
                    tb: (tb != NO_ID).then_some(tb as usize),
                    a: w0 & 0xFFFF_FFFF,
                    b: w1,
                });
            }
        }
        out
    }
}

/// One decoded flight record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Worker whose ring held the record.
    pub worker: usize,
    /// Absolute (monotone) index within that worker's ring.
    pub seq: u64,
    /// Record tag (see [`FlightRecord::kind_name`]).
    pub kind: u8,
    /// Attributed rank, when the record belongs to a task.
    pub rank: Option<usize>,
    /// Attributed thread block, when the record belongs to a task.
    pub tb: Option<usize>,
    /// First payload word (wake key, task index, worker index...).
    pub a: u64,
    /// Second payload word (counter value, depth, tile/step pack...).
    pub b: u64,
}

fn key_name(key: u64) -> String {
    let idx = key & 0x0FFF_FFFF;
    match key >> 28 {
        KEY_SEM => format!("sem({idx})"),
        KEY_RECV => format!("recv({idx})"),
        KEY_SEND => format!("send({idx})"),
        KEY_SLEEP => format!("sleep({idx})"),
        other => format!("key{other}({idx})"),
    }
}

impl FlightRecord {
    /// Stable lowercase tag name (serialized into the black box).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            FK_RUN => "run",
            FK_BLOCK => "block",
            FK_WAKE => "wake",
            FK_STEAL => "steal",
            FK_PARK => "park",
            FK_SEM_SET => "sem_set",
            FK_FIFO => "fifo_depth",
            _ => "unknown",
        }
    }

    fn kind_from_name(name: &str) -> u8 {
        match name {
            "run" => FK_RUN,
            "block" => FK_BLOCK,
            "wake" => FK_WAKE,
            "steal" => FK_STEAL,
            "park" => FK_PARK,
            "sem_set" => FK_SEM_SET,
            "fifo_depth" => FK_FIFO,
            _ => 0,
        }
    }

    /// Human rendering for `msccl doctor` output.
    #[must_use]
    pub fn describe(&self) -> String {
        let who = match (self.rank, self.tb) {
            (Some(r), Some(t)) => format!("r{r} tb{t}"),
            _ => format!("worker {}", self.worker),
        };
        match self.kind {
            FK_RUN => format!("{who}: dispatched (task {} completed {})", self.a, self.b),
            FK_BLOCK => format!(
                "{who}: blocked on {} at tile {} step {}",
                key_name(self.a),
                self.b >> 16,
                self.b & 0xFFFF
            ),
            FK_WAKE => format!("{who}: wake {} -> {} task(s)", key_name(self.a), self.b),
            FK_STEAL => format!("{who}: stole task {} from worker {}", self.b, self.a),
            FK_PARK => format!("{who}: parked {}us", self.a),
            FK_SEM_SET => format!("{who}: semaphore -> {}", self.b),
            FK_FIFO => format!("{who}: fifo conn {} depth -> {}", self.a, self.b),
            _ => format!("{who}: ? a={} b={}", self.a, self.b),
        }
    }
}

// ---------------------------------------------------------------------------
// Wait-for graph and stall diagnosis
// ---------------------------------------------------------------------------

/// What a frozen task was blocked on when the run was torn down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockedOn {
    /// Waiting on a dependency semaphore owned by `dep_tb` (same rank).
    Sem {
        /// Thread block whose semaphore is awaited.
        dep_tb: usize,
        /// Awaited monotone counter value.
        target: u64,
        /// The counter's value at teardown.
        current: u64,
    },
    /// Waiting for a tile from `src` on `channel` (FIFO empty).
    Recv {
        /// Source rank.
        src: usize,
        /// Channel id.
        channel: usize,
    },
    /// Waiting for a free FIFO slot toward `dst` on `channel`.
    Send {
        /// Destination rank.
        dst: usize,
        /// Channel id.
        channel: usize,
    },
    /// Sleeping: an injected stall/straggle pause or a delivery delay.
    Sleep,
}

impl BlockedOn {
    /// Short resource description ("what is it stuck on").
    #[must_use]
    pub fn resource(&self) -> String {
        match self {
            BlockedOn::Sem {
                dep_tb,
                target,
                current,
            } => format!("semaphore of tb {dep_tb} (target {target}, at {current})"),
            BlockedOn::Recv { src, channel } => {
                format!("recv from rank {src} channel {channel} (FIFO empty)")
            }
            BlockedOn::Send { dst, channel } => {
                format!("send to rank {dst} channel {channel} (FIFO full)")
            }
            BlockedOn::Sleep => "timed sleep (injected stall/straggle/delay)".to_string(),
        }
    }
}

/// One task's frozen state in the wait-for graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStall {
    /// Rank of the thread block.
    pub rank: usize,
    /// Thread block id within the rank.
    pub tb: usize,
    /// Tile iteration the task was in.
    pub tile: usize,
    /// Step it was executing or blocked at.
    pub step: usize,
    /// Whether the task had finished all its work.
    pub done: bool,
    /// Whether the task died (injected kill, panic, or its own timeout).
    pub dead: bool,
    /// Instruction instances completed.
    pub completed: u64,
    /// What the task was blocked on, if anything.
    pub wait: Option<BlockedOn>,
    /// (dst rank, channel) of the task's send connection, if any.
    pub send_peer: Option<(usize, usize)>,
    /// (src rank, channel) of the task's receive connection, if any.
    pub recv_peer: Option<(usize, usize)>,
    /// The task's recent-activity ring, rendered (oldest first).
    pub recent: Vec<String>,
}

/// One edge of the wait-for graph: task `from` waits on `resource`,
/// expected to be signalled by task `to` (when resolvable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// Waiting task (index into [`WaitForGraph::tasks`]).
    pub from: usize,
    /// Rendered resource description.
    pub resource: String,
    /// Expected signaller (index into [`WaitForGraph::tasks`]), when the
    /// IR structure names one.
    pub to: Option<usize>,
}

/// The typed wait-for graph snapshot taken when a run fails.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WaitForGraph {
    /// Every task's frozen state, in flat spawn order.
    pub tasks: Vec<TaskStall>,
    /// One edge per blocked task.
    pub edges: Vec<WaitEdge>,
}

/// Shape of the stall, from following the wait chain out of the failure
/// origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// The wait chain revisits a task: a true dependency cycle.
    DeadlockCycle,
    /// The chain ends at a task that is finished or dead and will never
    /// signal again: the wait can never be satisfied.
    OrphanedWait,
    /// The chain ends at a task that is sleeping or still runnable: slow,
    /// not stuck.
    Straggler,
    /// The failure origin itself died (injected kill, panic, or own
    /// timeout) without waiting on anyone.
    SelfFault,
    /// The chain could not be followed (no structural signaller).
    Unknown,
}

impl StallKind {
    /// Stable lowercase name (serialized into the black box).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallKind::DeadlockCycle => "deadlock_cycle",
            StallKind::OrphanedWait => "orphaned_wait",
            StallKind::Straggler => "straggler",
            StallKind::SelfFault => "self_fault",
            StallKind::Unknown => "unknown",
        }
    }

    fn from_label(label: &str) -> Self {
        match label {
            "deadlock_cycle" => StallKind::DeadlockCycle,
            "orphaned_wait" => StallKind::OrphanedWait,
            "straggler" => StallKind::Straggler,
            "self_fault" => StallKind::SelfFault,
            _ => StallKind::Unknown,
        }
    }
}

/// The structured diagnosis attached to every teardown failure
/// ([`crate::RuntimeError`]) and serialized into the black box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnosis {
    /// Classified shape of the stall.
    pub kind: StallKind,
    /// (rank, tb, step) of the failure origin — who tripped the cancel
    /// token.
    pub origin: (usize, usize, usize),
    /// (rank, tb, step) of the diagnosed root cause — where the wait
    /// chain ends (or closes into a cycle).
    pub root: (usize, usize, usize),
    /// What the root-cause task was doing.
    pub root_what: String,
    /// The wait chain from origin to root, one rendered hop per line.
    pub chain: Vec<String>,
    /// The full wait-for graph snapshot.
    pub graph: WaitForGraph,
    /// Injected faults that struck during the run, in plan syntax.
    pub fired_faults: Vec<String>,
    /// Path of the black-box dump written for this failure, if any.
    pub dump: Option<PathBuf>,
}

fn describe_task(t: &TaskStall) -> String {
    if t.dead {
        return "died here (injected kill, panic, or own timeout)".to_string();
    }
    match &t.wait {
        Some(w) => format!("blocked on {}", w.resource()),
        None if t.done => "already finished".to_string(),
        None => "still runnable (straggling, not blocked)".to_string(),
    }
}

impl WaitForGraph {
    /// Builds the graph from frozen task snapshots: one edge per blocked
    /// task, its expected signaller resolved from the IR's structure
    /// (dependency semaphores point at the owning block; FIFO waits
    /// point at the connection's peer endpoint).
    #[must_use]
    pub fn build(tasks: Vec<TaskStall>) -> Self {
        let mut edges = Vec::new();
        for (i, t) in tasks.iter().enumerate() {
            let Some(wait) = &t.wait else { continue };
            let to = match wait {
                BlockedOn::Sem { dep_tb, .. } => tasks
                    .iter()
                    .position(|o| o.rank == t.rank && o.tb == *dep_tb),
                BlockedOn::Recv { src, channel } => tasks
                    .iter()
                    .position(|o| o.rank == *src && o.send_peer == Some((t.rank, *channel))),
                BlockedOn::Send { dst, channel } => tasks
                    .iter()
                    .position(|o| o.rank == *dst && o.recv_peer == Some((t.rank, *channel))),
                BlockedOn::Sleep => None,
            };
            edges.push(WaitEdge {
                from: i,
                resource: wait.resource(),
                to,
            });
        }
        Self { tasks, edges }
    }

    fn successor(&self, task: usize) -> Option<usize> {
        self.edges
            .iter()
            .find(|e| e.from == task)
            .and_then(|e| e.to)
    }

    /// Follows the wait chain out of `origin` (an index into
    /// [`tasks`](Self::tasks)) and classifies the stall.
    #[must_use]
    pub fn classify(&self, origin: usize, fired_faults: Vec<String>) -> StallDiagnosis {
        let ident = |i: usize| {
            let t = &self.tasks[i];
            (t.rank, t.tb, t.step)
        };
        let mut visited = vec![false; self.tasks.len()];
        let mut chain = Vec::new();
        let mut cur = origin;
        let (kind, root) = loop {
            if visited[cur] {
                chain.push(format!(
                    "rank {} tb {} step {}: wait chain closes the cycle",
                    self.tasks[cur].rank, self.tasks[cur].tb, self.tasks[cur].step
                ));
                break (StallKind::DeadlockCycle, cur);
            }
            visited[cur] = true;
            let t = &self.tasks[cur];
            // Cancellation kills every task, so `dead` alone is not a
            // terminal verdict: a dead task that froze a wait is still a
            // link in the chain. Only a task with nothing to wait on ends
            // the walk.
            match &t.wait {
                None => {
                    chain.push(format!(
                        "rank {} tb {} step {}: {}",
                        t.rank,
                        t.tb,
                        t.step,
                        describe_task(t)
                    ));
                    break (
                        if t.dead {
                            if cur == origin {
                                StallKind::SelfFault
                            } else {
                                StallKind::OrphanedWait
                            }
                        } else if t.done {
                            StallKind::OrphanedWait
                        } else {
                            StallKind::Straggler
                        },
                        cur,
                    );
                }
                Some(BlockedOn::Sleep) => {
                    chain.push(format!(
                        "rank {} tb {} step {}: {}",
                        t.rank,
                        t.tb,
                        t.step,
                        describe_task(t)
                    ));
                    break (StallKind::Straggler, cur);
                }
                Some(w) => match self.successor(cur) {
                    Some(next) => {
                        let n = &self.tasks[next];
                        chain.push(format!(
                            "rank {} tb {} step {} waits on {} <- rank {} tb {}",
                            t.rank,
                            t.tb,
                            t.step,
                            w.resource(),
                            n.rank,
                            n.tb
                        ));
                        cur = next;
                    }
                    None => {
                        chain.push(format!(
                            "rank {} tb {} step {} waits on {} (no signaller found)",
                            t.rank,
                            t.tb,
                            t.step,
                            w.resource()
                        ));
                        break (
                            if t.done || t.dead {
                                StallKind::OrphanedWait
                            } else {
                                StallKind::Unknown
                            },
                            cur,
                        );
                    }
                },
            }
        };
        StallDiagnosis {
            kind,
            origin: ident(origin),
            root: ident(root),
            root_what: describe_task(&self.tasks[root]),
            chain,
            graph: self.clone(),
            fired_faults,
            dump: None,
        }
    }
}

impl StallDiagnosis {
    /// A diagnosis for a failure with no task snapshots (e.g. the graph
    /// could not be built). Keeps error construction total.
    #[must_use]
    pub fn unavailable(origin: (usize, usize, usize), fired_faults: Vec<String>) -> Self {
        Self {
            kind: StallKind::Unknown,
            origin,
            root: origin,
            root_what: "no task snapshot available".to_string(),
            chain: Vec::new(),
            graph: WaitForGraph::default(),
            fired_faults,
            dump: None,
        }
    }

    /// Renders the diagnosis as the error-context line list: every
    /// task's recent-activity ring (the PR 1 format, kept stable for
    /// existing consumers), injected faults, then the classified chain
    /// and root cause.
    #[must_use]
    pub fn context_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .graph
            .tasks
            .iter()
            .flat_map(|t| t.recent.iter().cloned())
            .collect();
        out.extend(
            self.fired_faults
                .iter()
                .map(|f| format!("injected fault struck: {f}")),
        );
        out.push(format!("diagnosis: {}", self.kind.label()));
        for hop in &self.chain {
            out.push(format!("wait chain: {hop}"));
        }
        out.push(format!(
            "root cause: rank {} tb {} step {} — {}",
            self.root.0, self.root.1, self.root.2, self.root_what
        ));
        if let Some(path) = &self.dump {
            out.push(format!(
                "black box: {} (inspect with `msccl doctor`)",
                path.display()
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Black box artifact
// ---------------------------------------------------------------------------

/// Format tag of the post-mortem artifact.
pub const BLACKBOX_VERSION: &str = "msccl-blackbox-v1";

/// The failure origin as serialized into the black box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackboxFailure {
    /// Stable cause label: `hang`, `deadline`, `panic`, `injected_kill`.
    pub cause: String,
    /// Cause detail (panic payload or fault plan syntax), possibly empty.
    pub detail: String,
    /// Rank of the origin thread block.
    pub rank: usize,
    /// Thread block id.
    pub tb: usize,
    /// Step at failure.
    pub step: usize,
    /// Observed cancellation drain latency in microseconds.
    pub drain_us: u64,
}

/// Scheduler state as serialized into the black box.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlackboxSched {
    /// Tasks stolen across worker deques.
    pub steals: u64,
    /// Worker park episodes.
    pub parks: u64,
    /// Total nanoseconds workers spent parked.
    pub park_ns: u64,
    /// The wait table at cancellation: (rendered key, blocked task
    /// indices).
    pub waits: Vec<(String, Vec<usize>)>,
}

/// One connection's identity and teardown occupancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackboxConn {
    /// Source rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// Channel id.
    pub channel: usize,
    /// Tiles still sitting in the FIFO at teardown.
    pub occupancy: usize,
    /// FIFO slot capacity.
    pub capacity: usize,
}

/// The versioned post-mortem artifact a failed run serializes and
/// `msccl doctor` reads back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blackbox {
    /// Always [`BLACKBOX_VERSION`].
    pub version: String,
    /// The program's collective name.
    pub program: String,
    /// Failure origin.
    pub failure: BlackboxFailure,
    /// Structured diagnosis (wait-for graph included).
    pub diagnosis: StallDiagnosis,
    /// Scheduler counters and wait-table snapshot.
    pub sched: BlackboxSched,
    /// Connection table (indexes match flight `fifo_depth` records).
    pub conns: Vec<BlackboxConn>,
    /// Decoded flight records, per worker, oldest first.
    pub flight: Vec<FlightRecord>,
    /// Counter/gauge metrics at teardown, as (rendered name, value).
    pub metrics: Vec<(String, u64)>,
}

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Blackbox {
    /// Writes the dump into `dir` (created if missing) under a unique
    /// name, returning its path.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn write_to_dir(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!(
            "blackbox-{}-r{}tb{}-{}.json",
            std::process::id(),
            self.failure.rank,
            self.failure.tb,
            seq
        ));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Serializes the dump. Hand-rolled and byte-stable: same dump, same
    /// bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": {},", json_str(&self.version));
        let _ = writeln!(s, "  \"program\": {},", json_str(&self.program));
        let f = &self.failure;
        let _ = writeln!(
            s,
            "  \"failure\": {{\"cause\": {}, \"detail\": {}, \"rank\": {}, \"tb\": {}, \"step\": {}, \"drain_us\": {}}},",
            json_str(&f.cause),
            json_str(&f.detail),
            f.rank,
            f.tb,
            f.step,
            f.drain_us
        );
        let d = &self.diagnosis;
        s.push_str("  \"diagnosis\": {\n");
        let _ = writeln!(s, "    \"kind\": {},", json_str(d.kind.label()));
        let _ = writeln!(
            s,
            "    \"origin\": [{}, {}, {}],",
            d.origin.0, d.origin.1, d.origin.2
        );
        let _ = writeln!(
            s,
            "    \"root\": [{}, {}, {}],",
            d.root.0, d.root.1, d.root.2
        );
        let _ = writeln!(s, "    \"root_what\": {},", json_str(&d.root_what));
        let _ = writeln!(s, "    \"chain\": {},", json_str_list(&d.chain));
        let _ = writeln!(
            s,
            "    \"fired_faults\": {},",
            json_str_list(&d.fired_faults)
        );
        s.push_str("    \"tasks\": [\n");
        for (i, t) in d.graph.tasks.iter().enumerate() {
            let wait = match &t.wait {
                None => "null".to_string(),
                Some(BlockedOn::Sem {
                    dep_tb,
                    target,
                    current,
                }) => format!(
                    "{{\"kind\": \"sem\", \"dep_tb\": {dep_tb}, \"target\": {target}, \"current\": {current}}}"
                ),
                Some(BlockedOn::Recv { src, channel }) => {
                    format!("{{\"kind\": \"recv\", \"src\": {src}, \"channel\": {channel}}}")
                }
                Some(BlockedOn::Send { dst, channel }) => {
                    format!("{{\"kind\": \"send\", \"dst\": {dst}, \"channel\": {channel}}}")
                }
                Some(BlockedOn::Sleep) => "{\"kind\": \"sleep\"}".to_string(),
            };
            let peer = |p: Option<(usize, usize)>| match p {
                Some((r, c)) => format!("[{r}, {c}]"),
                None => "null".to_string(),
            };
            let _ = write!(
                s,
                "      {{\"rank\": {}, \"tb\": {}, \"tile\": {}, \"step\": {}, \"done\": {}, \"dead\": {}, \"completed\": {}, \"wait\": {}, \"send_peer\": {}, \"recv_peer\": {}, \"recent\": {}}}",
                t.rank,
                t.tb,
                t.tile,
                t.step,
                t.done,
                t.dead,
                t.completed,
                wait,
                peer(t.send_peer),
                peer(t.recv_peer),
                json_str_list(&t.recent)
            );
            s.push_str(if i + 1 < d.graph.tasks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("    ],\n");
        s.push_str("    \"edges\": [");
        for (i, e) in d.graph.edges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let to = e.to.map_or("null".to_string(), |t| t.to_string());
            let _ = write!(
                s,
                "{{\"from\": {}, \"resource\": {}, \"to\": {}}}",
                e.from,
                json_str(&e.resource),
                to
            );
        }
        s.push_str("]\n  },\n");
        let sc = &self.sched;
        s.push_str("  \"sched\": {");
        let _ = write!(
            s,
            "\"steals\": {}, \"parks\": {}, \"park_ns\": {}, \"waits\": [",
            sc.steals, sc.parks, sc.park_ns
        );
        for (i, (key, tasks)) in sc.waits.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "[{}, [", json_str(key));
            for (j, t) in tasks.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{t}");
            }
            s.push_str("]]");
        }
        s.push_str("]},\n");
        s.push_str("  \"conns\": [");
        for (i, c) in self.conns.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"src\": {}, \"dst\": {}, \"channel\": {}, \"occupancy\": {}, \"capacity\": {}}}",
                c.src, c.dst, c.channel, c.occupancy, c.capacity
            );
        }
        s.push_str("],\n");
        s.push_str("  \"flight\": [\n");
        for (i, r) in self.flight.iter().enumerate() {
            let rank = r.rank.map_or("null".to_string(), |v| v.to_string());
            let tb = r.tb.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                s,
                "    {{\"w\": {}, \"s\": {}, \"k\": {}, \"r\": {}, \"t\": {}, \"a\": {}, \"b\": {}}}",
                r.worker,
                r.seq,
                json_str(r.kind_name()),
                rank,
                tb,
                r.a,
                r.b
            );
            s.push_str(if i + 1 < self.flight.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"metrics\": [");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "[{}, {}]", json_str(name), value);
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parses a dump previously produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found —
    /// bad JSON, wrong version tag, missing fields.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let version = v.get_str("version")?;
        if version != BLACKBOX_VERSION {
            return Err(format!(
                "unsupported dump version {version:?} (expected {BLACKBOX_VERSION})"
            ));
        }
        let fail = v.get("failure")?;
        let failure = BlackboxFailure {
            cause: fail.get_str("cause")?,
            detail: fail.get_str("detail")?,
            rank: fail.get_usize("rank")?,
            tb: fail.get_usize("tb")?,
            step: fail.get_usize("step")?,
            drain_us: fail.get_u64("drain_us")?,
        };
        let d = v.get("diagnosis")?;
        let triple = |val: &Json, key: &str| -> Result<(usize, usize, usize), String> {
            let arr = val.get_arr(key)?;
            if arr.len() != 3 {
                return Err(format!("{key}: expected 3 elements"));
            }
            Ok((arr[0].as_usize()?, arr[1].as_usize()?, arr[2].as_usize()?))
        };
        let mut tasks = Vec::new();
        for t in d.get_arr("tasks")? {
            let wait = match t.get("wait") {
                Err(_) => None,
                Ok(w) if w.is_null() => None,
                Ok(w) => Some(match w.get_str("kind")?.as_str() {
                    "sem" => BlockedOn::Sem {
                        dep_tb: w.get_usize("dep_tb")?,
                        target: w.get_u64("target")?,
                        current: w.get_u64("current")?,
                    },
                    "recv" => BlockedOn::Recv {
                        src: w.get_usize("src")?,
                        channel: w.get_usize("channel")?,
                    },
                    "send" => BlockedOn::Send {
                        dst: w.get_usize("dst")?,
                        channel: w.get_usize("channel")?,
                    },
                    "sleep" => BlockedOn::Sleep,
                    other => return Err(format!("unknown wait kind {other:?}")),
                }),
            };
            let peer = |key: &str| -> Result<Option<(usize, usize)>, String> {
                match t.get(key) {
                    Err(_) => Ok(None),
                    Ok(p) if p.is_null() => Ok(None),
                    Ok(p) => {
                        let arr = p.as_arr()?;
                        if arr.len() != 2 {
                            return Err(format!("{key}: expected 2 elements"));
                        }
                        Ok(Some((arr[0].as_usize()?, arr[1].as_usize()?)))
                    }
                }
            };
            tasks.push(TaskStall {
                rank: t.get_usize("rank")?,
                tb: t.get_usize("tb")?,
                tile: t.get_usize("tile")?,
                step: t.get_usize("step")?,
                done: t.get_bool("done")?,
                dead: t.get_bool("dead")?,
                completed: t.get_u64("completed")?,
                wait,
                send_peer: peer("send_peer")?,
                recv_peer: peer("recv_peer")?,
                recent: t.get_str_list("recent")?,
            });
        }
        let mut edges = Vec::new();
        for e in d.get_arr("edges")? {
            edges.push(WaitEdge {
                from: e.get_usize("from")?,
                resource: e.get_str("resource")?,
                to: match e.get("to") {
                    Ok(t) if !t.is_null() => Some(t.as_usize()?),
                    _ => None,
                },
            });
        }
        let diagnosis = StallDiagnosis {
            kind: StallKind::from_label(&d.get_str("kind")?),
            origin: triple(d, "origin")?,
            root: triple(d, "root")?,
            root_what: d.get_str("root_what")?,
            chain: d.get_str_list("chain")?,
            graph: WaitForGraph { tasks, edges },
            fired_faults: d.get_str_list("fired_faults")?,
            dump: None,
        };
        let sc = v.get("sched")?;
        let mut waits = Vec::new();
        for w in sc.get_arr("waits")? {
            let pair = w.as_arr()?;
            if pair.len() != 2 {
                return Err("sched.waits: expected [key, tasks] pairs".to_string());
            }
            let mut idxs = Vec::new();
            for t in pair[1].as_arr()? {
                idxs.push(t.as_usize()?);
            }
            waits.push((pair[0].as_str()?, idxs));
        }
        let sched = BlackboxSched {
            steals: sc.get_u64("steals")?,
            parks: sc.get_u64("parks")?,
            park_ns: sc.get_u64("park_ns")?,
            waits,
        };
        let mut conns = Vec::new();
        for c in v.get_arr("conns")? {
            conns.push(BlackboxConn {
                src: c.get_usize("src")?,
                dst: c.get_usize("dst")?,
                channel: c.get_usize("channel")?,
                occupancy: c.get_usize("occupancy")?,
                capacity: c.get_usize("capacity")?,
            });
        }
        let mut flight = Vec::new();
        for r in v.get_arr("flight")? {
            flight.push(FlightRecord {
                worker: r.get_usize("w")?,
                seq: r.get_u64("s")?,
                kind: FlightRecord::kind_from_name(&r.get_str("k")?),
                rank: match r.get("r") {
                    Ok(x) if !x.is_null() => Some(x.as_usize()?),
                    _ => None,
                },
                tb: match r.get("t") {
                    Ok(x) if !x.is_null() => Some(x.as_usize()?),
                    _ => None,
                },
                a: r.get_u64("a")?,
                b: r.get_u64("b")?,
            });
        }
        let mut metrics = Vec::new();
        for m in v.get_arr("metrics")? {
            let pair = m.as_arr()?;
            if pair.len() != 2 {
                return Err("metrics: expected [name, value] pairs".to_string());
            }
            metrics.push((pair[0].as_str()?, pair[1].as_u64()?));
        }
        Ok(Self {
            version,
            program: v.get_str("program")?,
            failure,
            diagnosis,
            sched,
            conns,
            flight,
            metrics,
        })
    }

    /// Renders the human-readable diagnosis (`msccl doctor`'s default
    /// output).
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "black box: {} ({})", self.program, self.version);
        let f = &self.failure;
        let detail = if f.detail.is_empty() {
            String::new()
        } else {
            format!(": {}", f.detail)
        };
        let _ = writeln!(
            s,
            "failure:   {} at rank {} tb {} step {}{} (drained in {}us)",
            f.cause, f.rank, f.tb, f.step, detail, f.drain_us
        );
        let d = &self.diagnosis;
        let _ = writeln!(s, "diagnosis: {}", d.kind.label());
        let _ = writeln!(
            s,
            "root cause: rank {} tb {} step {} — {}",
            d.root.0, d.root.1, d.root.2, d.root_what
        );
        if !d.chain.is_empty() {
            let _ = writeln!(s, "wait chain:");
            for hop in &d.chain {
                let _ = writeln!(s, "  {hop}");
            }
        }
        if !d.fired_faults.is_empty() {
            let _ = writeln!(s, "injected faults that struck:");
            for fault in &d.fired_faults {
                let _ = writeln!(s, "  {fault}");
            }
        }
        let _ = writeln!(s, "tasks:");
        for t in &d.graph.tasks {
            let _ = writeln!(
                s,
                "  rank {} tb {} tile {} step {} ({} instr done): {}",
                t.rank,
                t.tb,
                t.tile,
                t.step,
                t.completed,
                describe_task(t)
            );
        }
        let sc = &self.sched;
        let _ = writeln!(
            s,
            "scheduler: {} steals, {} parks, {}ns parked",
            sc.steals, sc.parks, sc.park_ns
        );
        if !sc.waits.is_empty() {
            let _ = writeln!(s, "wait table at cancellation:");
            for (key, tasks) in &sc.waits {
                let _ = writeln!(s, "  {key} <- tasks {tasks:?}");
            }
        }
        let stuck: Vec<&BlackboxConn> = self.conns.iter().filter(|c| c.occupancy > 0).collect();
        if !stuck.is_empty() {
            let _ = writeln!(s, "connections with undelivered tiles:");
            for c in stuck {
                let _ = writeln!(
                    s,
                    "  {} -> {} ch {}: {}/{} slots occupied",
                    c.src, c.dst, c.channel, c.occupancy, c.capacity
                );
            }
        }
        if !self.flight.is_empty() {
            let _ = writeln!(s, "flight recorder (last {} records):", self.flight.len());
            for r in &self.flight {
                let _ = writeln!(s, "  [w{} #{}] {}", r.worker, r.seq, r.describe());
            }
        }
        s
    }

    /// Re-exports the flight rings through the shared trace model so
    /// `msccl doctor --format chrome` can reuse the Chrome exporter.
    /// Timestamps are *ordinal* (each worker's record sequence number),
    /// not wall-clock: the recorder deliberately takes no clock reads on
    /// the hot path, so only within-worker order is meaningful.
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        let mut events = vec![TraceEvent {
            ts_us: 0.0,
            rank: self.failure.rank,
            tb: self.failure.tb,
            kind: EventKind::KernelLaunch,
        }];
        for r in &self.flight {
            let (rank, tb) = (r.rank.unwrap_or(0), r.tb.unwrap_or(r.worker));
            #[allow(clippy::cast_precision_loss)]
            let ts_us = r.seq as f64 + 1.0;
            let kind =
                match r.kind {
                    FK_BLOCK => match r.a >> 28 {
                        KEY_RECV => self.conns.get((r.a & 0x0FFF_FFFF) as usize).map(|c| {
                            EventKind::RecvBlock {
                                src: c.src,
                                channel: c.channel,
                            }
                        }),
                        KEY_SEND => self.conns.get((r.a & 0x0FFF_FFFF) as usize).map(|c| {
                            EventKind::SendBlock {
                                dst: c.dst,
                                channel: c.channel,
                            }
                        }),
                        _ => None,
                    },
                    FK_SEM_SET => Some(EventKind::SemSet { value: r.b }),
                    FK_RUN => Some(EventKind::TileBegin { tile: 0 }),
                    _ => None,
                };
            if let Some(kind) = kind {
                events.push(TraceEvent {
                    ts_us,
                    rank,
                    tb,
                    kind,
                });
            }
        }
        Trace::from_buffers(ClockDomain::Wall, vec![events])
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", msccl_metrics::json_escape(s))
}

fn json_str_list(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(item));
    }
    out.push(']');
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (std-only; enough for our own dumps)
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers are unsigned integers — that is all the
/// black-box format uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.parse_obj(),
            b'[' => self.parse_arr(),
            b'"' => Ok(Json::Str(self.parse_string()?)),
            b't' => self.parse_lit("true", Json::Bool(true)),
            b'f' => self.parse_lit("false", Json::Bool(false)),
            b'n' => self.parse_lit("null", Json::Null),
            b'0'..=b'9' => self.parse_num(),
            other => Err(format!(
                "unexpected byte {:?} at {}",
                char::from(other),
                self.pos
            )),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_num(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".to_string()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (dump strings are UTF-8 by
                    // construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_obj(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            fields.push((key, self.parse_value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    fn get<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("expected object looking for {key:?}")),
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err("expected number".to_string()),
        }
    }

    fn as_usize(&self) -> Result<usize, String> {
        Ok(self.as_u64()? as usize)
    }

    fn as_str(&self) -> Result<String, String> {
        match self {
            Json::Str(s) => Ok(s.clone()),
            _ => Err("expected string".to_string()),
        }
    }

    fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err("expected array".to_string()),
        }
    }

    fn get_str(&self, key: &str) -> Result<String, String> {
        self.get(key)?.as_str()
    }

    fn get_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)?.as_u64()
    }

    fn get_usize(&self, key: &str) -> Result<usize, String> {
        self.get(key)?.as_usize()
    }

    fn get_bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{key}: expected bool")),
        }
    }

    fn get_arr<'a>(&'a self, key: &str) -> Result<&'a [Json], String> {
        self.get(key)?.as_arr()
    }

    fn get_str_list(&self, key: &str) -> Result<Vec<String>, String> {
        self.get_arr(key)?.iter().map(Json::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each worker's ring head sits on its own pair of cache lines.
    #[test]
    fn flight_shards_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<FlightShard>(), 128);
        assert_eq!(std::mem::size_of::<FlightShard>(), 128);
    }

    fn task(rank: usize, tb: usize, wait: Option<BlockedOn>) -> TaskStall {
        TaskStall {
            rank,
            tb,
            tile: 0,
            step: 1,
            done: false,
            dead: false,
            completed: 3,
            wait,
            send_peer: None,
            recv_peer: None,
            recent: vec![format!("rank {rank} tb {tb} tile 0 step 1 (r): started")],
        }
    }

    /// Two ranks each blocked receiving from the other: a textbook cycle.
    #[test]
    fn classifies_recv_cycle_as_deadlock() {
        let mut a = task(0, 0, Some(BlockedOn::Recv { src: 1, channel: 0 }));
        a.send_peer = Some((1, 0));
        a.recv_peer = Some((1, 0));
        let mut b = task(1, 0, Some(BlockedOn::Recv { src: 0, channel: 0 }));
        b.send_peer = Some((0, 0));
        b.recv_peer = Some((0, 0));
        let g = WaitForGraph::build(vec![a, b]);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.edges[0].to, Some(1));
        assert_eq!(g.edges[1].to, Some(0));
        let d = g.classify(0, Vec::new());
        assert_eq!(d.kind, StallKind::DeadlockCycle);
        assert_eq!(d.origin, (0, 0, 1));
        // The chain revisits the origin: the cycle closes there.
        assert_eq!(d.root, (0, 0, 1));
        assert!(d.chain.len() >= 3, "chain: {:?}", d.chain);
    }

    /// A semaphore wait on a task that already finished (and will never
    /// signal again) is orphaned, not deadlocked.
    #[test]
    fn classifies_wait_on_finished_task_as_orphaned() {
        let waiter = task(
            0,
            1,
            Some(BlockedOn::Sem {
                dep_tb: 0,
                target: 5,
                current: 3,
            }),
        );
        let mut dep = task(0, 0, None);
        dep.done = true;
        let g = WaitForGraph::build(vec![dep, waiter]);
        let d = g.classify(1, Vec::new());
        assert_eq!(d.kind, StallKind::OrphanedWait);
        assert_eq!(d.root, (0, 0, 1));
        assert!(d.root_what.contains("finished"), "{}", d.root_what);
    }

    /// A wait chain that ends at a sleeping task (injected stall) is a
    /// straggler — the root names the stalled block, i.e. the fault site.
    #[test]
    fn classifies_wait_on_sleeping_task_as_straggler() {
        let mut waiter = task(0, 0, Some(BlockedOn::Recv { src: 1, channel: 0 }));
        waiter.recv_peer = Some((1, 0));
        let mut stalled = task(1, 0, Some(BlockedOn::Sleep));
        stalled.send_peer = Some((0, 0));
        let g = WaitForGraph::build(vec![waiter, stalled]);
        let d = g.classify(0, Vec::new());
        assert_eq!(d.kind, StallKind::Straggler);
        assert_eq!(d.root, (1, 0, 1));
        assert!(d.root_what.contains("sleep"), "{}", d.root_what);
    }

    /// A dead origin (injected kill) diagnoses as a self-fault at the
    /// origin itself.
    #[test]
    fn classifies_dead_origin_as_self_fault() {
        let mut killed = task(1, 0, None);
        killed.dead = true;
        let g = WaitForGraph::build(vec![task(0, 0, None), killed]);
        let d = g.classify(1, vec!["kill block r1 tb0 step0".to_string()]);
        assert_eq!(d.kind, StallKind::SelfFault);
        assert_eq!(d.root, (1, 0, 1));
        assert_eq!(d.fired_faults.len(), 1);
    }

    /// A wait on a *dead* peer (killed mid-protocol) is orphaned and
    /// roots at the dead task, not the waiter.
    #[test]
    fn classifies_wait_on_dead_peer_as_orphaned() {
        let mut waiter = task(0, 0, Some(BlockedOn::Recv { src: 1, channel: 0 }));
        waiter.recv_peer = Some((1, 0));
        let mut dead = task(1, 0, None);
        dead.dead = true;
        dead.send_peer = Some((0, 0));
        let g = WaitForGraph::build(vec![waiter, dead]);
        let d = g.classify(0, Vec::new());
        assert_eq!(d.kind, StallKind::OrphanedWait);
        assert_eq!(d.root, (1, 0, 1));
    }

    #[test]
    fn context_lines_keep_ring_format_and_add_diagnosis() {
        let mut a = task(0, 0, Some(BlockedOn::Recv { src: 1, channel: 0 }));
        a.recv_peer = Some((1, 0));
        let mut b = task(1, 0, Some(BlockedOn::Sleep));
        b.send_peer = Some((0, 0));
        let g = WaitForGraph::build(vec![a, b]);
        let d = g.classify(0, vec!["stall block r1 tb0 step0 us 5000000".to_string()]);
        let lines = d.context_lines();
        assert!(lines.iter().any(|l| l.starts_with("rank 0 tb 0")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("injected fault struck: stall block r1 tb0")));
        assert!(lines.iter().any(|l| l.starts_with("diagnosis: straggler")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("root cause: rank 1 tb 0")));
    }

    #[test]
    fn flight_ring_wraps_and_keeps_newest() {
        let rec = FlightRecorder::new(1);
        for i in 0..(FLIGHT_CAPACITY + 10) {
            rec.run(0, 0, 0, i, i as u64);
        }
        let records = rec.drain();
        assert_eq!(records.len(), FLIGHT_CAPACITY);
        assert_eq!(records[0].seq, 10);
        assert_eq!(records.last().unwrap().a, (FLIGHT_CAPACITY + 9) as u64);
        rec.reset();
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn flight_records_round_trip_payloads() {
        let rec = FlightRecorder::new(2);
        rec.block(1, 3, 7, encode_key(KEY_TAG_RECV, 5), 2, 9);
        rec.park(0, 1234);
        rec.sem_set(0, 1, 2, 4, 42);
        let records = rec.drain();
        assert_eq!(records.len(), 3);
        let block = records.iter().find(|r| r.kind_name() == "block").unwrap();
        assert_eq!((block.rank, block.tb), (Some(3), Some(7)));
        assert_eq!(block.a, encode_key(KEY_TAG_RECV, 5));
        assert_eq!((block.b >> 16, block.b & 0xFFFF), (2, 9));
        let park = records.iter().find(|r| r.kind_name() == "park").unwrap();
        assert_eq!((park.rank, park.tb), (None, None));
        assert_eq!(park.a, 1234);
        assert!(records
            .iter()
            .any(|r| r.kind_name() == "sem_set" && r.b == 42));
    }

    fn sample_blackbox() -> Blackbox {
        let mut a = task(0, 0, Some(BlockedOn::Recv { src: 1, channel: 0 }));
        a.recv_peer = Some((1, 0));
        a.send_peer = Some((1, 0));
        let mut b = task(1, 0, Some(BlockedOn::Recv { src: 0, channel: 0 }));
        b.recv_peer = Some((0, 0));
        b.send_peer = Some((0, 0));
        let g = WaitForGraph::build(vec![a, b]);
        let diagnosis = g.classify(0, vec!["fault \"quoted\"".to_string()]);
        let rec = FlightRecorder::new(1);
        rec.run(0, 0, 0, 0, 0);
        // Task (0, 0) blocks receiving on conn 1, the 1 -> 0 connection.
        rec.block(0, 0, 0, encode_key(KEY_TAG_RECV, 1), 0, 1);
        Blackbox {
            version: BLACKBOX_VERSION.to_string(),
            program: "allgather".to_string(),
            failure: BlackboxFailure {
                cause: "hang".to_string(),
                detail: String::new(),
                rank: 0,
                tb: 0,
                step: 1,
                drain_us: 1500,
            },
            diagnosis,
            sched: BlackboxSched {
                steals: 2,
                parks: 5,
                park_ns: 90_000,
                waits: vec![("recv(0)".to_string(), vec![0, 1])],
            },
            conns: vec![
                BlackboxConn {
                    src: 0,
                    dst: 1,
                    channel: 0,
                    occupancy: 1,
                    capacity: 8,
                },
                BlackboxConn {
                    src: 1,
                    dst: 0,
                    channel: 0,
                    occupancy: 0,
                    capacity: 8,
                },
            ],
            flight: rec.drain(),
            metrics: vec![("msccl_sched_steals_total".to_string(), 2)],
        }
    }

    #[test]
    fn blackbox_json_round_trips() {
        let bb = sample_blackbox();
        let json = bb.to_json();
        let parsed = Blackbox::from_json(&json).expect("parse own dump");
        assert_eq!(parsed, bb);
        // Byte-stable writer: serialize(parse(x)) == x.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn blackbox_rejects_wrong_version() {
        let json = sample_blackbox().to_json().replace("-v1", "-v9");
        let err = Blackbox::from_json(&json).unwrap_err();
        assert!(err.contains("unsupported dump version"), "{err}");
    }

    #[test]
    fn blackbox_renders_human_diagnosis() {
        let text = sample_blackbox().render_human();
        assert!(text.contains("diagnosis: deadlock_cycle"), "{text}");
        assert!(text.contains("root cause: rank 0 tb 0"), "{text}");
        assert!(text.contains("flight recorder"), "{text}");
    }

    #[test]
    fn blackbox_exports_trace_events() {
        let trace = sample_blackbox().to_trace();
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::RecvBlock { src: 1, channel: 0 })));
        // Ordinal timestamps are monotone per worker by construction.
        assert!(trace.len() >= 2);
    }
}
