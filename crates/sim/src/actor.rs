//! One shard of the sharded discrete-event engine: all thread blocks of
//! one machine node, their connections, and a private event queue.
//!
//! A shard owns every piece of state its events touch — thread blocks,
//! FIFO connections (whole for intra-node traffic, the send *or*
//! receive half for cross-node traffic), the node's fluid flow network,
//! and the DMA queues of the NICs it is responsible for (egress queues
//! live with the sending node, ingress queues with the receiving node).
//! The only communication between shards is timestamped [`Outbound`]
//! messages, delivered by the round loop at round boundaries; within a
//! round a shard runs exactly the original engine's state machine over
//! its own event queue.
//!
//! Per event a shard does model work only: the program is lowered at
//! build into a compact [`Step`] table with dependencies resolved to
//! shard-local indices, flow bookkeeping is indexed by the flow
//! network's dense ids, and metrics are plain integer tallies folded
//! into a registry once, after the run ([`Shard::fold_metrics`]).

use std::collections::VecDeque;

use msccl_faults::{BlockAction, DeliveryAction};
use msccl_metrics::{bucket_index, names, Registry, BUCKETS};
use msccl_trace::{EventKind, TraceEvent};
use mscclang::OpCode;

use crate::config::{f64_bits, SimError};
use crate::engine::{Activity, TimelineEntry};
use crate::flow::{FlowNet, Reschedule, ResourceTable};
use crate::parallel::RunCtx;
use crate::sync::{Candidate, Ev, EventQueue, Outbound, Payload, QueuedEvent};

/// Per-opcode tally: instructions completed and their latency
/// histogram in [`msccl_metrics::Histogram`]'s log2 buckets (the
/// histogram's count is the instruction count).
#[derive(Clone, Copy)]
struct OpTally {
    count: u64,
    sum_ns: u64,
    buckets: [u64; BUCKETS],
}

/// Always-on metrics for one shard, tallied as plain integers while it
/// runs: the same vocabulary the threaded runtime records, measured on
/// the virtual clock (virtual microseconds × 1000 stand in for
/// nanoseconds). Per-connection tallies live on [`Conn`].
struct Tallies {
    sem_wait_ns: u64,
    fifo_send_block_ns: u64,
    fifo_recv_block_ns: u64,
    /// Indexed by [`OpCode::index`].
    ops: [OpTally; OpCode::ALL.len()],
}

impl Tallies {
    fn new() -> Self {
        Self {
            sem_wait_ns: 0,
            fifo_send_block_ns: 0,
            fifo_recv_block_ns: 0,
            ops: [OpTally {
                count: 0,
                sum_ns: 0,
                buckets: [0; BUCKETS],
            }; OpCode::ALL.len()],
        }
    }

    /// A virtual-time interval as integer "nanoseconds".
    fn ns(us: f64) -> u64 {
        (us * 1000.0).round().max(0.0) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Stage {
    /// About to start the current instruction (deps unchecked).
    Start,
    /// Receive processing timer running.
    RecvBusy,
    /// Ready to enter the send half.
    SendStart,
    /// Send-side overhead/staging timer running.
    SendBusy,
    /// Waiting for the instruction's own intra-node flow to finish.
    FlowWait,
    /// Local compute timer running.
    LocalBusy,
}

#[derive(Default)]
pub(crate) struct Conn {
    /// Interned resource indices of the transfer path within this
    /// shard's table: both ports for an intra-node connection, only the
    /// egress (send half) or ingress (receive half) NIC for a split
    /// cross-node connection.
    pub resources: Vec<usize>,
    pub alpha_us: f64,
    pub cross_node: bool,
    pub local: bool,
    /// Demand cap for flows on this connection (TB injection rate for
    /// NVLink, NIC engine rate for RDMA).
    pub demand_gbps: f64,
    pub slots: usize,
    pub in_flight: usize,
    pub available: usize,
    pub waiting_sender: Option<usize>,
    pub waiting_receiver: Option<usize>,
    /// `(src, dst, channel)` identity plus send/recv sequence counters,
    /// for trace events.
    pub key: (usize, usize, usize),
    pub send_seq: u64,
    pub recv_seq: u64,
    /// Metric tallies: payload bytes this half sent or received (the
    /// counts are `send_seq` / `recv_seq`) and the peak number of tiles
    /// in flight.
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub peak_in_flight: usize,
    /// Payload sizes of tiles sent but not yet received, so the receive
    /// event reports the bytes the matching send put in flight (an
    /// injected duplicate delivery falls back to the instruction's own
    /// payload). For a split connection this lives on the receive half,
    /// filled by `TileArrive`.
    pub pending_bytes: VecDeque<u64>,
    /// Injected fault actions recorded at send start for the in-flight
    /// tile, consumed when its delivery is scheduled. A connection has
    /// exactly one sender thread block and that block does not reach its
    /// next send before the current tile's delivery is scheduled, so one
    /// pending slot suffices.
    pub pending_delivery: Vec<DeliveryAction>,
    /// Send half of a split connection: `(dst shard, recv-half conn id)`.
    pub remote_recv: Option<(usize, usize)>,
    /// Receive half of a split connection: `(src shard, send-half conn
    /// id)`.
    pub remote_send: Option<(usize, usize)>,
}

pub(crate) struct Tb {
    pub rank: usize,
    pub local_id: usize,
    /// This block's instructions are `steps[first_step..][..num_instructions]`
    /// of its shard.
    pub first_step: usize,
    pub num_instructions: usize,
    pub send_conn: Option<usize>,
    pub recv_conn: Option<usize>,
    pub tile: usize,
    pub pc: usize,
    pub stage: Stage,
    pub completed: u64,
    pub gen: u64,
    pub done: bool,
    pub finish_time: f64,
    pub busy_us: f64,
    pub flow_start_us: f64,
    /// (target completed-count, waiting tb, its gen at registration).
    pub waiters: Vec<(u64, usize, u64)>,
    // Trace bookkeeping: which boundary events are already emitted for the
    // current tile/instruction, and which wait/block interval is open.
    pub tile_begun: bool,
    pub instr_begun: bool,
    pub open_wait: Option<(usize, u64)>,
    pub open_recv_block: bool,
    pub open_send_block: bool,
    // Metric bookkeeping: virtual timestamps at which the open wait/block
    // interval or the current instruction began (valid only while the
    // matching flag above is set).
    pub wait_since: f64,
    pub recv_block_since: f64,
    pub send_block_since: f64,
    pub instr_begin_us: f64,
}

impl Tb {
    pub(crate) fn new(
        rank: usize,
        local_id: usize,
        first_step: usize,
        num_instructions: usize,
        send_conn: Option<usize>,
        recv_conn: Option<usize>,
    ) -> Self {
        Self {
            rank,
            local_id,
            first_step,
            num_instructions,
            send_conn,
            recv_conn,
            tile: 0,
            pc: 0,
            stage: Stage::Start,
            completed: 0,
            gen: 0,
            done: false,
            finish_time: 0.0,
            busy_us: 0.0,
            flow_start_us: 0.0,
            waiters: Vec::new(),
            tile_begun: false,
            instr_begun: false,
            open_wait: None,
            open_recv_block: false,
            open_send_block: false,
            wait_since: 0.0,
            recv_block_since: 0.0,
            send_block_since: 0.0,
            instr_begin_us: 0.0,
        }
    }
}

/// One instruction as the event loop reads it, lowered from the IR at
/// build: the opcode, its chunk count, whether other blocks wait on it,
/// and its dependencies as the range `deps.0..deps.1` of [`Shard::deps`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub op: OpCode,
    pub has_dep: bool,
    pub deps: (u32, u32),
    pub count: usize,
}

/// A cross-thread-block dependency resolved at build (always same-rank,
/// hence same-shard): the shard-local index of the block waited on and
/// the step it must complete. The block's IR id and instruction count
/// are read off its [`Tb`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dep {
    pub tb: usize,
    pub step: usize,
}

#[derive(Clone, Copy)]
struct FlowInfo {
    conn: usize,
    sender_tb: Option<usize>,
    sender_gen: u64,
    alpha_us: f64,
}

/// One per-node actor: private event queue, thread blocks, connections
/// and NIC queues, plus the per-shard slices of every report field.
pub(crate) struct Shard {
    pub id: usize,
    /// Every block's lowered instructions, back to back.
    pub steps: Vec<Step>,
    pub deps: Vec<Dep>,
    pub tbs: Vec<Tb>,
    pub conns: Vec<Conn>,
    pub table: ResourceTable,
    pub net: FlowNet,
    pub nic_free: Vec<f64>,
    pub nic_busy: Vec<f64>,
    pub nic_bytes: Vec<f64>,
    pub cross_flows: usize,
    /// Per in-flight intra-node flow, indexed by the flow network's
    /// dense (recycled) ids.
    flow_info: Vec<Option<FlowInfo>>,
    resched_scratch: Vec<Reschedule>,
    queue: EventQueue,
    pub finished_tbs: usize,
    pub last_time: f64,
    pub instructions_executed: usize,
    pub events: u64,
    pub max_heap: usize,
    pub timeline: Vec<TimelineEntry>,
    pub trace: Option<Vec<TraceEvent>>,
    tallies: Tallies,
    /// Messages emitted this round, drained by the round loop.
    pub out: Vec<Outbound>,
    /// First structured error this shard hit; set once, then the shard
    /// halts and waits for global resolution.
    pub candidate: Option<Candidate>,
}

impl Shard {
    pub(crate) fn new(id: usize, record_trace: bool) -> Self {
        Self {
            id,
            steps: Vec::new(),
            deps: Vec::new(),
            tbs: Vec::new(),
            conns: Vec::new(),
            table: ResourceTable::new(),
            net: FlowNet::new(&ResourceTable::new()),
            nic_free: Vec::new(),
            nic_busy: Vec::new(),
            nic_bytes: Vec::new(),
            cross_flows: 0,
            flow_info: Vec::new(),
            resched_scratch: Vec::new(),
            queue: EventQueue::new(),
            finished_tbs: 0,
            last_time: 0.0,
            instructions_executed: 0,
            events: 0,
            max_heap: 0,
            timeline: Vec::new(),
            trace: record_trace.then(Vec::new),
            tallies: Tallies::new(),
            out: Vec::new(),
            candidate: None,
        }
    }

    /// Finalizes the network state after all connections are interned.
    pub(crate) fn seal(&mut self, start_us: f64) {
        self.net = FlowNet::new(&self.table);
        self.nic_free = vec![0.0; self.table.len()];
        self.nic_busy = vec![0.0; self.table.len()];
        self.nic_bytes = vec![0.0; self.table.len()];
        self.last_time = start_us;
        for tb in 0..self.tbs.len() {
            self.queue.push(start_us, Ev::TbWake { tb, gen: 0 });
        }
    }

    /// Folds this shard's tallies into `registry` under the runtime's
    /// names and labels. Both halves of a split connection fold into the
    /// one `(src, dst, channel)` sample, each adding its own side.
    pub(crate) fn fold_metrics(&self, registry: &Registry) {
        let t = &self.tallies;
        registry
            .counter(names::SEM_WAIT_NS, &[])
            .add(0, t.sem_wait_ns);
        registry
            .counter(names::FIFO_SEND_BLOCK_NS, &[])
            .add(0, t.fifo_send_block_ns);
        registry
            .counter(names::FIFO_RECV_BLOCK_NS, &[])
            .add(0, t.fifo_recv_block_ns);
        for (op, tally) in OpCode::ALL.iter().zip(&t.ops) {
            let labels = [("op", op.mnemonic())];
            registry
                .counter(names::INSTRUCTIONS, &labels)
                .add(0, tally.count);
            registry.histogram(names::INSTR_LATENCY_NS, &labels).merge(
                0,
                &tally.buckets,
                tally.sum_ns,
            );
        }
        for c in &self.conns {
            let (s, d, ch) = (
                c.key.0.to_string(),
                c.key.1.to_string(),
                c.key.2.to_string(),
            );
            let labels = [
                ("src", s.as_str()),
                ("dst", d.as_str()),
                ("channel", ch.as_str()),
            ];
            registry
                .counter(names::BYTES_SENT, &labels)
                .add(0, c.bytes_sent);
            registry.counter(names::SENDS, &labels).add(0, c.send_seq);
            registry
                .gauge(names::FIFO_PEAK_OCCUPANCY, &labels)
                .set_max(c.peak_in_flight as u64);
            registry
                .counter(names::BYTES_RECEIVED, &labels)
                .add(0, c.bytes_received);
            registry.counter(names::RECVS, &labels).add(0, c.recv_seq);
        }
    }

    /// Enqueues a cross-shard message at a round boundary.
    pub(crate) fn deliver_msg(&mut self, ts: f64, payload: Payload) {
        let ev = match payload {
            Payload::Tile {
                conn,
                bytes,
                wire,
                copies,
            } => Ev::TileArrive {
                conn,
                bytes,
                wire,
                copies,
            },
            Payload::Credit { conn } => Ev::CreditArrive { conn },
        };
        self.queue.push(ts, ev);
    }

    /// Timestamp of the next pending event, if any.
    pub(crate) fn next_time(&self) -> Option<f64> {
        if self.done() {
            None
        } else {
            self.queue.peek_time()
        }
    }

    /// Whether every thread block on this shard has finished.
    pub(crate) fn done(&self) -> bool {
        self.finished_tbs >= self.tbs.len()
    }

    /// Processes every event strictly below `bound` (or `<= bound` when
    /// `inclusive`, the zero-lookahead fallback), emitting cross-shard
    /// messages into `self.out` and recording the first structured error
    /// into `self.candidate`.
    pub(crate) fn run_until(&mut self, bound: f64, inclusive: bool, ctx: &RunCtx<'_>) {
        if self.candidate.is_some() {
            return;
        }
        while self.finished_tbs < self.tbs.len() {
            let due = |t: f64| t < bound || (inclusive && t <= bound);
            let Some(QueuedEvent { time, ev, .. }) = self.queue.pop_if(due) else {
                break;
            };
            self.events += 1;
            self.max_heap = self.max_heap.max(self.queue.len());
            self.last_time = self.last_time.max(time);
            match ev {
                Ev::TbWake { tb, gen } => {
                    if self.tbs[tb].done || self.tbs[tb].gen != gen {
                        continue;
                    }
                    if let Err(error) = self.advance_tb(tb, time, ctx) {
                        self.candidate = Some(Candidate {
                            time,
                            shard: self.id,
                            error,
                        });
                        return;
                    }
                }
                Ev::FlowDone { flow, generation } => {
                    let mut resched = std::mem::take(&mut self.resched_scratch);
                    resched.clear();
                    let completed = self.net.complete(time, flow, generation, &mut resched);
                    if !completed {
                        self.resched_scratch = resched;
                        continue;
                    }
                    for r in &resched {
                        self.queue.push(
                            r.complete_at_us,
                            Ev::FlowDone {
                                flow: r.flow,
                                generation: r.generation,
                            },
                        );
                    }
                    self.resched_scratch = resched;
                    let info = self.flow_info[flow].take().expect("flow info exists");
                    self.push_delivery(info.conn, time + info.alpha_us);
                    if let Some(sender) = info.sender_tb {
                        // Intra-node: the sending thread block was
                        // occupied by the copy; it resumes now.
                        debug_assert_eq!(self.tbs[sender].stage, Stage::FlowWait);
                        self.queue.push(
                            time,
                            Ev::TbWake {
                                tb: sender,
                                gen: info.sender_gen,
                            },
                        );
                    }
                }
                Ev::Deliver { conn } => {
                    self.conns[conn].available += 1;
                    if let Some(rx) = self.conns[conn].waiting_receiver.take() {
                        let gen = self.tbs[rx].gen;
                        self.queue.push(time, Ev::TbWake { tb: rx, gen });
                    }
                }
                Ev::TileArrive {
                    conn,
                    bytes,
                    wire,
                    copies,
                } => {
                    // Ingress DMA engine: FIFO service at line rate, one
                    // per-message overhead — the mirror of the egress
                    // charge the sending shard already paid.
                    let serialize = wire / (self.conns[conn].demand_gbps * 1000.0)
                        + ctx.config.nic_msg_overhead_us;
                    let mut done = time;
                    for i in 0..self.conns[conn].resources.len() {
                        let r = self.conns[conn].resources[i];
                        done = done.max(self.nic_free[r]) + serialize;
                        self.nic_free[r] = done;
                        self.nic_busy[r] += serialize;
                        self.nic_bytes[r] += wire;
                    }
                    self.conns[conn].pending_bytes.push_back(bytes);
                    for _ in 0..copies {
                        self.queue.push(done, Ev::Deliver { conn });
                    }
                }
                Ev::CreditArrive { conn } => {
                    // Saturating because an injected duplicate delivery
                    // can return more credits than tiles in flight.
                    self.conns[conn].in_flight = self.conns[conn].in_flight.saturating_sub(1);
                    if let Some(tx) = self.conns[conn].waiting_sender.take() {
                        let gen = self.tbs[tx].gen;
                        self.queue.push(time, Ev::TbWake { tb: tx, gen });
                    }
                }
            }
        }
    }

    /// Schedules a tile delivery on the intra-node (or local) connection
    /// `conn` at `base_time`, honouring any injected fault actions
    /// recorded when the send started: a drop suppresses the event
    /// entirely (the receiver starves and the run wedges into
    /// [`SimError::Stuck`]), a delay postpones it, a duplicate schedules
    /// it twice. Payload corruption has no timing effect — the simulator
    /// moves no data — so it is ignored here.
    fn push_delivery(&mut self, conn: usize, base_time: f64) {
        let actions = std::mem::take(&mut self.conns[conn].pending_delivery);
        let mut copies = 1usize;
        let mut delay_us = 0.0;
        for action in actions {
            match action {
                DeliveryAction::Drop => return,
                DeliveryAction::Delay(d) => delay_us += d.as_secs_f64() * 1e6,
                DeliveryAction::Duplicate => copies += 1,
                DeliveryAction::Corrupt { .. } => {}
            }
        }
        for _ in 0..copies {
            self.queue.push(base_time + delay_us, Ev::Deliver { conn });
        }
    }

    /// Appends one trace event when tracing is enabled.
    fn emit(&mut self, ts_us: f64, rank: usize, tb: usize, kind: EventKind) {
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEvent {
                ts_us,
                rank,
                tb,
                kind,
            });
        }
    }

    /// Runs one thread block forward as far as it can go at `now` — the
    /// original engine's state machine verbatim, except that the send
    /// and receive halves of a cross-node connection talk through
    /// timestamped messages instead of shared state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InjectedFault`] when the configured fault
    /// plan kills this thread block at the current step.
    #[allow(clippy::too_many_lines)]
    fn advance_tb(&mut self, me: usize, now: f64, ctx: &RunCtx<'_>) -> Result<(), SimError> {
        let RunCtx {
            config,
            params,
            tile_bytes,
            num_tiles,
            injector,
        } = *ctx;
        let machine = &config.machine;
        let recv_overhead_us = crate::engine::RECV_OVERHEAD_US;
        // A planned persistent straggler chronically slows this rank:
        // every busy interval the block spends computing (receive
        // processing, local copy/reduce, send setup) is multiplied for
        // the whole run. The factor depends only on the rank, so every
        // worker count models it identically.
        let slow = injector
            .and_then(|inj| inj.rank_slowdown(self.tbs[me].rank))
            .unwrap_or(1.0);
        loop {
            if self.tbs[me].pc >= self.tbs[me].num_instructions {
                if self.tbs[me].tile_begun {
                    let tile = self.tbs[me].tile;
                    let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                    self.emit(now, rank, local_id, EventKind::TileEnd { tile });
                    self.tbs[me].tile_begun = false;
                }
                self.tbs[me].pc = 0;
                self.tbs[me].tile += 1;
                if self.tbs[me].tile >= num_tiles || self.tbs[me].num_instructions == 0 {
                    self.tbs[me].done = true;
                    self.tbs[me].finish_time = now;
                    self.finished_tbs += 1;
                    return Ok(());
                }
            }
            if !self.tbs[me].tile_begun {
                let tile = self.tbs[me].tile;
                let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                self.emit(now, rank, local_id, EventKind::TileBegin { tile });
                self.tbs[me].tile_begun = true;
            }
            let pc = self.tbs[me].pc;
            let step = self.steps[self.tbs[me].first_step + pc];
            let (op, has_dep) = (step.op, step.has_dep);
            let payload = step.count as f64 * tile_bytes;
            match self.tbs[me].stage {
                Stage::Start => {
                    // Injected block faults strike as the instruction
                    // starts, before dependency checks — mirroring the
                    // threaded runtime, where the hook sits at the top of
                    // the per-instruction loop. The plan fires on tile 0
                    // only (steps are program counters, and each spec is
                    // one-shot).
                    if self.tbs[me].tile == 0 {
                        if let Some(action) = injector.and_then(|inj| {
                            inj.on_block(self.tbs[me].rank, self.tbs[me].local_id, pc)
                        }) {
                            match action {
                                BlockAction::Stall(d) => {
                                    // Freeze the block, then re-enter this
                                    // stage; the spec is spent so the
                                    // retry proceeds normally.
                                    self.tbs[me].gen += 1;
                                    let gen = self.tbs[me].gen;
                                    self.queue.push(
                                        now + d.as_secs_f64() * 1e6,
                                        Ev::TbWake { tb: me, gen },
                                    );
                                    return Ok(());
                                }
                                BlockAction::Kill => {
                                    return Err(SimError::InjectedFault {
                                        rank: self.tbs[me].rank,
                                        tb: self.tbs[me].local_id,
                                        step: pc,
                                        fault: format!(
                                            "kill block r{} tb{} step{}",
                                            self.tbs[me].rank, self.tbs[me].local_id, pc
                                        ),
                                        at_us: f64_bits::from_f64(now),
                                    });
                                }
                            }
                        }
                    }
                    // Cross-thread-block dependencies (always same-rank,
                    // hence same-shard).
                    let tile = self.tbs[me].tile as u64;
                    let mut blocked = false;
                    for di in step.deps.0..step.deps.1 {
                        let d = self.deps[di as usize];
                        let dep_idx = d.tb;
                        let dep_tb = self.tbs[dep_idx].local_id;
                        let target =
                            tile * self.tbs[dep_idx].num_instructions as u64 + d.step as u64 + 1;
                        if self.tbs[dep_idx].completed < target {
                            if self.tbs[me].open_wait != Some((dep_tb, target)) {
                                // A previous registration may have been on
                                // an earlier dependency of the same
                                // instruction.
                                if let Some((ptb, pt)) = self.tbs[me].open_wait.take() {
                                    self.tallies.sem_wait_ns +=
                                        Tallies::ns(now - self.tbs[me].wait_since);
                                    let (rank, local_id) =
                                        (self.tbs[me].rank, self.tbs[me].local_id);
                                    self.emit(
                                        now,
                                        rank,
                                        local_id,
                                        EventKind::SemWaitExit {
                                            dep_tb: ptb,
                                            target: pt,
                                        },
                                    );
                                }
                                let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                                self.emit(
                                    now,
                                    rank,
                                    local_id,
                                    EventKind::SemWaitEnter { dep_tb, target },
                                );
                                self.tbs[me].open_wait = Some((dep_tb, target));
                                self.tbs[me].wait_since = now;
                            }
                            self.tbs[me].gen += 1;
                            let gen = self.tbs[me].gen;
                            self.tbs[dep_idx].waiters.push((target, me, gen));
                            blocked = true;
                            break;
                        }
                    }
                    if blocked {
                        return Ok(());
                    }
                    if let Some((dep_tb, target)) = self.tbs[me].open_wait.take() {
                        self.tallies.sem_wait_ns += Tallies::ns(now - self.tbs[me].wait_since);
                        let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                        self.emit(
                            now,
                            rank,
                            local_id,
                            EventKind::SemWaitExit { dep_tb, target },
                        );
                    }
                    if !self.tbs[me].instr_begun {
                        let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                        let tile = self.tbs[me].tile;
                        self.emit(
                            now,
                            rank,
                            local_id,
                            EventKind::InstrBegin { step: pc, tile, op },
                        );
                        self.tbs[me].instr_begun = true;
                        self.tbs[me].instr_begin_us = now;
                    }
                    if op.has_recv() {
                        let conn = self.tbs[me].recv_conn.expect("recv needs a connection");
                        let (src, _, channel) = self.conns[conn].key;
                        if self.conns[conn].available == 0 {
                            if !self.tbs[me].open_recv_block {
                                let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                                self.emit(
                                    now,
                                    rank,
                                    local_id,
                                    EventKind::RecvBlock { src, channel },
                                );
                                self.tbs[me].open_recv_block = true;
                                self.tbs[me].recv_block_since = now;
                            }
                            self.conns[conn].waiting_receiver = Some(me);
                            self.tbs[me].gen += 1;
                            return Ok(());
                        }
                        if self.tbs[me].open_recv_block {
                            self.tallies.fifo_recv_block_ns +=
                                Tallies::ns(now - self.tbs[me].recv_block_since);
                            let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                            self.emit(now, rank, local_id, EventKind::RecvResume { src, channel });
                            self.tbs[me].open_recv_block = false;
                        }
                        let bytes = self.conns[conn]
                            .pending_bytes
                            .pop_front()
                            .unwrap_or_else(|| payload.round() as u64);
                        let seq = self.conns[conn].recv_seq;
                        let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                        self.emit(
                            now,
                            rank,
                            local_id,
                            EventKind::Recv {
                                src,
                                channel,
                                seq,
                                bytes,
                            },
                        );
                        self.conns[conn].bytes_received += bytes;
                        self.conns[conn].recv_seq += 1;
                        self.conns[conn].available -= 1;
                        // Receive-side processing. A *fused* instruction
                        // forwards the data straight out of the FIFO slot —
                        // the send flow is the only pass over the data (the
                        // global-memory-access saving of §4.3) — so only
                        // unfused receives pay a copy/reduce out of the
                        // slot. Under the direct-copy model the data
                        // already sits at its destination and only
                        // reductions touch it.
                        let copy_out = if op.has_send() || (config.direct_copy && !op.reduces()) {
                            0.0
                        } else {
                            payload / (machine.local_gbps() * 1000.0)
                        };
                        let busy = (config.instr_overhead_us + recv_overhead_us + copy_out) * slow;
                        self.tbs[me].stage = Stage::RecvBusy;
                        self.tbs[me].busy_us += busy;
                        if config.record_timeline {
                            self.timeline.push(TimelineEntry {
                                rank: self.tbs[me].rank,
                                tb: self.tbs[me].local_id,
                                start_us: now,
                                end_us: now + busy,
                                activity: Activity::Recv,
                            });
                        }
                        self.tbs[me].gen += 1;
                        let gen = self.tbs[me].gen;
                        self.queue.push(now + busy, Ev::TbWake { tb: me, gen });
                        return Ok(());
                    } else if op.has_send() {
                        self.tbs[me].stage = Stage::SendStart;
                    } else {
                        // Local copy/reduce.
                        let busy = (config.instr_overhead_us
                            + payload / (machine.local_gbps() * 1000.0))
                            * slow;
                        self.tbs[me].stage = Stage::LocalBusy;
                        self.tbs[me].busy_us += busy;
                        if config.record_timeline {
                            self.timeline.push(TimelineEntry {
                                rank: self.tbs[me].rank,
                                tb: self.tbs[me].local_id,
                                start_us: now,
                                end_us: now + busy,
                                activity: Activity::Local,
                            });
                        }
                        self.tbs[me].gen += 1;
                        let gen = self.tbs[me].gen;
                        self.queue.push(now + busy, Ev::TbWake { tb: me, gen });
                        return Ok(());
                    }
                }
                Stage::RecvBusy => {
                    // Slot drained: release the sender's FIFO slot. For a
                    // split cross-node connection the credit rides the
                    // reverse link back to the sending shard; intra-node
                    // the release is immediate, saturating because an
                    // injected duplicate delivery can let the receiver
                    // drain more tiles than the sender put in flight.
                    let conn = self.tbs[me].recv_conn.expect("recv needs a connection");
                    if let Some((src_shard, send_half)) = self.conns[conn].remote_send {
                        let alpha = self.conns[conn].alpha_us * params.alpha_factor;
                        self.out.push(Outbound {
                            dst: src_shard,
                            ts: now + alpha,
                            payload: Payload::Credit { conn: send_half },
                        });
                    } else {
                        self.conns[conn].in_flight = self.conns[conn].in_flight.saturating_sub(1);
                        if let Some(tx) = self.conns[conn].waiting_sender.take() {
                            let gen = self.tbs[tx].gen;
                            self.queue.push(now, Ev::TbWake { tb: tx, gen });
                        }
                    }
                    if op.has_send() {
                        self.tbs[me].stage = Stage::SendStart;
                    } else {
                        self.complete_instruction(me, now, op, has_dep);
                    }
                }
                Stage::SendStart => {
                    let conn = self.tbs[me].send_conn.expect("send needs a connection");
                    let (_, dst, channel) = self.conns[conn].key;
                    if self.conns[conn].in_flight >= self.conns[conn].slots {
                        if !self.tbs[me].open_send_block {
                            let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                            self.emit(now, rank, local_id, EventKind::SendBlock { dst, channel });
                            self.tbs[me].open_send_block = true;
                            self.tbs[me].send_block_since = now;
                        }
                        self.conns[conn].waiting_sender = Some(me);
                        self.tbs[me].gen += 1;
                        return Ok(());
                    }
                    if self.tbs[me].open_send_block {
                        self.tallies.fifo_send_block_ns +=
                            Tallies::ns(now - self.tbs[me].send_block_since);
                        let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                        self.emit(now, rank, local_id, EventKind::SendResume { dst, channel });
                        self.tbs[me].open_send_block = false;
                    }
                    let bytes = payload.round() as u64;
                    let seq = self.conns[conn].send_seq;
                    let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
                    self.emit(
                        now,
                        rank,
                        local_id,
                        EventKind::Send {
                            dst,
                            channel,
                            seq,
                            bytes,
                        },
                    );
                    if self.conns[conn].remote_recv.is_none() {
                        // Intra-node (or local): the receive side shares
                        // this state. For a split connection the bytes
                        // travel inside the tile message instead.
                        self.conns[conn].pending_bytes.push_back(bytes);
                    }
                    if let Some(inj) = injector {
                        let (src, _, _) = self.conns[conn].key;
                        self.conns[conn].pending_delivery =
                            inj.on_delivery(src, dst, channel, self.conns[conn].send_seq);
                    }
                    let c = &mut self.conns[conn];
                    c.send_seq += 1;
                    c.in_flight += 1;
                    c.bytes_sent += bytes;
                    c.peak_in_flight = c.peak_in_flight.max(c.in_flight);
                    // Sender-side synchronization + (for RDMA paths)
                    // staging into the proxy buffer at local copy rate.
                    let staging = if self.conns[conn].cross_node {
                        payload / (machine.local_gbps() * 1000.0)
                    } else {
                        0.0
                    };
                    let mut busy = params.tile_overhead_us + staging;
                    if !op.has_recv() {
                        busy += config.instr_overhead_us;
                    }
                    busy *= slow;
                    self.tbs[me].stage = Stage::SendBusy;
                    self.tbs[me].busy_us += busy;
                    if config.record_timeline {
                        self.timeline.push(TimelineEntry {
                            rank: self.tbs[me].rank,
                            tb: self.tbs[me].local_id,
                            start_us: now,
                            end_us: now + busy,
                            activity: Activity::SendSetup,
                        });
                    }
                    self.tbs[me].gen += 1;
                    let gen = self.tbs[me].gen;
                    self.queue.push(now + busy, Ev::TbWake { tb: me, gen });
                    return Ok(());
                }
                Stage::SendBusy => {
                    let conn = self.tbs[me].send_conn.expect("send needs a connection");
                    let wire = payload / params.bandwidth_efficiency;
                    let cross = self.conns[conn].cross_node;
                    // Cross node: GPUDirect RDMA, the NIC engine moves the
                    // data. Intra node: the thread block itself pushes
                    // over NVLink.
                    let demand = self.conns[conn].demand_gbps;
                    let alpha = self.conns[conn].alpha_us * params.alpha_factor;
                    if self.conns[conn].local {
                        // Same-GPU transfer (not produced by the compiler,
                        // but legal IR): treat as a local copy.
                        self.push_delivery(conn, now);
                        self.complete_instruction(me, now, op, has_dep);
                        continue;
                    }
                    if cross {
                        // Asynchronous RDMA: the tile passes through the
                        // egress DMA engine here, flies for the link
                        // latency, and queues at the destination shard's
                        // ingress engine on arrival (`TileArrive`); the
                        // thread block moves on. Each engine drains its
                        // own queue at line rate independently, so
                        // symmetric traffic keeps both directions fully
                        // utilized.
                        let serialize = wire / (demand * 1000.0) + config.nic_msg_overhead_us;
                        let mut done = now;
                        for i in 0..self.conns[conn].resources.len() {
                            let r = self.conns[conn].resources[i];
                            done = done.max(self.nic_free[r]) + serialize;
                            self.nic_free[r] = done;
                            self.nic_busy[r] += serialize;
                            self.nic_bytes[r] += wire;
                        }
                        self.cross_flows += 1;
                        let actions = std::mem::take(&mut self.conns[conn].pending_delivery);
                        let mut copies = 1usize;
                        let mut delay_us = 0.0;
                        for action in actions {
                            match action {
                                DeliveryAction::Drop => copies = 0,
                                DeliveryAction::Delay(d) => delay_us += d.as_secs_f64() * 1e6,
                                DeliveryAction::Duplicate => copies += 1,
                                DeliveryAction::Corrupt { .. } => {}
                            }
                        }
                        if copies > 0 {
                            let (dst_shard, recv_half) =
                                self.conns[conn].remote_recv.expect("split send half");
                            self.out.push(Outbound {
                                dst: dst_shard,
                                ts: done + alpha + delay_us,
                                payload: Payload::Tile {
                                    conn: recv_half,
                                    bytes: payload.round() as u64,
                                    wire,
                                    copies,
                                },
                            });
                        }
                        self.complete_instruction(me, now, op, has_dep);
                        continue;
                    }
                    let mut resched = std::mem::take(&mut self.resched_scratch);
                    resched.clear();
                    let flow = self.net.start(
                        now,
                        wire,
                        demand,
                        &self.conns[conn].resources,
                        &mut resched,
                    );
                    for r in &resched {
                        self.queue.push(
                            r.complete_at_us,
                            Ev::FlowDone {
                                flow: r.flow,
                                generation: r.generation,
                            },
                        );
                    }
                    self.resched_scratch = resched;
                    // The thread block is occupied for the flow's duration.
                    self.tbs[me].stage = Stage::FlowWait;
                    self.tbs[me].flow_start_us = now;
                    self.tbs[me].gen += 1;
                    if self.flow_info.len() <= flow {
                        self.flow_info.resize(flow + 1, None);
                    }
                    self.flow_info[flow] = Some(FlowInfo {
                        conn,
                        sender_tb: Some(me),
                        sender_gen: self.tbs[me].gen,
                        alpha_us: alpha,
                    });
                    return Ok(());
                }
                Stage::FlowWait => {
                    // Woken by FlowDone: the send is finished.
                    self.tbs[me].busy_us += now - self.tbs[me].flow_start_us;
                    if config.record_timeline {
                        self.timeline.push(TimelineEntry {
                            rank: self.tbs[me].rank,
                            tb: self.tbs[me].local_id,
                            start_us: self.tbs[me].flow_start_us,
                            end_us: now,
                            activity: Activity::Flow,
                        });
                    }
                    self.complete_instruction(me, now, op, has_dep);
                }
                Stage::LocalBusy => {
                    self.complete_instruction(me, now, op, has_dep);
                }
            }
        }
    }

    /// Marks the current instruction complete, wakes dependency waiters
    /// and advances the program counter.
    fn complete_instruction(&mut self, me: usize, now: f64, op: OpCode, has_dep: bool) {
        let latency_ns = Tallies::ns(now - self.tbs[me].instr_begin_us);
        let tally = &mut self.tallies.ops[op.index()];
        tally.count += 1;
        tally.sum_ns += latency_ns;
        tally.buckets[bucket_index(latency_ns)] += 1;
        self.tbs[me].completed += 1;
        if has_dep {
            let value = self.tbs[me].completed;
            let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
            self.emit(now, rank, local_id, EventKind::SemSet { value });
        }
        let (rank, local_id) = (self.tbs[me].rank, self.tbs[me].local_id);
        let (step, tile) = (self.tbs[me].pc, self.tbs[me].tile);
        self.emit(now, rank, local_id, EventKind::InstrEnd { step, tile, op });
        self.tbs[me].instr_begun = false;
        self.tbs[me].pc += 1;
        self.tbs[me].stage = Stage::Start;
        self.instructions_executed += 1;
        let completed = self.tbs[me].completed;
        let mut wakeups: Vec<(usize, u64)> = Vec::new();
        self.tbs[me].waiters.retain(|&(target, tb, gen)| {
            if target <= completed {
                wakeups.push((tb, gen));
                false
            } else {
                true
            }
        });
        for (tb, gen) in wakeups {
            if self.tbs[tb].gen == gen && !self.tbs[tb].done {
                self.queue.push(now, Ev::TbWake { tb, gen });
            }
        }
    }
}
