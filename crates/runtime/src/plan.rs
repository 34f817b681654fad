//! The execution plan: everything about a run that is a function of the
//! program and of the pool shape, built once and kept in the
//! [`ExecArena`](crate::ExecArena).
//!
//! The paper's runtime (§6) loads MSCCL-IR once at communicator init;
//! each collective call is then one launch of an already-resident
//! interpreter. [`ExecPlan`] is that load step. It lowers the IR into
//! per-thread-block instruction tables — operands resolved through the
//! collective's alias map, dependencies resolved to dense task indices —
//! assigns dense connection and task indices, and allocates what every
//! run needs in the same shape: FIFOs, semaphores, the tasks, the
//! scheduler with its queues and wait slots, the cancel token, and — each
//! on first use — the write-before-read zero-elision bitmaps, metric
//! handles and flight rings. A run on a matching plan is [`ExecPlan::reset`],
//! load inputs, interpret, extract.
//!
//! **The match rule** is by content, never by address: the plan keeps
//! its own copy of the IR and a hit requires `plan.ir == *ir`, the same
//! FIFO slot count (the only thing the protocol contributes to the
//! shape) and the same resolved worker-pool size. Everything else in
//! [`RunOptions`](crate::RunOptions) — tile and chunk size, reduce
//! operator, timeouts, epochs, whether this run meters or records — is a
//! per-run scalar applied by `reset`, so alternating such options in one
//! arena keeps hitting.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mscclang::{BufferKind, Collective, IrProgram, OpCode, Space};

use crate::cancel::CancelToken;
use crate::executor::ArenaMetrics;
use crate::fifo::Fifo;
use crate::flight::FlightRecorder;
use crate::memory::Loc;
use crate::pool::PooledTile;
use crate::sched::{Scheduler, Waiters};
use crate::semaphore::Semaphore;
use crate::task::TbTask;

/// `std::thread::available_parallelism`, resolved once per process: the
/// call reads cgroup files on Linux (12.5 µs measured), which is real
/// money against a sub-millisecond collective.
fn host_parallelism() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        #[cfg(test)]
        HOST_PARALLELISM_PROBES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// How often this process actually asked the OS (at most once).
#[cfg(test)]
pub(crate) static HOST_PARALLELISM_PROBES: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

/// The worker-pool size the executor uses for a program of `num_tbs`
/// thread blocks under [`RunOptions::worker_threads`](crate::RunOptions)
/// `= requested`: `0` means the host's parallelism, and the result is
/// clamped to `[1, num_tbs]`.
#[must_use]
pub fn worker_pool_size(requested: usize, num_tbs: usize) -> usize {
    let want = if requested == 0 {
        host_parallelism()
    } else {
        requested
    };
    want.clamp(1, num_tbs.max(1))
}

/// A cross-thread-block dependency, resolved.
pub(crate) struct Dep {
    /// Flat index of the task (and semaphore) waited on.
    pub(crate) flat: usize,
    /// That block's instruction count, for the monotonic target
    /// encoding `tile * len + step + 1`.
    pub(crate) len: u64,
    /// The block's local id and the awaited step, as the IR names them.
    pub(crate) tb: usize,
    pub(crate) step: u64,
}

/// One instruction, lowered.
pub(crate) struct Instr {
    pub(crate) op: OpCode,
    pub(crate) count: usize,
    pub(crate) has_dep: bool,
    pub(crate) src: Option<Loc>,
    pub(crate) dst: Option<Loc>,
    pub(crate) deps: Box<[Dep]>,
}

/// A connection endpoint as a task sees it: the peer, the channel, and
/// the dense connection index its FIFO and wake keys live under.
pub(crate) struct ConnEnd {
    pub(crate) peer: usize,
    pub(crate) channel: usize,
    pub(crate) idx: usize,
}

/// One thread block, lowered. Its position in [`ExecPlan::tbs`] is the
/// task's flat index: semaphore, metrics shard, epoch progress slot.
pub(crate) struct TbPlan {
    pub(crate) rank: usize,
    pub(crate) tb_id: usize,
    pub(crate) send: Option<ConnEnd>,
    pub(crate) recv: Option<ConnEnd>,
    pub(crate) instrs: Box<[Instr]>,
}

/// What building plans has cost an arena so far — the evidence behind
/// "a plan hit rebuilds nothing".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PlanCounters {
    pub(crate) plans_built: u64,
    /// Per-rank [`overwrite_only_chunks`] scans.
    pub(crate) elision_scans: u64,
    pub(crate) tasks_built: u64,
}

/// See the module docs.
pub(crate) struct ExecPlan {
    // ---- The match key.
    ir: IrProgram,
    num_slots: usize,
    pool_threads: usize,
    // ---- Functions of the key.
    pub(crate) tbs: Vec<TbPlan>,
    /// `(src rank, dst rank, channel)` per connection index.
    pub(crate) conns: Vec<(usize, usize, usize)>,
    /// Per rank, `[Data, Output, Scratch]` bitmaps of chunks a recycled
    /// memory may keep stale (see [`overwrite_only_chunks`]). Scanned by
    /// the first run that recycles: a throwaway plan's fresh memories
    /// are zero by construction and never ask.
    pub(crate) elide_zero: Option<Vec<[Vec<bool>; 3]>>,
    /// Per rank, where input chunk 0 lives.
    pub(crate) input_at: Vec<Loc>,
    /// Per rank, where output chunk 0 lives, and whether the output is
    /// that whole space — in which case extraction steals the backing
    /// vector instead of copying out of it.
    pub(crate) output_at: Vec<(Loc, bool)>,
    // ---- Reused by every run; `reset` returns them to a clean state.
    pub(crate) fifos: Vec<Fifo<PooledTile>>,
    pub(crate) sems: Vec<Semaphore>,
    pub(crate) tasks: Vec<Mutex<TbTask>>,
    pub(crate) sched: Scheduler,
    pub(crate) cancel: CancelToken,
    /// Metric handles, resolved by the first metered run (registry
    /// lookups with owned label strings: tens of microseconds) and kept
    /// while later runs switch metering off and on. Counters accumulate
    /// across runs; a snapshotting run zeroes them first.
    pub(crate) metrics: Option<ArenaMetrics>,
    /// Flight rings, one shard per pool worker, likewise built by the
    /// first recording run.
    pub(crate) flight: Option<Arc<FlightRecorder>>,
}

impl ExecPlan {
    /// The one match function (see the module docs for the rule).
    pub(crate) fn matches(&self, ir: &IrProgram, num_slots: usize, pool_threads: usize) -> bool {
        self.num_slots == num_slots && self.pool_threads == pool_threads && self.ir == *ir
    }

    /// Lowers `ir` for FIFOs of `num_slots` slots and a pool of
    /// `pool_threads` workers.
    pub(crate) fn build(
        ir: &IrProgram,
        num_slots: usize,
        pool_threads: usize,
        counters: &mut PlanCounters,
    ) -> Self {
        let collective = &ir.collective;
        let blocks = || {
            ir.gpus
                .iter()
                .flat_map(|g| g.threadblocks.iter().map(move |tb| (g.rank, tb)))
        };
        // Flat task indices in spawn order, and each block's length for
        // its dependents' semaphore targets.
        let flat_of: HashMap<(usize, usize), (usize, u64)> = blocks()
            .enumerate()
            .map(|(flat, (rank, tb))| ((rank, tb.id), (flat, tb.instructions.len() as u64)))
            .collect();
        let num_tasks = ir.num_threadblocks();

        // Dense connection indices in order of first mention; both
        // endpoints of a connection resolve the same index.
        let mut conn_of: HashMap<(usize, usize, usize), usize> = HashMap::new();
        let mut conns = Vec::new();
        // Per task: the tasks with a dependency on its semaphore.
        let mut sem_waiters: Vec<Vec<usize>> = vec![Vec::new(); num_tasks];
        let mut conn_end = |src: usize, dst: usize, channel: usize, peer: usize| {
            let idx = *conn_of.entry((src, dst, channel)).or_insert_with(|| {
                conns.push((src, dst, channel));
                conns.len() - 1
            });
            ConnEnd { peer, channel, idx }
        };

        let lower = |rank: usize, loc: Option<mscclang::IrLoc>| {
            loc.map(|l| Loc::of(collective, rank, l.buffer, l.index))
        };
        let mut tbs = Vec::with_capacity(num_tasks);
        for (flat, (rank, tb)) in blocks().enumerate() {
            let send = tb.send_peer.map(|p| conn_end(rank, p, tb.channel, p));
            let recv = tb.recv_peer.map(|p| conn_end(p, rank, tb.channel, p));
            let instrs = tb
                .instructions
                .iter()
                .map(|i| Instr {
                    op: i.op,
                    count: i.count,
                    has_dep: i.has_dep,
                    src: lower(rank, i.src),
                    dst: lower(rank, i.dst),
                    deps: i
                        .deps
                        .iter()
                        .map(|d| {
                            let &(dep_flat, len) = flat_of
                                .get(&(rank, d.tb))
                                .expect("dependency names a thread block of its own rank");
                            if !sem_waiters[dep_flat].contains(&flat) {
                                sem_waiters[dep_flat].push(flat);
                            }
                            Dep {
                                flat: dep_flat,
                                len,
                                tb: d.tb,
                                step: d.step as u64,
                            }
                        })
                        .collect(),
                })
                .collect();
            tbs.push(TbPlan {
                rank,
                tb_id: tb.id,
                send,
                recv,
                instrs,
            });
        }
        let mut waiters = Waiters {
            recv: vec![Vec::new(); conns.len()],
            send: vec![Vec::new(); conns.len()],
            sem: sem_waiters,
        };
        for (flat, tb) in tbs.iter().enumerate() {
            if let Some(c) = &tb.send {
                waiters.send[c.idx].push(flat);
            }
            if let Some(c) = &tb.recv {
                waiters.recv[c.idx].push(flat);
            }
        }

        let num_ranks = ir.num_ranks();
        counters.plans_built += 1;
        counters.tasks_built += tbs.len() as u64;
        let out_chunks = collective.out_chunks();
        let sched = Scheduler::new(pool_threads, tbs.len(), waiters);
        // Cancellation from anywhere wakes every parked worker at once.
        let cancel = CancelToken::new(Arc::clone(&sched.parker));
        Self {
            ir: ir.clone(),
            num_slots,
            pool_threads,
            fifos: conns.iter().map(|_| Fifo::new(num_slots)).collect(),
            conns,
            elide_zero: None,
            input_at: (0..num_ranks)
                .map(|r| Loc::of(collective, r, BufferKind::Input, 0))
                .collect(),
            output_at: (0..num_ranks)
                .map(|r| {
                    let at = Loc::of(collective, r, BufferKind::Output, 0);
                    let whole_space = out_chunks > 0
                        && at.chunk == 0
                        && collective.space_size(at.space) == Some(out_chunks);
                    (at, whole_space)
                })
                .collect(),
            sems: tbs.iter().map(|_| Semaphore::new()).collect(),
            tasks: tbs
                .iter()
                .enumerate()
                .map(|(flat, tb)| Mutex::new(TbTask::new(tb.rank, tb.tb_id, flat)))
                .collect(),
            tbs,
            sched,
            cancel,
            metrics: None,
            flight: None,
        }
    }

    /// Runs the zero-elision scan if no earlier run of this plan has.
    pub(crate) fn scan_elision(&mut self, counters: &mut PlanCounters) {
        if self.elide_zero.is_none() {
            let ir = &self.ir;
            counters.elision_scans += ir.num_ranks() as u64;
            self.elide_zero = Some(
                (0..ir.num_ranks())
                    .map(|r| overwrite_only_chunks(ir, &ir.collective, r))
                    .collect(),
            );
        }
    }

    /// Returns the reusable half of the plan to the state `build` left
    /// it in, whatever the previous run did to it — tiles stranded in
    /// FIFOs and task inboxes, tasks parked in wait slots, armed timers,
    /// a tripped cancel token — and applies this run's per-task
    /// parameters through `reset_task(tb, task, start)`. `starts[rank][tb id]`
    /// is each block's completed-instruction watermark: zero on a fresh
    /// run, the checkpoint targets on a resume (the semaphore encoding
    /// *is* that count, so dependents wait on exactly these values).
    pub(crate) fn reset(
        &mut self,
        starts: &[Vec<u64>],
        metered: bool,
        recorded: bool,
        mut reset_task: impl FnMut(&TbPlan, &mut TbTask, u64),
    ) {
        if metered && self.metrics.is_none() {
            self.metrics = Some(ArenaMetrics::new(&self.ir));
        }
        if recorded && self.flight.is_none() {
            self.flight = Some(Arc::new(FlightRecorder::new(self.pool_threads)));
        }
        let flight = self.flight.as_ref().filter(|_| recorded);
        if let Some(f) = flight {
            f.reset();
        }
        self.sched.reset(flight.cloned());
        self.cancel.reset();
        for fifo in &self.fifos {
            fifo.clear();
        }
        for ((tb, sem), task) in self.tbs.iter().zip(&self.sems).zip(&mut self.tasks) {
            let start = starts[tb.rank][tb.tb_id];
            sem.reset(start);
            let task = task.get_mut().unwrap_or_else(PoisonError::into_inner);
            reset_task(tb, task, start);
        }
    }
}

/// Index of a space in the fixed-size per-space tables below.
pub(crate) fn space_slot(space: Space) -> usize {
    match space {
        Space::Data => 0,
        Space::Output => 1,
        Space::Scratch => 2,
    }
}

/// Per-space bitmap of `rank`'s chunks that the program provably fully
/// overwrites before ever reading — `[Data, Output, Scratch]`, indexed by
/// [`space_slot`].
///
/// A chunk qualifies when it is the destination of at least one
/// plain-overwrite instruction (`r`, `cpy`, `rcs` — each writes its full
/// destination chunks, since the tile loop spans `chunk_elems`) and
/// every read of it — source of any instruction, or destination of a
/// reduce-family instruction (read-modify-write) — is ordered *after*
/// one of those overwrites by the rank's own happens-before relation:
/// program order within a thread block plus the IR's cross-block dep
/// edges. Dep semaphore targets are per-tile (`tile * len + step + 1`),
/// and distinct tiles touch disjoint element ranges, so instruction-
/// level reachability is exactly the per-element guarantee. Orderings
/// that exist only through a cross-rank FIFO round trip are not modeled
/// — such chunks conservatively keep their re-zero.
///
/// Stale recycled data in a qualifying chunk is unobservable — output
/// extraction runs only after every instruction completed, failed runs
/// never extract, and epoch resume overwrites every space in full — so
/// [`RankMemory::recycled_skipping`](crate::RankMemory::recycled_skipping)
/// can keep it instead of re-zeroing. A pure function of the IR: the
/// plan runs it once per rank.
fn overwrite_only_chunks(ir: &IrProgram, collective: &Collective, rank: usize) -> [Vec<bool>; 3] {
    let gpu = ir.gpu(rank);
    let sizes = [
        collective.space_size(Space::Data).unwrap_or(0),
        collective.space_size(Space::Output).unwrap_or(0),
        gpu.scratch_chunks,
    ];
    // Flat node ids over the rank's instructions, in (tb, step) order.
    let mut offsets = Vec::with_capacity(gpu.threadblocks.len());
    let mut n = 0usize;
    for tb in &gpu.threadblocks {
        offsets.push(n);
        n += tb.instructions.len();
    }

    // Which nodes overwrite / read each chunk.
    let mut writes: [Vec<Vec<u32>>; 3] = sizes.map(|s| vec![Vec::new(); s]);
    let mut reads: [Vec<Vec<u32>>; 3] = sizes.map(|s| vec![Vec::new(); s]);
    for (t, tb) in gpu.threadblocks.iter().enumerate() {
        for (s, instr) in tb.instructions.iter().enumerate() {
            let node = (offsets[t] + s) as u32;
            let mark = |sets: &mut [Vec<Vec<u32>>; 3], loc: Option<mscclang::IrLoc>| {
                let Some(loc) = loc else { return };
                for i in 0..instr.count {
                    let (space, off) = collective.space_of(rank, loc.buffer, loc.index + i);
                    if let Some(list) = sets[space_slot(space)].get_mut(off) {
                        list.push(node);
                    }
                }
            };
            match instr.op {
                OpCode::Nop => {}
                OpCode::Recv | OpCode::RecvCopySend => mark(&mut writes, instr.dst),
                OpCode::Copy => {
                    mark(&mut reads, instr.src);
                    mark(&mut writes, instr.dst);
                }
                OpCode::Send | OpCode::RecvReduceSend => mark(&mut reads, instr.src),
                OpCode::Reduce => {
                    mark(&mut reads, instr.src);
                    mark(&mut reads, instr.dst);
                }
                OpCode::RecvReduceCopy | OpCode::RecvReduceCopySend => mark(&mut reads, instr.dst),
            }
        }
    }

    // Strict-ancestor bitsets via a topological sweep over program order
    // + dep edges. The graphs are tiny (a rank's instruction count), so
    // n²/64 words of bitset is nothing.
    let words = n.div_ceil(64).max(1);
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (t, tb) in gpu.threadblocks.iter().enumerate() {
        for (s, instr) in tb.instructions.iter().enumerate() {
            let node = offsets[t] + s;
            if s > 0 {
                preds[node].push((node - 1) as u32);
            }
            for d in &instr.deps {
                if gpu
                    .threadblocks
                    .get(d.tb)
                    .is_some_and(|db| d.step < db.instructions.len())
                {
                    preds[node].push((offsets[d.tb] + d.step) as u32);
                }
            }
        }
    }
    let mut indeg = vec![0u32; n];
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (v, ps) in preds.iter().enumerate() {
        indeg[v] = ps.len() as u32;
        for &p in ps {
            succs[p as usize].push(v as u32);
        }
    }
    let mut anc = vec![0u64; n * words];
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut processed = 0usize;
    let mut scratch = vec![0u64; words];
    while let Some(v) = queue.pop() {
        processed += 1;
        let v = v as usize;
        scratch.copy_from_slice(&anc[v * words..(v + 1) * words]);
        scratch[v / 64] |= 1 << (v % 64);
        for &u in &succs[v] {
            let u = u as usize;
            for (a, &b) in anc[u * words..(u + 1) * words].iter_mut().zip(&scratch) {
                *a |= b;
            }
            indeg[u] -= 1;
            if indeg[u] == 0 {
                queue.push(u as u32);
            }
        }
    }
    // A dep cycle (malformed hand-built IR — it could not execute anyway)
    // degrades to the sound special case: only never-read chunks skip.
    let acyclic = processed == n;
    let ordered_after_write = |r: u32, ws: &[u32]| -> bool {
        let base = r as usize * words;
        ws.iter()
            .any(|&w| anc[base + w as usize / 64] >> (w % 64) & 1 == 1)
    };

    let mut skip = sizes.map(|s| vec![false; s]);
    for slot in 0..3 {
        for off in 0..sizes[slot] {
            let (ws, rs) = (&writes[slot][off], &reads[slot][off]);
            skip[slot][off] = !ws.is_empty()
                && if acyclic {
                    rs.iter().all(|&r| ordered_after_write(r, ws))
                } else {
                    rs.is_empty()
                };
        }
    }
    skip
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscclang::{compile, CompileOptions};

    /// Recursive-doubling allgather(4): every chunk a rank *receives* is
    /// provably overwritten before any read of it. The round-2 send of
    /// the round-1 chunk reads it, but only behind the dep edge on the
    /// round-1 recv — the happens-before sweep must see through that
    /// edge instead of conservatively re-zeroing the chunk. The rank's
    /// own chunk is never elided (the input load covers it instead).
    #[test]
    fn rd_allgather_elides_every_received_chunk() {
        let p = msccl_algos::recursive_doubling_all_gather(4).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        for r in 0..4 {
            let skip = overwrite_only_chunks(&ir, &ir.collective, r);
            let want: Vec<bool> = (0..4).map(|c| c != r).collect();
            assert_eq!(skip[0], want, "rank {r} data-space elision");
        }
    }

    /// Ring allreduce reduces in place — every data chunk is the target
    /// of read-modify-write reduce steps with no prior overwrite, so
    /// nothing may skip its re-zero (the input load covers the chunks
    /// instead; this guards against the analysis ever treating a reduce
    /// destination as a plain overwrite).
    #[test]
    fn ring_allreduce_elides_nothing() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        for r in 0..4 {
            let skip = overwrite_only_chunks(&ir, &ir.collective, r);
            assert!(
                skip[0].iter().all(|&s| !s),
                "rank {r}: reduce-target chunks must keep their re-zero, got {:?}",
                skip[0]
            );
        }
    }

    /// Lowering resolves both endpoints of a connection to one index,
    /// names each key's possible waiters, and matches by content.
    #[test]
    fn lowering_wires_connections_waiters_and_matches_by_content() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let mut counters = PlanCounters::default();
        let mut plan = ExecPlan::build(&ir, 8, 2, &mut counters);
        assert_eq!(plan.tbs.len(), ir.num_threadblocks());
        assert_eq!(counters.tasks_built, ir.num_threadblocks() as u64);
        plan.scan_elision(&mut counters);
        plan.scan_elision(&mut counters);
        assert_eq!(counters.elision_scans, 4, "scanned once per rank, once");
        for tb in &plan.tbs {
            if let Some(c) = &tb.send {
                assert_eq!(plan.conns[c.idx], (tb.rank, c.peer, c.channel));
            }
            if let Some(c) = &tb.recv {
                assert_eq!(plan.conns[c.idx], (c.peer, tb.rank, c.channel));
            }
            for (i, src) in tb
                .instrs
                .iter()
                .zip(&ir.gpu(tb.rank).threadblocks[tb.tb_id].instructions)
            {
                assert_eq!(i.deps.len(), src.deps.len());
                for d in i.deps.iter() {
                    assert_eq!(plan.tbs[d.flat].rank, tb.rank);
                    assert_eq!(plan.tbs[d.flat].tb_id, d.tb);
                    assert_eq!(d.len, plan.tbs[d.flat].instrs.len() as u64);
                }
            }
        }
        // A clone at a different address hits; any content change,
        // a different slot count or pool size misses.
        let same = ir.clone();
        assert!(plan.matches(&same, 8, 2));
        assert!(!plan.matches(&same, 4, 2));
        assert!(!plan.matches(&same, 8, 1));
        let mut other = ir.clone();
        other.gpus[0].threadblocks[0].instructions[0].count += 1;
        assert!(!plan.matches(&other, 8, 2));
    }
}
