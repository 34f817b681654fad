//! The execution plan: everything about a run that is a function of the
//! program and of the pool shape, built once and held in the
//! [`ExecArena`](crate::ExecArena).
//!
//! The paper's runtime (§6) loads MSCCL-IR once at communicator init;
//! each collective call is then one launch of an already-resident
//! interpreter. [`ExecPlan`] is that load step. It lowers the IR into
//! per-thread-block instruction tables — operands resolved through the
//! collective's alias map, dependencies resolved to dense task indices —
//! numbered as [`mscclang::lower`] numbers blocks and connections, and
//! allocates what every
//! run needs in the same shape: FIFOs, semaphores, the tasks, the
//! scheduler with its queues and wait slots, the cancel token, and — each
//! on first use — metric handles and flight rings. One happens-before
//! sweep per rank (see [`sweep_rank`]) decides which reads take the
//! caller's input in place, which input chunks still have to be loaded
//! into rank memory, and which chunks a recycled memory may leave
//! un-zeroed. A run on a matching plan is [`ExecPlan::reset`], load what
//! the sweep left to load, interpret, extract.
//!
//! **The match rule** is by content, never by address: a plan keeps its
//! own copy of the IR and a hit requires `plan.ir == *ir`, the same
//! FIFO slot count (the only thing the protocol contributes to the
//! shape) and the same resolved worker-pool size. An arena holds the
//! plans of its [`ARENA_PLANS`](crate::ARENA_PLANS) most recently run
//! programs and checks them most recent first, so programs that
//! alternate in one arena each keep theirs, and an IR recompiled into a
//! new allocation — a daemon's cache entry evicted and rebuilt, or the
//! same program cached under several keys — still hits. Everything else
//! in [`RunOptions`](crate::RunOptions) — tile and chunk size, reduce
//! operator, timeouts, whether this run meters or records — is a
//! per-run scalar applied by `reset`, so alternating such options in one
//! arena keeps hitting.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mscclang::lower::Lowered;
use mscclang::{order, BufferKind, IrLoc, IrProgram, OpCode, Space};

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

/// Where a tile helper reads an operand from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Rank memory, from this location on.
    Memory(Loc),
    /// The caller's `inputs[rank]`, in place, from this input chunk on.
    Input(usize),
}

/// One instruction, lowered.
pub(crate) struct Instr {
    pub(crate) op: OpCode,
    pub(crate) count: usize,
    pub(crate) has_dep: bool,
    /// The rank-memory operands, resolved through the alias map.
    pub(crate) src: Option<Loc>,
    pub(crate) dst: Option<Loc>,
    /// Where the tile helpers read from: the `src` of `s`, `rrc`, `rrs`
    /// and `rrcs`. `None` for every other opcode (`cpy` and `re` read
    /// rank memory through `src`/`dst`).
    pub(crate) read: Option<Source>,
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
/// task's flat index: semaphore and metrics shard.
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
    /// Per-rank [`sweep_rank`] sweeps: one per rank per plan built.
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
    /// memory may keep stale (see [`sweep_rank`]). A throwaway plan's
    /// fresh memories are zero by construction and never ask.
    pub(crate) elide_zero: Vec<[Vec<bool>; 3]>,
    /// Per rank, where input chunk 0 lives.
    pub(crate) input_at: Vec<Loc>,
    /// Per rank, the runs of input chunks a run copies into rank memory
    /// before interpreting: those some read still takes from memory
    /// (see [`sweep_rank`]). Every other input chunk is read in place.
    pub(crate) input_loads: Vec<Vec<Range<usize>>>,
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
    /// `pool_threads` workers, or returns the error of
    /// [`IrProgram::check_structure`] on a program that fails it.
    pub(crate) fn build(
        ir: &IrProgram,
        num_slots: usize,
        pool_threads: usize,
        counters: &mut PlanCounters,
    ) -> mscclang::Result<Self> {
        let lowered = ir.check_structure()?;
        let collective = &ir.collective;
        let num_tasks = lowered.blocks().len();
        // Per task: the tasks with a dependency on its semaphore.
        let mut sem_waiters: Vec<Vec<usize>> = vec![Vec::new(); num_tasks];

        let num_ranks = ir.num_ranks();
        let input_at: Vec<Loc> = (0..num_ranks)
            .map(|r| Loc::of(collective, r, BufferKind::Input, 0))
            .collect();
        let sweeps: Vec<RankSweep> = (0..num_ranks).map(|r| sweep_rank(&lowered, r)).collect();
        counters.elision_scans += num_ranks as u64;

        let lower = |rank: usize, loc: Option<IrLoc>| {
            loc.map(|l| Loc::of(collective, rank, l.buffer, l.index))
        };
        let mut tbs = Vec::with_capacity(num_tasks);
        for (rank, sweep) in sweeps.iter().enumerate() {
            // The sweep's verdicts, in the same (tb, step) order.
            let mut sources = sweep.sources.iter();
            for flat in lowered.rank_blocks(rank) {
                let block = &lowered.blocks()[flat];
                let tb = block.tb;
                let conn_end = |idx: Option<usize>, peer: Option<usize>| {
                    let channel = tb.channel;
                    idx.zip(peer)
                        .map(|(idx, peer)| ConnEnd { peer, channel, idx })
                };
                let instrs = tb
                    .instructions
                    .iter()
                    .map(|i| Instr {
                        op: i.op,
                        count: i.count,
                        has_dep: i.has_dep,
                        src: lower(rank, i.src),
                        dst: lower(rank, i.dst),
                        read: *sources.next().expect("one verdict per instruction"),
                        deps: i
                            .deps
                            .iter()
                            .map(|d| {
                                let (dep_flat, _) = lowered.dep(rank, d);
                                if !sem_waiters[dep_flat].contains(&flat) {
                                    sem_waiters[dep_flat].push(flat);
                                }
                                Dep {
                                    flat: dep_flat,
                                    len: lowered.blocks()[dep_flat].steps().len() as u64,
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
                    send: conn_end(block.send, tb.send_peer),
                    recv: conn_end(block.recv, tb.recv_peer),
                    instrs,
                });
            }
        }
        let conns = lowered.conns().to_vec();
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

        counters.plans_built += 1;
        counters.tasks_built += tbs.len() as u64;
        let out_chunks = collective.out_chunks();
        let sched = Scheduler::new(pool_threads, tbs.len(), waiters);
        // Cancellation from anywhere wakes every parked worker at once.
        let cancel = CancelToken::new(Arc::clone(&sched.parker));
        let (elide_zero, input_loads) = sweeps
            .into_iter()
            .map(|s| (s.elide_zero, runs_of(&s.load)))
            .unzip();
        Ok(Self {
            ir: ir.clone(),
            num_slots,
            pool_threads,
            fifos: conns.iter().map(|_| Fifo::new(num_slots)).collect(),
            conns,
            elide_zero,
            input_at,
            input_loads,
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
        })
    }

    /// Gives back to the pool every tile a failed run stranded in the
    /// plan's FIFOs and task slots, before the plan is parked in its
    /// arena; `reset` does the rest when it runs next.
    pub(crate) fn release_tiles(&mut self) {
        for fifo in &self.fifos {
            fifo.clear();
        }
        for task in &mut self.tasks {
            task.get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .release_tiles();
        }
    }

    /// Whether any tile of the pool sits in the plan's FIFOs or tasks.
    pub(crate) fn holds_tiles(&self) -> bool {
        self.fifos.iter().any(|f| !f.is_empty())
            || self.tasks.iter().any(|t| {
                t.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .holds_tiles()
            })
    }

    /// Returns the reusable half of the plan to the state `build` left
    /// it in, whatever the previous run did to it — tiles stranded in
    /// FIFOs and task inboxes, tasks parked in wait slots, armed timers,
    /// a tripped cancel token — and applies this run's per-task
    /// parameters through `reset_task(tb, task)`.
    pub(crate) fn reset(
        &mut self,
        metered: bool,
        recorded: bool,
        mut reset_task: impl FnMut(&TbPlan, &mut TbTask),
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
            sem.reset();
            let task = task.get_mut().unwrap_or_else(PoisonError::into_inner);
            reset_task(tb, task);
        }
    }
}

/// What one happens-before sweep over a rank's instructions decides.
struct RankSweep {
    /// `[Data, Output, Scratch]` bitmaps, indexed by [`Space::index`], of
    /// chunks a recycled memory may keep stale instead of re-zeroing.
    elide_zero: [Vec<bool>; 3],
    /// Per instruction, in `(tb, step)` order: where its tile read comes
    /// from (see [`Instr::read`]).
    sources: Vec<Option<Source>>,
    /// Per input chunk: whether a run must still copy it into rank memory.
    load: Vec<bool>,
}

/// The one per-rank sweep of the plan: strict-ancestor bitsets over the
/// rank's happens-before relation — program order within a thread block
/// plus the IR's cross-block dep edges — and three verdicts read off
/// them. Dep semaphore targets are per tile (`tile * len + step + 1`),
/// and distinct tiles touch disjoint element ranges, so instruction-level
/// order is exactly per-element order. Orderings that exist only through
/// a cross-rank FIFO round trip are not modeled; every verdict below errs
/// towards the slower, always-sound choice when they would be needed. A
/// dep cycle (malformed hand-built IR that could not run anyway) keeps
/// every re-zero a read could observe, reads nothing in place and loads
/// every input chunk.
///
/// **Zero elision.** A chunk may skip its re-zero when it is the
/// destination of at least one plain overwrite (every writer but `re`,
/// which reads what it writes — each writes its full destination chunks,
/// since the tile loop spans `chunk_elems`) and every read of it is
/// ordered after one of those overwrites. Reads and writes are the core
/// operand rule, [`mscclang::IrInstruction::reads`] and `writes`.
///
/// **Reads in place.** A read of input chunk *c* by instruction X is
/// *pristine* when every other write W of *c* has X → W: no write of
/// those elements can precede X, so rank memory would hold exactly the
/// caller's input there. The `src` of `s`, `rrs`, `rrc` and `rrcs` then
/// reads `inputs[rank]` instead, when all `count` chunks of the operand
/// are pristine. `cpy` and `re` keep reading rank memory.
///
/// **The load.** Input chunk *c* is still copied into rank memory when
/// some read of it that does not take the input in place has no write
/// of *c* ordered before it, or when *c* lies in the rank's output range
/// and nothing writes it.
///
/// Stale recycled data in a chunk that skips its re-zero or its load is
/// unobservable: every read of it is preceded by a write or takes the
/// input; output extraction runs only after every instruction completed;
/// and failed runs never extract. A pure function of the IR.
fn sweep_rank(lowered: &Lowered, rank: usize) -> RankSweep {
    let ir = lowered.ir();
    let collective = &ir.collective;
    let gpu = ir.gpu(rank);
    let sizes = [
        collective.space_size(Space::Data).unwrap_or(0),
        collective.space_size(Space::Output).unwrap_or(0),
        gpu.scratch_chunks,
    ];
    // Node ids over the rank's instructions, in (tb, step) order.
    let graph = order::rank_graph(lowered, rank);
    let n = graph.node_count();

    // Per chunk, the nodes that write it (flagged when the write is a
    // plain overwrite) and the nodes that read it; per node, the operand
    // it may read in place.
    let mut writes: [Vec<Vec<(u32, bool)>>; 3] = sizes.map(|s| vec![Vec::new(); s]);
    let mut reads: [Vec<Vec<u32>>; 3] = sizes.map(|s| vec![Vec::new(); s]);
    let mut candidates: Vec<Option<(Loc, usize)>> = Vec::with_capacity(n);
    for instr in gpu.threadblocks.iter().flat_map(|tb| &tb.instructions) {
        let node = candidates.len() as u32;
        let chunks = |loc: Option<IrLoc>| {
            loc.into_iter().flat_map(move |l| {
                (0..instr.count).map(move |i| {
                    let (space, off) = collective.space_of(rank, l.buffer, l.index + i);
                    (space.index(), off)
                })
            })
        };
        // The tile helpers read the one read operand of an instruction that
        // moves a tile: the `src` of `s`, `rrs`, `rrc` and `rrcs`.
        let moves_tile = instr.op.has_send() || instr.op.has_recv();
        let tile_read = instr.op.reads().first().filter(|_| moves_tile);
        let tile_read = tile_read.and_then(|&o| instr.operand(o));
        candidates
            .push(tile_read.map(|l| (Loc::of(collective, rank, l.buffer, l.index), instr.count)));
        let read = instr.op.reads().iter().map(|&o| instr.operand(o));
        for (slot, off) in read.flat_map(chunks) {
            if let Some(list) = reads[slot].get_mut(off) {
                list.push(node);
            }
        }
        // A write of an operand the instruction does not also read is a
        // plain overwrite; `re` reads what it writes.
        if let Some(o) = instr.op.writes() {
            let overwrite = !instr.op.reads().contains(&o);
            for (slot, off) in chunks(instr.operand(o)) {
                if let Some(list) = writes[slot].get_mut(off) {
                    list.push((node, overwrite));
                }
            }
        }
    }

    // Strict-ancestor bitsets over a topological order of program order
    // + dep edges. The graphs are tiny (a rank's instruction count), so
    // n²/64 words of bitset is nothing.
    let words = n.div_ceil(64).max(1);
    let mut anc = vec![0u64; n * words];
    let topo = graph.topo_order();
    let acyclic = topo.is_ok();
    let mut scratch = vec![0u64; words];
    for &v in topo.as_deref().unwrap_or_default() {
        let v = v as usize;
        scratch.copy_from_slice(&anc[v * words..(v + 1) * words]);
        scratch[v / 64] |= 1 << (v % 64);
        for &u in graph.succs(v as u32) {
            let u = u as usize;
            for (a, &b) in anc[u * words..(u + 1) * words].iter_mut().zip(&scratch) {
                *a |= b;
            }
        }
    }
    // Whether `a` happens before `b`; whether some write in `ws` (only
    // plain overwrites, if `plain_only`) happens before read `r`.
    let before = |a: u32, b: u32| anc[b as usize * words + a as usize / 64] >> (a % 64) & 1 == 1;
    let written_before = |r: u32, ws: &[(u32, bool)], plain_only: bool| {
        ws.iter()
            .any(|&(w, plain)| (plain || !plain_only) && before(w, r))
    };

    let mut elide_zero = sizes.map(|s| vec![false; s]);
    for slot in 0..3 {
        for off in 0..sizes[slot] {
            let (ws, rs) = (&writes[slot][off], &reads[slot][off]);
            elide_zero[slot][off] = ws.iter().any(|&(_, plain)| plain)
                && if acyclic {
                    rs.iter().all(|&r| written_before(r, ws, true))
                } else {
                    rs.is_empty()
                };
        }
    }

    let input = Loc::of(collective, rank, BufferKind::Input, 0);
    let in_chunks = collective.in_chunks();
    let in_slot = input.space.index();
    let sources: Vec<Option<Source>> = candidates
        .iter()
        .enumerate()
        .map(|(x, candidate)| {
            let (loc, count) = (*candidate)?;
            let x = x as u32;
            let pristine = acyclic
                && loc.space == input.space
                && loc.chunk >= input.chunk
                && loc.chunk + count <= input.chunk + in_chunks
                && (loc.chunk..loc.chunk + count).all(|off| {
                    writes[in_slot][off]
                        .iter()
                        .all(|&(w, _)| w == x || before(x, w))
                });
            Some(if pristine {
                Source::Input(loc.chunk - input.chunk)
            } else {
                Source::Memory(loc)
            })
        })
        .collect();

    let output = Loc::of(collective, rank, BufferKind::Output, 0);
    let outputs = output.chunk..output.chunk + collective.out_chunks();
    let load = (input.chunk..input.chunk + in_chunks)
        .map(|off| {
            let (ws, rs) = (&writes[in_slot][off], &reads[in_slot][off]);
            !acyclic
                || (ws.is_empty() && output.space == input.space && outputs.contains(&off))
                || rs.iter().any(|&r| {
                    !matches!(sources[r as usize], Some(Source::Input(_)))
                        && !written_before(r, ws, false)
                })
        })
        .collect();
    RankSweep {
        elide_zero,
        sources,
        load,
    }
}

/// The maximal runs of `true` in `bits`, as index ranges.
fn runs_of(bits: &[bool]) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for i in (0..bits.len()).filter(|&i| bits[i]) {
        match runs.last_mut() {
            Some(run) if run.end == i => run.end += 1,
            _ => runs.push(i..i + 1),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscclang::{compile, Collective, CompileOptions};

    fn compiled(p: &mscclang::Program) -> IrProgram {
        compile(p, &CompileOptions::default()).unwrap()
    }

    /// Recursive-doubling allgather(4): every chunk a rank *receives* is
    /// provably overwritten before any read of it. The round-2 send of
    /// the round-1 chunk reads it, but only behind the dep edge on the
    /// round-1 recv — the happens-before sweep must see through that
    /// edge instead of conservatively re-zeroing the chunk. The rank's
    /// own chunk is never elided: it is input, and the sweep loads it.
    #[test]
    fn rd_allgather_elides_every_received_chunk() {
        let ir = compiled(&msccl_algos::recursive_doubling_all_gather(4).unwrap());
        for r in 0..4 {
            let skip = &sweep_rank(&Lowered::new(&ir).unwrap(), r).elide_zero;
            let want: Vec<bool> = (0..4).map(|c| c != r).collect();
            assert_eq!(skip[0], want, "rank {r} data-space elision");
        }
    }

    /// Ring allreduce reduces in place — every data chunk is the target
    /// of read-modify-write reduce steps with no prior overwrite, so
    /// nothing may skip its re-zero (this guards against the analysis
    /// ever treating a reduce destination as a plain overwrite).
    #[test]
    fn ring_allreduce_elides_nothing() {
        let ir = compiled(&msccl_algos::ring_all_reduce(4, 1).unwrap());
        for r in 0..4 {
            let skip = &sweep_rank(&Lowered::new(&ir).unwrap(), r).elide_zero;
            assert!(
                skip[0].iter().all(|&s| !s),
                "rank {r}: reduce-target chunks must keep their re-zero, got {:?}",
                skip[0]
            );
        }
    }

    /// Ring allreduce reads every input chunk exactly once, before any
    /// write of it, through a send, a receive-reduce-send or the final
    /// receive-reduce-copy-send: every such operand reads the caller's
    /// input in place and no chunk is loaded.
    #[test]
    fn ring_allreduce_loads_nothing_and_reads_the_input_in_place() {
        for ranks in [4, 16] {
            let ir = compiled(&msccl_algos::ring_all_reduce(ranks, 1).unwrap());
            let plan = ExecPlan::build(&ir, 8, 1, &mut PlanCounters::default()).unwrap();
            assert!(
                plan.input_loads.iter().all(Vec::is_empty),
                "ring({ranks}) loads {:?}",
                plan.input_loads
            );
            let mut readers = 0;
            for instr in plan.tbs.iter().flat_map(|tb| tb.instrs.iter()) {
                if let Some(read) = instr.read {
                    readers += 1;
                    assert!(
                        matches!(read, Source::Input(_)),
                        "ring({ranks}) {:?} reads {read:?}",
                        instr.op
                    );
                }
            }
            assert!(readers >= ranks * ranks, "ring({ranks}): {readers} readers");
        }
    }

    /// In-place recursive-doubling allgather: a rank's own chunk is
    /// output and nothing writes it, so it is the one chunk loaded.
    #[test]
    fn in_place_allgather_loads_exactly_its_own_chunk() {
        let ir = compiled(&msccl_algos::recursive_doubling_all_gather(8).unwrap());
        assert!(ir.collective.inplace());
        let plan = ExecPlan::build(&ir, 8, 1, &mut PlanCounters::default()).unwrap();
        let in_chunks = ir.collective.in_chunks();
        for loads in &plan.input_loads {
            assert_eq!(*loads, vec![0..in_chunks]);
        }
    }

    /// A two-rank allgather by hand: each rank copies its input chunk
    /// into its output, sends the input chunk to its peer, and receives
    /// the peer's chunk.
    fn copy_then_send_ir() -> IrProgram {
        use mscclang::ir::{IrGpu, IrInstruction, IrLoc, IrThreadBlock};
        let at = |buffer, index| Some(IrLoc { buffer, index });
        let instr = |step, op, src, dst| IrInstruction {
            step,
            op,
            src,
            dst,
            count: 1,
            deps: vec![],
            has_dep: false,
        };
        let gpu = |rank: usize| IrGpu {
            rank,
            input_chunks: 1,
            output_chunks: 2,
            scratch_chunks: 0,
            threadblocks: vec![IrThreadBlock {
                id: 0,
                send_peer: Some(1 - rank),
                recv_peer: Some(1 - rank),
                channel: 0,
                instructions: vec![
                    instr(
                        0,
                        OpCode::Copy,
                        at(BufferKind::Input, 0),
                        at(BufferKind::Output, rank),
                    ),
                    instr(1, OpCode::Send, at(BufferKind::Input, 0), None),
                    instr(2, OpCode::Recv, None, at(BufferKind::Output, 1 - rank)),
                ],
            }],
        };
        IrProgram {
            name: "copy-then-send".into(),
            collective: Collective::all_gather(2, 1, false),
            protocol: None,
            num_channels: 1,
            refinement: 1,
            gpus: vec![gpu(0), gpu(1)],
            epoch_cuts: vec![],
        }
    }

    /// A `cpy` reading an input chunk before any write of it keeps the
    /// chunk loaded; the `s` of the same chunk still reads in place.
    #[test]
    fn copy_of_an_unwritten_input_chunk_keeps_it_loaded() {
        let ir = copy_then_send_ir();
        let plan = ExecPlan::build(&ir, 8, 1, &mut PlanCounters::default()).unwrap();
        for (r, tb) in plan.tbs.iter().enumerate() {
            assert_eq!(plan.input_loads[r], vec![0..1], "rank {r}");
            assert_eq!(tb.instrs[0].read, None, "cpy reads through src");
            assert_eq!(tb.instrs[1].read, Some(Source::Input(0)));
        }
        let inputs = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let outputs = crate::execute(&ir, &inputs, 2, &crate::RunOptions::default()).unwrap();
        assert_eq!(outputs, vec![vec![1.0, 2.0, 3.0, 4.0]; 2]);
    }

    /// `rrc` reduces the received tile with its `src` and writes `dst`,
    /// as the verifier and the compiler read it, even when the two name
    /// different chunks: rank 1 receives rank 0's `10` and adds its own
    /// input `1` into an output chunk that starts at zero.
    #[test]
    fn rrc_reduces_its_src_into_its_dst() {
        use mscclang::ir::{IrGpu, IrInstruction, IrLoc, IrThreadBlock};
        let at = |buffer, index| Some(IrLoc { buffer, index });
        let instr = |op, src, dst| IrInstruction {
            step: 0,
            op,
            src,
            dst,
            count: 1,
            deps: vec![],
            has_dep: false,
        };
        let gpu = |rank: usize, send_peer, recv_peer, instruction| IrGpu {
            rank,
            input_chunks: 1,
            output_chunks: 2,
            scratch_chunks: 0,
            threadblocks: vec![IrThreadBlock {
                id: 0,
                send_peer,
                recv_peer,
                channel: 0,
                instructions: vec![instruction],
            }],
        };
        let ir = IrProgram {
            name: "rrc-src".into(),
            collective: Collective::all_gather(2, 1, false),
            protocol: None,
            num_channels: 1,
            refinement: 1,
            gpus: vec![
                gpu(
                    0,
                    Some(1),
                    None,
                    instr(OpCode::Send, at(BufferKind::Input, 0), None),
                ),
                gpu(
                    1,
                    None,
                    Some(0),
                    instr(
                        OpCode::RecvReduceCopy,
                        at(BufferKind::Input, 0),
                        at(BufferKind::Output, 0),
                    ),
                ),
            ],
            epoch_cuts: vec![],
        };
        let inputs = vec![vec![10.0], vec![1.0]];
        let outputs = crate::execute(&ir, &inputs, 1, &crate::RunOptions::default()).unwrap();
        assert_eq!(outputs[1], vec![11.0, 0.0]);
    }

    /// A dep cycle has no happens-before order to argue from: every
    /// input chunk is loaded and nothing reads in place.
    #[test]
    fn dep_cycle_loads_everything() {
        let mut ir = copy_then_send_ir();
        for g in &mut ir.gpus {
            g.threadblocks[0].instructions[0].deps = vec![mscclang::ir::IrDep { tb: 0, step: 2 }];
        }
        for r in 0..2 {
            let sweep = sweep_rank(&Lowered::new(&ir).unwrap(), r);
            assert_eq!(sweep.load, vec![true], "rank {r}");
            let in_place = |s: &Option<Source>| matches!(s, Some(Source::Input(_)));
            assert!(!sweep.sources.iter().any(in_place), "rank {r}");
        }
    }

    /// Lowering resolves both endpoints of a connection to one index,
    /// names each key's possible waiters, and matches by content.
    #[test]
    fn lowering_wires_connections_waiters_and_matches_by_content() {
        let p = msccl_algos::ring_all_reduce(4, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let mut counters = PlanCounters::default();
        let plan = ExecPlan::build(&ir, 8, 2, &mut counters).unwrap();
        assert_eq!(plan.tbs.len(), ir.num_threadblocks());
        assert_eq!(counters.tasks_built, ir.num_threadblocks() as u64);
        assert_eq!(counters.elision_scans, 4, "one sweep per rank");
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
