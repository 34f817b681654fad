//! IR verification by symbolic execution (§3.2, §5.2).
//!
//! The verifier executes a compiled [`IrProgram`] over symbolic
//! [`ChunkValue`]s with the runtime's real synchronization semantics:
//!
//! * connections are bounded FIFOs of `s` slots — a sender blocks when all
//!   slots are full, a receiver blocks on an empty queue;
//! * cross-thread-block dependencies block until the referenced
//!   instruction completes (semaphores);
//! * thread blocks execute their instruction lists sequentially.
//!
//! On top of functional correctness (every constrained output chunk ends
//! with exactly the input/reduction chunk the collective's postcondition
//! demands), the verifier detects:
//!
//! * **deadlock** — no thread block can make progress;
//! * **data races** — two accesses to one chunk location, at least one a
//!   write, unordered by the happens-before relation (tracked with vector
//!   clocks over thread blocks, where send/recv pairs, FIFO slot reuse and
//!   semaphore waits all induce ordering);
//! * **uninitialized reads** at the instruction level.

use std::collections::{BTreeMap, VecDeque};

use crate::buffer::BufferKind;
use crate::chunk::ChunkValue;
use crate::collective::Space;
use crate::error::{Error, Result};
use crate::ir::{IrLoc, IrProgram, StepValue};
use crate::lower::Lowered;

/// Options for verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// FIFO slots per connection (NCCL allows 1 ≤ s ≤ 8).
    pub slots: usize,
    /// Whether to run vector-clock race detection. It costs a vector
    /// clock per thread block, joined at every receive and dependency and
    /// copied into every message, plus a last-writer and reader record per
    /// chunk location: it about doubles verification time on the registry
    /// algorithms at 16–64 ranks. Without it, no clock is kept.
    pub check_races: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            slots: 8,
            check_races: true,
        }
    }
}

/// Statistics from a successful verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Instructions executed across all thread blocks.
    pub instructions_executed: usize,
    /// Total thread blocks.
    pub threadblocks: usize,
    /// Deepest any connection FIFO got.
    pub max_queue_depth: usize,
    /// Scheduler rounds needed (a rough parallelism measure: lower is more
    /// parallel).
    pub rounds: usize,
}

/// A vector clock over the global thread block numbers, kept sparse:
/// `(tb, component)` pairs sorted by `tb`, an absent component being zero.
/// A block's clock names only the blocks it has heard from, directly or
/// through others, so the clocks of a program whose blocks talk to few
/// others stay short however many blocks it has.
#[derive(Clone, Default)]
struct Clock(Vec<(u32, u32)>);

fn tb_id(tb: usize) -> u32 {
    u32::try_from(tb).expect("fewer than 2^32 thread blocks")
}

impl Clock {
    /// The component of thread block `tb`.
    fn get(&self, tb: usize) -> u32 {
        let tb = tb_id(tb);
        self.0
            .binary_search_by_key(&tb, |&(t, _)| t)
            .map_or(0, |i| self.0[i].1)
    }

    /// Advances thread block `tb`'s own component by one.
    fn tick(&mut self, tb: usize) {
        let tb = tb_id(tb);
        match self.0.binary_search_by_key(&tb, |&(t, _)| t) {
            Ok(i) => self.0[i].1 += 1,
            Err(i) => self.0.insert(i, (tb, 1)),
        }
    }

    /// Raises every component to at least `other`'s, merging in place:
    /// one forward pass raises the shared components and counts the new
    /// ones, then, if there are any, one backward pass moves the entries
    /// up to interleave them.
    fn join(&mut self, other: &Clock) {
        let (a, b) = (&mut self.0, &other.0);
        let mut new = 0;
        let mut i = 0;
        for &(t, c) in b {
            while i < a.len() && a[i].0 < t {
                i += 1;
            }
            if i < a.len() && a[i].0 == t {
                a[i].1 = a[i].1.max(c);
                i += 1;
            } else {
                new += 1;
            }
        }
        if new == 0 {
            return;
        }
        let mut i = a.len();
        a.resize(i + new, (0, 0));
        let mut k = a.len();
        for &(t, c) in b.iter().rev() {
            while i > 0 && a[i - 1].0 > t {
                i -= 1;
                k -= 1;
                a[k] = a[i];
            }
            k -= 1;
            if i > 0 && a[i - 1].0 == t {
                i -= 1;
                a[k] = a[i];
            } else {
                a[k] = (t, c);
            }
        }
        // Every new entry is placed, so the entries below are in place.
        debug_assert_eq!(i, k);
    }
}

struct Message {
    values: Vec<ChunkValue>,
    clock: Clock,
}

#[derive(Default)]
struct Connection {
    queue: VecDeque<Message>,
    /// Receiver clocks at the latest `slots` pops, the p-th at
    /// `p % slots`, for modelling FIFO slot reuse: the k-th send
    /// happens-after the (k - slots)-th pop. A send is admitted only while
    /// fewer than `slots` messages are queued, so that pop is always one of
    /// the latest `slots`. A pop no later send waits on stores nothing.
    pop_clocks: Vec<Clock>,
    pops: usize,
    sends: usize,
    /// Sends the program issues on this connection in total.
    planned_sends: usize,
}

#[derive(Default, Clone)]
struct LocAccess {
    /// Last writer: (global tb, that tb's clock component at write time).
    write: Option<(usize, u32)>,
    /// Reads since the last write: per tb, the max component.
    reads: Vec<(usize, u32)>,
}

/// Verifies a compiled program; see the [module docs](self).
///
/// All state is indexed by dense integers: buffers and race tables by
/// `(`[`Space::slot`]`, offset)`, thread blocks, steps and connections by
/// their [`Lowered`] ids. Which operands an instruction reads and writes
/// is [`IrInstruction::reads`](crate::IrInstruction::reads)/
/// [`writes`](crate::IrInstruction::writes). Clock snapshots are kept only
/// for the steps some dependency names, and no clock at all without race
/// detection.
///
/// # Errors
///
/// Returns [`Error::Verification`] describing the first deadlock, data
/// race, uninitialized read, out-of-range operand or postcondition
/// mismatch, or a program [`Lowered::new`] cannot index.
pub fn check(ir: &IrProgram, opts: &VerifyOptions) -> Result<VerifyReport> {
    if opts.slots == 0 {
        return Err(Error::Verification {
            message: "slots must be at least 1".to_owned(),
        });
    }
    let lowered = Lowered::new(ir)?;
    check_epoch_cuts(ir)?;
    let collective = &ir.collective;
    let num_ranks = ir.num_ranks();
    let slots = opts.slots;
    let races = opts.check_races;

    // ---- Buffers and race tables, one per (rank, space).
    let mut spaces: Vec<Vec<ChunkValue>> = Vec::with_capacity(num_ranks * Space::ALL.len());
    for rank in 0..num_ranks {
        let data_size = collective.space_size(Space::Data).unwrap_or(0);
        let mut data = vec![ChunkValue::Uninit; data_size];
        for index in 0..collective.in_chunks() {
            let (space, off) = collective.space_of(rank, BufferKind::Input, index);
            debug_assert_eq!(space, Space::Data);
            data[off] = collective.precondition(rank, index);
        }
        spaces.push(data);
        let out_size = collective.space_size(Space::Output).unwrap_or(0);
        spaces.push(vec![ChunkValue::Uninit; out_size]);
        spaces.push(vec![ChunkValue::Uninit; ir.gpu(rank).scratch_chunks]);
    }
    let mut accesses: Vec<Vec<LocAccess>> = if races {
        spaces
            .iter()
            .map(|s| vec![LocAccess::default(); s.len()])
            .collect()
    } else {
        Vec::new()
    };

    // ---- Thread blocks, steps and connections in the lowered numbering,
    // and the steps some dependency waits on.
    let blocks = lowered.blocks();
    let num_tbs = blocks.len();
    let mut conns: Vec<Connection> = lowered
        .conns()
        .iter()
        .map(|_| Connection::default())
        .collect();
    let mut referenced = vec![false; lowered.num_steps()];
    for b in blocks {
        // A connection's one sender block plans all its sends.
        if let Some(conn) = b.send.map(|c| &mut conns[c]) {
            conn.planned_sends = b.tb.instructions.iter().filter(|i| i.op.has_send()).count();
            if races && conn.planned_sends > slots {
                conn.pop_clocks = vec![Clock::default(); slots];
            }
        }
        for d in b.tb.instructions.iter().flat_map(|i| &i.deps) {
            referenced[lowered.dep(b.rank, d).1] = true;
        }
    }

    let mut pcs = vec![0usize; num_tbs];
    // Data a fused instruction has already popped from its receive FIFO
    // while waiting for a free send slot: the runtime holds such values in
    // registers, freeing the upstream slot immediately (otherwise rings of
    // fused instructions would deadlock at low slot counts).
    let mut pending: Vec<Option<Vec<ChunkValue>>> = (0..num_tbs).map(|_| None).collect();
    let mut clocks: Vec<Clock> = vec![Clock::default(); num_tbs];
    // Clock after each completed step that some dependency references,
    // for semaphore joins.
    let mut snapshots: Vec<Option<Clock>> = vec![None; lowered.num_steps()];

    let mut max_queue_depth = 0usize;
    let mut executed = 0usize;
    let mut rounds = 0usize;
    // Resolved `(space slot, offset)` locations of one instruction's
    // operands, indexed by `Operand`.
    let mut locs: [Vec<(usize, usize)>; 2] = Default::default();

    let resolve = |out: &mut Vec<(usize, usize)>, rank: usize, loc: IrLoc, count: usize| {
        out.clear();
        out.extend((0..count).map(|i| {
            let (space, off) = collective.space_of(rank, loc.buffer, loc.index + i);
            (space.slot(rank), off)
        }));
    };

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for g in 0..num_tbs {
            let (rank, tb) = (blocks[g].rank, blocks[g].tb);
            let pc = pcs[g];
            if pc >= tb.instructions.len() {
                continue;
            }
            all_done = false;
            let instr = &tb.instructions[pc];
            let fail = |what: String| Error::Verification {
                message: format!("rank {rank} tb {} step {pc}: {what}", tb.id),
            };

            let rule = instr.op.rule();
            let reads = instr.op.reads();

            // --- Readiness checks (no side effects).
            let deps_ready = instr
                .deps
                .iter()
                .all(|d| pcs[lowered.dep(rank, d).0] > d.step);
            if !deps_ready {
                continue;
            }
            let needs_pop = rule.recv && pending[g].is_none();
            if needs_pop {
                let c = blocks[g].recv.expect("lowering checked");
                if conns[c].queue.is_empty() {
                    continue;
                }
            }
            // Pop the incoming message first; if the send side is still
            // blocked, hold the data (registers) and retry later — the
            // upstream slot is freed either way.
            let pop_message =
                |conns: &mut Vec<Connection>, clocks: &mut Vec<Clock>| -> Result<Vec<ChunkValue>> {
                    let conn = &mut conns[blocks[g].recv.expect("checked")];
                    let msg = conn.queue.pop_front().expect("checked non-empty");
                    if races {
                        if conn.pops + slots < conn.planned_sends {
                            conn.pop_clocks[conn.pops % slots].clone_from(&clocks[g]);
                        }
                        clocks[g].join(&msg.clock);
                    }
                    conn.pops += 1;
                    if msg.values.len() != instr.count {
                        return Err(fail(format!(
                            "received {} chunks, expected {}",
                            msg.values.len(),
                            instr.count
                        )));
                    }
                    Ok(msg.values)
                };
            if rule.send {
                let c = blocks[g].send.expect("lowering checked");
                if conns[c].queue.len() >= slots {
                    if needs_pop {
                        pending[g] = Some(pop_message(&mut conns, &mut clocks)?);
                        progressed = true;
                    }
                    continue;
                }
            }

            // --- Execute.
            // Join semaphore clocks.
            if races {
                for d in &instr.deps {
                    let snap = snapshots[lowered.dep(rank, d).1]
                        .as_ref()
                        .expect("referenced step completed");
                    clocks[g].join(snap);
                }
            }

            // Receive, if any (possibly already popped while blocked).
            let received: Option<Vec<ChunkValue>> = if rule.recv {
                match pending[g].take() {
                    Some(values) => Some(values),
                    None => Some(pop_message(&mut conns, &mut clocks)?),
                }
            } else {
                None
            };

            // Local operands, by the operand rule: the ones read, then the
            // one written. Reads are bounds-checked here, so `src(i)` and,
            // for Reduce, `dst(i)` index directly; a write out of range is
            // reported when it is applied.
            let written = instr.op.writes().filter(|o| !reads.contains(o));
            for (i, &o) in reads.iter().chain(&written).enumerate() {
                let loc = instr
                    .operand(o)
                    .ok_or_else(|| fail(format!("missing {o}")))?;
                let out = &mut locs[o as usize];
                resolve(out, rank, loc, instr.count);
                let read = i < reads.len();
                if read && out.iter().any(|&(slot, off)| off >= spaces[slot].len()) {
                    return Err(fail(format!("{o} index out of bounds")));
                }
            }
            let [src_locs, dst_locs] = &locs;
            let src = |i: usize| &spaces[src_locs[i].0][src_locs[i].1];
            let dst = |i: usize| &spaces[dst_locs[i].0][dst_locs[i].1];

            // Compute the instruction's result values.
            let uninit = |what: &str| Error::Verification {
                message: format!(
                    "rank {rank} tb {} step {pc} ({}): {what}",
                    tb.id,
                    instr.op.mnemonic()
                ),
            };
            let mut received = received.into_iter().flatten();
            let mut results = Vec::with_capacity(instr.count);
            for i in 0..instr.count {
                results.push(match rule.value {
                    StepValue::None => ChunkValue::Uninit,
                    StepValue::Src => {
                        let v = src(i);
                        if !v.is_initialized() {
                            return Err(uninit("reads uninitialized data"));
                        }
                        v.clone()
                    }
                    StepValue::Received => received.next().expect("received"),
                    StepValue::SrcOpReceived => src(i)
                        .reduce(&received.next().expect("received"))
                        .ok_or_else(|| uninit("reduces uninitialized data"))?,
                    StepValue::DstOpSrc => dst(i)
                        .reduce(src(i))
                        .ok_or_else(|| uninit("reduces uninitialized data"))?,
                });
            }

            // --- Race bookkeeping.
            if races {
                let clock = &clocks[g];
                let me = clock.get(g);
                let race = |kind: &str, (slot, off): (usize, usize)| {
                    Err::<(), Error>(Error::Verification {
                        message: format!(
                            "data race ({kind}) on rank {rank} {} chunk {off} at tb {} step {pc}",
                            Space::ALL[slot % Space::ALL.len()],
                            tb.id
                        ),
                    })
                };
                // Reads, in operand order; every one was just read, so it
                // is in range.
                for &key in reads.iter().flat_map(|&o| &locs[o as usize]) {
                    let acc = &mut accesses[key.0][key.1];
                    if let Some((wt, wc)) = acc.write {
                        if clock.get(wt) < wc {
                            race("read-write", key)?;
                        }
                    }
                    match acc.reads.iter_mut().find(|(t, _)| *t == g) {
                        Some((_, c)) => *c = (*c).max(me + 1),
                        None => acc.reads.push((g, me + 1)),
                    }
                }
                // Writes. An out-of-range one is reported by the write
                // below; no access before it can have touched that chunk.
                if let Some(o) = instr.op.writes() {
                    for &key in &locs[o as usize] {
                        let Some(acc) = accesses[key.0].get_mut(key.1) else {
                            continue;
                        };
                        if let Some((wt, wc)) = acc.write {
                            if clock.get(wt) < wc {
                                race("write-write", key)?;
                            }
                        }
                        for &(rt, rc) in &acc.reads {
                            if rt != g && clock.get(rt) < rc {
                                race("write-read", key)?;
                            }
                        }
                        acc.write = Some((g, me + 1));
                        acc.reads.clear();
                    }
                }
            }

            // --- Apply local write; the values move into the buffer unless
            // they are also sent.
            if let Some(o) = instr.op.writes() {
                for (&(slot, off), v) in locs[o as usize].iter().zip(&mut results) {
                    let chunk = spaces[slot]
                        .get_mut(off)
                        .ok_or_else(|| fail("dst index out of bounds".to_owned()))?;
                    *chunk = if rule.send {
                        v.clone()
                    } else {
                        std::mem::replace(v, ChunkValue::Uninit)
                    };
                }
            }

            // --- Send, if any.
            if rule.send {
                let conn = &mut conns[blocks[g].send.expect("checked")];
                // FIFO slot reuse ordering: the k-th send happens after the
                // (k - slots)-th pop.
                if races && conn.sends >= slots {
                    clocks[g].join(&conn.pop_clocks[(conn.sends - slots) % slots]);
                }
                conn.sends += 1;
                conn.queue.push_back(Message {
                    values: results,
                    clock: if races {
                        clocks[g].clone()
                    } else {
                        Clock::default()
                    },
                });
                max_queue_depth = max_queue_depth.max(conn.queue.len());
            }

            // --- Complete.
            if races {
                clocks[g].tick(g);
                let step = blocks[g].first_step + pc;
                if referenced[step] {
                    snapshots[step] = Some(clocks[g].clone());
                }
            }
            pcs[g] += 1;
            executed += 1;
            progressed = true;
        }
        rounds += 1;
        if all_done {
            break;
        }
        if !progressed {
            // Deadlock: describe every blocked thread block.
            let lines: Vec<String> = (blocks.iter().zip(&pcs))
                .filter_map(|(b, &pc)| {
                    let op = b.tb.instructions.get(pc)?.op.mnemonic();
                    Some(format!(
                        "rank {} tb {} blocked at step {pc} ({op})",
                        b.rank, b.tb.id
                    ))
                })
                .collect();
            return Err(Error::Verification {
                message: format!("deadlock: {}", lines.join("; ")),
            });
        }
    }

    // ---- Unconsumed messages indicate a miscompile.
    for (conn, &(s, d, ch)) in conns.iter().zip(lowered.conns()) {
        if !conn.queue.is_empty() {
            return Err(Error::Verification {
                message: format!(
                    "connection ({s} -> {d}, ch {ch}) finished with {} unconsumed messages",
                    conn.queue.len()
                ),
            });
        }
    }

    // ---- Postcondition.
    for rank in 0..num_ranks {
        for index in 0..collective.out_chunks() {
            let Some(expected) = collective.postcondition(rank, index) else {
                continue;
            };
            let (space, off) = collective.space_of(rank, BufferKind::Output, index);
            let actual = &spaces[space.slot(rank)][off];
            if actual != expected {
                return Err(Error::Verification {
                    message: format!(
                        "postcondition violated: rank {rank} output chunk {index} holds {actual}, expected {expected}"
                    ),
                });
            }
        }
    }

    Ok(VerifyReport {
        instructions_executed: executed,
        threadblocks: num_tbs,
        max_queue_depth,
        rounds,
    })
}

/// Symbolically checks that `cut` is a consistent epoch frontier of `ir`:
/// no send crosses it in flight (on every connection, sends before the
/// cut equal receives before the cut, so every FIFO is empty at the cut)
/// and no semaphore wait spans it (every dependency of an instruction
/// before the cut is itself before the cut). See
/// [`crate::passes::epochs`].
///
/// # Errors
///
/// Returns [`Error::Verification`] naming the first dependency crossing
/// the cut or, failing that, the first connection in `(src, dst,
/// channel)` order left with an in-flight message.
pub fn check_epoch_cut(ir: &IrProgram, cut: &crate::ir::EpochCut) -> Result<()> {
    let fail = |message: String| Err(Error::Verification { message });
    if cut.watermarks.len() != ir.gpus.len() {
        return fail(format!(
            "epoch cut covers {} ranks, program has {}",
            cut.watermarks.len(),
            ir.gpus.len()
        ));
    }
    // In-flight messages: count sends and receives before the cut on each
    // connection; any imbalance is a message crossing the frontier (or a
    // receive waiting on one).
    let mut balance: BTreeMap<(usize, usize, usize), (usize, usize)> = BTreeMap::new();
    for (r, gpu) in ir.gpus.iter().enumerate() {
        let marks = &cut.watermarks[r];
        if marks.len() != gpu.threadblocks.len() {
            return fail(format!(
                "epoch cut rank {r}: {} watermarks for {} thread blocks",
                marks.len(),
                gpu.threadblocks.len()
            ));
        }
        for (tb, &w) in gpu.threadblocks.iter().zip(marks) {
            if w > tb.instructions.len() {
                return fail(format!(
                    "epoch cut rank {r} tb {}: watermark {w} beyond {} instructions",
                    tb.id,
                    tb.instructions.len()
                ));
            }
            for instr in &tb.instructions[..w] {
                if instr.op.has_send() {
                    let key = (r, tb.send_peer.expect("structure checked"), tb.channel);
                    balance.entry(key).or_default().0 += 1;
                }
                if instr.op.has_recv() {
                    let key = (tb.recv_peer.expect("structure checked"), r, tb.channel);
                    balance.entry(key).or_default().1 += 1;
                }
                // Quiesced semaphores: every producer this instruction
                // waited on must also be before the cut.
                for d in &instr.deps {
                    if cut.watermarks[r][d.tb] < d.step + 1 {
                        return fail(format!(
                            "epoch cut rank {r} tb {} step {}: dependency on tb {} step {} \
                             crosses the cut",
                            tb.id, instr.step, d.tb, d.step
                        ));
                    }
                }
            }
        }
    }
    for ((s, d, ch), (sends, recvs)) in &balance {
        if sends != recvs {
            return fail(format!(
                "epoch cut leaves connection ({s} -> {d}, ch {ch}) with {sends} sends \
                 but {recvs} receives: a message is in flight across the cut"
            ));
        }
    }
    Ok(())
}

/// Checks every epoch cut annotated on `ir` with [`check_epoch_cut`].
///
/// # Errors
///
/// Returns [`Error::Verification`] for the first inconsistent cut.
pub fn check_epoch_cuts(ir: &IrProgram) -> Result<()> {
    for (i, cut) in ir.epoch_cuts.iter().enumerate() {
        check_epoch_cut(ir, cut).map_err(|e| Error::Verification {
            message: format!("epoch cut {i}: {e}"),
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::collective::Collective;
    use crate::compile::{compile, CompileOptions};
    use crate::ir::{IrDep, IrGpu, IrInstruction, IrLoc, IrProgram, IrThreadBlock, OpCode};
    use crate::program::Program;

    fn no_verify() -> CompileOptions {
        CompileOptions::default().with_verify(false)
    }

    fn ring_allreduce(n: usize) -> Program {
        let mut p = Program::new("ring_allreduce", Collective::all_reduce(n, n, true));
        for r in 0..n {
            let mut c = p.chunk((r + 1) % n, BufferKind::Input, r, 1).unwrap();
            for step in 1..n {
                let next = (r + 1 + step) % n;
                let dst = p.chunk(next, BufferKind::Input, r, 1).unwrap();
                c = p.reduce(&dst, &c).unwrap();
            }
            for step in 0..(n - 1) {
                let next = (r + 1 + step) % n;
                c = p.copy(&c, next, BufferKind::Input, r).unwrap();
            }
        }
        p
    }

    #[test]
    fn verifies_ring_allreduce() {
        let ir = compile(&ring_allreduce(4), &no_verify()).unwrap();
        let report = check(&ir, &VerifyOptions::default()).unwrap();
        assert_eq!(report.instructions_executed, ir.num_instructions());
        assert!(report.max_queue_depth >= 1);
    }

    #[test]
    fn verifies_with_single_slot() {
        let ir = compile(&ring_allreduce(3), &no_verify()).unwrap();
        let report = check(
            &ir,
            &VerifyOptions {
                slots: 1,
                check_races: true,
            },
        )
        .unwrap();
        assert_eq!(report.max_queue_depth, 1);
    }

    #[test]
    fn detects_postcondition_violation() {
        // An AllGather program labelled as AllReduce.
        let mut p = Program::new("wrong", Collective::all_reduce(2, 1, true));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c, 1, BufferKind::Input, 0).unwrap();
        let ir = compile(&p, &no_verify()).unwrap();
        let err = check(&ir, &VerifyOptions::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("postcondition"), "got: {msg}");
    }

    /// Hand-builds an IR with two thread blocks whose sends/receives cross
    /// in opposite order on the same connection pair — a deadlock.
    #[test]
    fn detects_deadlock() {
        let collective = Collective::all_gather(2, 1, false);
        let send = |step: usize| IrInstruction {
            step,
            op: OpCode::Send,
            src: Some(IrLoc {
                buffer: BufferKind::Input,
                index: 0,
            }),
            dst: None,
            count: 1,
            deps: vec![],
            has_dep: false,
        };
        let recv = |step: usize, index: usize| IrInstruction {
            step,
            op: OpCode::Recv,
            src: None,
            dst: Some(IrLoc {
                buffer: BufferKind::Output,
                index,
            }),
            count: 1,
            deps: vec![IrDep { tb: 0, step: 0 }],
            has_dep: false,
        };
        // Rank 0: tb0 waits for a dep that only fires after tb1's recv, but
        // tb1's recv waits on rank1's send which waits on... simplest: each
        // rank only receives, nobody sends.
        let gpu = |rank: usize, peer: usize| IrGpu {
            rank,
            input_chunks: 1,
            output_chunks: 2,
            scratch_chunks: 0,
            threadblocks: vec![IrThreadBlock {
                id: 0,
                send_peer: Some(peer),
                recv_peer: Some(peer),
                channel: 0,
                instructions: vec![
                    {
                        let mut r = recv(0, peer);
                        r.deps.clear();
                        r
                    },
                    send(1),
                ],
            }],
        };
        let ir = IrProgram {
            name: "deadlock".into(),
            collective,
            protocol: None,
            num_channels: 1,
            refinement: 1,
            gpus: vec![gpu(0, 1), gpu(1, 0)],
            epoch_cuts: vec![],
        };
        ir.check_structure().unwrap();
        let err = check(&ir, &VerifyOptions::default()).unwrap_err();
        assert!(err.to_string().contains("deadlock"), "got: {err}");
    }

    /// A write unordered with a concurrent read on another thread block is
    /// reported as a race.
    #[test]
    fn detects_data_race() {
        let collective = Collective::all_gather(2, 1, false);
        // Rank 0: tb0 copies input->output[0]; tb1 copies input->output[0]
        // too, with no ordering between them: WAW race.
        let copy = IrInstruction {
            step: 0,
            op: OpCode::Copy,
            src: Some(IrLoc {
                buffer: BufferKind::Input,
                index: 0,
            }),
            dst: Some(IrLoc {
                buffer: BufferKind::Output,
                index: 0,
            }),
            count: 1,
            deps: vec![],
            has_dep: false,
        };
        let gpus = vec![
            IrGpu {
                rank: 0,
                input_chunks: 1,
                output_chunks: 2,
                scratch_chunks: 0,
                threadblocks: vec![
                    IrThreadBlock {
                        id: 0,
                        send_peer: None,
                        recv_peer: None,
                        channel: 0,
                        instructions: vec![copy.clone()],
                    },
                    IrThreadBlock {
                        id: 1,
                        send_peer: None,
                        recv_peer: None,
                        channel: 0,
                        instructions: vec![copy],
                    },
                ],
            },
            IrGpu {
                rank: 1,
                input_chunks: 1,
                output_chunks: 2,
                scratch_chunks: 0,
                threadblocks: vec![],
            },
        ];
        let ir = IrProgram {
            name: "race".into(),
            collective,
            protocol: None,
            num_channels: 1,
            refinement: 1,
            gpus,
            epoch_cuts: vec![],
        };
        let err = check(&ir, &VerifyOptions::default()).unwrap_err();
        assert!(err.to_string().contains("race"), "got: {err}");
    }

    /// Hand-built IR whose sender transmits chunks in the opposite order
    /// the receiver stores them: FIFO pairing puts the wrong values in the
    /// wrong places, which the postcondition check must catch.
    #[test]
    fn detects_fifo_order_mismatch() {
        let collective = Collective::all_gather(2, 2, false);
        let send = |step: usize, index: usize| IrInstruction {
            step,
            op: OpCode::Send,
            src: Some(IrLoc {
                buffer: BufferKind::Input,
                index,
            }),
            dst: None,
            count: 1,
            deps: vec![],
            has_dep: false,
        };
        let recv = |step: usize, index: usize| IrInstruction {
            step,
            op: OpCode::Recv,
            src: None,
            dst: Some(IrLoc {
                buffer: BufferKind::Output,
                index,
            }),
            count: 1,
            deps: vec![],
            has_dep: false,
        };
        let copy = |step: usize, index: usize| IrInstruction {
            step,
            op: OpCode::Copy,
            src: Some(IrLoc {
                buffer: BufferKind::Input,
                index,
            }),
            dst: Some(IrLoc {
                buffer: BufferKind::Output,
                index,
            }),
            count: 1,
            deps: vec![],
            has_dep: false,
        };
        let gpus = vec![
            IrGpu {
                rank: 0,
                input_chunks: 2,
                output_chunks: 4,
                scratch_chunks: 0,
                threadblocks: vec![IrThreadBlock {
                    id: 0,
                    send_peer: Some(1),
                    recv_peer: None,
                    channel: 0,
                    // Sends input chunk 1 FIRST, then chunk 0.
                    instructions: vec![send(0, 1), send(1, 0), copy(2, 0), copy(3, 1)],
                }],
            },
            IrGpu {
                rank: 1,
                input_chunks: 2,
                output_chunks: 4,
                scratch_chunks: 0,
                threadblocks: vec![IrThreadBlock {
                    id: 0,
                    send_peer: None,
                    recv_peer: Some(0),
                    channel: 0,
                    // Stores the first arrival at output 0 — but the first
                    // arrival is input chunk 1.
                    instructions: vec![recv(0, 0), recv(1, 1)],
                }],
            },
        ];
        let mut ir = IrProgram {
            name: "mismatch".into(),
            collective,
            protocol: None,
            num_channels: 1,
            refinement: 1,
            gpus,
            epoch_cuts: vec![],
        };
        // Rank 1 never fills outputs 2..4 nor does rank 0; restrict the
        // postcondition to the mismatched chunks via a custom collective.
        ir.collective = Collective::custom(
            2,
            2,
            4,
            vec![
                vec![None, None, None, None],
                vec![
                    Some(crate::ChunkValue::input(0, 0)),
                    Some(crate::ChunkValue::input(0, 1)),
                    None,
                    None,
                ],
            ],
        );
        let err = check(&ir, &VerifyOptions::default()).unwrap_err();
        assert!(err.to_string().contains("postcondition"), "got: {err}");
    }

    #[test]
    fn compiled_programs_are_race_free() {
        for n in [2, 3, 5] {
            let ir = compile(&ring_allreduce(n), &no_verify()).unwrap();
            check(&ir, &VerifyOptions::default()).unwrap();
        }
    }

    #[test]
    fn rejects_zero_slots() {
        let ir = compile(&ring_allreduce(2), &no_verify()).unwrap();
        assert!(check(
            &ir,
            &VerifyOptions {
                slots: 0,
                check_races: false
            }
        )
        .is_err());
    }
}
