//! MSCCL-IR: the executable form of a compiled program (§5, Figure 4).
//!
//! MSCCL-IR is a tree: a program divides into per-GPU programs, which
//! divide into thread blocks holding sequential instruction lists. A thread
//! block owns at most one send and one receive connection, identified by a
//! peer and a channel. Instructions carry cross-thread-block dependencies
//! (`deps`) realized by semaphores in the runtime.

use std::fmt;

use msccl_topology::Protocol;

use crate::buffer::BufferKind;
use crate::collective::Collective;

/// Instruction opcodes stored in MSCCL-IR (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// Send to the thread block's send peer.
    Send,
    /// Receive from the thread block's receive peer.
    Recv,
    /// Local copy.
    Copy,
    /// Local reduce into the destination.
    Reduce,
    /// Receive, reduce with the local source chunk, store at destination.
    RecvReduceCopy,
    /// Receive, store at destination, forward to the send peer.
    RecvCopySend,
    /// Receive, reduce with the local source chunk, forward without
    /// storing.
    RecvReduceSend,
    /// Receive, reduce, store and forward.
    RecvReduceCopySend,
    /// No operation (padding; never emitted by the compiler).
    Nop,
}

impl OpCode {
    /// Every opcode, in [`OpCode::index`] order.
    pub const ALL: [OpCode; 9] = [
        OpCode::Send,
        OpCode::Recv,
        OpCode::Copy,
        OpCode::Reduce,
        OpCode::RecvReduceCopy,
        OpCode::RecvCopySend,
        OpCode::RecvReduceSend,
        OpCode::RecvReduceCopySend,
        OpCode::Nop,
    ];

    /// The opcode's dense index, its position in [`OpCode::ALL`]: for
    /// per-opcode tables.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The opcode's step rule: the one table the compiler, the verifier,
    /// the runtime and the simulator read to learn what a step does.
    #[must_use]
    pub const fn rule(self) -> StepRule {
        use StepValue::{DstOpSrc, Received, Src, SrcOpReceived};
        let (recv, value, store, send) = match self {
            OpCode::Send => (false, Src, false, true),
            OpCode::Recv => (true, Received, true, false),
            OpCode::Copy => (false, Src, true, false),
            OpCode::Reduce => (false, DstOpSrc, true, false),
            OpCode::RecvReduceCopy => (true, SrcOpReceived, true, false),
            OpCode::RecvCopySend => (true, Received, true, true),
            OpCode::RecvReduceSend => (true, SrcOpReceived, false, true),
            OpCode::RecvReduceCopySend => (true, SrcOpReceived, true, true),
            OpCode::Nop => (false, StepValue::None, false, false),
        };
        StepRule {
            recv,
            value,
            store,
            send,
        }
    }

    /// Whether the instruction consumes a message from the receive
    /// connection.
    #[must_use]
    pub const fn has_recv(self) -> bool {
        self.rule().recv
    }

    /// Whether the instruction produces a message on the send connection.
    #[must_use]
    pub const fn has_send(self) -> bool {
        self.rule().send
    }

    /// The local operands the instruction reads, source first: `src` of
    /// every value computed from it, and `dst` as well for `re`, which
    /// reduces into it. `rrc` and `rrcs` read `src` and write `dst`,
    /// whether or not the two name the same chunks.
    #[must_use]
    pub const fn reads(self) -> &'static [Operand] {
        match self.rule().value {
            StepValue::DstOpSrc => &[Operand::Src, Operand::Dst],
            StepValue::Src | StepValue::SrcOpReceived => &[Operand::Src],
            StepValue::None | StepValue::Received => &[],
        }
    }

    /// The local operand the instruction writes: `dst`, when it
    /// [stores](StepRule::store).
    #[must_use]
    pub fn writes(self) -> Option<Operand> {
        self.rule().store.then_some(Operand::Dst)
    }

    /// The mnemonic used in MSCCL-IR XML files.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpCode::Send => "s",
            OpCode::Recv => "r",
            OpCode::Copy => "cpy",
            OpCode::Reduce => "re",
            OpCode::RecvReduceCopy => "rrc",
            OpCode::RecvCopySend => "rcs",
            OpCode::RecvReduceSend => "rrs",
            OpCode::RecvReduceCopySend => "rrcs",
            OpCode::Nop => "nop",
        }
    }

    /// Parses a mnemonic.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "s" => Some(OpCode::Send),
            "r" => Some(OpCode::Recv),
            "cpy" => Some(OpCode::Copy),
            "re" => Some(OpCode::Reduce),
            "rrc" => Some(OpCode::RecvReduceCopy),
            "rcs" => Some(OpCode::RecvCopySend),
            "rrs" => Some(OpCode::RecvReduceSend),
            "rrcs" => Some(OpCode::RecvReduceCopySend),
            "nop" => Some(OpCode::Nop),
            _ => None,
        }
    }
}

impl fmt::Display for OpCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// How one step of an instruction runs (Figure 5): wait on its
/// dependencies, pop a tile if it `recv`s, compute its `value`, write it
/// at `dst` if it `store`s, push it on the send connection if it `send`s,
/// then signal. [`OpCode::rule`] gives each opcode's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRule {
    /// Whether the step pops a tile from the receive connection.
    pub recv: bool,
    /// What the step computes.
    pub value: StepValue,
    /// Whether the step writes the value at its destination.
    pub store: bool,
    /// Whether the step pushes the value on the send connection.
    pub send: bool,
}

/// What a step computes, per chunk. A reduction keeps its left operand
/// on the left of the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepValue {
    /// Nothing (`nop`).
    None,
    /// The local source (`s`, `cpy`).
    Src,
    /// The received tile (`r`, `rcs`).
    Received,
    /// The local source reduced with the received tile (`rrc`, `rrs`,
    /// `rrcs`).
    SrcOpReceived,
    /// The destination reduced with the local source (`re`).
    DstOpSrc,
}

/// A buffer-relative operand location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrLoc {
    /// Which named buffer.
    pub buffer: BufferKind,
    /// Chunk index within the buffer (refined granularity).
    pub index: usize,
}

/// A cross-thread-block dependency: the instruction at `(tb, step)` of the
/// same GPU must complete first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrDep {
    /// Local thread block id within the GPU.
    pub tb: usize,
    /// Step index within that thread block.
    pub step: usize,
}

/// One interpreted instruction (Figure 5's `Instruction` struct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrInstruction {
    /// Step index within the thread block.
    pub step: usize,
    /// Opcode.
    pub op: OpCode,
    /// Local source operand, if any.
    pub src: Option<IrLoc>,
    /// Local destination operand, if any.
    pub dst: Option<IrLoc>,
    /// Number of consecutive chunks the instruction covers (aggregation).
    pub count: usize,
    /// Cross-thread-block dependencies (`depBid`/`depStep`).
    pub deps: Vec<IrDep>,
    /// Whether later instructions in other thread blocks wait on this one
    /// (`hasDep`): the interpreter issues a fence and sets its semaphore.
    pub has_dep: bool,
}

/// One of an instruction's two local operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// [`IrInstruction::src`].
    Src,
    /// [`IrInstruction::dst`].
    Dst,
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Operand::Src => "src",
            Operand::Dst => "dst",
        })
    }
}

impl IrInstruction {
    /// The location `operand` names, if the instruction has one.
    #[must_use]
    pub fn operand(&self, operand: Operand) -> Option<IrLoc> {
        match operand {
            Operand::Src => self.src,
            Operand::Dst => self.dst,
        }
    }
}

/// A thread block: sequential instructions plus at most one send and one
/// receive connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrThreadBlock {
    /// Local id within the GPU (also the semaphore index).
    pub id: usize,
    /// Peer rank this block sends to.
    pub send_peer: Option<usize>,
    /// Peer rank this block receives from.
    pub recv_peer: Option<usize>,
    /// Channel distinguishing redundant connections between the same GPUs.
    pub channel: usize,
    /// The instruction list.
    pub instructions: Vec<IrInstruction>,
}

/// The per-GPU program.
#[derive(Debug, Clone, PartialEq)]
pub struct IrGpu {
    /// The rank this program runs on.
    pub rank: usize,
    /// Input buffer size in (refined) chunks.
    pub input_chunks: usize,
    /// Output buffer size in (refined) chunks.
    pub output_chunks: usize,
    /// Scratch buffer size in (refined) chunks.
    pub scratch_chunks: usize,
    /// Thread blocks, indexed by their local id.
    pub threadblocks: Vec<IrThreadBlock>,
}

/// A compiled MSCCL-IR program.
#[derive(Debug, Clone, PartialEq)]
pub struct IrProgram {
    /// Program name.
    pub name: String,
    /// The collective this program implements, at refined granularity.
    pub collective: Collective,
    /// Preferred runtime protocol, if the program requested one.
    pub protocol: Option<Protocol>,
    /// Number of channels the schedule uses.
    pub num_channels: usize,
    /// Chunk refinement factor relative to the source program
    /// (`instances × fragment parallelization`).
    pub refinement: usize,
    /// Per-GPU programs, indexed by rank.
    pub gpus: Vec<IrGpu>,
    /// Always empty: [`Infallible`](std::convert::Infallible) has no
    /// values. The field remains only so that `IrProgram` literals written
    /// when programs carried epoch cuts (`epoch_cuts: Vec::new()`) still
    /// compile; delete it when the benchmark crate's literal next changes.
    pub epoch_cuts: Vec<std::convert::Infallible>,
}

impl IrProgram {
    /// Number of ranks.
    #[must_use]
    pub fn num_ranks(&self) -> usize {
        self.gpus.len()
    }

    /// Total thread blocks across all GPUs.
    #[must_use]
    pub fn num_threadblocks(&self) -> usize {
        self.gpus.iter().map(|g| g.threadblocks.len()).sum()
    }

    /// Maximum thread blocks on any one GPU (must not exceed the SM count
    /// for a cooperative launch, §6.2).
    #[must_use]
    pub fn max_threadblocks_per_rank(&self) -> usize {
        self.gpus
            .iter()
            .map(|g| g.threadblocks.len())
            .max()
            .unwrap_or(0)
    }

    /// Total instruction count.
    #[must_use]
    pub fn num_instructions(&self) -> usize {
        self.gpus
            .iter()
            .map(|g| {
                g.threadblocks
                    .iter()
                    .map(|t| t.instructions.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// The per-GPU program of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn gpu(&self, rank: usize) -> &IrGpu {
        &self.gpus[rank]
    }

    /// Checks internal structural invariants — what
    /// [`Lowered::new`](crate::lower::Lowered::new) needs to index the
    /// program, steps sequential and operands inside their buffers — and
    /// returns the program's lowering.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::Error::Verification`] describing the first
    /// violated invariant.
    pub fn check_structure(&self) -> crate::Result<crate::lower::Lowered<'_>> {
        let lowered = crate::lower::Lowered::new(self)?;
        let fail = |message: String| Err(crate::Error::Verification { message });
        for (r, gpu) in self.gpus.iter().enumerate() {
            for (t, tb) in gpu.threadblocks.iter().enumerate() {
                for (s, instr) in tb.instructions.iter().enumerate() {
                    if instr.step != s {
                        return fail(format!(
                            "rank {r} tb {t}: instruction at position {s} has step {}",
                            instr.step
                        ));
                    }
                    if instr.count == 0 && instr.op.rule().value != StepValue::None {
                        return fail(format!("rank {r} tb {t} step {s}: zero count"));
                    }
                    // Operands must lie inside the buffers they name: those
                    // read or written on this rank, and a send's
                    // destination on its peer.
                    let written = instr.op.writes();
                    let local = instr.op.reads().iter().chain(&written).map(|&o| (o, r));
                    let remote = tb.send_peer.filter(|_| instr.op == OpCode::Send);
                    for (what, owner) in local.chain(remote.map(|p| (Operand::Dst, p))) {
                        let Some(loc) = instr.operand(what) else {
                            continue;
                        };
                        let owner_gpu = &self.gpus[owner];
                        let chunks = match loc.buffer {
                            BufferKind::Input => owner_gpu.input_chunks,
                            BufferKind::Output => owner_gpu.output_chunks,
                            BufferKind::Scratch => owner_gpu.scratch_chunks,
                        };
                        if loc
                            .index
                            .checked_add(instr.count)
                            .is_none_or(|end| end > chunks)
                        {
                            return fail(format!(
                                "rank {r} tb {t} step {s}: {what} chunks {}..+{} past the \
                                 {chunks} chunks of rank {owner}'s {} buffer",
                                loc.index, instr.count, loc.buffer
                            ));
                        }
                    }
                    if instr
                        .deps
                        .iter()
                        .any(|d| !gpu.threadblocks[d.tb].instructions[d.step].has_dep)
                    {
                        return fail(format!(
                            "rank {r} tb {t} step {s}: dependency target lacks has_dep"
                        ));
                    }
                }
            }
        }
        Ok(lowered)
    }
}

impl fmt::Display for IrProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program {} ({}): {} ranks, {} channels, {} thread blocks, {} instructions",
            self.name,
            self.collective,
            self.num_ranks(),
            self.num_channels,
            self.num_threadblocks(),
            self.num_instructions()
        )?;
        for gpu in &self.gpus {
            for tb in &gpu.threadblocks {
                writeln!(
                    f,
                    "  rank {} tb {} (send={:?} recv={:?} ch={}):",
                    gpu.rank, tb.id, tb.send_peer, tb.recv_peer, tb.channel
                )?;
                for i in &tb.instructions {
                    let src = i
                        .src
                        .map(|l| format!("{}[{}]", l.buffer.short_name(), l.index));
                    let dst = i
                        .dst
                        .map(|l| format!("{}[{}]", l.buffer.short_name(), l.index));
                    writeln!(
                        f,
                        "    {:>3}: {:<4} src={:<8} dst={:<8} n={} deps={:?}{}",
                        i.step,
                        i.op.mnemonic(),
                        src.unwrap_or_else(|| "-".into()),
                        dst.unwrap_or_else(|| "-".into()),
                        i.count,
                        i.deps.iter().map(|d| (d.tb, d.step)).collect::<Vec<_>>(),
                        if i.has_dep { " [sem]" } else { "" }
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_mnemonics_round_trip() {
        for (i, op) in OpCode::ALL.into_iter().enumerate() {
            assert_eq!(OpCode::parse(op.mnemonic()), Some(op));
            assert_eq!(op.index(), i);
        }
        assert_eq!(OpCode::parse("bogus"), None);
    }

    #[test]
    fn opcode_classification() {
        let rrs = OpCode::RecvReduceSend.rule();
        assert!(rrs.recv && rrs.send && !rrs.store);
        assert_eq!(rrs.value, StepValue::SrcOpReceived);
        assert!(OpCode::RecvReduceCopy.rule().store);
        assert!(!OpCode::Send.has_recv() && OpCode::Send.has_send());
        assert_eq!(OpCode::Reduce.rule().value, StepValue::DstOpSrc);
        assert_eq!(OpCode::Copy.rule().value, StepValue::Src);
        let nop = StepRule {
            recv: false,
            value: StepValue::None,
            store: false,
            send: false,
        };
        assert_eq!(OpCode::Nop.rule(), nop);
    }

    #[test]
    fn operand_rule() {
        use Operand::{Dst, Src};
        assert_eq!(OpCode::Reduce.reads(), &[Src, Dst]);
        assert_eq!(OpCode::RecvReduceCopy.reads(), &[Src]);
        assert_eq!(OpCode::Send.reads(), &[Src]);
        assert!(OpCode::RecvCopySend.reads().is_empty());
        assert_eq!(OpCode::RecvCopySend.writes(), Some(Dst));
        assert_eq!(OpCode::RecvReduceSend.writes(), None);
        assert!(OpCode::Nop.reads().is_empty() && OpCode::Nop.writes().is_none());
    }
}
