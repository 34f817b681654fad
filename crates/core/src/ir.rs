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

    /// Whether the instruction consumes a message from the receive
    /// connection.
    #[must_use]
    pub fn has_recv(self) -> bool {
        matches!(
            self,
            OpCode::Recv
                | OpCode::RecvReduceCopy
                | OpCode::RecvCopySend
                | OpCode::RecvReduceSend
                | OpCode::RecvReduceCopySend
        )
    }

    /// Whether the instruction produces a message on the send connection.
    #[must_use]
    pub fn has_send(self) -> bool {
        matches!(
            self,
            OpCode::Send
                | OpCode::RecvCopySend
                | OpCode::RecvReduceSend
                | OpCode::RecvReduceCopySend
        )
    }

    /// Whether the instruction applies the reduction operator.
    #[must_use]
    pub fn reduces(self) -> bool {
        matches!(
            self,
            OpCode::Reduce
                | OpCode::RecvReduceCopy
                | OpCode::RecvReduceSend
                | OpCode::RecvReduceCopySend
        )
    }

    /// Whether the instruction reads its local source operand.
    #[must_use]
    pub fn reads_src(self) -> bool {
        matches!(
            self,
            OpCode::Send
                | OpCode::Copy
                | OpCode::Reduce
                | OpCode::RecvReduceCopy
                | OpCode::RecvReduceSend
                | OpCode::RecvReduceCopySend
        )
    }

    /// Whether the instruction writes local memory.
    #[must_use]
    pub fn writes_local(self) -> bool {
        matches!(
            self,
            OpCode::Recv
                | OpCode::Copy
                | OpCode::Reduce
                | OpCode::RecvReduceCopy
                | OpCode::RecvCopySend
                | OpCode::RecvReduceCopySend
        )
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
    /// The local operands the instruction reads, source first: `src` of
    /// every opcode that [reads it](OpCode::reads_src), and `dst` as well
    /// for `re`, which reduces into it. `rrc` and `rrcs` read `src` and
    /// write `dst`, whether or not the two name the same chunks.
    #[must_use]
    pub fn reads(&self) -> &'static [Operand] {
        match self.op {
            OpCode::Reduce => &[Operand::Src, Operand::Dst],
            op if op.reads_src() => &[Operand::Src],
            _ => &[],
        }
    }

    /// The local operand the instruction writes: `dst` of every opcode
    /// that [writes local memory](OpCode::writes_local).
    #[must_use]
    pub fn writes(&self) -> Option<Operand> {
        self.op.writes_local().then_some(Operand::Dst)
    }

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

/// A consistent epoch cut: per-thread-block watermarks
/// (`watermarks[rank][tb]` = instructions completed within one tile
/// iteration) at which every connection is drained and every cross-block
/// dependency satisfied, so rank memory alone captures the state. Emitted
/// by [`crate::passes::epochs::epoch_cuts`], checked symbolically by
/// [`crate::verify::check_epoch_cut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochCut {
    /// `watermarks[rank][tb]`: completed-instruction count of each block.
    pub watermarks: Vec<Vec<usize>>,
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
    /// Chain of consistent epoch cuts within one tile iteration, strictly
    /// increasing, ending at the full tile. Empty for hand-built or legacy
    /// IR (the simulator then computes them on the fly).
    pub epoch_cuts: Vec<EpochCut>,
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
    /// program, steps sequential, operands inside their buffers, and
    /// well-shaped epoch cuts — and returns the program's lowering.
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
                    if instr.count == 0 && instr.op != OpCode::Nop {
                        return fail(format!("rank {r} tb {t} step {s}: zero count"));
                    }
                    // Operands must lie inside the buffers they name: those
                    // read or written on this rank, and a send's
                    // destination on its peer.
                    let written = instr.writes();
                    let local = instr.reads().iter().chain(&written).map(|&o| (o, r));
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
        // Epoch cuts, when present, must form a well-shaped strictly
        // increasing chain ending at the full tile. Consistency of each
        // cut (drained connections, dependency closure) is the verifier's
        // job; shape is structural.
        let mut prev: Vec<Vec<usize>> = self
            .gpus
            .iter()
            .map(|g| vec![0; g.threadblocks.len()])
            .collect();
        for (c, cut) in self.epoch_cuts.iter().enumerate() {
            if cut.watermarks.len() != self.gpus.len() {
                return fail(format!(
                    "epoch cut {c}: {} rank entries for {} ranks",
                    cut.watermarks.len(),
                    self.gpus.len()
                ));
            }
            let mut advanced = false;
            for (r, gpu) in self.gpus.iter().enumerate() {
                let marks = &cut.watermarks[r];
                if marks.len() != gpu.threadblocks.len() {
                    return fail(format!(
                        "epoch cut {c} rank {r}: {} watermarks for {} thread blocks",
                        marks.len(),
                        gpu.threadblocks.len()
                    ));
                }
                for (t, (&w, tb)) in marks.iter().zip(&gpu.threadblocks).enumerate() {
                    if w > tb.instructions.len() {
                        return fail(format!(
                            "epoch cut {c} rank {r} tb {t}: watermark {w} beyond {} instructions",
                            tb.instructions.len()
                        ));
                    }
                    if w < prev[r][t] {
                        return fail(format!(
                            "epoch cut {c} rank {r} tb {t}: watermark {w} regresses below {}",
                            prev[r][t]
                        ));
                    }
                    advanced |= w > prev[r][t];
                }
            }
            let is_empty_program = self.num_instructions() == 0;
            if !advanced && !is_empty_program {
                return fail(format!("epoch cut {c} does not advance the frontier"));
            }
            prev = cut.watermarks.clone();
        }
        if let Some(last) = self.epoch_cuts.last() {
            for (r, gpu) in self.gpus.iter().enumerate() {
                for (t, tb) in gpu.threadblocks.iter().enumerate() {
                    if last.watermarks[r][t] != tb.instructions.len() {
                        return fail(format!(
                            "final epoch cut leaves rank {r} tb {t} at {} of {} instructions",
                            last.watermarks[r][t],
                            tb.instructions.len()
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
    }

    #[test]
    fn opcode_classification() {
        assert!(OpCode::RecvReduceSend.has_recv());
        assert!(OpCode::RecvReduceSend.has_send());
        assert!(!OpCode::RecvReduceSend.writes_local());
        assert!(OpCode::RecvReduceCopy.writes_local());
        assert!(!OpCode::Send.has_recv());
        assert!(OpCode::Reduce.reduces());
        assert!(!OpCode::Copy.reduces());
    }
}
