//! The end-to-end compiler driver: trace → Chunk DAG → Instruction DAG →
//! fusion → scheduling → MSCCL-IR → verification (Figure 2).

use crate::dag::{ChunkDag, InstrDag};
use crate::error::Result;
use crate::ir::{IrDep, IrGpu, IrInstruction, IrLoc, IrProgram, IrThreadBlock};
use crate::lower::Lowered;
use crate::passes::{self, fuse};
use crate::program::Program;
use crate::schedule::{assign_channels, assign_threadblocks};
use crate::verify;

/// Options controlling compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Global chunk-parallelization factor applied to the whole program
    /// (the evaluation's `r`; §5.1).
    pub instances: usize,
    /// Whether to run the instruction fusion peepholes (§4.3).
    pub fuse: bool,
    /// Whether to run automatic send aggregation before fusion (an
    /// extension of §5.1's user-directed aggregation).
    pub aggregate: bool,
    /// Whether to remove staging traffic whose result is never read (an
    /// extension; scratch-space dead-store elimination).
    pub eliminate_dead: bool,
    /// FIFO slots per connection the schedule must be deadlock-free at
    /// (§6.1: the compiler prevents more than `s` outstanding sends).
    pub slots: usize,
    /// Maximum thread blocks per GPU (the SM budget for a cooperative
    /// launch); `None` disables the check.
    pub max_tbs_per_rank: Option<usize>,
    /// Whether to verify the produced IR with the symbolic executor.
    pub verify: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            instances: 1,
            fuse: true,
            aggregate: false,
            eliminate_dead: false,
            slots: 8,
            max_tbs_per_rank: None,
            verify: true,
        }
    }
}

impl CompileOptions {
    /// Sets the global parallelization factor.
    #[must_use]
    pub fn with_instances(mut self, instances: usize) -> Self {
        self.instances = instances;
        self
    }

    /// Enables or disables instruction fusion.
    #[must_use]
    pub fn with_fuse(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// Enables automatic send aggregation.
    #[must_use]
    pub fn with_aggregate(mut self, aggregate: bool) -> Self {
        self.aggregate = aggregate;
        self
    }

    /// Enables dead-store elimination for scratch traffic.
    #[must_use]
    pub fn with_eliminate_dead(mut self, dce: bool) -> Self {
        self.eliminate_dead = dce;
        self
    }

    /// Sets the FIFO slot budget the schedule must respect.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        assert!(slots >= 1);
        self.slots = slots;
        self
    }

    /// Enables or disables post-compilation verification.
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the per-GPU thread block budget.
    #[must_use]
    pub fn with_max_tbs_per_rank(mut self, limit: usize) -> Self {
        self.max_tbs_per_rank = Some(limit);
        self
    }
}

/// Compiles a traced program into MSCCL-IR.
///
/// # Errors
///
/// Propagates tracing, scheduling and verification errors; see
/// [`crate::Error`].
pub fn compile(program: &Program, opts: &CompileOptions) -> Result<IrProgram> {
    let chunk_dag = ChunkDag::build(program, opts.instances)?;
    let mut instr_dag = InstrDag::build(&chunk_dag);
    if opts.eliminate_dead {
        let _ = crate::passes::eliminate_dead_stores(&mut instr_dag);
    }
    if opts.aggregate {
        let _ = crate::passes::aggregate(&mut instr_dag);
    }
    if opts.fuse {
        fuse(&mut instr_dag);
    }
    // The depth-based per-connection FIFO order can create ordering
    // cycles: through fused instructions whose receive and send orders
    // cross between connections, or (rarely) through plain dependency
    // shapes. Resolve by unfusing the fused instructions on the cycle;
    // when none remain, fall back to trace order, which is provably
    // acyclic for unfused programs. Each unfuse round removes at least one
    // fused instruction, so this terminates.
    let mut order = crate::schedule::FifoOrder::Depth;
    let sched = loop {
        let ca = assign_channels(&instr_dag, opts.max_tbs_per_rank)?;
        match crate::schedule::find_fifo_cycle(&instr_dag, &ca, order, opts.slots) {
            None => {
                break assign_threadblocks(
                    &instr_dag,
                    &ca,
                    opts.max_tbs_per_rank,
                    order,
                    opts.slots,
                )?;
            }
            Some(stuck) => {
                let fused: Vec<usize> = stuck
                    .into_iter()
                    .filter(|&i| {
                        let rule = instr_dag.nodes[i].op.rule();
                        rule.recv && rule.send
                    })
                    .collect();
                if fused.is_empty() {
                    if order == crate::schedule::FifoOrder::Depth {
                        order = crate::schedule::FifoOrder::Trace;
                        continue;
                    }
                    return Err(crate::Error::Verification {
                        message: "internal: instruction dependency graph is cyclic".to_owned(),
                    });
                }
                crate::passes::unfuse(&mut instr_dag, &fused);
            }
        }
    };

    let num_ranks = instr_dag.collective.num_ranks();

    // Global thread block index -> (rank, local id). Thread blocks are
    // numbered per rank in their global creation order.
    let mut local_id = vec![usize::MAX; sched.tbs.len()];
    let mut per_rank_count = vec![0usize; num_ranks];
    for (g, tb) in sched.tbs.iter().enumerate() {
        local_id[g] = per_rank_count[tb.rank];
        per_rank_count[tb.rank] += 1;
    }

    let mut gpus: Vec<IrGpu> = (0..num_ranks)
        .map(|rank| IrGpu {
            rank,
            input_chunks: instr_dag.collective.in_chunks(),
            output_chunks: instr_dag.collective.out_chunks(),
            scratch_chunks: instr_dag.scratch_chunks[rank],
            threadblocks: Vec::new(),
        })
        .collect();

    for (g, tb) in sched.tbs.iter().enumerate() {
        let mut instructions = Vec::with_capacity(tb.instrs.len());
        for (step, &node_id) in tb.instrs.iter().enumerate() {
            let node = &instr_dag.nodes[node_id];
            let deps = sched.cross_deps[node_id]
                .iter()
                .map(|&(dep_tb, dep_step)| {
                    debug_assert_eq!(sched.tbs[dep_tb].rank, tb.rank);
                    IrDep {
                        tb: local_id[dep_tb],
                        step: dep_step,
                    }
                })
                .collect();
            instructions.push(IrInstruction {
                step,
                op: node.op,
                src: node.src.map(|l| IrLoc {
                    buffer: l.buffer,
                    index: l.index,
                }),
                dst: node.dst.map(|l| IrLoc {
                    buffer: l.buffer,
                    index: l.index,
                }),
                count: node.count,
                deps,
                has_dep: sched.has_dep[node_id],
            });
        }
        gpus[tb.rank].threadblocks.push(IrThreadBlock {
            id: local_id[g],
            send_peer: tb.send_peer,
            recv_peer: tb.recv_peer,
            channel: tb.channel,
            instructions,
        });
    }

    let mut ir = IrProgram {
        name: program.name().to_owned(),
        collective: instr_dag.collective.clone(),
        protocol: program.protocol(),
        num_channels: sched.num_channels.max(1),
        refinement: instr_dag.refinement,
        gpus,
        epoch_cuts: Vec::new(),
    };
    ir.epoch_cuts = passes::epochs::epoch_cuts(&Lowered::new(&ir)?);
    ir.check_structure()?;
    if opts.verify {
        verify::check(&ir, &verify::VerifyOptions::default())?;
    }
    Ok(ir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::collective::Collective;

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
    fn ring_allreduce_compiles_and_verifies() {
        let p = ring_allreduce(4);
        assert!(p.validate().is_ok());
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        assert_eq!(ir.num_ranks(), 4);
        assert!(ir.num_instructions() > 0);
        assert!(ir.check_structure().is_ok());
    }

    #[test]
    fn instances_scale_instruction_count() {
        let p = ring_allreduce(3);
        let ir1 = compile(&p, &CompileOptions::default()).unwrap();
        let ir2 = compile(&p, &CompileOptions::default().with_instances(2)).unwrap();
        assert_eq!(ir2.num_instructions(), 2 * ir1.num_instructions());
        assert_eq!(ir2.refinement, 2);
        assert_eq!(ir2.collective.in_chunks(), 2 * ir1.collective.in_chunks());
    }

    #[test]
    fn fusion_reduces_instruction_count() {
        let p = ring_allreduce(4);
        let fused = compile(&p, &CompileOptions::default()).unwrap();
        let unfused = compile(&p, &CompileOptions::default().with_fuse(false)).unwrap();
        assert!(fused.num_instructions() < unfused.num_instructions());
    }

    #[test]
    fn unfused_program_also_verifies() {
        let p = ring_allreduce(3);
        let ir = compile(&p, &CompileOptions::default().with_fuse(false)).unwrap();
        assert!(ir.num_instructions() > 0);
    }

    #[test]
    fn aggregation_option_reduces_message_count() {
        // Contiguous per-chunk copies collapse into one transfer.
        let mut p = Program::new("agg", Collective::all_gather(2, 4, false));
        for r in 0..2 {
            for i in 0..4 {
                let c = p.chunk(r, BufferKind::Input, i, 1).unwrap();
                let own = p.copy(&c, r, BufferKind::Output, r * 4 + i).unwrap();
                let _ = p.copy(&own, 1 - r, BufferKind::Output, r * 4 + i).unwrap();
            }
        }
        let plain = compile(&p, &CompileOptions::default()).unwrap();
        let agg = compile(&p, &CompileOptions::default().with_aggregate(true)).unwrap();
        assert!(agg.num_instructions() < plain.num_instructions());
        // Aggregated programs still verify (done inside compile).
        let sends = |ir: &crate::ir::IrProgram| {
            ir.gpus
                .iter()
                .flat_map(|g| &g.threadblocks)
                .flat_map(|t| &t.instructions)
                .filter(|i| i.op.has_send())
                .count()
        };
        assert_eq!(sends(&agg), 2);
        assert_eq!(sends(&plain), 8);
    }

    #[test]
    fn tb_budget_propagates() {
        let p = ring_allreduce(4);
        let err = compile(
            &p,
            &CompileOptions::default()
                .with_instances(16)
                .with_max_tbs_per_rank(4),
        )
        .unwrap_err();
        assert!(matches!(err, crate::Error::TooManyThreadBlocks { .. }));
    }
}
