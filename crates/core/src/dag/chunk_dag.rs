//! The Chunk DAG: the global view of chunk movement (§4.1).
//!
//! The compiler traces a program by sequential execution into a DAG whose
//! nodes are `copy` and `reduce` operations and whose edges are
//! dependencies arising from chunk movement (*true* dependencies) and from
//! reusing buffer indices (*false* dependencies).
//!
//! Chunk parallelization (§5.1) is applied here: with a global
//! parallelization factor `r` (the evaluation's "number of instances") and
//! per-fragment factors from `parallelize` scopes, every chunk is refined
//! into subchunks and each operation is duplicated into independent
//! instances, each handling `1/p` of its data on disjoint channels.

use crate::buffer::Loc;
use crate::collective::Collective;
use crate::dag::hazard::Hazards;
use crate::error::Result;
use crate::program::{Program, TraceOp, TraceOpKind};

/// One refined operation node in the Chunk DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkNode {
    /// Operation kind.
    pub kind: TraceOpKind,
    /// First source chunk, at refined granularity.
    pub src: Loc,
    /// First destination chunk, at refined granularity.
    pub dst: Loc,
    /// Contiguous refined chunks moved.
    pub count: usize,
    /// Channel the operation's transfer must use, if constrained (user
    /// directive or instance separation).
    pub channel: Option<usize>,
    /// Which parallel instance of the original traced op this node is.
    pub instance: usize,
    /// Index of the original traced op.
    pub trace_pos: usize,
    /// True (read-after-write) dependencies: nodes producing data this node
    /// consumes.
    pub true_deps: Vec<usize>,
    /// False (write-after-read / write-after-write) dependencies from buffer
    /// index reuse.
    pub false_deps: Vec<usize>,
}

impl ChunkNode {
    /// Whether this operation crosses GPUs.
    #[must_use]
    pub fn is_remote(&self) -> bool {
        self.src.rank != self.dst.rank
    }
}

/// The Chunk DAG for a program at refined chunk granularity.
#[derive(Debug, Clone)]
pub struct ChunkDag {
    nodes: Vec<ChunkNode>,
    refined: Collective,
    refinement: usize,
    scratch_chunks: Vec<usize>,
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

impl ChunkDag {
    /// Builds the Chunk DAG from a traced program, applying a global
    /// parallelization factor `instances` on top of any `parallelize`
    /// fragment scopes.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::EmptyProgram`] if the program traced no
    /// operations, or [`crate::Error::InvalidParallelFactor`] if
    /// `instances` is zero.
    pub fn build(program: &Program, instances: usize) -> Result<Self> {
        if instances == 0 {
            return Err(crate::Error::InvalidParallelFactor);
        }
        let ops = program.ops();
        if ops.is_empty() {
            return Err(crate::Error::EmptyProgram);
        }
        // Global refinement factor: every op's effective parallelization
        // must divide it so each instance covers a whole number of refined
        // chunks.
        let refinement = ops.iter().fold(instances, |acc, op| {
            lcm(acc, op.fragment_factor * instances)
        });
        let refined = program.collective().refine(refinement);

        // Channel stride separating instances: one more than the highest
        // user channel directive, so instance channels never collide with
        // base channels of other instances.
        let stride = ops
            .iter()
            .filter_map(|op| op.channel)
            .max()
            .map_or(1, |c| c + 1);

        // The table must cover every refined location the trace touches, so
        // the scratch sizes are known before the first node.
        let scratch_chunks: Vec<usize> = (0..program.collective().num_ranks())
            .map(|r| program.scratch_chunks(r) * refinement)
            .collect();
        let mut hazards = Hazards::new(&refined, &scratch_chunks);

        let mut nodes: Vec<ChunkNode> = Vec::new();
        for (pos, op) in ops.iter().enumerate() {
            let p = op.fragment_factor * instances;
            let sub = op.count * refinement / p; // refined chunks per instance
            debug_assert_eq!(op.count * refinement % p, 0);
            for k in 0..p {
                let id = nodes.len();
                let channel = if p == 1 {
                    op.channel
                } else {
                    Some(op.channel.unwrap_or(0) + k * stride)
                };
                let src = Loc::new(
                    op.src.rank,
                    op.src.buffer,
                    op.src.index * refinement + k * sub,
                );
                let dst = Loc::new(
                    op.dst.rank,
                    op.dst.buffer,
                    op.dst.index * refinement + k * sub,
                );
                let src_at = hazards.range(src, sub);
                let dst_at = hazards.range(dst, sub);
                // Reads: source range always; destination range too for
                // reduce (the old value is an operand).
                let mut true_deps = Vec::new();
                let reads_dst = if op.kind == TraceOpKind::Reduce {
                    dst_at.clone()
                } else {
                    0..0
                };
                for at in src_at.chain(reads_dst) {
                    true_deps.extend(hazards.last_writer(at));
                    hazards.read(at, id);
                }
                true_deps.sort_unstable();
                true_deps.dedup();
                // Writes: destination range. Its last writer (WAW) and its
                // readers since (WAR) are false dependencies unless they are
                // already true ones.
                let mut false_deps = Vec::new();
                for at in dst_at {
                    false_deps.extend(hazards.last_writer(at));
                    false_deps.extend(hazards.readers(at).iter().filter(|&&r| r != id));
                    hazards.write(at, id);
                }
                false_deps.sort_unstable();
                false_deps.dedup();
                false_deps.retain(|d| true_deps.binary_search(d).is_err());
                nodes.push(ChunkNode {
                    kind: op.kind,
                    src,
                    dst,
                    count: sub,
                    channel,
                    instance: k,
                    trace_pos: pos,
                    true_deps,
                    false_deps,
                });
            }
        }

        Ok(Self {
            nodes,
            refined,
            refinement,
            scratch_chunks,
        })
    }

    /// The DAG nodes in trace order (a valid topological order).
    #[must_use]
    pub fn nodes(&self) -> &[ChunkNode] {
        &self.nodes
    }

    /// The collective at refined granularity.
    #[must_use]
    pub fn collective(&self) -> &Collective {
        &self.refined
    }

    /// The global chunk refinement factor.
    #[must_use]
    pub fn refinement(&self) -> usize {
        self.refinement
    }

    /// Scratch chunks per rank, at refined granularity.
    #[must_use]
    pub fn scratch_chunks(&self) -> &[usize] {
        &self.scratch_chunks
    }
}

/// Re-exported for `ChunkDag::build` internals.
impl From<&TraceOp> for TraceOpKind {
    fn from(op: &TraceOp) -> Self {
        op.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::collective::Collective;

    fn ring_allgather(n: usize) -> Program {
        let mut p = Program::new("rag", Collective::all_gather(n, 1, false));
        for r in 0..n {
            let c = p.chunk(r, BufferKind::Input, 0, 1).unwrap();
            let mut c = p.copy(&c, r, BufferKind::Output, r).unwrap();
            for step in 1..n {
                let next = (r + step) % n;
                c = p.copy(&c, next, BufferKind::Output, r).unwrap();
            }
        }
        p
    }

    #[test]
    fn ring_allgather_has_chain_dependencies() {
        let p = ring_allgather(3);
        let dag = ChunkDag::build(&p, 1).unwrap();
        assert_eq!(dag.nodes().len(), 9);
        // Node 1 (copy to next rank) depends on node 0 (local publish).
        assert_eq!(dag.nodes()[1].true_deps, vec![0]);
        assert_eq!(dag.nodes()[2].true_deps, vec![1]);
        // First node of the next ring has no deps.
        assert!(dag.nodes()[3].true_deps.is_empty());
    }

    #[test]
    fn reduce_reads_destination() {
        let coll = Collective::all_reduce(2, 1, true);
        let mut p = Program::new("ar", coll);
        let c0 = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c1 = p.chunk(1, BufferKind::Input, 0, 1).unwrap();
        let r = p.reduce(&c1, &c0).unwrap();
        let _ = p.copy(&r, 0, BufferKind::Output, 0).unwrap();
        let dag = ChunkDag::build(&p, 1).unwrap();
        // Copy-back truly depends on the reduce.
        assert_eq!(dag.nodes()[1].true_deps, vec![0]);
        // And the copy-back overwrites rank 0's input chunk, which the
        // reduce read: a false (WAR) dependency also points 0 -> 1.
        assert_eq!(dag.nodes()[1].false_deps, Vec::<usize>::new());
        // (the WAR is subsumed: node 1's write target was read by node 0,
        //  but node 0 is already a true dep)
    }

    #[test]
    fn war_dependency_on_buffer_reuse() {
        let coll = Collective::all_gather(2, 1, false);
        let mut p = Program::new("t", coll);
        // Rank 0 copies its chunk out, then rank 1's chunk lands on top of
        // rank 0's input? No: overwrite output[0] twice instead.
        let c0 = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c0, 1, BufferKind::Output, 0).unwrap();
        let c1 = p.chunk(1, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c1, 1, BufferKind::Output, 0).unwrap(); // WAW
        let dag = ChunkDag::build(&p, 1).unwrap();
        assert_eq!(dag.nodes()[1].false_deps, vec![0]);
    }

    #[test]
    fn instances_duplicate_and_refine() {
        let p = ring_allgather(2);
        let dag = ChunkDag::build(&p, 2).unwrap();
        assert_eq!(dag.refinement(), 2);
        assert_eq!(dag.nodes().len(), 8); // 4 ops x 2 instances
        assert_eq!(dag.collective().in_chunks(), 2);
        // Instance channels are disjoint.
        let n0 = &dag.nodes()[0];
        let n1 = &dag.nodes()[1];
        assert_eq!(n0.instance, 0);
        assert_eq!(n1.instance, 1);
        assert_ne!(n0.channel, n1.channel);
        // Instance 1 covers the second refined subchunk.
        assert_eq!(n0.dst.index, 0);
        assert_eq!(n1.dst.index, 1);
    }

    #[test]
    fn instances_are_independent() {
        let p = ring_allgather(2);
        let dag = ChunkDag::build(&p, 2).unwrap();
        // Dependencies never cross instances of the same op.
        for n in dag.nodes() {
            for &d in n.true_deps.iter().chain(&n.false_deps) {
                assert_eq!(dag.nodes()[d].instance, n.instance);
            }
        }
    }

    #[test]
    fn fragment_parallelize_composes_with_instances() {
        let coll = Collective::all_reduce(2, 2, true);
        let mut p = Program::new("ar", coll);
        p.parallelize(2, |p| {
            let c0 = p.chunk(0, BufferKind::Input, 0, 2)?;
            let c1 = p.chunk(1, BufferKind::Input, 0, 2)?;
            let _ = p.reduce(&c1, &c0)?;
            Ok(())
        })
        .unwrap();
        let c = p.chunk(1, BufferKind::Input, 0, 2).unwrap();
        let _ = p.copy(&c, 0, BufferKind::Input, 0).unwrap();
        let dag = ChunkDag::build(&p, 3).unwrap();
        // refinement = lcm(2*3, 1*3) = 6
        assert_eq!(dag.refinement(), 6);
        // First op: p=6 instances of 2*6/6=2 refined chunks each;
        // second op: p=3 instances of 2*6/3=4 refined chunks each.
        let first: Vec<_> = dag.nodes().iter().filter(|n| n.trace_pos == 0).collect();
        let second: Vec<_> = dag.nodes().iter().filter(|n| n.trace_pos == 1).collect();
        assert_eq!(first.len(), 6);
        assert_eq!(second.len(), 3);
        assert!(first.iter().all(|n| n.count == 2));
        assert!(second.iter().all(|n| n.count == 4));
    }

    #[test]
    fn scratch_chunks_scale_with_refinement() {
        let coll = Collective::all_to_all(2, 1);
        let mut p = Program::new("a2a", coll);
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c = p.copy(&c, 0, BufferKind::Scratch, 3).unwrap();
        let _ = p.copy(&c, 1, BufferKind::Output, 0).unwrap();
        let dag = ChunkDag::build(&p, 2).unwrap();
        assert_eq!(dag.scratch_chunks()[0], 8);
    }

    #[test]
    fn zero_instances_rejected() {
        let p = ring_allgather(2);
        assert!(ChunkDag::build(&p, 0).is_err());
    }

    #[test]
    fn user_channels_shift_instance_channels() {
        let coll = Collective::all_gather(2, 1, false);
        let mut p = Program::new("t", coll);
        for r in 0..2 {
            let c = p.chunk(r, BufferKind::Input, 0, 1).unwrap();
            let c = p.copy_on(&c, r, BufferKind::Output, r, 1).unwrap();
            let _ = p.copy_on(&c, 1 - r, BufferKind::Output, r, 1).unwrap();
        }
        let dag = ChunkDag::build(&p, 2).unwrap();
        // stride = max directive + 1 = 2; instance 0 keeps ch 1, instance 1
        // gets ch 1 + 2 = 3.
        let chans: Vec<_> = dag.nodes().iter().map(|n| n.channel).collect();
        assert!(chans.contains(&Some(1)));
        assert!(chans.contains(&Some(3)));
    }
}
