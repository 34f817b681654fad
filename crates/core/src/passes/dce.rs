//! Dead-store elimination for scratch traffic.
//!
//! A staging copy whose result is never read does no work for the
//! collective: its value can never reach an output buffer. This pass
//! removes instructions whose local write lands in the *scratch* space and
//! has no reader (no outgoing RAW edge), iterating to a fixed point so
//! whole dead chains disappear. Output- and data-space writes are always
//! kept — they may be what the postcondition observes.

use crate::buffer::BufferKind;
use crate::dag::{EdgeKind, InstrDag, InstrOp};

/// Removes dead scratch stores in place and compacts the DAG. Returns the
/// number of instructions eliminated.
pub fn eliminate_dead_stores(dag: &mut InstrDag) -> usize {
    let (_, recv_edge) = dag.comm_edge_index();
    let mut removed = 0usize;
    loop {
        let mut changed = false;
        // RAW out-degree per node.
        let mut raw_out = vec![0usize; dag.nodes.len()];
        for &(u, v, kind) in &dag.proc_edges {
            if kind == EdgeKind::Raw && dag.nodes[u].alive && dag.nodes[v].alive {
                raw_out[u] += 1;
            }
        }
        for (i, node_raw_out) in raw_out.iter().copied().enumerate() {
            let node = &dag.nodes[i];
            if !node.alive || node_raw_out > 0 || !node.op.writes_local() {
                continue;
            }
            // Only pure data movement is removable; reductions fused with
            // sends still transmit, and plain sends don't write.
            let removable_kind = matches!(node.op, InstrOp::Copy | InstrOp::Recv);
            if !removable_kind {
                continue;
            }
            // Only the scratch buffer resolves to the scratch space.
            let all_scratch = node
                .written()
                .is_some_and(|loc| loc.buffer == BufferKind::Scratch);
            if !all_scratch {
                continue;
            }
            // A dead recv still has a matching send; remove the pair.
            if node.op == InstrOp::Recv {
                let Some(send) = recv_edge[i]
                    .map(|e| dag.comm_edges[e].send)
                    .filter(|&s| dag.nodes[s].alive)
                else {
                    continue;
                };
                // Only a plain send can be dropped with its receive; a
                // fused sender also stores or forwards elsewhere.
                if dag.nodes[send].op != InstrOp::Send {
                    continue;
                }
                dag.nodes[send].alive = false;
                removed += 1;
            }
            dag.nodes[i].alive = false;
            removed += 1;
            changed = true;
        }
        if !changed {
            break;
        }
    }
    if removed > 0 {
        dag.compact();
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::collective::Collective;
    use crate::dag::ChunkDag;
    use crate::program::Program;

    fn lower(p: &Program) -> InstrDag {
        InstrDag::build(&ChunkDag::build(p, 1).unwrap())
    }

    #[test]
    fn removes_unread_local_scratch_copy() {
        let mut p = Program::new("t", Collective::all_gather(2, 1, false));
        // Useful work.
        for r in 0..2 {
            let c = p.chunk(r, BufferKind::Input, 0, 1).unwrap();
            let c = p.copy(&c, r, BufferKind::Output, r).unwrap();
            let _ = p.copy(&c, 1 - r, BufferKind::Output, r).unwrap();
        }
        // Dead local staging.
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c, 0, BufferKind::Scratch, 0).unwrap();
        let mut dag = lower(&p);
        let before = dag.nodes.len();
        assert_eq!(eliminate_dead_stores(&mut dag), 1);
        assert_eq!(dag.nodes.len(), before - 1);
    }

    #[test]
    fn removes_dead_remote_staging_chains() {
        let mut p = Program::new("t", Collective::all_gather(2, 1, false));
        for r in 0..2 {
            let c = p.chunk(r, BufferKind::Input, 0, 1).unwrap();
            let c = p.copy(&c, r, BufferKind::Output, r).unwrap();
            let _ = p.copy(&c, 1 - r, BufferKind::Output, r).unwrap();
        }
        // Dead chain: stage remotely, restage locally, never read.
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let s1 = p.copy(&c, 1, BufferKind::Scratch, 0).unwrap();
        let _ = p.copy(&s1, 1, BufferKind::Scratch, 1).unwrap();
        let mut dag = lower(&p);
        // send + recv + local copy all die (fixed point removes the recv
        // once its only reader, the local copy, is gone).
        assert_eq!(eliminate_dead_stores(&mut dag), 3);
    }

    #[test]
    fn keeps_output_writes_and_read_scratch() {
        let mut p = Program::new("t", Collective::all_to_all(2, 1));
        for src in 0..2 {
            for dst in 0..2 {
                let c = p.chunk(src, BufferKind::Input, dst, 1).unwrap();
                if src == dst {
                    let _ = p.copy(&c, dst, BufferKind::Output, src).unwrap();
                } else {
                    // Useful staging: read afterwards.
                    let s = p.copy(&c, src, BufferKind::Scratch, 0).unwrap();
                    let _ = p.copy(&s, dst, BufferKind::Output, src).unwrap();
                }
            }
        }
        let mut dag = lower(&p);
        assert_eq!(eliminate_dead_stores(&mut dag), 0);
    }
}
