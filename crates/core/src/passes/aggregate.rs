//! Automatic send aggregation (extension of §5.1's *Aggregation*).
//!
//! In the paper, aggregation is user-directed: passing a multi-count chunk
//! reference produces one send for several contiguous chunks. This pass
//! recovers the same optimization automatically: sends on the same
//! connection whose source and destination ranges are contiguous merge
//! into one multi-count transfer (and their receives likewise), amortizing
//! the per-message cost that §7.3 identifies as the expensive part of
//! InfiniBand traffic.
//!
//! The pass is conservative: a group is merged only if doing so keeps the
//! instruction graph acyclic (merging nodes with an external path between
//! them would deadlock the schedule); when a merge would create a cycle
//! the whole group is left alone.

use std::collections::HashMap;

use crate::buffer::Loc;
use crate::dag::InstrDag;
use crate::ir::OpCode;
use crate::order::Dag;

/// Applies automatic send aggregation in place and compacts the DAG.
/// Run before [`fusion`](crate::passes::fusion) so fused chains see the
/// aggregated transfers. Returns the number of merges performed.
pub fn aggregate(dag: &mut InstrDag) -> usize {
    // Group comm edges by (src rank, dst rank, channel directive).
    let mut groups: HashMap<(usize, usize, Option<usize>), Vec<usize>> = HashMap::new();
    for (i, e) in dag.comm_edges.iter().enumerate() {
        let s = &dag.nodes[e.send];
        let key = (s.rank, dag.nodes[e.recv].rank, e.channel);
        groups.entry(key).or_default().push(i);
    }
    let mut keys: Vec<_> = groups.keys().copied().collect();
    keys.sort_unstable();

    let mut merges = 0usize;
    for key in keys {
        let mut edges = groups.remove(&key).expect("grouped");
        // FIFO provenance order.
        edges.sort_by_key(|&i| dag.nodes[dag.comm_edges[i].send].chunk_node);
        let mut run: Vec<usize> = Vec::new();
        for &e in &edges {
            if let Some(&prev) = run.last() {
                if extends(dag, prev, e) {
                    run.push(e);
                    continue;
                }
            }
            merges += flush_run(dag, &run);
            run = vec![e];
        }
        merges += flush_run(dag, &run);
    }
    if merges > 0 {
        dag.compact();
    }
    merges
}

/// Whether comm edge `next` continues the contiguous run ending at `prev`:
/// plain sends/recvs with adjacent source and destination ranges.
fn extends(dag: &InstrDag, prev: usize, next: usize) -> bool {
    let (pe, ne) = (dag.comm_edges[prev], dag.comm_edges[next]);
    let (ps, ns) = (&dag.nodes[pe.send], &dag.nodes[ne.send]);
    let (pr, nr) = (&dag.nodes[pe.recv], &dag.nodes[ne.recv]);
    if ps.op != OpCode::Send || ns.op != OpCode::Send {
        return false;
    }
    if pr.op != OpCode::Recv || nr.op != OpCode::Recv {
        return false;
    }
    contiguous(ps.src, ps.count, ns.src) && contiguous(pr.dst, pr.count, nr.dst)
}

fn contiguous(a: Option<Loc>, count: usize, b: Option<Loc>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.rank == b.rank && a.buffer == b.buffer && b.index == a.index + count
        }
        _ => false,
    }
}

/// Merges a run of ≥ 2 contiguous comm edges into its first edge's nodes,
/// unless that would make the graph cyclic. Returns 1 on success.
fn flush_run(dag: &mut InstrDag, run: &[usize]) -> usize {
    if run.len() < 2 {
        return 0;
    }
    let first = dag.comm_edges[run[0]];
    let total: usize = run
        .iter()
        .map(|&e| dag.nodes[dag.comm_edges[e].send].count)
        .sum();

    // Tentatively apply, then check acyclicity; revert on failure.
    let saved_nodes: Vec<_> = run
        .iter()
        .map(|&e| (dag.comm_edges[e].send, dag.comm_edges[e].recv))
        .collect();
    let saved_counts: Vec<_> = saved_nodes
        .iter()
        .map(|&(s, r)| (dag.nodes[s].count, dag.nodes[r].count))
        .collect();
    let saved_edges = dag.proc_edges.clone();

    for &e in &run[1..] {
        let (s, r) = (dag.comm_edges[e].send, dag.comm_edges[e].recv);
        dag.nodes[s].alive = false;
        dag.nodes[r].alive = false;
        for pe in &mut dag.proc_edges {
            if pe.0 == s {
                pe.0 = first.send;
            }
            if pe.1 == s {
                pe.1 = first.send;
            }
            if pe.0 == r {
                pe.0 = first.recv;
            }
            if pe.1 == r {
                pe.1 = first.recv;
            }
        }
    }
    dag.proc_edges.retain(|&(a, b, _)| a != b);
    dag.nodes[first.send].count = total;
    dag.nodes[first.recv].count = total;

    if is_cyclic(dag) {
        // Revert everything.
        for (&(s, r), &(cs, cr)) in saved_nodes.iter().zip(&saved_counts) {
            dag.nodes[s].alive = true;
            dag.nodes[r].alive = true;
            dag.nodes[s].count = cs;
            dag.nodes[r].count = cr;
        }
        dag.proc_edges = saved_edges;
        return 0;
    }
    // Drop the merged comm edges (mark via dead endpoints; compact()
    // removes them).
    1
}

/// Whether the live nodes' processing + communication edges have a cycle.
fn is_cyclic(dag: &InstrDag) -> bool {
    let edges: Vec<(u32, u32)> = dag
        .proc_edges
        .iter()
        .map(|&(u, v, _)| (u, v))
        .chain(dag.comm_edges.iter().map(|e| (e.send, e.recv)))
        .filter(|&(u, v)| dag.nodes[u].alive && dag.nodes[v].alive)
        .map(|(u, v)| (u as u32, v as u32))
        .collect();
    Dag::from_edges(dag.nodes.len(), &edges)
        .topo_order()
        .is_err()
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
    fn contiguous_sends_merge() {
        // Four unit copies 0 -> 1 over contiguous indices.
        let mut p = Program::new("t", Collective::all_gather(2, 4, false));
        for i in 0..4 {
            let c = p.chunk(0, BufferKind::Input, i, 1).unwrap();
            let _ = p.copy(&c, 1, BufferKind::Output, i).unwrap();
        }
        let mut dag = lower(&p);
        assert_eq!(dag.comm_edges.len(), 4);
        let merges = aggregate(&mut dag);
        assert_eq!(merges, 1);
        assert_eq!(dag.comm_edges.len(), 1);
        let send = &dag.nodes[dag.comm_edges[0].send];
        assert_eq!(send.count, 4);
        assert_eq!(send.src.unwrap().index, 0);
    }

    #[test]
    fn non_contiguous_sends_do_not_merge() {
        let mut p = Program::new("t", Collective::all_gather(2, 4, false));
        for i in [0usize, 2] {
            let c = p.chunk(0, BufferKind::Input, i, 1).unwrap();
            let _ = p.copy(&c, 1, BufferKind::Output, i).unwrap();
        }
        let mut dag = lower(&p);
        assert_eq!(aggregate(&mut dag), 0);
        assert_eq!(dag.comm_edges.len(), 2);
    }

    #[test]
    fn different_channels_do_not_merge() {
        let mut p = Program::new("t", Collective::all_gather(2, 2, false));
        let a = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy_on(&a, 1, BufferKind::Output, 0, 0).unwrap();
        let b = p.chunk(0, BufferKind::Input, 1, 1).unwrap();
        let _ = p.copy_on(&b, 1, BufferKind::Output, 1, 1).unwrap();
        let mut dag = lower(&p);
        assert_eq!(aggregate(&mut dag), 0);
    }

    #[test]
    fn reductions_are_not_aggregated() {
        // rrc receives are not plain recvs; leave them alone.
        let mut p = Program::new("t", Collective::all_reduce(2, 2, true));
        for i in 0..2 {
            let src = p.chunk(0, BufferKind::Input, i, 1).unwrap();
            let dst = p.chunk(1, BufferKind::Input, i, 1).unwrap();
            let _ = p.reduce(&dst, &src).unwrap();
        }
        let mut dag = lower(&p);
        assert_eq!(aggregate(&mut dag), 0);
    }

    #[test]
    fn merge_that_would_create_a_cycle_is_reverted() {
        // B's source is produced by a round trip through A's destination:
        // merging A and B would make the combined send depend on its own
        // combined receive.
        let mut p = Program::new("t", Collective::all_gather(2, 2, false));
        // A: rank0 in[0] -> rank1 out[0]
        let a = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let a1 = p.copy(&a, 1, BufferKind::Output, 0).unwrap();
        // X: rank1 out[0] -> rank0 in[1]  (writes what B will read)
        let _ = p.copy(&a1, 0, BufferKind::Input, 1).unwrap();
        // B: rank0 in[1] -> rank1 out[1]
        let b = p.chunk(0, BufferKind::Input, 1, 1).unwrap();
        let _ = p.copy(&b, 1, BufferKind::Output, 1).unwrap();
        let mut dag = lower(&p);
        let nodes_before = dag.nodes.len();
        let edges_before = dag.comm_edges.len();
        assert_eq!(aggregate(&mut dag), 0, "cyclic merge must be reverted");
        assert_eq!(dag.nodes.len(), nodes_before);
        assert_eq!(dag.comm_edges.len(), edges_before);
        assert!(dag.nodes.iter().all(|n| n.alive));
    }

    #[test]
    fn aggregation_recovers_figure_9_from_unaggregated_source() {
        // Build the Two-Step AllToAll WITHOUT multi-count sends; the pass
        // should merge each destination node's G chunks back into one
        // transfer per (GPU, destination node) pair.
        let (n_dim, g_dim) = (2usize, 3usize);
        let rank = |node: usize, gpu: usize| node * g_dim + gpu;
        let coll = Collective::all_to_all(n_dim * g_dim, 1);
        let mut p = Program::new("two_step_noagg", coll);
        for n in 0..n_dim {
            for g in 0..g_dim {
                for m in 0..n_dim {
                    for i in 0..g_dim {
                        let c = p
                            .chunk(rank(m, i), BufferKind::Input, rank(n, g), 1)
                            .unwrap();
                        if n == m {
                            let _ = p
                                .copy(&c, rank(n, g), BufferKind::Output, rank(m, i))
                                .unwrap();
                        } else {
                            let _ = p
                                .copy(&c, rank(m, g), BufferKind::Scratch, rank(n, i))
                                .unwrap();
                        }
                    }
                    if n != m {
                        for i in 0..g_dim {
                            let c = p
                                .chunk(rank(m, g), BufferKind::Scratch, n * g_dim + i, 1)
                                .unwrap();
                            let _ = p
                                .copy(&c, rank(n, g), BufferKind::Output, m * g_dim + i)
                                .unwrap();
                        }
                    }
                }
            }
        }
        let mut dag = lower(&p);
        let cross_before = cross_sends(&dag, g_dim);
        let merges = aggregate(&mut dag);
        let cross_after = cross_sends(&dag, g_dim);
        assert!(merges > 0);
        // Every (gpu, other node) pair collapses to a single IB send.
        assert_eq!(cross_after, n_dim * (n_dim - 1) * g_dim);
        assert_eq!(cross_before, cross_after * g_dim);
    }

    fn cross_sends(dag: &InstrDag, g_dim: usize) -> usize {
        dag.comm_edges
            .iter()
            .filter(|e| dag.nodes[e.send].rank / g_dim != dag.nodes[e.recv].rank / g_dim)
            .count()
    }
}
