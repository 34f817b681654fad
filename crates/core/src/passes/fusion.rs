//! Instruction fusion peepholes (§4.3).
//!
//! Three rewrites combine consecutive base instructions into fused ones:
//!
//! * **rcs** — a back-to-back `recv` and `send` of the same chunk becomes a
//!   `recvCopySend`. If multiple sends depend on the receive, the send on
//!   the longest path in the Instruction DAG is fused.
//! * **rrcs** — a back-to-back `recvReduceCopy` and `send` of the same
//!   chunk becomes a `recvReduceCopySend`.
//! * **rrs** — a special case of rrcs: when the reduction result is never
//!   used locally (it is later overwritten), the local store is dropped and
//!   the cheaper `recvReduceSend` is used.

use std::collections::HashMap;

use crate::dag::{Adjacency, EdgeKind, InstrDag, InstrNode, InstrOp};

/// Applies the fusion peepholes in place and compacts the DAG.
///
/// Fusion never crosses channel directives: a receive and send with
/// distinct explicit channels stay separate, because a chain of fused
/// instructions must share one channel (§5.2).
///
/// Linear in nodes + edges: the per-node edge lists are built once, and
/// each receive then looks only at its own out-edges and at those of the
/// send it fuses with. A fused send `v` is not rewired in place; `merged`
/// maps it to its receive `u`, and every edge endpoint is mapped through
/// it once at the end.
pub fn fuse(dag: &mut InstrDag) {
    let rev_depth = reverse_depths(dag);
    let out = dag.out_edge_index();

    // Predecessors per node over all edge kinds, to guarantee the fused
    // send's only dependency is its receive (merging anything else could
    // create a cycle).
    let pred = Adjacency::build(
        dag.nodes.len(),
        dag.proc_edges.iter().map(|&(u, v, _)| (v, u)),
    );

    let (send_edge, recv_edge) = dag.comm_edge_index();
    // The node each node now lives in: itself, or the receive a send was
    // fused into. Fused receives are never merged again, so one lookup
    // resolves any endpoint.
    let mut merged: Vec<usize> = (0..dag.nodes.len()).collect();

    // Monotonicity guard: per (rank, recv_peer, send_peer, channel) the
    // provenance positions of fused pairs must increase on both the receive
    // and the send side, or the per-connection FIFO orders would inverse
    // each other and deadlock the schedule.
    let mut last_fused: HashMap<(usize, usize, usize, usize), (usize, usize)> = HashMap::new();

    for (u, in_edge) in recv_edge.iter().enumerate() {
        if !dag.nodes[u].alive {
            continue;
        }
        let u_op = dag.nodes[u].op;
        if !matches!(u_op, InstrOp::Recv | InstrOp::RecvReduceCopy) {
            continue;
        }
        let u_dst = dag.nodes[u].dst;
        let u_count = dag.nodes[u].count;
        let u_rank = dag.nodes[u].rank;
        let in_edge = in_edge.expect("recv has a comm edge");
        let in_channel = dag.comm_edges[in_edge].channel;
        // Live out-edges of a node, endpoints resolved through merges.
        let live_out = |node: usize| {
            out.of(node).iter().filter_map(|&i| {
                let (_, to, kind) = dag.proc_edges[i];
                let to = merged[to];
                dag.nodes[to].alive.then_some((to, kind))
            })
        };

        // Candidate sends: RAW successors reading exactly the received
        // chunk, whose only dependency is this receive.
        let mut best: Option<(usize, usize)> = None; // (rev_depth, node)
        let mut raw_successors = 0usize;
        for (to, kind) in live_out(u) {
            if kind == EdgeKind::Raw {
                raw_successors += 1;
            }
            if kind != EdgeKind::Raw
                || dag.nodes[to].op != InstrOp::Send
                || dag.nodes[to].rank != u_rank
                || dag.nodes[to].src != u_dst
                || dag.nodes[to].count != u_count
            {
                continue;
            }
            // The send must depend on nothing but this receive.
            if !matches!(pred.of(to), &[p] if merged[p] == u) {
                continue;
            }
            // Channel directives must be compatible.
            let out_edge = send_edge[to].expect("send has a comm edge");
            let out_channel = dag.comm_edges[out_edge].channel;
            if let (Some(a), Some(b)) = (in_channel, out_channel) {
                if a != b {
                    continue;
                }
            }
            let cand = (rev_depth[to], to);
            if best.is_none_or(|b| cand.0 > b.0 || (cand.0 == b.0 && cand.1 < b.1)) {
                best = Some(cand);
            }
        }
        let Some((_, v)) = best else { continue };
        let out_edge = send_edge[v].expect("send has a comm edge");

        // FIFO-order monotonicity guard.
        let send_peer = dag.nodes[v].send_peer.expect("send has a peer");
        let recv_peer = dag.nodes[u].recv_peer.expect("recv has a peer");
        let unified_channel = in_channel.or(dag.comm_edges[out_edge].channel);
        let key = (u_rank, recv_peer, send_peer, unified_channel.unwrap_or(0));
        let recv_pos = dag.nodes[u].recv_chunk_node;
        let send_pos = dag.nodes[v].chunk_node;
        if let Some(&(lr, ls)) = last_fused.get(&key) {
            if !(recv_pos > lr && send_pos > ls) {
                continue;
            }
        }
        last_fused.insert(key, (recv_pos, send_pos));

        // Decide the fused opcode.
        let fused_op = match u_op {
            InstrOp::Recv => InstrOp::RecvCopySend,
            InstrOp::RecvReduceCopy => {
                // rrs: the only reader of the reduction result is the fused
                // send and the location is later overwritten, so the local
                // store can be skipped.
                let only_reader = raw_successors == 1;
                let overwritten_later =
                    live_out(u).any(|(to, kind)| to != v && kind == EdgeKind::Waw);
                let war_overwrites_send = live_out(v).any(|(_, kind)| kind == EdgeKind::War);
                if only_reader && (overwritten_later || war_overwrites_send) {
                    InstrOp::RecvReduceSend
                } else {
                    InstrOp::RecvReduceCopySend
                }
            }
            _ => unreachable!("only recv/rrc enter fusion"),
        };

        // Merge v into u.
        dag.nodes[u].op = fused_op;
        dag.nodes[u].send_peer = Some(send_peer);
        dag.nodes[u].chunk_node = dag.nodes[v].chunk_node;
        if fused_op == InstrOp::RecvReduceSend {
            dag.nodes[u].dst = None;
        }
        dag.nodes[v].alive = false;
        merged[v] = u;

        // Rewire: v's outgoing comm edge now originates at u; both comm
        // edges carry the unified channel.
        dag.comm_edges[out_edge].send = u;
        dag.comm_edges[out_edge].channel = unified_channel;
        dag.comm_edges[in_edge].channel = unified_channel;
    }

    // Move the fused sends' processing edges onto their receives, dropping
    // the internal ones.
    for e in &mut dag.proc_edges {
        e.0 = merged[e.0];
        e.1 = merged[e.1];
    }
    dag.proc_edges.retain(|&(a, b, _)| a != b);
    dag.compact();
}

/// Splits fused instructions back into their receive and send halves.
///
/// Used when per-connection FIFO ordering of fused chains would deadlock
/// (the receive orders and send orders of two connections cross): the
/// scheduler detects the cycle and unfuses the instructions on it, trading
/// the register-forwarding optimization for a correct schedule.
pub fn unfuse(dag: &mut InstrDag, nodes: &[usize]) {
    use crate::buffer::Loc;

    let out = dag.out_edge_index();
    let (send_edge, _) = dag.comm_edge_index();
    for &u in nodes {
        let op = dag.nodes[u].op;
        let (recv_op, send_src): (InstrOp, Option<Loc>) = match op {
            InstrOp::RecvCopySend => (InstrOp::Recv, dag.nodes[u].dst),
            InstrOp::RecvReduceCopySend => (InstrOp::RecvReduceCopy, dag.nodes[u].dst),
            // rrs dropped its local store; restore it (dst == the local
            // operand location) so the send can read it back.
            InstrOp::RecvReduceSend => (InstrOp::RecvReduceCopy, dag.nodes[u].src),
            _ => continue,
        };
        let send_peer = dag.nodes[u].send_peer.expect("fused op has a send peer");
        // Restore the receive half in place.
        dag.nodes[u].op = recv_op;
        dag.nodes[u].send_peer = None;
        if op == InstrOp::RecvReduceSend {
            dag.nodes[u].dst = dag.nodes[u].src;
        }
        let send_chunk = dag.nodes[u].chunk_node;
        dag.nodes[u].chunk_node = dag.nodes[u].recv_chunk_node;
        // Materialize the send half as a new node.
        let v = dag.nodes.len();
        dag.nodes.push(InstrNode {
            rank: dag.nodes[u].rank,
            op: InstrOp::Send,
            src: send_src,
            dst: None,
            count: dag.nodes[u].count,
            send_peer: Some(send_peer),
            recv_peer: None,
            chunk_node: send_chunk,
            recv_chunk_node: send_chunk,
            alive: true,
        });
        // The outgoing comm edge now originates at the new send.
        let e = send_edge[u].expect("fused op has a comm edge");
        dag.comm_edges[e].send = v;
        // The send reads what the receive produced.
        dag.proc_edges.push((u, v, EdgeKind::Raw));
        // Conservatively move ordering that hinged on the send's read: any
        // WAR edge out of the fused node could protect either half, so the
        // new send inherits copies of them. The edges this loop adds never
        // leave a fused node as WAR, so `out` built on entry lists them all.
        for &i in out.of(u) {
            let (_, to, kind) = dag.proc_edges[i];
            if kind == EdgeKind::War {
                dag.proc_edges.push((v, to, kind));
            }
        }
    }
}

/// Longest path (in edges) from each node to a sink, over processing and
/// communication edges.
fn reverse_depths(dag: &InstrDag) -> Vec<usize> {
    let n = dag.nodes.len();
    let proc = dag.proc_edges.iter().map(|&(u, v, _)| (u, v));
    let comm = dag.comm_edges.iter().map(|e| (e.send, e.recv));
    let succ = Adjacency::build(n, proc.chain(comm));
    // Process in reverse topological order; node ids are already close to
    // topological (trace) order, so a simple longest-path DP over reversed
    // ids works because every edge goes from a lower to a higher id.
    let mut depth = vec![0usize; n];
    for u in (0..n).rev() {
        for &v in succ.of(u) {
            depth[u] = depth[u].max(depth[v] + 1);
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::collective::Collective;
    use crate::dag::ChunkDag;
    use crate::program::Program;

    fn lower(p: &Program) -> InstrDag {
        let mut dag = InstrDag::build(&ChunkDag::build(p, 1).unwrap());
        fuse(&mut dag);
        dag
    }

    #[test]
    fn ring_allgather_middle_hops_become_rcs() {
        let n = 4;
        let mut p = Program::new("rag", Collective::all_gather(n, 1, false));
        for r in 0..n {
            let c = p.chunk(r, BufferKind::Input, 0, 1).unwrap();
            let mut c = p.copy(&c, r, BufferKind::Output, r).unwrap();
            for step in 1..n {
                let next = (r + step) % n;
                c = p.copy(&c, next, BufferKind::Output, r).unwrap();
            }
        }
        let dag = lower(&p);
        let rcs = dag
            .nodes
            .iter()
            .filter(|i| i.op == InstrOp::RecvCopySend)
            .count();
        let recv = dag.nodes.iter().filter(|i| i.op == InstrOp::Recv).count();
        // Each of the n chunks is forwarded through n-2 middle hops (fused)
        // and lands with one final plain recv.
        assert_eq!(rcs, n * (n - 2));
        assert_eq!(recv, n);
    }

    #[test]
    fn ring_reduce_scatter_uses_rrs_and_final_rrc() {
        // Ring ReduceScatter from Fig. 3b, one ring of 3 ranks, in-place.
        let n = 3;
        let mut p = Program::new("rrs", Collective::reduce_scatter(n, 1, true));
        for r in 0..n {
            let mut c = p.chunk((r + 1) % n, BufferKind::Input, r, 1).unwrap();
            for step in 1..n {
                let next = (r + 1 + step) % n;
                let dst = p.chunk(next, BufferKind::Input, r, 1).unwrap();
                c = p.reduce(&dst, &c).unwrap();
            }
        }
        let dag = lower(&p);
        // Middle reduction hops forward their result without using it
        // locally only if the location is overwritten later; in
        // ReduceScatter it is not, so they stay rrcs; the final hop is rrc.
        let rrc = dag
            .nodes
            .iter()
            .filter(|i| i.op == InstrOp::RecvReduceCopy)
            .count();
        let fused_sends = dag
            .nodes
            .iter()
            .filter(|i| matches!(i.op, InstrOp::RecvReduceCopySend | InstrOp::RecvReduceSend))
            .count();
        assert_eq!(rrc, n);
        assert_eq!(fused_sends, n * (n - 2));
    }

    #[test]
    fn rrs_used_when_result_is_overwritten() {
        // Ring AllReduce on 2 ranks: reduce-scatter then allgather. The
        // rrc's result on the middle hop is overwritten by the incoming
        // allgather copy, enabling rrs... with 2 ranks each chunk makes one
        // reduce hop and one copy hop; the reduce result IS used locally
        // (it is the final value), so expect rrcs or rrc here instead.
        let n = 2;
        let mut p = Program::new("ar", Collective::all_reduce(n, n, true));
        for r in 0..n {
            // reduce scatter phase for chunk r
            let mut c = p.chunk((r + 1) % n, BufferKind::Input, r, 1).unwrap();
            for step in 1..n {
                let next = (r + 1 + step) % n;
                let dst = p.chunk(next, BufferKind::Input, r, 1).unwrap();
                c = p.reduce(&dst, &c).unwrap();
            }
            // allgather phase for chunk r
            for step in 0..(n - 1) {
                let next = (r + 1 + step) % n;
                c = p.copy(&c, next, BufferKind::Input, r).unwrap();
            }
        }
        let dag = lower(&p);
        // The reduction lands on the rank that owns chunk r and is then
        // forwarded: that forward is fused with the rrc into rrcs (result
        // still needed locally as the final output).
        assert!(dag
            .nodes
            .iter()
            .any(|i| i.op == InstrOp::RecvReduceCopySend));
        // And the copies back are plain recvs on the last hop.
        assert!(dag.nodes.iter().any(|i| i.op == InstrOp::Recv));
    }

    #[test]
    fn fusion_respects_channel_directives() {
        let mut p = Program::new("t", Collective::all_gather(3, 1, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c = p.copy_on(&c, 1, BufferKind::Output, 0, 0).unwrap();
        let _ = p.copy_on(&c, 2, BufferKind::Output, 0, 1).unwrap();
        let dag = lower(&p);
        // recv on channel 0 and send on channel 1 must not fuse.
        assert!(dag.nodes.iter().all(|i| i.op != InstrOp::RecvCopySend));
        assert_eq!(dag.nodes.len(), 4);
    }

    #[test]
    fn fusion_fuses_compatible_channels() {
        let mut p = Program::new("t", Collective::all_gather(3, 1, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c = p.copy_on(&c, 1, BufferKind::Output, 0, 1).unwrap();
        let _ = p.copy_on(&c, 2, BufferKind::Output, 0, 1).unwrap();
        let dag = lower(&p);
        assert!(dag.nodes.iter().any(|i| i.op == InstrOp::RecvCopySend));
        // The fused chain's comm edges share channel 1.
        assert!(dag.comm_edges.iter().all(|e| e.channel == Some(1)));
    }

    #[test]
    fn send_with_extra_dependency_is_not_fused() {
        // recv a chunk, but forward it only after overwriting another loc
        // it also... construct: the send depends on the recv AND a local
        // copy (via WAR on the send's source? Simplest: two writers).
        let mut p = Program::new("t", Collective::all_gather(2, 2, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let cr = p.copy(&c, 1, BufferKind::Output, 0).unwrap();
        // Local op that writes the same location again on rank 1 (WAW),
        // then a send of the *second* value.
        let c2 = p.chunk(1, BufferKind::Input, 0, 1).unwrap();
        let c3 = p.copy(&c2, 1, BufferKind::Output, 0).unwrap();
        let _ = p.copy(&c3, 0, BufferKind::Output, 1).unwrap();
        let _ = cr; // first reference intentionally unused after overwrite
        let dag = lower(&p);
        // The send's source was written by the local copy, not the recv, so
        // the recv must not fuse with it.
        assert!(dag.nodes.iter().all(|i| i.op != InstrOp::RecvCopySend));
    }

    #[test]
    fn unfuse_restores_recv_and_send_halves() {
        let n = 4;
        let mut p = Program::new("rag", Collective::all_gather(n, 1, false));
        for r in 0..n {
            let c = p.chunk(r, BufferKind::Input, 0, 1).unwrap();
            let mut c = p.copy(&c, r, BufferKind::Output, r).unwrap();
            for step in 1..n {
                let next = (r + step) % n;
                c = p.copy(&c, next, BufferKind::Output, r).unwrap();
            }
        }
        let mut dag = lower(&p);
        let fused: Vec<usize> = dag
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.op == InstrOp::RecvCopySend)
            .map(|(i, _)| i)
            .collect();
        assert!(!fused.is_empty());
        let before = dag.nodes.iter().filter(|x| x.alive).count();
        unfuse(&mut dag, &fused);
        // Every unfused rcs adds one node (the materialized send).
        let after = dag.nodes.iter().filter(|x| x.alive).count();
        assert_eq!(after, before + fused.len());
        assert!(dag.nodes.iter().all(|x| x.op != InstrOp::RecvCopySend));
        // Comm edges still pair a send with a recv.
        for e in &dag.comm_edges {
            assert!(dag.nodes[e.send].op == InstrOp::Send);
            assert!(dag.nodes[e.recv].op.has_recv());
        }
        // The restored recv feeds the restored send.
        for &u in &fused {
            assert_eq!(dag.nodes[u].op, InstrOp::Recv);
            assert!(dag.proc_edges.iter().any(|&(from, to, kind)| from == u
                && kind == EdgeKind::Raw
                && dag.nodes[to].op == InstrOp::Send));
        }
    }

    #[test]
    fn unfuse_rrs_restores_the_local_store() {
        let n = 3;
        let mut p = Program::new("ar", Collective::all_reduce(n, n, true));
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
        let mut dag = lower(&p);
        let rrs: Vec<usize> = dag
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.op == InstrOp::RecvReduceSend)
            .map(|(i, _)| i)
            .collect();
        assert!(!rrs.is_empty(), "ring allreduce middle hops should be rrs");
        unfuse(&mut dag, &rrs);
        for &u in &rrs {
            assert_eq!(dag.nodes[u].op, InstrOp::RecvReduceCopy);
            assert!(
                dag.nodes[u].dst.is_some(),
                "rrs unfuse must restore the store"
            );
        }
    }

    #[test]
    fn longest_path_send_is_chosen() {
        // One recv with two dependent sends; the send whose chunk travels
        // further is fused.
        let mut p = Program::new("t", Collective::all_gather(4, 1, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c1 = p.copy(&c, 1, BufferKind::Output, 0).unwrap();
        // Short branch: direct copy to rank 3's output.
        let _ = p.copy(&c1, 3, BufferKind::Output, 0).unwrap();
        // Long branch: hop through rank 2 then rank 3 scratch.
        let c2 = p.copy(&c1, 2, BufferKind::Output, 0).unwrap();
        let _ = p.copy(&c2, 3, BufferKind::Scratch, 0).unwrap();
        let dag = lower(&p);
        let fused: Vec<_> = dag
            .nodes
            .iter()
            .filter(|i| i.op == InstrOp::RecvCopySend)
            .collect();
        assert_eq!(fused.len(), 2); // rank1's recv+long-send, rank2's hop
                                    // rank 1's fused instruction forwards to rank 2 (the long branch).
        let r1 = fused.iter().find(|i| i.rank == 1).unwrap();
        assert_eq!(r1.send_peer, Some(2));
    }
}
