//! The Instruction DAG (§4.2).
//!
//! Each Chunk DAG operation expands into point-to-point or local
//! instructions: a remote copy becomes a `send` and a `recv`, a remote
//! reduce becomes a `send` and a `recvReduceCopy` (`rrc`), and local
//! operations become single `copy`/`reduce` instructions. Matching sends
//! and receives are connected by *communication edges*; execution-order
//! dependencies within a rank are *processing edges* labelled by their
//! hazard kind (RAW/WAR/WAW), which the fusion pass (§4.3) and scheduler
//! (§5.2) consume.

use std::fmt;

use crate::buffer::Loc;
use crate::collective::Collective;
use crate::dag::chunk_dag::ChunkDag;
use crate::dag::hazard::Hazards;
use crate::program::TraceOpKind;

/// MSCCL-IR instruction kinds (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrOp {
    /// Send chunks from a local buffer to the remote peer.
    Send,
    /// Receive chunks from the remote peer into a local buffer.
    Recv,
    /// Local copy.
    Copy,
    /// Local reduce (into the destination).
    Reduce,
    /// Fused: receive, reduce with a local chunk, store locally (`rrc`).
    RecvReduceCopy,
    /// Fused: receive, store locally, forward to the send peer (`rcs`).
    RecvCopySend,
    /// Fused: receive, reduce with a local chunk, forward without storing
    /// (`rrs`).
    RecvReduceSend,
    /// Fused: receive, reduce with a local chunk, store locally and forward
    /// (`rrcs`).
    RecvReduceCopySend,
}

impl InstrOp {
    /// Whether the instruction receives from a peer.
    #[must_use]
    pub fn has_recv(self) -> bool {
        !matches!(self, InstrOp::Send | InstrOp::Copy | InstrOp::Reduce)
    }

    /// Whether the instruction sends to a peer.
    #[must_use]
    pub fn has_send(self) -> bool {
        matches!(
            self,
            InstrOp::Send
                | InstrOp::RecvCopySend
                | InstrOp::RecvReduceSend
                | InstrOp::RecvReduceCopySend
        )
    }

    /// Whether the instruction applies the reduction operator.
    #[must_use]
    pub fn reduces(self) -> bool {
        matches!(
            self,
            InstrOp::Reduce
                | InstrOp::RecvReduceCopy
                | InstrOp::RecvReduceSend
                | InstrOp::RecvReduceCopySend
        )
    }

    /// Whether the instruction writes its destination buffer.
    #[must_use]
    pub fn writes_local(self) -> bool {
        matches!(
            self,
            InstrOp::Recv
                | InstrOp::Copy
                | InstrOp::Reduce
                | InstrOp::RecvReduceCopy
                | InstrOp::RecvCopySend
                | InstrOp::RecvReduceCopySend
        )
    }

    /// Short mnemonic used in MSCCL-IR files.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            InstrOp::Send => "s",
            InstrOp::Recv => "r",
            InstrOp::Copy => "cpy",
            InstrOp::Reduce => "re",
            InstrOp::RecvReduceCopy => "rrc",
            InstrOp::RecvCopySend => "rcs",
            InstrOp::RecvReduceSend => "rrs",
            InstrOp::RecvReduceCopySend => "rrcs",
        }
    }

    /// Parses a mnemonic.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "s" => Some(InstrOp::Send),
            "r" => Some(InstrOp::Recv),
            "cpy" => Some(InstrOp::Copy),
            "re" => Some(InstrOp::Reduce),
            "rrc" => Some(InstrOp::RecvReduceCopy),
            "rcs" => Some(InstrOp::RecvCopySend),
            "rrs" => Some(InstrOp::RecvReduceSend),
            "rrcs" => Some(InstrOp::RecvReduceCopySend),
            _ => None,
        }
    }
}

impl fmt::Display for InstrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The hazard class of a processing edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Read-after-write: the successor consumes data the predecessor
    /// produced (a true dependency).
    Raw,
    /// Write-after-read: the successor overwrites data the predecessor
    /// read (a false dependency).
    War,
    /// Write-after-write: the successor overwrites the predecessor's
    /// output (a false dependency).
    Waw,
}

/// One instruction node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrNode {
    /// Executing rank.
    pub rank: usize,
    /// Instruction kind.
    pub op: InstrOp,
    /// Local source operand (for sends: the data to send; for reduces: the
    /// local operand), if any.
    pub src: Option<Loc>,
    /// Local destination operand, if any.
    pub dst: Option<Loc>,
    /// Contiguous refined chunks the instruction moves.
    pub count: usize,
    /// Peer receiving this instruction's send half, if any.
    pub send_peer: Option<usize>,
    /// Peer feeding this instruction's receive half, if any.
    pub recv_peer: Option<usize>,
    /// Chunk DAG node this instruction was generated from (the send half's
    /// origin for fused instructions).
    pub chunk_node: usize,
    /// Chunk DAG node of the receive half (differs from `chunk_node` after
    /// fusion).
    pub recv_chunk_node: usize,
    /// Tombstone flag used by the fusion pass.
    pub alive: bool,
}

impl InstrNode {
    /// The local operands this instruction reads on its own rank (each a
    /// `Loc` of that rank), `count` chunks long, in read order.
    fn read_operands(&self) -> [Option<Loc>; 2] {
        match self.op {
            // Fused receive+reduce reads its local operand.
            InstrOp::Send
            | InstrOp::Copy
            | InstrOp::RecvReduceCopy
            | InstrOp::RecvReduceSend
            | InstrOp::RecvReduceCopySend => [self.src, None],
            InstrOp::Reduce => [self.src, self.dst],
            InstrOp::Recv | InstrOp::RecvCopySend => [None, None],
        }
    }

    /// The local operand this instruction writes on its own rank, if any.
    pub(crate) fn written(&self) -> Option<Loc> {
        self.dst.filter(|_| self.op.writes_local())
    }
}

/// A communication edge connecting a send half to its receive half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommEdge {
    /// Node id performing the send.
    pub send: usize,
    /// Node id performing the receive.
    pub recv: usize,
    /// Channel directive inherited from the chunk operation, if any.
    pub channel: Option<usize>,
}

/// The Instruction DAG.
#[derive(Debug, Clone)]
pub struct InstrDag {
    /// Instruction nodes; dead nodes (consumed by fusion) have
    /// `alive == false`.
    pub nodes: Vec<InstrNode>,
    /// Processing edges `(from, to, kind)` between instructions on the same
    /// rank.
    pub proc_edges: Vec<(usize, usize, EdgeKind)>,
    /// Communication edges between matching sends and receives.
    pub comm_edges: Vec<CommEdge>,
    /// The refined collective.
    pub collective: Collective,
    /// Refined scratch chunks per rank.
    pub scratch_chunks: Vec<usize>,
    /// The global chunk refinement factor applied during DAG construction.
    pub refinement: usize,
}

impl InstrDag {
    /// Expands a Chunk DAG into instructions (§4.2).
    #[must_use]
    pub fn build(chunk_dag: &ChunkDag) -> Self {
        let collective = chunk_dag.collective().clone();
        let mut nodes: Vec<InstrNode> = Vec::new();
        let mut proc_edges: Vec<(usize, usize, EdgeKind)> = Vec::new();
        let mut comm_edges: Vec<CommEdge> = Vec::new();
        let mut hazards = Hazards::new(&collective, chunk_dag.scratch_chunks());
        // One node's dependencies, in the order their edges are emitted:
        // fusion consumes `proc_edges` in this order.
        let mut raw: Vec<usize> = Vec::new();
        let mut false_deps: Vec<(usize, EdgeKind)> = Vec::new();

        let mut add_node = |node: InstrNode| {
            let id = nodes.len();
            raw.clear();
            false_deps.clear();
            for loc in node.read_operands().into_iter().flatten() {
                for at in hazards.range(loc, node.count) {
                    if let Some(w) = hazards.last_writer(at) {
                        if !raw.contains(&w) {
                            raw.push(w);
                        }
                    }
                    hazards.read(at, id);
                }
            }
            // The written chunks are distinct locations, so each can be
            // checked and then claimed before the next.
            let known = |n: usize, false_deps: &[(usize, EdgeKind)]| {
                raw.contains(&n) || false_deps.iter().any(|&(d, _)| d == n)
            };
            if let Some(loc) = node.written() {
                for at in hazards.range(loc, node.count) {
                    if let Some(w) = hazards.last_writer(at) {
                        if !known(w, &false_deps) {
                            false_deps.push((w, EdgeKind::Waw));
                        }
                    }
                    for &r in hazards.readers(at) {
                        if r != id && !known(r, &false_deps) {
                            false_deps.push((r, EdgeKind::War));
                        }
                    }
                    hazards.write(at, id);
                }
            }
            proc_edges.extend(raw.iter().map(|&w| (w, id, EdgeKind::Raw)));
            proc_edges.extend(false_deps.iter().map(|&(n, kind)| (n, id, kind)));
            nodes.push(node);
            id
        };

        for (cid, cn) in chunk_dag.nodes().iter().enumerate() {
            if cn.is_remote() {
                let send = add_node(InstrNode {
                    rank: cn.src.rank,
                    op: InstrOp::Send,
                    src: Some(cn.src),
                    dst: Some(cn.dst),
                    count: cn.count,
                    send_peer: Some(cn.dst.rank),
                    recv_peer: None,
                    chunk_node: cid,
                    recv_chunk_node: cid,
                    alive: true,
                });
                let recv_op = match cn.kind {
                    TraceOpKind::Copy => InstrOp::Recv,
                    TraceOpKind::Reduce => InstrOp::RecvReduceCopy,
                };
                let recv = add_node(InstrNode {
                    rank: cn.dst.rank,
                    op: recv_op,
                    // rrc reduces the incoming data with the chunk
                    // already at the destination.
                    src: (cn.kind == TraceOpKind::Reduce).then_some(cn.dst),
                    dst: Some(cn.dst),
                    count: cn.count,
                    send_peer: None,
                    recv_peer: Some(cn.src.rank),
                    chunk_node: cid,
                    recv_chunk_node: cid,
                    alive: true,
                });
                comm_edges.push(CommEdge {
                    send,
                    recv,
                    channel: cn.channel,
                });
            } else {
                let op = match cn.kind {
                    TraceOpKind::Copy => InstrOp::Copy,
                    TraceOpKind::Reduce => InstrOp::Reduce,
                };
                let _ = add_node(InstrNode {
                    rank: cn.src.rank,
                    op,
                    src: Some(cn.src),
                    dst: Some(cn.dst),
                    count: cn.count,
                    send_peer: None,
                    recv_peer: None,
                    chunk_node: cid,
                    recv_chunk_node: cid,
                    alive: true,
                });
            }
        }

        Self {
            nodes,
            proc_edges,
            comm_edges,
            collective,
            scratch_chunks: chunk_dag.scratch_chunks().to_vec(),
            refinement: chunk_dag.refinement(),
        }
    }

    /// Number of live instructions.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Drops tombstoned nodes and renumbers everything contiguously.
    /// Call after fusion.
    pub fn compact(&mut self) {
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.nodes.len());
        let mut next = 0usize;
        for n in &self.nodes {
            if n.alive {
                remap.push(Some(next));
                next += 1;
            } else {
                remap.push(None);
            }
        }
        self.nodes.retain(|n| n.alive);
        self.proc_edges
            .retain(|&(u, v, _)| remap[u].is_some() && remap[v].is_some());
        for e in &mut self.proc_edges {
            e.0 = remap[e.0].expect("retained");
            e.1 = remap[e.1].expect("retained");
        }
        // Deduplicate edges that collapsed onto each other; prefer RAW over
        // false dependencies so fusion conditions stay visible.
        self.proc_edges
            .sort_by_key(|&(u, v, k)| (u, v, edge_rank(k)));
        self.proc_edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        self.comm_edges
            .retain(|e| remap[e.send].is_some() && remap[e.recv].is_some());
        for e in &mut self.comm_edges {
            e.send = remap[e.send].expect("retained");
            e.recv = remap[e.recv].expect("retained");
        }
    }

    /// Indices into `proc_edges` of each node's outgoing edges, in edge
    /// order: one O(edges) pass, so a pass can then walk a node's own edges
    /// instead of rescanning the whole edge list.
    pub(crate) fn out_edge_index(&self) -> Adjacency {
        Adjacency::build(
            self.nodes.len(),
            self.proc_edges
                .iter()
                .enumerate()
                .map(|(i, &(u, _, _))| (u, i)),
        )
    }

    /// The communication edge each node sends on and receives on, indexed
    /// by node id.
    pub(crate) fn comm_edge_index(&self) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
        let mut send = vec![None; self.nodes.len()];
        let mut recv = vec![None; self.nodes.len()];
        for (i, e) in self.comm_edges.iter().enumerate() {
            send[e.send] = Some(i);
            recv[e.recv] = Some(i);
        }
        (send, recv)
    }
}

/// Per-node lists in one flat array: node `n`'s items are
/// `items[start[n]..start[n + 1]]`, in the order they were given.
pub(crate) struct Adjacency {
    start: Vec<usize>,
    items: Vec<usize>,
}

impl Adjacency {
    /// Groups `(node, item)` pairs by node with a counting sort.
    pub(crate) fn build(nodes: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
        let mut start = vec![0usize; nodes + 1];
        for (n, _) in pairs.clone() {
            start[n + 1] += 1;
        }
        for n in 0..nodes {
            start[n + 1] += start[n];
        }
        let mut fill = start.clone();
        let mut items = vec![0usize; start[nodes]];
        for (n, item) in pairs {
            items[fill[n]] = item;
            fill[n] += 1;
        }
        Self { start, items }
    }

    /// The items of `node`.
    pub(crate) fn of(&self, node: usize) -> &[usize] {
        &self.items[self.start[node]..self.start[node + 1]]
    }
}

fn edge_rank(kind: EdgeKind) -> u8 {
    match kind {
        EdgeKind::Raw => 0,
        EdgeKind::War => 1,
        EdgeKind::Waw => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::collective::Collective;
    use crate::program::Program;

    fn build(p: &Program) -> InstrDag {
        InstrDag::build(&ChunkDag::build(p, 1).unwrap())
    }

    #[test]
    fn remote_copy_expands_to_send_recv() {
        let mut p = Program::new("t", Collective::all_gather(2, 1, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c, 1, BufferKind::Output, 0).unwrap();
        let c = p.chunk(1, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c, 0, BufferKind::Output, 1).unwrap();
        // Fill in the local chunks to make it complete (not required here).
        let dag = build(&p);
        assert_eq!(dag.nodes[0].op, InstrOp::Send);
        assert_eq!(dag.nodes[0].send_peer, Some(1));
        assert_eq!(dag.nodes[1].op, InstrOp::Recv);
        assert_eq!(dag.nodes[1].recv_peer, Some(0));
        assert_eq!(dag.comm_edges[0].send, 0);
        assert_eq!(dag.comm_edges[0].recv, 1);
    }

    #[test]
    fn remote_reduce_expands_to_send_rrc() {
        let mut p = Program::new("t", Collective::all_reduce(2, 1, true));
        let c0 = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c1 = p.chunk(1, BufferKind::Input, 0, 1).unwrap();
        let _ = p.reduce(&c1, &c0).unwrap();
        let dag = build(&p);
        assert_eq!(dag.nodes[0].op, InstrOp::Send);
        assert_eq!(dag.nodes[1].op, InstrOp::RecvReduceCopy);
        // rrc reads its local operand (the destination chunk).
        assert_eq!(
            dag.nodes[1].read_operands(),
            [Some(Loc::new(1, BufferKind::Input, 0)), None]
        );
    }

    #[test]
    fn local_ops_stay_single_instructions() {
        let mut p = Program::new("t", Collective::all_reduce(2, 2, true));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c, 0, BufferKind::Input, 1).unwrap();
        let dag = build(&p);
        assert_eq!(dag.nodes.len(), 1);
        assert_eq!(dag.nodes[0].op, InstrOp::Copy);
    }

    #[test]
    fn raw_edge_from_recv_to_forwarding_send() {
        // Ring step: rank0 -> rank1 -> rank0's neighbour (here rank 0 again
        // is invalid; use 3 ranks).
        let mut p = Program::new("t", Collective::all_gather(3, 1, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c = p.copy(&c, 1, BufferKind::Output, 0).unwrap();
        let _ = p.copy(&c, 2, BufferKind::Output, 0).unwrap();
        let dag = build(&p);
        // nodes: 0 send@0, 1 recv@1, 2 send@1, 3 recv@2
        assert_eq!(dag.nodes[2].op, InstrOp::Send);
        assert_eq!(dag.nodes[2].rank, 1);
        assert!(dag.proc_edges.contains(&(1, 2, EdgeKind::Raw)));
    }

    #[test]
    fn waw_edge_on_overwrite() {
        let mut p = Program::new("t", Collective::all_gather(2, 1, false));
        let c0 = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c0, 1, BufferKind::Output, 0).unwrap();
        let c1 = p.chunk(1, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c1, 1, BufferKind::Output, 0).unwrap();
        let dag = build(&p);
        // Second recv overwrites first recv's destination.
        assert!(dag.proc_edges.iter().any(|&(u, v, k)| k == EdgeKind::Waw
            && dag.nodes[u].op == InstrOp::Recv
            && dag.nodes[v].op == InstrOp::Copy));
    }

    #[test]
    fn war_edge_when_read_then_overwritten() {
        let mut p = Program::new("t", Collective::all_reduce(2, 2, true));
        // Send input chunk 0 away, then overwrite it locally.
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&c, 1, BufferKind::Input, 1).unwrap();
        let c1 = p.chunk(0, BufferKind::Input, 1, 1).unwrap();
        let _ = p.copy(&c1, 0, BufferKind::Input, 0).unwrap();
        let dag = build(&p);
        // The local copy overwrites what the send read: WAR send -> copy.
        assert!(dag.proc_edges.iter().any(|&(u, v, k)| k == EdgeKind::War
            && dag.nodes[u].op == InstrOp::Send
            && dag.nodes[v].op == InstrOp::Copy));
    }

    #[test]
    fn compact_renumbers_consistently() {
        let mut p = Program::new("t", Collective::all_gather(3, 1, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c = p.copy(&c, 1, BufferKind::Output, 0).unwrap();
        let _ = p.copy(&c, 2, BufferKind::Output, 0).unwrap();
        let mut dag = build(&p);
        dag.nodes[1].alive = false; // pretend fusion consumed the recv
        dag.compact();
        assert_eq!(dag.nodes.len(), 3);
        // remaining comm edge endpoints stay valid
        for e in &dag.comm_edges {
            assert!(e.send < dag.nodes.len() && e.recv < dag.nodes.len());
        }
        for &(u, v, _) in &dag.proc_edges {
            assert!(u < dag.nodes.len() && v < dag.nodes.len());
        }
    }

    #[test]
    fn mnemonics_round_trip() {
        for op in [
            InstrOp::Send,
            InstrOp::Recv,
            InstrOp::Copy,
            InstrOp::Reduce,
            InstrOp::RecvReduceCopy,
            InstrOp::RecvCopySend,
            InstrOp::RecvReduceSend,
            InstrOp::RecvReduceCopySend,
        ] {
            assert_eq!(InstrOp::parse(op.mnemonic()), Some(op));
        }
        assert_eq!(InstrOp::parse("bogus"), None);
    }

    #[test]
    fn channel_directive_lands_on_comm_edge() {
        let mut p = Program::new("t", Collective::all_gather(2, 1, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy_on(&c, 1, BufferKind::Output, 0, 2).unwrap();
        let dag = build(&p);
        assert_eq!(dag.comm_edges[0].channel, Some(2));
    }
}
