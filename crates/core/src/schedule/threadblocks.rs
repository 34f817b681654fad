//! Thread block assignment (§5.2).
//!
//! Implements the paper's greedy heuristic:
//!
//! 1. compute each instruction's *depth* (max hops from a root) and
//!    *reverse depth* (max hops to a leaf) as priorities;
//! 2. create thread blocks for every unique (send-peer, receive-peer,
//!    channel) tuple (done during channel assignment);
//! 3. sort instructions into a global topological order with a heap,
//!    ordered by priority;
//! 4. assign instructions to their matching thread block in that order;
//!    flexible instructions (local copies) go to the thread block whose
//!    latest assigned instruction is earliest.
//!
//! Because instructions enter thread blocks in one global topological
//! order, the implicit dependencies of sequential execution cannot form
//! cycles, so the resulting MSCCL-IR is deadlock-free. Per-connection FIFO
//! edges (the k-th send on a connection pairs with the k-th receive) are
//! added explicitly before sorting so that send and receive orders agree.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use crate::dag::InstrDag;
use crate::error::{Error, Result};
use crate::order::Dag;
use crate::schedule::channels::ChannelAssignment;

/// How the k-th send on a connection is chosen (and therefore which
/// receive it pairs with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoOrder {
    /// Order sends by dependency depth (hop number): keeps pipelined
    /// algorithms systolic. May create ordering cycles in rare shapes,
    /// which the compiler resolves by unfusing or falling back to
    /// [`FifoOrder::Trace`].
    Depth,
    /// Order sends by trace position: provably acyclic for unfused
    /// programs (every edge then strictly increases the (position, role)
    /// pair), at the cost of head-of-line blocking in pipelines.
    Trace,
}

/// A fully scheduled thread block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledTb {
    /// Owning rank.
    pub rank: usize,
    /// Send peer, if the block owns a send connection.
    pub send_peer: Option<usize>,
    /// Receive peer, if the block owns a receive connection.
    pub recv_peer: Option<usize>,
    /// Channel of the block's connections.
    pub channel: usize,
    /// Instruction DAG node ids, in execution order.
    pub instrs: Vec<usize>,
}

/// The complete schedule: thread blocks plus cross-thread-block
/// synchronization.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// All thread blocks (globally numbered; group by `rank` for per-GPU
    /// programs).
    pub tbs: Vec<ScheduledTb>,
    /// For each instruction node: its `(thread block, step)` placement.
    pub node_place: Vec<(usize, usize)>,
    /// For each instruction node: `(thread block, step)` pairs that must
    /// execute before it (cross-thread-block dependencies).
    pub cross_deps: Vec<Vec<(usize, usize)>>,
    /// Whether other thread blocks wait on this instruction.
    pub has_dep: Vec<bool>,
    /// Channels used by the schedule.
    pub num_channels: usize,
}

#[derive(PartialEq, Eq)]
struct HeapEntry {
    depth: usize,
    rev_depth: usize,
    id: usize,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want smallest depth first, then
        // largest reverse depth, then smallest id.
        other
            .depth
            .cmp(&self.depth)
            .then(self.rev_depth.cmp(&other.rev_depth))
            .then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Builds the combined dependency graph used for scheduling: processing
/// edges, communication edges, and per-connection FIFO-order edges (the
/// k-th send on a connection pairs with the k-th receive, so both sides
/// must agree on the order).
fn build_edges(dag: &InstrDag, ca: &ChannelAssignment, order: FifoOrder, slots: usize) -> Dag {
    let n = dag.nodes.len();
    let mut edges: Vec<(u32, u32)> = dag
        .proc_edges
        .iter()
        .map(|&(u, v, _)| (u, v))
        .chain(dag.comm_edges.iter().map(|e| (e.send, e.recv)))
        .map(|(u, v)| (u as u32, v as u32))
        .collect();
    // FIFO order on a connection: by default it follows the send halves'
    // dependency depth (hop number), which keeps pipelined algorithms
    // systolic — a thread block issues its shallow (ready-early) sends
    // first instead of blocking the connection behind a deep chain. Trace
    // position breaks ties; the `Trace` mode uses it exclusively as a
    // guaranteed-acyclic fallback. Depth is computed before the FIFO edges
    // are added (they refine, not define, the partial order).
    let mut depth = vec![0usize; n];
    if order == FifoOrder::Depth {
        let base = Dag::from_edges(n, &edges);
        for &u in base.topo_order().as_deref().unwrap_or_default() {
            for &v in base.succs(u) {
                depth[v as usize] = depth[v as usize].max(depth[u as usize] + 1);
            }
        }
    }
    let mut by_conn: HashMap<(usize, usize, usize), Vec<usize>> = HashMap::new();
    for (i, e) in dag.comm_edges.iter().enumerate() {
        let key = (
            dag.nodes[e.send].rank,
            dag.nodes[e.recv].rank,
            ca.edge_channel[i],
        );
        by_conn.entry(key).or_default().push(i);
    }
    for conn in by_conn.values_mut() {
        conn.sort_by_key(|&i| {
            let send = dag.comm_edges[i].send;
            (depth[send], dag.nodes[send].chunk_node)
        });
        for w in conn.windows(2) {
            let (a, b) = (dag.comm_edges[w[0]], dag.comm_edges[w[1]]);
            edges.push((a.send as u32, b.send as u32));
            edges.push((a.recv as u32, b.recv as u32));
        }
        // Slot-capacity edges (§6.1: the compiler prevents schedules with
        // more than `s` outstanding sends): the k-th send on a connection
        // can only start once the (k − s)-th receive has drained its FIFO
        // slot. Scheduling against these edges makes the runtime's
        // slot-blocking explicit, so an acyclic order here is
        // deadlock-free at `s` slots.
        for k in slots..conn.len() {
            let freed = dag.comm_edges[conn[k - slots]];
            let sender = dag.comm_edges[conn[k]];
            edges.push((freed.recv as u32, sender.send as u32));
        }
    }
    Dag::from_edges(n, &edges)
}

/// Checks whether the combined dependency graph (including FIFO-order
/// edges) is acyclic; returns the nodes stuck on a cycle otherwise.
///
/// Cycles only arise through fused instructions whose receive and send
/// FIFO orders cross between connections; the compiler resolves them by
/// unfusing the participating instructions (see
/// [`crate::passes::fusion::unfuse`]) and rescheduling.
#[must_use]
pub fn find_fifo_cycle(
    dag: &InstrDag,
    ca: &ChannelAssignment,
    order: FifoOrder,
    slots: usize,
) -> Option<Vec<usize>> {
    let stuck = build_edges(dag, ca, order, slots).topo_order().err()?;
    Some(stuck.into_iter().map(|u| u as usize).collect())
}

/// Assigns every instruction to a thread block and derives cross-block
/// dependencies.
///
/// # Errors
///
/// Returns [`Error::TooManyThreadBlocks`] if a rank needs more blocks than
/// `max_tbs_per_rank`, or an internal verification error if the combined
/// dependency graph is cyclic (which a correct compilation never produces).
pub fn assign_threadblocks(
    dag: &InstrDag,
    ca: &ChannelAssignment,
    max_tbs_per_rank: Option<usize>,
    order: FifoOrder,
    slots: usize,
) -> Result<Schedule> {
    let n = dag.nodes.len();
    let g = build_edges(dag, ca, order, slots);

    // ---- Depth / reverse depth over one topological order.
    let topo = g.topo_order().map_err(|_| Error::Verification {
        message: "internal: instruction dependency graph is cyclic".to_owned(),
    })?;
    let mut depth = vec![0usize; n];
    for &u in &topo {
        for &v in g.succs(u) {
            depth[v as usize] = depth[v as usize].max(depth[u as usize] + 1);
        }
    }
    let mut rev_depth = vec![0usize; n];
    for &u in topo.iter().rev() {
        for &v in g.succs(u) {
            rev_depth[u as usize] = rev_depth[u as usize].max(rev_depth[v as usize] + 1);
        }
    }

    // ---- Thread blocks: connection blocks from channel assignment, plus
    // on-demand local blocks.
    let mut tbs: Vec<ScheduledTb> = ca
        .tbs
        .iter()
        .map(|d| ScheduledTb {
            rank: d.rank,
            send_peer: d.send_peer,
            recv_peer: d.recv_peer,
            channel: d.channel,
            instrs: Vec::new(),
        })
        .collect();
    let mut rank_tbs: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, tb) in tbs.iter().enumerate() {
        rank_tbs.entry(tb.rank).or_default().push(i);
    }

    // ---- Global topological order via the priority heap.
    let mut indeg = g.in_degrees();
    let mut heap: BinaryHeap<HeapEntry> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| HeapEntry {
            depth: depth[i],
            rev_depth: rev_depth[i],
            id: i,
        })
        .collect();
    let mut node_place = vec![(usize::MAX, usize::MAX); n];
    let mut tb_last_seq: Vec<i64> = vec![-1; tbs.len()];
    let mut seq = 0i64;
    let mut popped = 0usize;

    while let Some(HeapEntry { id, .. }) = heap.pop() {
        popped += 1;
        let node = &dag.nodes[id];
        let tb_idx = if node.send_peer.is_some() || node.recv_peer.is_some() {
            *ca.node_tb
                .get(&id)
                .expect("connection nodes were placed during channel assignment")
        } else {
            // Flexible (local) instruction: the thread block on this rank
            // whose latest assigned instruction is earliest.
            let candidates = rank_tbs.entry(node.rank).or_default();
            match candidates.iter().copied().min_by_key(|&t| tb_last_seq[t]) {
                Some(t) => t,
                None => {
                    tbs.push(ScheduledTb {
                        rank: node.rank,
                        send_peer: None,
                        recv_peer: None,
                        channel: 0,
                        instrs: Vec::new(),
                    });
                    tb_last_seq.push(-1);
                    let t = tbs.len() - 1;
                    candidates.push(t);
                    t
                }
            }
        };
        let step = tbs[tb_idx].instrs.len();
        tbs[tb_idx].instrs.push(id);
        node_place[id] = (tb_idx, step);
        tb_last_seq[tb_idx] = seq;
        seq += 1;
        for &v in g.succs(id as u32) {
            let v = v as usize;
            indeg[v] -= 1;
            if indeg[v] == 0 {
                heap.push(HeapEntry {
                    depth: depth[v],
                    rev_depth: rev_depth[v],
                    id: v,
                });
            }
        }
    }
    debug_assert_eq!(popped, n);

    // ---- Thread block budget: the lowest over-budget rank is reported.
    if let Some(limit) = max_tbs_per_rank {
        let ranks = tbs.iter().map(|tb| tb.rank + 1).max().unwrap_or(0);
        let mut counts = vec![0usize; ranks];
        for tb in &tbs {
            counts[tb.rank] += 1;
        }
        if let Some((rank, &required)) = counts.iter().enumerate().find(|&(_, &c)| c > limit) {
            return Err(Error::TooManyThreadBlocks {
                rank,
                required,
                limit,
            });
        }
    }

    // ---- Cross-thread-block dependencies from processing edges.
    let mut cross_deps: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    let mut has_dep = vec![false; n];
    for &(u, v, _) in &dag.proc_edges {
        let (tu, su) = node_place[u];
        let (tv, _) = node_place[v];
        if tu != tv {
            // Keep only the latest step per predecessor thread block.
            match cross_deps[v].iter_mut().find(|(t, _)| *t == tu) {
                Some(entry) => entry.1 = entry.1.max(su),
                None => cross_deps[v].push((tu, su)),
            }
            has_dep[u] = true;
        }
    }
    for deps in &mut cross_deps {
        deps.sort_unstable();
    }

    Ok(Schedule {
        tbs,
        node_place,
        cross_deps,
        has_dep,
        num_channels: ca.num_channels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::collective::Collective;
    use crate::dag::{ChunkDag, InstrOp};
    use crate::passes::fuse;
    use crate::program::Program;
    use crate::schedule::channels::assign_channels;

    fn schedule(p: &Program, instances: usize) -> (InstrDag, Schedule) {
        let mut dag = InstrDag::build(&ChunkDag::build(p, instances).unwrap());
        fuse(&mut dag);
        let ca = assign_channels(&dag, None).unwrap();
        let s = assign_threadblocks(&dag, &ca, None, FifoOrder::Depth, 8).unwrap();
        (dag, s)
    }

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
    fn every_instruction_is_placed_exactly_once() {
        let p = ring_allgather(4);
        let (dag, s) = schedule(&p, 1);
        let mut seen = vec![false; dag.nodes.len()];
        for tb in &s.tbs {
            for &i in &tb.instrs {
                assert!(!seen[i], "instruction {i} placed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        for (i, &(tb, step)) in s.node_place.iter().enumerate() {
            assert_eq!(s.tbs[tb].instrs[step], i);
        }
    }

    #[test]
    fn threadblock_connection_constraints_hold() {
        let p = ring_allgather(4);
        let (dag, s) = schedule(&p, 2);
        // At most one send and one recv peer per TB, and instructions match
        // their TB's connections.
        for tb in &s.tbs {
            for &i in &tb.instrs {
                let node = &dag.nodes[i];
                assert_eq!(node.rank, tb.rank);
                if let Some(sp) = node.send_peer {
                    assert_eq!(tb.send_peer, Some(sp));
                }
                if let Some(rp) = node.recv_peer {
                    assert_eq!(tb.recv_peer, Some(rp));
                }
            }
        }
        // One sending TB and one receiving TB per connection.
        let mut send_conns = std::collections::HashSet::new();
        let mut recv_conns = std::collections::HashSet::new();
        for tb in &s.tbs {
            if let Some(sp) = tb.send_peer {
                assert!(
                    send_conns.insert((tb.rank, sp, tb.channel)),
                    "two thread blocks send on one connection"
                );
            }
            if let Some(rp) = tb.recv_peer {
                assert!(
                    recv_conns.insert((tb.rank, rp, tb.channel)),
                    "two thread blocks receive on one connection"
                );
            }
        }
    }

    #[test]
    fn intra_tb_order_respects_dependencies() {
        let p = ring_allgather(5);
        let (dag, s) = schedule(&p, 1);
        for &(u, v, _) in &dag.proc_edges {
            let (tu, su) = s.node_place[u];
            let (tv, sv) = s.node_place[v];
            if tu == tv {
                assert!(su < sv, "dependency violated inside a thread block");
            } else {
                assert!(
                    s.cross_deps[v].iter().any(|&(t, st)| t == tu && st >= su),
                    "missing cross-TB dependency"
                );
                assert!(s.has_dep[u]);
            }
        }
    }

    #[test]
    fn fifo_order_matches_between_sender_and_receiver() {
        let p = ring_allgather(4);
        let (dag, s) = schedule(&p, 1);
        // For every connection, the k-th send and k-th recv belong to the
        // same comm edge.
        let mut conn_sends: HashMap<(usize, usize, usize), Vec<usize>> = HashMap::new();
        let mut conn_recvs: HashMap<(usize, usize, usize), Vec<usize>> = HashMap::new();
        for tb in &s.tbs {
            for &i in &tb.instrs {
                let node = &dag.nodes[i];
                if node.op.has_send() {
                    conn_sends
                        .entry((tb.rank, tb.send_peer.unwrap(), tb.channel))
                        .or_default()
                        .push(i);
                }
                if node.op.has_recv() {
                    conn_recvs
                        .entry((tb.recv_peer.unwrap(), tb.rank, tb.channel))
                        .or_default()
                        .push(i);
                }
            }
        }
        for e in &dag.comm_edges {
            let s_node = &dag.nodes[e.send];
            let key = (s_node.rank, dag.nodes[e.recv].rank, 0);
            let k_send = conn_sends[&key].iter().position(|&i| i == e.send).unwrap();
            let k_recv = conn_recvs[&key].iter().position(|&i| i == e.recv).unwrap();
            assert_eq!(k_send, k_recv, "send/recv FIFO order mismatch");
        }
    }

    #[test]
    fn local_instructions_get_a_threadblock() {
        // A purely local program: copy input to output on each rank.
        let mut p = Program::new("local", Collective::all_gather(1, 2, false));
        let c = p.chunk(0, BufferKind::Input, 0, 2).unwrap();
        let _ = p.copy(&c, 0, BufferKind::Output, 0).unwrap();
        let (dag, s) = schedule(&p, 1);
        assert_eq!(dag.nodes[0].op, InstrOp::Copy);
        assert_eq!(s.tbs.len(), 1);
        assert_eq!(s.tbs[0].send_peer, None);
        assert_eq!(s.tbs[0].recv_peer, None);
    }

    #[test]
    fn tb_budget_is_enforced() {
        let p = ring_allgather(4);
        let mut dag = InstrDag::build(&ChunkDag::build(&p, 8).unwrap());
        fuse(&mut dag);
        let ca = assign_channels(&dag, None).unwrap();
        // Every rank is over budget; the report must name the same one
        // each time, not whichever a hash order visits first.
        for _ in 0..16 {
            let err = assign_threadblocks(&dag, &ca, Some(2), FifoOrder::Depth, 8).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::TooManyThreadBlocks {
                        rank: 0,
                        required: 8,
                        limit: 2
                    }
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn trace_order_schedules_are_also_valid() {
        let p = ring_allgather(4);
        let mut dag = InstrDag::build(&ChunkDag::build(&p, 2).unwrap());
        fuse(&mut dag);
        let ca = assign_channels(&dag, None).unwrap();
        assert!(find_fifo_cycle(&dag, &ca, FifoOrder::Trace, 8).is_none());
        let s = assign_threadblocks(&dag, &ca, None, FifoOrder::Trace, 8).unwrap();
        // Same structural guarantees as the depth order.
        for &(u, v, _) in &dag.proc_edges {
            let (tu, su) = s.node_place[u];
            let (tv, sv) = s.node_place[v];
            if tu == tv {
                assert!(su < sv);
            }
        }
    }

    #[test]
    fn depth_order_is_acyclic_for_all_library_shapes() {
        // find_fifo_cycle is the guard compile() relies on; it must accept
        // the schedules the library generates every day.
        let p = ring_allgather(6);
        let mut dag = InstrDag::build(&ChunkDag::build(&p, 1).unwrap());
        fuse(&mut dag);
        let ca = assign_channels(&dag, None).unwrap();
        assert!(find_fifo_cycle(&dag, &ca, FifoOrder::Depth, 8).is_none());
    }

    #[test]
    fn priorities_prefer_shallow_then_deep_chains() {
        let a = HeapEntry {
            depth: 0,
            rev_depth: 5,
            id: 3,
        };
        let b = HeapEntry {
            depth: 1,
            rev_depth: 9,
            id: 1,
        };
        let c = HeapEntry {
            depth: 0,
            rev_depth: 2,
            id: 0,
        };
        let mut heap = BinaryHeap::from([a, b, c]);
        assert_eq!(heap.pop().unwrap().id, 3); // depth 0, rev 5
        assert_eq!(heap.pop().unwrap().id, 0); // depth 0, rev 2
        assert_eq!(heap.pop().unwrap().id, 1);
    }
}
