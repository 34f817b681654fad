//! The happens-before order of a program, computed in one place.
//!
//! MSCCLang's deadlock-freedom (§5.2) rests on one partial order over
//! instructions: program order inside a thread block, cross-thread-block
//! dependencies, and the k-th send on a connection feeding the k-th
//! receive. [`Dag`] is that order as a compressed-sparse-row graph over
//! dense `u32` ids, with one topological sort; [`step_graph`] and
//! [`rank_graph`] draw it over one dense numbering of an [`IrProgram`]'s
//! instructions. Callers run their own longest-path or ancestor sweep over
//! [`Dag::topo_order`]; this module never branches on who calls it.

use std::collections::BTreeMap;

use crate::ir::{IrGpu, IrProgram};

/// A directed graph over dense ids `0..node_count`, in compressed sparse row
/// form. Parallel edges are kept: each one counts toward its target's
/// in-degree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    /// `targets[offsets[u]..offsets[u + 1]]` are `u`'s successors.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Dag {
    /// Builds the graph on `n` nodes from `(from, to)` edges. Each node's
    /// successors keep the order their edges have in `edges`.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a node `>= n`, or on `u32::MAX` edges.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        assert!(u32::try_from(edges.len()).is_ok(), "edge count exceeds u32");
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            assert!((v as usize) < n, "edge target {v} out of range");
            offsets[u as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut next = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(u, v) in edges {
            targets[next[u as usize] as usize] = v;
            next[u as usize] += 1;
        }
        Self { offsets, targets }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The successors of `u`.
    #[must_use]
    pub fn succs(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Each node's in-degree.
    #[must_use]
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.node_count()];
        for &v in &self.targets {
            deg[v as usize] += 1;
        }
        deg
    }

    /// A topological order of every node (Kahn's algorithm, first-in
    /// first-out from the sources in id order).
    ///
    /// # Errors
    ///
    /// When the graph has a cycle, returns the ascending ids Kahn never
    /// frees: every node on a cycle or reachable from one.
    pub fn topo_order(&self) -> Result<Vec<u32>, Vec<u32>> {
        let mut deg = self.in_degrees();
        let ids = 0..self.node_count() as u32;
        let mut order: Vec<u32> = ids.clone().filter(|&u| deg[u as usize] == 0).collect();
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &v in self.succs(u) {
                deg[v as usize] -= 1;
                if deg[v as usize] == 0 {
                    order.push(v);
                }
            }
        }
        if order.len() == self.node_count() {
            Ok(order)
        } else {
            Err(ids.filter(|&u| deg[u as usize] > 0).collect())
        }
    }
}

/// Program-order and dependency edges of one rank's instructions,
/// numbered from 0 in `(tb, step)` order. A dependency that names no
/// instruction is skipped.
#[must_use]
pub fn rank_graph(gpu: &IrGpu) -> Dag {
    let mut edges = Vec::new();
    let (_, n) = rank_edges(gpu, 0, &mut edges);
    Dag::from_edges(n as usize, &edges)
}

/// The whole program's order, over one dense numbering of its
/// instructions: rank-major, then `(tb, step)`, so rank `r`'s ids are
/// [`rank_graph`]'s shifted by the instruction count of ranks `0..r`.
/// Holds every rank's [`rank_graph`] edges and an edge from the k-th send
/// to the k-th receive on every `(src, dst, channel)` connection.
#[must_use]
pub fn step_graph(ir: &IrProgram) -> Dag {
    let mut edges = Vec::new();
    let mut first = Vec::with_capacity(ir.gpus.len());
    let mut n = 0;
    for gpu in &ir.gpus {
        let (tbs, next) = rank_edges(gpu, n, &mut edges);
        first.push(tbs);
        n = next;
    }
    // (src, dst, channel) -> (send ids, receive ids), in step order.
    let mut conns: BTreeMap<_, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
    for (rank, gpu) in ir.gpus.iter().enumerate() {
        for (tb, &first) in gpu.threadblocks.iter().zip(&first[rank]) {
            let ch = tb.channel;
            for (id, instr) in (first..).zip(&tb.instructions) {
                if let (Some(peer), true) = (tb.send_peer, instr.op.has_send()) {
                    conns.entry((rank, peer, ch)).or_default().0.push(id);
                }
                if let (Some(peer), true) = (tb.recv_peer, instr.op.has_recv()) {
                    conns.entry((peer, rank, ch)).or_default().1.push(id);
                }
            }
        }
    }
    for (sends, recvs) in conns.into_values() {
        edges.extend(sends.into_iter().zip(recvs));
    }
    Dag::from_edges(n as usize, &edges)
}

/// Appends `gpu`'s program-order and dependency edges over ids from
/// `base` in `(tb, step)` order. Returns the id of each block's step 0
/// and the id after the rank's last instruction; panics if that
/// overflows `u32`.
fn rank_edges(gpu: &IrGpu, base: u32, edges: &mut Vec<(u32, u32)>) -> (Vec<u32>, u32) {
    let mut first = Vec::with_capacity(gpu.threadblocks.len());
    let mut next = base;
    for tb in &gpu.threadblocks {
        first.push(next);
        next = u32::try_from(tb.instructions.len())
            .ok()
            .and_then(|len| next.checked_add(len))
            .expect("instruction ids fit in u32");
    }
    for (tb, &me0) in gpu.threadblocks.iter().zip(&first) {
        for (me, instr) in (me0..).zip(&tb.instructions) {
            if me > me0 {
                edges.push((me - 1, me));
            }
            for d in &instr.deps {
                if gpu
                    .threadblocks
                    .get(d.tb)
                    .is_some_and(|db| d.step < db.instructions.len())
                {
                    edges.push((first[d.tb] + d.step as u32, me));
                }
            }
        }
    }
    (first, next)
}
