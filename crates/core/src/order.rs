//! The happens-before order of a program, computed in one place.
//!
//! MSCCLang's deadlock-freedom (§5.2) rests on one partial order over
//! instructions: program order inside a thread block, cross-thread-block
//! dependencies, and the k-th send on a connection feeding the k-th
//! receive. [`Dag`] is that order as a compressed-sparse-row graph over
//! dense `u32` ids, with one topological sort; [`step_graph`] and
//! [`rank_graph`] draw it over [`Lowered`]'s numbering of a program's
//! instructions. Callers run their own longest-path or ancestor sweep over
//! [`Dag::topo_order`]; this module never branches on who calls it.

use crate::lower::Lowered;

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

/// Program-order and dependency edges of `rank`'s instructions, numbered
/// from 0 in `(tb, step)` order: the rank's flat step ids less its first.
#[must_use]
pub fn rank_graph(lowered: &Lowered, rank: usize) -> Dag {
    let blocks = &lowered.blocks()[lowered.rank_blocks(rank)];
    let base = blocks.first().map_or(0, |b| b.first_step);
    let mut edges = Vec::new();
    rank_edges(lowered, rank, base, &mut edges);
    Dag::from_edges(blocks.last().map_or(base, |b| b.steps().end) - base, &edges)
}

/// The whole program's order, over [`Lowered`]'s flat step ids: rank-major,
/// then `(tb, step)`, so rank `r`'s ids are [`rank_graph`]'s shifted by
/// the instruction count of ranks `0..r`. Holds every rank's
/// [`rank_graph`] edges and an edge from the k-th send to the k-th receive
/// on every connection.
#[must_use]
pub fn step_graph(lowered: &Lowered) -> Dag {
    let mut edges = Vec::new();
    for rank in 0..lowered.ir().num_ranks() {
        rank_edges(lowered, rank, 0, &mut edges);
    }
    // Per connection id: its send steps and its receive steps, in order.
    let mut ends: Vec<(Vec<u32>, Vec<u32>)> = vec![Default::default(); lowered.conns().len()];
    for b in lowered.blocks() {
        for (id, instr) in b.steps().zip(&b.tb.instructions) {
            if let (Some(c), true) = (b.send, instr.op.has_send()) {
                ends[c].0.push(id as u32);
            }
            if let (Some(c), true) = (b.recv, instr.op.has_recv()) {
                ends[c].1.push(id as u32);
            }
        }
    }
    for (sends, recvs) in ends {
        edges.extend(sends.into_iter().zip(recvs));
    }
    Dag::from_edges(lowered.num_steps(), &edges)
}

/// Appends `rank`'s program-order and dependency edges, over flat step
/// ids less `base` (which fit in `u32`: [`Lowered::new`] checks).
fn rank_edges(lowered: &Lowered, rank: usize, base: usize, edges: &mut Vec<(u32, u32)>) {
    let node = |step: usize| (step - base) as u32;
    for b in &lowered.blocks()[lowered.rank_blocks(rank)] {
        for (me, instr) in b.steps().zip(&b.tb.instructions) {
            if me > b.first_step {
                edges.push((node(me - 1), node(me)));
            }
            for d in &instr.deps {
                edges.push((node(lowered.dep(rank, d).1), node(me)));
            }
        }
    }
}
