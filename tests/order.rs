//! `mscclang::order`: the one topological sort and the IR step graph
//! every happens-before query in the stack runs on.
//!
//! * `Dag::topo_order` against a naive repeated-removal reference, over
//!   random edge lists with and without cycles (self-loops included);
//! * `step_graph` and `rank_graph` edge counts against program-order, dep
//!   and message edges tallied straight from the IR of every registry
//!   algorithm.

use std::collections::HashMap;

use proptest::prelude::*;

use msccl_algos::{build_by_name, registry::NAMES, AlgoSpec};
use mscclang::lower::Lowered;
use mscclang::order::{rank_graph, step_graph, Dag};
use mscclang::{compile, CompileOptions};

/// The nodes left after repeatedly deleting every node with no incoming
/// edge from a remaining node: empty exactly when the graph is acyclic.
fn never_freed(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut alive = vec![true; n];
    loop {
        let mut blocked = vec![false; n];
        for &(u, v) in edges {
            if alive[u as usize] {
                blocked[v as usize] = true;
            }
        }
        let free: Vec<usize> = (0..n).filter(|&u| alive[u] && !blocked[u]).collect();
        if free.is_empty() {
            break;
        }
        for u in free {
            alive[u] = false;
        }
    }
    (0..n as u32).filter(|&u| alive[u as usize]).collect()
}

fn edge_count(g: &Dag) -> usize {
    (0..g.node_count() as u32).map(|u| g.succs(u).len()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Ok` is a permutation that respects every edge; `Err` is the set the
    /// reference leaves. Forward-only lists (each edge from the lower id to
    /// the higher, no self-loops) are acyclic and must come back `Ok`.
    #[test]
    fn topo_order_matches_repeated_removal(
        n in 1usize..41,
        raw in proptest::collection::vec((0u32..40, 0u32..40), 0..80),
        forward in any::<bool>(),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(u, v)| (u % n as u32, v % n as u32))
            .filter(|&(u, v)| !forward || u != v)
            .map(|(u, v)| if forward { (u.min(v), u.max(v)) } else { (u, v) })
            .collect();
        let reference = never_freed(n, &edges);
        match Dag::from_edges(n, &edges).topo_order() {
            Ok(order) => {
                prop_assert!(reference.is_empty(), "Ok, but {reference:?} are on a cycle");
                let mut pos = vec![usize::MAX; n];
                for (i, &u) in order.iter().enumerate() {
                    prop_assert_eq!(pos[u as usize], usize::MAX);
                    pos[u as usize] = i;
                }
                prop_assert_eq!(order.len(), n);
                for &(u, v) in &edges {
                    prop_assert!(pos[u as usize] < pos[v as usize], "edge {u} -> {v}");
                }
            }
            Err(stuck) => {
                prop_assert!(!forward, "a forward-only graph is acyclic");
                prop_assert_eq!(stuck, reference);
            }
        }
    }
}

#[test]
fn step_graph_edges_are_the_irs_own() {
    let spec = AlgoSpec {
        ranks: Some(8),
        nodes: 2,
        gpus: 4,
        ..AlgoSpec::default()
    };
    for name in NAMES {
        let program = build_by_name(name, &spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ir =
            compile(&program, &CompileOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let lowered = Lowered::new(&ir).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (mut program_order, mut deps) = (0, 0);
        // (src, dst, channel) -> (sends, recvs)
        let mut conns: HashMap<(usize, usize, usize), (usize, usize)> = HashMap::new();
        for gpu in &ir.gpus {
            let rank_edges = edge_count(&rank_graph(&lowered, gpu.rank));
            let before = program_order + deps;
            for tb in &gpu.threadblocks {
                program_order += tb.instructions.len().saturating_sub(1);
                for i in &tb.instructions {
                    deps += i.deps.len();
                    if i.op.has_send() {
                        let peer = tb.send_peer.expect("send peer");
                        conns.entry((gpu.rank, peer, tb.channel)).or_default().0 += 1;
                    }
                    if i.op.has_recv() {
                        let peer = tb.recv_peer.expect("recv peer");
                        conns.entry((peer, gpu.rank, tb.channel)).or_default().1 += 1;
                    }
                }
            }
            assert_eq!(
                rank_edges,
                program_order + deps - before,
                "{name} rank {}",
                gpu.rank
            );
        }
        let messages: usize = conns.values().map(|&(s, r)| s.min(r)).sum();
        assert!(messages > 0, "{name} sends nothing");
        let graph = step_graph(&lowered);
        assert_eq!(graph.node_count(), ir.num_instructions(), "{name}");
        assert_eq!(
            edge_count(&graph),
            program_order + deps + messages,
            "{name}"
        );
        assert!(graph.topo_order().is_ok(), "{name}: compiled IR is acyclic");
    }
}
