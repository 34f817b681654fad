//! `mscclang::lower`: the one numbering of blocks, steps and connections
//! that the verifier, the step graph, the runtime plan and the simulator
//! share, checked against the IR itself on every registry algorithm at
//! the `golden_ir` shapes and option sets:
//!
//! * connection ids follow first mention — each block in flat order names
//!   its send connection, then its receive connection — and every block's
//!   send and receive id maps back to its `(rank, peer, channel)` and
//!   `(peer, rank, channel)`;
//! * flat step ids are `order::step_graph`'s numbering (its program-order,
//!   dependency and message edges all land on them), and every `IrDep`
//!   resolves to the block and step it names;
//! * on ndv4, dgx2 and dgx1, each node's blocks are one contiguous flat
//!   range, which the simulator's shard-local block index relies on.

use msccl_algos::{build_by_name, registry::NAMES, AlgoSpec};
use msccl_topology::Machine;
use mscclang::lower::Lowered;
use mscclang::order::step_graph;
use mscclang::{compile, CompileOptions, IrProgram};

/// `golden_ir`'s `(nodes, gpus)` shapes and option sets.
const SHAPES: [(usize, usize); 3] = [(2, 2), (2, 4), (2, 8)];

fn variants() -> [CompileOptions; 6] {
    let d = CompileOptions::default;
    [
        d(),
        d().with_instances(2),
        d().with_slots(1),
        d().with_aggregate(true),
        d().with_eliminate_dead(true),
        d().with_fuse(false),
    ]
}

fn spec(nodes: usize, gpus: usize) -> AlgoSpec {
    AlgoSpec {
        ranks: Some(nodes * gpus),
        nodes,
        gpus,
        ..AlgoSpec::default()
    }
}

/// Every program `golden_ir` pins that compiles, labelled.
fn golden_programs() -> Vec<(String, IrProgram)> {
    let mut out = Vec::new();
    for name in NAMES {
        for (nodes, gpus) in SHAPES {
            let program = build_by_name(name, &spec(nodes, gpus))
                .unwrap_or_else(|e| panic!("{name}@{nodes}x{gpus}: {e}"));
            for (v, opts) in variants().iter().enumerate() {
                if let Ok(ir) = compile(&program, opts) {
                    out.push((format!("{name}@{nodes}x{gpus}/{v}"), ir));
                }
            }
        }
    }
    assert!(out.len() > NAMES.len() * SHAPES.len(), "too few compiled");
    out
}

#[test]
fn connection_ids_follow_first_mention() {
    for (label, ir) in golden_programs() {
        let lowered = Lowered::new(&ir).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut mentioned: Vec<(usize, usize, usize)> = Vec::new();
        let mut b = 0;
        for gpu in &ir.gpus {
            for tb in &gpu.threadblocks {
                let block = &lowered.blocks()[b];
                assert_eq!((block.rank, block.tb.id), (gpu.rank, tb.id), "{label}");
                let ends = [
                    (block.send, tb.send_peer.map(|p| (gpu.rank, p))),
                    (block.recv, tb.recv_peer.map(|p| (p, gpu.rank))),
                ];
                for (id, pair) in ends {
                    let key = pair.map(|(src, dst)| (src, dst, tb.channel));
                    assert_eq!(id.map(|c| lowered.conns()[c]), key, "{label} block {b}");
                    if let Some(key) = key.filter(|k| !mentioned.contains(k)) {
                        mentioned.push(key);
                    }
                }
                b += 1;
            }
        }
        assert_eq!(b, lowered.blocks().len(), "{label}");
        assert_eq!(lowered.conns(), &mentioned[..], "{label}");
    }
}

#[test]
fn step_ids_are_the_step_graphs_and_deps_resolve() {
    for (label, ir) in golden_programs() {
        let lowered = Lowered::new(&ir).unwrap_or_else(|e| panic!("{label}: {e}"));
        let graph = step_graph(&lowered);
        assert_eq!(graph.node_count(), ir.num_instructions(), "{label}");
        assert_eq!(lowered.num_steps(), ir.num_instructions(), "{label}");
        let edge = |u: usize, v: usize| graph.succs(u as u32).contains(&(v as u32));
        // Per connection id: its send and receive step ids, in order.
        let mut ends = vec![(Vec::new(), Vec::new()); lowered.conns().len()];
        let mut next = 0;
        for (rank, gpu) in ir.gpus.iter().enumerate() {
            let blocks = lowered.rank_blocks(rank);
            assert_eq!(blocks.len(), gpu.threadblocks.len(), "{label}");
            for (b, tb) in blocks.zip(&gpu.threadblocks) {
                let block = &lowered.blocks()[b];
                assert_eq!(block.steps(), next..next + tb.instructions.len());
                for (id, instr) in block.steps().zip(&tb.instructions) {
                    if id > next {
                        assert!(edge(id - 1, id), "{label}: program order into {id}");
                    }
                    for d in &instr.deps {
                        let (db, ds) = lowered.dep(rank, d);
                        let dep = &lowered.blocks()[db];
                        assert_eq!((dep.rank, dep.tb.id), (rank, d.tb), "{label}");
                        assert_eq!(ds, dep.first_step + d.step, "{label}");
                        assert!(edge(ds, id), "{label}: dependency {d:?} of {id}");
                    }
                    if instr.op.has_send() {
                        ends[block.send.expect("send conn")].0.push(id);
                    }
                    if instr.op.has_recv() {
                        ends[block.recv.expect("recv conn")].1.push(id);
                    }
                }
                next += tb.instructions.len();
            }
        }
        for (sends, recvs) in ends {
            for (s, r) in sends.into_iter().zip(recvs) {
                assert!(edge(s, r), "{label}: message {s} -> {r}");
            }
        }
    }
}

#[test]
fn each_nodes_blocks_are_one_flat_range() {
    // Programs as `golden_ir` shapes them, each filling its machine.
    let machines = [
        ("ndv4", Machine::ndv4(2), (2, 8)),
        ("dgx2", Machine::dgx2(2), (2, 16)),
        ("dgx1", Machine::dgx1(), (2, 4)),
    ];
    for (machine_name, machine, (nodes, gpus)) in machines {
        assert_eq!(machine.num_ranks(), nodes * gpus, "{machine_name}");
        let num_nodes = machine.node_of(machine.num_ranks() - 1) + 1;
        for name in NAMES {
            let Ok(program) = build_by_name(name, &spec(nodes, gpus)) else {
                continue;
            };
            let Ok(ir) = compile(&program, &CompileOptions::default()) else {
                continue;
            };
            let blocks = Lowered::new(&ir).unwrap().blocks().to_vec();
            let mut next = 0;
            for node in 0..num_nodes {
                let on_node: Vec<usize> = (0..blocks.len())
                    .filter(|&b| machine.node_of(blocks[b].rank) == node)
                    .collect();
                let range = next..next + on_node.len();
                assert_eq!(
                    on_node,
                    range.collect::<Vec<_>>(),
                    "{name} on {machine_name}"
                );
                next += on_node.len();
            }
            assert_eq!(next, blocks.len(), "{name} on {machine_name}");
        }
    }
}
