//! One hand-built program per MSCCL-IR opcode (§4.2), run through all
//! three interpreters of Figure 5's step rule: the symbolic verifier, the
//! threaded runtime and the discrete-event simulator.
//!
//! Each case pins the runtime's output bits against hand-computed values,
//! the verifier's verdict (or its message text), and the instruction
//! count, which the runtime's metrics and the simulator's report must
//! agree on. A separate test pins what a `nop` costs on the simulated
//! clock: nothing beyond the per-instruction overhead, whatever its
//! `count`.

use msccl_metrics::names;
use msccl_runtime::{execute_with_metrics, RunOptions};
use msccl_sim::{simulate, SimConfig};
use msccl_topology::Machine;
use mscclang::ir::{IrGpu, IrInstruction, IrLoc, IrThreadBlock};
use mscclang::{
    verify, BufferKind, ChunkValue, Collective, InputId, IrProgram, OpCode, ReductionSet,
};

const IN: BufferKind = BufferKind::Input;
const OUT: BufferKind = BufferKind::Output;

fn at(buffer: BufferKind, index: usize) -> Option<IrLoc> {
    Some(IrLoc { buffer, index })
}

fn instr(op: OpCode, src: Option<IrLoc>, dst: Option<IrLoc>) -> IrInstruction {
    IrInstruction {
        step: 0,
        op,
        src,
        dst,
        count: 1,
        deps: vec![],
        has_dep: false,
    }
}

/// One rank's single thread block: its send peer, its receive peer and
/// its instructions (steps are numbered here).
struct Rank(Option<usize>, Option<usize>, Vec<IrInstruction>);

/// A program of one thread block per rank, each rank with two input and
/// two output chunks; `post[r][i]` is what output chunk `i` of rank `r`
/// must hold.
fn program(name: &str, ranks: Vec<Rank>, post: Vec<Vec<Option<ChunkValue>>>) -> IrProgram {
    let num_ranks = ranks.len();
    let gpus = ranks
        .into_iter()
        .enumerate()
        .map(|(rank, Rank(send_peer, recv_peer, mut instructions))| {
            for (step, i) in instructions.iter_mut().enumerate() {
                i.step = step;
            }
            IrGpu {
                rank,
                input_chunks: 2,
                output_chunks: 2,
                scratch_chunks: 0,
                threadblocks: vec![IrThreadBlock {
                    id: 0,
                    send_peer,
                    recv_peer,
                    channel: 0,
                    instructions,
                }],
            }
        })
        .collect();
    IrProgram {
        name: name.into(),
        collective: Collective::custom(num_ranks, 2, 2, post),
        protocol: None,
        num_channels: 1,
        refinement: 1,
        gpus,
        epoch_cuts: Default::default(),
    }
}

fn input(rank: usize, index: usize) -> Option<ChunkValue> {
    Some(ChunkValue::input(rank, index))
}

fn sum(inputs: &[(usize, usize)]) -> Option<ChunkValue> {
    let ids = inputs.iter().map(|&(r, i)| InputId::new(r, i));
    Some(ChunkValue::Reduction(ReductionSet::from_inputs(ids)))
}

/// Rank `r`'s input is `[10^r·1, 10^r·2]`, scaled so every sum below
/// names its terms: rank 0 holds `[1, 2]`, rank 1 `[10, 20]`, rank 2
/// `[100, 200]`.
fn inputs(num_ranks: usize) -> Vec<Vec<f32>> {
    (0..num_ranks)
        .map(|r| {
            let scale = 10f32.powi(r as i32);
            vec![scale, 2.0 * scale]
        })
        .collect()
}

/// Runs `ir` through the verifier, the runtime and the simulator and
/// checks the three pins.
fn check(ir: &IrProgram, outputs: &[[f32; 2]], verdict: Result<(), &str>) {
    let name = &ir.name;
    let got = verify::check(ir, &verify::VerifyOptions::default())
        .map(|_| ())
        .map_err(|e| e.to_string());
    assert_eq!(got, verdict.map_err(str::to_owned), "{name}: verdict");

    let num_ranks = ir.gpus.len();
    let opts = RunOptions {
        tile_elems: Some(1),
        ..RunOptions::default()
    };
    let (ran, metrics) = execute_with_metrics(ir, &inputs(num_ranks), 1, &opts)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let want: Vec<Vec<f32>> = outputs.iter().map(|o| o.to_vec()).collect();
    let bits = |v: &[Vec<f32>]| -> Vec<Vec<u32>> {
        v.iter()
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&ran), bits(&want), "{name}: outputs {ran:?}");

    // One tile in both executors: the simulated buffer is the runtime's
    // two one-element input chunks.
    let buffer_bytes = (2 * std::mem::size_of::<f32>()) as u64;
    let sim = simulate(ir, &SimConfig::new(Machine::ndv4(1)), buffer_bytes)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(sim.tiles, 1, "{name}: expected a single-tile run");
    let planned = ir.num_instructions();
    assert_eq!(
        metrics.counter_total(names::INSTRUCTIONS),
        planned as u64,
        "{name}: runtime instructions"
    );
    assert_eq!(sim.instructions, planned, "{name}: simulated instructions");
}

/// `s` hands rank 0's input to rank 1's plain receive.
#[test]
fn send() {
    let ir = program(
        "s",
        vec![
            Rank(Some(1), None, vec![instr(OpCode::Send, at(IN, 0), None)]),
            Rank(None, Some(0), vec![instr(OpCode::Recv, None, at(OUT, 0))]),
        ],
        vec![vec![None, None], vec![input(0, 0), None]],
    );
    check(&ir, &[[0.0, 0.0], [1.0, 0.0]], Ok(()));
}

/// `r` stores the received tile at its destination and nothing else.
#[test]
fn recv() {
    let ir = program(
        "r",
        vec![
            Rank(None, Some(1), vec![instr(OpCode::Recv, None, at(OUT, 1))]),
            Rank(Some(0), None, vec![instr(OpCode::Send, at(IN, 1), None)]),
        ],
        vec![vec![None, input(1, 1)], vec![None, None]],
    );
    check(&ir, &[[0.0, 20.0], [0.0, 0.0]], Ok(()));
}

/// `cpy` moves a chunk within a rank; reading a chunk nothing wrote is
/// the verifier's "reads uninitialized data".
#[test]
fn copy() {
    let ir = program(
        "cpy",
        vec![
            Rank(None, None, vec![instr(OpCode::Copy, at(IN, 1), at(OUT, 0))]),
            Rank(None, None, vec![instr(OpCode::Copy, at(IN, 0), at(OUT, 1))]),
        ],
        vec![vec![input(0, 1), None], vec![None, input(1, 0)]],
    );
    check(&ir, &[[2.0, 0.0], [0.0, 10.0]], Ok(()));

    let ir = program(
        "cpy-uninit",
        vec![
            Rank(
                None,
                None,
                vec![instr(OpCode::Copy, at(OUT, 1), at(OUT, 0))],
            ),
            Rank(None, None, vec![]),
        ],
        vec![vec![None, None], vec![None, None]],
    );
    check(
        &ir,
        &[[0.0, 0.0], [0.0, 0.0]],
        Err("verification failed: rank 0 tb 0 step 0 (cpy): reads uninitialized data"),
    );
}

/// `re` reduces its source into its destination in place; reducing into
/// a chunk nothing wrote is the verifier's "reduces uninitialized data".
#[test]
fn reduce() {
    let ir = program(
        "re",
        vec![
            Rank(
                None,
                None,
                vec![
                    instr(OpCode::Copy, at(IN, 0), at(OUT, 0)),
                    instr(OpCode::Reduce, at(IN, 1), at(OUT, 0)),
                ],
            ),
            Rank(None, None, vec![]),
        ],
        vec![vec![sum(&[(0, 0), (0, 1)]), None], vec![None, None]],
    );
    check(&ir, &[[3.0, 0.0], [0.0, 0.0]], Ok(()));

    let ir = program(
        "re-uninit",
        vec![
            Rank(None, None, vec![]),
            Rank(
                None,
                None,
                vec![instr(OpCode::Reduce, at(IN, 0), at(OUT, 1))],
            ),
        ],
        vec![vec![None, None], vec![None, None]],
    );
    check(
        &ir,
        &[[0.0, 0.0], [0.0, 10.0]],
        Err("verification failed: rank 1 tb 0 step 0 (re): reduces uninitialized data"),
    );
}

/// `rrc` reduces the received tile with its source and stores the sum at
/// its destination.
#[test]
fn recv_reduce_copy() {
    let ir = program(
        "rrc",
        vec![
            Rank(Some(1), None, vec![instr(OpCode::Send, at(IN, 0), None)]),
            Rank(
                None,
                Some(0),
                vec![instr(OpCode::RecvReduceCopy, at(IN, 0), at(OUT, 0))],
            ),
        ],
        vec![vec![None, None], vec![sum(&[(0, 0), (1, 0)]), None]],
    );
    check(&ir, &[[0.0, 0.0], [11.0, 0.0]], Ok(()));
}

/// `rcs` stores the received tile and forwards it unchanged.
#[test]
fn recv_copy_send() {
    let ir = program(
        "rcs",
        vec![
            Rank(Some(1), None, vec![instr(OpCode::Send, at(IN, 1), None)]),
            Rank(
                Some(2),
                Some(0),
                vec![instr(OpCode::RecvCopySend, None, at(OUT, 0))],
            ),
            Rank(None, Some(1), vec![instr(OpCode::Recv, None, at(OUT, 1))]),
        ],
        vec![
            vec![None, None],
            vec![input(0, 1), None],
            vec![None, input(0, 1)],
        ],
    );
    check(&ir, &[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], Ok(()));
}

/// `rrs` forwards the sum of the received tile and its source without
/// storing anything.
#[test]
fn recv_reduce_send() {
    let ir = program(
        "rrs",
        vec![
            Rank(Some(1), None, vec![instr(OpCode::Send, at(IN, 0), None)]),
            Rank(
                Some(2),
                Some(0),
                vec![instr(OpCode::RecvReduceSend, at(IN, 1), None)],
            ),
            Rank(None, Some(1), vec![instr(OpCode::Recv, None, at(OUT, 0))]),
        ],
        vec![
            vec![None, None],
            vec![None, None],
            vec![sum(&[(0, 0), (1, 1)]), None],
        ],
    );
    check(&ir, &[[0.0, 0.0], [0.0, 0.0], [21.0, 0.0]], Ok(()));
}

/// `rrcs` stores the sum of the received tile and its source, and
/// forwards it.
#[test]
fn recv_reduce_copy_send() {
    let ir = program(
        "rrcs",
        vec![
            Rank(Some(1), None, vec![instr(OpCode::Send, at(IN, 1), None)]),
            Rank(
                Some(2),
                Some(0),
                vec![instr(OpCode::RecvReduceCopySend, at(IN, 0), at(OUT, 1))],
            ),
            Rank(None, Some(1), vec![instr(OpCode::Recv, None, at(OUT, 0))]),
        ],
        vec![
            vec![None, None],
            vec![None, sum(&[(0, 1), (1, 0)])],
            vec![sum(&[(0, 1), (1, 0)]), None],
        ],
    );
    check(&ir, &[[0.0, 0.0], [0.0, 12.0], [12.0, 0.0]], Ok(()));
}

/// `nop` computes, stores and sends nothing, whatever its `count`.
#[test]
fn nop() {
    let nop = IrInstruction {
        count: 2,
        ..instr(OpCode::Nop, None, None)
    };
    let ir = program(
        "nop",
        vec![
            Rank(
                None,
                None,
                vec![instr(OpCode::Copy, at(IN, 0), at(OUT, 0)), nop.clone()],
            ),
            Rank(None, None, vec![nop]),
        ],
        vec![vec![input(0, 0), None], vec![None, None]],
    );
    check(&ir, &[[1.0, 0.0], [0.0, 0.0]], Ok(()));
}
/// A `nop` costs only the per-instruction overhead on the simulated
/// clock: two ranks, one `nop` each, take as long at `count` 2 over a
/// 1 GiB buffer as at `count` 0.
#[test]
fn nop_costs_no_data_movement() {
    let total_us = |count: usize| {
        let nop = IrInstruction {
            count,
            ..instr(OpCode::Nop, None, None)
        };
        let ir = program(
            "nop",
            vec![
                Rank(None, None, vec![nop.clone()]),
                Rank(None, None, vec![nop]),
            ],
            vec![vec![None, None], vec![None, None]],
        );
        let cfg = SimConfig::new(Machine::ndv4(1)).with_launch(false);
        simulate(&ir, &cfg, 1 << 30).expect("simulates").total_us
    };
    assert_eq!(total_us(2), total_us(0));
}
