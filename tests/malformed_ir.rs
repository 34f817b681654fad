//! Hand-built IR whose operands reach past their buffers, or whose
//! dependencies name a missing block or step, is rejected with
//! `Error::Verification` — by `check_structure`, by the XML loader (which
//! runs it) and by the symbolic verifier, which must return the error
//! rather than panic on an out-of-range index. Every rejection's exact
//! message is pinned, and must not vary between repeats in one process.
//! Both engines return an error
//! instead of panicking: the runtime rejects every such program with the
//! structure check's message, and the simulator, which never reads
//! operands, rejects the ones it cannot lower.

use msccl_runtime::{execute, RunOptions, RuntimeError};
use msccl_sim::{simulate, SimConfig, SimError};
use msccl_topology::Machine;
use mscclang::lower::Lowered;
use mscclang::{
    ir_xml, verify, BufferKind, Collective, Error, IrDep, IrGpu, IrInstruction, IrLoc, IrProgram,
    IrThreadBlock, OpCode,
};

fn loc(buffer: BufferKind, index: usize) -> Option<IrLoc> {
    Some(IrLoc { buffer, index })
}

fn instr(step: usize, op: OpCode, src: Option<IrLoc>, dst: Option<IrLoc>) -> IrInstruction {
    IrInstruction {
        step,
        op,
        src,
        dst,
        count: 1,
        deps: vec![],
        has_dep: false,
    }
}

fn tb(send: Option<usize>, recv: Option<usize>, instructions: Vec<IrInstruction>) -> IrThreadBlock {
    IrThreadBlock {
        id: 0,
        send_peer: send,
        recv_peer: recv,
        channel: 0,
        instructions,
    }
}

/// A 2-rank AllGather program (1 input chunk, 2 output chunks, 1 scratch
/// chunk per rank) with the given thread blocks.
fn program(rank0: Vec<IrThreadBlock>, rank1: Vec<IrThreadBlock>) -> IrProgram {
    let gpu = |rank: usize, threadblocks: Vec<IrThreadBlock>| IrGpu {
        rank,
        input_chunks: 1,
        output_chunks: 2,
        scratch_chunks: 1,
        threadblocks,
    };
    IrProgram {
        name: "malformed".into(),
        collective: Collective::all_gather(2, 1, false),
        protocol: None,
        num_channels: 1,
        refinement: 1,
        gpus: vec![gpu(0, rank0), gpu(1, rank1)],
        epoch_cuts: vec![],
    }
}

/// One local instruction on rank 0.
fn local(op: OpCode, src: Option<IrLoc>, dst: Option<IrLoc>) -> IrProgram {
    program(vec![tb(None, None, vec![instr(0, op, src, dst)])], vec![])
}

/// The `Error::Verification` message of `result`; anything else fails
/// the test.
fn verification_message<T: std::fmt::Debug>(
    case: &str,
    check: &str,
    result: Result<T, Error>,
) -> String {
    match result {
        Err(e @ Error::Verification { .. }) => e.to_string(),
        other => panic!("{case}: {check} gave {other:?}"),
    }
}

/// Both engines refuse `ir` without panicking: the runtime with
/// `structural`, the simulator with `structural` when the program does not
/// lower and not at all when it does (it models timing, not operands).
fn assert_engines_reject(case: &str, ir: &IrProgram, structural: &str) {
    let inputs = vec![vec![1.0]; ir.num_ranks()];
    match execute(ir, &inputs, 1, &RunOptions::default()) {
        Err(RuntimeError::InvalidProgram { message }) => assert_eq!(message, structural, "{case}"),
        other => panic!("{case}: execute gave {other:?}"),
    }
    let sim = simulate(ir, &SimConfig::new(Machine::ndv4(1)), 1 << 10);
    if Lowered::new(ir).is_ok() {
        assert!(sim.is_ok(), "{case}: simulate gave {sim:?}");
    } else {
        let message = structural.to_owned();
        assert_eq!(
            sim.err(),
            Some(SimError::InvalidProgram { message }),
            "{case}"
        );
    }
}

/// Every check rejects `ir` with the exact expected message, 20 times
/// over in one process: `structural` from `check_structure` and the XML
/// loader (which runs it), `symbolic` from the verifier with and without
/// the race check; and both engines refuse it (see
/// [`assert_engines_reject`]).
fn assert_rejected(case: &str, ir: &IrProgram, structural: &str, symbolic: &str) {
    let xml = ir_xml::to_xml(ir);
    let unraced = verify::VerifyOptions {
        slots: 1,
        check_races: false,
    };
    for _ in 0..20 {
        let got = [
            verification_message(case, "check_structure", ir.check_structure()),
            verification_message(case, "from_xml", ir_xml::from_xml(&xml)),
            verification_message(
                case,
                "verify",
                verify::check(ir, &verify::VerifyOptions::default()),
            ),
            verification_message(case, "verify without races", verify::check(ir, &unraced)),
        ];
        assert_eq!(
            got,
            [structural, structural, symbolic, symbolic].map(String::from),
            "{case}"
        );
        assert_engines_reject(case, ir, structural);
    }
}

#[test]
fn out_of_range_operands_are_verification_errors() {
    let (i, o, s) = (BufferKind::Input, BufferKind::Output, BufferKind::Scratch);
    assert_rejected(
        "copy dst",
        &local(OpCode::Copy, loc(i, 0), loc(o, 99)),
        "verification failed: rank 0 tb 0 step 0: dst chunks 99..+1 past the 2 chunks of \
         rank 0's output buffer",
        "verification failed: rank 0 tb 0 step 0: dst index out of bounds",
    );
    assert_rejected(
        "copy src",
        &local(OpCode::Copy, loc(i, 99), loc(o, 0)),
        "verification failed: rank 0 tb 0 step 0: src chunks 99..+1 past the 1 chunks of \
         rank 0's input buffer",
        "verification failed: rank 0 tb 0 step 0: src index out of bounds",
    );
    assert_rejected(
        "reduce dst",
        &local(OpCode::Reduce, loc(i, 0), loc(o, 99)),
        "verification failed: rank 0 tb 0 step 0: dst chunks 99..+1 past the 2 chunks of \
         rank 0's output buffer",
        "verification failed: rank 0 tb 0 step 0: dst index out of bounds",
    );
    assert_rejected(
        "scratch dst",
        &local(OpCode::Copy, loc(i, 0), loc(s, 1)),
        "verification failed: rank 0 tb 0 step 0: dst chunks 1..+1 past the 1 chunks of \
         rank 0's scratch buffer",
        "verification failed: rank 0 tb 0 step 0: dst index out of bounds",
    );

    // An aggregated range that starts inside both buffers but runs past
    // them; the source operand is checked first.
    let mut wide = local(OpCode::Copy, loc(i, 0), loc(o, 1));
    wide.gpus[0].threadblocks[0].instructions[0].count = 2;
    assert_rejected(
        "copy range",
        &wide,
        "verification failed: rank 0 tb 0 step 0: src chunks 0..+2 past the 1 chunks of \
         rank 0's input buffer",
        "verification failed: rank 0 tb 0 step 0: src index out of bounds",
    );

    // A receive-reduce whose local operand is out of range.
    let rrc = program(
        vec![tb(
            Some(1),
            None,
            vec![instr(0, OpCode::Send, loc(i, 0), None)],
        )],
        vec![tb(
            None,
            Some(0),
            vec![instr(0, OpCode::RecvReduceCopy, loc(i, 99), loc(o, 0))],
        )],
    );
    assert_rejected(
        "rrc src",
        &rrc,
        "verification failed: rank 1 tb 0 step 0: src chunks 99..+1 past the 1 chunks of \
         rank 1's input buffer",
        "verification failed: rank 1 tb 0 step 0: src index out of bounds",
    );
}

/// A dependency on a block or a step that does not exist cannot be
/// lowered: every check and both engines report it instead of panicking.
#[test]
fn dangling_dependencies_are_verification_errors() {
    let (i, o) = (BufferKind::Input, BufferKind::Output);
    let waiting = |dep: IrDep| {
        let mut ir = program(
            vec![
                tb(
                    None,
                    None,
                    vec![instr(0, OpCode::Copy, loc(i, 0), loc(o, 0))],
                ),
                tb(
                    None,
                    None,
                    vec![instr(0, OpCode::Copy, loc(i, 0), loc(o, 1))],
                ),
            ],
            vec![],
        );
        ir.gpus[0].threadblocks[1].id = 1;
        ir.gpus[0].threadblocks[0].instructions[0].has_dep = true;
        ir.gpus[0].threadblocks[1].instructions[0].deps = vec![dep];
        ir
    };
    waiting(IrDep { tb: 0, step: 0 }).check_structure().unwrap();
    let missing_tb = "verification failed: rank 0 tb 1 step 0: dependency on missing tb 5";
    assert_rejected(
        "dangling dependency",
        &waiting(IrDep { tb: 5, step: 0 }),
        missing_tb,
        missing_tb,
    );
    let missing_step =
        "verification failed: rank 0 tb 1 step 0: dependency on missing step 3 of tb 0";
    assert_rejected(
        "missing step",
        &waiting(IrDep { tb: 0, step: 3 }),
        missing_step,
        missing_step,
    );
}

#[test]
fn in_range_operands_still_pass_the_structure_check() {
    let (i, o, s) = (BufferKind::Input, BufferKind::Output, BufferKind::Scratch);
    local(OpCode::Copy, loc(i, 0), loc(o, 1))
        .check_structure()
        .unwrap();
    local(OpCode::Copy, loc(i, 0), loc(s, 0))
        .check_structure()
        .unwrap();
}
