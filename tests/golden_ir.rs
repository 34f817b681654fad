//! Golden MSCCL-IR: FNV-1a digests of `ir_xml::to_xml` for every registry
//! algorithm at three shapes under six option sets, pinned in
//! `tests/fixtures/golden_ir.txt`.
//!
//! The compiler passes may be rewritten for speed, but a rewrite must emit
//! the same schedule byte for byte; any drift in fusion, channel or thread
//! block assignment, dependency insertion or epoch cuts changes a digest.
//! A compile that fails pins the digest of its error text instead. Run
//! with `MSCCL_UPDATE_GOLDEN=1` to regenerate the table after a change
//! that is meant to alter the compiler's output.

use std::fmt::Write as _;
use std::path::PathBuf;

use msccl_algos::{build_by_name, registry::NAMES, AlgoSpec};
use mscclang::{compile, ir_xml, CompileOptions, Error, IrProgram, OpCode, Program};

/// `(nodes, gpus)`; flat algorithms get `nodes * gpus` ranks.
const SHAPES: [(usize, usize); 3] = [(2, 2), (2, 4), (2, 8)];

fn variants() -> [(&'static str, CompileOptions); 6] {
    let d = CompileOptions::default;
    [
        ("default", d()),
        ("instances2", d().with_instances(2)),
        ("slots1", d().with_slots(1)),
        ("aggregate", d().with_aggregate(true)),
        ("dce", d().with_eliminate_dead(true)),
        ("nofuse", d().with_fuse(false)),
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn spec(nodes: usize, gpus: usize) -> AlgoSpec {
    AlgoSpec {
        ranks: Some(nodes * gpus),
        nodes,
        gpus,
        ..AlgoSpec::default()
    }
}

fn digest(result: &Result<IrProgram, Error>) -> u64 {
    match result {
        Ok(ir) => fnv1a(ir_xml::to_xml(ir).as_bytes()),
        Err(e) => fnv1a(format!("error: {e}").as_bytes()),
    }
}

fn table() -> String {
    let mut text = String::from(
        "# FNV-1a of ir_xml::to_xml per (algorithm, nodes x gpus, options).\n\
         # Regenerate with MSCCL_UPDATE_GOLDEN=1 cargo test --test golden_ir\n\
         # only when a change is meant to alter the compiler's output.\n",
    );
    for name in NAMES {
        for (nodes, gpus) in SHAPES {
            let program = build_by_name(name, &spec(nodes, gpus))
                .unwrap_or_else(|e| panic!("{name}@{nodes}x{gpus}: {e}"));
            for (label, opts) in variants() {
                let d = digest(&compile(&program, &opts));
                writeln!(text, "{name} {nodes}x{gpus} {label} {d:016x}").unwrap();
            }
        }
    }
    text
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_ir.txt")
}

fn pinned_digest(name: &str, shape: &str, label: &str) -> String {
    let text = std::fs::read_to_string(fixture_path()).expect("golden_ir.txt fixture missing");
    let prefix = format!("{name} {shape} {label} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no golden row for {prefix}"))
        .to_owned()
}

#[test]
fn compiled_ir_matches_golden_digests() {
    let got = table();
    let path = fixture_path();
    if std::env::var_os("MSCCL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("fixture missing; regenerate with MSCCL_UPDATE_GOLDEN=1");
    let drifted: Vec<String> = got
        .lines()
        .zip(expected.lines())
        .filter(|(g, e)| g != e)
        .map(|(g, e)| format!("got `{g}`, pinned `{e}`"))
        .collect();
    assert!(
        drifted.is_empty() && got.lines().count() == expected.lines().count(),
        "compiled IR drifted from the golden digests ({} rows):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

/// Counts the fused instructions of `ir`.
fn fused_instructions(ir: &IrProgram) -> usize {
    ir.gpus
        .iter()
        .flat_map(|g| &g.threadblocks)
        .flat_map(|t| &t.instructions)
        .filter(|i| {
            matches!(
                i.op,
                OpCode::RecvCopySend | OpCode::RecvReduceSend | OpCode::RecvReduceCopySend
            )
        })
        .count()
}

/// Rabenseifner at 8 ranks with one FIFO slot is the registry case that
/// reaches `unfuse`: the depth-ordered schedule has exactly one FIFO cycle,
/// and one unfuse round splits the 8 fused instructions on it. Replays
/// `compile`'s retry loop through the public passes to count both.
#[test]
fn rabenseifner_at_one_slot_needs_one_unfuse_round() {
    use mscclang::dag::{ChunkDag, InstrDag};
    use mscclang::passes;
    use mscclang::schedule::{assign_channels, find_fifo_cycle, FifoOrder};

    let program: Program = build_by_name("rabenseifner-allreduce", &spec(2, 4)).unwrap();
    let opts = CompileOptions::default().with_slots(1);
    let mut dag = InstrDag::build(&ChunkDag::build(&program, opts.instances).unwrap());
    passes::fuse(&mut dag);
    let mut retries = 0;
    let mut unfused = 0;
    loop {
        let ca = assign_channels(&dag, opts.max_tbs_per_rank).unwrap();
        let Some(stuck) = find_fifo_cycle(&dag, &ca, FifoOrder::Depth, opts.slots) else {
            break;
        };
        let fused: Vec<usize> = stuck
            .into_iter()
            .filter(|&i| {
                matches!(
                    dag.nodes[i].op,
                    OpCode::RecvCopySend | OpCode::RecvReduceSend | OpCode::RecvReduceCopySend
                )
            })
            .collect();
        assert!(!fused.is_empty(), "cycle without fused instructions");
        retries += 1;
        unfused += fused.len();
        passes::unfuse(&mut dag, &fused);
    }
    assert_eq!(retries, 1, "unfuse rounds");
    assert_eq!(unfused, 8, "instructions unfused");

    // `compile` takes the same path, verifies, and emits the golden IR.
    let ir = compile(&program, &opts).unwrap();
    let default_ir = compile(&program, &CompileOptions::default()).unwrap();
    assert_eq!(
        fused_instructions(&ir) + 8,
        fused_instructions(&default_ir),
        "the one-slot schedule keeps every fused instruction but the 8"
    );
    assert_eq!(
        format!("{:016x}", digest(&Ok(ir))),
        pinned_digest("rabenseifner-allreduce", "2x4", "slots1")
    );
}
