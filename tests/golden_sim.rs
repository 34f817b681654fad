//! Golden simulator reports: FNV-1a digests of `format!("{:?}", report)`
//! (or of the error text) for every registry algorithm at two shapes ×
//! three protocols × two buffer sizes × {plain, trace + timeline}, five
//! pinned fault plans, and the compiled 128-rank ring on NDv4 × 16, all
//! pinned in `tests/fixtures/golden_sim.txt`.
//!
//! The event loop may be rewritten for speed, but the model must not
//! move: every field of every `SimReport` — times, counts, the peak
//! queue length, the timeline, resource usage, the metrics snapshot and
//! the full virtual-time trace — and every `SimError` must come out the
//! same byte for byte. Only the serial engine is pinned here;
//! `tests/sim_parallel.rs` holds the parallel engine to it. Run with
//! `MSCCL_UPDATE_GOLDEN=1` to regenerate the table after a change that is
//! meant to alter the simulator's output.

use std::fmt::Write as _;
use std::path::PathBuf;

use msccl_algos::{build_by_name, registry::NAMES, AlgoSpec};
use msccl_faults::FaultPlan;
use msccl_sim::{simulate, SimConfig, SimError, SimReport};
use msccl_topology::{LinkParams, Machine, Protocol};
use mscclang::{compile, CompileOptions, IrProgram};

/// `(nodes, gpus, machine nodes)`; flat algorithms get `nodes * gpus`
/// ranks, placed on NDv4 × `machine nodes`. The 2 × 4 programs fit one
/// node and run on a single shard; the 2 × 8 ones split across two.
const SHAPES: [(usize, usize, usize); 2] = [(2, 4, 1), (2, 8, 2)];

const PROTOCOLS: [Protocol; 3] = [Protocol::Simple, Protocol::Ll, Protocol::Ll128];

const SIZES: [u64; 2] = [4 << 10, 1 << 20];

/// Fault plans pinned on the 8-rank ring allreduce over two nodes of four
/// GPUs, whose 3 -> 4 hop crosses the node boundary.
const FAULT_PLANS: [(&str, &str); 5] = [
    ("delay", "delay conn 3->4 ch 0 seq 1 us 40"),
    ("spike", "spike link 3->4 x20"),
    ("dup", "dup conn 2->3 ch 0 seq 0"),
    ("kill", "kill block r5 tb0 step3"),
    ("drop", "drop conn 3->4 ch 0 seq 2"),
];

/// Two nodes of four GPUs, NVLink inside and one NIC per node.
fn two_by_four() -> Machine {
    Machine::custom(
        2,
        4,
        LinkParams::new(2.0, 275.0),
        1,
        LinkParams::new(3.5, 25.0),
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(result: &Result<SimReport, SimError>) -> u64 {
    match result {
        Ok(report) => fnv1a(format!("{report:?}").as_bytes()),
        Err(e) => fnv1a(format!("error: {e:?}").as_bytes()),
    }
}

fn spec(nodes: usize, gpus: usize) -> AlgoSpec {
    AlgoSpec {
        ranks: Some(nodes * gpus),
        nodes,
        gpus,
        ..AlgoSpec::default()
    }
}

fn compiled(name: &str, nodes: usize, gpus: usize) -> Result<IrProgram, String> {
    let program = build_by_name(name, &spec(nodes, gpus)).map_err(|e| e.to_string())?;
    compile(&program, &CompileOptions::default()).map_err(|e| e.to_string())
}

fn table() -> String {
    let mut text = String::from(
        "# FNV-1a of format!(\"{:?}\", simulate(..)) per (algorithm, nodes x gpus,\n\
         # protocol, bytes, mode), serial engine. Regenerate with\n\
         # MSCCL_UPDATE_GOLDEN=1 cargo test --test golden_sim\n\
         # only when a change is meant to alter the simulator's output.\n",
    );
    for name in NAMES {
        for (nodes, gpus, machine_nodes) in SHAPES {
            let ir = match compiled(name, nodes, gpus) {
                Ok(ir) => ir,
                Err(e) => {
                    let d = fnv1a(format!("build error: {e}").as_bytes());
                    writeln!(text, "{name} {nodes}x{gpus} - - - {d:016x}").unwrap();
                    continue;
                }
            };
            for protocol in PROTOCOLS {
                let base = SimConfig::new(Machine::ndv4(machine_nodes)).with_protocol(protocol);
                for bytes in SIZES {
                    for (mode, config) in [
                        ("plain", base.clone()),
                        ("traced", base.clone().with_trace(true).with_timeline(true)),
                    ] {
                        let d = digest(&simulate(&ir, &config, bytes));
                        let p = protocol.as_str();
                        writeln!(text, "{name} {nodes}x{gpus} {p} {bytes} {mode} {d:016x}")
                            .unwrap();
                    }
                }
            }
        }
    }
    let ring = compiled("ring-allreduce", 2, 4).expect("ring compiles");
    for (label, plan) in FAULT_PLANS {
        let config = SimConfig::new(two_by_four())
            .with_trace(true)
            .with_faults(FaultPlan::parse(plan).expect("pinned plan parses"));
        let d = digest(&simulate(&ring, &config, 1 << 18));
        writeln!(text, "fault {label} {d:016x}").unwrap();
    }
    let program = msccl_algos::ring_all_reduce(128, 1).expect("ring builds");
    let ir = compile(&program, &CompileOptions::default()).expect("ring compiles");
    let d = digest(&simulate(&ir, &SimConfig::new(Machine::ndv4(16)), 1 << 20));
    writeln!(text, "ring-allreduce 16x8 ndv4 {d:016x}").unwrap();
    text
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_sim.txt")
}

#[test]
fn simulated_reports_match_golden_digests() {
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
        "simulator reports drifted from the golden digests ({} rows):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
