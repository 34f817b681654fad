//! Golden verifier verdicts: FNV-1a of `format!("{:?}", verify::check(..))`
//! for every registry algorithm compiled (verification off) at two shapes,
//! and for three seeded mutations of each compiled IR, at FIFO slots
//! {1, 2, 8} with and without race detection, pinned in
//! `tests/fixtures/golden_verify.txt`.
//!
//! On success the digest covers the whole `VerifyReport`; on failure it
//! covers the error text, so a race row pins which access the verifier
//! reports first (rank, thread block, step, chunk). The verifier may be
//! rewritten for speed, but every verdict must stay the same. Run with
//! `MSCCL_UPDATE_GOLDEN=1` to regenerate the table after a change that is
//! meant to alter a verdict.

use std::fmt::Write as _;
use std::path::PathBuf;

use msccl_algos::{build_by_name, registry::NAMES, AlgoSpec};
use mscclang::rng::Splitmix64;
use mscclang::verify::{self, VerifyOptions};
use mscclang::{compile, CompileOptions, IrProgram};

/// `(nodes, gpus)`; flat algorithms get `nodes * gpus` ranks.
const SHAPES: [(usize, usize); 2] = [(2, 4), (2, 8)];

const SLOTS: [usize; 3] = [1, 2, 8];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every `(rank, tb, step)` of `ir` whose instruction satisfies `keep`.
fn steps(
    ir: &IrProgram,
    keep: impl Fn(&mscclang::IrThreadBlock, usize) -> bool,
) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (r, gpu) in ir.gpus.iter().enumerate() {
        for (t, tb) in gpu.threadblocks.iter().enumerate() {
            for s in 0..tb.instructions.len() {
                if keep(tb, s) {
                    out.push((r, t, s));
                }
            }
        }
    }
    out
}

fn pick<T: Copy>(rng: &mut Splitmix64, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.below(items.len() as u64) as usize])
}

/// The seeded mutations, each applied to a copy of `ir`. A mutation with
/// no candidate site leaves the program as it is.
fn mutants(ir: &IrProgram, seed: u64) -> Vec<(&'static str, IrProgram)> {
    let mut rng = Splitmix64::new(seed);

    // Drop one dependency edge.
    let mut drop_dep = ir.clone();
    if let Some((r, t, s)) = pick(
        &mut rng,
        &steps(ir, |tb, s| !tb.instructions[s].deps.is_empty()),
    ) {
        let deps = &mut drop_dep.gpus[r].threadblocks[t].instructions[s].deps;
        let d = rng.below(deps.len() as u64) as usize;
        deps.remove(d);
    }

    // Swap two adjacent steps of one thread block.
    let mut swap = ir.clone();
    if let Some((r, t, s)) = pick(&mut rng, &steps(ir, |tb, s| s + 1 < tb.instructions.len())) {
        let instrs = &mut swap.gpus[r].threadblocks[t].instructions;
        instrs.swap(s, s + 1);
        instrs[s].step = s;
        instrs[s + 1].step = s + 1;
    }

    // Shift one destination index.
    let mut shift = ir.clone();
    if let Some((r, t, s)) = pick(
        &mut rng,
        &steps(&shift, |tb, s| tb.instructions[s].dst.is_some()),
    ) {
        let dst = shift.gpus[r].threadblocks[t].instructions[s]
            .dst
            .as_mut()
            .expect("picked for its dst");
        dst.index += 1;
    }

    vec![
        ("drop-dep", drop_dep),
        ("swap-steps", swap),
        ("shift-dst", shift),
    ]
}

/// A short name for a verdict, so the table reads without decoding.
fn class(result: &mscclang::Result<verify::VerifyReport>) -> &'static str {
    let Err(e) = result else { return "ok" };
    let text = e.to_string();
    ["data race", "deadlock", "postcondition", "uninitialized"]
        .into_iter()
        .find(|c| text.contains(c))
        .map_or("error", |c| c.split(' ').next_back().expect("non-empty"))
}

fn table() -> String {
    let mut text = String::from(
        "# verdict class and FNV-1a of format!(\"{:?}\", verify::check(..)) per\n\
         # (algorithm, nodes x gpus, program, slots, races).\n\
         # Regenerate with MSCCL_UPDATE_GOLDEN=1 cargo test --test golden_verify\n\
         # only when a change is meant to alter a verdict.\n",
    );
    let mut seed = 0;
    for name in NAMES {
        for (nodes, gpus) in SHAPES {
            let spec = AlgoSpec {
                ranks: Some(nodes * gpus),
                nodes,
                gpus,
                ..AlgoSpec::default()
            };
            let program =
                build_by_name(name, &spec).unwrap_or_else(|e| panic!("{name}@{nodes}x{gpus}: {e}"));
            let ir = compile(&program, &CompileOptions::default().with_verify(false))
                .unwrap_or_else(|e| panic!("{name}@{nodes}x{gpus}: {e}"));
            seed += 1;
            let mut programs = vec![("compiled", ir.clone())];
            programs.extend(mutants(&ir, seed));
            for (label, ir) in &programs {
                for slots in SLOTS {
                    for check_races in [true, false] {
                        let result = verify::check(ir, &VerifyOptions { slots, check_races });
                        let races = if check_races { "races" } else { "noraces" };
                        writeln!(
                            text,
                            "{name} {nodes}x{gpus} {label} slots{slots} {races} {} {:016x}",
                            class(&result),
                            fnv1a(format!("{result:?}").as_bytes())
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    text
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_verify.txt")
}

#[test]
fn verifier_verdicts_match_golden_digests() {
    let got = table();
    // The table is only a net for the race detector if some verdict is a
    // race: dropping a dependency edge must produce them.
    let rows = |label: &str, class: &str| {
        got.lines()
            .filter(|l| l.contains(&format!(" {label} ")) && l.contains(&format!(" {class} ")))
            .count()
    };
    assert!(rows("drop-dep", "race") > 0, "no data race rows");
    assert!(rows("compiled", "ok") > 0, "no clean rows");
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
        "verifier verdicts drifted from the golden digests ({} rows):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
