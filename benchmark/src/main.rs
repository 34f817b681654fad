//! The benchmark of this repository: one program that drives the whole
//! stack — daemon, runtime, compiler, simulator — through named
//! workloads, checks every output against an oracle and prints every
//! metric by name. See `README.md` beside this package.
//!
//! ```text
//! msccl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! msccl-benchmark all [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! msccl-benchmark compare <result-a.json> <result-b.json>
//! msccl-benchmark manifest        # BENCHMARK.json, from src/metrics.rs
//! msccl-benchmark pin             # rewrite expected/*.txt
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;
mod zipf;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use host::Host;
use metrics::{LayerValues, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Estimate;
use trace::{Budget, Layer};
use workloads::{Round, Workload};

/// How often a workload is set up; `setup_s` is the median.
const SETUPS: usize = 3;

/// Everything one run found out about one workload.
struct Outcome {
    name: &'static str,
    attempted: u64,
    failed: u64,
    checked: u64,
    oracle_s: f64,
    notes: Vec<String>,
    end_to_end: BTreeMap<&'static str, Estimate>,
    per_layer: LayerValues,
    budget: Option<Budget>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.checked > 0 && self.attempted > 0
    }
}

/// Sets up one workload (three times over), drives it for `seconds` and
/// checks what it produced. Untraced: five rounds. Traced: six,
/// alternating untraced and traced, so that the overhead of tracing is
/// measured inside one run.
fn run(
    name: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    host: &Host,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            previous.teardown();
        }
        let t0 = Instant::now();
        let workload = workloads::setup(name, seed, host)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(workload);
    }
    let mut workload = kept.expect("SETUPS is at least 1");

    let plan: &[bool] = if traced {
        &[false, true, false, true, false, true]
    } else {
        &[false; 5]
    };
    let budget = Duration::from_secs_f64(seconds / plan.len() as f64);
    let rounds: Vec<Round> = plan
        .iter()
        .map(|&traced_round| workload.round(budget, traced_round))
        .collect();

    let t0 = Instant::now();
    let verdict = workload.check();
    let oracle_s = t0.elapsed().as_secs_f64();

    let of_rounds = |want_traced: bool, f: fn(&Round) -> f64| {
        let values: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced == want_traced)
            .map(f)
            .collect();
        Estimate::of_rounds(&values)
    };
    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("latency_p50_us", of_rounds(false, Round::p50_us));
    end_to_end.insert("ops_per_s", of_rounds(false, Round::ops_per_s));
    end_to_end.insert("setup_s", Estimate::of_rounds(&setup_s));

    let mut per_layer = LayerValues::new();
    let mut budget = None;
    if traced {
        workload.probe(&rounds, &mut per_layer);
        let spans = workload.take_spans();
        let b = Budget::of(&spans);
        let mut set = |name, value| {
            per_layer.insert(name, value);
        };
        for (layer, name) in [
            (Layer::Bench, "budget.bench_share"),
            (Layer::Service, "budget.service_share"),
            (Layer::Algos, "budget.algos_share"),
            (Layer::Core, "budget.core_share"),
            (Layer::Runtime, "budget.runtime_share"),
            (Layer::Sim, "budget.sim_share"),
            (Layer::Topology, "budget.topology_share"),
        ] {
            set(name, b.share(layer));
        }
        set("bench.budget_gap_share", b.gap_share());
        set("bench.spans", spans.len() as f64);
        let untraced_p50 = end_to_end["latency_p50_us"].value;
        if untraced_p50 > 0.0 {
            set(
                "bench.trace_overhead_ratio",
                of_rounds(true, Round::p50_us).value / untraced_p50,
            );
        }
        set("host.cpus", host.cpus as f64);
        set("host.simd_bits", host.simd_bits());
        set("host.memcpy_gbps", host.memcpy_gbps);
        set("host.peak_rss_mib", host::peak_rss_mib());
        let path = out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::to_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        budget = Some(b);
    }
    workload.teardown();

    Ok(Outcome {
        name,
        attempted: rounds.iter().map(|r| r.ops).sum(),
        failed: rounds.iter().map(|r| r.failed).sum::<u64>() + verdict.mismatched,
        checked: verdict.checked,
        oracle_s,
        notes: verdict.notes,
        end_to_end,
        per_layer,
        budget,
    })
}

/// A finite number in shortest round-trip form (JSON has no NaN).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `"name": {"value": v, "unit": "u"}` — the driver's form of a metric.
fn metric_json(def: &metrics::MetricDef, value: f64) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        def.name,
        number(value),
        def.unit
    )
}

/// The human-readable report of one workload.
fn render(o: &Outcome, traced: bool) -> String {
    let mut s = String::new();
    let _ =
        writeln!(
        s,
        "== {} — {} operations, {} failed, {} outputs checked against the oracle ({:.3} s) — {}",
        o.name,
        o.attempted,
        o.failed,
        o.checked,
        o.oracle_s,
        if o.correct() { "correct" } else { "NOT CORRECT" }
    );
    for note in &o.notes {
        let _ = writeln!(s, "   mismatch: {note}");
    }
    for def in END_TO_END {
        let e = o.end_to_end[def.name];
        let _ = writeln!(
            s,
            "   {:<28} {:>16.3} {:<6} rounds {:.3} .. {:.3}",
            def.name, e.value, def.unit, e.min, e.max
        );
    }
    if traced {
        for def in PER_LAYER {
            if let Some(v) = o.per_layer.get(def.name).filter(|v| **v != 0.0) {
                let _ = writeln!(s, "   {:<28} {:>16.3} {}", def.name, v, def.unit);
            }
        }
        if let Some(b) = &o.budget {
            let _ = writeln!(s, "   budget: {}", b.render());
        }
        if o.per_layer
            .get("core.replay_miss_share")
            .is_some_and(|v| *v > 0.10)
        {
            let _ = writeln!(
                s,
                "   per-pass compile split: unresolved (replay misses compile by > 10 %)"
            );
        }
    }
    s
}

/// The result file: everything `compare` needs, and the fingerprint of
/// the host so numbers from two machines are never compared silently.
fn result_json(outcomes: &[Outcome], seed: u64, seconds: f64, traced: bool, host: &Host) -> String {
    let join = |entries: Vec<String>| entries.join(",\n        ");
    let end_to_end = |o: &Outcome| {
        join(
            END_TO_END
                .iter()
                .map(|d| {
                    let e = o.end_to_end[d.name];
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"min\": {}, \"max\": {}}}",
                        d.name,
                        number(e.value),
                        d.unit,
                        number(e.min),
                        number(e.max)
                    )
                })
                .collect(),
        )
    };
    let per_layer = |o: &Outcome| {
        join(
            PER_LAYER
                .iter()
                .map(|d| metric_json(d, o.per_layer.get(d.name).copied().unwrap_or(0.0)))
                .collect(),
        )
    };
    let workloads = outcomes
        .iter()
        .map(|o| {
            let per_layer = if traced {
                format!(",\n      \"per_layer\": {{\n        {}}}", per_layer(o))
            } else {
                String::new()
            };
            format!(
                "    \"{}\": {{\"attempted\": {}, \"failed\": {}, \"correct\": {}, \"oracle_s\": {},\n      \
                 \"end_to_end\": {{\n        {}}}{per_layer}}}",
                o.name,
                o.attempted,
                o.failed,
                o.correct(),
                number(o.oracle_s),
                end_to_end(o),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"schema\": \"msccl-benchmark-v1\",\n  \"seed\": {seed},\n  \"seconds\": {},\n  \
         \"trace\": {},\n  \"host\": {},\n  \"workloads\": {{\n{workloads}\n  }}\n}}\n",
        number(seconds),
        u8::from(traced),
        host.to_json()
    )
}

/// The line the driver reads: last on standard output.
fn driver_line(o: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        PER_LAYER
            .iter()
            .map(|d| metric_json(d, o.per_layer.get(d.name).copied().unwrap_or(0.0)))
            .collect::<Vec<_>>()
    } else {
        END_TO_END
            .iter()
            .map(|d| metric_json(d, o.end_to_end[d.name].value))
            .collect()
    }
    .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed
    )
}

/// `benchmark/out` from the root of a checkout, `out` from inside the
/// package.
fn out_dir() -> Result<PathBuf, String> {
    let dir = if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(arg.clone());
            }
            _ => args.files.push(arg.clone()),
        }
    }
    Ok(args)
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: msccl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         msccl-benchmark all [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       \
         msccl-benchmark compare <result-a.json> <result-b.json>\n       \
         msccl-benchmark manifest | pin\n\
         workloads: {}",
        names.join(", ")
    )
}

fn real_main() -> Result<i32, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    let known = |name: &str| WORKLOADS.iter().map(|w| w.0).find(|w| *w == name);
    let (names, label): (Vec<&'static str>, String) =
        match (&args.workload, args.command.as_deref()) {
            (Some(name), None) => {
                let name =
                    known(name).ok_or_else(|| format!("unknown workload '{name}'\n{}", usage()))?;
                (vec![name], name.to_string())
            }
            (None, Some("all")) => (WORKLOADS.iter().map(|w| w.0).collect(), "all".into()),
            (None, Some("manifest")) => {
                print!("{}", metrics::manifest());
                return Ok(0);
            }
            (None, Some("pin")) => {
                let dir = out_dir()?.with_file_name("expected");
                workloads::pin_expected(&dir)?;
                println!("wrote {}/*.txt — rebuild to embed them", dir.display());
                return Ok(0);
            }
            (None, Some("compare")) => {
                let [a, b] = args.files.as_slice() else {
                    return Err(usage());
                };
                let load = |path: &String| {
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("{path}: {e}"))
                        .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
                };
                let found = compare::compare(&load(a)?, &load(b)?);
                print!("{}", found.text);
                if found.pairs == 0 {
                    return Err("the two files share no workload".into());
                }
                return Ok(i32::from(found.breaches > 0));
            }
            _ => return Err(usage()),
        };

    let host = Host::detect();
    let out_dir = out_dir()?;
    println!(
        "host: {} cpus, simd {}, memcpy {:.2} GB/s, {} — seed {}, {} s per workload, {}",
        host.cpus,
        host.simd_level,
        host.memcpy_gbps,
        host.rustc,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" }
    );
    let mut outcomes = Vec::with_capacity(names.len());
    for name in names {
        let o = run(name, args.seed, args.seconds, args.traced, &host, &out_dir)?;
        print!("{}", render(&o, args.traced));
        outcomes.push(o);
    }
    let path = out_dir.join(format!(
        "result-{label}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.traced)
    ));
    std::fs::write(
        &path,
        result_json(&outcomes, args.seed, args.seconds, args.traced, &host),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if args.workload.is_some() {
        println!("{}", driver_line(&outcomes[0], args.traced));
    }
    Ok(i32::from(
        outcomes.iter().any(|o| !o.correct()) && args.workload.is_none(),
    ))
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
