//! The benchmark's contract: its workloads, the metrics it reports and
//! the bound on each end-to-end metric. `BENCHMARK.json` at the root of
//! the repository is this file rendered by the `manifest` subcommand; a
//! unit test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use Better::{Higher, Lower};

/// Per-layer values by metric name; a name left out reads as 0.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 8;

/// The program the driver runs, from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve-hot",
        "one hot key over loopback HTTP: HTTP, admission, input and checksum handling and verify, not the collective, are the latency; the compiler does nothing",
    ),
    (
        "serve-churn",
        "Zipf over 180 keys against a 64-entry IR cache: compile-on-miss, LRU eviction and megabyte-size input and checksum handling dominate",
    ),
    (
        "exec-alpha",
        "ring allreduce on 16 ranks x 64 KiB: scheduler dispatch, FIFO hand-off and wake-ups are the time; the reduce kernels do almost nothing",
    ),
    (
        "exec-beta",
        "ring allreduce on 4 ranks x 4 MiB: memcpy, the SIMD reduce kernels and the double touch of every tile are the time; per-instruction overhead is invisible",
    ),
    (
        "compile-scale",
        "build and compile 21 programs up to 64 ranks: the only workload where the compiler's super-linear passes are the time",
    ),
    (
        "sim-scale",
        "serial simulator on a hand-built 1,024-rank ring (12.6 M events): the event queue and the round driver are the time; no compiler, no flow contention",
    ),
    (
        "sim-scale-par2",
        "the same 1,024-rank ring on the 2-thread parallel simulator: the round barrier and cross-shard routing on top of the event queue",
    ),
    (
        "sim-sweep",
        "132 small simulations, 1 KiB to 1 GiB x 3 protocols x 4 compiled programs: per-simulation set-up and the flow network dominate",
    ),
];

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; unused per layer.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the stack sees; every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0 — itself a prediction ("no compile on exec-*").
pub const PER_LAYER: &[MetricDef] = &[
    // algos: tracing the DSL program.
    layer("algos.build_ms", "ms", Lower),
    layer("algos.trace_ops", "count", Lower),
    // core: the compiler, whole and replayed pass by pass.
    layer("core.compile_ms", "ms", Lower),
    layer("core.compile_pass_ms", "ms", Lower),
    layer("core.verify_ms", "ms", Lower),
    layer("core.chunk_dag_ms", "ms", Lower),
    layer("core.instr_dag_ms", "ms", Lower),
    layer("core.fuse_ms", "ms", Lower),
    layer("core.channels_ms", "ms", Lower),
    layer("core.fifo_cycle_ms", "ms", Lower),
    layer("core.threadblocks_ms", "ms", Lower),
    layer("core.lower_ms", "ms", Lower),
    layer("core.replay_miss_share", "share", Lower),
    layer("core.instr_nodes", "count", Lower),
    layer("core.ir_instrs", "count", Lower),
    layer("core.ir_tbs", "count", Lower),
    layer("core.miss_compile_us", "us", Lower),
    // runtime: the threaded interpreter.
    layer("runtime.exec_us", "us", Lower),
    layer("runtime.exec_p99_us", "us", Lower),
    layer("runtime.exec_samples", "count", Higher),
    layer("runtime.algbw_gbps", "GB/s", Higher),
    layer("runtime.instructions", "count", Lower),
    layer("runtime.ns_per_instr", "ns", Lower),
    layer("runtime.us_per_payload_kib", "us", Lower),
    layer("runtime.pool_allocated", "count", Lower),
    layer("runtime.sem_wait_share", "share", Lower),
    layer("runtime.fifo_block_share", "share", Lower),
    layer("runtime.sched_steals", "count", Lower),
    layer("runtime.sched_parks", "count", Lower),
    layer("runtime.reduce_kernel_gbps", "GB/s", Higher),
    layer("runtime.probe_overhead_ratio", "ratio", Lower),
    layer("runtime.arena_setup_us", "us", Lower),
    layer("runtime.input_gen_us", "us", Lower),
    layer("runtime.verify_us", "us", Lower),
    // service: the daemon, seen from its socket and its replies.
    layer("service.req_per_s", "1/s", Higher),
    layer("service.latency_p99_us", "us", Lower),
    layer("service.latency_samples", "count", Higher),
    layer("service.queue_us", "us", Lower),
    layer("service.exec_us", "us", Lower),
    layer("service.front_us", "us", Lower),
    layer("service.http_us", "us", Lower),
    layer("service.checksum_us", "us", Lower),
    layer("service.front_rest_us", "us", Lower),
    layer("service.budget_gap_share", "share", Lower),
    layer("service.hit_p50_us", "us", Lower),
    layer("service.miss_p50_us", "us", Lower),
    layer("service.cache_hit_rate", "share", Higher),
    layer("service.cache_evictions", "count", Lower),
    layer("service.attempts_per_req", "ratio", Lower),
    layer("service.shed", "count", Lower),
    layer("service.failed", "count", Lower),
    // sim: the discrete-event simulator (host time unless named simulated).
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.ns_per_event", "ns", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.flows", "count", Lower),
    layer("sim.max_heap", "count", Lower),
    layer("sim.instructions", "count", Lower),
    layer("sim.simulated_total_us", "us", Lower),
    layer("sim.small_sim_us", "us", Lower),
    layer("sim.par2_speedup", "ratio", Higher),
    layer("topology.machine_build_us", "us", Lower),
    // The stacked budget: each layer's self time as a share of the time
    // the callers waited, from the spans of the traced rounds.
    layer("budget.bench_share", "share", Lower),
    layer("budget.service_share", "share", Lower),
    layer("budget.algos_share", "share", Lower),
    layer("budget.core_share", "share", Lower),
    layer("budget.runtime_share", "share", Lower),
    layer("budget.sim_share", "share", Lower),
    layer("budget.topology_share", "share", Lower),
    layer("bench.budget_gap_share", "share", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.spans", "count", Lower),
    // The host the numbers were taken on.
    layer("host.cpus", "count", Higher),
    layer("host.simd_bits", "count", Higher),
    layer("host.memcpy_gbps", "GB/s", Higher),
    layer("host.peak_rss_mib", "MiB", Lower),
];

/// `BENCHMARK.json`, rendered from the tables above.
#[must_use]
pub fn manifest() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"command\": [{}],", quoted(COMMAND));
    let _ = writeln!(s, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_file_rendered() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `cargo run --release -- manifest > ../BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let doc = crate::json::parse(&manifest()).expect("manifest is JSON");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(ok(n, "_.-", 64), "{n}");
            assert!(n.as_bytes()[0].is_ascii_alphanumeric(), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(m.unit, "_/%.-", 16), "{}", m.unit);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(COMMAND.len() <= 32 && manifest().len() <= 64 * 1024);
    }
}
