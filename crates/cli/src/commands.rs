//! The subcommands and their registry of buildable algorithms.

use std::fmt::Write as _;
use std::time::Duration;

use msccl_faults::{FaultInjector, FaultPlan, FaultUniverse};
use msccl_metrics::{names, MetricsSnapshot};
use msccl_runtime::{
    execute_with_recovery, reference, run, worker_pool_size, Blackbox, RecoveryPolicy, Run,
    RunOptions,
};
use msccl_scenario::{
    check_scenario, drive_scenario, run_scenario, DriveConfig, Engine as ScenarioEngine,
    RunConfig as ScenarioRunConfig, Scenario,
};
use msccl_service::{signal as service_signal, start as service_start, ServiceConfig, TenantSpec};
use msccl_sim::{simulate, SimConfig};
use msccl_topology::Protocol;
use msccl_trace::{snapshot_from_trace, ClockDomain, ProfileReport, Trace};
use mscclang::{compile, ir_xml, verify, CompileOptions, IrProgram, Program};

use crate::args::{Args, CliError};
use crate::machine_spec::{parse_machine, parse_size};

/// The `msccl help` text.
pub const HELP: &str = "\
msccl — MSCCLang compiler and tools (paper reproduction)

USAGE:
    msccl <command> [arguments]

COMMANDS:
    list                          list buildable algorithms
    compile <algorithm> [opts]    build an algorithm and emit MSCCL-IR XML
        --ranks N | --nodes N --gpus N    dimensions (per algorithm)
        --channels N                      ring channel count
        --chunks N                        chunk factor (tree)
        --instances N                     parallelization factor r
        --protocol Simple|LL|LL128        protocol hint stored in the IR
        --no-fuse                         disable instruction fusion
        --aggregate                       auto-merge contiguous sends
        --dce                             drop staging whose result is unread
        --slots N                         FIFO budget the schedule must respect
        -o FILE                           write XML here (default: stdout)
    verify <file.xml> [--slots N]  symbolically execute and check the IR
    inspect <file.xml>             print the IR and schedule statistics
    graph <file.xml>               emit a Graphviz DOT rendering of the IR
    simulate <file.xml> --machine M --size S [--protocol P] [--timeline F]
                        [--trace F] [--fault-seed N | --fault-plan F]
                        [--parallel N]
                                   estimate latency (M: ndv4[:N], dgx2[:N], dgx1,
                                   or custom:<nodes>x<gpus>[:intra_gbps[:nic_gbps]]);
                                   --timeline writes per-thread-block busy
                                   intervals as CSV to F; --trace writes a
                                   virtual-time event trace to F (Chrome
                                   trace JSON, or CSV if F ends in .csv);
                                   fault flags inject deterministic faults
                                   into the virtual timeline;
                                   --parallel runs the sharded engine on N
                                   threads (bit-identical to serial; see
                                   docs/simulator.md)
    run <file.xml> [--elems N] [--threads N] [--trace F] [--deadline-ms N]
                   [--fault-seed N | --fault-plan F] [--retries N]
                   [--fallback FILE.xml] [--blackbox-dir DIR]
                                   execute on real data and check numerics;
                                   --threads sizes the scheduler's worker
                                   pool (default 0 = min(cores, thread
                                   blocks); results are bit-exact at any
                                   size); --trace writes a wall-clock event
                                   trace to F (Chrome trace JSON, or CSV if
                                   F ends in .csv); --deadline-ms bounds
                                   total wall-clock time including recovery
                                   backoff; fault flags inject deterministic
                                   faults (seeded, or from a plan file);
                                   --retries/--fallback enable collective-
                                   level recovery, with every decision
                                   reported (and traced);
                                   --blackbox-dir writes a post-mortem
                                   black-box dump (flight records, wait-for
                                   graph, stall diagnosis) there when the
                                   run fails — inspect it with msccl doctor
    doctor <dump.json> [--format human|json|chrome] [--out F]
                                   diagnose a black-box dump written by a
                                   failed run (--blackbox-dir): names the
                                   root-cause rank/tb/step, classifies the
                                   stall (deadlock cycle, orphaned wait,
                                   straggler, injected fault) and walks the
                                   wait chain; --format json re-emits the
                                   dump, chrome renders the flight recorder
                                   as a Chrome trace (requires --out)
    faults <file.xml> --seed N [--format text|json]
                                   print the deterministic fault plan that
                                   seed N generates for this program (feed
                                   it back via --fault-plan to reproduce);
                                   --format json emits the plan with per-
                                   fault classes for tooling
    scenario run <file.toml> [--parallel N] [--format text|json] [--out F]
                 [--blackbox-dir DIR]
                                   run a declarative robustness scenario:
                                   seeded traffic storms with faults,
                                   stragglers and SLO assertions (see
                                   docs/scenarios.md); exits non-zero when
                                   an SLO fails; --parallel selects the
                                   sharded sim backend (reports stay
                                   bit-identical); --out writes the report
                                   and prints a one-line summary;
                                   --blackbox-dir dumps a black box for
                                   every op that fails outright (runtime
                                   engine), with paths in the report
    scenario check <file.toml>     parse and validate a scenario without
                                   running it (machine, collectives, fault
                                   sites, SLO grammar)
    scenario list [dir]            summarize the scenarios in a directory
                                   (default: scenarios/)
    scenario drive <file.toml> --addr HOST:PORT [--connections N]
                   [--deadline-ms N] [--format text|json] [--out F]
                                   replay the scenario's seeded traffic
                                   program against a live `msccl serve`
                                   daemon: the same algorithm mix, sizes,
                                   tenants and input seeds the local
                                   engines would run, issued closed-loop
                                   over N keep-alive connections
                                   (default 4); 429/503 sheds are
                                   counted per tenant, not errors
    serve [--addr HOST:PORT] [--exec-workers N] [--http-workers N]
          [--queue-depth N] [--cache-capacity N]
          [--tenants name:rate:burst[:weight],...]
          [--default-rate R] [--default-burst B] [--deadline-ms N]
          [--retries N] [--no-verify] [--blackbox-dir DIR]
          [--topology NAME] [--max-ranks N]
                                   run the collective-as-a-service daemon
                                   (default addr 127.0.0.1:8080; port 0
                                   picks an ephemeral port): GET/POST
                                   /collective executes a collective
                                   (compile-or-hit IR cache), /healthz,
                                   /metrics (Prometheus), /stats (JSON),
                                   POST /shutdown drains; per-tenant
                                   token-bucket admission with weighted-
                                   fair dequeue sheds overload as
                                   structured 429/503 + Retry-After;
                                   SIGTERM/SIGINT stop admission, finish
                                   every in-flight request and exit 0.
                                   --exec-workers N sets the execution
                                   slots (default 2): at most N requests
                                   run at once, each on the connection
                                   thread that read it
                                   (see docs/service.md)
    profile <file.xml> [--elems N] [--mode run|sim] [--machine M]
                       [--from-trace F.csv] [--format text|json|prom]
                       [--threshold X] [--out FILE]
                                   per-step performance attribution: compute
                                   vs send vs sync-wait vs FIFO-block per
                                   thread block, per-channel traffic, and a
                                   measured-vs-modeled column replaying the
                                   same IR through the simulator's cost
                                   model, flagging steps whose busy share
                                   diverges by more than --threshold
                                   (default 0.5). --mode run (default)
                                   measures a live execution; --mode sim
                                   attributes the virtual timeline only;
                                   --from-trace reads a recorded CSV trace
                                   instead of running. --format json emits
                                   the msccl-profile-v1 report, prom the
                                   Prometheus exposition of the counters
    tune <algorithm> --machine M [--sizes 4KB,1MB,...] [dimension opts]
                                   sweep (instances x protocol) and print
                                   the best configuration per buffer size
    help                           this text
";

/// The options each command reads, space-separated, keyed by the
/// command or, for `scenario`, by `scenario <action>`. [`dispatch`]
/// rejects any other option rather than ignore it.
const ACCEPTED_OPTIONS: &[(&str, &str)] = &[
    ("help", ""),
    ("--help", ""),
    ("list", ""),
    (
        "compile",
        "ranks nodes gpus channels chunks root instances protocol no-fuse aggregate dce slots \
         output",
    ),
    ("verify", "slots"),
    ("inspect", ""),
    ("graph", ""),
    (
        "simulate",
        "machine size protocol timeline trace fault-seed fault-plan parallel",
    ),
    (
        "run",
        "elems threads trace deadline-ms fault-seed fault-plan retries fallback blackbox-dir",
    ),
    ("doctor", "format out"),
    ("faults", "seed format"),
    ("scenario run", "parallel format out blackbox-dir"),
    ("scenario check", "parallel format out blackbox-dir"),
    ("scenario list", ""),
    ("scenario drive", "addr connections deadline-ms format out"),
    (
        "serve",
        "addr exec-workers http-workers queue-depth cache-capacity tenants default-rate \
         default-burst deadline-ms retries no-verify blackbox-dir topology max-ranks",
    ),
    (
        "profile",
        "elems mode machine from-trace format threshold out",
    ),
    (
        "tune",
        "machine sizes ranks nodes gpus channels chunks root",
    ),
];

/// Whether `command` (a key of [`ACCEPTED_OPTIONS`]) takes `--option`.
fn accepts(command: &str, option: &str) -> Option<bool> {
    let (_, accepted) = ACCEPTED_OPTIONS.iter().find(|(c, _)| *c == command)?;
    Some(accepted.split_whitespace().any(|a| a == option))
}

/// Rejects an option the command does not read, naming the first in
/// sorted order. Commands and scenario actions missing from
/// [`ACCEPTED_OPTIONS`] pass, to fail with their own error.
fn check_options(args: &Args) -> Result<(), CliError> {
    let command = match (args.command.as_str(), args.positional.first()) {
        ("scenario", Some(action)) => format!("scenario {action}"),
        (command, _) => command.to_owned(),
    };
    match args
        .options
        .keys()
        .filter(|k| accepts(&command, k) == Some(false))
        .min()
    {
        Some(key) => Err(CliError::new(format!(
            "'{command}' does not take --{key}; try 'msccl help'"
        ))),
        None => Ok(()),
    }
}

/// Dispatches a parsed command line; returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing what went wrong, suitable for
/// printing to stderr.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    check_options(args)?;
    match args.command.as_str() {
        "help" | "--help" => Ok(HELP.to_owned()),
        "list" => Ok(list()),
        "compile" => cmd_compile(args),
        "verify" => cmd_verify(args),
        "inspect" => cmd_inspect(args),
        "graph" => Ok(mscclang::dot::ir_dot(&load_ir(args)?)),
        "simulate" => cmd_simulate(args),
        "run" => cmd_run(args),
        "profile" => cmd_profile(args),
        "faults" => cmd_faults(args),
        "scenario" => cmd_scenario(args),
        "serve" => cmd_serve(args),
        "doctor" => cmd_doctor(args),
        "tune" => cmd_tune(args),
        other => Err(CliError::new(format!(
            "unknown command '{other}'; try 'msccl help'"
        ))),
    }
}

/// `(name, description, dimension hint)` for each buildable algorithm.
const ALGORITHMS: &[(&str, &str, &str)] = &[
    (
        "ring-allreduce",
        "Ring AllReduce (Fig. 3b), --channels distributes the ring",
        "--ranks",
    ),
    (
        "allpairs-allreduce",
        "All Pairs AllReduce for small buffers (§7.1.2)",
        "--ranks",
    ),
    (
        "hierarchical-allreduce",
        "hierarchical AllReduce (Fig. 3a)",
        "--nodes --gpus",
    ),
    (
        "two-step-alltoall",
        "Two-Step AllToAll with aggregated IB sends (Fig. 9)",
        "--nodes --gpus",
    ),
    (
        "one-step-alltoall",
        "naive point-to-point AllToAll",
        "--nodes --gpus",
    ),
    (
        "alltonext",
        "AllToNext custom collective (§7.4)",
        "--nodes --gpus",
    ),
    (
        "hcm-allgather",
        "3-step AllGather for the DGX-1 cube mesh (§7.5)",
        "(fixed 8 ranks)",
    ),
    (
        "recursive-doubling-allgather",
        "recursive doubling AllGather",
        "--ranks (power of 2)",
    ),
    (
        "tree-allreduce",
        "binary tree AllReduce",
        "--ranks [--chunks]",
    ),
    (
        "double-tree-allreduce",
        "NCCL-style double binary tree AllReduce",
        "--ranks [--chunks]",
    ),
    (
        "rabenseifner-allreduce",
        "recursive halving+doubling AllReduce",
        "--ranks (power of 2)",
    ),
    (
        "broadcast",
        "binomial tree Broadcast",
        "--ranks [--root R] [--chunks]",
    ),
    (
        "reduce",
        "binomial tree Reduce",
        "--ranks [--root R] [--chunks]",
    ),
    ("gather", "linear Gather", "--ranks [--root R] [--chunks]"),
    ("scatter", "linear Scatter", "--ranks [--root R] [--chunks]"),
];

fn list() -> String {
    let mut out = String::from("buildable algorithms:\n");
    for (name, desc, dims) in ALGORITHMS {
        let _ = writeln!(out, "  {name:<30} {desc}  [{dims}]");
    }
    out
}

/// Builds a program from the registry.
fn build_program(args: &Args) -> Result<Program, CliError> {
    let name = args.positional1("algorithm name (try 'msccl list')")?;
    let ranks: Option<usize> = args.opt("ranks")?;
    let nodes: usize = args.opt_or("nodes", 2)?;
    let gpus: usize = args.opt_or("gpus", 8)?;
    let need_ranks = || ranks.ok_or_else(|| CliError::new("--ranks is required"));
    let program = match name {
        "ring-allreduce" => {
            msccl_algos::ring_all_reduce(need_ranks()?, args.opt_or("channels", 1)?)?
        }
        "allpairs-allreduce" => msccl_algos::allpairs_all_reduce(need_ranks()?)?,
        "hierarchical-allreduce" => msccl_algos::hierarchical_all_reduce(nodes, gpus)?,
        "two-step-alltoall" => msccl_algos::two_step_all_to_all(nodes, gpus)?,
        "one-step-alltoall" => msccl_algos::one_step_all_to_all(nodes, gpus)?,
        "alltonext" => msccl_algos::all_to_next(nodes, gpus)?,
        "hcm-allgather" => msccl_algos::hcm_allgather()?,
        "recursive-doubling-allgather" => {
            msccl_algos::recursive_doubling_all_gather(need_ranks()?)?
        }
        "tree-allreduce" => {
            msccl_algos::binary_tree_all_reduce(need_ranks()?, args.opt_or("chunks", 1)?)?
        }
        "double-tree-allreduce" => {
            msccl_algos::double_binary_tree_all_reduce(need_ranks()?, args.opt_or("chunks", 2)?)?
        }
        "rabenseifner-allreduce" => msccl_algos::rabenseifner_all_reduce(need_ranks()?)?,
        "broadcast" => msccl_algos::binomial_broadcast(
            need_ranks()?,
            args.opt_or("chunks", 1)?,
            args.opt_or("root", 0)?,
        )?,
        "reduce" => msccl_algos::binomial_reduce(
            need_ranks()?,
            args.opt_or("chunks", 1)?,
            args.opt_or("root", 0)?,
        )?,
        "gather" => msccl_algos::linear_gather(
            need_ranks()?,
            args.opt_or("chunks", 1)?,
            args.opt_or("root", 0)?,
        )?,
        "scatter" => msccl_algos::linear_scatter(
            need_ranks()?,
            args.opt_or("chunks", 1)?,
            args.opt_or("root", 0)?,
        )?,
        other => {
            return Err(CliError::new(format!(
                "unknown algorithm '{other}'; try 'msccl list'"
            )))
        }
    };
    Ok(program)
}

fn cmd_compile(args: &Args) -> Result<String, CliError> {
    let mut program = build_program(args)?;
    if let Some(proto) = args.options.get("protocol") {
        let protocol = Protocol::parse(proto)
            .ok_or_else(|| CliError::new(format!("unknown protocol '{proto}'")))?;
        program.set_protocol(protocol);
    }
    program.validate()?;
    let opts = CompileOptions::default()
        .with_instances(args.opt_or("instances", 1)?)
        .with_fuse(!args.flag("no-fuse"))
        .with_aggregate(args.flag("aggregate"))
        .with_eliminate_dead(args.flag("dce"))
        .with_slots(args.opt_or("slots", 8)?);
    let ir = compile(&program, &opts)?;
    let xml = ir_xml::to_xml(&ir);
    match args.options.get("output") {
        Some(path) => {
            std::fs::write(path, &xml)?;
            Ok(format!(
                "wrote {path}: {} ranks, {} thread blocks, {} instructions (verified)\n",
                ir.num_ranks(),
                ir.num_threadblocks(),
                ir.num_instructions()
            ))
        }
        None => Ok(xml),
    }
}

/// Reads a user-named input file, producing an error that names both
/// the path and what it was supposed to be. The blanket
/// `From<io::Error>` conversion would render a bare "No such file or
/// directory" with no hint which of several path arguments was wrong.
fn read_input(path: &str, what: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {what} '{path}': {e}")))
}

/// Reads and parses an MSCCL-IR file; errors name `what` and the path.
fn read_ir(path: &str, what: &str) -> Result<IrProgram, CliError> {
    let xml = read_input(path, what)?;
    ir_xml::from_xml(&xml).map_err(|e| CliError::new(format!("{what} '{path}': {e}")))
}

fn load_ir(args: &Args) -> Result<IrProgram, CliError> {
    read_ir(args.positional1("MSCCL-IR XML file")?, "MSCCL-IR XML file")
}

fn cmd_verify(args: &Args) -> Result<String, CliError> {
    let ir = load_ir(args)?;
    let opts = verify::VerifyOptions {
        slots: args.opt_or("slots", 8)?,
        check_races: true,
    };
    let report = verify::check(&ir, &opts)?;
    Ok(format!(
        "{}: OK — {} instructions across {} thread blocks, deadlock-free at {} slot(s), \
         race-free, postcondition satisfied (peak queue depth {})\n",
        ir.name,
        report.instructions_executed,
        report.threadblocks,
        opts.slots,
        report.max_queue_depth
    ))
}

fn cmd_inspect(args: &Args) -> Result<String, CliError> {
    let ir = load_ir(args)?;
    let mut out = format!("{ir}");
    let _ = writeln!(
        out,
        "\nschedule: protocol hint {:?}, refinement x{}\n{}",
        ir.protocol,
        ir.refinement,
        mscclang::IrStats::compute(&ir)
    );
    Ok(out)
}

/// Extracts the `--trace` output path. The option parser records a bare
/// `--trace` as the value `"true"`; requiring an explicit path here keeps
/// the flag from silently writing a file named `true`.
fn trace_path(args: &Args) -> Result<Option<&str>, CliError> {
    match args.options.get("trace").map(String::as_str) {
        Some("true") => Err(CliError::new(
            "--trace requires a file path (e.g. --trace out.json)",
        )),
        other => Ok(other),
    }
}

/// Extracts the `--blackbox-dir` dump directory. Like [`trace_path`],
/// a bare flag (recorded as `"true"`) is rejected so it cannot silently
/// create a directory named `true`.
fn blackbox_dir(args: &Args) -> Result<Option<std::path::PathBuf>, CliError> {
    match args.options.get("blackbox-dir").map(String::as_str) {
        Some("true") => Err(CliError::new(
            "--blackbox-dir requires a directory path (e.g. --blackbox-dir dumps/)",
        )),
        other => Ok(other.map(std::path::PathBuf::from)),
    }
}

/// Writes `trace` to `path` — CSV when the extension is `.csv`, Chrome
/// trace JSON otherwise — and returns a one-line summary for the console.
fn write_trace(path: &str, trace: &Trace) -> Result<String, CliError> {
    let body = if path.ends_with(".csv") {
        trace.to_csv()
    } else {
        trace.to_chrome_json()
    };
    std::fs::write(path, body)
        .map_err(|e| CliError::new(format!("cannot write trace to {path}: {e}")))?;
    let s = trace.summary();
    Ok(format!(
        "trace: {} events over {:.1} us ({} clock) -> {path}; critical path {:.1} us\n",
        trace.len(),
        s.span_us,
        trace.domain().label(),
        s.critical_path_us
    ))
}

/// One-line summary of the always-on metric counters, printed identically
/// by `run` and `simulate` so their outputs share a stats schema: the
/// simulator reports virtual nanoseconds where the runtime reports wall
/// nanoseconds, and its pool counters are zero (it moves no data).
fn stats_line(snapshot: &MetricsSnapshot) -> String {
    let us = |name| snapshot.counter_total(name) as f64 / 1000.0;
    format!(
        "stats: instructions={} sends={} recvs={} bytes_sent={} bytes_received={} \
         sem_wait_us={:.1} fifo_block_us={:.1} pool_allocated={} pool_reused={}\n",
        snapshot.counter_total(names::INSTRUCTIONS),
        snapshot.counter_total(names::SENDS),
        snapshot.counter_total(names::RECVS),
        snapshot.counter_total(names::BYTES_SENT),
        snapshot.counter_total(names::BYTES_RECEIVED),
        us(names::SEM_WAIT_NS),
        us(names::FIFO_SEND_BLOCK_NS) + us(names::FIFO_RECV_BLOCK_NS),
        snapshot.counter_total(names::POOL_ALLOCATED),
        snapshot.counter_total(names::POOL_REUSED),
    )
}

/// The `profile` command: attribution of where time went, per thread
/// block, channel and instruction kind, with a measured-vs-modeled column
/// from replaying the same IR through the simulator's cost model.
fn cmd_profile(args: &Args) -> Result<String, CliError> {
    let ir = load_ir(args)?;
    let chunk_elems: usize = args.opt_or("elems", 256)?;
    if chunk_elems == 0 {
        return Err(CliError::new("--elems must be positive"));
    }
    let threshold: f64 = args.opt_or("threshold", 0.5)?;
    if !threshold.is_finite() || threshold <= 0.0 {
        return Err(CliError::new("--threshold must be positive"));
    }
    let machine = parse_machine(args.options.get("machine").map_or("ndv4:1", String::as_str))?;
    // The runtime is pinned to one tile per chunk below, so the modeled
    // run sees the same per-chunk payload when the buffer holds exactly
    // in_chunks × chunk_elems f32 values.
    let buffer_bytes = (ir.collective.in_chunks() * chunk_elems * 4) as u64;
    let cfg = SimConfig::new(machine).with_trace(true);
    let modeled = simulate(&ir, &cfg, buffer_bytes)?;
    let modeled_trace = modeled.trace.as_ref().expect("requested via with_trace");

    let mode = args.options.get("mode").map_or("run", String::as_str);
    let from_trace = args.options.get("from-trace");
    let (report, snapshot) = match (from_trace, mode) {
        (Some(path), _) => {
            // Offline: the same report from a recorded CSV trace.
            let measured = Trace::from_csv(&std::fs::read_to_string(path)?, ClockDomain::Wall)
                .map_err(|e| CliError::new(format!("{path}: {e}")))?;
            let snapshot = snapshot_from_trace(&measured);
            (
                ProfileReport::from_traces(&measured, Some(modeled_trace), threshold),
                snapshot,
            )
        }
        (None, "run") => {
            let inputs = reference::random_inputs(&ir, chunk_elems, 0xFEED);
            let opts = RunOptions {
                // One tile per chunk, so runtime and simulator execute
                // structurally identical schedules and the per-step
                // comparison is meaningful.
                tile_elems: Some(chunk_elems),
                ..RunOptions::default()
            };
            let report = run(Run {
                trace: true,
                snapshot: true,
                ..Run::new(&ir, &inputs, chunk_elems, &opts)
            });
            let outputs = report.result?;
            let measured = report.trace.expect("tracing was requested");
            reference::check_outputs(
                &ir.collective,
                &inputs,
                &outputs,
                chunk_elems,
                mscclang::ReduceOp::Sum,
            )
            .map_err(CliError::new)?;
            (
                ProfileReport::from_traces(&measured, Some(modeled_trace), threshold),
                report.metrics,
            )
        }
        (None, "sim") => (
            ProfileReport::from_traces(modeled_trace, None, threshold),
            modeled.metrics.clone(),
        ),
        (None, other) => {
            return Err(CliError::new(format!(
                "unknown --mode '{other}' (expected run or sim)"
            )))
        }
    };

    let format = args.options.get("format").map_or("text", String::as_str);
    let body = match format {
        "text" => report.render_text(),
        "json" => report.to_json(),
        "prom" => snapshot.to_prometheus(),
        other => {
            return Err(CliError::new(format!(
                "unknown --format '{other}' (expected text, json or prom)"
            )))
        }
    };
    match args.options.get("out") {
        Some(path) => {
            std::fs::write(path, &body)?;
            Ok(format!(
                "profile: {} thread blocks, {} channels, {} flagged step(s) -> {path}\n",
                report.thread_blocks.len(),
                report.channels.len(),
                report.flagged_steps
            ))
        }
        None => Ok(body),
    }
}

/// Resolves `--fault-seed N` or `--fault-plan FILE` into a validated
/// [`FaultPlan`] for `ir`; `None` when neither flag was given.
fn load_fault_plan(args: &Args, ir: &IrProgram) -> Result<Option<FaultPlan>, CliError> {
    let seed: Option<u64> = args.opt("fault-seed")?;
    let file = args.options.get("fault-plan");
    let plan = match (seed, file) {
        (Some(_), Some(_)) => {
            return Err(CliError::new(
                "--fault-seed and --fault-plan are mutually exclusive",
            ))
        }
        (Some(seed), None) => FaultPlan::generate(seed, &FaultUniverse::from_ir(ir)),
        (None, Some(path)) => FaultPlan::parse(&read_input(path, "fault plan")?)
            .map_err(|e| CliError::new(format!("{path}: {e}")))?,
        (None, None) => return Ok(None),
    };
    plan.validate(ir)?;
    Ok(Some(plan))
}

fn cmd_faults(args: &Args) -> Result<String, CliError> {
    let ir = load_ir(args)?;
    let seed: u64 = args
        .opt("seed")?
        .ok_or_else(|| CliError::new("--seed is required"))?;
    let plan = FaultPlan::generate(seed, &FaultUniverse::from_ir(&ir));
    match args.options.get("format").map_or("text", String::as_str) {
        "text" => {
            let mut out = plan.to_text();
            if let Some(class) = plan.worst_class() {
                let _ = writeln!(out, "# worst class: {class:?}");
            }
            Ok(out)
        }
        "json" => Ok(plan.to_json()),
        other => Err(CliError::new(format!(
            "unknown --format '{other}' (expected text or json)"
        ))),
    }
}

/// The `scenario` command family: `run`, `check` and `list` over the
/// declarative robustness-scenario format (`msccl-scenario` crate).
fn cmd_scenario(args: &Args) -> Result<String, CliError> {
    let action = args
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| CliError::new("expected 'scenario run|check|list'"))?;
    match action {
        "run" | "check" => {
            let path = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::new(format!("scenario {action} needs a file")))?;
            let text = read_input(path, "scenario file")?;
            let scenario =
                Scenario::parse(&text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
            let mut cfg = ScenarioRunConfig {
                base_dir: std::path::Path::new(path).parent().map(Into::into),
                ..ScenarioRunConfig::default()
            };
            if args.options.contains_key("parallel") {
                let threads: usize = args.opt_or("parallel", 0)?;
                if threads == 0 {
                    return Err(CliError::new("--parallel must be a positive thread count"));
                }
                cfg.threads = Some(threads);
            }
            cfg.blackbox_dir = blackbox_dir(args)?;
            if action == "check" {
                check_scenario(&scenario, &cfg)
                    .map_err(|e| CliError::new(format!("{path}: {e}")))?;
                return Ok(format!(
                    "{path}: ok — {} over {} rep(s) of {} op(s) on {}, {} SLO assertion(s)\n",
                    scenario.name,
                    scenario.repetitions,
                    scenario.traffic.ops,
                    scenario.machine,
                    scenario.slo.len()
                ));
            }
            let report =
                run_scenario(&scenario, &cfg).map_err(|e| CliError::new(format!("{path}: {e}")))?;
            let body = match args.options.get("format").map_or("text", String::as_str) {
                "text" => report.to_text(),
                "json" => report.to_json(),
                other => {
                    return Err(CliError::new(format!(
                        "unknown --format '{other}' (expected text or json)"
                    )))
                }
            };
            let out = match args.options.get("out") {
                Some(file) => {
                    std::fs::write(file, &body)?;
                    format!(
                        "scenario {}: {} ({} op(s), p99 {:.1} us) -> {file}\n",
                        report.name,
                        if report.passed { "PASS" } else { "FAIL" },
                        report.ops,
                        report.p99_us
                    )
                }
                None => body,
            };
            if report.passed {
                Ok(out)
            } else {
                // SLO failures exit non-zero with the full report, so CI
                // gates directly on `msccl scenario run`.
                Err(CliError::new(out))
            }
        }
        "drive" => {
            let path = args
                .positional
                .get(1)
                .ok_or_else(|| CliError::new("scenario drive needs a file"))?;
            let text = read_input(path, "scenario file")?;
            let scenario =
                Scenario::parse(&text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
            let addr = args
                .options
                .get("addr")
                .cloned()
                .ok_or_else(|| CliError::new("scenario drive needs --addr HOST:PORT"))?;
            let cfg = DriveConfig {
                addr,
                connections: args.opt_or("connections", DriveConfig::default().connections)?,
                deadline_ms: args.opt("deadline-ms")?,
            };
            let report = drive_scenario(&scenario, &cfg)
                .map_err(|e| CliError::new(format!("{path}: {e}")))?;
            let body = match args.options.get("format").map_or("text", String::as_str) {
                "text" => report.to_text(),
                "json" => report.to_json(),
                other => {
                    return Err(CliError::new(format!(
                        "unknown --format '{other}' (expected text or json)"
                    )))
                }
            };
            match args.options.get("out") {
                Some(file) => {
                    std::fs::write(file, &body)
                        .map_err(|e| CliError::new(format!("cannot write {file}: {e}")))?;
                    Ok(format!(
                        "drive {}: {} sent, {} ok, {} shed, {} failed -> {file}\n",
                        report.name, report.sent, report.ok, report.shed, report.failed
                    ))
                }
                None => Ok(body),
            }
        }
        "list" => {
            let dir = args.positional.get(1).map_or("scenarios", String::as_str);
            let mut entries: Vec<_> = std::fs::read_dir(dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                .collect();
            entries.sort();
            let mut out = String::new();
            for path in &entries {
                let text = std::fs::read_to_string(path)?;
                let line = match Scenario::parse(&text) {
                    Ok(sc) => format!(
                        "{:<28} {:<8} {} rep(s) x {} op(s) on {:<10} {}",
                        sc.name,
                        if matches!(sc.engine, ScenarioEngine::Sim) {
                            "sim"
                        } else {
                            "runtime"
                        },
                        sc.repetitions,
                        sc.traffic.ops,
                        sc.machine,
                        sc.description
                    ),
                    Err(e) => format!("{} INVALID: {e}", path.display()),
                };
                let _ = writeln!(out, "  {line}");
            }
            if out.is_empty() {
                out = format!("no scenarios found in {dir}/\n");
            }
            Ok(out)
        }
        other => Err(CliError::new(format!(
            "unknown scenario action '{other}' (expected run, check, list or drive)"
        ))),
    }
}

/// The `serve` command: runs the collective-as-a-service daemon until a
/// drain is requested (SIGTERM, SIGINT or `POST /shutdown`), then
/// finishes every in-flight request and returns the drain summary.
/// The readiness line goes to stdout immediately — scripts (and the CI
/// smoke job) wait for it before sending traffic.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let defaults = ServiceConfig::default();
    let mut tenants = Vec::new();
    if let Some(spec) = args.options.get("tenants") {
        for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            tenants.push(TenantSpec::parse(part).map_err(CliError::new)?);
        }
    }
    let cfg = ServiceConfig {
        addr: args
            .options
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8080".to_owned()),
        http_workers: args.opt_or("http-workers", defaults.http_workers)?,
        exec_workers: args.opt_or("exec-workers", defaults.exec_workers)?,
        queue_depth: args.opt_or("queue-depth", defaults.queue_depth)?,
        cache_capacity: args.opt_or("cache-capacity", defaults.cache_capacity)?,
        tenants,
        default_rate: args.opt_or("default-rate", defaults.default_rate)?,
        default_burst: args.opt_or("default-burst", defaults.default_burst)?,
        // `--deadline-ms 0` disables the default deadline entirely.
        default_deadline: match args.opt::<u64>("deadline-ms")? {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => defaults.default_deadline,
        },
        max_retries: args.opt_or("retries", defaults.max_retries)?,
        verify: !args.flag("no-verify"),
        blackbox_dir: blackbox_dir(args)?,
        topology: args
            .options
            .get("topology")
            .cloned()
            .unwrap_or(defaults.topology),
        max_ranks: args.opt_or("max-ranks", defaults.max_ranks)?,
    };
    let handle =
        service_start(cfg).map_err(|e| CliError::new(format!("cannot start service: {e}")))?;
    let addr = handle.addr();
    println!(
        "msccl serve: listening on http://{addr} \
         (endpoints: /collective /healthz /metrics /stats /shutdown)"
    );
    let _ = std::io::Write::flush(&mut std::io::stdout());
    if service_signal::install_term_handler() {
        // Turn the signal flag into a drain request; exits once a
        // shutdown is requested from any source.
        let core = std::sync::Arc::clone(handle.core());
        std::thread::spawn(move || loop {
            if service_signal::term_requested() {
                core.request_shutdown();
                break;
            }
            if core.shutdown_requested() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    handle.core().wait_shutdown_requested();
    let stats = handle.shutdown();
    Ok(format!(
        "msccl serve: drained — {} admitted, {} served, {} shed, {} failed; \
         cache {} hit(s) / {} miss(es) ({:.1}% hit rate), {} eviction(s)\n",
        stats.admitted,
        stats.served,
        stats.shed,
        stats.failed,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.hit_rate() * 100.0,
        stats.cache.evictions
    ))
}

/// The `doctor` command: post-mortem analysis of a black-box dump
/// written by a failed run (`--blackbox-dir`). The default output is the
/// human-readable diagnosis — failure origin, stall classification, wait
/// chain, root cause; `--format json` re-emits the (already parsed and
/// validated) dump; `--format chrome` renders the flight recorder's
/// per-worker event stream through the standard trace writer, so the
/// last moments before the failure open in any Chrome-trace viewer.
fn cmd_doctor(args: &Args) -> Result<String, CliError> {
    let path = args.positional1("black-box dump (blackbox-*.json)")?;
    let text = read_input(path, "black-box dump")?;
    let bb = Blackbox::from_json(&text).map_err(|e| CliError::new(format!("{path}: {e}")))?;
    let body = match args.options.get("format").map_or("human", String::as_str) {
        "human" => bb.render_human(),
        "json" => bb.to_json(),
        "chrome" => {
            // The trace writer produces the file itself; `--out` names it.
            let out = args.options.get("out").ok_or_else(|| {
                CliError::new("--format chrome requires --out FILE (Chrome trace JSON)")
            })?;
            return write_trace(out, &bb.to_trace());
        }
        other => {
            return Err(CliError::new(format!(
                "unknown --format '{other}' (expected human, json or chrome)"
            )))
        }
    };
    match args.options.get("out") {
        Some(file) => {
            std::fs::write(file, &body)?;
            Ok(format!(
                "doctor: {} — {} at rank {} tb {} step {} -> {file}\n",
                bb.program, bb.failure.cause, bb.failure.rank, bb.failure.tb, bb.failure.step
            ))
        }
        None => Ok(body),
    }
}

fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let ir = load_ir(args)?;
    let machine = parse_machine(
        args.options
            .get("machine")
            .ok_or_else(|| CliError::new("--machine is required (e.g. ndv4:2)"))?,
    )?;
    let bytes = parse_size(
        args.options
            .get("size")
            .ok_or_else(|| CliError::new("--size is required"))?,
    )?;
    let mut cfg = SimConfig::new(machine);
    if let Some(p) = args.options.get("protocol") {
        cfg = cfg.with_protocol(
            Protocol::parse(p).ok_or_else(|| CliError::new(format!("unknown protocol '{p}'")))?,
        );
    }
    if args.options.contains_key("timeline") {
        cfg = cfg.with_timeline(true);
    }
    let trace_out = trace_path(args)?;
    if trace_out.is_some() {
        cfg = cfg.with_trace(true);
    }
    if let Some(plan) = load_fault_plan(args, &ir)? {
        cfg = cfg.with_faults(plan);
    }
    if args.options.contains_key("parallel") {
        let threads: usize = args.opt_or("parallel", 0)?;
        if threads == 0 {
            return Err(CliError::new("--parallel must be a positive thread count"));
        }
        cfg = cfg.with_parallel(threads);
    }
    let r = simulate(&ir, &cfg, bytes)?;
    let mut extra = String::new();
    if let Some(path) = trace_out {
        let trace = r.trace.as_ref().expect("requested via with_trace");
        extra = write_trace(path, trace)?;
    }
    if let Some(path) = args.options.get("timeline") {
        let mut csv = String::from("rank,tb,start_us,end_us,activity\n");
        for e in &r.timeline {
            let _ = writeln!(
                csv,
                "{},{},{:.3},{:.3},{:?}",
                e.rank, e.tb, e.start_us, e.end_us, e.activity
            );
        }
        std::fs::write(path, csv)?;
    }
    let ntbs = ir.num_threadblocks().max(1) as f64;
    Ok(format!(
        "{}: {:.1} us at {} bytes ({} protocol, {} tiles, {} transfers, utilization {:.0}%)\n{}{extra}",
        ir.name,
        r.total_us,
        bytes,
        r.protocol,
        r.tiles,
        r.flows,
        100.0 * r.busy_us / (r.total_us * ntbs),
        stats_line(&r.metrics)
    ))
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    let ir = load_ir(args)?;
    let chunk_elems: usize = args.opt_or("elems", 256)?;
    if chunk_elems == 0 {
        return Err(CliError::new("--elems must be positive"));
    }
    let inputs = reference::random_inputs(&ir, chunk_elems, 0xFEED);
    let mut opts = RunOptions::default();
    if let Some(ms) = args.opt::<u64>("deadline-ms")? {
        opts.deadline = Some(Duration::from_millis(ms));
    }
    // 0 = auto: min(available cores, thread blocks). Any value is safe —
    // results are bit-exact at every pool size — so no validation beyond
    // the parse.
    opts.worker_threads = args.opt_or("threads", 0)?;
    opts.blackbox_dir = blackbox_dir(args)?;
    let plan = load_fault_plan(args, &ir)?;
    let retries: Option<usize> = args.opt("retries")?;
    let fallback = args
        .options
        .get("fallback")
        .map(|path| read_ir(path, "--fallback MSCCL-IR XML file"))
        .transpose()?;
    if plan.is_some() || retries.is_some() || fallback.is_some() {
        return run_with_recovery(
            args,
            &ir,
            &inputs,
            chunk_elems,
            &opts,
            plan,
            retries,
            fallback,
        );
    }
    let trace_to = trace_path(args)?;
    let report = run(Run {
        trace: trace_to.is_some(),
        snapshot: true,
        ..Run::new(&ir, &inputs, chunk_elems, &opts)
    });
    let (outputs, snapshot) = (report.result?, report.metrics);
    let extra = match (trace_to, &report.trace) {
        (Some(path), Some(trace)) => write_trace(path, trace)?,
        _ => String::new(),
    };
    reference::check_outputs(
        &ir.collective,
        &inputs,
        &outputs,
        chunk_elems,
        mscclang::ReduceOp::Sum,
    )
    .map_err(CliError::new)?;
    // The executor's own pool sizing, so the report states what ran.
    let workers = worker_pool_size(opts.worker_threads, ir.num_threadblocks());
    Ok(format!(
        "{}: executed {} thread blocks on {} worker threads, {} elements/rank — results match the golden collective\n{}{extra}",
        ir.name,
        ir.num_threadblocks(),
        workers,
        ir.collective.in_chunks() * chunk_elems,
        stats_line(&snapshot)
    ))
}

/// The `run` path with faults, retries or a fallback algorithm: executes
/// through the runtime's collective-level recovery loop and reports every
/// decision it made. `--trace` here writes the recovery decision trace.
#[allow(clippy::too_many_arguments)]
fn run_with_recovery(
    args: &Args,
    ir: &IrProgram,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    opts: &RunOptions,
    plan: Option<FaultPlan>,
    retries: Option<usize>,
    fallback: Option<IrProgram>,
) -> Result<String, CliError> {
    let policy = RecoveryPolicy {
        max_retries: retries.unwrap_or(RecoveryPolicy::default().max_retries),
        ..RecoveryPolicy::default()
    };
    let injector = plan.as_ref().map(FaultInjector::new);
    let report = execute_with_recovery(
        Run {
            injector: injector.as_ref(),
            ..Run::new(ir, inputs, chunk_elems, opts)
        },
        fallback.as_ref(),
        &policy,
    )?;
    let mut out = String::new();
    if let Some(plan) = &plan {
        let _ = writeln!(out, "fault plan (reproduce with --fault-plan):");
        for line in plan.to_text().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    let _ = writeln!(
        out,
        "{}: verified after {} attempt(s){}",
        ir.name,
        report.attempts,
        if report.used_fallback {
            " (fell back)"
        } else {
            ""
        }
    );
    for step in &report.steps {
        let _ = writeln!(
            out,
            "  attempt {}: {} — {}",
            step.attempt,
            step.decision.label(),
            step.detail
        );
    }
    if let Some(path) = trace_path(args)? {
        out.push_str(&write_trace(path, &report.decision_trace())?);
    }
    Ok(out)
}

fn cmd_tune(args: &Args) -> Result<String, CliError> {
    use msccl_sim::simulate as sim;
    let machine = parse_machine(
        args.options
            .get("machine")
            .ok_or_else(|| CliError::new("--machine is required (e.g. ndv4:1)"))?,
    )?;
    let program = build_program(args)?;
    program.validate()?;
    let sizes: Vec<u64> = match args.options.get("sizes") {
        Some(list) => list.split(',').map(parse_size).collect::<Result<_, _>>()?,
        None => vec![4 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20],
    };
    // Grid: instance counts within the channel budget x protocols.
    let max_directive = program
        .ops()
        .iter()
        .filter_map(|o| o.channel)
        .max()
        .unwrap_or(0);
    let max_fragment = program
        .ops()
        .iter()
        .map(|o| o.fragment_factor)
        .max()
        .unwrap_or(1);
    let stride = max_directive + 1;
    let mut irs = Vec::new();
    for instances in [1usize, 2, 4, 8, 16, 24] {
        // Highest channel an instance can claim must stay under 32.
        if max_directive + (instances * max_fragment - 1) * stride >= 32 {
            continue;
        }
        let compiled = compile(
            &program,
            &CompileOptions::default()
                .with_verify(false)
                .with_instances(instances)
                .with_max_tbs_per_rank(machine.num_sms()),
        );
        if let Ok(ir) = compiled {
            irs.push((instances, ir));
        }
    }
    if irs.is_empty() {
        return Err(CliError::new("no instance count fits this machine"));
    }
    let mut out = format!(
        "tuning {} on {} over {} configurations
{:>10} | {:>22} | {:>12}
",
        program.name(),
        machine.name(),
        irs.len() * Protocol::ALL.len(),
        "size",
        "best configuration",
        "time"
    );
    for &bytes in &sizes {
        let mut best: Option<(String, f64)> = None;
        for (instances, ir) in &irs {
            for protocol in Protocol::ALL {
                let cfg = SimConfig::new(machine.clone()).with_protocol(protocol);
                let t = sim(ir, &cfg, bytes)?.total_us;
                if best.as_ref().is_none_or(|(_, b)| t < *b) {
                    best = Some((format!("r={instances} {protocol}"), t));
                }
            }
        }
        let (label, t) = best.expect("non-empty grid");
        let _ = writeln!(
            out,
            "{:>10} | {:>22} | {:>10.1}us",
            crate::machine_spec::format_size(bytes),
            label,
            t
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn run(line: &str) -> Result<String, CliError> {
        dispatch(&parse_args(line.split_whitespace().map(String::from)).unwrap())
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("msccl-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn list_names_all_algorithms() {
        let out = run("list").unwrap();
        for (name, _, _) in ALGORITHMS {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn help_is_returned() {
        assert!(run("help").unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run("frobnicate").is_err());
    }

    #[test]
    fn missing_ir_file_error_names_the_path() {
        let err = run("verify /no/such/dir/missing.xml")
            .unwrap_err()
            .to_string();
        assert!(err.contains("/no/such/dir/missing.xml"), "error: {err}");
        assert!(err.contains("MSCCL-IR XML file"), "error: {err}");
    }

    #[test]
    fn missing_scenario_file_error_names_the_path() {
        let err = run("scenario run /no/such/storm.toml")
            .unwrap_err()
            .to_string();
        assert!(err.contains("/no/such/storm.toml"), "error: {err}");
        assert!(err.contains("scenario file"), "error: {err}");
        // The drive action shares the hardened read path.
        let err = run("scenario drive /no/such/storm.toml --addr 127.0.0.1:1")
            .unwrap_err()
            .to_string();
        assert!(err.contains("/no/such/storm.toml"), "error: {err}");
    }

    #[test]
    fn missing_fault_plan_error_names_the_path() {
        let path = tmp("plan-target.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let err = run(&format!("run {path} --fault-plan /no/such/faults.plan"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("/no/such/faults.plan"), "error: {err}");
        assert!(err.contains("fault plan"), "error: {err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_fallback_error_names_the_option_and_path() {
        let path = tmp("fallback-target.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let err = run(&format!("run {path} --fallback /no/such/fallback.xml"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("/no/such/fallback.xml"), "error: {err}");
        assert!(err.contains("--fallback"), "error: {err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn malformed_fallback_error_names_the_option_and_path() {
        let path = tmp("fallback-primary.xml");
        let bad = tmp("fallback-malformed.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        std::fs::write(&bad, "<algo name=\"broken\"").unwrap();
        let err = run(&format!("run {path} --fallback {bad}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains(&bad), "error: {err}");
        assert!(err.contains("--fallback"), "error: {err}");
        assert!(err.contains("parse"), "error: {err}");
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(bad);
    }

    #[test]
    fn serve_rejects_malformed_tenant_specs_before_binding() {
        let err = run("serve --tenants alpha:fast:10")
            .unwrap_err()
            .to_string();
        assert!(err.contains("alpha"), "error: {err}");
        assert!(err.contains("rate"), "error: {err}");
    }

    #[test]
    fn drive_requires_an_address() {
        let path = tmp("drive-needs-addr.toml");
        std::fs::write(
            &path,
            "[scenario]\nname = \"t\"\nmachine = \"custom:1x4\"\n\n\
             [traffic]\ncollectives = [\"ring-allreduce\"]\nsizes = [4096]\nops = 1\n",
        )
        .unwrap();
        let err = run(&format!("scenario drive {path}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--addr"), "error: {err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compile_emits_xml_on_stdout() {
        let out = run("compile ring-allreduce --ranks 4").unwrap();
        assert!(out.starts_with("<algo"));
        assert!(out.contains("coll=\"allreduce\""));
    }

    #[test]
    fn full_pipeline_through_a_file() {
        let path = tmp("ring.xml");
        let out = run(&format!(
            "compile ring-allreduce --ranks 4 --instances 2 -o {path}"
        ))
        .unwrap();
        assert!(out.contains("wrote"));

        let v = run(&format!("verify {path}")).unwrap();
        assert!(v.contains("OK"));

        let i = run(&format!("inspect {path}")).unwrap();
        assert!(i.contains("schedule:"));
        assert!(i.contains("critical path:"));

        let s = run(&format!(
            "simulate {path} --machine ndv4:1 --size 4MB --protocol LL128"
        ))
        .unwrap();
        assert!(s.contains("us at"));

        let r = run(&format!("run {path} --elems 32")).unwrap();
        assert!(r.contains("match the golden collective"));

        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compile_requires_dimensions() {
        let err = run("compile ring-allreduce").unwrap_err();
        assert!(err.to_string().contains("--ranks"));
    }

    #[test]
    fn compile_rejects_unknown_algorithm() {
        let err = run("compile warp-drive --ranks 4").unwrap_err();
        assert!(err.to_string().contains("warp-drive"));
    }

    #[test]
    fn simulate_requires_machine_and_size() {
        let path = tmp("req.xml");
        let _ = run(&format!("compile allpairs-allreduce --ranks 4 -o {path}")).unwrap();
        assert!(run(&format!("simulate {path}"))
            .unwrap_err()
            .to_string()
            .contains("--machine"));
        assert!(run(&format!("simulate {path} --machine dgx1"))
            .unwrap_err()
            .to_string()
            .contains("--size"));
        let _ = std::fs::remove_file(path);
    }

    /// `--parallel N` selects the sharded engine, whose output is
    /// bit-identical to the serial default — the printed report included.
    #[test]
    fn simulate_parallel_matches_serial_output() {
        let path = tmp("par.xml");
        let _ = run(&format!(
            "compile hierarchical-allreduce --nodes 2 --gpus 2 -o {path}"
        ))
        .unwrap();
        let serial = run(&format!("simulate {path} --machine ndv4:2 --size 4MB")).unwrap();
        for threads in [1, 4] {
            let par = run(&format!(
                "simulate {path} --machine ndv4:2 --size 4MB --parallel {threads}"
            ))
            .unwrap();
            assert_eq!(serial, par, "--parallel {threads} changed the report");
        }
        let err = run(&format!(
            "simulate {path} --machine ndv4:2 --size 4MB --parallel 0"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--parallel"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn tune_sweeps_configurations() {
        let out = run("tune ring-allreduce --ranks 8 --channels 2 --machine ndv4:1                        --sizes 8KB,4MB")
            .unwrap();
        assert!(out.contains("best configuration"));
        assert!(out.contains("8KB"));
        assert!(out.contains("4MB"));
        assert!(out.contains("r="));
    }

    #[test]
    fn simulate_writes_timeline_csv() {
        let path = tmp("tl.xml");
        let csv = tmp("tl.csv");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let _ = run(&format!(
            "simulate {path} --machine ndv4:1 --size 1MB --timeline {csv}"
        ))
        .unwrap();
        let data = std::fs::read_to_string(&csv).unwrap();
        assert!(data.starts_with("rank,tb,start_us,end_us,activity"));
        assert!(data.lines().count() > 4);
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(csv);
    }

    #[test]
    fn run_and_simulate_write_chrome_traces() {
        let path = tmp("trace.xml");
        let run_json = tmp("run-trace.json");
        let sim_json = tmp("sim-trace.json");
        let sim_csv = tmp("sim-trace.csv");
        let _ = run(&format!(
            "compile ring-allreduce --ranks 8 --channels 2 -o {path}"
        ))
        .unwrap();

        let out = run(&format!("run {path} --elems 32 --trace {run_json}")).unwrap();
        assert!(out.contains("trace:"), "missing trace summary in {out}");
        assert!(out.contains("wall clock"));
        let data = std::fs::read_to_string(&run_json).unwrap();
        assert!(data.contains("\"traceEvents\""));
        assert!(data.contains("\"instr_begin\"") || data.contains("\"ph\":\"X\""));

        let out = run(&format!(
            "simulate {path} --machine ndv4:1 --size 1MB --trace {sim_json}"
        ))
        .unwrap();
        assert!(
            out.contains("virtual clock"),
            "missing clock label in {out}"
        );
        let data = std::fs::read_to_string(&sim_json).unwrap();
        assert!(data.contains("\"traceEvents\""));

        // A .csv extension selects the CSV exporter.
        let _ = run(&format!(
            "simulate {path} --machine ndv4:1 --size 1MB --trace {sim_csv}"
        ))
        .unwrap();
        let data = std::fs::read_to_string(&sim_csv).unwrap();
        assert!(data.starts_with("ts_us,rank,tb,kind"));

        for f in [path, run_json, sim_json, sim_csv] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn profile_reports_attribution_and_divergence() {
        let path = tmp("profile.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let out = run(&format!("profile {path} --elems 32")).unwrap();
        assert!(out.contains("per thread block:"), "got: {out}");
        assert!(out.contains("per channel:"), "got: {out}");
        assert!(out.contains("per instruction kind:"), "got: {out}");
        assert!(out.contains("measured vs modeled"), "got: {out}");
        assert!(out.contains("domain=wall"), "got: {out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn profile_sim_mode_and_formats() {
        let path = tmp("profile-sim.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let json = run(&format!(
            "profile {path} --elems 32 --mode sim --format json"
        ))
        .unwrap();
        assert!(json.contains("\"schema\": \"msccl-profile-v1\""));
        assert!(json.contains("\"domain\": \"virtual\""));
        let prom = run(&format!(
            "profile {path} --elems 32 --mode sim --format prom"
        ))
        .unwrap();
        assert!(prom.contains("# TYPE msccl_bytes_sent_total counter"));
        assert!(run(&format!("profile {path} --format yaml"))
            .unwrap_err()
            .to_string()
            .contains("--format"));
        assert!(run(&format!("profile {path} --mode dream"))
            .unwrap_err()
            .to_string()
            .contains("--mode"));
        let _ = std::fs::remove_file(path);
    }

    /// The same report, offline, from a CSV trace `run --trace` recorded.
    #[test]
    fn profile_from_recorded_trace() {
        let path = tmp("profile-offline.xml");
        let csv = tmp("profile-offline.csv");
        let out_file = tmp("profile-offline.json");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let _ = run(&format!("run {path} --elems 32 --trace {csv}")).unwrap();
        let out = run(&format!(
            "profile {path} --elems 32 --from-trace {csv} --format json --out {out_file}"
        ))
        .unwrap();
        assert!(out.contains("profile:"), "got: {out}");
        let data = std::fs::read_to_string(&out_file).unwrap();
        assert!(data.contains("\"schema\": \"msccl-profile-v1\""));
        assert!(data.contains("\"domain\": \"wall\""));
        assert!(data.contains("\"modeled_domain\": \"virtual\""));
        for f in [path, csv, out_file] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// `run` and `simulate` print the same always-on stats schema
    /// (the simulator's pool counters are zero — it moves no data).
    #[test]
    fn run_and_simulate_share_a_stats_schema() {
        let path = tmp("stats.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let r = run(&format!("run {path} --elems 16")).unwrap();
        let s = run(&format!("simulate {path} --machine ndv4:1 --size 1MB")).unwrap();
        let keys_of = |out: &str| -> Vec<String> {
            let line = out
                .lines()
                .find(|l| l.starts_with("stats:"))
                .unwrap_or_else(|| panic!("no stats line in: {out}"))
                .to_owned();
            line.split_whitespace()
                .skip(1)
                .map(|kv| kv.split('=').next().unwrap().to_owned())
                .collect()
        };
        assert_eq!(keys_of(&r), keys_of(&s), "stats schemas differ");
        assert!(r.contains("pool_allocated="), "got: {r}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn faults_command_is_deterministic_and_reproducible() {
        let path = tmp("faults.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let a = run(&format!("faults {path} --seed 7")).unwrap();
        let b = run(&format!("faults {path} --seed 7")).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("seed 7"), "plan should record its seed: {a}");
        assert!(run(&format!("faults {path}"))
            .unwrap_err()
            .to_string()
            .contains("--seed"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn conflicting_fault_flags_are_rejected() {
        let path = tmp("conflict.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let err = run(&format!(
            "run {path} --fault-seed 1 --fault-plan nowhere.txt"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_recovers_from_a_transient_kill_via_retry() {
        let path = tmp("recover.xml");
        let plan_file = tmp("recover.plan");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        std::fs::write(&plan_file, "kill block r0 tb0 step0\n").unwrap();
        let out = run(&format!(
            "run {path} --elems 16 --fault-plan {plan_file} --retries 2"
        ))
        .unwrap();
        assert!(out.contains("verified after 2 attempt(s)"), "got: {out}");
        assert!(out.contains("retry"), "got: {out}");
        assert!(out.contains("kill block r0 tb0 step0"), "got: {out}");
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(plan_file);
    }

    /// The whole forensics loop: a failed run with `--blackbox-dir`
    /// writes a dump, the error points at it, and `msccl doctor` names
    /// the injected fault site as the root cause in every format.
    #[test]
    fn doctor_diagnoses_a_blackbox_dump_end_to_end() {
        let path = tmp("doctor.xml");
        let plan_file = tmp("doctor.plan");
        let dir = tmp("doctor-dumps");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        std::fs::write(&plan_file, "kill block r1 tb0 step0\n").unwrap();
        // Zero retries make the one-shot kill terminal, so the run fails
        // and its error message carries the dump path.
        let err = run(&format!(
            "run {path} --elems 16 --fault-plan {plan_file} --retries 0 --blackbox-dir {dir}"
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("black box: "), "no dump pointer in: {err}");
        assert!(err.contains("msccl doctor"), "no doctor hint in: {err}");
        let dump = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("blackbox-"))
            })
            .expect("a blackbox-*.json dump in the dir");
        let dump = dump.display();

        let human = run(&format!("doctor {dump}")).unwrap();
        assert!(human.contains("injected_kill"), "got: {human}");
        assert!(human.contains("diagnosis: self_fault"), "got: {human}");
        assert!(human.contains("root cause: rank 1 tb 0"), "got: {human}");
        assert!(
            human.contains("kill block r1 tb0 step0"),
            "fault plan line missing: {human}"
        );

        let json = run(&format!("doctor {dump} --format json")).unwrap();
        assert!(
            json.contains("\"version\": \"msccl-blackbox-v1\""),
            "{json}"
        );

        let chrome = tmp("doctor-trace.json");
        assert!(run(&format!("doctor {dump} --format chrome"))
            .unwrap_err()
            .to_string()
            .contains("--out"));
        let out = run(&format!("doctor {dump} --format chrome --out {chrome}")).unwrap();
        assert!(out.contains("trace:"), "got: {out}");
        let data = std::fs::read_to_string(&chrome).unwrap();
        assert!(data.contains("\"traceEvents\""));

        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(plan_file);
        let _ = std::fs::remove_file(chrome);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn doctor_rejects_garbage_and_bare_blackbox_dir() {
        let garbage = tmp("doctor-garbage.json");
        std::fs::write(&garbage, "not a dump").unwrap();
        let err = run(&format!("doctor {garbage}")).unwrap_err();
        assert!(err.to_string().contains(&garbage), "got: {err}");
        let _ = std::fs::remove_file(&garbage);

        let path = tmp("doctor-bare.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let err = run(&format!("run {path} --elems 16 --blackbox-dir")).unwrap_err();
        assert!(err.to_string().contains("--blackbox-dir requires"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn seeded_run_prints_its_plan_and_recovery_trace() {
        let path = tmp("seeded.xml");
        let trace = tmp("seeded-trace.csv");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let out = run(&format!(
            "run {path} --elems 16 --fault-seed 3 --retries 3 --trace {trace}"
        ))
        .unwrap();
        assert!(out.contains("fault plan (reproduce with --fault-plan)"));
        assert!(out.contains("seed 3"));
        let data = std::fs::read_to_string(&trace).unwrap();
        assert!(data.contains("recovery"), "decision trace missing: {data}");
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(trace);
    }

    /// An option the command does not read is an error, not silently
    /// dropped: a flag that was removed, and a typo.
    #[test]
    fn options_a_command_does_not_take_are_rejected() {
        let path = tmp("strict.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let err = run(&format!(
            "simulate {path} --machine ndv4:1 --size 1MB --epochs 2"
        ))
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "'simulate' does not take --epochs; try 'msccl help'"
        );
        let err = run(&format!("run {path} --threds 4")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "'run' does not take --threds; try 'msccl help'"
        );
        let err = run("scenario list scenarios --parallel 2").unwrap_err();
        assert!(err
            .to_string()
            .contains("'scenario list' does not take --parallel"));
        assert!(run(&format!("run {path} --threads 2 --elems 8")).is_ok());
        let _ = std::fs::remove_file(path);
    }

    /// Every `--flag` on a command's usage lines in [`HELP`] is one that
    /// command accepts.
    #[test]
    fn every_flag_in_help_is_accepted_by_its_command() {
        let mut command = String::new();
        let mut checked = 0;
        for line in HELP.lines() {
            let indent = line.len() - line.trim_start().len();
            if indent == 4 {
                let words: Vec<&str> = line.split_whitespace().collect();
                command = match words[..] {
                    ["scenario", action, ..] => format!("scenario {action}"),
                    [name, ..] => name.to_owned(),
                    [] => unreachable!("indented line has a word"),
                };
            } else if indent >= 35 || command.is_empty() {
                // Descriptions mention other commands' flags.
                continue;
            }
            let usage = if indent == 4 {
                // The command line's own description starts after a
                // run of spaces.
                line.trim_start().split("  ").next().unwrap()
            } else {
                line
            };
            for token in usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if let Some(flag) = token.strip_prefix("--") {
                    assert!(
                        accepts(&command, flag) == Some(true),
                        "'{command}' does not accept --{flag} listed in HELP"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 40, "only {checked} flags found in HELP");
    }

    #[test]
    fn simulate_surfaces_injected_faults() {
        let path = tmp("simfault.xml");
        let plan_file = tmp("simfault.plan");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        std::fs::write(&plan_file, "kill block r0 tb0 step0\n").unwrap();
        let err = run(&format!(
            "simulate {path} --machine ndv4:1 --size 1MB --fault-plan {plan_file}"
        ))
        .unwrap_err();
        assert!(
            err.to_string().contains("injected fault killed"),
            "got: {err}"
        );
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(plan_file);
    }

    #[test]
    fn graph_emits_dot() {
        let path = tmp("dot.xml");
        let _ = run(&format!("compile tree-allreduce --ranks 4 -o {path}")).unwrap();
        let dot = run(&format!("graph {path}")).unwrap();
        assert!(dot.starts_with("digraph msccl_ir"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn protocol_hint_lands_in_xml() {
        let out = run("compile tree-allreduce --ranks 4 --protocol LL").unwrap();
        assert!(out.contains("proto=\"LL\""));
    }

    #[test]
    fn no_fuse_produces_more_instructions() {
        let fused = run("compile ring-allreduce --ranks 4").unwrap();
        let unfused = run("compile ring-allreduce --ranks 4 --no-fuse").unwrap();
        let count = |s: &str| s.matches("<step").count();
        assert!(count(&unfused) > count(&fused));
    }

    #[test]
    fn faults_format_json_emits_plan_json() {
        let path = tmp("faultsjson.xml");
        let _ = run(&format!("compile ring-allreduce --ranks 4 -o {path}")).unwrap();
        let out = run(&format!("faults {path} --seed 7 --format json")).unwrap();
        assert!(out.trim_start().starts_with('{'), "got: {out}");
        assert!(out.contains("\"seed\": 7"), "got: {out}");
        assert!(out.contains("\"specs\""), "got: {out}");
        let err = run(&format!("faults {path} --seed 7 --format yaml")).unwrap_err();
        assert!(err.to_string().contains("--format"), "got: {err}");
        let _ = std::fs::remove_file(path);
    }

    fn scenario_file(name: &str, body: &str) -> String {
        let path = tmp(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    const SMOKE_SCENARIO: &str = "\
[scenario]
name = \"cli-smoke\"
seed = 3
repetitions = 2
machine = \"ndv4:1\"

[traffic]
collectives = [\"allpairs-allreduce\"]
sizes = [\"16KB\"]
ops = 3

[slo]
assert = [\"failures == 0\", \"verified == true\"]
";

    #[test]
    fn scenario_check_and_run_smoke() {
        let path = scenario_file("smoke.toml", SMOKE_SCENARIO);
        let checked = run(&format!("scenario check {path}")).unwrap();
        assert!(checked.contains("ok — cli-smoke"), "got: {checked}");
        let out = run(&format!("scenario run {path}")).unwrap();
        assert!(out.contains("verdict     PASS"), "got: {out}");
        // Same seed, twice: byte-identical JSON, serial and parallel.
        let a = run(&format!("scenario run {path} --format json")).unwrap();
        let b = run(&format!("scenario run {path} --format json --parallel 2")).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn scenario_run_fails_on_blown_slo() {
        let body = SMOKE_SCENARIO.replace("\"failures == 0\"", "\"p99_us <= 0.001\"");
        let path = scenario_file("blown.toml", &body);
        let err = run(&format!("scenario run {path}")).unwrap_err();
        assert!(err.to_string().contains("verdict     FAIL"), "got: {err}");
        assert!(err.to_string().contains("slo FAIL"), "got: {err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn scenario_check_rejects_invalid_files() {
        let body = SMOKE_SCENARIO.replace("allpairs-allreduce", "no-such-collective");
        let path = scenario_file("badalgo.toml", &body);
        let err = run(&format!("scenario check {path}")).unwrap_err();
        assert!(err.to_string().contains("no-such-collective"), "got: {err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn scenario_list_summarises_a_directory() {
        let dir = tmp("scenario-dir");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            std::path::Path::new(&dir).join("smoke.toml"),
            SMOKE_SCENARIO,
        )
        .unwrap();
        std::fs::write(std::path::Path::new(&dir).join("broken.toml"), "[scenario").unwrap();
        let out = run(&format!("scenario list {dir}")).unwrap();
        assert!(out.contains("cli-smoke"), "got: {out}");
        assert!(out.contains("INVALID"), "got: {out}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
