//! Arena lifecycle tier: a *dirty* execution plan, and the resident
//! worker threads, must never leak into the next run.
//!
//! An `ExecArena` keeps the execution plans of the programs it ran most
//! recently — FIFOs, semaphores, tasks, the scheduler's wait and timer
//! slots, the cancel token — and the pool's resident threads across
//! runs. A run that fails leaves its plan mid-flight: tiles stranded in
//! FIFOs and task inboxes, tasks parked on keys nobody will wake, armed
//! hang deadlines, a tripped token, poisoned memory locks. Each case
//! here fails a run one way, then requires the *next* run of that plan
//! in the same arena — at once, or after other programs parked it — to
//! be bit-exact against the replay oracle with no error and no
//! diagnosis attached.
//!
//! Every test takes [`SERIAL`]: the thread-count case counts this
//! process's `msccl-worker-*` threads, which a sibling test's arena
//! would disturb. `MSCCL_SCHED_THREADS=N` pins the pool size like in the
//! oversubscription tier.

use std::sync::Mutex;
use std::time::Duration;

use msccl_faults::{FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpec};
use msccl_runtime::{
    execute_in_arena, execute_with_recovery, reference, run, ExecArena, ExecStats, RecoveryPolicy,
    Run, RunOptions, RuntimeError, ARENA_PLANS,
};
use mscclang::{compile, CompileOptions, IrProgram, Program, ReduceOp};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn pool_sizes() -> Vec<usize> {
    match std::env::var("MSCCL_SCHED_THREADS") {
        Ok(pin) => vec![pin
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("MSCCL_SCHED_THREADS={pin}: not a pool size"))
            .max(1)],
        Err(_) => vec![1, 2],
    }
}

fn ring(ranks: usize) -> (Program, IrProgram) {
    let program = msccl_algos::ring_all_reduce(ranks, 1).unwrap();
    let ir = compile(&program, &CompileOptions::default()).expect("compiles");
    (program, ir)
}

/// Sixteen tiles per chunk and a short step timeout: failures strike
/// with tiles in flight and resolve fast.
fn opts(pool: usize) -> RunOptions {
    RunOptions {
        tile_elems: Some(4),
        timeout: Duration::from_millis(300),
        worker_threads: pool,
        ..RunOptions::default()
    }
}

const CHUNK_ELEMS: usize = 64;

/// `got` equals `want` bit for bit, rank by rank.
fn assert_bit_exact(what: &str, got: &[Vec<f32>], want: &[Vec<f32>]) {
    assert_eq!(got.len(), want.len(), "{what}: ranks");
    for (r, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(got.len(), want.len(), "{what} rank {r}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what} rank {r} element {i}: {a} != {b} (bitwise)"
            );
        }
    }
}

/// A clean run of `ir` in `arena`, bit-exact against the replay oracle.
fn clean_run(
    what: &str,
    program: &Program,
    ir: &IrProgram,
    seed: u64,
    opts: &RunOptions,
    arena: &mut ExecArena,
) -> ExecStats {
    let inputs = reference::random_inputs(ir, CHUNK_ELEMS, seed);
    let golden =
        reference::replay_program(program, &inputs, CHUNK_ELEMS * ir.refinement, ReduceOp::Sum);
    let (outputs, stats) = execute_in_arena(ir, &inputs, CHUNK_ELEMS, opts, arena)
        .unwrap_or_else(|e| panic!("{what}: the run after a failure must be clean, got {e}"));
    assert_bit_exact(what, &outputs, &golden);
    arena.recycle_outputs(outputs);
    stats
}

/// One faulted attempt of `ir` in `arena` under `plan`; returns its error.
fn faulted_run(
    ir: &IrProgram,
    seed: u64,
    opts: &RunOptions,
    plan: &FaultPlan,
    arena: &mut ExecArena,
) -> RuntimeError {
    let inputs = reference::random_inputs(ir, CHUNK_ELEMS, seed);
    let injector = FaultInjector::new(plan);
    run(Run {
        arena: Some(arena),
        injector: Some(&injector),
        ..Run::new(ir, &inputs, CHUNK_ELEMS, opts)
    })
    .result
    .expect_err("the planned fault must fail the run")
}

fn kill_at(rank: usize, step: usize) -> FaultSpec {
    FaultSpec {
        site: FaultSite::Block { rank, tb: 0, step },
        kind: FaultKind::KillBlock,
    }
}

/// An injected kill cancels the run mid-tile: every other task dies
/// parked or between instructions, with tiles in FIFOs and inboxes.
#[test]
fn run_after_an_injected_kill_is_clean() {
    let _serial = serial();
    let (program, ir) = ring(4);
    for pool in pool_sizes() {
        let opts = opts(pool);
        let mut arena = ExecArena::new(&ir, &opts);
        clean_run("warm-up", &program, &ir, 1, &opts, &mut arena);
        for round in 0..3u64 {
            let plan = FaultPlan {
                seed: 0,
                specs: vec![kill_at(1 + round as usize % 3, 2)],
            };
            let err = faulted_run(&ir, 10 + round, &opts, &plan, &mut arena);
            assert!(
                matches!(err, RuntimeError::InjectedFault { .. }),
                "pool={pool} round {round}: {err}"
            );
            assert!(err.diagnosis().is_some());
            clean_run(
                &format!("pool={pool} after kill {round}"),
                &program,
                &ir,
                20 + round,
                &opts,
                &mut arena,
            );
        }
    }
}

/// A dropped delivery starves the receiver: the run ends by step
/// timeout, with the hang deadline having fired from a timer slot,
/// every surviving task parked in a wait slot and later tiles still
/// queued behind the missing one.
#[test]
fn run_after_a_step_timeout_hang_is_clean() {
    let _serial = serial();
    let (program, ir) = ring(4);
    let tb = &ir.gpus[0].threadblocks[0];
    let plan = FaultPlan {
        seed: 0,
        specs: vec![FaultSpec {
            site: FaultSite::Delivery {
                src: 0,
                dst: tb.send_peer.unwrap(),
                channel: tb.channel,
                seq: 5,
            },
            kind: FaultKind::DropDelivery,
        }],
    };
    for pool in pool_sizes() {
        let opts = opts(pool);
        let mut arena = ExecArena::new(&ir, &opts);
        clean_run("warm-up", &program, &ir, 2, &opts, &mut arena);
        for round in 0..2u64 {
            let err = faulted_run(&ir, 30 + round, &opts, &plan, &mut arena);
            assert!(
                matches!(err, RuntimeError::Hang { .. }),
                "pool={pool} round {round}: {err}"
            );
            clean_run(
                &format!("pool={pool} after hang {round}"),
                &program,
                &ir,
                40 + round,
                &opts,
                &mut arena,
            );
        }
    }
}

/// A worker panic (a receive that expects one chunk more than its sender
/// sends, as in the runtime's own `worker_panic_is_attributed`: the
/// structure check passes, and the worker panics slicing the short tile)
/// unwinds through the interpreter with its task lock held. The
/// panicking program differs from the good one in a single count — same
/// layout, so only a content match tells them apart — and the two
/// alternate in one arena: the resident threads, the space buffers and
/// the tile pool all carry over.
#[test]
fn run_after_a_worker_panic_is_clean() {
    let _serial = serial();
    let (program, ir) = ring(4);
    let steps = ir.gpus[2]
        .threadblocks
        .iter()
        .flat_map(|tb| &tb.instructions)
        .count();
    let broken = (0..steps)
        .find_map(|k| {
            let mut broken = ir.clone();
            let victim = broken.gpus[2]
                .threadblocks
                .iter_mut()
                .flat_map(|tb| tb.instructions.iter_mut())
                .nth(k)?;
            if !victim.op.has_recv() {
                return None;
            }
            victim.count += 1;
            let in_range = broken.check_structure().is_ok();
            in_range.then_some(broken)
        })
        .expect("some rank-2 receive can take one more chunk in range");
    for pool in pool_sizes() {
        let opts = opts(pool);
        let mut arena = ExecArena::new(&ir, &opts);
        clean_run("warm-up", &program, &ir, 3, &opts, &mut arena);
        for round in 0..3u64 {
            let inputs = reference::random_inputs(&broken, CHUNK_ELEMS, 50 + round);
            let err = execute_in_arena(&broken, &inputs, CHUNK_ELEMS, &opts, &mut arena)
                .expect_err("the short tile must panic a worker");
            let RuntimeError::WorkerPanic { rank, .. } = &err else {
                panic!("pool={pool} round {round}: expected WorkerPanic, got {err}");
            };
            assert_eq!(*rank, 2);
            clean_run(
                &format!("pool={pool} after panic {round}"),
                &program,
                &ir,
                60 + round,
                &opts,
                &mut arena,
            );
        }
    }
}

/// The recovery ladder in one arena: the primary is killed, the
/// fallback — a different program, so a different plan — completes, and
/// the primary then runs clean on the same arena from its parked plan.
#[test]
fn retry_then_fallback_then_original_in_one_arena() {
    let _serial = serial();
    let (program, ir) = ring(4);
    let fallback = compile(
        &msccl_algos::allpairs_all_reduce(4).unwrap(),
        &CompileOptions::default(),
    )
    .expect("compiles");
    for pool in pool_sizes() {
        let opts = opts(pool);
        let mut arena = ExecArena::new(&ir, &opts);
        clean_run("warm-up", &program, &ir, 4, &opts, &mut arena);

        let inputs = reference::random_inputs(&ir, CHUNK_ELEMS, 70);
        let golden = reference::replay_program(
            &program,
            &inputs,
            CHUNK_ELEMS * ir.refinement,
            ReduceOp::Sum,
        );
        // The plan strikes the first attempt only; with no retry budget
        // the ladder falls back at once.
        let plan = FaultPlan {
            seed: 0,
            specs: vec![kill_at(1, 0)],
        };
        let injector = FaultInjector::new(&plan);
        let report = execute_with_recovery(
            Run {
                arena: Some(&mut arena),
                injector: Some(&injector),
                ..Run::new(&ir, &inputs, CHUNK_ELEMS, &opts)
            },
            Some(&fallback),
            &RecoveryPolicy {
                max_retries: 0,
                backoff: Duration::from_millis(1),
                verify: true,
                ..RecoveryPolicy::default()
            },
        )
        .unwrap_or_else(|e| panic!("pool={pool}: ladder must end in the fallback, got {e}"));
        assert!(report.used_fallback, "pool={pool}: {:?}", report.steps);
        assert_eq!(report.attempts, 2);
        assert_eq!(report.outputs, golden, "pool={pool}: fallback outputs");
        arena.recycle_outputs(report.outputs);
        assert_eq!(arena.plans_built(), 2, "pool={pool}: {arena:?}");

        clean_run(
            &format!("pool={pool} original after fallback"),
            &program,
            &ir,
            71,
            &opts,
            &mut arena,
        );
        assert_eq!(
            arena.plans_built(),
            2,
            "pool={pool}: the original's plan was parked, not dropped"
        );
    }
}

/// A program whose run was killed leaves its plan dirty; another
/// program's run parks it. Parking gives every stranded tile back to the
/// pool, and the killed program's next run resets the parked plan: it is
/// bit-exact, builds no plan and allocates no tile.
#[test]
fn dirty_plan_parked_by_another_program_runs_clean() {
    let _serial = serial();
    let (a_program, a) = ring(4);
    let b_program = msccl_algos::ring_all_reduce(4, 2).unwrap();
    let b = compile(&b_program, &CompileOptions::default()).expect("compiles");
    for pool in pool_sizes() {
        let opts = opts(pool);
        let mut arena = ExecArena::new(&a, &opts);
        clean_run("warm-up a", &a_program, &a, 7, &opts, &mut arena);
        clean_run("warm-up b", &b_program, &b, 8, &opts, &mut arena);
        assert_eq!(arena.plans_built(), 2, "pool={pool}: {arena:?}");

        let plan = FaultPlan {
            seed: 0,
            specs: vec![kill_at(2, 1)],
        };
        let err = faulted_run(&a, 100, &opts, &plan, &mut arena);
        assert!(
            matches!(err, RuntimeError::InjectedFault { .. }),
            "pool={pool}: {err}"
        );
        clean_run(
            &format!("pool={pool} b parks a"),
            &b_program,
            &b,
            101,
            &opts,
            &mut arena,
        );
        let tiles = arena.pool().stats();
        assert_eq!(
            tiles.free, tiles.allocated,
            "pool={pool}: a tile is stranded out of the pool: {tiles:?}"
        );
        let stats = clean_run(
            &format!("pool={pool} a from its parked dirty plan"),
            &a_program,
            &a,
            102,
            &opts,
            &mut arena,
        );
        assert_eq!(arena.plans_built(), 2, "pool={pool}: {arena:?}");
        assert_eq!(stats.pool.allocated, 0, "pool={pool}: {stats:?}");
    }
}

/// An arena holds at most `ARENA_PLANS` plans. After that many distinct
/// programs plus one, the least recently run is the one dropped: every
/// other program runs again without a build, and only the dropped one
/// rebuilds (evicting the next least recently run in turn).
#[test]
fn arena_keeps_at_most_arena_plans_and_drops_the_least_recent() {
    let _serial = serial();
    let (program, ir) = ring(4);
    // Programs equal to `ir` but for their name: distinct plans by
    // content, one replay oracle for all.
    let programs: Vec<IrProgram> = (0..=ARENA_PLANS)
        .map(|i| IrProgram {
            name: format!("{}-{i}", ir.name),
            ..ir.clone()
        })
        .collect();
    let opts = opts(1);
    let mut arena = ExecArena::new(&ir, &opts);
    let run_all = |arena: &mut ExecArena, which: &mut dyn Iterator<Item = usize>| {
        for i in which {
            clean_run(
                &format!("program {i}"),
                &program,
                &programs[i],
                i as u64,
                &opts,
                arena,
            );
            assert!(held_plans(arena) <= ARENA_PLANS, "{arena:?}");
        }
    };
    run_all(&mut arena, &mut (0..=ARENA_PLANS));
    let built = ARENA_PLANS as u64 + 1;
    assert_eq!(arena.plans_built(), built);
    assert_eq!(held_plans(&arena), ARENA_PLANS);
    // Program 0 was dropped; 1..=N are held.
    run_all(&mut arena, &mut (1..=ARENA_PLANS));
    assert_eq!(arena.plans_built(), built, "a held plan was rebuilt");
    run_all(&mut arena, &mut (0..1));
    assert_eq!(arena.plans_built(), built + 1, "the dropped plan rebuilds");
    // That build dropped program 1, now the least recently run.
    run_all(&mut arena, &mut (2..=ARENA_PLANS).chain(0..1));
    assert_eq!(arena.plans_built(), built + 1);
    run_all(&mut arena, &mut (1..2));
    assert_eq!(arena.plans_built(), built + 2);
    assert_eq!(held_plans(&arena), ARENA_PLANS);
}

/// A count from the arena's `Debug` rendering.
fn shown_count(arena: &ExecArena, field: &str) -> usize {
    let shown = format!("{arena:?}");
    shown
        .split_once(&format!("{field}: "))
        .and_then(|(_, after)| after.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no {field} count in {shown}"))
}

/// The rank memories stashed in `arena`.
fn spare_memories(arena: &ExecArena) -> usize {
    shown_count(arena, "spare_memories")
}

/// The execution plans `arena` holds.
fn held_plans(arena: &ExecArena) -> usize {
    shown_count(arena, "plans_held")
}

/// A request with invalid options is rejected before the arena is
/// touched: the warm rank memories a late hang (a dropped delivery)
/// stashed stay there, and the next run recycles them — bit-exact,
/// nothing allocated.
#[test]
fn rejected_request_leaves_the_arena_warm() {
    let _serial = serial();
    let (program, ir) = ring(4);
    let tb = &ir.gpus[0].threadblocks[0];
    let sends_per_tile = tb.instructions.iter().filter(|i| i.op.has_send()).count() as u64;
    let plan = FaultPlan {
        seed: 0,
        specs: vec![FaultSpec {
            site: FaultSite::Delivery {
                src: 0,
                dst: tb.send_peer.unwrap(),
                channel: tb.channel,
                // Tile 12 of 16: late in the run.
                seq: 12 * sends_per_tile,
            },
            kind: FaultKind::DropDelivery,
        }],
    };
    for pool in pool_sizes() {
        let opts = opts(pool);
        let mut arena = ExecArena::new(&ir, &opts);
        clean_run("warm-up", &program, &ir, 5, &opts, &mut arena);

        let inputs = reference::random_inputs(&ir, CHUNK_ELEMS, 90);
        let injector = FaultInjector::new(&plan);
        let hung = run(Run {
            arena: Some(&mut arena),
            injector: Some(&injector),
            ..Run::new(&ir, &inputs, CHUNK_ELEMS, &opts)
        });
        assert!(
            matches!(hung.result, Err(RuntimeError::Hang { .. })),
            "pool={pool}: {:?}",
            hung.result
        );
        let warm = spare_memories(&arena);
        assert_eq!(warm, ir.num_ranks(), "pool={pool}: {arena:?}");

        let invalid = RunOptions {
            deadline: Some(Duration::ZERO),
            ..opts.clone()
        };
        let rejected = run(Run {
            arena: Some(&mut arena),
            ..Run::new(&ir, &inputs, CHUNK_ELEMS, &invalid)
        });
        assert!(
            matches!(&rejected.result, Err(RuntimeError::InvalidOptions { message })
                if message.contains("deadline")),
            "pool={pool}: {:?}",
            rejected.result
        );
        assert_eq!(
            spare_memories(&arena),
            warm,
            "pool={pool}: the rejection dropped warm buffers: {arena:?}"
        );
        let stats = clean_run(
            &format!("pool={pool} after rejected request"),
            &program,
            &ir,
            91,
            &opts,
            &mut arena,
        );
        assert_eq!(stats.pool.allocated, 0, "pool={pool}: {stats:?}");
    }
}

/// Every `Run` field at once — a trace, a metrics snapshot, a fault plan
/// (benign: two delivery delays) and a warm arena — a combination no
/// single entry point could request before. The delays only move
/// timing: outputs stay bit-exact against the replay oracle, the trace
/// and the snapshot are both there and agree with the instruction count,
/// and the warm arena allocates no tile.
#[test]
fn one_run_composes_trace_snapshot_faults_and_a_warm_arena() {
    let _serial = serial();
    let (program, ir) = ring(4);
    let tb = &ir.gpus[0].threadblocks[0];
    let delay = |seq: u64| FaultSpec {
        site: FaultSite::Delivery {
            src: 0,
            dst: tb.send_peer.unwrap(),
            channel: tb.channel,
            seq,
        },
        kind: FaultKind::DelayDelivery { micros: 200 },
    };
    let plan = FaultPlan {
        seed: 0,
        specs: vec![delay(0), delay(5)],
    };
    plan.validate(&ir).expect("the delay plan fits the program");
    for pool in pool_sizes() {
        let opts = opts(pool);
        let mut arena = ExecArena::new(&ir, &opts);
        clean_run("warm-up", &program, &ir, 6, &opts, &mut arena);

        let inputs = reference::random_inputs(&ir, CHUNK_ELEMS, 95);
        let golden = reference::replay_program(
            &program,
            &inputs,
            CHUNK_ELEMS * ir.refinement,
            ReduceOp::Sum,
        );
        let injector = FaultInjector::new(&plan);
        let report = run(Run {
            arena: Some(&mut arena),
            injector: Some(&injector),
            trace: true,
            snapshot: true,
            ..Run::new(&ir, &inputs, CHUNK_ELEMS, &opts)
        });
        let outputs = report
            .result
            .unwrap_or_else(|e| panic!("pool={pool}: delays must not fail the run: {e}"));
        assert_bit_exact(&format!("pool={pool}"), &outputs, &golden);
        assert_eq!(injector.fired().len(), 2, "pool={pool}: both delays struck");
        let trace = report.trace.expect("a trace was requested");
        trace
            .check_consistency(Some(&ir))
            .unwrap_or_else(|e| panic!("pool={pool}: {e}"));
        assert_eq!(
            trace.executed_instructions().len() as u64,
            report.stats.instructions
        );
        assert_eq!(
            report
                .metrics
                .counter_total(msccl_metrics::names::INSTRUCTIONS),
            report.stats.instructions,
            "pool={pool}: the snapshot covers exactly this run"
        );
        assert_eq!(
            report.stats.pool.allocated, 0,
            "pool={pool}: {:?}",
            report.stats
        );
    }
}

/// Threads of this process named like the arena's resident workers.
/// (`Threads:` in `/proc/self/status` would also count the test
/// harness's own threads, which come and go.)
#[cfg(target_os = "linux")]
fn resident_worker_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.starts_with("msccl-worker"))
        })
        .count()
}

/// A thousand runs in one arena hold exactly `pool − 1` resident threads
/// — none spawned per run, none leaked by a failed one — and dropping
/// the arena joins them.
#[cfg(target_os = "linux")]
#[test]
fn arena_holds_pool_minus_one_threads_and_drop_joins_them() {
    let _serial = serial();
    let (program, ir) = ring(4);
    let baseline = resident_worker_threads();
    for pool in [1usize, 2, 3] {
        let opts = RunOptions {
            worker_threads: pool,
            ..RunOptions::default()
        };
        let mut arena = ExecArena::new(&ir, &opts);
        assert_eq!(
            resident_worker_threads(),
            baseline,
            "threads start with the first run"
        );
        let inputs = reference::random_inputs(&ir, 16, 80);
        for run in 0..1_000 {
            let (outputs, _) = execute_in_arena(&ir, &inputs, 16, &opts, &mut arena)
                .unwrap_or_else(|e| panic!("pool={pool} run {run}: {e}"));
            arena.recycle_outputs(outputs);
            if run % 250 == 0 {
                assert_eq!(
                    resident_worker_threads(),
                    baseline + pool - 1,
                    "pool={pool} after run {run}"
                );
            }
        }
        let plan = FaultPlan {
            seed: 0,
            specs: vec![kill_at(1, 1)],
        };
        let _ = faulted_run(&ir, 81, &opts, &plan, &mut arena);
        clean_run("after kill", &program, &ir, 82, &opts, &mut arena);
        assert_eq!(
            resident_worker_threads(),
            baseline + pool - 1,
            "pool={pool}"
        );
        drop(arena);
        // `join` returns once the kernel clears the worker's child-tid
        // futex in `exit_mm`, which is before the task leaves
        // `/proc/self/task`: poll for up to a second.
        let mut threads = resident_worker_threads();
        for _ in 0..100 {
            if threads == baseline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            threads = resident_worker_threads();
        }
        assert_eq!(threads, baseline, "pool={pool}: drop joins");
    }
}
