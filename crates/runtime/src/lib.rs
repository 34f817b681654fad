//! A multi-threaded functional interpreter for MSCCL-IR.
//!
//! This crate is the CPU analog of the paper's CUDA interpreter (Figure 5,
//! §6): each IR thread block becomes a resumable task scheduled onto a
//! work-stealing pool of `min(num_cpus, num_tbs)` worker threads (see
//! [`RunOptions::worker_threads`]), executing its
//! instruction list sequentially inside an outer *tiling* loop; chunks
//! larger than a FIFO slot are split into tiles and pipelined exactly as
//! the GPU interpreter does. Point-to-point connections are bounded
//! queues with the protocol's FIFO slot count — a task whose send finds
//! all slots full parks until the receiver drains — and
//! cross-thread-block dependencies use monotonic atomic semaphores,
//! mirroring the `wait`/`set` pair in Figure 5.
//!
//! Data is real (`f32`), so executing a compiled program end-to-end
//! validates numerical correctness against the golden results in
//! [`mod@reference`].
//!
//! There is one way to run a program: build a [`Run`] and call [`run`].
//! The request's optional fields — an [`ExecArena`] to run in, a fault
//! injector, a trace, a metrics snapshot — compose freely, and the
//! [`RunReport`] carries everything the run produced. [`execute`],
//! [`execute_in_arena`] and [`execute_with_metrics`] are shorthands for
//! the commonest shapes; [`execute_with_recovery`] runs the same request
//! under the retry/fallback ladder, [`recover`], which the scenario
//! simulator also runs.
//!
//! # Example
//!
//! ```
//! use msccl_runtime::{execute, reference, run, Run, RunOptions};
//! use mscclang::{compile, CompileOptions};
//!
//! let program = msccl_algos::ring_all_reduce(4, 1)?;
//! let ir = compile(&program, &CompileOptions::default())?;
//! let inputs = reference::random_inputs(&ir, 64, 42);
//! let opts = RunOptions::default();
//! let outputs = execute(&ir, &inputs, 64, &opts).unwrap();
//! reference::check_outputs(&ir.collective, &inputs, &outputs, 64, Default::default()).unwrap();
//!
//! // The same run, also asking for a trace and the metrics snapshot.
//! let report = run(Run {
//!     trace: true,
//!     snapshot: true,
//!     ..Run::new(&ir, &inputs, 64, &opts)
//! });
//! assert_eq!(report.result.unwrap(), outputs);
//! assert!(report.trace.is_some() && !report.metrics.samples.is_empty());
//! # Ok::<(), mscclang::Error>(())
//! ```

mod cancel;
mod executor;
mod fifo;
mod flight;
pub mod kernels;
mod memory;
mod plan;
mod pool;
mod recovery;
pub mod reference;
mod sched;
mod semaphore;
mod task;
mod workers;

pub use cancel::{FailureCause, FailureOrigin};
pub use executor::{
    execute, execute_in_arena, execute_with_metrics, run, ExecArena, ExecStats, Run, RunOptions,
    RunReport, RuntimeError, ARENA_PLANS,
};
pub use flight::{
    Blackbox, BlackboxConn, BlackboxFailure, BlackboxSched, BlockedOn, FlightRecord,
    StallDiagnosis, StallKind, TaskStall, WaitEdge, WaitForGraph, BLACKBOX_VERSION,
};
pub use memory::{RankMemory, SpaceBuffers};
pub use plan::worker_pool_size;
pub use pool::{PoolStats, PooledTile, TilePool};
pub use recovery::{execute_with_recovery, recover, Attempts, Clock};
pub use recovery::{RecoveryPolicy, RecoveryReport, RecoveryStep};
