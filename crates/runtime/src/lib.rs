//! A multi-threaded functional interpreter for MSCCL-IR.
//!
//! This crate is the CPU analog of the paper's CUDA interpreter (Figure 5,
//! §6): each IR thread block becomes a resumable task scheduled onto a
//! work-stealing pool of `min(num_cpus, num_tbs)` worker threads (see
//! [`RunOptions::worker_threads`]), executing its
//! instruction list sequentially inside an outer *tiling* loop; chunks
//! larger than a FIFO slot are split into tiles and pipelined exactly as
//! the GPU interpreter does. Point-to-point connections are bounded
//! channels with the protocol's FIFO slot count — a send blocks when all
//! slots are full — and cross-thread-block dependencies use monotonic
//! semaphores, mirroring the `wait`/`set` pair in Figure 5.
//!
//! Data is real (`f32`), so executing a compiled program end-to-end
//! validates numerical correctness against the golden results in
//! [`mod@reference`].
//!
//! # Example
//!
//! ```
//! use msccl_runtime::{execute, reference, RunOptions};
//! use mscclang::{compile, CompileOptions};
//!
//! let program = msccl_algos::ring_all_reduce(4, 1)?;
//! let ir = compile(&program, &CompileOptions::default())?;
//! let inputs = reference::random_inputs(&ir, 64, 42);
//! let outputs = execute(&ir, &inputs, 64, &RunOptions::default()).unwrap();
//! reference::check_outputs(&ir.collective, &inputs, &outputs, 64, Default::default()).unwrap();
//! # Ok::<(), mscclang::Error>(())
//! ```

mod cancel;
mod epoch;
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
pub use epoch::{EpochCheckpoint, EpochStatus};
pub use executor::{
    execute, execute_in_arena, execute_pooled, execute_profiled, execute_resumable,
    execute_resumable_in_arena, execute_traced, execute_with_faults, execute_with_faults_traced,
    execute_with_metrics, execute_with_stats, tile_pool_for, ExecArena, ExecStats, RunOptions,
    RuntimeError,
};
pub use flight::{
    Blackbox, BlackboxConn, BlackboxFailure, BlackboxSched, BlockedOn, FlightRecord,
    StallDiagnosis, StallKind, TaskStall, WaitEdge, WaitForGraph, BLACKBOX_VERSION,
};
pub use memory::{RankMemory, SpaceBuffers};
pub use plan::worker_pool_size;
pub use pool::{PoolStats, PooledTile, TilePool};
pub use recovery::{
    execute_with_recovery, execute_with_recovery_in_arena, RecoveryPolicy, RecoveryReport,
    RecoveryStep, ResumePolicy,
};
