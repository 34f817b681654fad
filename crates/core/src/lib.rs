//! # MSCCLang: a DSL, compiler and IR for GPU collective communication
//!
//! This crate is a faithful Rust implementation of the programming system
//! described in *MSCCLang: Microsoft Collective Communication Language*
//! (ASPLOS 2023):
//!
//! * a **chunk-oriented DSL** ([`Program`], [`ChunkRef`]) for declaratively
//!   routing chunks between GPU buffers with `copy` and `reduce`
//!   operations, plus scheduling directives (channels, chunk
//!   parallelization, aggregation);
//! * a **compiler** ([`compile`]) that traces programs into a Chunk DAG,
//!   lowers them to an Instruction DAG, fuses instructions, and schedules
//!   them onto thread blocks and channels, producing deadlock-free and
//!   data-race-free **MSCCL-IR** ([`ir::IrProgram`]);
//! * a **verifier** ([`verify`]) that symbolically executes the IR to prove
//!   the postcondition of the [`Collective`] is met, and to detect
//!   deadlocks and data races.
//!
//! The runtime lives in the companion `msccl-runtime` crate (a functional,
//! multi-threaded interpreter) and `msccl-sim` (a discrete-event
//! performance model).
//!
//! # Quickstart
//!
//! ```
//! use mscclang::{compile, BufferKind, Collective, CompileOptions, Program};
//!
//! // A trivial 2-rank AllGather: each rank copies its chunk to both outputs.
//! let mut p = Program::new("tiny_allgather", Collective::all_gather(2, 1, false));
//! for r in 0..2 {
//!     let c = p.chunk(r, BufferKind::Input, 0, 1)?;
//!     let c = p.copy(&c, r, BufferKind::Output, r)?;
//!     let _ = p.copy(&c, 1 - r, BufferKind::Output, r)?;
//! }
//! let ir = compile(&p, &CompileOptions::default())?;
//! assert_eq!(ir.num_ranks(), 2);
//! # Ok::<(), mscclang::Error>(())
//! ```

pub mod buffer;
pub mod chunk;
pub mod collective;
pub mod dag;
pub mod dot;
pub mod error;
pub mod ir;
pub mod ir_stats;
pub mod ir_xml;
pub mod lower;
pub mod order;
pub mod passes;
pub mod program;
pub mod rng;
pub mod schedule;
pub mod verify;

mod compile;

pub use buffer::{BufferKind, Loc};
pub use chunk::{ChunkValue, InputId, ReduceOp, ReductionSet};
pub use collective::{Collective, CollectiveKind, Space};
pub use compile::{compile, CompileOptions};
pub use error::{Error, ErrorLoc, Result};
pub use ir::{
    EpochCut, IrDep, IrGpu, IrInstruction, IrLoc, IrProgram, IrThreadBlock, OpCode, StepRule,
    StepValue,
};
pub use ir_stats::IrStats;
pub use passes::epochs::EpochMode;
pub use program::{ChunkRef, Program, TraceOp, TraceOpKind};
