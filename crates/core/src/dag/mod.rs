//! The compiler's intermediate graphs (§4).
//!
//! Lowering proceeds in two stages: the traced program becomes a
//! [`ChunkDag`] of `copy`/`reduce` operations with true and false
//! dependencies (§4.1), which is then expanded into an [`InstrDag`] of
//! point-to-point and local instructions connected by processing and
//! communication edges (§4.2). Chunk parallelization (§5.1) is applied
//! between tracing and DAG construction by refining every chunk into
//! subchunks and duplicating operations across instances.

mod chunk_dag;
mod hazard;
mod instr_dag;

pub use chunk_dag::{ChunkDag, ChunkNode};
pub(crate) use instr_dag::Adjacency;
pub use instr_dag::{EdgeKind, InstrDag, InstrNode, InstrOp};
