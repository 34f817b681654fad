//! Compiler optimization passes over the Instruction DAG.
//!
//! The initial instruction generation uses only base instructions; the
//! peephole [`fusion`] pass (§4.3) rewrites back-to-back receive/send pairs
//! into the fused `rcs`/`rrcs`/`rrs` instructions, which keep intermediate
//! values in GPU registers instead of round-tripping through global memory.
//! The optional [`fn@aggregate`] pass merges contiguous sends on one
//! connection into multi-count transfers (automating §5.1's aggregation).

pub mod aggregate;
pub mod dce;
pub mod fusion;

pub use aggregate::aggregate;
pub use dce::eliminate_dead_stores;
pub use fusion::{fuse, unfuse};
