//! Compiler optimization passes over the Instruction DAG.
//!
//! The initial instruction generation uses only base instructions; the
//! peephole [`fusion`] pass (§4.3) rewrites back-to-back receive/send pairs
//! into the fused `rcs`/`rrcs`/`rrs` instructions, which keep intermediate
//! values in GPU registers instead of round-tripping through global memory.
//! The optional [`fn@aggregate`] pass merges contiguous sends on one
//! connection into multi-count transfers (automating §5.1's aggregation).
//! The [`epochs`] pass runs over the finished IR instead of the DAG,
//! annotating the chain of consistent checkpoint frontiers that the
//! verifier checks and the simulator's checkpoint cost model charges.

pub mod aggregate;
pub mod dce;
pub mod epochs;
pub mod fusion;

pub use aggregate::aggregate;
pub use dce::eliminate_dead_stores;
pub use epochs::{
    auto_boundaries, epoch_cuts, schedule as schedule_epochs, snapshot_bytes, traffic_bytes,
    EpochMode,
};
pub use fusion::{fuse, unfuse};
