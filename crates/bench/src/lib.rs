//! Benchmark harness reproducing every figure of the MSCCLang paper's
//! evaluation (§7).
//!
//! Each function in [`figures`] regenerates one figure or table: it builds
//! the MSCCLang programs and baselines involved, sweeps the paper's buffer
//! sizes through the simulator, and returns a [`Figure`] whose rows mirror
//! the published series (speedups over the figure's baseline, or raw
//! latencies for Figure 11).
//!
//! The `figures` binary prints one figure by name (see [`figures::ALL`]);
//! `figures all` runs the whole evaluation and emits the content of
//! `EXPERIMENTS.md`.
//!
//! Scale control: setting `MSCCL_BENCH_QUICK=1` shrinks cluster sizes and
//! sweeps so the full suite finishes in seconds (used by tests); the
//! default reproduces the paper's dimensions.

pub mod figures;
mod table;

pub use table::{Figure, Mode};

use std::fmt;

/// Errors from figure generation.
#[derive(Debug)]
pub enum BenchError {
    /// Program construction or compilation failed.
    Compile(mscclang::Error),
    /// Simulation failed.
    Sim(msccl_sim::SimError),
    /// Baseline model failed.
    Baseline(msccl_baselines::BaselineError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Compile(e) => write!(f, "compile: {e}"),
            BenchError::Sim(e) => write!(f, "sim: {e}"),
            BenchError::Baseline(e) => write!(f, "baseline: {e}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<mscclang::Error> for BenchError {
    fn from(e: mscclang::Error) -> Self {
        BenchError::Compile(e)
    }
}
impl From<msccl_sim::SimError> for BenchError {
    fn from(e: msccl_sim::SimError) -> Self {
        BenchError::Sim(e)
    }
}
impl From<msccl_baselines::BaselineError> for BenchError {
    fn from(e: msccl_baselines::BaselineError) -> Self {
        BenchError::Baseline(e)
    }
}

/// Whether to run at the paper's dimensions or a fast reduced scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper dimensions.
    Full,
    /// Reduced dimensions/sweeps for tests.
    Quick,
}

impl Scale {
    /// Reads `MSCCL_BENCH_QUICK` from the environment.
    #[must_use]
    pub fn from_env() -> Self {
        if std::env::var("MSCCL_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty()) {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Whether this is the reduced scale.
    #[must_use]
    pub fn is_quick(self) -> bool {
        self == Scale::Quick
    }
}

/// Formats a byte count the way the paper's axes do.
#[must_use]
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{}GB", bytes >> 30)
    } else if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}KB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

/// Powers-of-two sweep from `2^from` to `2^to` bytes inclusive.
#[must_use]
pub fn size_sweep(from: u32, to: u32) -> Vec<u64> {
    (from..=to).map(|e| 1u64 << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2KB");
        assert_eq!(human_bytes(3 << 20), "3MB");
        assert_eq!(human_bytes(1 << 30), "1GB");
    }

    #[test]
    fn sweep_is_inclusive() {
        assert_eq!(size_sweep(10, 12), vec![1024, 2048, 4096]);
    }
}
