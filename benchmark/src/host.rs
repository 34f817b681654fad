//! The host fingerprint: what a number was measured on. It is written
//! into every result file so that `compare` can say when two files come
//! from different machines.

use std::time::Instant;

use crate::stats::median;

/// Facts about the machine and the build.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cpus: usize,
    /// Instruction set the runtime's reduce kernels dispatch to.
    pub simd_level: &'static str,
    /// Single-thread `copy_from_slice` bandwidth over 16 MiB, GB/s.
    pub memcpy_gbps: f64,
    /// Compiler that built this binary.
    pub rustc: &'static str,
}

impl Host {
    #[must_use]
    pub fn detect() -> Self {
        Self {
            cpus: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            simd_level: msccl_runtime::kernels::simd_level().name(),
            memcpy_gbps: memcpy_gbps(),
            rustc: env!("BENCH_RUSTC_VERSION"),
        }
    }

    /// Vector width of [`simd_level`](Self::simd_level) in bits (0 for
    /// the scalar fallback), so the level can travel as a metric.
    #[must_use]
    pub fn simd_bits(&self) -> f64 {
        match self.simd_level {
            "avx2" => 256.0,
            "sse2" | "neon" => 128.0,
            _ => 0.0,
        }
    }

    /// The closed-loop generator's thread count: `wanted`, but never more
    /// than the host has CPUs — a generator that oversubscribes the host
    /// measures its own queueing.
    #[must_use]
    pub fn clients(&self, wanted: usize) -> usize {
        wanted.min(self.cpus).max(1)
    }

    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpus\": {}, \"simd_level\": \"{}\", \"memcpy_gbps\": {:.3}, \"rustc\": \"{}\"}}",
            self.cpus, self.simd_level, self.memcpy_gbps, self.rustc
        )
    }
}

fn memcpy_gbps() -> f64 {
    const BYTES: usize = 16 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    BYTES as f64 / median(&times) / 1e9
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where `/proc`
/// is not available.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
