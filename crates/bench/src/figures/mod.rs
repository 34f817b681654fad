//! Generators for every figure in the paper's evaluation (§7).

mod ablations;
mod algorithms;
mod allreduce;
mod alltoall;
mod alltonext;
mod loc;
mod sccl_fig;

pub use ablations::{ablation_fusion, ablation_parallelization, ablation_pipelining};
pub use algorithms::{algorithm_comparison, alltoall_generations};
pub use allreduce::{fig8a, fig8b, fig8c, fig8d};
pub use alltoall::{ablation_aggregation, fig8e, fig8f};
pub use alltonext::{fig8g, fig8h};
pub use loc::loc_table;
pub use sccl_fig::fig11;

use msccl_sim::{simulate, SimConfig};
use msccl_topology::{Machine, Protocol};
use mscclang::{compile, CompileOptions, IrProgram, Program};

use crate::{BenchError, Figure, Scale};

/// A figure generator.
pub type Generator = fn(Scale) -> Result<Figure, BenchError>;

/// Every figure generator under the name the `figures` binary takes, in
/// the order the full evaluation runs them.
pub const ALL: [(&str, Generator); 15] = [
    ("fig8a", fig8a),
    ("fig8b", fig8b),
    ("fig8c", fig8c),
    ("fig8d", fig8d),
    ("fig8e", fig8e),
    ("fig8f", fig8f),
    ("fig8g", fig8g),
    ("fig8h", fig8h),
    ("fig11", fig11),
    ("ablation_pipelining", ablation_pipelining),
    ("ablation_fusion", ablation_fusion),
    ("ablation_parallelization", ablation_parallelization),
    ("ablation_aggregation", ablation_aggregation),
    ("algorithm_comparison", algorithm_comparison),
    ("alltoall_generations", alltoall_generations),
];

/// Compiles a program without post-verification (figure programs are
/// verified by the unit/integration suites; benchmark compiles skip the
/// symbolic executor for speed). The target machine's SM count bounds the
/// thread block budget, letting the scheduler pack blocks when a high
/// parallelization factor would otherwise exceed the cooperative-launch
/// limit.
pub(crate) fn build(
    program: &Program,
    instances: usize,
    machine: &Machine,
) -> Result<IrProgram, BenchError> {
    Ok(compile(
        program,
        &CompileOptions::default()
            .with_verify(false)
            .with_instances(instances)
            .with_max_tbs_per_rank(machine.num_sms()),
    )?)
}

/// Simulates `ir` on `machine` at `protocol` for one buffer size.
pub(crate) fn sim_us(
    ir: &IrProgram,
    machine: &Machine,
    protocol: Protocol,
    bytes: u64,
) -> Result<f64, BenchError> {
    let cfg = SimConfig::new(machine.clone()).with_protocol(protocol);
    Ok(simulate(ir, &cfg, bytes)?.total_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    /// Every figure generator runs end to end at quick scale and produces
    /// plausible data.
    #[test]
    fn all_figures_generate_at_quick_scale() {
        for (name, generate) in ALL {
            let f = generate(Scale::Quick).unwrap();
            assert_eq!(f.id, name, "table name and figure id differ");
            assert!(!f.rows.is_empty(), "{} has no rows", f.id);
            assert!(!f.series.is_empty(), "{} has no series", f.id);
            for (bytes, values) in &f.rows {
                assert!(*bytes > 0);
                assert_eq!(values.len(), f.series.len(), "{} ragged row", f.id);
                for v in values {
                    assert!(v.is_finite() && *v > 0.0, "{} bad value {v}", f.id);
                }
            }
            let md = f.to_markdown();
            assert!(md.contains(&f.id));
        }
    }

    #[test]
    fn fig8a_speedup_shape_holds_at_quick_scale() {
        let f = fig8a(Scale::Quick).unwrap();
        assert_eq!(f.mode, Mode::Speedup);
        // Somewhere in the sweep MSCCLang beats NCCL.
        let peak = (0..f.series.len())
            .map(|s| f.peak(s))
            .fold(f64::NAN, f64::max);
        assert!(peak > 1.0, "no series ever beats NCCL (peak {peak})");
    }

    #[test]
    fn loc_table_lists_algorithms() {
        let t = loc_table().unwrap();
        assert!(t.contains("two_step_alltoall"));
        assert!(t.contains("hierarchical_allreduce"));
    }
}
