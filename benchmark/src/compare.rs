//! `compare A B`: is result file B worse than result file A?
//!
//! For every workload both files hold and every end-to-end metric, the
//! relative change is set against the metric's bound:
//!
//! * `BREACH` — worse by more than the bound (or more operations failed,
//!   or a count that must repeat exactly changed);
//! * `unresolved` — within the bound, but one side's per-round range is
//!   wider than the bound, so "unchanged" cannot be claimed;
//! * `better` / `unchanged` — otherwise.

use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::{Better, END_TO_END};

/// Counts the program under test reports that must not move between two
/// runs of the same inputs.
const EXACT_COUNTS: [&str; 5] = [
    "sim.events",
    "sim.simulated_total_us",
    "core.ir_instrs",
    "core.instr_nodes",
    "runtime.instructions",
];

/// What [`compare`] found.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One line per (workload, metric) pair, plus warnings.
    pub text: String,
    /// Pairs compared.
    pub pairs: usize,
    pub breaches: usize,
    pub unresolved: usize,
}

fn num(v: &Value, path: &str) -> Option<f64> {
    v.at(path).and_then(Value::as_f64)
}

/// Compares two parsed result files.
#[must_use]
pub fn compare(a: &Value, b: &Value) -> Comparison {
    let mut out = Comparison::default();
    for key in ["cpus", "simd_level", "rustc"] {
        let (x, y) = (a.at(&format!("host/{key}")), b.at(&format!("host/{key}")));
        if x != y {
            let _ = writeln!(
                out.text,
                "WARNING: host.{key} differs ({x:?} vs {y:?}): these numbers are from different hosts"
            );
        }
    }
    for (name, wa) in a.get("workloads").map_or(&[][..], Value::members) {
        let Some(wb) = b.at(&format!("workloads/{name}")) else {
            continue;
        };
        let (fa, fb) = (num(wa, "failed"), num(wb, "failed"));
        if fb > fa {
            out.breaches += 1;
            let _ = writeln!(
                out.text,
                "{name:<15} failed              {fa:?} -> {fb:?}  BREACH (more operations fail)"
            );
        }
        for count in EXACT_COUNTS {
            let path = format!("per_layer/{count}/value");
            if let (Some(x), Some(y)) = (num(wa, &path), num(wb, &path)) {
                if x != y {
                    out.breaches += 1;
                    let _ = writeln!(
                        out.text,
                        "{name:<15} {count:<19} {x} -> {y}  BREACH (must repeat exactly)"
                    );
                }
            }
        }
        for def in END_TO_END {
            let path =
                |side: &Value, field: &str| num(side, &format!("end_to_end/{}/{field}", def.name));
            let (Some(x), Some(y)) = (path(wa, "value"), path(wb, "value")) else {
                continue;
            };
            out.pairs += 1;
            let worse = match def.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let range = |side: &Value, value: f64| match (path(side, "min"), path(side, "max")) {
                (Some(lo), Some(hi)) if value != 0.0 => (hi - lo) / value.abs(),
                _ => 0.0,
            };
            let noisiest = range(wa, x).max(range(wb, y));
            let verdict = if worse > def.bound {
                out.breaches += 1;
                "BREACH"
            } else if noisiest > def.bound {
                out.unresolved += 1;
                "unresolved"
            } else if worse < -def.bound {
                "better"
            } else {
                "unchanged"
            };
            let _ = writeln!(
                out.text,
                "{name:<15} {:<19} {x:>14.3} -> {y:>14.3} {:<5} worse by {:>+6.1}% (bound {:.0}%, \
                 round range {:.1}%)  {verdict}",
                def.name,
                def.unit,
                worse * 100.0,
                def.bound * 100.0,
                noisiest * 100.0,
            );
        }
    }
    let _ = writeln!(
        out.text,
        "{} pairs compared: {} breach(es), {} unresolved",
        out.pairs, out.breaches, out.unresolved
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A hand-made result file with one workload.
    fn file(latency: (f64, f64, f64), ops: f64, failed: u64, events: u64) -> Value {
        parse(&format!(
            r#"{{"host": {{"cpus": 2, "simd_level": "avx2", "rustc": "r"}},
                "workloads": {{"w": {{"failed": {failed},
                  "end_to_end": {{
                    "latency_p50_us": {{"value": {}, "min": {}, "max": {}}},
                    "ops_per_s": {{"value": {ops}, "min": {ops}, "max": {ops}}},
                    "setup_s": {{"value": 1.0, "min": 1.0, "max": 1.0}}}},
                  "per_layer": {{"sim.events": {{"value": {events}}}}}}}}}}}"#,
            latency.0, latency.1, latency.2
        ))
        .unwrap()
    }

    #[test]
    fn same_numbers_are_unchanged() {
        let a = file((100.0, 99.0, 101.0), 50.0, 0, 7);
        let c = compare(&a, &a);
        assert_eq!((c.pairs, c.breaches, c.unresolved), (3, 0, 0));
        assert!(c.text.contains("unchanged") && !c.text.contains("WARNING"));
    }

    #[test]
    fn worse_beyond_the_bound_is_a_breach_in_either_direction() {
        let a = file((100.0, 99.0, 101.0), 50.0, 0, 7);
        // Latency is lower-better: +30% breaches. Throughput is
        // higher-better: −30% breaches, +30% is better.
        assert_eq!(
            compare(&a, &file((130.0, 129.0, 131.0), 50.0, 0, 7)).breaches,
            1
        );
        assert_eq!(
            compare(&a, &file((100.0, 99.0, 101.0), 35.0, 0, 7)).breaches,
            1
        );
        let faster = compare(&a, &file((100.0, 99.0, 101.0), 65.0, 0, 7));
        assert_eq!(faster.breaches, 0);
        assert!(faster.text.contains("better"));
    }

    #[test]
    fn a_wide_round_range_is_unresolved_not_unchanged() {
        let a = file((100.0, 99.0, 101.0), 50.0, 0, 7);
        let noisy = file((102.0, 80.0, 140.0), 50.0, 0, 7);
        let c = compare(&a, &noisy);
        assert_eq!((c.breaches, c.unresolved), (0, 1));
        // Noise does not excuse a breach.
        let noisy_and_worse = file((140.0, 80.0, 190.0), 50.0, 0, 7);
        assert_eq!(compare(&a, &noisy_and_worse).breaches, 1);
    }

    #[test]
    fn more_failures_or_a_moved_count_breach() {
        let a = file((100.0, 99.0, 101.0), 50.0, 0, 7);
        assert_eq!(
            compare(&a, &file((100.0, 99.0, 101.0), 50.0, 1, 7)).breaches,
            1
        );
        assert_eq!(
            compare(&a, &file((100.0, 99.0, 101.0), 50.0, 0, 8)).breaches,
            1
        );
    }

    #[test]
    fn another_host_is_called_out() {
        let a = file((100.0, 99.0, 101.0), 50.0, 0, 7);
        let mut b = a.clone();
        if let Value::Obj(members) = &mut b {
            members[0].1 = parse(r#"{"cpus": 1, "simd_level": "avx2", "rustc": "r"}"#).unwrap();
        }
        assert!(compare(&a, &b).text.contains("WARNING: host.cpus differs"));
    }
}
