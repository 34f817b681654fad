//! Aggregated scenario results: latency percentiles, throughput,
//! recovery-decision counts and SLO verdicts.
//!
//! The report is built once from the per-op latencies and per-rep
//! outcomes the runner collected, then rendered as text (for humans) or
//! JSON (for CI artifacts). Every field derives deterministically from
//! the scenario seed on the sim engine, so the JSON form is bit-identical
//! across runs and `--parallel` thread counts.

use std::fmt::Write as _;

use msccl_metrics::json_escape;

use crate::slo::{fmt_f64, Assertion, METRICS};

/// Per-repetition outcome, kept for the report's breakdown table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepStats {
    /// Whether a fault plan was active this repetition.
    pub faulted: bool,
    /// Plain retries taken (from-scratch re-runs).
    pub retries: u64,
    /// Fallback-program switches taken.
    pub fallbacks: u64,
    /// Ops that exhausted the recovery ladder and failed outright.
    pub failures: u64,
    /// Virtual (sim) or wall-clock (runtime) time from first arrival to
    /// last completion, microseconds.
    pub makespan_us: f64,
    /// Black-box dump paths written for ops that failed outright, in op
    /// order. Populated only by the runtime engine when the runner is
    /// given a dump directory; each path feeds `msccl doctor`.
    pub blackboxes: Vec<String>,
}

/// One evaluated SLO assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct SloResult {
    /// The assertion as written in the scenario.
    pub assertion: Assertion,
    /// The value the report produced for its metric.
    pub actual: f64,
    /// Whether the assertion held.
    pub passed: bool,
}

/// The aggregated result of running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Engine that ran it (`sim` or `runtime`).
    pub engine: String,
    /// Machine spec.
    pub machine: String,
    /// Master seed.
    pub seed: u64,
    /// Completed ops across all repetitions.
    pub ops: usize,
    /// Bytes moved per rank, summed across ops.
    pub total_bytes: u64,
    /// Per-op completion-latency percentiles, microseconds
    /// (arrival-to-finish, so queueing delay counts).
    pub p50_us: f64,
    /// 95th percentile latency.
    pub p95_us: f64,
    /// 99th percentile latency.
    pub p99_us: f64,
    /// Mean latency.
    pub mean_us: f64,
    /// Worst-case latency.
    pub max_us: f64,
    /// Sum of per-repetition makespans, microseconds.
    pub makespan_us: f64,
    /// Ops per second of (virtual or wall) time.
    pub throughput_ops_per_s: f64,
    /// Payload throughput, gigabits per second.
    pub throughput_gbps: f64,
    /// Ops issued per tenant, in the scenario's tenant order.
    pub tenant_ops: Vec<(String, usize)>,
    /// Per-repetition outcomes.
    pub reps: Vec<RepStats>,
    /// Whether every op completed (and, on the runtime engine, data
    /// verification passed wherever it ran).
    pub verified: bool,
    /// Evaluated SLO assertions.
    pub slo: Vec<SloResult>,
    /// Whether every assertion held AND `verified` is true when no
    /// assertion mentions it.
    pub passed: bool,
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ScenarioReport {
    /// Builds a report from raw latencies and per-rep outcomes, then
    /// evaluates the assertions.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        name: &str,
        engine: &str,
        machine: &str,
        seed: u64,
        latencies_us: &[f64],
        total_bytes: u64,
        tenant_ops: Vec<(String, usize)>,
        reps: Vec<RepStats>,
        assertions: &[Assertion],
    ) -> Self {
        let mut sorted = latencies_us.to_vec();
        sorted.sort_by(f64::total_cmp);
        let ops = sorted.len();
        let makespan_us: f64 = reps.iter().map(|r| r.makespan_us).sum();
        let mean_us = if ops == 0 {
            0.0
        } else {
            sorted.iter().sum::<f64>() / ops as f64
        };
        let (throughput_ops_per_s, throughput_gbps) = if makespan_us > 0.0 {
            (
                ops as f64 / (makespan_us / 1e6),
                total_bytes as f64 * 8.0 / makespan_us / 1000.0,
            )
        } else {
            (0.0, 0.0)
        };
        let verified = reps.iter().all(|r| r.failures == 0);
        let mut report = Self {
            name: name.to_owned(),
            engine: engine.to_owned(),
            machine: machine.to_owned(),
            seed,
            ops,
            total_bytes,
            p50_us: percentile(&sorted, 50.0),
            p95_us: percentile(&sorted, 95.0),
            p99_us: percentile(&sorted, 99.0),
            mean_us,
            max_us: sorted.last().copied().unwrap_or(0.0),
            makespan_us,
            throughput_ops_per_s,
            throughput_gbps,
            tenant_ops,
            reps,
            verified,
            slo: Vec::new(),
            passed: verified,
        };
        report.slo = assertions
            .iter()
            .map(|a| {
                let actual = report
                    .metric_value(&a.metric)
                    .expect("assertions only parse known metrics");
                SloResult {
                    assertion: a.clone(),
                    actual,
                    passed: a.eval(actual),
                }
            })
            .collect();
        report.passed = verified && report.slo.iter().all(|s| s.passed);
        report
    }

    /// Looks up an SLO metric by name; `None` only for names outside
    /// [`METRICS`].
    #[must_use]
    pub fn metric_value(&self, metric: &str) -> Option<f64> {
        let sum = |f: fn(&RepStats) -> u64| self.reps.iter().map(f).sum::<u64>() as f64;
        let v = match metric {
            "p50_us" => self.p50_us,
            "p95_us" => self.p95_us,
            "p99_us" => self.p99_us,
            "mean_us" => self.mean_us,
            "max_us" => self.max_us,
            "p50_ms" => self.p50_us / 1000.0,
            "p95_ms" => self.p95_us / 1000.0,
            "p99_ms" => self.p99_us / 1000.0,
            "mean_ms" => self.mean_us / 1000.0,
            "max_ms" => self.max_us / 1000.0,
            "makespan_ms" => self.makespan_us / 1000.0,
            "throughput_ops_per_s" => self.throughput_ops_per_s,
            "throughput_gbps" => self.throughput_gbps,
            "ops" => self.ops as f64,
            "faulted_reps" => self.reps.iter().filter(|r| r.faulted).count() as f64,
            "retries" => sum(|r| r.retries),
            "fallbacks" => sum(|r| r.fallbacks),
            "failures" => sum(|r| r.failures),
            "recovery_decisions" => sum(|r| r.retries + r.fallbacks),
            "verified" => {
                if self.verified {
                    1.0
                } else {
                    0.0
                }
            }
            _ => return None,
        };
        debug_assert!(METRICS.contains(&metric));
        Some(v)
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario {} ({} on {})",
            self.name, self.engine, self.machine
        );
        let _ = writeln!(
            out,
            "  seed {}  reps {}  ops {}  bytes {}",
            self.seed,
            self.reps.len(),
            self.ops,
            msccl_topology::format_size(self.total_bytes)
        );
        let _ = writeln!(
            out,
            "  latency us  p50 {:.1}  p95 {:.1}  p99 {:.1}  mean {:.1}  max {:.1}",
            self.p50_us, self.p95_us, self.p99_us, self.mean_us, self.max_us
        );
        let _ = writeln!(
            out,
            "  throughput  {:.1} ops/s  {:.2} Gbps  makespan {:.1} ms",
            self.throughput_ops_per_s,
            self.throughput_gbps,
            self.makespan_us / 1000.0
        );
        let decisions = |name: &str| self.metric_value(name).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  recovery    faulted reps {}  retries {}  fallbacks {}  failures {}",
            fmt_f64(decisions("faulted_reps")),
            fmt_f64(decisions("retries")),
            fmt_f64(decisions("fallbacks")),
            fmt_f64(decisions("failures")),
        );
        if !self.tenant_ops.is_empty() {
            let mix: Vec<String> = self
                .tenant_ops
                .iter()
                .map(|(t, n)| format!("{t} {n}"))
                .collect();
            let _ = writeln!(out, "  tenants     {}", mix.join("  "));
        }
        if self.slo.is_empty() {
            let _ = writeln!(out, "  slo         (none declared)");
        } else {
            for s in &self.slo {
                let actual = if s.actual.fract() == 0.0 {
                    fmt_f64(s.actual)
                } else {
                    format!("{:.3}", s.actual)
                };
                let _ = writeln!(
                    out,
                    "  slo {}  {}  (actual {actual})",
                    if s.passed { "PASS" } else { "FAIL" },
                    s.assertion,
                );
            }
        }
        let _ = writeln!(
            out,
            "  verdict     {}",
            if self.passed { "PASS" } else { "FAIL" }
        );
        out
    }

    /// Renders the machine-readable report. Stable key order; floats
    /// fixed to three decimals so the output is diffable and, on the sim
    /// engine, bit-identical per seed.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"scenario\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"engine\": \"{}\",", self.engine);
        let _ = writeln!(out, "  \"machine\": \"{}\",", json_escape(&self.machine));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"repetitions\": {},", self.reps.len());
        let _ = writeln!(out, "  \"ops\": {},", self.ops);
        let _ = writeln!(out, "  \"total_bytes\": {},", self.total_bytes);
        let _ = writeln!(out, "  \"latency_us\": {{");
        let _ = writeln!(out, "    \"p50\": {:.3},", self.p50_us);
        let _ = writeln!(out, "    \"p95\": {:.3},", self.p95_us);
        let _ = writeln!(out, "    \"p99\": {:.3},", self.p99_us);
        let _ = writeln!(out, "    \"mean\": {:.3},", self.mean_us);
        let _ = writeln!(out, "    \"max\": {:.3}", self.max_us);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"makespan_us\": {:.3},", self.makespan_us);
        let _ = writeln!(
            out,
            "  \"throughput_ops_per_s\": {:.3},",
            self.throughput_ops_per_s
        );
        let _ = writeln!(out, "  \"throughput_gbps\": {:.3},", self.throughput_gbps);
        let _ = writeln!(out, "  \"tenants\": {{");
        for (i, (tenant, n)) in self.tenant_ops.iter().enumerate() {
            let comma = if i + 1 == self.tenant_ops.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(out, "    \"{}\": {n}{comma}", json_escape(tenant));
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"reps\": [");
        for (i, r) in self.reps.iter().enumerate() {
            let comma = if i + 1 == self.reps.len() { "" } else { "," };
            let boxes: Vec<String> = r
                .blackboxes
                .iter()
                .map(|p| format!("\"{}\"", json_escape(p)))
                .collect();
            let _ = writeln!(
                out,
                "    {{\"faulted\": {}, \"retries\": {}, \"fallbacks\": {}, \
                 \"failures\": {}, \"makespan_us\": {:.3}, \"blackboxes\": [{}]}}{comma}",
                r.faulted,
                r.retries,
                r.fallbacks,
                r.failures,
                r.makespan_us,
                boxes.join(", ")
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"slo\": [");
        for (i, s) in self.slo.iter().enumerate() {
            let comma = if i + 1 == self.slo.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"assert\": \"{}\", \"actual\": {:.3}, \"passed\": {}}}{comma}",
                s.assertion, s.actual, s.passed
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"verified\": {},", self.verified);
        let _ = writeln!(out, "  \"passed\": {}", self.passed);
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioReport {
        let reps = vec![
            RepStats {
                faulted: false,
                retries: 0,
                fallbacks: 0,
                failures: 0,
                makespan_us: 900.0,
                blackboxes: Vec::new(),
            },
            RepStats {
                faulted: true,
                retries: 1,
                fallbacks: 2,
                failures: 0,
                makespan_us: 1100.0,
                blackboxes: Vec::new(),
            },
        ];
        let assertions = vec![
            Assertion::parse("p99_ms <= 1").unwrap(),
            Assertion::parse("fallbacks <= 3").unwrap(),
            Assertion::parse("verified == true").unwrap(),
        ];
        ScenarioReport::build(
            "unit",
            "sim",
            "ndv4:1",
            7,
            &[100.0, 220.0, 150.0, 400.0],
            1 << 20,
            vec![("search".into(), 3), ("ads".into(), 1)],
            reps,
            &assertions,
        )
    }

    #[test]
    fn json_escapes_names_from_the_scenario_file() {
        // TOML literal strings are raw: a backslash or a tab reaches the
        // report as is, and must not break its JSON.
        let mut r = sample();
        r.name = "a\\q".into();
        r.machine = "ndv4\t1".into();
        r.tenant_ops = vec![("te\"n".into(), 1)];
        let json = r.to_json();
        assert!(json.contains("\"scenario\": \"a\\\\q\","), "{json}");
        assert!(json.contains("\"machine\": \"ndv4\\t1\","), "{json}");
        assert!(json.contains("\"te\\\"n\": 1"), "{json}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = sample();
        assert_eq!(r.p50_us, 150.0);
        assert_eq!(r.p99_us, 400.0);
        assert_eq!(r.max_us, 400.0);
        assert_eq!(r.mean_us, 217.5);
    }

    #[test]
    fn metrics_cover_every_name() {
        let r = sample();
        for name in METRICS {
            assert!(r.metric_value(name).is_some(), "missing metric {name}");
        }
        assert_eq!(r.metric_value("fallbacks"), Some(2.0));
        assert_eq!(r.metric_value("recovery_decisions"), Some(3.0));
        assert_eq!(r.metric_value("faulted_reps"), Some(1.0));
        assert_eq!(r.metric_value("verified"), Some(1.0));
        assert!(r.metric_value("warp_factor").is_none());
    }

    #[test]
    fn slo_verdicts_roll_up() {
        let r = sample();
        assert!(r.slo.iter().all(|s| s.passed), "{:?}", r.slo);
        assert!(r.passed);
        let strict = vec![Assertion::parse("p99_us <= 300").unwrap()];
        let mut reps = r.reps.clone();
        reps[0].failures = 1;
        let failing = ScenarioReport::build(
            "unit",
            "sim",
            "ndv4:1",
            7,
            &[100.0, 220.0, 150.0, 400.0],
            1 << 20,
            Vec::new(),
            reps,
            &strict,
        );
        assert!(!failing.slo[0].passed);
        assert!(!failing.verified);
        assert!(!failing.passed);
    }

    #[test]
    fn renders_text_and_json() {
        let r = sample();
        let text = r.to_text();
        assert!(text.contains("slo PASS"), "{text}");
        assert!(text.contains("verdict     PASS"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"passed\": true"), "{json}");
        assert!(json.contains("\"p99\": 400.000"), "{json}");
        assert!(json.contains("\"search\": 3"), "{json}");
    }
}
