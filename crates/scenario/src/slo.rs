//! The SLO assertion grammar: `<metric> <cmp> <value>`.
//!
//! An assertion is one line of the scenario's `[slo]` section, e.g.
//! `p99_ms <= 40`, `retries <= 3` or `verified == true`. Metrics are
//! drawn from the scenario report (see [`METRICS`]); comparators are
//! `<=`, `<`, `>=`, `>`, `==`, `!=`; values are numbers, or
//! `true`/`false` for the boolean metrics (coerced to 1/0).

use std::fmt;

/// Every metric name an assertion may reference, with the report field
/// it reads. Latencies are offered in both microseconds and
/// milliseconds so budgets read naturally at either scale.
pub const METRICS: &[&str] = &[
    "p50_us",
    "p95_us",
    "p99_us",
    "mean_us",
    "max_us",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "mean_ms",
    "max_ms",
    "makespan_ms",
    "throughput_ops_per_s",
    "throughput_gbps",
    "ops",
    "faulted_reps",
    "retries",
    "fallbacks",
    "failures",
    "recovery_decisions",
    "verified",
];

/// Metrics whose values are booleans (rendered `true`/`false`).
const BOOL_METRICS: &[&str] = &["verified"];

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    fn symbol(self) -> &'static str {
        match self {
            Cmp::Le => "<=",
            Cmp::Lt => "<",
            Cmp::Ge => ">=",
            Cmp::Gt => ">",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "<=" => Some(Cmp::Le),
            "<" => Some(Cmp::Lt),
            ">=" => Some(Cmp::Ge),
            ">" => Some(Cmp::Gt),
            "==" => Some(Cmp::Eq),
            "!=" => Some(Cmp::Ne),
            _ => None,
        }
    }
}

/// One declarative pass/fail condition over a scenario report.
#[derive(Debug, Clone, PartialEq)]
pub struct Assertion {
    /// The report metric compared (a name from [`METRICS`]).
    pub metric: String,
    /// The comparator.
    pub cmp: Cmp,
    /// The right-hand side (`true`/`false` coerced to 1/0).
    pub value: f64,
}

impl Assertion {
    /// Parses `metric cmp value`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown metrics, comparators or values.
    pub fn parse(text: &str) -> Result<Self, String> {
        let words: Vec<&str> = text.split_whitespace().collect();
        let [metric, cmp, value] = words.as_slice() else {
            return Err(format!(
                "bad assertion '{text}' (want '<metric> <cmp> <value>')"
            ));
        };
        if !METRICS.contains(metric) {
            return Err(format!(
                "unknown metric '{metric}' (known: {})",
                METRICS.join(", ")
            ));
        }
        let cmp = Cmp::parse(cmp)
            .ok_or_else(|| format!("unknown comparator '{cmp}' (want <=, <, >=, >, == or !=)"))?;
        let value = match *value {
            "true" => 1.0,
            "false" => 0.0,
            v => v
                .parse()
                .map_err(|_| format!("bad assertion value '{v}'"))?,
        };
        Ok(Self {
            metric: (*metric).to_owned(),
            cmp,
            value,
        })
    }

    /// Whether `actual` satisfies the assertion.
    #[must_use]
    pub fn eval(&self, actual: f64) -> bool {
        match self.cmp {
            Cmp::Le => actual <= self.value,
            Cmp::Lt => actual < self.value,
            Cmp::Ge => actual >= self.value,
            Cmp::Gt => actual > self.value,
            Cmp::Eq => actual == self.value,
            Cmp::Ne => actual != self.value,
        }
    }
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let value = if BOOL_METRICS.contains(&self.metric.as_str()) {
            if self.value == 0.0 { "false" } else { "true" }.to_owned()
        } else {
            fmt_f64(self.value)
        };
        write!(f, "{} {} {value}", self.metric, self.cmp.symbol())
    }
}

/// Renders a float compactly and re-parseably: integers without a
/// decimal point, everything else with Rust's shortest round-trip form.
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_evaluates() {
        let a = Assertion::parse("p99_ms <= 40").unwrap();
        assert_eq!(a.metric, "p99_ms");
        assert!(a.eval(40.0));
        assert!(a.eval(12.5));
        assert!(!a.eval(40.1));
        let b = Assertion::parse("verified == true").unwrap();
        assert!(b.eval(1.0));
        assert!(!b.eval(0.0));
        let c = Assertion::parse("retries != 0").unwrap();
        assert!(c.eval(2.0));
        assert!(!c.eval(0.0));
    }

    #[test]
    fn rejects_unknown_parts() {
        assert!(Assertion::parse("p99_ms <= ").is_err());
        assert!(Assertion::parse("warp_factor <= 9").is_err());
        assert!(Assertion::parse("p99_ms ~ 9").is_err());
        assert!(Assertion::parse("p99_ms <= fast").is_err());
    }

    #[test]
    fn display_round_trips() {
        for text in ["p99_ms <= 40", "verified == true", "mean_us > 12.5"] {
            let a = Assertion::parse(text).unwrap();
            assert_eq!(a.to_string(), text);
            assert_eq!(Assertion::parse(&a.to_string()).unwrap(), a);
        }
    }
}
