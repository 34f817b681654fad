//! The declarative scenario format: a TOML subset with `[scenario]`,
//! `[traffic]`, `[faults]`, `[recovery]` and `[slo]` sections.
//!
//! The dialect is deliberately small — section headers, `key = value`
//! lines, strings, numbers, booleans and single-line arrays — so the
//! parser stays dependency-free while covering everything a scenario
//! needs. [`Scenario::to_toml`] writes the canonical form and
//! [`Scenario::parse`] reads it back exactly (the round-trip is
//! property-tested).

use std::fmt;

use crate::slo::{fmt_f64, Assertion};

/// Which execution engine runs the repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The discrete-event simulator (virtual time; reports are
    /// bit-identical per seed, across runs and `--parallel` thread
    /// counts).
    #[default]
    Sim,
    /// The threaded runtime (wall-clock service latency; recovery
    /// decisions and counts are deterministic, timings are not).
    Runtime,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Sim => "sim",
            Engine::Runtime => "runtime",
        }
    }
}

/// How collective arrivals are spaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arrival {
    /// Exponential gaps with the configured mean (a Poisson process).
    #[default]
    Poisson,
    /// Uniform gaps in `[0, 2 × mean)`.
    Uniform,
    /// A fixed gap equal to the mean.
    Fixed,
}

impl Arrival {
    fn name(self) -> &'static str {
        match self {
            Arrival::Poisson => "poisson",
            Arrival::Uniform => "uniform",
            Arrival::Fixed => "fixed",
        }
    }
}

/// The seeded traffic program: which collectives arrive, how big, how
/// often, and on behalf of whom.
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    /// Algorithm names (from `msccl_algos::registry::NAMES`), sampled
    /// uniformly per op.
    pub collectives: Vec<String>,
    /// Buffer sizes in bytes, sampled uniformly per op.
    pub sizes: Vec<u64>,
    /// Tenant labels, sampled uniformly per op (attribution only).
    pub tenants: Vec<String>,
    /// Collectives issued per repetition.
    pub ops: usize,
    /// Arrival process shape.
    pub arrival: Arrival,
    /// Mean inter-arrival gap, microseconds of virtual time.
    pub mean_gap_us: f64,
    /// Ring channel count for the ring variants.
    pub channels: usize,
    /// Chunk factor for the tree/rooted variants (`None` = default).
    pub chunks: Option<usize>,
}

impl Default for Traffic {
    fn default() -> Self {
        Self {
            collectives: Vec::new(),
            sizes: Vec::new(),
            tenants: Vec::new(),
            ops: 1,
            arrival: Arrival::default(),
            mean_gap_us: 100.0,
            channels: 1,
            chunks: None,
        }
    }
}

/// The fault environment every repetition runs inside.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEnv {
    /// Path to an explicit fault-plan file applied to every repetition
    /// (fault-plan text format, relative to the scenario file).
    pub plan_file: Option<String>,
    /// Base seed for generated plans (each faulted repetition derives
    /// its own plan seed from this and the repetition index).
    pub fault_seed: Option<u64>,
    /// Fraction of repetitions that get a generated plan (0.0–1.0).
    pub probability: f64,
    /// Rank afflicted by a persistent straggler, if any.
    pub straggler_rank: Option<usize>,
    /// Straggler slowdown factor (4.0 = the rank computes 4× slower);
    /// 1.0 disables.
    pub straggler_factor: f64,
    /// Link `(src, dst)` whose latency spikes for the whole run.
    pub spike_link: Option<(usize, usize)>,
    /// Spike latency multiplier; 1.0 disables.
    pub spike_factor: f64,
}

impl Default for FaultEnv {
    fn default() -> Self {
        Self {
            plan_file: None,
            fault_seed: None,
            probability: 0.0,
            straggler_rank: None,
            straggler_factor: 1.0,
            spike_link: None,
            spike_factor: 1.0,
        }
    }
}

/// How a repetition recovers from injected failures (the runtime's
/// ladder: retry with backoff, then fall back).
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Retry budget.
    pub retries: usize,
    /// Base backoff before a retry, milliseconds.
    pub backoff_ms: u64,
    /// Fallback algorithm name, tried once when retries are exhausted.
    pub fallback: Option<String>,
}

impl Default for Recovery {
    fn default() -> Self {
        Self {
            retries: 2,
            backoff_ms: 1,
            fallback: None,
        }
    }
}

/// A parsed scenario: topology + traffic + faults + recovery + SLOs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (reported, and useful for `scenario list`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Master seed; every sampled quantity derives from it.
    pub seed: u64,
    /// Seeded repetitions to run.
    pub repetitions: usize,
    /// Execution engine.
    pub engine: Engine,
    /// Machine spec (`ndv4[:N]`, `dgx1`, `custom:<nodes>x<gpus>[..]`).
    pub machine: String,
    /// The traffic program.
    pub traffic: Traffic,
    /// The fault environment.
    pub faults: FaultEnv,
    /// The recovery policy.
    pub recovery: Recovery,
    /// Pass/fail assertions over the aggregated report.
    pub slo: Vec<Assertion>,
}

/// A named rejection of a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The text could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The scenario parsed but is not runnable.
    Invalid(String),
    /// An engine call failed while running the scenario.
    Engine(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { line, message } => {
                write!(f, "scenario line {line}: {message}")
            }
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
            ScenarioError::Engine(m) => write!(f, "scenario execution failed: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A parsed right-hand side of a `key = value` line.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    Bool(bool),
    Array(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

fn parse_value(raw: &str) -> Result<Value, String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {raw}"))?;
        if inner.contains('"') {
            return Err(format!("embedded quote in {raw}"));
        }
        return Ok(Value::Str(inner.to_owned()));
    }
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(stripped) = raw.strip_prefix('[') {
        let inner = stripped
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array {raw}"))?;
        let mut items = Vec::new();
        if !inner.trim().is_empty() {
            // Split on commas outside quotes; strings never embed
            // quotes, so a simple in-quote flag suffices.
            let mut depth_quote = false;
            let mut start = 0usize;
            let bytes = inner.as_bytes();
            for (i, &b) in bytes.iter().enumerate() {
                match b {
                    b'"' => depth_quote = !depth_quote,
                    b',' if !depth_quote => {
                        items.push(parse_value(&inner[start..i])?);
                        start = i + 1;
                    }
                    _ => {}
                }
            }
            items.push(parse_value(&inner[start..])?);
        }
        return Ok(Value::Array(items));
    }
    raw.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("bad value '{raw}'"))
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_quote = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_quote = !in_quote,
            b'#' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

/// One `key = value` with its source line, grouped by section.
struct Entry {
    key: String,
    value: Value,
    line: usize,
}

fn parse_document(text: &str) -> Result<Vec<(String, Vec<Entry>)>, ScenarioError> {
    let mut sections: Vec<(String, Vec<Entry>)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ScenarioError::Parse {
            line: idx + 1,
            message,
        };
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| err(format!("bad section header '{line}'")))?
                .trim();
            sections.push((name.to_owned(), Vec::new()));
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(format!("expected 'key = value', got '{line}'")))?;
        let entry = Entry {
            key: key.trim().to_owned(),
            value: parse_value(value).map_err(err)?,
            line: idx + 1,
        };
        let Some(section) = sections.last_mut() else {
            return Err(ScenarioError::Parse {
                line: idx + 1,
                message: format!("'{}' appears before any [section]", entry.key),
            });
        };
        section.1.push(entry);
    }
    Ok(sections)
}

fn want_str(e: &Entry) -> Result<String, ScenarioError> {
    match &e.value {
        Value::Str(s) => Ok(s.clone()),
        other => Err(ScenarioError::Parse {
            line: e.line,
            message: format!("'{}' wants a string, got {}", e.key, other.type_name()),
        }),
    }
}

fn want_num(e: &Entry) -> Result<f64, ScenarioError> {
    match e.value {
        Value::Num(n) => Ok(n),
        ref other => Err(ScenarioError::Parse {
            line: e.line,
            message: format!("'{}' wants a number, got {}", e.key, other.type_name()),
        }),
    }
}

fn want_uint(e: &Entry) -> Result<u64, ScenarioError> {
    let n = want_num(e)?;
    if n < 0.0 || n.fract() != 0.0 || n > 1.8e19 {
        return Err(ScenarioError::Parse {
            line: e.line,
            message: format!("'{}' wants a non-negative integer, got {n}", e.key),
        });
    }
    Ok(n as u64)
}

fn want_str_array(e: &Entry) -> Result<Vec<String>, ScenarioError> {
    let Value::Array(items) = &e.value else {
        return Err(ScenarioError::Parse {
            line: e.line,
            message: format!("'{}' wants an array, got {}", e.key, e.value.type_name()),
        });
    };
    items
        .iter()
        .map(|v| match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(ScenarioError::Parse {
                line: e.line,
                message: format!(
                    "'{}' wants an array of strings, found a {}",
                    e.key,
                    other.type_name()
                ),
            }),
        })
        .collect()
}

/// Parses a size entry: a `"64KB"`-style string or a raw byte count.
fn want_size(e: &Entry, item: &Value) -> Result<u64, ScenarioError> {
    match item {
        Value::Str(s) => msccl_topology::parse_size(s).map_err(|m| ScenarioError::Parse {
            line: e.line,
            message: m,
        }),
        Value::Num(n) if *n >= 1.0 && n.fract() == 0.0 => Ok(*n as u64),
        other => Err(ScenarioError::Parse {
            line: e.line,
            message: format!(
                "'{}' wants sizes like \"64KB\" or byte counts, found a {}",
                e.key,
                other.type_name()
            ),
        }),
    }
}

impl Scenario {
    /// Parses the scenario text format.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] naming the first offending line,
    /// or [`ScenarioError::Invalid`] for structural problems.
    #[allow(clippy::too_many_lines)]
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut sc = Scenario {
            name: String::new(),
            description: String::new(),
            seed: 0,
            repetitions: 1,
            engine: Engine::default(),
            machine: String::new(),
            traffic: Traffic::default(),
            faults: FaultEnv::default(),
            recovery: Recovery::default(),
            slo: Vec::new(),
        };
        let mut spike_src_dst: Option<String> = None;
        for (section, entries) in parse_document(text)? {
            for e in &entries {
                let bad_key = || ScenarioError::Parse {
                    line: e.line,
                    message: format!("unknown key '{}' in [{section}]", e.key),
                };
                match (section.as_str(), e.key.as_str()) {
                    ("scenario", "name") => sc.name = want_str(e)?,
                    ("scenario", "description") => sc.description = want_str(e)?,
                    ("scenario", "seed") => sc.seed = want_uint(e)?,
                    ("scenario", "repetitions") => sc.repetitions = want_uint(e)? as usize,
                    ("scenario", "engine") => {
                        sc.engine = match want_str(e)?.as_str() {
                            "sim" => Engine::Sim,
                            "runtime" => Engine::Runtime,
                            other => {
                                return Err(ScenarioError::Parse {
                                    line: e.line,
                                    message: format!(
                                        "unknown engine '{other}' (want sim or runtime)"
                                    ),
                                })
                            }
                        }
                    }
                    ("scenario", "machine") => sc.machine = want_str(e)?,
                    ("traffic", "collectives") => sc.traffic.collectives = want_str_array(e)?,
                    ("traffic", "sizes") => {
                        let Value::Array(items) = &e.value else {
                            return Err(ScenarioError::Parse {
                                line: e.line,
                                message: "'sizes' wants an array".to_owned(),
                            });
                        };
                        sc.traffic.sizes = items
                            .iter()
                            .map(|v| want_size(e, v))
                            .collect::<Result<_, _>>()?;
                    }
                    ("traffic", "tenants") => sc.traffic.tenants = want_str_array(e)?,
                    ("traffic", "ops") => sc.traffic.ops = want_uint(e)? as usize,
                    ("traffic", "arrival") => {
                        sc.traffic.arrival = match want_str(e)?.as_str() {
                            "poisson" => Arrival::Poisson,
                            "uniform" => Arrival::Uniform,
                            "fixed" => Arrival::Fixed,
                            other => {
                                return Err(ScenarioError::Parse {
                                    line: e.line,
                                    message: format!(
                                        "unknown arrival '{other}' (want poisson, uniform or fixed)"
                                    ),
                                })
                            }
                        }
                    }
                    ("traffic", "mean_gap_us") => sc.traffic.mean_gap_us = want_num(e)?,
                    ("traffic", "channels") => sc.traffic.channels = want_uint(e)? as usize,
                    ("traffic", "chunks") => sc.traffic.chunks = Some(want_uint(e)? as usize),
                    ("faults", "plan_file") => sc.faults.plan_file = Some(want_str(e)?),
                    ("faults", "fault_seed") => sc.faults.fault_seed = Some(want_uint(e)?),
                    ("faults", "probability") => sc.faults.probability = want_num(e)?,
                    ("faults", "straggler_rank") => {
                        sc.faults.straggler_rank = Some(want_uint(e)? as usize);
                    }
                    ("faults", "straggler_factor") => sc.faults.straggler_factor = want_num(e)?,
                    ("faults", "spike_link") => spike_src_dst = Some(want_str(e)?),
                    ("faults", "spike_factor") => sc.faults.spike_factor = want_num(e)?,
                    ("recovery", "retries") => sc.recovery.retries = want_uint(e)? as usize,
                    ("recovery", "backoff_ms") => sc.recovery.backoff_ms = want_uint(e)?,
                    ("recovery", "fallback") => sc.recovery.fallback = Some(want_str(e)?),
                    ("slo", "assert") => {
                        for text in want_str_array(e)? {
                            sc.slo.push(Assertion::parse(&text).map_err(|m| {
                                ScenarioError::Parse {
                                    line: e.line,
                                    message: m,
                                }
                            })?);
                        }
                    }
                    ("scenario" | "traffic" | "faults" | "recovery" | "slo", _) => {
                        return Err(bad_key())
                    }
                    (other, _) => {
                        return Err(ScenarioError::Parse {
                            line: e.line,
                            message: format!("unknown section [{other}]"),
                        })
                    }
                }
            }
        }
        if let Some(pair) = spike_src_dst {
            let (src, dst) = pair
                .split_once("->")
                .ok_or_else(|| ScenarioError::Invalid(format!("bad spike_link '{pair}'")))?;
            let parse = |s: &str| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| ScenarioError::Invalid(format!("bad spike_link '{pair}'")))
            };
            sc.faults.spike_link = Some((parse(src)?, parse(dst)?));
        }
        sc.validate_shape()?;
        Ok(sc)
    }

    /// Structural checks that need no compilation: names present,
    /// traffic non-empty, factors sane.
    fn validate_shape(&self) -> Result<(), ScenarioError> {
        let bad = |m: String| Err(ScenarioError::Invalid(m));
        if self.name.is_empty() {
            return bad("[scenario] name is required".into());
        }
        if self.machine.is_empty() {
            return bad("[scenario] machine is required".into());
        }
        if self.repetitions == 0 {
            return bad("repetitions must be at least 1".into());
        }
        if self.traffic.collectives.is_empty() {
            return bad("[traffic] collectives must name at least one algorithm".into());
        }
        if self.traffic.sizes.is_empty() {
            return bad("[traffic] sizes must list at least one size".into());
        }
        if self.traffic.ops == 0 {
            return bad("[traffic] ops must be at least 1".into());
        }
        if self.traffic.mean_gap_us.is_nan() || self.traffic.mean_gap_us < 0.0 {
            return bad("mean_gap_us must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.faults.probability) {
            return bad("probability must be within 0.0..=1.0".into());
        }
        if self.faults.probability > 0.0 && self.faults.fault_seed.is_none() {
            return bad("probability needs fault_seed to derive plans from".into());
        }
        if self.faults.straggler_factor.is_nan() || self.faults.straggler_factor < 1.0 {
            return bad("straggler_factor must be >= 1.0".into());
        }
        if self.faults.spike_factor.is_nan() || self.faults.spike_factor < 1.0 {
            return bad("spike_factor must be >= 1.0".into());
        }
        if self.faults.straggler_rank.is_some() && self.faults.straggler_factor == 1.0 {
            return bad("straggler_rank needs straggler_factor > 1.0".into());
        }
        if self.faults.spike_link.is_some() && self.faults.spike_factor == 1.0 {
            return bad("spike_link needs spike_factor > 1.0".into());
        }
        Ok(())
    }

    /// Renders the canonical scenario text; `parse` reads it back to an
    /// equal value.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = \"{}\"", self.name);
        if !self.description.is_empty() {
            let _ = writeln!(out, "description = \"{}\"", self.description);
        }
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "repetitions = {}", self.repetitions);
        let _ = writeln!(out, "engine = \"{}\"", self.engine.name());
        let _ = writeln!(out, "machine = \"{}\"", self.machine);
        let _ = writeln!(out, "\n[traffic]");
        let quoted: Vec<String> = self
            .traffic
            .collectives
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect();
        let _ = writeln!(out, "collectives = [{}]", quoted.join(", "));
        let sizes: Vec<String> = self
            .traffic
            .sizes
            .iter()
            .map(|&s| format!("\"{}\"", msccl_topology::format_size(s)))
            .collect();
        let _ = writeln!(out, "sizes = [{}]", sizes.join(", "));
        if !self.traffic.tenants.is_empty() {
            let tenants: Vec<String> = self
                .traffic
                .tenants
                .iter()
                .map(|t| format!("\"{t}\""))
                .collect();
            let _ = writeln!(out, "tenants = [{}]", tenants.join(", "));
        }
        let _ = writeln!(out, "ops = {}", self.traffic.ops);
        let _ = writeln!(out, "arrival = \"{}\"", self.traffic.arrival.name());
        let _ = writeln!(out, "mean_gap_us = {}", fmt_f64(self.traffic.mean_gap_us));
        if self.traffic.channels != 1 {
            let _ = writeln!(out, "channels = {}", self.traffic.channels);
        }
        if let Some(chunks) = self.traffic.chunks {
            let _ = writeln!(out, "chunks = {chunks}");
        }
        let f = &self.faults;
        if *f != FaultEnv::default() {
            let _ = writeln!(out, "\n[faults]");
            if let Some(p) = &f.plan_file {
                let _ = writeln!(out, "plan_file = \"{p}\"");
            }
            if let Some(s) = f.fault_seed {
                let _ = writeln!(out, "fault_seed = {s}");
            }
            if f.probability != 0.0 {
                let _ = writeln!(out, "probability = {}", fmt_f64(f.probability));
            }
            if let Some(r) = f.straggler_rank {
                let _ = writeln!(out, "straggler_rank = {r}");
                let _ = writeln!(out, "straggler_factor = {}", fmt_f64(f.straggler_factor));
            }
            if let Some((src, dst)) = f.spike_link {
                let _ = writeln!(out, "spike_link = \"{src}->{dst}\"");
                let _ = writeln!(out, "spike_factor = {}", fmt_f64(f.spike_factor));
            }
        }
        let r = &self.recovery;
        if *r != Recovery::default() {
            let _ = writeln!(out, "\n[recovery]");
            let _ = writeln!(out, "retries = {}", r.retries);
            let _ = writeln!(out, "backoff_ms = {}", r.backoff_ms);
            if let Some(fb) = &r.fallback {
                let _ = writeln!(out, "fallback = \"{fb}\"");
            }
        }
        if !self.slo.is_empty() {
            let _ = writeln!(out, "\n[slo]");
            let asserts: Vec<String> = self.slo.iter().map(|a| format!("\"{a}\"")).collect();
            let _ = writeln!(out, "assert = [{}]", asserts.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# A storm of small allreduces with one chronic straggler.
[scenario]
name = "example"
description = "doc example"
seed = 42
repetitions = 4
engine = "sim"
machine = "ndv4:1"

[traffic]
collectives = ["allpairs-allreduce", "ring-allreduce"]
sizes = ["32KB", 65536]
tenants = ["search", "ads"]
ops = 6
arrival = "poisson"
mean_gap_us = 50

[faults]
fault_seed = 7
probability = 0.5
straggler_rank = 1
straggler_factor = 4

[recovery]
retries = 2
backoff_ms = 1

[slo]
assert = ["p99_ms <= 40", "verified == true"]
"#;

    #[test]
    fn example_parses() {
        let sc = Scenario::parse(EXAMPLE).unwrap();
        assert_eq!(sc.name, "example");
        assert_eq!(sc.traffic.sizes, vec![32 << 10, 64 << 10]);
        assert_eq!(sc.traffic.collectives.len(), 2);
        assert_eq!(sc.faults.straggler_rank, Some(1));
        assert_eq!(sc.slo.len(), 2);
    }

    #[test]
    fn canonical_form_round_trips() {
        let sc = Scenario::parse(EXAMPLE).unwrap();
        let rendered = sc.to_toml();
        let back = Scenario::parse(&rendered).unwrap();
        assert_eq!(back, sc);
        assert_eq!(back.to_toml(), rendered);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Scenario::parse("[scenario]\nname garbage\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { line: 2, .. }), "{err}");
        let err = Scenario::parse("[scenario]\nwarp = 9\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { line: 2, .. }), "{err}");
        let err = Scenario::parse("name = \"x\"\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn structural_validation_fires() {
        // No traffic at all.
        let err = Scenario::parse("[scenario]\nname = \"x\"\nmachine = \"ndv4:1\"\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
        // Probability without a fault seed.
        let text = EXAMPLE.replace("fault_seed = 7\n", "");
        let err = Scenario::parse(&text).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Invalid(m) if m.contains("fault_seed")),
            "{err}"
        );
    }

    #[test]
    fn comments_and_quotes_interact() {
        let sc = Scenario::parse(
            "[scenario]\nname = \"a # not a comment\" # a real one\nmachine = \"dgx1\"\n\
             [traffic]\ncollectives = [\"hcm-allgather\"]\nsizes = [1024]\nops = 1\n",
        )
        .unwrap();
        assert_eq!(sc.name, "a # not a comment");
    }
}
