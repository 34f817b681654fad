//! Declarative robustness scenarios for the MSCCLang reproduction:
//! seeded workload storms with stragglers, faults and SLO assertions.
//!
//! A scenario is a small TOML file composing four ingredients:
//!
//! * a **topology** (`machine = "ndv4:2"`),
//! * a **traffic program** — a seeded arrival process of collectives
//!   with mixed algorithms, sizes and tenants ([`format::Traffic`]),
//! * a **fault environment** — explicit or seeded-random fault plans,
//!   persistent stragglers and link spikes ([`format::FaultEnv`]), and
//! * a **recovery policy** — retries, backoff, fallback
//!   ([`format::Recovery`]),
//!
//! plus declarative **SLO assertions** (`p99_ms <= 40`,
//! `retries <= 3`, `verified == true`) evaluated over the aggregated
//! report. The runner executes N seeded repetitions through the
//! discrete-event simulator (serial or parallel backend — bit-identical
//! either way) or the threaded runtime, and [`ScenarioReport`] carries
//! latency percentiles, throughput, recovery-decision counts and the
//! SLO verdicts. See `docs/scenarios.md` for the format reference and
//! `scenarios/` for checked-in examples.

pub mod format;
pub mod report;
pub mod runner;
pub mod service;
pub mod slo;

pub use format::{Arrival, Engine, FaultEnv, Recovery, Scenario, ScenarioError, Traffic};
pub use report::{RepStats, ScenarioReport, SloResult};
pub use runner::{check_scenario, run_scenario, RunConfig, SimEngine, SimFailure};
pub use service::{drive_scenario, DriveConfig, DriveReport, TenantDrive};
pub use slo::{Assertion, Cmp, METRICS};
