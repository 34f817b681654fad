//! Deterministic fault injection for the MSCCLang reproduction.
//!
//! GC3's headline guarantee — compiled IR executes deadlock-free — is the
//! kind of claim that deserves an adversarial harness. This crate defines
//! a seed-driven [`FaultPlan`]: a reproducible set of injections (drop,
//! delay, duplicate or corrupt a FIFO delivery; stall or kill a thread
//! block; spike a simulated link's latency) that the runtime and the
//! simulator apply at well-defined hook points through a shared
//! [`FaultInjector`].
//!
//! Plans serialize to a line-based text format and parse back bit-for-bit
//! ([`FaultPlan::to_text`] / [`FaultPlan::parse`]), so any chaos-test
//! failure reproduces from its seed alone. Every fault is one-shot: it
//! fires once and is consumed, and a plan describes one incident — the
//! recovery ladder arms it for an op's first attempt only — giving
//! retries the semantics of recovering from a *transient* fault.
//!
//! The taxonomy splits into three [`FaultClass`]es, which drive the
//! runtime's recovery policy:
//!
//! * **Benign** (delay, stall, spike) — timing only; the run stays
//!   correct, just slower.
//! * **Corrupting** (duplicate, corrupt) — data is silently wrong; only
//!   output verification catches it.
//! * **Disruptive** (drop, kill) — progress stops; the run fails with a
//!   structured error carrying the originating failure.

mod inject;
mod plan;

pub use inject::{corrupt_payload, BlockAction, DeliveryAction, FaultInjector};
pub use plan::{
    FaultClass, FaultKind, FaultPlan, FaultPlanError, FaultSite, FaultSpec, FaultUniverse,
};
