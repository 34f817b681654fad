//! Collective-as-a-service: the long-running daemon behind
//! `msccl serve`.
//!
//! Every CLI invocation recompiles and re-plans; a serving fleet wants
//! neither. This crate composes the repo's robustness layers — the
//! recovery ladder, the metrics registry's Prometheus exposition, the
//! flight-recorder black box — into a process that stays up under
//! load and degrades *structurally* instead of falling over:
//!
//! * **Compile cache** ([`cache`]): MSCCL-IR keyed by `(collective,
//!   ranks, size-class, topology, protocol)` with LRU
//!   eviction; GC3's compiled-program model makes the key sound.
//! * **Admission control** ([`core`]): per-tenant token buckets,
//!   bounded per-tenant queues of callers granted execution slots by
//!   deficit round-robin; every rejection is a structured shed (reason
//!   and retry-after hint), never a dropped connection.
//! * **Deadline propagation**: the request deadline (queue wait
//!   included) becomes the recovery ladder's whole-budget, so a slow
//!   request fails fast instead of holding an execution slot; failures
//!   leave black-box dumps when a dump directory is configured.
//! * **Graceful drain** ([`http`], [`signal`]): SIGTERM or
//!   `POST /shutdown` stops admission, finishes every in-flight
//!   request, and exits 0.
//!
//! Endpoints: `GET /collective` (also POST), `GET /healthz`,
//! `GET /metrics` (Prometheus text), `GET /stats` (JSON counters),
//! `POST /shutdown`.
//!
//! # Example
//!
//! ```
//! use msccl_service::{start, CollectiveRequest, Reply, ServiceConfig};
//!
//! let handle = start(ServiceConfig {
//!     exec_workers: 1,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//! let reply = handle.core().call(CollectiveRequest::default());
//! assert!(matches!(reply, Reply::Ok(_)));
//! let stats = handle.shutdown();
//! assert_eq!(stats.served, 1);
//! ```

pub mod cache;
pub mod core;
pub mod http;
pub mod signal;

pub use cache::{size_class, CacheKey, CacheStats, IrCache};
pub use core::{
    json_escape, output_checksum, CollectiveRequest, FailReply, OkReply, Reply, ServiceConfig,
    ServiceCore, ServiceStats, ShedReason, ShedReply, TenantStats, MAX_CHUNK_ELEMS,
};
pub use http::{start, ServiceHandle};
pub use tenant::{TenantSpec, TokenBucket};

pub mod tenant;
