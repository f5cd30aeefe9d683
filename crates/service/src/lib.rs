//! Concurrent admission-control scheduling daemon for the data-staging
//! heuristics (ICDCS 2000 reproduction).
//!
//! Turns the offline schedulers of `dstage-core` into a long-running
//! service: a TCP daemon speaking newline-delimited JSON that admits or
//! rejects data requests one at a time, reserving network capacity for
//! admitted paths in a live ledger, and repairing that ledger when
//! disturbances are injected. The moving parts:
//!
//! * [`engine::AdmissionEngine`] — deterministic admission +
//!   fault-tolerance state (catalog, admitted requests, committed
//!   reservations, injected disturbances, repair outcomes);
//! * [`protocol`] — the nine-verb NDJSON wire protocol (`submit`,
//!   `query`, `inject`, `optimize`, `snapshot`, `metrics`, `trace`,
//!   `checkpoint`, `shutdown`), with idempotent retries via
//!   `idempotency_key` on `submit`;
//! * [`server::Server`] — accept loop + crossbeam worker pool sharing
//!   the engine behind a `parking_lot::RwLock`; every mutating verb
//!   takes a FIFO turn for the write lock, so decisions are made in
//!   arrival order, one at a time, against live state; request lines
//!   are bounded at [`server::MAX_LINE_BYTES`];
//! * [`wal`] — the checksummed, length-prefixed write-ahead log with
//!   configurable fsync policies and deterministic crash points;
//! * [`durability::Durability`] — WAL staging + group commit,
//!   atomic checkpoints with log compaction, and crash recovery
//!   (`stage-serve --data-dir`);
//! * [`retry::Backoff`] — bounded, seeded exponential backoff shared by
//!   the client binaries.
//!
//! Binaries: `stage-serve` (the daemon), `stage-submit` (one-shot
//! client with timeouts, retries, and fault injection), `stage-loadgen`
//! (concurrent replay of a generated workload with reconnect-and-resume
//! clients and an optional deterministic chaos proxy, `--chaos SEED`).
//!
//! # Examples
//!
//! Drive the engine directly, without sockets:
//!
//! ```
//! use dstage_core::heuristic::{Heuristic, HeuristicConfig};
//! use dstage_service::engine::AdmissionEngine;
//! use dstage_service::protocol::{InjectArgs, InjectKind, SubmitArgs};
//! use dstage_workload::small::two_hop_chain;
//!
//! let mut engine = AdmissionEngine::new(
//!     &two_hop_chain(),
//!     Heuristic::FullPathOneDestination,
//!     HeuristicConfig::paper_best(),
//! );
//! let decision = engine
//!     .submit(&SubmitArgs {
//!         item: "alpha".to_string(),
//!         destination: 2,
//!         deadline_ms: 7_200_000,
//!         priority: 2,
//!         idempotency_key: None,
//!     })
//!     .expect("no idempotency conflict");
//! assert_eq!(decision.decision, "admitted");
//!
//! // Losing the only first-hop link displaces the request; with no
//! // surviving route it is evicted and `query` says so.
//! let outcome = engine
//!     .inject(&InjectArgs { kind: InjectKind::LinkOutage { link: 0 }, at_ms: 1_000 })
//!     .expect("link 0 exists");
//! assert_eq!(outcome.displaced, 1);
//! assert_eq!(engine.query(0).unwrap().status, "evicted");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
pub mod engine;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod wal;

/// Convenience re-exports of the service vocabulary.
pub mod prelude {
    pub use crate::durability::{CheckpointStats, Durability, RecoveryReport};
    pub use crate::engine::{
        record_from_value, record_value, AdmissionCounters, AdmissionEngine, Decision,
        InjectionRecord, LogRecord, RequestStatus, SubmissionRecord,
    };
    pub use crate::protocol::{
        CheckpointResponse, ClientRequest, ErrorResponse, InjectArgs, InjectKind, InjectResponse,
        QueryResponse, SubmitArgs, SubmitResponse,
    };
    pub use crate::retry::Backoff;
    pub use crate::server::{Server, ServerConfig, MAX_LINE_BYTES};
    pub use crate::wal::{crc32, scan_segment, FsyncPolicy, SegmentWriter};
}
