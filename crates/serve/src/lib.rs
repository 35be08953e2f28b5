//! # xvi-serve — a serving frontend for the index service
//!
//! The paper's service layer ([`xvi_index::IndexService`]) gives the
//! engine-side contract: group-committed writes and lock-free snapshot
//! reads, both synchronous. This crate adds the *operational* layer a
//! deployment needs in front of it, on plain threads:
//!
//! * **Worker threads** ([`Server`]) — a fixed pool, each worker
//!   picking the next request itself and running it to completion: a
//!   query probes a snapshot, a commit submits to its shard's bounded
//!   queue and waits for the group-commit round, sleeping out the
//!   shard's backoff hint when the queue is full.
//! * **Admission control** — bounded per-tenant queues that reject
//!   with a typed [`ServeError::Overloaded`] carrying a suggested
//!   backoff, composed with [`xvi_index::IndexService::try_submit`]'s
//!   bounded shard queues underneath. An open-loop client learns about
//!   overload at the edge instead of through unbounded queueing delay.
//! * **Per-tenant fairness** — deficit-round-robin dispatch across
//!   tenant queues ([`Server`]), so one tenant offering 10× the load
//!   cannot starve the others: a cold tenant's tail latency stays
//!   within a constant factor of running alone.
//! * **Latency observability** — a lock-free log-bucketed
//!   [`LatencyHistogram`] (≤ 12.5% relative quantisation error)
//!   recording end-to-end latency per request, reported as
//!   p50/p90/p99/p999 through [`ServerStats`].
//! * **Streaming exports** ([`ExportSpec`]) — config-driven CSV /
//!   JSON / JSONL row streams evaluated against a pinned
//!   [`xvi_index::ServiceSnapshot`], constant-memory via any
//!   [`std::io::Write`].
//!
//! ```
//! use std::sync::Arc;
//! use xvi_index::{IndexService, Lookup, ServiceConfig};
//! use xvi_serve::{Request, Response, Server, ServerConfig};
//! use xvi_xml::Document;
//!
//! let service = Arc::new(IndexService::new(ServiceConfig::default()));
//! service.insert_document(
//!     "d1",
//!     Document::parse("<person><name>Arthur</name></person>").unwrap(),
//! );
//! let server = Server::new(service, ServerConfig::default());
//!
//! let mut txn = server.service().begin();
//! let doc = server.service().snapshot("d1").unwrap();
//! // equi() matches every node whose string value is "Arthur" (the
//! // whole ancestor chain here); updates target the text node.
//! let node = doc
//!     .query(&Lookup::equi("Arthur"))
//!     .unwrap()
//!     .into_iter()
//!     .find(|&n| doc.document().kind(n).has_direct_value())
//!     .unwrap();
//! txn.set_value(node, "Zaphod");
//! let ticket = server
//!     .submit("tenant-a", Request::Commit { doc: "d1".into(), txn })
//!     .unwrap();
//! assert!(matches!(ticket.wait(), Ok(Response::Commit(_))));
//!
//! let ticket = server
//!     .submit(
//!         "tenant-a",
//!         Request::Query { doc: "d1".into(), lookup: Lookup::equi("Zaphod") },
//!     )
//!     .unwrap();
//! let Ok(Response::Query(hits)) = ticket.wait() else { panic!() };
//! assert!(!hits.is_empty());
//! assert!(server.stats().latency.count() >= 2);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod server;

// The clock and latency histogram started life in this crate and now
// live in `xvi-obs` so every layer can share them; re-exported here so
// existing `xvi_serve::{clock, histogram}` paths keep working.
pub use xvi_obs::{clock, histogram};

pub use export::{Column, ExportFormat, ExportParseError, ExportSpec};
pub use server::{
    Request, Response, ResponseTicket, ServeError, Server, ServerConfig, ServerStats,
};
pub use xvi_obs::{Clock, HistogramSnapshot, LatencyHistogram, ManualClock, MonotonicClock};
