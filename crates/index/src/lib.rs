//! # xvi-index — generic and updatable XML value indices
//!
//! The paper's core contribution, assembled from the substrates:
//!
//! * [`IndexManager`] — owns all value indices over one document:
//!   * the **string equi-lookup index** — every text, element and
//!     attribute node's string-value hash (`xvi-hash`) in a B+tree,
//!   * one **typed range-lookup index** per configured [`XmlType`] —
//!     FSM states for non-rejected nodes plus a clustered B+tree on
//!     the typed values of *complete* nodes (`xvi-fsm`, `xvi-btree`).
//! * [`create`] — the single-pass creation algorithm (paper Figure 7):
//!   one depth-first traversal annotates every node and fills all
//!   configured indices simultaneously.
//! * index maintenance (paper Figure 8) — value updates, subtree
//!   deletion and subtree insertion re-derive only the annotations of
//!   the updated nodes' ancestors, combining the *stored* hashes and
//!   states of their immediate children instead of re-reading any
//!   character data.
//! * [`txn`] — the commutative deferred-maintenance commit protocol of
//!   §5.1, possible because the hash combination function `C` is
//!   associative and updates commute.
//! * [`service`] — the sharded, multi-document [`IndexService`]: the
//!   §5.1 argument scaled out to many documents, with a group-commit
//!   pipeline (non-blocking [`IndexService::submit`] returning a
//!   [`CommitTicket`]) coalescing concurrent write batches and
//!   lock-free snapshot reads.
//! * [`lookup`] — the unified query surface: one typed [`Lookup`]
//!   request covers equality, range, typed, substring, wildcard and
//!   XPath lookups, evaluated by a single generic `query` entry point
//!   at every layer.
//! * [`query`] — a mini-XPath evaluator demonstrating how the indices
//!   accelerate the paper's motivating queries, with a full-scan
//!   fallback as the baseline and an [`Explanation`] rendering of the
//!   chosen plan.
//!
//! Indices cover the **whole document** — no path or type
//! configuration is required (the paper's "self-tuning" property) —
//! and respect XQuery mixed-content semantics: `<age><decades>4</decades>2<years/></age>`
//! is found both by an equality lookup for `"42"` and by a numeric
//! range scan containing 42.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod create;
mod error;
pub mod lookup;
mod manager;
mod persist;
pub mod query;
pub mod service;
pub mod stats;
mod string_index;
pub mod substring;
pub mod txn;
mod typed_index;
mod util;
mod wal;

pub use config::IndexConfig;
pub use error::IndexError;
pub use lookup::{Bounds, Lookup, QueryResult};
pub use manager::{IndexManager, IndexStats};
pub use query::{Explanation, Plan, PredicateReport, Probe, Query, QueryEngine};
pub use service::{
    CommitReceipt, CommitTicket, DocId, DocSnapshot, Durability, IndexService, ServiceConfig,
    ServiceSnapshot,
};
pub use stats::{CardinalityEstimate, QGramTable};
pub use string_index::StringIndex;
pub use substring::SubstringIndex;
pub use txn::Transaction;
pub use typed_index::TypedIndex;
pub use util::OrdF64;

// Re-exports so downstream users need only this crate.
pub use xvi_fsm::{StateId, TypedValue, XmlType};
pub use xvi_hash::HashValue;
pub use xvi_obs::{Obs, Stage, Trace};
pub use xvi_xml::{Document, NodeId};
