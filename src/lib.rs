//! # xvi — Generic and Updatable XML Value Indices
//!
//! A from-scratch Rust reproduction of *"Generic and updatable XML value
//! indices covering equality and range lookups"* (Sidirourgos & Boncz,
//! EDBT 2009 / CWI INS-E0802).
//!
//! The crate is a facade over the workspace members:
//!
//! * [`hash`] — the circular-XOR string hash `H` and its associative
//!   combination function `C` (paper Figures 2–4).
//! * [`fsm`] — lexical finite state machines for XML typed values, the
//!   transition-monoid normalisation and state combination tables (SCT,
//!   paper Figures 5–6).
//! * [`xml`] — the XML substrate: a hand-written parser and an updatable
//!   document store with MonetDB/XQuery-style pre/size/level range
//!   encoding and the DFS cursor interface the paper's algorithms assume.
//! * [`btree`] — the B+tree substrate used by both index families.
//! * [`obs`] — the observability substrate: a lock-free metrics
//!   registry with Prometheus/JSON export, sampled request tracing
//!   with a slowest-requests flight recorder, and the shared latency
//!   histogram and clock primitives.
//! * [`index`] — the index manager: one-pass creation (paper Figure 7),
//!   ancestor-only updates (Figure 8), equi/range lookups, the
//!   commutative transaction layer (§5.1) and a mini-XPath evaluator.
//! * [`datagen`] — XMark-shaped and "real-life-alike" document
//!   generators plus update workloads used by the experiment harness.
//! * [`serve`] — the serving frontend: plain worker threads that pick
//!   requests by deficit-round-robin tenant fairness and wait commits
//!   out, bounded admission queues with typed overload rejection,
//!   log-bucketed latency percentiles and config-driven streaming
//!   CSV/JSON/JSONL exports.
//!
//! ## Quickstart
//!
//! ```
//! use xvi::prelude::*;
//!
//! let doc = Document::parse(
//!     "<person><name><first>Arthur</first><family>Dent</family></name>\
//!      <age><decades>4</decades>2<years/></age></person>").unwrap();
//! let idx = IndexManager::build(&doc, IndexConfig::default());
//!
//! // Equality lookup on string values (any node, any path).
//! let hits = idx.query(&doc, &Lookup::equi("ArthurDent")).unwrap();
//! assert!(hits.iter().any(|&n| doc.name(n) == Some("name")));
//!
//! // Range lookup on typed (double) values — the mixed-content <age>
//! // node concatenates to "42" and is found by a numeric range scan.
//! let hits = idx.query(&doc, &Lookup::range_f64(40.0..=50.0)).unwrap();
//! assert!(hits.iter().any(|&n| doc.name(n) == Some("age")));
//! ```

pub use xvi_btree as btree;
pub use xvi_datagen as datagen;
pub use xvi_fsm as fsm;
pub use xvi_hash as hash;
pub use xvi_index as index;
pub use xvi_obs as obs;
pub use xvi_serve as serve;
pub use xvi_xml as xml;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use xvi_fsm::{Sct, TypedValue, XmlType};
    pub use xvi_hash::{combine, hash_str, HashValue};
    pub use xvi_index::{
        Bounds, CardinalityEstimate, CommitReceipt, CommitTicket, DocSnapshot, Durability,
        IndexConfig, IndexManager, IndexService, Lookup, Plan, QueryEngine, ServiceConfig,
        ServiceSnapshot,
    };
    pub use xvi_obs::{Obs, Stage, Trace};
    pub use xvi_serve::{
        ExportSpec, LatencyHistogram, Request, Response, ResponseTicket, ServeError, Server,
        ServerConfig, ServerStats,
    };
    pub use xvi_xml::{Document, NodeId, NodeKind};
}
