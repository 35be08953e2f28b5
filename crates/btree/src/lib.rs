//! # xvi-btree — the B+tree substrate
//!
//! The paper builds a "(B-tree) index … on the hash values" for the
//! string equi-index and "a clustered (b-tree) index … on top of the
//! typed values" for the range index (§3, §4). This crate provides that
//! substrate: an in-memory, arena-allocated B+tree with
//!
//! * ordered unique keys with replace-on-insert semantics,
//! * `O(log n)` point lookups, inserts and deletes with node
//!   split/borrow/merge rebalancing,
//! * linked leaves for cheap in-order [`BPlusTree::range`] scans — the
//!   operation the range index exists for,
//! * occupancy/size statistics used by the Figure 9 storage accounting,
//! * page-level **copy-on-write structural sharing** ([`PagedVec`]):
//!   cloning a tree is O(pages) pointer bumps and mutating the clone
//!   copies only the touched pages — the substrate that makes the
//!   index service's snapshot publishes proportional to the touched
//!   set instead of the document size,
//! * **monoid summaries in interior nodes** ([`Summary`]): every
//!   interior node stores, per child, the exact entry count and
//!   min/max key of that child's subtree, maintained through every
//!   mutation path. This buys exact [`BPlusTree::count_range`]
//!   cardinalities in O(log n) node visits. Keys need only `Ord +
//!   Clone`; no key is hashed.
//!
//! Duplicate logical keys (e.g. many nodes sharing one hash value) are
//! handled the way databases usually do it: with composite keys such as
//! `(hash, node_id)` and prefix range scans; see `xvi-index`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulk;
mod cache;
mod iter;
mod node;
mod page;
mod summary;
mod tree;

pub use iter::Range;
pub use page::{ColVec, PagedVec, StagedPages, PAGE_SIZE};
pub use summary::Summary;
pub use tree::{BPlusTree, TreeStats, DEFAULT_ORDER};
