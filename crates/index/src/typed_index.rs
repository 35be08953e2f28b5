//! The typed range-lookup index (paper §4).
//!
//! Follows the paper's storage design literally: tuples of the form
//! `[value, state, node id]`, realised (per the paper's footnote on
//! space/computation trade-offs) as two clustered B+trees —
//!
//! * `value_tree`: `(value, node) → ()` over nodes whose state is
//!   *complete*, serving range lookups, and
//! * `node_tree`: `node → (state, value?)`, serving index maintenance
//!   ("retrieving the state of a node id").
//!
//! Rejected nodes store **nothing** — "the absence of a state signifies
//! the reject state" — which is why the double index stays tiny on
//! text-heavy documents (Figure 9, bottom right).

use std::ops::Bound;

use xvi_btree::{BPlusTree, TreeStats};
use xvi_fsm::{analyzer, StateId, TypedAnalyzer, XmlType};
use xvi_xml::NodeId;

use crate::lookup::Bounds;
use crate::stats::CardinalityEstimate;
use crate::util::OrdF64;

/// One end-inclusive/exclusive bound pair over the composite
/// `(value, node)` key space of the value tree.
type CompositeBounds = (Bound<(OrdF64, u32)>, Bound<(OrdF64, u32)>);

/// Per-node entry in the node-keyed tree, packed to 12 bytes: the
/// paper stores "[value, state, node id]" tuples and stresses that a
/// state costs one byte; NaN (unrepresentable in the lexical space)
/// marks "no value".
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeEntry {
    pub state: StateId,
    /// The typed key; NaN iff the state is not complete.
    value_raw: f64,
}

impl NodeEntry {
    fn new(state: StateId, value: Option<OrdF64>) -> NodeEntry {
        NodeEntry {
            state,
            value_raw: value.map(|v| v.0).unwrap_or(f64::NAN),
        }
    }

    fn value(&self) -> Option<OrdF64> {
        (!self.value_raw.is_nan()).then_some(OrdF64(self.value_raw))
    }
}

/// Bulk-creation staging: the entries in the order they were set, and
/// per arena slot the 1-based position of its entry (0 for a rejected
/// or unindexed node). A slot costs 4 bytes; only stored states take
/// an entry.
#[derive(Debug, Clone, Default)]
struct Staging {
    slots: Vec<u32>,
    entries: Vec<NodeEntry>,
}

/// A range-lookup index for one XML type.
///
/// A write touches only the two trees: the value tree's interior
/// monoid summaries answer [`TypedIndex::estimate_range`] exactly, so
/// no statistics are maintained beside them.
#[derive(Debug, Clone)]
pub struct TypedIndex {
    ty: XmlType,
    value_tree: BPlusTree<(OrdF64, u32), ()>,
    node_tree: BPlusTree<u32, NodeEntry>,
    /// Staging area for bulk creation.
    staging: Option<Staging>,
}

impl TypedIndex {
    /// Creates an empty index for `ty`.
    pub fn new(ty: XmlType) -> TypedIndex {
        TypedIndex {
            ty,
            value_tree: BPlusTree::new(),
            node_tree: BPlusTree::new(),
            staging: None,
        }
    }

    /// Creates an empty index for `ty` in bulk-creation mode, sized
    /// for `arena_size` slots: [`TypedIndex::set`] fills a plain slot
    /// column until [`TypedIndex::finish_bulk`] bulk-loads both trees.
    pub(crate) fn for_bulk(ty: XmlType, arena_size: usize) -> TypedIndex {
        TypedIndex {
            staging: Some(Staging {
                slots: vec![0; arena_size],
                entries: Vec::new(),
            }),
            ..TypedIndex::new(ty)
        }
    }

    /// Bulk-loads the two B+trees from the staged slots: read in slot
    /// order they are already sorted by node; the values are sorted
    /// once.
    pub(crate) fn finish_bulk(&mut self) {
        let staged = self.staging.take().expect("for_bulk first");
        let mut nodes: Vec<u32> = Vec::with_capacity(staged.entries.len());
        let mut entries: Vec<NodeEntry> = Vec::with_capacity(staged.entries.len());
        let mut values: Vec<(OrdF64, u32)> = Vec::new();
        for (n, &at) in staged.slots.iter().enumerate() {
            if let Some(i) = at.checked_sub(1) {
                let e = staged.entries[i as usize];
                nodes.push(n as u32);
                entries.push(e);
                if let Some(v) = e.value() {
                    values.push((v, n as u32));
                }
            }
        }
        drop(staged);
        // A stable sort on the value alone: the run was collected in
        // slot order, so equal values stay in node order.
        values.sort_by_key(|&(v, _)| v);
        self.node_tree = BPlusTree::from_sorted_slices(&nodes, &entries);
        self.value_tree = BPlusTree::from_sorted_slices(&values, &vec![(); values.len()]);
    }

    /// The indexed type.
    pub fn xml_type(&self) -> XmlType {
        self.ty
    }

    /// The shared analyzer (DFA + SCT) for this index's type.
    pub fn analyzer(&self) -> &'static TypedAnalyzer {
        analyzer(self.ty)
    }

    /// The stored state of `node` (`None` = reject / not stored).
    pub fn state_of(&self, node: NodeId) -> Option<StateId> {
        self.node_tree.get(&(node.index() as u32)).map(|e| e.state)
    }

    /// The stored typed key of `node`, if its state is complete.
    pub fn value_of(&self, node: NodeId) -> Option<f64> {
        self.node_tree
            .get(&(node.index() as u32))
            .and_then(|e| e.value())
            .map(|v| v.0)
    }

    /// Installs (or replaces) a node's state and value.
    pub(crate) fn set(&mut self, node: NodeId, state: Option<StateId>, value: Option<f64>) {
        let n = node.index() as u32;
        let entry = state.map(|s| NodeEntry::new(s, value.map(OrdF64)));
        if let Some(staging) = &mut self.staging {
            let i = node.index();
            if i >= staging.slots.len() {
                staging.slots.resize(i + 1, 0);
            }
            staging.slots[i] = match entry {
                Some(e) => {
                    staging.entries.push(e);
                    staging.entries.len() as u32
                }
                None => 0,
            };
            return;
        }
        let old = match entry {
            Some(e) => self.node_tree.insert(n, e),
            None => self.node_tree.remove(&n),
        };
        let old_value = old.and_then(|e| e.value());
        let new_value = entry.and_then(|e| e.value());
        if old_value != new_value {
            if let Some(v) = old_value {
                self.value_tree.remove(&(v, n));
            }
            if let Some(v) = new_value {
                self.value_tree.insert((v, n), ());
            }
        }
    }

    /// Removes `node` from the index entirely.
    pub(crate) fn remove(&mut self, node: NodeId) {
        self.set(node, None, None);
    }

    /// Maps an `f64` range onto the composite `(value, node)` key
    /// space: an included value covers all its node ids, an excluded
    /// value covers none of them. Shared by scans and exact counts so
    /// the two can never disagree on the key population.
    fn composite_bounds<R: std::ops::RangeBounds<f64>>(bounds: &R) -> CompositeBounds {
        let lo = match bounds.start_bound() {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(&v) => Bound::Included((OrdF64(v), 0)),
            Bound::Excluded(&v) => Bound::Excluded((OrdF64(v), u32::MAX)),
        };
        let hi = match bounds.end_bound() {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(&v) => Bound::Included((OrdF64(v), u32::MAX)),
            Bound::Excluded(&v) => Bound::Excluded((OrdF64(v), 0)),
        };
        (lo, hi)
    }

    /// Nodes whose typed value lies within the bounds, in value order.
    pub fn range<R: std::ops::RangeBounds<f64>>(&self, bounds: R) -> Vec<NodeId> {
        self.value_tree
            .range(Self::composite_bounds(&bounds))
            .map(|(&(_, n), ())| NodeId::from_index(n as usize))
            .collect()
    }

    /// Nodes whose typed value equals `key` exactly.
    pub fn eq_lookup(&self, key: f64) -> Vec<NodeId> {
        self.range(key..=key)
    }

    /// Number of nodes with a stored (non-reject) state.
    pub fn stored_states(&self) -> usize {
        self.node_tree.len()
    }

    /// Number of nodes with a complete, castable value.
    pub fn stored_values(&self) -> usize {
        self.value_tree.len()
    }

    /// Approximate heap bytes of both trees.
    pub fn approx_bytes(&self) -> usize {
        self.value_tree.approx_bytes() + self.node_tree.approx_bytes()
    }

    /// **Exact** entry count of a range probe, answered in O(log n)
    /// node visits from the value tree's interior monoid summaries
    /// (see [`BPlusTree::count_range`]) — the count equals
    /// `self.range(bounds).len()` without materialising the scan.
    pub fn estimate_range(&self, bounds: &Bounds) -> CardinalityEstimate {
        CardinalityEstimate::exact(self.value_tree.count_range(Self::composite_bounds(bounds)))
    }

    /// Storage statistics of the value tree.
    pub fn value_tree_stats(&self) -> TreeStats {
        self.value_tree.stats()
    }

    /// Storage statistics of the node tree.
    pub fn node_tree_stats(&self) -> TreeStats {
        self.node_tree.stats()
    }

    /// Cumulative COW page detaches across both trees (O(1)).
    pub fn pages_detached(&self) -> u64 {
        self.value_tree.pages_detached() + self.node_tree.pages_detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn set_and_range() {
        let mut idx = TypedIndex::new(XmlType::Double);
        let an = idx.analyzer();
        let s42 = an.state_of("42");
        idx.set(n(1), s42, Some(42.0));
        idx.set(n(2), an.state_of("7.5"), Some(7.5));
        idx.set(n(3), an.state_of("."), None); // potential, no value

        assert_eq!(idx.range(0.0..=50.0), vec![n(2), n(1)]);
        assert_eq!(idx.range(10.0..), vec![n(1)]);
        assert_eq!(idx.eq_lookup(42.0), vec![n(1)]);
        assert_eq!(idx.stored_states(), 3);
        assert_eq!(idx.stored_values(), 2);
        assert_eq!(idx.value_of(n(3)), None);
        assert!(idx.state_of(n(3)).is_some());
        assert_eq!(idx.state_of(n(99)), None);
    }

    #[test]
    fn exclusive_bounds() {
        let mut idx = TypedIndex::new(XmlType::Double);
        let an = idx.analyzer();
        for (i, v) in [1.0, 2.0, 3.0].iter().enumerate() {
            idx.set(n(i), an.state_of(&v.to_string()), Some(*v));
        }
        assert_eq!(idx.range(1.0..3.0), vec![n(0), n(1)]);
        use std::ops::Bound;
        let r: Vec<NodeId> = idx.range((Bound::Excluded(1.0), Bound::Excluded(3.0)));
        assert_eq!(r, vec![n(1)]);
    }

    #[test]
    fn reset_to_reject_removes_everything() {
        let mut idx = TypedIndex::new(XmlType::Double);
        let an = idx.analyzer();
        idx.set(n(1), an.state_of("5"), Some(5.0));
        idx.set(n(1), None, None);
        assert_eq!(idx.stored_states(), 0);
        assert_eq!(idx.stored_values(), 0);
        assert!(idx.eq_lookup(5.0).is_empty());
    }

    #[test]
    fn value_change_moves_tree_entry() {
        let mut idx = TypedIndex::new(XmlType::Double);
        let an = idx.analyzer();
        idx.set(n(1), an.state_of("5"), Some(5.0));
        idx.set(n(1), an.state_of("9"), Some(9.0));
        assert!(idx.eq_lookup(5.0).is_empty());
        assert_eq!(idx.eq_lookup(9.0), vec![n(1)]);
        assert_eq!(idx.stored_values(), 1);
    }

    #[test]
    fn negative_and_duplicate_values() {
        let mut idx = TypedIndex::new(XmlType::Double);
        let an = idx.analyzer();
        idx.set(n(1), an.state_of("-1"), Some(-1.0));
        idx.set(n(2), an.state_of("-1.0"), Some(-1.0));
        idx.set(n(3), an.state_of("0"), Some(0.0));
        assert_eq!(idx.eq_lookup(-1.0), vec![n(1), n(2)]);
        assert_eq!(idx.range(..0.0).len(), 2);
    }
}
