//! The B+tree proper: lookup, insert with splits, delete with
//! borrow/merge rebalancing, monoid-summary maintenance, exact range
//! aggregates, and structural statistics.

use std::ops::{Bound, RangeBounds};

use crate::iter::Range;
use crate::node::{Node, NIL};
use crate::page::{ColVec, PagedVec};
use crate::search::hinted_partition_point;
use crate::summary::Summary;

/// Default maximum number of keys per node.
///
/// 32 keys per node keeps nodes within one or two cache lines for the
/// small fixed-size keys the indices use (`(u32, u32)`, `(f64, u32)`)
/// while keeping trees shallow.
pub const DEFAULT_ORDER: usize = 32;

/// An in-memory B+tree with linked leaves.
///
/// Keys are unique; [`BPlusTree::insert`] replaces and returns the
/// previous value for an existing key.
///
/// Nodes live in a paged copy-on-write arena ([`PagedVec`]):
/// `Clone` is O(pages) reference-count bumps — no node is copied —
/// and mutating a clone detaches only the pages its root-to-leaf
/// paths touch. [`TreeStats::shared_pages`] exposes how much of the
/// arena is currently shared with other clones.
///
/// Every probe is one root-to-leaf descent; inside each interior node
/// the route is a hinted partition point (see `search.rs`).
///
/// ```
/// use xvi_btree::BPlusTree;
/// let mut t = BPlusTree::new();
/// for i in 0..1000u32 {
///     t.insert(i, i * 2);
/// }
/// assert_eq!(t.get(&21), Some(&42));
/// let in_range: Vec<u32> = t.range(10..13).map(|(k, _)| *k).collect();
/// assert_eq!(in_range, vec![10, 11, 12]);
/// ```
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    pub(crate) nodes: PagedVec<Node<K, V>>,
    pub(crate) root: u32,
    pub(crate) first_leaf: u32,
    len: usize,
    /// Maximum number of keys a node may hold.
    order: usize,
    free: Vec<u32>,
}

/// Structural statistics, used for the paper's storage accounting
/// (Figure 9 bottom) and as a sanity window into tree shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of entries stored.
    pub len: usize,
    /// Number of live leaf nodes.
    pub leaves: usize,
    /// Number of live internal nodes.
    pub internals: usize,
    /// Tree height (a lone leaf root has depth 1).
    pub depth: usize,
    /// Total key slots in use across all nodes (leaf + internal).
    pub used_key_slots: usize,
    /// Arena pages backing the nodes.
    pub pages: usize,
    /// Arena pages currently shared with other clones of this tree
    /// (copy-on-write: they are detached page-by-page on first write).
    pub shared_pages: usize,
    /// Freed arena slots awaiting reuse; [`BPlusTree::shrink_to_fit`]
    /// compacts them away.
    pub free_slots: usize,
    /// Cumulative copy-on-write page detaches over this instance's
    /// mutation lineage (inherited by clones): the difference across a
    /// clone-then-mutate publish cycle is the pages that cycle copied.
    pub pages_detached: u64,
    /// Always 0: the tree keeps no descent cache. Kept only because
    /// the `perfbench` package reads it.
    pub cache_hits: u64,
    /// Always 0, like [`TreeStats::cache_hits`].
    pub cache_partial_hits: u64,
    /// Always 0, like [`TreeStats::cache_hits`].
    pub cache_misses: u64,
}

impl<K: Ord + Clone, V: Clone> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> BPlusTree<K, V> {
    /// Creates an empty tree with [`DEFAULT_ORDER`].
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// Creates an empty tree where nodes hold at most `order` keys.
    ///
    /// # Panics
    /// Panics if `order < 3` (splits need at least two keys per half).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 3, "B+tree order must be at least 3");
        let mut nodes = PagedVec::new();
        nodes.push(Node::Leaf {
            keys: ColVec::new(),
            values: ColVec::new(),
            next: NIL,
            prev: NIL,
        });
        BPlusTree {
            nodes,
            root: 0,
            first_leaf: 0,
            len: 0,
            order,
            free: Vec::new(),
        }
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Minimum keys a non-root node must hold.
    fn min_keys(&self) -> usize {
        self.order / 2
    }

    pub(crate) fn node(&self, id: u32) -> &Node<K, V> {
        &self.nodes[id as usize]
    }

    /// Exclusive access to one node; detaches the node's page first if
    /// it is shared with another clone (the copy-on-write step).
    fn node_mut(&mut self, id: u32) -> &mut Node<K, V> {
        &mut self.nodes[id as usize]
    }

    /// Arena allocation for the bulk loader.
    pub(crate) fn alloc_node(&mut self, node: Node<K, V>) -> u32 {
        self.alloc(node)
    }

    /// Bulk-loader helper: links `leaf`'s `next` pointer.
    pub(crate) fn set_leaf_next(&mut self, leaf: u32, next: u32) {
        match self.node_mut(leaf) {
            Node::Leaf { next: n, .. } => *n = next,
            _ => unreachable!("set_leaf_next on a non-leaf"),
        }
    }

    /// Bulk-loader helper: installs a freshly built root and entry
    /// count, discarding the placeholder empty leaf when unused.
    pub(crate) fn replace_root(&mut self, root: u32, len: usize) {
        let placeholder = self.root;
        self.root = root;
        self.len = len;
        if root != placeholder {
            // Slot 0 was the empty placeholder leaf from `with_order`;
            // recycle it unless the bulk loader reused it.
            self.dealloc(placeholder);
        }
        // The first leaf is the leftmost leaf under the new root.
        let mut id = root;
        loop {
            match self.node(id) {
                Node::Internal { children, .. } => id = children[0],
                Node::Leaf { .. } => break,
                Node::Free => unreachable!(),
            }
        }
        self.first_leaf = id;
    }

    fn alloc(&mut self, node: Node<K, V>) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn dealloc(&mut self, id: u32) {
        self.nodes[id as usize] = Node::Free;
        self.free.push(id);
    }

    /// Child index to follow for `key` given internal separators.
    /// `keys[i]` is the smallest key under `children[i + 1]`, so equal
    /// keys route right.
    fn route(keys: &[K], key: &K) -> usize {
        hinted_partition_point(keys, |sep| sep <= key)
    }

    /// Descends from the root to the leaf that would contain `key`.
    pub(crate) fn find_leaf(&self, key: &K) -> u32 {
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Internal { keys, children, .. } => id = children[Self::route(keys, key)],
                Node::Leaf { .. } => return id,
                Node::Free => unreachable!("descended into a freed node"),
            }
        }
    }

    /// Looks up the value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        match self.node(self.find_leaf(key)) {
            Node::Leaf { keys, values, .. } => keys.binary_search(key).ok().map(|i| &values[i]),
            _ => unreachable!(),
        }
    }

    /// Looks up a mutable reference to the value stored under `key`.
    ///
    /// Structure and keys are untouched; only the leaf's *value
    /// column* is detached if shared.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let leaf = self.find_leaf(key);
        match self.node_mut(leaf) {
            Node::Leaf { keys, values, .. } => match keys.binary_search(key) {
                Ok(i) => Some(&mut values.make_mut()[i]),
                Err(_) => None,
            },
            _ => unreachable!(),
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value`; returns the previous value if `key` was
    /// already present (the entry is replaced, not duplicated).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (old, split) = self.insert_rec(self.root, key, value);
        if let Some((sep, right)) = split {
            let old_root = self.root;
            let left_sum = self.node_summary(old_root);
            let right_sum = self.node_summary(right);
            self.root = self.alloc(Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
                summaries: vec![left_sum, right_sum],
            });
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_rec(&mut self, id: u32, key: K, value: V) -> (Option<V>, Option<(K, u32)>) {
        // Route first with a short-lived borrow, recurse, then mutate.
        let child = match self.node(id) {
            Node::Internal { keys, children, .. } => {
                let i = Self::route(keys, &key);
                Some((children[i], i))
            }
            Node::Leaf { .. } => None,
            Node::Free => unreachable!(),
        };

        match child {
            None => {
                let overflow = {
                    let order = self.order;
                    match self.node_mut(id) {
                        Node::Leaf { keys, values, .. } => match keys.binary_search(&key) {
                            Ok(i) => {
                                // Value overwrite: only the value column
                                // detaches; keys stay shared.
                                let slot = &mut values.make_mut()[i];
                                return (Some(std::mem::replace(slot, value)), None);
                            }
                            Err(i) => {
                                let keys = keys.make_mut();
                                keys.insert(i, key);
                                values.make_mut().insert(i, value);
                                keys.len() > order
                            }
                        },
                        _ => unreachable!(),
                    }
                };
                let split = overflow.then(|| self.split_leaf(id));
                (None, split)
            }
            Some((child_id, routed)) => {
                let (old, child_split) = self.insert_rec(child_id, key, value);
                let split = if let Some((sep, new_child)) = child_split {
                    // Summaries of both halves are computed before the
                    // parent borrow; the split child keeps its slot,
                    // the new right sibling goes just after it.
                    let child_sum = self.node_summary(child_id);
                    let new_sum = self.node_summary(new_child);
                    let overflow = {
                        let order = self.order;
                        match self.node_mut(id) {
                            Node::Internal {
                                keys,
                                children,
                                summaries,
                            } => {
                                let i = keys.partition_point(|k| k < &sep);
                                debug_assert_eq!(children[i], child_id, "split slot mismatch");
                                keys.insert(i, sep);
                                children.insert(i + 1, new_child);
                                summaries[i] = child_sum;
                                summaries.insert(i + 1, new_sum);
                                keys.len() > order
                            }
                            _ => unreachable!(),
                        }
                    };
                    overflow.then(|| self.split_internal(id))
                } else {
                    if old.is_none() {
                        // A fresh key changed the child's key sequence.
                        // (Replace-only inserts leave keys — and hence
                        // summaries — untouched, keeping the parent
                        // page attached on the COW fast path.)
                        self.refresh_child_summary(id, routed);
                    }
                    None
                };
                (old, split)
            }
        }
    }

    /// Splits an overflowing leaf; returns `(separator, new_right_id)`.
    /// The separator is a copy of the new right leaf's first key.
    fn split_leaf(&mut self, id: u32) -> (K, u32) {
        let (up_keys, up_values, old_next) = match self.node_mut(id) {
            Node::Leaf {
                keys, values, next, ..
            } => {
                let keys = keys.make_mut();
                let mid = keys.len() / 2;
                (keys.split_off(mid), values.make_mut().split_off(mid), *next)
            }
            _ => unreachable!(),
        };
        let sep = up_keys[0].clone();
        let new_id = self.alloc(Node::Leaf {
            keys: up_keys.into(),
            values: up_values.into(),
            next: old_next,
            prev: id,
        });
        if let Node::Leaf { next, .. } = self.node_mut(id) {
            *next = new_id;
        }
        if old_next != NIL {
            if let Node::Leaf { prev, .. } = self.node_mut(old_next) {
                *prev = new_id;
            }
        }
        (sep, new_id)
    }

    /// Splits an overflowing internal node; the middle key moves up.
    fn split_internal(&mut self, id: u32) -> (K, u32) {
        let (sep, up_keys, up_children, up_summaries) = match self.node_mut(id) {
            Node::Internal {
                keys,
                children,
                summaries,
            } => {
                let mid = keys.len() / 2;
                let up_keys = keys.split_off(mid + 1);
                let sep = keys.pop().expect("mid key exists");
                let up_children = children.split_off(mid + 1);
                let up_summaries = summaries.split_off(mid + 1);
                (sep, up_keys, up_children, up_summaries)
            }
            _ => unreachable!(),
        };
        let new_id = self.alloc(Node::Internal {
            keys: up_keys,
            children: up_children,
            summaries: up_summaries,
        });
        (sep, new_id)
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = self.remove_rec(self.root, key);
        if removed.is_some() {
            self.len -= 1;
            // Collapse a root that lost its last separator.
            if let Node::Internal { keys, children, .. } = self.node(self.root) {
                if keys.is_empty() {
                    let only_child = children[0];
                    let old_root = self.root;
                    self.root = only_child;
                    self.dealloc(old_root);
                }
            }
        }
        removed
    }

    fn remove_rec(&mut self, id: u32, key: &K) -> Option<V> {
        let child = match self.node(id) {
            Node::Internal { keys, children, .. } => {
                let idx = Self::route(keys, key);
                Some((children[idx], idx))
            }
            Node::Leaf { .. } => None,
            Node::Free => unreachable!(),
        };

        match child {
            None => match self.node_mut(id) {
                Node::Leaf { keys, values, .. } => match keys.binary_search(key) {
                    Ok(i) => {
                        keys.make_mut().remove(i);
                        Some(values.make_mut().remove(i))
                    }
                    Err(_) => None,
                },
                _ => unreachable!(),
            },
            Some((child_id, idx)) => {
                let out = self.remove_rec(child_id, key);
                if out.is_some() {
                    // Repair the stored summary before any rebalance
                    // reads sibling shapes; rebalance re-repairs the
                    // slots it moves entries across.
                    self.refresh_child_summary(id, idx);
                    if self.node(child_id).key_count() < self.min_keys() {
                        self.rebalance(id, idx);
                    }
                }
                out
            }
        }
    }

    /// Restores the occupancy invariant of `children[idx]` under
    /// `parent` by borrowing from a rich sibling or merging with one.
    fn rebalance(&mut self, parent: u32, idx: usize) {
        let (left, right, child_count) = match self.node(parent) {
            Node::Internal { children, .. } => (
                (idx > 0).then(|| children[idx - 1]),
                (idx + 1 < children.len()).then(|| children[idx + 1]),
                children.len(),
            ),
            _ => unreachable!(),
        };
        debug_assert!(child_count >= 2, "rebalance needs a sibling");

        let min = self.min_keys();
        if let Some(l) = left {
            if self.node(l).key_count() > min {
                self.borrow_from_left(parent, idx);
                return;
            }
        }
        if let Some(r) = right {
            if self.node(r).key_count() > min {
                self.borrow_from_right(parent, idx);
                return;
            }
        }
        if left.is_some() {
            self.merge(parent, idx - 1);
        } else {
            self.merge(parent, idx);
        }
    }

    /// Mutable access to two distinct arena slots (detaching their
    /// pages from any sharing first).
    fn two_nodes_mut(&mut self, a: u32, b: u32) -> (&mut Node<K, V>, &mut Node<K, V>) {
        self.nodes.pair_mut(a as usize, b as usize)
    }

    fn parent_key_replace(&mut self, parent: u32, key_idx: usize, new_key: K) -> K {
        match self.node_mut(parent) {
            Node::Internal { keys, .. } => std::mem::replace(&mut keys[key_idx], new_key),
            _ => unreachable!(),
        }
    }

    /// Recomputes the stored summary of `children[idx]` under `parent`
    /// from that child's own state (leaf keys, or its stored per-child
    /// summaries — O(fan-out) either way).
    fn refresh_child_summary(&mut self, parent: u32, idx: usize) {
        let child = match self.node(parent) {
            Node::Internal { children, .. } => children[idx],
            _ => unreachable!("summary refresh on a non-internal parent"),
        };
        let s = self.node_summary(child);
        match self.node_mut(parent) {
            Node::Internal { summaries, .. } => summaries[idx] = s,
            _ => unreachable!(),
        }
    }

    /// The combined summary of the subtree rooted at `id`. For a leaf
    /// this folds the keys; for an internal node it folds the *stored*
    /// per-child summaries — never the subtree itself.
    pub(crate) fn node_summary(&self, id: u32) -> Summary<K> {
        match self.node(id) {
            Node::Leaf { keys, .. } => Summary::of_sorted_keys(keys),
            Node::Internal { summaries, .. } => summaries
                .iter()
                .fold(Summary::empty(), |acc, s| acc.combine(s)),
            Node::Free => unreachable!("summary of a freed node"),
        }
    }

    fn borrow_from_left(&mut self, parent: u32, idx: usize) {
        let (left_id, child_id) = match self.node(parent) {
            Node::Internal { children, .. } => (children[idx - 1], children[idx]),
            _ => unreachable!(),
        };
        // Rotate through the siblings first, remember the key that must
        // become the new parent separator, then patch the parent once
        // the sibling borrows have ended.
        enum Rot<K> {
            /// Leaf rotation: the moved key is also the new separator.
            Leaf(K),
            /// Internal rotation: the rotated-out key replaces the
            /// separator, and the *old* separator must be pushed onto
            /// the child afterwards.
            Internal(K),
        }
        let rot = {
            let (left, child) = self.two_nodes_mut(left_id, child_id);
            match (left, child) {
                (
                    Node::Leaf {
                        keys: lk,
                        values: lv,
                        ..
                    },
                    Node::Leaf {
                        keys: ck,
                        values: cv,
                        ..
                    },
                ) => {
                    let k = lk.make_mut().pop().expect("left leaf has spare key");
                    let v = lv.make_mut().pop().expect("left leaf has spare value");
                    let sep = k.clone();
                    ck.make_mut().insert(0, k);
                    cv.make_mut().insert(0, v);
                    Rot::Leaf(sep)
                }
                (
                    Node::Internal {
                        keys: lk,
                        children: lc,
                        summaries: ls,
                    },
                    Node::Internal {
                        children: cc,
                        summaries: cs,
                        ..
                    },
                ) => {
                    let rotated_key = lk.pop().expect("left internal has spare key");
                    let rotated_child = lc.pop().expect("left internal has spare child");
                    let rotated_sum = ls.pop().expect("summaries parallel children");
                    cc.insert(0, rotated_child);
                    cs.insert(0, rotated_sum);
                    Rot::Internal(rotated_key)
                }
                _ => unreachable!("siblings are at the same level"),
            }
        };
        match rot {
            Rot::Leaf(sep) => {
                self.parent_key_replace(parent, idx - 1, sep);
            }
            Rot::Internal(rotated_key) => {
                let old_sep = self.parent_key_replace(parent, idx - 1, rotated_key);
                match self.node_mut(child_id) {
                    Node::Internal { keys, .. } => keys.insert(0, old_sep),
                    _ => unreachable!(),
                }
            }
        }
        // One entry crossed the sibling boundary: both slots changed.
        self.refresh_child_summary(parent, idx - 1);
        self.refresh_child_summary(parent, idx);
    }

    fn borrow_from_right(&mut self, parent: u32, idx: usize) {
        let (child_id, right_id) = match self.node(parent) {
            Node::Internal { children, .. } => (children[idx], children[idx + 1]),
            _ => unreachable!(),
        };
        enum Rot<K> {
            Leaf(K),
            Internal(K),
        }
        let rot = {
            let (child, right) = self.two_nodes_mut(child_id, right_id);
            match (child, right) {
                (
                    Node::Leaf {
                        keys: ck,
                        values: cv,
                        ..
                    },
                    Node::Leaf {
                        keys: rk,
                        values: rv,
                        ..
                    },
                ) => {
                    ck.make_mut().push(rk.make_mut().remove(0));
                    cv.make_mut().push(rv.make_mut().remove(0));
                    Rot::Leaf(rk[0].clone())
                }
                (
                    Node::Internal {
                        children: cc,
                        summaries: cs,
                        ..
                    },
                    Node::Internal {
                        keys: rk,
                        children: rc,
                        summaries: rs,
                    },
                ) => {
                    let rotated_key = rk.remove(0);
                    cc.push(rc.remove(0));
                    cs.push(rs.remove(0));
                    Rot::Internal(rotated_key)
                }
                _ => unreachable!("siblings are at the same level"),
            }
        };
        match rot {
            Rot::Leaf(sep) => {
                self.parent_key_replace(parent, idx, sep);
            }
            Rot::Internal(rotated_key) => {
                let old_sep = self.parent_key_replace(parent, idx, rotated_key);
                match self.node_mut(child_id) {
                    Node::Internal { keys, .. } => keys.push(old_sep),
                    _ => unreachable!(),
                }
            }
        }
        // One entry crossed the sibling boundary: both slots changed.
        self.refresh_child_summary(parent, idx);
        self.refresh_child_summary(parent, idx + 1);
    }

    /// Merges `children[i + 1]` into `children[i]` under `parent`,
    /// removing the separator `keys[i]`.
    fn merge(&mut self, parent: u32, i: usize) {
        let (left_id, right_id, sep) = match self.node_mut(parent) {
            Node::Internal {
                keys,
                children,
                summaries,
            } => {
                let sep = keys.remove(i);
                let right_id = children.remove(i + 1);
                summaries.remove(i + 1);
                (children[i], right_id, sep)
            }
            _ => unreachable!(),
        };
        let relink = {
            let (left, right) = self.two_nodes_mut(left_id, right_id);
            match (left, right) {
                (
                    Node::Leaf {
                        keys: lk,
                        values: lv,
                        next: lnext,
                        ..
                    },
                    Node::Leaf {
                        keys: rk,
                        values: rv,
                        next: rnext,
                        ..
                    },
                ) => {
                    lk.make_mut().append(rk.make_mut());
                    lv.make_mut().append(rv.make_mut());
                    let new_next = *rnext;
                    *lnext = new_next;
                    (new_next != NIL).then_some(new_next)
                }
                (
                    Node::Internal {
                        keys: lk,
                        children: lc,
                        summaries: ls,
                    },
                    Node::Internal {
                        keys: rk,
                        children: rc,
                        summaries: rs,
                    },
                ) => {
                    lk.push(sep);
                    lk.append(rk);
                    lc.append(rc);
                    ls.append(rs);
                    None
                }
                _ => unreachable!("siblings are at the same level"),
            }
        };
        if let Some(succ) = relink {
            if let Node::Leaf { prev, .. } = self.node_mut(succ) {
                *prev = left_id;
            }
        }
        self.dealloc(right_id);
        self.refresh_child_summary(parent, i);
    }

    /// In-order range scan. Bounds behave like `BTreeMap::range`.
    pub fn range<R: RangeBounds<K>>(&self, bounds: R) -> Range<'_, K, V> {
        Range::new(self, bounds)
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> Range<'_, K, V> {
        self.range(..)
    }

    /// The smallest entry, if any.
    pub fn first_key_value(&self) -> Option<(&K, &V)> {
        self.iter().next()
    }

    /// The largest entry, if any (walks down the rightmost spine).
    pub fn last_key_value(&self) -> Option<(&K, &V)> {
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Internal { children, .. } => {
                    id = *children.last().expect("internal node has children")
                }
                Node::Leaf { keys, values, .. } => {
                    return keys
                        .last()
                        .map(|k| (k, values.last().expect("parallel vecs")));
                }
                Node::Free => unreachable!(),
            }
        }
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        let order = self.order;
        *self = Self::with_order(order);
    }

    // ----- monoid summaries: exact aggregates -----------------------------

    /// The maintained [`Summary`] of the whole tree: exact entry count
    /// and min/max key. O(fan-out of the root), not O(n).
    pub fn summary(&self) -> Summary<K> {
        self.node_summary(self.root)
    }

    /// Exact number of entries whose keys fall within `bounds`, in
    /// O(log n) node visits: children of a visited node whose stored
    /// `[min, max]` lies entirely inside the bounds contribute their
    /// stored count without being visited; only the (at most two)
    /// boundary seams descend. Agrees with
    /// `self.range(bounds).count()` for every bound shape, including
    /// empty and reversed bounds (which yield 0, not a panic).
    pub fn count_range<R: RangeBounds<K>>(&self, bounds: R) -> usize {
        self.count_range_probed(bounds).0
    }

    /// [`BPlusTree::count_range`] plus the number of nodes actually
    /// visited — the probe counter the O(log n) claim is pinned by
    /// (`probes <= 2 * depth + 1`).
    pub fn count_range_probed<R: RangeBounds<K>>(&self, bounds: R) -> (usize, usize) {
        let lo = bounds.start_bound();
        let hi = bounds.end_bound();
        let mut probes = 0usize;
        let count = self.count_range_rec(self.root, lo, hi, &mut probes);
        (count as usize, probes)
    }

    /// Whether `key` lies below the start bound.
    fn below_lo(key: &K, lo: Bound<&K>) -> bool {
        match lo {
            Bound::Unbounded => false,
            Bound::Included(b) => key < b,
            Bound::Excluded(b) => key <= b,
        }
    }

    /// Whether `key` lies above the end bound.
    fn above_hi(key: &K, hi: Bound<&K>) -> bool {
        match hi {
            Bound::Unbounded => false,
            Bound::Included(b) => key > b,
            Bound::Excluded(b) => key >= b,
        }
    }

    fn count_range_rec(&self, id: u32, lo: Bound<&K>, hi: Bound<&K>, probes: &mut usize) -> u64 {
        *probes += 1;
        match self.node(id) {
            Node::Leaf { keys, .. } => {
                let start = match lo {
                    Bound::Unbounded => 0,
                    Bound::Included(b) => keys.partition_point(|k| k < b),
                    Bound::Excluded(b) => keys.partition_point(|k| k <= b),
                };
                let end = match hi {
                    Bound::Unbounded => keys.len(),
                    Bound::Included(b) => keys.partition_point(|k| k <= b),
                    Bound::Excluded(b) => keys.partition_point(|k| k < b),
                };
                end.saturating_sub(start) as u64
            }
            Node::Internal {
                children,
                summaries,
                ..
            } => {
                let mut total = 0u64;
                for (i, s) in summaries.iter().enumerate() {
                    let Some((min, max)) = &s.keys else { continue };
                    if Self::above_hi(min, hi) || Self::below_lo(max, lo) {
                        continue; // disjoint: skipped, not visited
                    }
                    if !Self::below_lo(min, lo) && !Self::above_hi(max, hi) {
                        total += s.count; // fully covered: credited blind
                    } else {
                        total += self.count_range_rec(children[i], lo, hi, probes);
                    }
                }
                total
            }
            Node::Free => unreachable!("descended into a freed node"),
        }
    }

    /// Cumulative copy-on-write page detaches (see
    /// [`TreeStats::pages_detached`]) — a cheap O(1) read, unlike the
    /// full [`stats`](Self::stats) walk.
    pub fn pages_detached(&self) -> u64 {
        self.nodes.pages_detached()
    }

    /// Structural statistics for storage accounting.
    pub fn stats(&self) -> TreeStats {
        let mut leaves = 0;
        let mut internals = 0;
        let mut used_key_slots = 0;
        for n in self.nodes.iter() {
            match n {
                Node::Leaf { keys, .. } => {
                    leaves += 1;
                    used_key_slots += keys.len();
                }
                Node::Internal { keys, .. } => {
                    internals += 1;
                    used_key_slots += keys.len();
                }
                Node::Free => {}
            }
        }
        let mut depth = 1;
        let mut id = self.root;
        while let Node::Internal { children, .. } = self.node(id) {
            depth += 1;
            id = children[0];
        }
        TreeStats {
            len: self.len,
            leaves,
            internals,
            depth,
            used_key_slots,
            pages: self.nodes.page_count(),
            shared_pages: self.nodes.shared_pages(),
            free_slots: self.free.len(),
            pages_detached: self.nodes.pages_detached(),
            cache_hits: 0,
            cache_partial_hits: 0,
            cache_misses: 0,
        }
    }

    /// A clone that shares nothing with `self`: every page is
    /// detached immediately instead of lazily on first write. This is
    /// the pre-structural-sharing ("deep") clone, which the
    /// copy-on-write model tests use as their reference.
    pub fn deep_clone(&self) -> Self {
        let mut c = self.clone();
        c.nodes = self.nodes.deep_clone();
        // Page-level unsharing copied the node headers, but a copied
        // leaf still *borrows* its key/value columns from the source;
        // detach those too so the deep clone shares nothing at any
        // level.
        for i in 0..c.nodes.len() {
            if let Node::Leaf { keys, values, .. } = &mut c.nodes[i] {
                keys.unshare();
                values.unshare();
            }
        }
        c
    }

    /// Compacts the arena: drops every freed slot and re-packs the
    /// live nodes into fresh pages, so a tree that shrank by bulk
    /// deletes stops carrying dead slots around (visible as
    /// [`TreeStats::free_slots`]). O(live nodes); the compacted arena
    /// shares no pages with any clone.
    pub fn shrink_to_fit(&mut self) {
        if self.free.is_empty() {
            return;
        }
        #[cfg(debug_assertions)]
        let before = {
            let s = self.stats();
            (self.summary(), s.len, s.leaves, s.internals)
        };
        // New id = old id minus the freed slots before it.
        let mut map = vec![NIL; self.nodes.len()];
        let mut next = 0u32;
        for (i, n) in self.nodes.iter().enumerate() {
            if !matches!(n, Node::Free) {
                map[i] = next;
                next += 1;
            }
        }
        let remap = |id: u32, map: &[u32]| if id == NIL { NIL } else { map[id as usize] };
        let mut packed: PagedVec<Node<K, V>> = PagedVec::new();
        for n in self.nodes.iter() {
            match n {
                Node::Free => {}
                // Summaries describe subtree *contents*, not arena
                // ids, so they survive the remap verbatim.
                Node::Internal {
                    keys,
                    children,
                    summaries,
                } => packed.push(Node::Internal {
                    keys: keys.clone(),
                    children: children.iter().map(|&c| remap(c, &map)).collect(),
                    summaries: summaries.clone(),
                }),
                Node::Leaf {
                    keys,
                    values,
                    next,
                    prev,
                } => packed.push(Node::Leaf {
                    keys: keys.clone(),
                    values: values.clone(),
                    next: remap(*next, &map),
                    prev: remap(*prev, &map),
                }),
            }
        }
        self.root = remap(self.root, &map);
        self.first_leaf = remap(self.first_leaf, &map);
        self.nodes = packed;
        self.free.clear();
        // Compaction must be content-neutral: same entries in the same
        // order, same root summary, same live-node population.
        #[cfg(debug_assertions)]
        {
            let s = self.stats();
            debug_assert!(
                before.0 == self.summary(),
                "shrink_to_fit changed the root summary"
            );
            debug_assert!(
                before.1 == self.iter().count(),
                "shrink_to_fit changed the entry count"
            );
            debug_assert!(
                (before.2, before.3) == (s.leaves, s.internals),
                "shrink_to_fit changed the live node population"
            );
        }
    }

    /// Rough heap footprint of the live tree structure, in bytes.
    ///
    /// Counts used key/value/child slots plus a fixed per-node header;
    /// good enough for the relative storage comparisons of Figure 9.
    pub fn approx_bytes(&self) -> usize {
        const NODE_HEADER: usize = 48; // enum tag + vec headers + links
        let mut bytes = 0;
        for n in self.nodes.iter() {
            match n {
                Node::Leaf { keys, values, .. } => {
                    bytes += NODE_HEADER
                        + keys.len() * std::mem::size_of::<K>()
                        + values.len() * std::mem::size_of::<V>();
                }
                Node::Internal {
                    keys,
                    children,
                    summaries,
                } => {
                    bytes += NODE_HEADER
                        + keys.len() * std::mem::size_of::<K>()
                        + children.len() * std::mem::size_of::<u32>()
                        + summaries.len() * std::mem::size_of::<Summary<K>>();
                }
                Node::Free => {}
            }
        }
        bytes
    }

    /// Verifies every structural invariant — including that every
    /// interior node's stored per-child summaries are byte-identical
    /// to a from-scratch recompute of the child subtrees; returns a
    /// description of the first violation. Used by the test suite
    /// after mutation sequences — not on any hot path.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut leaf_entries = Vec::new();
        let mut leaf_order = Vec::new();
        let (_, root_summary) = self.check_node(
            self.root,
            None,
            None,
            true,
            &mut leaf_entries,
            &mut leaf_order,
        )?;
        let expect = leaf_entries
            .iter()
            .fold(Summary::empty(), |acc, k| acc.combine(&Summary::of_key(k)));
        if root_summary != expect {
            return Err("root summary disagrees with entry-by-entry recompute".into());
        }

        if leaf_entries.len() != self.len {
            return Err(format!(
                "len mismatch: counted {} entries, len() says {}",
                leaf_entries.len(),
                self.len
            ));
        }
        for pair in leaf_entries.windows(2) {
            if pair[0] >= pair[1] {
                return Err("keys not strictly increasing across leaves".into());
            }
        }

        // The leaf chain must visit exactly the in-order leaves.
        let mut chain = Vec::new();
        let mut id = self.first_leaf;
        let mut prev = NIL;
        while id != NIL {
            chain.push(id);
            match self.node(id) {
                Node::Leaf { prev: p, next, .. } => {
                    if *p != prev {
                        return Err(format!("leaf {id}: prev link {p} != expected {prev}"));
                    }
                    prev = id;
                    id = *next;
                }
                _ => return Err(format!("leaf chain reaches non-leaf node {id}")),
            }
            if chain.len() > self.nodes.len() {
                return Err("leaf chain has a cycle".into());
            }
        }
        if chain != leaf_order {
            return Err("leaf chain disagrees with in-order leaf traversal".into());
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn check_node(
        &self,
        id: u32,
        lower: Option<&K>,
        upper: Option<&K>,
        is_root: bool,
        leaf_entries: &mut Vec<K>,
        leaf_order: &mut Vec<u32>,
    ) -> Result<(usize, Summary<K>), String> {
        match self.node(id) {
            Node::Free => Err(format!("reached freed node {id}")),
            Node::Leaf { keys, values, .. } => {
                if keys.len() != values.len() {
                    return Err(format!("leaf {id}: keys/values length mismatch"));
                }
                if !is_root && keys.len() < self.min_keys() {
                    return Err(format!("leaf {id}: underfull ({} keys)", keys.len()));
                }
                if keys.len() > self.order {
                    return Err(format!("leaf {id}: overfull ({} keys)", keys.len()));
                }
                for k in keys.iter() {
                    if let Some(lo) = lower {
                        if k < lo {
                            return Err(format!("leaf {id}: key below subtree lower bound"));
                        }
                    }
                    if let Some(hi) = upper {
                        if k >= hi {
                            return Err(format!("leaf {id}: key at/above subtree upper bound"));
                        }
                    }
                    leaf_entries.push(k.clone());
                }
                leaf_order.push(id);
                Ok((1, Summary::of_sorted_keys(keys)))
            }
            Node::Internal {
                keys,
                children,
                summaries,
            } => {
                if children.len() != keys.len() + 1 {
                    return Err(format!("internal {id}: children/keys arity mismatch"));
                }
                if summaries.len() != children.len() {
                    return Err(format!("internal {id}: summaries/children arity mismatch"));
                }
                if !is_root && keys.len() < self.min_keys() {
                    return Err(format!("internal {id}: underfull ({} keys)", keys.len()));
                }
                if is_root && keys.is_empty() {
                    return Err(format!("internal root {id} has no separator"));
                }
                if keys.len() > self.order {
                    return Err(format!("internal {id}: overfull ({} keys)", keys.len()));
                }
                for pair in keys.windows(2) {
                    if pair[0] >= pair[1] {
                        return Err(format!("internal {id}: separators not increasing"));
                    }
                }
                let mut depth = None;
                let mut combined = Summary::empty();
                for (i, &child) in children.iter().enumerate() {
                    let lo = if i == 0 { lower } else { Some(&keys[i - 1]) };
                    let hi = if i == keys.len() {
                        upper
                    } else {
                        Some(&keys[i])
                    };
                    let (d, child_summary) =
                        self.check_node(child, lo, hi, false, leaf_entries, leaf_order)?;
                    if let Some(expect) = depth {
                        if d != expect {
                            return Err(format!("internal {id}: uneven child depths"));
                        }
                    }
                    depth = Some(d);
                    // The stored summary must be byte-identical to the
                    // bottom-up recompute of the child's subtree.
                    if summaries[i] != child_summary {
                        return Err(format!("internal {id}: stale stored summary for child {i}"));
                    }
                    combined = combined.combine(&child_summary);
                }
                Ok((depth.expect("internal node has children") + 1, combined))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u32, order: usize) -> BPlusTree<u32, u32> {
        let mut t = BPlusTree::with_order(order);
        for i in 0..n {
            assert_eq!(t.insert(i, i + 1000), None);
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t: BPlusTree<u32, u32> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.first_key_value(), None);
        assert_eq!(t.last_key_value(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_get_replace() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert("b", 2), None);
        assert_eq!(t.insert("a", 1), None);
        assert_eq!(t.insert("b", 20), Some(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&"a"), Some(&1));
        assert_eq!(t.get(&"b"), Some(&20));
        t.check_invariants().unwrap();
    }

    #[test]
    fn ascending_and_descending_bulk_insert() {
        for order in [3, 4, 5, 8, 32] {
            let t = filled(1000, order);
            t.check_invariants().unwrap();
            assert_eq!(t.len(), 1000);
            let keys: Vec<u32> = t.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, (0..1000).collect::<Vec<_>>());

            let mut t = BPlusTree::with_order(order);
            for i in (0..1000u32).rev() {
                t.insert(i, i);
            }
            t.check_invariants().unwrap();
            assert_eq!(t.iter().count(), 1000);
        }
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = filled(100, 4);
        *t.get_mut(&50).unwrap() = 9999;
        assert_eq!(t.get(&50), Some(&9999));
        assert_eq!(t.get_mut(&200), None);
    }

    #[test]
    fn remove_everything_both_orders() {
        for order in [3, 4, 7, 32] {
            let mut t = filled(500, order);
            for i in 0..500u32 {
                assert_eq!(t.remove(&i), Some(i + 1000), "forward removal of {i}");
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("order {order}, after removing {i}: {e}"));
            }
            assert!(t.is_empty());

            let mut t = filled(500, order);
            for i in (0..500u32).rev() {
                assert_eq!(t.remove(&i), Some(i + 1000), "reverse removal of {i}");
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("order {order}, after removing {i}: {e}"));
            }
            assert!(t.is_empty());
        }
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = filled(10, 4);
        assert_eq!(t.remove(&999), None);
        assert_eq!(t.len(), 10);
        t.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_insert_remove() {
        let mut t = BPlusTree::with_order(4);
        for round in 0..20u32 {
            for i in 0..100u32 {
                t.insert(round * 1000 + i, i);
            }
            for i in (0..100u32).step_by(2) {
                assert!(t.remove(&(round * 1000 + i)).is_some());
            }
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 20 * 50);
    }

    #[test]
    fn range_scans() {
        let t = filled(1000, 8);
        let v: Vec<u32> = t.range(100..110).map(|(k, _)| *k).collect();
        assert_eq!(v, (100..110).collect::<Vec<_>>());
        let v: Vec<u32> = t.range(100..=110).map(|(k, _)| *k).collect();
        assert_eq!(v, (100..=110).collect::<Vec<_>>());
        let v: Vec<u32> = t.range(..3).map(|(k, _)| *k).collect();
        assert_eq!(v, vec![0, 1, 2]);
        let v: Vec<u32> = t.range(997..).map(|(k, _)| *k).collect();
        assert_eq!(v, vec![997, 998, 999]);
        assert_eq!(t.range(..).count(), 1000);
        assert_eq!(t.range(500..500).count(), 0);
        use std::ops::Bound;
        let v: Vec<u32> = t
            .range((Bound::Excluded(5), Bound::Included(8)))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(v, vec![6, 7, 8]);
    }

    #[test]
    fn range_with_gaps() {
        let mut t = BPlusTree::with_order(4);
        for i in (0..100u32).step_by(10) {
            t.insert(i, ());
        }
        let v: Vec<u32> = t.range(15..55).map(|(k, _)| *k).collect();
        assert_eq!(v, vec![20, 30, 40, 50]);
    }

    #[test]
    fn first_and_last() {
        let t = filled(777, 5);
        assert_eq!(t.first_key_value(), Some((&0, &1000)));
        assert_eq!(t.last_key_value(), Some((&776, &1776)));
    }

    #[test]
    fn clear_resets() {
        let mut t = filled(100, 4);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        t.insert(1, 1);
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn stats_reflect_shape() {
        let t = filled(10_000, 32);
        let s = t.stats();
        assert_eq!(s.len, 10_000);
        assert!(s.depth >= 3, "10k keys at order 32 needs depth >= 3");
        assert!(s.leaves > s.internals);
        assert!(t.approx_bytes() > 10_000 * 8);
    }

    #[test]
    fn composite_key_prefix_scan() {
        // The multimap pattern the hash index uses: (hash, node) -> ().
        let mut t: BPlusTree<(u32, u32), ()> = BPlusTree::new();
        for node in [7, 3, 9] {
            t.insert((42, node), ());
        }
        t.insert((41, 1), ());
        t.insert((43, 2), ());
        let hits: Vec<u32> = t
            .range((42, 0)..=(42, u32::MAX))
            .map(|((_, n), _)| *n)
            .collect();
        assert_eq!(hits, vec![3, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "order must be at least 3")]
    fn rejects_tiny_order() {
        let _ = BPlusTree::<u32, u32>::with_order(2);
    }

    #[test]
    fn clone_shares_pages_and_diverges_on_write() {
        let t = filled(5_000, 32);
        assert_eq!(t.stats().shared_pages, 0);
        let mut c = t.clone();
        // The clone copied no node: every page of both trees is shared.
        assert_eq!(c.stats().shared_pages, c.stats().pages);
        assert_eq!(t.stats().shared_pages, t.stats().pages);
        c.insert(10_000, 0);
        // Only the root-to-leaf path detached; the original is intact.
        assert!(c.stats().shared_pages > 0);
        assert_eq!(t.len(), 5_000);
        assert_eq!(t.get(&10_000), None);
        assert_eq!(c.get(&10_000), Some(&0));
        t.check_invariants().unwrap();
        c.check_invariants().unwrap();
        drop(t);
        assert_eq!(c.stats().shared_pages, 0);
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let t = filled(2_000, 8);
        let c = t.deep_clone();
        assert_eq!(t.stats().shared_pages, 0);
        assert_eq!(c.stats().shared_pages, 0);
        let a: Vec<(u32, u32)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<(u32, u32)> = c.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn shrink_to_fit_compacts_after_bulk_deletes() {
        let mut t = filled(10_000, 4);
        for i in 0..9_900u32 {
            assert!(t.remove(&i).is_some());
        }
        let before = t.stats();
        assert!(
            before.free_slots > before.leaves + before.internals,
            "delete-heavy tree carries more dead slots than live nodes"
        );
        let entries: Vec<(u32, u32)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        t.shrink_to_fit();
        let after = t.stats();
        assert_eq!(after.free_slots, 0);
        assert!(after.pages < before.pages, "compaction must drop pages");
        assert_eq!(after.len, before.len);
        t.check_invariants().unwrap();
        let compacted: Vec<(u32, u32)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(compacted, entries);
        // The compacted tree keeps working under further mutation.
        for i in 0..100u32 {
            t.insert(i, i);
        }
        assert_eq!(t.remove(&9_950), Some(9_950 + 1000));
        t.check_invariants().unwrap();
        // No free slots -> no-op.
        let mut fresh = filled(100, 4);
        let s = fresh.stats();
        fresh.shrink_to_fit();
        assert_eq!(fresh.stats(), s);
    }
}
