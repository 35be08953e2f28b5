//! In-order range scans over the linked leaves.

use std::ops::{Bound, RangeBounds};

use crate::node::{Node, NIL};
use crate::search::hinted_partition_point;
use crate::tree::BPlusTree;

/// Iterator over the entries of a [`BPlusTree`] whose keys fall within
/// a range. Produced by [`BPlusTree::range`] and [`BPlusTree::iter`].
///
/// Positions once via a root-to-leaf descent, then walks the leaf
/// chain — `O(log n + k)` for `k` results, which is the access pattern
/// the paper's range-lookup index is built for.
pub struct Range<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: u32,
    idx: usize,
    end: Bound<K>,
}

impl<'a, K: Ord + Clone, V: Clone> Range<'a, K, V> {
    pub(crate) fn new<R: RangeBounds<K>>(tree: &'a BPlusTree<K, V>, bounds: R) -> Self {
        let (leaf, idx) = match bounds.start_bound() {
            Bound::Unbounded => (tree.first_leaf, 0),
            Bound::Included(s) => tree.position_at_or_after(s, false),
            Bound::Excluded(s) => tree.position_at_or_after(s, true),
        };
        Range {
            tree,
            leaf,
            idx,
            end: bounds.end_bound().cloned(),
        }
    }

    fn within_end(&self, key: &K) -> bool {
        match &self.end {
            Bound::Unbounded => true,
            Bound::Included(e) => key <= e,
            Bound::Excluded(e) => key < e,
        }
    }
}

impl<'a, K: Ord + Clone, V: Clone> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.leaf == NIL {
                return None;
            }
            match self.tree.node(self.leaf) {
                Node::Leaf {
                    keys, values, next, ..
                } => {
                    if self.idx < keys.len() {
                        let k = &keys[self.idx];
                        if !self.within_end(k) {
                            self.leaf = NIL;
                            return None;
                        }
                        let v = &values[self.idx];
                        self.idx += 1;
                        return Some((k, v));
                    }
                    // Exhausted this leaf; move along the chain. An
                    // empty root leaf terminates via `next == NIL`.
                    self.leaf = *next;
                    self.idx = 0;
                }
                _ => unreachable!("leaf chain reached a non-leaf"),
            }
        }
    }
}

impl<K: Ord + Clone, V: Clone> BPlusTree<K, V> {
    /// Finds the position of the first entry `>= key` (or `> key` when
    /// `exclusive`), as a `(leaf, index)` pair; the index may be one
    /// past the end of the leaf, which the iterator normalises.
    pub(crate) fn position_at_or_after(&self, key: &K, exclusive: bool) -> (u32, usize) {
        let leaf = self.find_leaf(key);
        match self.node(leaf) {
            Node::Leaf { keys, .. } => {
                let idx = if exclusive {
                    hinted_partition_point(keys, |k| k <= key)
                } else {
                    hinted_partition_point(keys, |k| k < key)
                };
                (leaf, idx)
            }
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_on_empty_tree() {
        let t: BPlusTree<u32, ()> = BPlusTree::new();
        assert_eq!(t.range(..).count(), 0);
        assert_eq!(t.range(5..100).count(), 0);
    }

    #[test]
    fn start_bound_beyond_last_key() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..20u32 {
            t.insert(i, ());
        }
        assert_eq!(t.range(25..).count(), 0);
        assert_eq!(t.range(19..).count(), 1);
    }

    #[test]
    fn excluded_start_at_leaf_boundary() {
        let mut t = BPlusTree::with_order(3);
        for i in 0..30u32 {
            t.insert(i, ());
        }
        use std::ops::Bound;
        for s in 0..30u32 {
            let got: Vec<u32> = t
                .range((Bound::Excluded(s), Bound::Unbounded))
                .map(|(k, _)| *k)
                .collect();
            let want: Vec<u32> = (s + 1..30).collect();
            assert_eq!(got, want, "excluded start {s}");
        }
    }

    #[test]
    fn iterator_crosses_many_leaves() {
        let mut t = BPlusTree::with_order(3);
        for i in 0..200u32 {
            t.insert(i, i);
        }
        let all: Vec<u32> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }
}
