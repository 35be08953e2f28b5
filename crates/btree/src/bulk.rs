//! Bulk loading: building a B+tree from sorted input in one pass.
//!
//! Index creation (paper Figure 7) produces all entries before the
//! tree is ever queried, so instead of `n` random root-to-leaf inserts
//! the creation path sorts its entries and packs leaves sequentially —
//! the standard bulk-load of database practice. Leaves are filled to
//! capacity; the final node of every level is rebalanced against its
//! left neighbour so the ordinary occupancy invariants hold and later
//! point updates behave identically to an insert-built tree.

use crate::node::{Node, NIL};
use crate::summary::Summary;
use crate::tree::BPlusTree;

impl<K: Ord + Clone, V: Clone> BPlusTree<K, V> {
    /// Builds a tree from strictly increasing `(key, value)` pairs
    /// using [`crate::DEFAULT_ORDER`].
    ///
    /// # Panics
    /// Panics if keys are not strictly increasing.
    pub fn from_sorted_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Self::from_sorted_iter_with_order(crate::DEFAULT_ORDER, iter)
    }

    /// Builds a tree of the given order from strictly increasing
    /// `(key, value)` pairs.
    ///
    /// # Panics
    /// Panics if `order < 3` or keys are not strictly increasing.
    pub fn from_sorted_iter_with_order<I: IntoIterator<Item = (K, V)>>(
        order: usize,
        iter: I,
    ) -> Self {
        let (keys, values): (Vec<K>, Vec<V>) = iter.into_iter().unzip();
        Self::from_sorted_slices_with_order(order, &keys, &values)
    }

    /// Builds a tree from a strictly increasing key run and its
    /// parallel value run, using [`crate::DEFAULT_ORDER`]. Each leaf
    /// is cut from the runs as one slice copy.
    ///
    /// # Panics
    /// Panics if the runs differ in length or keys are not strictly
    /// increasing.
    pub fn from_sorted_slices(keys: &[K], values: &[V]) -> Self {
        Self::from_sorted_slices_with_order(crate::DEFAULT_ORDER, keys, values)
    }

    fn from_sorted_slices_with_order(order: usize, keys: &[K], values: &[V]) -> Self {
        assert_eq!(keys.len(), values.len(), "one value per key");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "bulk load requires strictly increasing keys"
        );
        let mut tree = BPlusTree::with_order(order);
        let n = keys.len();
        if n == 0 {
            return tree; // stays the empty single-leaf tree
        }
        let min = order / 2;

        // ---- leaf level -----------------------------------------------------
        // Full leaves, except that an underfull last leaf takes enough
        // entries from its left neighbour to reach minimum occupancy.
        let mut cuts: Vec<usize> = (0..n).step_by(order).collect();
        let tail = n - cuts[cuts.len() - 1];
        if cuts.len() > 1 && tail < min {
            let last = cuts.len() - 1;
            cuts[last] -= min - tail;
        }
        // `level` holds (node id, first key of its subtree).
        let mut level: Vec<(u32, K)> = Vec::with_capacity(cuts.len());
        let mut prev = NIL;
        for (i, &lo) in cuts.iter().enumerate() {
            let hi = cuts.get(i + 1).copied().unwrap_or(n);
            let id = tree.alloc_node(Node::Leaf {
                keys: keys[lo..hi].to_vec().into(),
                values: values[lo..hi].to_vec().into(),
                next: NIL,
                prev,
            });
            if prev != NIL {
                tree.set_leaf_next(prev, id);
            }
            level.push((id, keys[lo].clone()));
            prev = id;
        }

        // ---- internal levels -------------------------------------------------
        let max_children = order + 1;
        let min_children = min + 1;
        while level.len() > 1 {
            let mut next: Vec<(u32, K)> = Vec::new();
            let mut i = 0;
            while i < level.len() {
                let remaining = level.len() - i;
                // Take a full group, but leave enough for the final
                // group to reach minimum occupancy.
                let take = if remaining <= max_children {
                    remaining
                } else if remaining - max_children < min_children {
                    remaining - min_children
                } else {
                    max_children
                };
                let group = &level[i..i + take];
                let children: Vec<u32> = group.iter().map(|(id, _)| *id).collect();
                let keys: Vec<K> = group[1..].iter().map(|(_, k)| k.clone()).collect();
                // Children were built bottom-up and are final, so their
                // summaries can be folded up right here.
                let summaries: Vec<Summary<K>> =
                    children.iter().map(|&c| tree.node_summary(c)).collect();
                let first = group[0].1.clone();
                let id = tree.alloc_node(Node::Internal {
                    keys,
                    children,
                    summaries,
                });
                next.push((id, first));
                i += take;
            }
            level = next;
        }

        let (root, _) = level.pop().expect("at least one node");
        tree.replace_root(root, n);
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(n: usize, order: usize) {
        let t: BPlusTree<u32, u32> =
            BPlusTree::from_sorted_iter_with_order(order, (0..n as u32).map(|i| (i, i * 2)));
        t.check_invariants()
            .unwrap_or_else(|e| panic!("n={n}, order={order}: {e}"));
        assert_eq!(t.len(), n);
        let all: Vec<u32> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
        for probe in [0usize, n / 3, n.saturating_sub(1)] {
            if n > 0 {
                assert_eq!(t.get(&(probe as u32)), Some(&(probe as u32 * 2)));
            }
        }
    }

    #[test]
    fn bulk_load_all_sizes_and_orders() {
        for order in [3, 4, 5, 8, 32] {
            for n in [0usize, 1, 2, 3, 7, 31, 32, 33, 63, 64, 65, 1000, 4097] {
                check(n, order);
            }
        }
    }

    #[test]
    fn bulk_loaded_tree_supports_all_mutations() {
        let mut t: BPlusTree<u32, ()> =
            BPlusTree::from_sorted_iter_with_order(4, (0..500u32).map(|i| (i * 2, ())));
        // Point inserts between bulk keys, removals of bulk keys.
        for i in 0..500u32 {
            t.insert(i * 2 + 1, ());
            t.check_invariants().unwrap();
        }
        for i in 0..500u32 {
            assert_eq!(t.remove(&(i * 2)), Some(()));
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn bulk_load_matches_insert_built_tree() {
        let keys: Vec<u32> = (0..2000).map(|i| i * 3).collect();
        let bulk: BPlusTree<u32, u32> = BPlusTree::from_sorted_iter(keys.iter().map(|&k| (k, k)));
        let mut incr: BPlusTree<u32, u32> = BPlusTree::new();
        for &k in &keys {
            incr.insert(k, k);
        }
        let a: Vec<(u32, u32)> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<(u32, u32)> = incr.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
        // Range scans agree too.
        let ra: Vec<u32> = bulk.range(100..200).map(|(k, _)| *k).collect();
        let rb: Vec<u32> = incr.range(100..200).map(|(k, _)| *k).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_input() {
        let _: BPlusTree<u32, ()> = BPlusTree::from_sorted_iter([(2, ()), (1, ())]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_duplicate_keys() {
        let _: BPlusTree<u32, ()> = BPlusTree::from_sorted_iter([(1, ()), (1, ())]);
    }
}
