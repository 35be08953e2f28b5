//! The string equi-lookup index (paper §3).
//!
//! One B+tree over composite keys `(hash, node)` — the database idiom
//! for a multimap — plus a columnar hash annotation per arena slot.
//! The annotation array is what makes updates cheap: recombining an
//! ancestor reads its children's *stored* hashes, never their strings.

use xvi_btree::{BPlusTree, PagedVec, TreeStats};
use xvi_hash::HashValue;
use xvi_xml::NodeId;

use crate::stats::CardinalityEstimate;

/// The hash B+tree and per-node hash annotations.
///
/// Both parts are paged with copy-on-write structural sharing, so
/// cloning the index (the service's snapshot publish path) is O(pages)
/// pointer bumps and a mutated clone copies only the touched pages.
///
/// A write touches only the tree and the column: the tree's interior
/// monoid summaries already answer [`StringIndex::estimate_equi`]
/// exactly, so no statistics are maintained beside them.
#[derive(Debug, Default, Clone)]
pub struct StringIndex {
    /// `(hash raw, node arena index) → ()`.
    tree: BPlusTree<(u32, u32), ()>,
    /// Hash annotation per arena slot. Slots that are not indexed
    /// (freed nodes, comments, PIs) hold `None`.
    hashes: PagedVec<Option<HashValue>>,
    /// During initial creation, annotations accumulate in this plain
    /// column only (no per-slot copy-on-write check); the tree and
    /// `hashes` are built from it once at the end.
    staged: Option<Vec<Option<HashValue>>>,
}

impl StringIndex {
    /// Creates an empty index sized for `arena_size` slots.
    pub fn new(arena_size: usize) -> StringIndex {
        let mut hashes = PagedVec::new();
        hashes.resize(arena_size, None);
        StringIndex {
            tree: BPlusTree::new(),
            hashes,
            staged: None,
        }
    }

    /// Creates an empty index in bulk-creation mode:
    /// [`StringIndex::set`] fills only a plain annotation column until
    /// [`StringIndex::finish_bulk`].
    pub(crate) fn for_bulk(arena_size: usize) -> StringIndex {
        StringIndex {
            staged: Some(vec![None; arena_size]),
            ..StringIndex::default()
        }
    }

    /// Ends bulk-creation mode: sorts the staged `(hash, node)` keys
    /// once and bulk-loads the tree from the sorted run, then converts
    /// the staged column into the copy-on-write annotation column page
    /// by page.
    pub(crate) fn finish_bulk(&mut self) {
        let column = self.staged.take().expect("for_bulk first");
        let keys = sorted_keys(&column);
        self.tree = BPlusTree::from_sorted_iter(
            keys.into_iter().map(|k| (((k >> 32) as u32, k as u32), ())),
        );
        self.hashes = column.into_iter().collect();
    }

    fn slot(&mut self, node: NodeId) -> &mut Option<HashValue> {
        if node.index() >= self.hashes.len() {
            self.hashes.resize(node.index() + 1, None);
        }
        &mut self.hashes[node.index()]
    }

    /// The stored hash annotation of `node`, if it is indexed.
    pub fn hash_of(&self, node: NodeId) -> Option<HashValue> {
        self.hashes.get(node.index()).copied().flatten()
    }

    /// Inserts or replaces the hash annotation of `node`, keeping the
    /// B+tree in sync. No-op if the hash is unchanged.
    pub fn set(&mut self, node: NodeId, hash: HashValue) {
        if let Some(column) = &mut self.staged {
            let i = node.index();
            if i >= column.len() {
                column.resize(i + 1, None);
            }
            column[i] = Some(hash);
            return;
        }
        let old = *self.slot(node);
        if old == Some(hash) {
            return;
        }
        if let Some(h) = old {
            self.tree.remove(&(h.raw(), node.index() as u32));
        }
        self.tree.insert((hash.raw(), node.index() as u32), ());
        *self.slot(node) = Some(hash);
    }

    /// Removes `node` from the index entirely (subtree deletion).
    pub fn remove(&mut self, node: NodeId) {
        if let Some(h) = self.slot(node).take() {
            self.tree.remove(&(h.raw(), node.index() as u32));
        }
    }

    /// All candidate nodes whose string value hashes to `hash`.
    /// Candidates may contain false positives (hash collisions); the
    /// caller verifies against actual string values.
    pub fn candidates(&self, hash: HashValue) -> Vec<NodeId> {
        self.tree
            .range((hash.raw(), 0)..=(hash.raw(), u32::MAX))
            .map(|(&(_, n), ())| NodeId::from_index(n as usize))
            .collect()
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Approximate heap bytes: tree structure + annotation column.
    pub fn approx_bytes(&self) -> usize {
        self.tree.approx_bytes() + self.hashes.len() * std::mem::size_of::<Option<HashValue>>()
    }

    /// **Exact** candidate count of an equality probe for `hash`,
    /// answered in O(log n) node visits from the B+tree's interior
    /// monoid summaries (see [`BPlusTree::count_range`]) — never by
    /// scanning the matching leaf run. The count covers *candidates*
    /// (hash matches before string verification), the same population
    /// [`StringIndex::candidates`] returns.
    pub fn estimate_equi(&self, hash: HashValue) -> CardinalityEstimate {
        CardinalityEstimate::exact(
            self.tree
                .count_range((hash.raw(), 0)..=(hash.raw(), u32::MAX)),
        )
    }

    /// Order-sensitive hash of the tree's full `(hash, node)` key
    /// sequence, maintained in the root's monoid summaries; equal
    /// hashes mean (with 64-bit confidence) identical indexed content.
    pub fn root_hash(&self) -> u64 {
        self.tree.subtree_hash()
    }

    /// Storage statistics of the hash B+tree (pages, shared pages,
    /// free slots).
    pub fn tree_stats(&self) -> TreeStats {
        self.tree.stats()
    }

    /// Cumulative COW page detaches of the hash B+tree (O(1)).
    pub fn pages_detached(&self) -> u64 {
        self.tree.pages_detached()
    }
}

/// The `(hash, node)` keys of an annotation column in ascending order,
/// packed as `hash << 32 | node`.
///
/// Reading the column in slot order yields the keys sorted by node, so
/// a stable LSD radix sort on the 32 hash bits — two passes of 16 bits
/// — leaves them sorted by `(hash, node)`.
fn sorted_keys(column: &[Option<HashValue>]) -> Vec<u64> {
    const RADIX: usize = 1 << 16;
    let mut keys: Vec<u64> = column
        .iter()
        .enumerate()
        .filter_map(|(i, h)| h.map(|h| u64::from(h.raw()) << 32 | i as u64))
        .collect();
    let mut low = vec![0u32; RADIX];
    let mut high = vec![0u32; RADIX];
    for &k in &keys {
        low[(k >> 32) as usize % RADIX] += 1;
        high[(k >> 48) as usize] += 1;
    }
    let mut out = vec![0u64; keys.len()];
    for (shift, mut next) in [(32, low), (48, high)] {
        let mut start = 0;
        for slot in next.iter_mut() {
            let n = *slot;
            *slot = start;
            start += n;
        }
        for &k in &keys {
            let digit = (k >> shift) as usize % RADIX;
            out[next[digit] as usize] = k;
            next[digit] += 1;
        }
        std::mem::swap(&mut keys, &mut out);
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvi_hash::hash_str;

    #[test]
    fn set_lookup_remove() {
        let mut idx = StringIndex::new(8);
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        let h = hash_str("Arthur");
        idx.set(n1, h);
        idx.set(n2, h);
        assert_eq!(idx.candidates(h), vec![n1, n2]);
        assert_eq!(idx.hash_of(n1), Some(h));
        idx.remove(n1);
        assert_eq!(idx.candidates(h), vec![n2]);
        assert_eq!(idx.hash_of(n1), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn replacing_a_hash_removes_the_old_entry() {
        let mut idx = StringIndex::new(4);
        let n = NodeId::from_index(1);
        let h1 = hash_str("Dent");
        let h2 = hash_str("Prefect");
        idx.set(n, h1);
        idx.set(n, h2);
        assert!(idx.candidates(h1).is_empty());
        assert_eq!(idx.candidates(h2), vec![n]);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn unchanged_set_is_a_noop() {
        let mut idx = StringIndex::new(4);
        let n = NodeId::from_index(1);
        let h = hash_str("same");
        idx.set(n, h);
        idx.set(n, h);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.candidates(h), vec![n]);
    }

    #[test]
    fn grows_beyond_initial_arena() {
        let mut idx = StringIndex::new(1);
        let n = NodeId::from_index(100);
        idx.set(n, hash_str("x"));
        assert_eq!(idx.hash_of(n), Some(hash_str("x")));
    }
}
