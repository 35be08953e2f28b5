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
    /// `hash raw << 32 | node arena index → ()`: ordered like the pair
    /// `(hash, node)`.
    tree: BPlusTree<u64, ()>,
    /// Raw hash word per arena slot. Slots that are not indexed (freed
    /// nodes, comments, PIs) hold [`NO_HASH`].
    hashes: PagedVec<u32>,
    /// During initial creation, annotations accumulate in this plain
    /// column only (no per-slot copy-on-write check); the tree and
    /// `hashes` are built from it once at the end.
    staged: Option<Vec<u32>>,
}

/// The raw word of a slot without a hash. Its offset field (31) lies
/// outside `0..27`, so no hash has it and [`HashValue::from_raw`]
/// decodes it as `None`.
const NO_HASH: u32 = u32::MAX;

/// The tree key of `node`'s entry under `hash`.
fn key(hash: HashValue, node: NodeId) -> u64 {
    u64::from(hash.raw()) << 32 | node.index() as u64
}

/// Every tree key under `hash`.
fn keys_of(hash: HashValue) -> std::ops::RangeInclusive<u64> {
    let lo = u64::from(hash.raw()) << 32;
    lo..=lo | u64::from(u32::MAX)
}

impl StringIndex {
    /// Creates an empty index sized for `arena_size` slots.
    pub fn new(arena_size: usize) -> StringIndex {
        let mut hashes = PagedVec::new();
        hashes.resize(arena_size, NO_HASH);
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
            staged: Some(vec![NO_HASH; arena_size]),
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
        self.tree = BPlusTree::from_sorted_slices(&keys, &vec![(); keys.len()]);
        self.hashes = column.into_iter().collect();
    }

    fn slot(&mut self, node: NodeId) -> &mut u32 {
        if node.index() >= self.hashes.len() {
            self.hashes.resize(node.index() + 1, NO_HASH);
        }
        &mut self.hashes[node.index()]
    }

    /// The stored hash annotation of `node`, if it is indexed.
    pub fn hash_of(&self, node: NodeId) -> Option<HashValue> {
        HashValue::from_raw(*self.hashes.get(node.index())?)
    }

    /// Inserts or replaces the hash annotation of `node`, keeping the
    /// B+tree in sync. No-op if the hash is unchanged.
    pub fn set(&mut self, node: NodeId, hash: HashValue) {
        if let Some(column) = &mut self.staged {
            let i = node.index();
            if i >= column.len() {
                column.resize(i + 1, NO_HASH);
            }
            column[i] = hash.raw();
            return;
        }
        let old = HashValue::from_raw(*self.slot(node));
        if old == Some(hash) {
            return;
        }
        if let Some(h) = old {
            self.tree.remove(&key(h, node));
        }
        self.tree.insert(key(hash, node), ());
        *self.slot(node) = hash.raw();
    }

    /// Removes `node` from the index entirely (subtree deletion).
    pub fn remove(&mut self, node: NodeId) {
        let raw = std::mem::replace(self.slot(node), NO_HASH);
        if let Some(h) = HashValue::from_raw(raw) {
            self.tree.remove(&key(h, node));
        }
    }

    /// All candidate nodes whose string value hashes to `hash`.
    /// Candidates may contain false positives (hash collisions); the
    /// caller verifies against actual string values.
    pub fn candidates(&self, hash: HashValue) -> Vec<NodeId> {
        self.tree
            .range(keys_of(hash))
            .map(|(&k, ())| NodeId::from_index(k as u32 as usize))
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
        self.tree.approx_bytes() + self.hashes.len() * std::mem::size_of::<u32>()
    }

    /// **Exact** candidate count of an equality probe for `hash`,
    /// answered in O(log n) node visits from the B+tree's interior
    /// monoid summaries (see [`BPlusTree::count_range`]) — never by
    /// scanning the matching leaf run. The count covers *candidates*
    /// (hash matches before string verification), the same population
    /// [`StringIndex::candidates`] returns.
    pub fn estimate_equi(&self, hash: HashValue) -> CardinalityEstimate {
        CardinalityEstimate::exact(self.tree.count_range(keys_of(hash)))
    }

    /// Every indexed `(raw hash, node)` entry in key order: the whole
    /// content of the hash B+tree, for comparing two indexes.
    pub fn entries(&self) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        self.tree
            .iter()
            .map(|(&k, ())| ((k >> 32) as u32, NodeId::from_index(k as u32 as usize)))
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

/// Bits per pass of [`sorted_keys`]' radix sort: 2048 buckets keep
/// every pass's scatter targets in cache.
const RADIX_BITS: u32 = 11;
const RADIX: usize = 1 << RADIX_BITS;

/// The radix digit of a tree key in `pass`.
fn digit(key: u64, pass: u32) -> usize {
    (key >> (32 + pass * RADIX_BITS)) as usize % RADIX
}

/// The tree keys of an annotation column in ascending order.
///
/// Reading the column in slot order yields the keys sorted by node, so
/// a stable LSD radix sort on the 32 hash bits — three passes of
/// [`RADIX_BITS`] — leaves them sorted by `(hash, node)`.
fn sorted_keys(column: &[u32]) -> Vec<u64> {
    let mut keys: Vec<u64> = column
        .iter()
        .enumerate()
        .filter(|&(_, &raw)| raw != NO_HASH)
        .map(|(i, &raw)| u64::from(raw) << 32 | i as u64)
        .collect();
    let mut next = [[0u32; RADIX]; 3];
    for &k in &keys {
        for (pass, counts) in next.iter_mut().enumerate() {
            counts[digit(k, pass as u32)] += 1;
        }
    }
    let mut scratch = vec![0u64; keys.len()];
    for (pass, next) in next.iter_mut().enumerate() {
        let mut start = 0;
        for slot in next.iter_mut() {
            let n = *slot;
            *slot = start;
            start += n;
        }
        for &k in &keys {
            let d = digit(k, pass as u32);
            scratch[next[d] as usize] = k;
            next[d] += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
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
