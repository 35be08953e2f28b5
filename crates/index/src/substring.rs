//! Substring and wildcard lookup — the paper's announced future work
//! ("we intend to expand our work by designing indices capable of
//! answering queries that involve substring matching and regular
//! expressions", §7) — implemented the way databases usually do it:
//! a **trigram index**.
//!
//! Every directly stored value (text and attribute nodes) contributes
//! its distinct byte trigrams to a B+tree multimap `trigram → node`.
//! A `contains` query intersects the candidate sets of the needle's
//! trigrams (rarest first) and verifies candidates against the actual
//! values — the same candidates-then-verify discipline as the hash
//! equi-index, so results are exact. Wildcard patterns (`*`/`?`) are
//! served by extracting their literal runs as trigram filters.
//!
//! Scope: substring search addresses *stored* values, not concatenated
//! element string values (a substring of a concatenation may span node
//! boundaries; supporting that efficiently is an open problem the
//! paper leaves open too).

use std::collections::HashSet;

use xvi_btree::{BPlusTree, PagedVec, TreeStats};
use xvi_xml::{Document, NodeId, NodeKind};

use crate::stats::{CardinalityEstimate, QGramTable};

/// A trigram index over the directly stored node values.
///
/// Both the posting tree and the membership column are paged with
/// copy-on-write structural sharing, so cloning the index (the
/// service's snapshot publish path) is O(pages) pointer bumps.
///
/// A [`QGramTable`] of per-trigram posting counts is maintained
/// alongside the tree (every posting insert/remove mirrored), powering
/// [`SubstringIndex::estimate_contains`] /
/// [`SubstringIndex::estimate_wildcard`].
#[derive(Debug, Default, Clone)]
pub struct SubstringIndex {
    /// `(packed trigram, node) → ()`.
    tree: BPlusTree<(u32, u32), ()>,
    /// Membership column: `present[i]` iff arena slot `i` holds an
    /// indexed value (needed for short-needle scans and fallbacks).
    present: PagedVec<bool>,
    /// Number of `true` entries in `present`.
    indexed: usize,
    /// Per-trigram posting counts, mirroring the tree.
    grams: QGramTable,
}

/// Packs three bytes into the B+tree key space.
#[inline]
fn pack(b: &[u8]) -> u32 {
    (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2])
}

/// Distinct trigrams of a value.
pub(crate) fn trigrams(s: &str) -> HashSet<u32> {
    s.as_bytes().windows(3).map(pack).collect()
}

/// The longest literal run of a wildcard pattern — the filter both
/// [`SubstringIndex::matches_wildcard`] executes with and
/// [`QGramTable`] costs, kept in one place so the estimator can never
/// silently diverge from the matcher.
pub(crate) fn wildcard_filter(pattern: &str) -> &str {
    pattern
        .split(['*', '?'])
        .max_by_key(|lit| lit.len())
        .unwrap_or("")
}

impl SubstringIndex {
    /// Builds the index over all text and attribute nodes of `doc`.
    pub fn build(doc: &Document) -> SubstringIndex {
        let mut entries: Vec<(u32, u32)> = Vec::new();
        let mut idx = SubstringIndex::default();
        let mut add = |node: NodeId, value: &str, idx: &mut SubstringIndex| {
            idx.mark_present(node);
            for t in trigrams(value) {
                entries.push((t, node.index() as u32));
            }
        };
        for n in doc.descendants(doc.document_node()) {
            match doc.kind(n) {
                NodeKind::Text(t) => add(n, t, &mut idx),
                NodeKind::Element(_) => {
                    for a in doc.attributes(n) {
                        if let NodeKind::Attribute { value, .. } = doc.kind(a) {
                            add(a, value, &mut idx);
                        }
                    }
                }
                _ => {}
            }
        }
        entries.sort_unstable();
        entries.dedup();
        idx.grams
            .rebuild_from_sorted(entries.iter().map(|&(t, _)| t));
        idx.tree = BPlusTree::from_sorted_iter(entries.into_iter().map(|k| (k, ())));
        idx
    }

    /// Flags `node` as indexed, growing the membership column on
    /// demand.
    fn mark_present(&mut self, node: NodeId) {
        if node.index() >= self.present.len() {
            self.present.resize(node.index() + 1, false);
        }
        let slot = &mut self.present[node.index()];
        if !*slot {
            *slot = true;
            self.indexed += 1;
        }
    }

    /// All indexed nodes, in arena order.
    fn indexed_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.present.len())
            .filter(|&i| self.present[i])
            .map(NodeId::from_index)
    }

    /// Registers a new node value (insertion or update half).
    pub(crate) fn add_value(&mut self, node: NodeId, value: &str) {
        self.mark_present(node);
        for t in trigrams(value) {
            if self.tree.insert((t, node.index() as u32), ()).is_none() {
                self.grams.note_add(t);
            }
        }
    }

    /// Unregisters a node value (deletion or update half).
    pub(crate) fn remove_value(&mut self, node: NodeId, old_value: &str) {
        if let Some(slot) = self.present.get_mut(node.index()) {
            if *slot {
                *slot = false;
                self.indexed -= 1;
            }
        }
        for t in trigrams(old_value) {
            if self.tree.remove(&(t, node.index() as u32)).is_some() {
                self.grams.note_remove(t);
            }
        }
    }

    /// Replaces a node's value, touching only the changed trigrams.
    pub(crate) fn replace_value(&mut self, node: NodeId, old: &str, new: &str) {
        let old_t = trigrams(old);
        let new_t = trigrams(new);
        for &t in old_t.difference(&new_t) {
            if self.tree.remove(&(t, node.index() as u32)).is_some() {
                self.grams.note_remove(t);
            }
        }
        for &t in new_t.difference(&old_t) {
            if self.tree.insert((t, node.index() as u32), ()).is_none() {
                self.grams.note_add(t);
            }
        }
        self.mark_present(node);
    }

    /// Posting-list size cap: trigrams with more postings than this
    /// are "common" and useless as filters — intersecting them costs
    /// more than verifying candidates from a rarer trigram (or, if
    /// every trigram is common, than scanning the values directly).
    const COMMON_CAP: usize = 4096;

    /// Candidate nodes for one trigram, abandoned (`None`) once the
    /// list exceeds [`Self::COMMON_CAP`].
    fn nodes_with_capped(&self, t: u32) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        for (&(_, n), ()) in self.tree.range((t, 0)..=(t, u32::MAX)) {
            if out.len() >= Self::COMMON_CAP {
                return None;
            }
            out.push(n);
        }
        Some(out)
    }

    /// Exact substring search: all indexed nodes whose value contains
    /// `needle`. Needles shorter than 3 bytes scan the indexed nodes.
    pub fn contains(&self, doc: &Document, needle: &str) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = if needle.len() < 3 {
            self.indexed_iter()
                .filter(|&n| doc.is_live(n))
                .filter(|&n| doc.direct_value(n).is_some_and(|v| v.contains(needle)))
                .collect()
        } else {
            self.candidates(needle)
                .into_iter()
                .filter(|&n| doc.is_live(n))
                .filter(|&n| doc.direct_value(n).is_some_and(|v| v.contains(needle)))
                .collect()
        };
        out.sort();
        out
    }

    /// Unverified candidate set for a needle (≥ 3 bytes): the
    /// intersection of its *rare* trigram posting lists. Common
    /// trigrams are skipped (verification handles the resulting false
    /// positives far cheaper than giant intersections would), and at
    /// most three lists are intersected — after two or three rare
    /// trigrams the candidate set is essentially exact. If every
    /// trigram is common, all indexed nodes are candidates; callers
    /// then verify, which equals a value scan.
    pub fn candidates(&self, needle: &str) -> Vec<NodeId> {
        let tris: Vec<u32> = trigrams(needle).into_iter().collect();
        debug_assert!(!tris.is_empty());
        let mut lists: Vec<Vec<u32>> = tris
            .iter()
            .filter_map(|&t| self.nodes_with_capped(t))
            .collect();
        if lists.is_empty() {
            // Only common trigrams: no useful filter.
            return self.indexed_iter().collect();
        }
        lists.sort_by_key(|l| l.len());
        lists.truncate(3);
        let mut iter = lists.into_iter();
        let first = iter.next().expect("non-empty above");
        let mut current: HashSet<u32> = first.into_iter().collect();
        for list in iter {
            if current.is_empty() {
                break;
            }
            let set: HashSet<u32> = list.into_iter().collect();
            current.retain(|n| set.contains(n));
        }
        current
            .into_iter()
            .map(|n| NodeId::from_index(n as usize))
            .collect()
    }

    /// Wildcard match with `*` (any run) and `?` (any single char).
    /// Literal runs of ≥ 3 bytes become trigram filters; the pattern
    /// itself is verified on every candidate.
    pub fn matches_wildcard(&self, doc: &Document, pattern: &str) -> Vec<NodeId> {
        // Longest literal run usable as an index filter.
        let filter = wildcard_filter(pattern);
        let candidates: Vec<NodeId> = if filter.len() >= 3 {
            self.candidates(filter)
        } else {
            self.indexed_iter().collect()
        };
        let mut out: Vec<NodeId> = candidates
            .into_iter()
            .filter(|&n| doc.is_live(n))
            .filter(|&n| {
                doc.direct_value(n)
                    .is_some_and(|v| wildcard_match(pattern.as_bytes(), v.as_bytes()))
            })
            .collect();
        out.sort();
        out
    }

    /// Number of (trigram, node) postings.
    pub fn postings(&self) -> usize {
        self.tree.len()
    }

    /// Number of indexed value nodes.
    pub fn indexed_nodes(&self) -> usize {
        self.indexed
    }

    /// Approximate heap bytes.
    pub fn approx_bytes(&self) -> usize {
        self.tree.approx_bytes() + self.present.len() * std::mem::size_of::<bool>()
    }

    /// The maintained q-gram frequency table.
    pub fn statistics(&self) -> &QGramTable {
        &self.grams
    }

    /// Estimated candidate count of a `contains` probe for `needle`,
    /// answered from the maintained [`QGramTable`].
    pub fn estimate_contains(&self, needle: &str) -> CardinalityEstimate {
        self.grams
            .estimate_contains(needle, Self::COMMON_CAP, self.indexed)
    }

    /// Estimated candidate count of a wildcard probe for `pattern`.
    pub fn estimate_wildcard(&self, pattern: &str) -> CardinalityEstimate {
        self.grams
            .estimate_wildcard(pattern, Self::COMMON_CAP, self.indexed)
    }

    /// Storage statistics of the posting B+tree.
    pub fn tree_stats(&self) -> TreeStats {
        self.tree.stats()
    }

    /// Cumulative COW page detaches of the posting B+tree (O(1)).
    pub fn pages_detached(&self) -> u64 {
        self.tree.pages_detached()
    }
}

/// Iterative wildcard matcher (`*` = any run, `?` = any byte) — the
/// classic two-pointer algorithm, linear in practice.
fn wildcard_match(pattern: &[u8], text: &[u8]) -> bool {
    let (mut p, mut t) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while t < text.len() {
        if p < pattern.len() && (pattern[p] == b'?' || pattern[p] == text[t]) {
            p += 1;
            t += 1;
        } else if p < pattern.len() && pattern[p] == b'*' {
            star = p;
            mark = t;
            p += 1;
        } else if star != usize::MAX {
            p = star + 1;
            mark += 1;
            t = mark;
        } else {
            return false;
        }
    }
    while p < pattern.len() && pattern[p] == b'*' {
        p += 1;
    }
    p == pattern.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse(
            r#"<library>
                 <book isbn="978-0345391803"><title>The Hitchhikers Guide</title></book>
                 <book isbn="978-0345391810"><title>The Restaurant at the End</title></book>
                 <author>Douglas Adams</author>
                 <note>don't panic</note>
               </library>"#,
        )
        .unwrap()
    }

    fn values_of(doc: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| doc.direct_value(n).unwrap().to_owned())
            .collect()
    }

    #[test]
    fn contains_finds_infixes() {
        let d = doc();
        let idx = SubstringIndex::build(&d);
        let hits = idx.contains(&d, "tchhik");
        assert_eq!(values_of(&d, &hits), vec!["The Hitchhikers Guide"]);
        // Shared infix hits multiple nodes.
        let hits = idx.contains(&d, "The ");
        assert_eq!(hits.len(), 2);
        // Attribute values are covered.
        let hits = idx.contains(&d, "034539181");
        assert_eq!(values_of(&d, &hits), vec!["978-0345391810"]);
        // Absent needle.
        assert!(idx.contains(&d, "zarquon").is_empty());
    }

    #[test]
    fn short_needles_fall_back_to_scan() {
        let d = doc();
        let idx = SubstringIndex::build(&d);
        let hits = idx.contains(&d, "am");
        assert_eq!(values_of(&d, &hits), vec!["Douglas Adams"]);
        let all = idx.contains(&d, "");
        assert_eq!(all.len(), idx.indexed_nodes());
    }

    #[test]
    fn wildcard_patterns() {
        let d = doc();
        let idx = SubstringIndex::build(&d);
        let hits = idx.matches_wildcard(&d, "The*End");
        assert_eq!(values_of(&d, &hits), vec!["The Restaurant at the End"]);
        let hits = idx.matches_wildcard(&d, "978-03453918?0");
        assert_eq!(values_of(&d, &hits), vec!["978-0345391810"]);
        let hits = idx.matches_wildcard(&d, "978-03453918??");
        assert_eq!(hits.len(), 2);
        let hits = idx.matches_wildcard(&d, "*panic*");
        assert_eq!(values_of(&d, &hits), vec!["don't panic"]);
        assert!(idx.matches_wildcard(&d, "The?End").is_empty());
    }

    #[test]
    fn replace_value_keeps_postings_exact() {
        let d = doc();
        let mut idx = SubstringIndex::build(&d);
        let note = idx.contains(&d, "panic")[0];
        idx.replace_value(note, "don't panic", "mostly harmless");
        // Old trigrams gone, new ones findable (we bypassed the doc, so
        // candidates() is the honest check here).
        assert!(idx.candidates("harmless").contains(&note));
        assert!(!idx.candidates("panic").contains(&note));
    }

    #[test]
    fn wildcard_matcher_unit() {
        assert!(wildcard_match(b"*", b"anything"));
        assert!(wildcard_match(b"", b""));
        assert!(!wildcard_match(b"", b"x"));
        assert!(wildcard_match(b"a*b*c", b"aXXbYYc"));
        assert!(!wildcard_match(b"a*b*c", b"aXXcYYb"));
        assert!(wildcard_match(b"?bc", b"abc"));
        assert!(!wildcard_match(b"?bc", b"bc"));
        assert!(wildcard_match(b"ab*", b"ab"));
        assert!(wildcard_match(b"*ab", b"ab"));
    }
}
