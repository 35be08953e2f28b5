//! Cardinality estimates — the planner's eyes.
//!
//! Every estimator returns a [`CardinalityEstimate`] carrying a point
//! estimate **and guaranteed bounds**: the true candidate count of the
//! corresponding probe always lies in `[lower, upper]`. Two sources
//! answer them:
//!
//! * The tree-backed indexes (string equi-index, typed range indexes)
//!   keep no statistics of their own. Their B+trees' interior monoid
//!   summaries answer an equality or range probe **exactly** through
//!   `BPlusTree::count_range` (`lower == estimate == upper`), so
//!   writes maintain nothing beyond the trees themselves.
//! * [`QGramTable`] — for the trigram substring index: a frequency
//!   table `trigram → posting count`, stored in a copy-on-write
//!   [`BPlusTree`] so service snapshots share it structurally. Its
//!   `contains`/wildcard estimates are bounded, not exact.
//!
//! The bounds are what the maintenance property tests pin down, and
//! the gap between `estimate` and the actual count is what
//! [`QueryEngine::explain`](crate::QueryEngine::explain) surfaces.

use xvi_btree::BPlusTree;

/// A cardinality estimate with guaranteed bounds: the true candidate
/// count of the estimated probe lies in `[lower, upper]`, and
/// `estimate` is the planner's point guess inside that interval.
///
/// ```
/// use xvi_index::{CardinalityEstimate, Document, IndexConfig, IndexManager, Lookup};
///
/// let doc = Document::parse("<r><a>7</a><a>7</a><b>hi</b></r>").unwrap();
/// let idx = IndexManager::build(&doc, IndexConfig::default());
/// let est = idx.estimate(&Lookup::range_f64(0.0..10.0)).unwrap();
/// // Four candidates hold the value 7: both <a> elements and their
/// // text nodes. A tree-backed probe is counted exactly.
/// assert_eq!(est, CardinalityEstimate::exact(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardinalityEstimate {
    /// Point estimate of the candidate count.
    pub estimate: usize,
    /// Guaranteed lower bound on the candidate count.
    pub lower: usize,
    /// Guaranteed upper bound on the candidate count.
    pub upper: usize,
}

impl CardinalityEstimate {
    /// An exactly known cardinality (`lower == estimate == upper`).
    pub fn exact(n: usize) -> CardinalityEstimate {
        CardinalityEstimate {
            estimate: n,
            lower: n,
            upper: n,
        }
    }

    /// The empty estimate (exactly zero candidates).
    pub fn empty() -> CardinalityEstimate {
        CardinalityEstimate::exact(0)
    }

    /// An estimate whose bounds carry no information: anything from
    /// zero to everything. Used where a sound finite bound cannot be
    /// derived (e.g. whole-query estimates, whose results can fan out
    /// beyond any value probe's candidates).
    pub fn unbounded(estimate: usize) -> CardinalityEstimate {
        CardinalityEstimate {
            estimate,
            lower: 0,
            upper: usize::MAX,
        }
    }

    /// Component-wise (saturating) sum — the estimate of a fan-out
    /// over independent indexes (e.g. one per document of a
    /// [`ServiceSnapshot`](crate::ServiceSnapshot)).
    pub fn sum(self, other: CardinalityEstimate) -> CardinalityEstimate {
        CardinalityEstimate {
            estimate: self.estimate.saturating_add(other.estimate),
            lower: self.lower.saturating_add(other.lower),
            upper: self.upper.saturating_add(other.upper),
        }
    }
}

impl std::fmt::Display for CardinalityEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.lower == self.upper {
            write!(f, "={}", self.estimate)
        } else if self.upper == usize::MAX {
            write!(f, "~{} [{}, ∞)", self.estimate, self.lower)
        } else {
            write!(f, "~{} [{}, {}]", self.estimate, self.lower, self.upper)
        }
    }
}

// ----- substring index -----------------------------------------------------

/// Q-gram (trigram) frequency table of the substring index:
/// `trigram → posting count`, plus the indexed-node population.
///
/// The counts live in a copy-on-write [`BPlusTree`], so cloning the
/// table (every service snapshot publish) is O(pages) pointer bumps,
/// matching the posting tree it mirrors.
#[derive(Debug, Clone, Default)]
pub struct QGramTable {
    counts: BPlusTree<u32, u32>,
    total: u64,
}

impl QGramTable {
    /// Rebuilds from a `(trigram, node)`-sorted, deduplicated posting
    /// run (the substring index's bulk-load input).
    pub(crate) fn rebuild_from_sorted(&mut self, grams: impl IntoIterator<Item = u32>) {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut total = 0u64;
        for g in grams {
            total += 1;
            match runs.last_mut() {
                Some((cur, n)) if *cur == g => *n += 1,
                _ => runs.push((g, 1)),
            }
        }
        self.counts = BPlusTree::from_sorted_iter(runs);
        self.total = total;
    }

    /// Records one new posting for `gram`.
    pub(crate) fn note_add(&mut self, gram: u32) {
        let c = self.counts.get(&gram).copied().unwrap_or(0);
        self.counts.insert(gram, c + 1);
        self.total += 1;
    }

    /// Records one removed posting for `gram`.
    pub(crate) fn note_remove(&mut self, gram: u32) {
        match self.counts.get(&gram).copied() {
            Some(c) if c > 1 => {
                self.counts.insert(gram, c - 1);
            }
            Some(_) => {
                self.counts.remove(&gram);
            }
            None => return,
        }
        self.total = self.total.saturating_sub(1);
    }

    /// Posting count of one packed trigram.
    pub fn gram_count(&self, gram: u32) -> usize {
        self.counts.get(&gram).copied().unwrap_or(0) as usize
    }

    /// Number of distinct trigrams.
    pub fn distinct_grams(&self) -> usize {
        self.counts.len()
    }

    /// Total postings across all trigrams.
    pub fn total_postings(&self) -> usize {
        self.total as usize
    }

    /// Estimates the candidate count of a `contains` probe.
    ///
    /// Every match contains each of the needle's trigrams, and the
    /// candidate set is drawn from the rarest posting list, so the
    /// minimum posting count bounds the candidates from above — unless
    /// every trigram is *common* (posting list at least `common_cap`
    /// long — the exact point where the executor abandons the list),
    /// in which case the probe degenerates to verifying all `indexed`
    /// nodes. Needles shorter than one trigram carry no filter at all.
    pub fn estimate_contains(
        &self,
        needle: &str,
        common_cap: usize,
        indexed: usize,
    ) -> CardinalityEstimate {
        let grams: Vec<u32> = crate::substring::trigrams(needle).into_iter().collect();
        if grams.is_empty() {
            return CardinalityEstimate {
                estimate: indexed,
                lower: 0,
                upper: indexed,
            };
        }
        let min = grams
            .iter()
            .map(|&g| self.gram_count(g))
            .min()
            .expect("non-empty gram set");
        if min == 0 {
            return CardinalityEstimate::empty();
        }
        if min >= common_cap {
            // Every trigram is common (the executor abandons a list
            // once it reaches the cap): the probe verifies all
            // indexed nodes.
            return CardinalityEstimate {
                estimate: indexed,
                lower: 0,
                upper: indexed,
            };
        }
        CardinalityEstimate {
            estimate: min,
            lower: 0,
            upper: min,
        }
    }

    /// Estimates the candidate count of a wildcard probe from its
    /// longest literal run (the filter
    /// [`SubstringIndex::matches_wildcard`](crate::SubstringIndex::matches_wildcard)
    /// uses).
    pub fn estimate_wildcard(
        &self,
        pattern: &str,
        common_cap: usize,
        indexed: usize,
    ) -> CardinalityEstimate {
        let filter = crate::substring::wildcard_filter(pattern);
        if filter.len() >= 3 {
            self.estimate_contains(filter, common_cap, indexed)
        } else {
            CardinalityEstimate {
                estimate: indexed,
                lower: 0,
                upper: indexed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qgram_table_counts_round_trip() {
        let mut t = QGramTable::default();
        t.rebuild_from_sorted([1u32, 1, 2]);
        assert_eq!(t.gram_count(1), 2);
        assert_eq!(t.distinct_grams(), 2);
        t.note_add(1);
        t.note_remove(2);
        assert_eq!(t.gram_count(1), 3);
        assert_eq!(t.gram_count(2), 0);
        assert_eq!(t.total_postings(), 3);
    }

    #[test]
    fn contains_estimate_uses_rarest_gram() {
        let mut t = QGramTable::default();
        // "abc" = one trigram; "bcd" another.
        let abc = crate::substring::trigrams("abc")
            .into_iter()
            .next()
            .unwrap();
        for _ in 0..5 {
            t.note_add(abc);
        }
        let est = t.estimate_contains("abc", 4096, 100);
        assert_eq!(est.upper, 5);
        // A needle with an unseen trigram is provably empty.
        assert_eq!(
            t.estimate_contains("abcd", 4096, 100),
            CardinalityEstimate::empty()
        );
        // Short needles carry no filter.
        assert_eq!(t.estimate_contains("ab", 4096, 100).upper, 100);
    }
}
