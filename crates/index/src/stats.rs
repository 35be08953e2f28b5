//! Per-index cardinality statistics — the planner's eyes.
//!
//! Every index maintains a small statistics structure incrementally
//! (through the same `set`/`remove` paths that [`Transaction`] commits
//! drive) and rebuilds it on bulk creation and catalog load:
//!
//! * [`EquiHistogram`] — for the string equi-index: an equi-width
//!   histogram over the 32-bit hash space (per-bucket entry and
//!   distinct-hash counts) plus an exact **heavy-hitter** table for
//!   hashes whose multiplicity reaches [`EquiHistogram::HEAVY_MIN`].
//!   Any hash *not* in the heavy table therefore has multiplicity
//!   `< HEAVY_MIN` — a guarantee the estimator turns into a hard upper
//!   bound.
//! * [`ValueHistogram`] — for a typed range index: an equi-depth
//!   histogram over the stored `f64` keys. Bucket fences are frozen at
//!   (re)build time; per-bucket entry and distinct counts stay exact
//!   under maintenance because values are bucketed by the frozen
//!   fences, and the histogram rebuilds itself once enough drift
//!   accumulates.
//! * [`QGramTable`] — for the trigram substring index: a frequency
//!   table `trigram → posting count`, stored in a copy-on-write
//!   [`BPlusTree`] so service snapshots share it structurally.
//!
//! Every estimator returns a [`CardinalityEstimate`] carrying a point
//! estimate **and guaranteed bounds**: the true candidate count of the
//! corresponding probe always lies in `[lower, upper]`. The bounds are
//! what the maintenance property tests pin down, and the gap between
//! `estimate` and the actual count is what
//! [`QueryEngine::explain`](crate::QueryEngine::explain) surfaces.
//!
//! [`Transaction`]: crate::Transaction

use xvi_btree::{BPlusTree, PagedVec};

use crate::lookup::Bounds;
use crate::util::OrdF64;

/// A cardinality estimate with guaranteed bounds: the true candidate
/// count of the estimated probe lies in `[lower, upper]`, and
/// `estimate` is the planner's point guess inside that interval.
///
/// ```
/// use xvi_index::{Document, IndexConfig, IndexManager, Lookup};
///
/// let doc = Document::parse("<r><a>7</a><a>7</a><b>hi</b></r>").unwrap();
/// let idx = IndexManager::build(&doc, IndexConfig::default());
/// let est = idx.estimate(&Lookup::range_f64(0.0..10.0)).unwrap();
/// // Four candidates hold the value 7: both <a> elements and their
/// // text nodes. The bounds are guarantees, the estimate a guess.
/// assert!(est.lower <= 4 && 4 <= est.upper);
/// assert!(est.lower <= est.estimate && est.estimate <= est.upper);
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

// ----- string equi-index ---------------------------------------------------

/// Statistics of the string equi-index: an equi-width histogram over
/// the hash space plus an exact heavy-hitter table.
///
/// Both parts live in copy-on-write storage (paged bucket columns, a
/// COW B+tree for the heavy table), so cloning the histogram — part of
/// every service copy-on-write publish — is O(pages) pointer bumps and
/// a mutated clone detaches only the touched pages, matching the index
/// trees it describes.
///
/// The maintenance contract (upheld by
/// [`StringIndex`](crate::StringIndex)): every tree insert/remove is
/// reported through the crate-internal `note_insert` / `note_remove`
/// hooks with the hash's capped multiplicity, so a hash reaching
/// [`EquiHistogram::HEAVY_MIN`] entries is always
/// tracked exactly — which is what makes
/// [`EquiHistogram::estimate_equi`]'s upper bound a guarantee rather
/// than a guess.
#[derive(Debug, Clone, Default)]
pub struct EquiHistogram {
    /// Entry count per hash bucket (top [`Self::BUCKET_BITS`] bits).
    entries: PagedVec<u32>,
    /// Distinct-hash count per bucket.
    distinct: PagedVec<u32>,
    /// Exact multiplicities of hashes with `count >= HEAVY_MIN`.
    heavy: BPlusTree<u32, u32>,
    total: u64,
    distinct_total: u64,
}

impl EquiHistogram {
    /// Buckets are keyed by this many leading hash bits.
    pub const BUCKET_BITS: u32 = 10;
    /// Number of equi-width buckets over the hash space.
    pub const BUCKETS: usize = 1 << Self::BUCKET_BITS;
    /// Multiplicity at which a hash graduates into the exact
    /// heavy-hitter table. Every hash *below* this threshold is
    /// guaranteed to have fewer than `HEAVY_MIN` entries.
    pub const HEAVY_MIN: u32 = 8;

    fn bucket(raw: u32) -> usize {
        (raw >> (32 - Self::BUCKET_BITS)) as usize
    }

    fn ensure_buckets(&mut self) {
        if self.entries.is_empty() {
            self.entries.resize(Self::BUCKETS, 0);
            self.distinct.resize(Self::BUCKETS, 0);
        }
    }

    /// A clone that shares no pages with `self`.
    pub(crate) fn deep_clone(&self) -> EquiHistogram {
        EquiHistogram {
            entries: self.entries.deep_clone(),
            distinct: self.distinct.deep_clone(),
            heavy: self.heavy.deep_clone(),
            total: self.total,
            distinct_total: self.distinct_total,
        }
    }

    /// Rebuilds from the hash components of a `(hash, node)`-sorted
    /// entry run (the bulk-load input). Counts into plain arrays and
    /// bulk-loads the heavy-hitter table from the already-sorted runs.
    pub(crate) fn rebuild_from_sorted(&mut self, hashes: impl IntoIterator<Item = u32>) {
        let mut entries = vec![0u32; Self::BUCKETS];
        let mut distinct = vec![0u32; Self::BUCKETS];
        let mut heavy: Vec<(u32, u32)> = Vec::new();
        let (mut total, mut distinct_total) = (0u64, 0u64);
        let mut hashes = hashes.into_iter().peekable();
        while let Some(raw) = hashes.next() {
            let mut n = 1u32;
            while hashes.next_if_eq(&raw).is_some() {
                n += 1;
            }
            let b = Self::bucket(raw);
            entries[b] += n;
            distinct[b] += 1;
            total += u64::from(n);
            distinct_total += 1;
            if n >= Self::HEAVY_MIN {
                heavy.push((raw, n));
            }
        }
        *self = EquiHistogram {
            entries: entries.into_iter().collect(),
            distinct: distinct.into_iter().collect(),
            heavy: BPlusTree::from_sorted_iter(heavy),
            total,
            distinct_total,
        };
    }

    /// The exact multiplicity of `raw`, if it is a tracked heavy
    /// hitter.
    pub(crate) fn heavy_count(&self, raw: u32) -> Option<u32> {
        self.heavy.get(&raw).copied()
    }

    /// Records one tree insert of `raw`. `prior` is the hash's
    /// multiplicity *before* the insert, capped at
    /// [`Self::HEAVY_MIN`] (exact when the hash is heavy).
    pub(crate) fn note_insert(&mut self, raw: u32, prior: u32) {
        self.ensure_buckets();
        let b = Self::bucket(raw);
        self.entries[b] += 1;
        self.total += 1;
        if prior == 0 {
            self.distinct[b] += 1;
            self.distinct_total += 1;
        }
        match self.heavy.get(&raw).copied() {
            Some(c) => {
                self.heavy.insert(raw, c + 1);
            }
            None if prior + 1 >= Self::HEAVY_MIN => {
                self.heavy.insert(raw, prior + 1);
            }
            None => {}
        }
    }

    /// Records one tree removal of `raw`. `remaining` is the hash's
    /// multiplicity *after* the removal, capped at
    /// [`Self::HEAVY_MIN`] (exact when the hash is heavy).
    pub(crate) fn note_remove(&mut self, raw: u32, remaining: u32) {
        self.ensure_buckets();
        let b = Self::bucket(raw);
        self.entries[b] = self.entries[b].saturating_sub(1);
        self.total = self.total.saturating_sub(1);
        if remaining == 0 {
            self.distinct[b] = self.distinct[b].saturating_sub(1);
            self.distinct_total = self.distinct_total.saturating_sub(1);
        }
        if self.heavy.get(&raw).is_some() {
            if remaining >= Self::HEAVY_MIN {
                self.heavy.insert(raw, remaining);
            } else {
                self.heavy.remove(&raw);
            }
        }
    }

    /// Estimates the candidate count of an equality probe for a value
    /// hashing to `raw`.
    ///
    /// Heavy hitters are exact. For any other hash the multiplicity is
    /// provably below [`Self::HEAVY_MIN`], so the upper bound is
    /// `min(bucket entries, HEAVY_MIN - 1)` and the point estimate the
    /// bucket's average multiplicity clamped into those bounds.
    pub fn estimate_equi(&self, raw: u32) -> CardinalityEstimate {
        if let Some(c) = self.heavy_count(raw) {
            return CardinalityEstimate::exact(c as usize);
        }
        if self.entries.is_empty() {
            return CardinalityEstimate::empty();
        }
        let b = Self::bucket(raw);
        let (entries, distinct) = (self.entries[b] as usize, self.distinct[b] as usize);
        if entries == 0 {
            return CardinalityEstimate::empty();
        }
        let upper = entries.min(Self::HEAVY_MIN as usize - 1);
        let avg = entries.div_ceil(distinct.max(1));
        CardinalityEstimate {
            estimate: avg.min(upper),
            lower: 0,
            upper,
        }
    }

    /// Total indexed entries.
    pub fn total(&self) -> usize {
        self.total as usize
    }

    /// Distinct hash values.
    pub fn distinct(&self) -> usize {
        self.distinct_total as usize
    }

    /// Number of exactly tracked heavy-hitter hashes.
    pub fn heavy_hitters(&self) -> usize {
        self.heavy.len()
    }
}

// ----- typed range index ---------------------------------------------------

/// Equi-depth histogram over the `f64` keys of one typed range index.
///
/// Fences are frozen when the histogram is (re)built from the sorted
/// key run; maintenance keeps per-bucket entry/distinct counts exact
/// with respect to those fences, so range estimates carry guaranteed
/// bounds: interior buckets count exactly, only the two
/// fence-straddling buckets are interpolated. The histogram asks its
/// owner for a rebuild once the mutation drift since the last build
/// reaches a quarter of the population.
#[derive(Debug, Clone, Default)]
pub struct ValueHistogram {
    /// Ascending inner fences; bucket `i` spans `[fences[i-1],
    /// fences[i])` in the `total_cmp` order, with open outermost
    /// buckets.
    fences: Vec<f64>,
    counts: Vec<u64>,
    distinct: Vec<u64>,
    total: u64,
    drift: u64,
}

impl ValueHistogram {
    /// Maximum bucket count of a rebuild.
    pub const MAX_BUCKETS: usize = 64;
    /// Minimum entries per bucket a rebuild aims for.
    const MIN_DEPTH: usize = 8;

    /// Builds an equi-depth histogram from keys sorted by
    /// `f64::total_cmp`.
    pub(crate) fn from_sorted(values: &[f64]) -> ValueHistogram {
        let n = values.len();
        if n == 0 {
            return ValueHistogram::default();
        }
        let buckets = (n / Self::MIN_DEPTH).clamp(1, Self::MAX_BUCKETS);
        let mut fences = Vec::with_capacity(buckets - 1);
        for i in 1..buckets {
            let fence = values[i * n / buckets];
            if fences.last().is_none_or(|&f| OrdF64(f) < OrdF64(fence)) {
                fences.push(fence);
            }
        }
        let mut hist = ValueHistogram {
            counts: vec![0; fences.len() + 1],
            distinct: vec![0; fences.len() + 1],
            fences,
            total: 0,
            drift: 0,
        };
        let mut prev: Option<f64> = None;
        for &v in values {
            let b = hist.bucket(v);
            hist.counts[b] += 1;
            hist.total += 1;
            if prev.is_none_or(|p| OrdF64(p) != OrdF64(v)) {
                hist.distinct[b] += 1;
            }
            prev = Some(v);
        }
        hist
    }

    fn bucket(&self, v: f64) -> usize {
        self.fences.partition_point(|&f| OrdF64(f) <= OrdF64(v))
    }

    /// Whether enough drift accumulated that the owner should rebuild
    /// from the live key run.
    pub(crate) fn needs_rebuild(&self) -> bool {
        self.drift >= 64 && self.drift * 4 >= self.total.max(1)
    }

    /// Records one key insert; `was_present` is whether the key
    /// already had entries before this insert.
    pub(crate) fn note_insert(&mut self, v: f64, was_present: bool) {
        if self.counts.is_empty() {
            self.counts = vec![0];
            self.distinct = vec![0];
        }
        let b = self.bucket(v);
        self.counts[b] += 1;
        self.total += 1;
        if !was_present {
            self.distinct[b] += 1;
        }
        self.drift += 1;
    }

    /// Records one key removal; `still_present` is whether entries for
    /// the key remain after this removal.
    pub(crate) fn note_remove(&mut self, v: f64, still_present: bool) {
        if self.counts.is_empty() {
            return;
        }
        let b = self.bucket(v);
        self.counts[b] = self.counts[b].saturating_sub(1);
        self.total = self.total.saturating_sub(1);
        if !still_present {
            self.distinct[b] = self.distinct[b].saturating_sub(1);
        }
        self.drift += 1;
    }

    /// Estimates the entry count within `bounds`.
    ///
    /// Buckets whose whole fence span lies inside the bounds
    /// contribute exactly; the (at most two) straddling buckets
    /// contribute `[0, count]` with a half-count point estimate — so
    /// `lower` and `upper` are guarantees. A degenerate point range is
    /// estimated from the bucket's average multiplicity instead.
    pub fn estimate_range(&self, bounds: &Bounds) -> CardinalityEstimate {
        use std::ops::Bound;
        if self.total == 0 {
            return CardinalityEstimate::empty();
        }
        // Point probe: `[k, k]`.
        if let (Bound::Included(lo), Bound::Included(hi)) = (bounds.lo, bounds.hi) {
            if OrdF64(lo) == OrdF64(hi) {
                let b = self.bucket(lo);
                let (count, distinct) = (self.counts[b] as usize, self.distinct[b] as usize);
                if count == 0 {
                    return CardinalityEstimate::empty();
                }
                return CardinalityEstimate {
                    estimate: count.div_ceil(distinct.max(1)),
                    lower: 0,
                    upper: count,
                };
            }
        }
        let mut est = CardinalityEstimate::empty();
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            // Bucket span: [min, sup) in total_cmp order; the outermost
            // buckets are open-ended.
            let min = (i > 0).then(|| self.fences[i - 1]);
            let sup = self.fences.get(i).copied();
            if Self::span_outside(min, sup, bounds) {
                continue;
            }
            let count = count as usize;
            if Self::span_inside(min, sup, bounds) {
                est.lower += count;
                est.estimate += count;
                est.upper += count;
            } else {
                est.estimate += count / 2;
                est.upper += count;
            }
        }
        est
    }

    /// Whether the span `[min, sup)` is entirely outside `bounds`.
    fn span_outside(min: Option<f64>, sup: Option<f64>, bounds: &Bounds) -> bool {
        use std::ops::Bound;
        // Everything in the span is < sup: below the lower bound?
        let below = match (sup, bounds.lo) {
            (Some(s), Bound::Included(lo)) | (Some(s), Bound::Excluded(lo)) => {
                OrdF64(s) <= OrdF64(lo)
            }
            _ => false,
        };
        // Everything in the span is >= min: above the upper bound?
        let above = match (min, bounds.hi) {
            (Some(m), Bound::Included(hi)) => OrdF64(hi) < OrdF64(m),
            (Some(m), Bound::Excluded(hi)) => OrdF64(hi) <= OrdF64(m),
            _ => false,
        };
        below || above
    }

    /// Whether the span `[min, sup)` lies entirely inside `bounds`.
    fn span_inside(min: Option<f64>, sup: Option<f64>, bounds: &Bounds) -> bool {
        use std::ops::Bound;
        let lo_ok = match (bounds.lo, min) {
            (Bound::Unbounded, _) => true,
            (Bound::Included(lo), Some(m)) => OrdF64(lo) <= OrdF64(m),
            (Bound::Excluded(lo), Some(m)) => OrdF64(lo) < OrdF64(m),
            (_, None) => false,
        };
        let hi_ok = match (bounds.hi, sup) {
            (Bound::Unbounded, _) => true,
            (Bound::Included(hi), Some(s)) | (Bound::Excluded(hi), Some(s)) => {
                OrdF64(s) <= OrdF64(hi)
            }
            (_, None) => false,
        };
        lo_ok && hi_ok
    }

    /// Total indexed keys.
    pub fn total(&self) -> usize {
        self.total as usize
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// The frozen inner fences.
    pub fn fences(&self) -> &[f64] {
        &self.fences
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
    /// A clone that shares no pages with `self`.
    pub(crate) fn deep_clone(&self) -> QGramTable {
        QGramTable {
            counts: self.counts.deep_clone(),
            total: self.total,
        }
    }

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

// ----- aggregate snapshot --------------------------------------------------

/// A point-in-time snapshot of every configured index's statistics,
/// assembled by
/// [`IndexManager::statistics`](crate::IndexManager::statistics).
///
/// ```
/// use xvi_index::{Document, IndexConfig, IndexManager};
///
/// let doc = Document::parse("<r><a>1</a><a>2</a><a>ax</a></r>").unwrap();
/// let idx = IndexManager::build(&doc, IndexConfig::default().with_substring_index());
/// let stats = idx.statistics();
/// let string = stats.string.as_ref().unwrap();
/// assert!(string.total() >= 6); // every element + text node is hashed
/// assert_eq!(stats.typed.len(), 1); // the double index
/// assert!(stats.substring.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    /// String equi-index histogram, if configured.
    pub string: Option<EquiHistogram>,
    /// One value histogram per configured typed index.
    pub typed: Vec<(xvi_fsm::XmlType, ValueHistogram)>,
    /// Trigram frequency table, if configured.
    pub substring: Option<QGramTable>,
    /// Root monoid summary of the string equi-index's B+tree, if
    /// configured: exact entry count + key-sequence hash.
    pub string_root: Option<RootSummary>,
    /// Root monoid summary of each configured typed index's value
    /// tree, parallel to `typed`.
    pub typed_roots: Vec<(xvi_fsm::XmlType, RootSummary)>,
}

/// The root of a B+tree's maintained monoid-summary hierarchy: the
/// exact number of stored entries and the order-sensitive hash of the
/// full key sequence (see `xvi_btree::Summary`). Equal summaries mean
/// — with ordinary 64-bit hash confidence — identical indexed content,
/// which makes this the cheap "has anything changed?" probe between
/// two snapshot versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootSummary {
    /// Exact entry count of the tree (`Summary::count` at the root).
    pub entries: usize,
    /// Order-sensitive hash of the tree's full key sequence.
    pub hash: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_histogram_tracks_heavy_hitters_exactly() {
        let mut h = EquiHistogram::default();
        let raw = 0xdead_beef;
        for i in 0..20 {
            h.note_insert(raw, i.min(EquiHistogram::HEAVY_MIN));
        }
        assert_eq!(h.estimate_equi(raw), CardinalityEstimate::exact(20));
        // Removals walk it back down and out of the heavy table.
        for i in (0..20u32).rev() {
            h.note_remove(raw, i.min(EquiHistogram::HEAVY_MIN));
        }
        assert_eq!(h.estimate_equi(raw), CardinalityEstimate::empty());
        assert_eq!(h.heavy_hitters(), 0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn equi_histogram_bounds_light_hashes() {
        let mut h = EquiHistogram::default();
        // Three distinct light hashes in (probably) different buckets.
        for raw in [1u32, 2, 3] {
            h.note_insert(raw, 0);
        }
        let e = h.estimate_equi(1);
        assert!(e.estimate >= 1 && e.upper < EquiHistogram::HEAVY_MIN as usize);
        // An absent hash in an empty bucket estimates to zero.
        assert_eq!(h.estimate_equi(u32::MAX), CardinalityEstimate::empty());
    }

    #[test]
    fn rebuild_from_sorted_matches_incremental() {
        let hashes = [5u32, 5, 5, 5, 5, 5, 5, 5, 5, 9, 9, 0xffff_0000];
        let mut h = EquiHistogram::default();
        h.rebuild_from_sorted(hashes.iter().copied());
        assert_eq!(h.total(), 12);
        assert_eq!(h.distinct(), 3);
        assert_eq!(h.estimate_equi(5), CardinalityEstimate::exact(9));
        let nine = h.estimate_equi(9);
        assert!(nine.lower <= 2 && 2 <= nine.upper);
    }

    /// Asserts that two histograms hold the same counts and heavy table.
    fn assert_equi_eq(a: &EquiHistogram, b: &EquiHistogram, case: usize) {
        let column = |v: &PagedVec<u32>| v.iter().copied().collect::<Vec<u32>>();
        let heavy =
            |h: &EquiHistogram| h.heavy.range(..).map(|(&k, &v)| (k, v)).collect::<Vec<_>>();
        assert_eq!(column(&a.entries), column(&b.entries), "case {case}");
        assert_eq!(column(&a.distinct), column(&b.distinct), "case {case}");
        assert_eq!(heavy(a), heavy(b), "case {case}");
        assert_eq!(
            (a.total, a.distinct_total),
            (b.total, b.distinct_total),
            "case {case}"
        );
    }

    #[test]
    fn bulk_rebuild_equals_incremental_inserts_around_heavy_min() {
        let heavy_min = EquiHistogram::HEAVY_MIN;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..64 {
            // Multiplicities on both sides of HEAVY_MIN, on hashes
            // spread over the buckets and a few sharing one bucket.
            let mut multiset: Vec<u32> = Vec::new();
            for _ in 0..(next() % 40) {
                let raw = if next() % 4 == 0 {
                    (next() % 64) as u32
                } else {
                    next() as u32
                };
                let n = match next() % 4 {
                    0 => heavy_min - 1,
                    1 => heavy_min,
                    2 => heavy_min + 1,
                    _ => 1 + (next() % u64::from(2 * heavy_min)) as u32,
                };
                multiset.extend(std::iter::repeat_n(raw, n as usize));
            }
            // The incremental path sees the entries in a random order.
            let mut shuffled = multiset.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut incremental = EquiHistogram::default();
            let mut counts: std::collections::HashMap<u32, u32> = Default::default();
            for raw in shuffled {
                let c = counts.entry(raw).or_default();
                let prior = match incremental.heavy_count(raw) {
                    Some(exact) => exact,
                    None => (*c).min(heavy_min),
                };
                incremental.note_insert(raw, prior);
                *c += 1;
            }
            multiset.sort_unstable();
            let mut bulk = EquiHistogram::default();
            bulk.rebuild_from_sorted(multiset.iter().copied());
            if multiset.is_empty() {
                // The incremental side never allocated its buckets.
                assert_eq!(bulk.total(), 0);
                continue;
            }
            assert_equi_eq(&bulk, &incremental, case);
        }
    }

    #[test]
    fn value_histogram_exact_interior_buckets() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let h = ValueHistogram::from_sorted(&values);
        assert!(h.buckets() > 1);
        let est = h.estimate_range(&Bounds::from_range(100.0..900.0));
        assert!(est.lower <= 800 && 800 <= est.upper, "{est:?}");
        // The straddling slack is at most two buckets' worth.
        let depth = 1000 / h.buckets();
        assert!(est.upper - est.lower <= 2 * depth + 2, "{est:?}");
        // Unbounded range is exact.
        assert_eq!(
            h.estimate_range(&Bounds::all()),
            CardinalityEstimate::exact(1000)
        );
    }

    #[test]
    fn value_histogram_point_and_maintenance() {
        let values = [1.0, 1.0, 1.0, 2.0, 3.0];
        let mut h = ValueHistogram::from_sorted(&values);
        let p = h.estimate_range(&Bounds::eq(1.0));
        assert!(p.lower <= 3 && 3 <= p.upper, "{p:?}");
        h.note_insert(2.5, false);
        h.note_remove(3.0, false);
        assert_eq!(h.total(), 5);
        let all = h.estimate_range(&Bounds::all());
        assert_eq!(all, CardinalityEstimate::exact(5));
    }

    #[test]
    fn value_histogram_rebuild_trigger() {
        let values: Vec<f64> = (0..64).map(f64::from).collect();
        let mut h = ValueHistogram::from_sorted(&values);
        assert!(!h.needs_rebuild());
        for i in 0..80 {
            h.note_insert(1000.0 + f64::from(i), false);
        }
        assert!(h.needs_rebuild());
    }

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
