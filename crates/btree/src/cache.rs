//! Descent fast paths: the branch cache and intra-node search hints.
//!
//! # Branch cache
//!
//! Every index probe bottoms out in a root-to-leaf descent. The probe
//! streams the system actually serves are heavily *local* — sorted
//! scans advance through one leaf at a time, zipf-skewed point probes
//! hammer a handful of hot leaves — so consecutive descents usually
//! end where the previous one did. [`BranchCache`] remembers the
//! previous descent's node path (leaf at slot 0, root at the top) and
//! lets the next probe start from the deepest remembered node whose
//! key fence still covers the probe key, instead of walking from the
//! root every time.
//!
//! ## Verification, not trust
//!
//! A cached slot is never followed blindly. A probe walks the
//! remembered path **top-down** and, for each node, re-checks that the
//! probe key lies inside the node's covered key interval:
//!
//! * for a leaf, `keys.first() <= key <= keys.last()`;
//! * for an interior node, the `[min, max]` fence of its stored
//!   per-child monoid summaries (first child's min, last child's max).
//!
//! Both checks are *sound* without consulting the node's ancestors:
//! separator routing partitions the key space into per-subtree
//! intervals, a subtree's `[min, max]` is contained in its interval,
//! and the intervals of distinct same-level subtrees are disjoint — so
//! any live node whose fence covers the key is exactly the node a
//! cold root walk would pass through. The first non-covering (or
//! freed, or out-of-range) slot stops the walk, and the descent
//! resumes from the deepest covering node. A probe outside every
//! remembered fence falls back to a full root walk; correctness never
//! depends on the cache being right, only on the fence check.
//!
//! ## Invalidation
//!
//! The cache is keyed on a per-tree **epoch**: every structural
//! mutation (insert, delete, bulk install, `shrink_to_fit`, clear)
//! bumps the tree's epoch, and a cached path recorded under an older
//! epoch is ignored wholesale. Mutations require `&mut` access, so no
//! probe can race a mutation on the same tree instance; COW clones
//! start with an empty cache of their own and the source tree's epoch,
//! so a snapshot pinned before the source mutates keeps (re)building
//! its own valid cache while the source invalidates only itself.
//! Page detaches copy nodes bit-identically and never move arena ids,
//! so a detach alone cannot stale a path — the mutation that triggered
//! it bumps the epoch anyway.
//!
//! The cache state itself is a fixed array of relaxed atomics so
//! `&self` probes from many reader threads can share one warm path.
//! Concurrent recorders may interleave slot writes, which is harmless:
//! every slot is verified against live node content before use, so a
//! torn mix of two valid same-epoch paths degrades hit rate, never
//! correctness.
//!
//! # Intra-node search hints
//!
//! Within a node, [`hinted_partition_point`] replaces the plain binary
//! search: every [`HINT_STRIDE`]-th key is a *hint sample* — the
//! sorted key column is its own sampled hint directory, so there is
//! nothing extra to maintain or invalidate. A binary search over the
//! few samples picks the stride bucket holding the boundary, and a
//! short forward scan finishes inside the bucket. For the small
//! fixed-size keys the indices store, a stride bucket is one cache
//! line: the tail of binary search's coin-flip probes becomes a
//! predictable in-line run, without touching more lines of a cold
//! column than the probes already did.
//!
//! # Inline descent paths
//!
//! [`InlinePath`] is a fixed-size path array bounded by
//! [`MAX_DEPTH`]; descents assert the bound instead of allocating a
//! `Vec` per walk. The branch cache and the cold-walk recorder use it.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

/// Upper bound on tree depth for the inline path arrays.
///
/// The worst legal shape is order 3 (minimum occupancy 1, so every
/// interior node has at least 2 children): with `u32` arena ids the
/// tree holds fewer than 2³² leaves, bounding the depth by 33. Every
/// descent asserts this bound when it records its path.
pub(crate) const MAX_DEPTH: usize = 40;

/// Stride of the implicit hint column: the hint pass probes every
/// `HINT_STRIDE`-th key before the final linear scan. 8 keeps both
/// passes at most `order / 8 + 7` predictable comparisons for the
/// default order of 32.
const HINT_STRIDE: usize = 8;

/// Confidence ceiling for the probe bypass: any ladder hit restores
/// the counter to this value, each full-walk miss decrements it, and
/// at zero the cache stops probing. 8 consecutive misses are needed to
/// disable probing, which skewed streams (ladder hit rates above ~50%)
/// essentially never produce, while uniform streams produce them
/// immediately.
const CONF_MAX: u32 = 8;

/// While probing is disabled, every `RETRY_PERIOD`-th probe tries the
/// cached leaf anyway (and re-records its walk) so the cache can
/// detect that a stream turned local again. Deliberately coprime
/// with the tree order: at a period that divides the leaf capacity, a
/// sequential sweep advances exactly a whole number of leaves between
/// retries, every retry checks a just-abandoned leaf, and the bypass
/// never re-arms.
const RETRY_PERIOD: u32 = 31;

/// `partition_point` with a sampled-hint pre-pass.
///
/// `pred` must be monotone over `keys` (true prefix, false suffix),
/// exactly as for `slice::partition_point`; returns the index of the
/// first `false`. The sorted key column doubles as its own hint
/// directory: every [`HINT_STRIDE`]-th key is a sample, a binary
/// search over the few samples picks the stride bucket holding the
/// boundary, and a short forward scan finishes inside the bucket.
/// Versus a full binary search this trades the last three
/// hard-to-predict probe branches for a predictable in-bucket run,
/// and — with the stride matched to a cache line of small keys —
/// never touches more lines of a cold column than the probes already
/// did.
#[inline]
pub(crate) fn hinted_partition_point<K>(keys: &[K], mut pred: impl FnMut(&K) -> bool) -> usize {
    let n = keys.len();
    // Binary search over the implicit sample directory: counts the
    // samples for which `pred` holds.
    let m = n / HINT_STRIDE;
    let mut lo_s = 0usize;
    let mut hi_s = m;
    while lo_s < hi_s {
        let mid = lo_s + (hi_s - lo_s) / 2;
        if pred(&keys[mid * HINT_STRIDE + HINT_STRIDE - 1]) {
            lo_s = mid + 1;
        } else {
            hi_s = mid;
        }
    }
    // Forward scan inside the bucket below the first false sample (or
    // the tail past the last sample).
    let mut lo = lo_s * HINT_STRIDE;
    let hi = if lo_s < m { lo + HINT_STRIDE - 1 } else { n };
    while lo < hi && pred(&keys[lo]) {
        lo += 1;
    }
    lo
}

/// Exact-key search via [`hinted_partition_point`]; drop-in for
/// `slice::binary_search` on the sorted unique key columns.
#[inline]
pub(crate) fn hinted_search<K: Ord>(keys: &[K], key: &K) -> Result<usize, usize> {
    let i = hinted_partition_point(keys, |k| k < key);
    if i < keys.len() && &keys[i] == key {
        Ok(i)
    } else {
        Err(i)
    }
}

/// A fixed-size root-to-leaf path — node ids pushed in descent order —
/// with no heap allocation. Capacity is [`MAX_DEPTH`]; pushing past it
/// panics, which the depth bound above makes unreachable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InlinePath {
    nodes: [u32; MAX_DEPTH],
    len: usize,
}

impl InlinePath {
    pub(crate) fn new() -> InlinePath {
        InlinePath {
            nodes: [0; MAX_DEPTH],
            len: 0,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, id: u32) {
        assert!(self.len < MAX_DEPTH, "tree depth exceeds MAX_DEPTH");
        self.nodes[self.len] = id;
        self.len += 1;
    }

    /// The recorded ids, in descent (root-first) order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.nodes[..self.len]
    }
}

/// Verdict of the confidence bypass for one probe: try the whole
/// ladder, try just the cached-leaf rung, or go straight to the root
/// walk. See [`BranchCache::probe_gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProbeGate {
    /// Confident: check every rung.
    Full,
    /// Bypassed, but this is the periodic retry probe: check the
    /// cached leaf only, and record the walk on a miss so the next
    /// retry tests a fresh path.
    Retry,
    /// Bypassed: plain cold walk, no rung checks, no recording.
    Skip,
}

/// Lock-free memory of the previous descent: the node path (slot 0 =
/// leaf, slot `len - 1` = root) stamped with the tree epoch it was
/// recorded under, plus the hit/miss telemetry surfaced through
/// `TreeStats`.
///
/// All fields are relaxed atomics: probes hold `&self`, verification
/// is content-based (see the module docs), and the counters are
/// monotonic telemetry — no ordering between them is needed.
#[derive(Debug)]
pub(crate) struct BranchCache {
    /// Epoch the cached path belongs to; a mismatch with the tree's
    /// current epoch invalidates every slot at once.
    epoch: AtomicU64,
    /// Number of valid slots in `path` (0 = nothing cached).
    len: AtomicU32,
    /// The remembered path: `path[0]` is the leaf, `path[d]` the
    /// ancestor `d` levels above it.
    path: [AtomicU32; MAX_DEPTH],
    /// Protected leaf pair: the frequency side of the leaf rungs,
    /// where `path[0]` is the recency side. A leaf enters only by
    /// proving itself hot in the primary slot first (see
    /// [`BranchCache::record_walk`]), and probes that hit here leave
    /// the slots untouched — so a pair of hot leaves stays resident
    /// while scattered probes churn the primary, instead of every
    /// transient leaf evicting a hot one.
    prot: [AtomicU32; 2],
    /// Which protected slot hit most recently; demotions overwrite
    /// the other one.
    prot_last: AtomicU32,
    /// Saturating confidence counter for the probe bypass (see
    /// [`BranchCache::probe_gate`]). Races on the read-modify-write
    /// only perturb the heuristic, never correctness.
    conf: AtomicU32,
    /// Probes skipped while the bypass is active; drives the periodic
    /// ladder retry.
    skips: AtomicU32,
    /// 1 when the primary leaf has produced a hit since it was
    /// recorded. Recorders demote the primary into the protected pair
    /// only when this is set: an unproven leaf (one scattered probe)
    /// must never evict a proven-hot one.
    primary_hot: AtomicU32,
    /// Probes resolved at the cached leaf itself.
    hits: AtomicU64,
    /// Probes resolved by descending from a cached ancestor below the
    /// root.
    partial_hits: AtomicU64,
    /// Probes that fell back to a full root walk.
    misses: AtomicU64,
}

impl BranchCache {
    pub(crate) fn new() -> BranchCache {
        BranchCache {
            epoch: AtomicU64::new(u64::MAX),
            len: AtomicU32::new(0),
            path: [const { AtomicU32::new(0) }; MAX_DEPTH],
            prot: [const { AtomicU32::new(u32::MAX) }; 2],
            // Start at 1 so the first demotion fills slot 0.
            prot_last: AtomicU32::new(1),
            conf: AtomicU32::new(CONF_MAX),
            skips: AtomicU32::new(0),
            primary_hot: AtomicU32::new(0),
            hits: AtomicU64::new(0),
            partial_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// How much of the ladder the next probe should attempt.
    ///
    /// On streams with no locality every rung fails, and the failed
    /// checks touch nodes that are cold precisely *because* the stream
    /// is scattered — pure overhead on top of the unavoidable root
    /// walk. The bypass tracks a saturating confidence counter: ladder
    /// hits reset it to [`CONF_MAX`], full-walk misses decrement it,
    /// and at zero the ladder is skipped ([`ProbeGate::Skip`]) except
    /// for one probe in [`RETRY_PERIOD`] ([`ProbeGate::Retry`]: the
    /// leaf rung only, so a stale path costs one fetch rather than
    /// three), which lets the cache re-arm when the stream turns local
    /// again. The counter updates are plain load/store (not atomic
    /// RMW): a racing probe can lose an update, which only nudges the
    /// heuristic.
    #[inline]
    pub(crate) fn probe_gate(&self) -> ProbeGate {
        if self.conf.load(Relaxed) > 0 {
            return ProbeGate::Full;
        }
        let s = self.skips.load(Relaxed).wrapping_add(1);
        self.skips.store(s, Relaxed);
        if s.is_multiple_of(RETRY_PERIOD) {
            ProbeGate::Retry
        } else {
            ProbeGate::Skip
        }
    }

    /// Whether the confidence bypass is inactive — a single load, with
    /// none of [`BranchCache::probe_gate`]'s skip accounting. The fused
    /// fast rung in `get` uses this so a bypassed stream pays exactly
    /// one gate update per probe (in `find_leaf`), not two.
    #[inline]
    pub(crate) fn confident(&self) -> bool {
        self.conf.load(Relaxed) > 0
    }

    /// Just the cached leaf under `epoch` — the subset of
    /// [`BranchCache::probe_top`] the fused fast rung needs, loading
    /// two slots fewer.
    #[inline]
    pub(crate) fn probe_leaf(&self, epoch: u64) -> Option<u32> {
        if self.epoch.load(Relaxed) != epoch || self.len.load(Relaxed) == 0 {
            return None;
        }
        Some(self.path[0].load(Relaxed))
    }

    /// The ladder's working set under `epoch`: `(leaf, parent)` with
    /// `u32::MAX` for an absent parent, or `None` when the cache is
    /// empty or was recorded under a different epoch. Only the slots
    /// the ladder actually consults are loaded — the hit path never
    /// copies the full path array. The parent slot is only offered
    /// when it sits *below* the root (`len > 2`): re-descending from
    /// a root-level parent is never cheaper than the root walk it
    /// would replace, and on shallow trees the useless partial hits
    /// would also keep re-arming the confidence bypass. Callers must
    /// verify every id against live node content before acting on it.
    #[inline]
    pub(crate) fn probe_top(&self, epoch: u64) -> Option<(u32, u32)> {
        if self.epoch.load(Relaxed) != epoch {
            return None;
        }
        let len = self.len.load(Relaxed);
        if len == 0 {
            return None;
        }
        let leaf = self.path[0].load(Relaxed);
        let parent = if len > 2 {
            self.path[1].load(Relaxed)
        } else {
            u32::MAX
        };
        Some((leaf, parent))
    }

    /// The protected leaf pair (`u32::MAX` for empty slots). Loaded
    /// lazily — only after the primary rung has already missed.
    #[inline]
    pub(crate) fn protected(&self) -> (u32, u32) {
        (self.prot[0].load(Relaxed), self.prot[1].load(Relaxed))
    }

    /// Demotes the current primary leaf into the protected pair — but
    /// only when it has proven itself hot (produced a hit since
    /// recording). Called by both recorders just before overwriting
    /// slot 0. Unproven leaves are simply dropped, and the demotion
    /// overwrites the protected slot that hit *less* recently: runs
    /// of scattered probes churn the primary slot only, which is
    /// exactly what keeps a pair of hot leaves resident on skewed
    /// streams.
    #[inline]
    fn demote_if_hot(&self) {
        if self.primary_hot.load(Relaxed) == 1 {
            let victim = 1 - (self.prot_last.load(Relaxed) as usize & 1);
            self.prot[victim].store(self.path[0].load(Relaxed), Relaxed);
            self.prot_last.store(victim as u32, Relaxed);
            self.primary_hot.store(0, Relaxed);
        }
    }

    /// Records a full root-to-leaf walk (`walk` in descent order)
    /// under `epoch`.
    #[inline]
    pub(crate) fn record_walk(&self, epoch: u64, walk: &InlinePath) {
        let ids = walk.as_slice();
        self.demote_if_hot();
        for (d, &id) in ids.iter().rev().enumerate() {
            self.path[d].store(id, Relaxed);
        }
        self.len.store(ids.len() as u32, Relaxed);
        self.epoch.store(epoch, Relaxed);
    }

    /// Replaces just the cached leaf slot — used when a probe resolved
    /// one level down from the cached parent — demoting the previous
    /// leaf to the protected pair if it proved hot. The rest of the
    /// path is untouched: the parent that routed here is still the
    /// new leaf's parent.
    #[inline]
    pub(crate) fn record_leaf(&self, leaf: u32) {
        self.demote_if_hot();
        self.path[0].store(leaf, Relaxed);
    }

    // The telemetry counters are bumped with plain load/store rather
    // than `fetch_add`: a locked read-modify-write costs a meaningful
    // slice of the whole hit path, and concurrent probes dropping the
    // odd increment only blurs the telemetry, never correctness.

    /// A primary-rung hit: the cached leaf is now proven hot.
    #[inline]
    pub(crate) fn count_hit(&self) {
        self.hits
            .store(self.hits.load(Relaxed).wrapping_add(1), Relaxed);
        self.conf.store(CONF_MAX, Relaxed);
        self.primary_hot.store(1, Relaxed);
    }

    /// A protected-rung hit: counts like a hit and marks the slot as
    /// recently useful, but deliberately moves nothing — stability of
    /// the pair is the point.
    #[inline]
    pub(crate) fn count_hit_protected(&self, slot: usize) {
        self.hits
            .store(self.hits.load(Relaxed).wrapping_add(1), Relaxed);
        self.conf.store(CONF_MAX, Relaxed);
        self.prot_last.store(slot as u32, Relaxed);
    }

    #[inline]
    pub(crate) fn count_partial(&self) {
        self.partial_hits
            .store(self.partial_hits.load(Relaxed).wrapping_add(1), Relaxed);
        self.conf.store(CONF_MAX, Relaxed);
    }

    #[inline]
    pub(crate) fn count_miss(&self) {
        self.misses
            .store(self.misses.load(Relaxed).wrapping_add(1), Relaxed);
        let c = self.conf.load(Relaxed);
        if c > 0 {
            self.conf.store(c - 1, Relaxed);
        }
    }

    /// `(hits, partial_hits, misses)` so far.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Relaxed),
            self.partial_hits.load(Relaxed),
            self.misses.load(Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hinted_partition_point_matches_std() {
        for n in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100] {
            let keys: Vec<u32> = (0..n as u32).map(|i| i * 2).collect();
            for probe in 0..=(2 * n as u32 + 2) {
                assert_eq!(
                    hinted_partition_point(&keys, |&k| k < probe),
                    keys.partition_point(|&k| k < probe),
                    "n={n} probe={probe} (strict)"
                );
                assert_eq!(
                    hinted_partition_point(&keys, |&k| k <= probe),
                    keys.partition_point(|&k| k <= probe),
                    "n={n} probe={probe} (inclusive)"
                );
            }
        }
    }

    #[test]
    fn hinted_search_matches_binary_search() {
        let keys: Vec<u32> = (0..50).map(|i| i * 3).collect();
        for probe in 0..160u32 {
            assert_eq!(keys.binary_search(&probe), hinted_search(&keys, &probe));
        }
    }

    #[test]
    fn inline_path_pushes_and_reports() {
        let mut p = InlinePath::new();
        assert!(p.as_slice().is_empty());
        for i in 0..5 {
            p.push(i * 10);
        }
        assert_eq!(p.as_slice(), &[0, 10, 20, 30, 40]);
    }

    #[test]
    #[should_panic(expected = "MAX_DEPTH")]
    fn inline_path_asserts_depth_bound() {
        let mut p = InlinePath::new();
        for i in 0..=MAX_DEPTH as u32 {
            p.push(i);
        }
    }

    #[test]
    fn bypass_disarms_after_misses_and_rearms_on_hit() {
        let c = BranchCache::new();
        for _ in 0..CONF_MAX {
            assert_eq!(c.probe_gate(), ProbeGate::Full, "confident cache probes");
            c.count_miss();
        }
        let retries = (0..128)
            .filter(|_| c.probe_gate() == ProbeGate::Retry)
            .count();
        assert_eq!(retries, 128 / RETRY_PERIOD as usize, "periodic retry only");
        c.count_hit();
        assert_eq!(
            c.probe_gate(),
            ProbeGate::Full,
            "one hit re-arms the ladder"
        );
    }

    fn walk_to(leaf: u32) -> InlinePath {
        let mut w = InlinePath::new();
        w.push(9); // root
        w.push(leaf);
        w
    }

    #[test]
    fn only_proven_hot_leaves_enter_the_protected_pair() {
        let c = BranchCache::new();
        c.record_walk(1, &walk_to(4));
        c.count_hit(); // leaf 4 proves itself hot
        c.record_walk(1, &walk_to(6)); // displaces 4 → protected
        assert_eq!(c.protected(), (4, u32::MAX));
        c.record_walk(1, &walk_to(8)); // leaf 6 never hit: not protected
        assert_eq!(c.protected(), (4, u32::MAX), "unproven leaf stays out");
        let (leaf, _) = c.probe_top(1).expect("path cached");
        assert_eq!(leaf, 8);
    }

    #[test]
    fn protected_pair_holds_two_hot_leaves_and_evicts_the_colder() {
        let c = BranchCache::new();
        for leaf in [4u32, 6] {
            c.record_walk(1, &walk_to(leaf));
            c.count_hit();
        }
        c.record_walk(1, &walk_to(11)); // displaces hot 6
        assert_eq!(c.protected(), (4, 6), "both hot shards held at once");
        // Protected hits refresh recency without moving anything.
        c.count_hit_protected(0); // slot 0 (leaf 4) hit last
        assert_eq!(c.protected(), (4, 6), "protected hits move nothing");
        // A third hot leaf evicts the slot that hit less recently.
        c.count_hit(); // leaf 11 proves itself hot
        c.record_walk(1, &walk_to(13));
        assert_eq!(c.protected(), (4, 11), "colder slot 1 was the victim");
    }

    #[test]
    fn cache_epoch_gates_probe() {
        let c = BranchCache::new();
        let mut walk = InlinePath::new();
        walk.push(7); // root
        walk.push(5); // interior parent
        walk.push(3); // leaf
        c.record_walk(5, &walk);
        assert_eq!(c.probe_top(4), None, "stale epoch yields nothing");
        let (leaf, parent) = c.probe_top(5).expect("matching epoch");
        assert_eq!((leaf, parent), (3, 5), "leaf first, then its parent");
        assert_eq!(c.protected(), (u32::MAX, u32::MAX), "nothing demoted yet");
    }

    #[test]
    fn root_level_parent_is_withheld() {
        let c = BranchCache::new();
        let mut walk = InlinePath::new();
        walk.push(7); // root
        walk.push(3); // leaf
        c.record_walk(1, &walk);
        let (leaf, parent) = c.probe_top(1).expect("path cached");
        assert_eq!(leaf, 3);
        assert_eq!(
            parent,
            u32::MAX,
            "re-descending from the root is no faster than the walk"
        );
    }
}
