//! Associative subtree summaries — the paper's monoid, lifted into the
//! tree.
//!
//! The paper's whole premise is that its summary structures combine
//! associatively (`H(parent)` is computable from the children's stored
//! `H` values without rereading their strings). [`Summary`] applies the
//! same idea to the B+tree itself: every interior node stores, per
//! child, the combined summary of that child's subtree —
//!
//! * the exact **entry count**, and
//! * the **min/max key** (`None` for an empty subtree, which only
//!   occurs transiently mid-rebalance).
//!
//! Because [`Summary::combine`] is associative with [`Summary::empty`]
//! as identity, a parent's summary is a fold of its children's stored
//! summaries — O(fan-out), never O(subtree). That is what makes exact
//! `count_range` answers O(log n): whole covered subtrees contribute
//! one stored count.

/// The combined summary of a contiguous key-ordered run of entries
/// (a leaf prefix, a whole subtree, or a concatenation of subtrees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary<K> {
    /// Exact number of entries covered.
    pub count: u64,
    /// `(min, max)` key covered; `None` iff `count == 0`.
    pub keys: Option<(K, K)>,
}

impl<K> Summary<K> {
    /// The monoid identity: the summary of no entries at all.
    pub fn empty() -> Summary<K> {
        Summary {
            count: 0,
            keys: None,
        }
    }

    /// Whether this summarises zero entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The smallest key covered, if any — the lower fence the branch
    /// cache verifies a cached interior node against.
    pub fn min_key(&self) -> Option<&K> {
        self.keys.as_ref().map(|(lo, _)| lo)
    }

    /// The largest key covered, if any — the upper fence.
    pub fn max_key(&self) -> Option<&K> {
        self.keys.as_ref().map(|(_, hi)| hi)
    }
}

impl<K: Ord + Clone> Summary<K> {
    /// The summary of a single key.
    pub fn of_key(key: &K) -> Summary<K> {
        Summary {
            count: 1,
            keys: Some((key.clone(), key.clone())),
        }
    }

    /// The summary of an ascending key slice (a leaf's keys).
    pub fn of_sorted_keys(keys: &[K]) -> Summary<K> {
        Summary {
            count: keys.len() as u64,
            keys: match (keys.first(), keys.last()) {
                (Some(min), Some(max)) => Some((min.clone(), max.clone())),
                _ => None,
            },
        }
    }

    /// Combines `self` (the left, smaller-keyed run) with `right`.
    ///
    /// Associative, with [`Summary::empty`] as two-sided identity: the
    /// count adds and min/max take the extremes.
    #[must_use]
    pub fn combine(&self, right: &Summary<K>) -> Summary<K> {
        let keys = match (&self.keys, &right.keys) {
            (None, k) | (k, None) => k.clone(),
            (Some((lmin, lmax)), Some((rmin, rmax))) => Some((
                if rmin < lmin {
                    rmin.clone()
                } else {
                    lmin.clone()
                },
                if rmax > lmax {
                    rmax.clone()
                } else {
                    lmax.clone()
                },
            )),
        };
        Summary {
            count: self.count + right.count,
            keys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_two_sided_identity() {
        let s = Summary::of_sorted_keys(&[1u32, 2, 3]);
        let e = Summary::empty();
        assert_eq!(e.combine(&s), s);
        assert_eq!(s.combine(&e), s);
        assert!(e.is_empty() && !s.is_empty());
    }

    #[test]
    fn combine_is_associative() {
        let runs: Vec<Vec<u32>> = vec![vec![], vec![1], vec![2, 3], vec![4, 5, 6], vec![7]];
        let sums: Vec<Summary<u32>> = runs.iter().map(|r| Summary::of_sorted_keys(r)).collect();
        for a in &sums {
            for b in &sums {
                for c in &sums {
                    assert_eq!(a.combine(b).combine(c), a.combine(&b.combine(c)));
                }
            }
        }
    }

    #[test]
    fn concatenation_matches_of_sorted_keys() {
        let all: Vec<u32> = (0..100).collect();
        for split in [0usize, 1, 37, 99, 100] {
            let l = Summary::of_sorted_keys(&all[..split]);
            let r = Summary::of_sorted_keys(&all[split..]);
            assert_eq!(
                l.combine(&r),
                Summary::of_sorted_keys(&all),
                "split {split}"
            );
        }
    }

    #[test]
    fn min_max_track_extremes() {
        let s = Summary::of_sorted_keys(&[5u32, 9]).combine(&Summary::of_sorted_keys(&[12, 40]));
        assert_eq!(s.keys, Some((5, 40)));
        assert_eq!(s.count, 4);
    }
}
