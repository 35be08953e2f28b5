//! Associative subtree summaries — the paper's monoid, lifted into the
//! tree.
//!
//! The paper's whole premise is that its summary structures combine
//! associatively (`H(parent)` is computable from the children's stored
//! `H` values without rereading their strings). [`Summary`] applies the
//! same idea to the B+tree itself: every interior node stores, per
//! child, the combined summary of that child's subtree —
//!
//! * the exact **entry count**,
//! * the **min/max key** (`None` for an empty subtree, which only
//!   occurs transiently mid-rebalance), and
//! * an **order-sensitive combined hash** of the key sequence.
//!
//! Because [`Summary::combine`] is associative with [`Summary::empty`]
//! as identity, a parent's summary is a fold of its children's stored
//! summaries — O(fan-out), never O(subtree). That is what makes exact
//! `count_range` answers O(log n) (whole covered subtrees contribute
//! one stored count) and the root's key-sequence hash O(fan-out).
//!
//! The hash covers **keys only**. Values can be mutated in place
//! through `get_mut` without the tree seeing it, so no value hash
//! maintained on the mutation paths could ever be trusted; the key
//! sequence, by contrast, changes only through tree operations. The
//! per-key hash is a seeded FNV-1a over the key's `Hash` impl, and
//! sequences combine polynomially: `seq(l ++ r) = seq(l)·B^|r| +
//! seq(r)` for an odd constant `B`, which is associative and
//! order-sensitive. Equality of summaries is therefore probabilistic
//! in the usual 64-bit-hash sense: equal content implies equal
//! summaries, and equal summaries imply equal content with collision
//! probability ~2⁻⁶⁴.

use std::hash::{Hash, Hasher};

/// Multiplier of the polynomial sequence hash. Odd (hence invertible
/// mod 2⁶⁴), so `h · B^n` never collapses information.
const SEQ_BASE: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a offset basis, the seed of the per-key hash.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The combined summary of a contiguous key-ordered run of entries
/// (a leaf prefix, a whole subtree, or a concatenation of subtrees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary<K> {
    /// Exact number of entries covered.
    pub count: u64,
    /// `(min, max)` key covered; `None` iff `count == 0`.
    pub keys: Option<(K, K)>,
    /// Order-sensitive polynomial hash of the covered key sequence.
    pub hash: u64,
}

impl<K> Summary<K> {
    /// The monoid identity: the summary of no entries at all.
    pub fn empty() -> Summary<K> {
        Summary {
            count: 0,
            keys: None,
            hash: 0,
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
    pub fn of_key(key: &K) -> Summary<K>
    where
        K: Hash,
    {
        Summary {
            count: 1,
            keys: Some((key.clone(), key.clone())),
            hash: key_hash(key),
        }
    }

    /// The summary of an ascending key slice (a leaf's keys).
    pub fn of_sorted_keys(keys: &[K]) -> Summary<K>
    where
        K: Hash,
    {
        let mut hash = 0u64;
        for k in keys {
            hash = hash.wrapping_mul(SEQ_BASE).wrapping_add(key_hash(k));
        }
        Summary {
            count: keys.len() as u64,
            keys: match (keys.first(), keys.last()) {
                (Some(min), Some(max)) => Some((min.clone(), max.clone())),
                _ => None,
            },
            hash,
        }
    }

    /// Combines `self` (the left, smaller-keyed run) with `right`.
    ///
    /// Associative, with [`Summary::empty`] as two-sided identity: the
    /// count adds, min/max take the extremes, and the sequence hash
    /// shifts the left run past the right one (`l·B^|r| + r`).
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
            hash: self
                .hash
                .wrapping_mul(pow_base(right.count))
                .wrapping_add(right.hash),
        }
    }
}

/// Stable 64-bit hash of one key: FNV-1a over the key's `Hash`
/// byte stream, finalised with an avalanche mix so structurally
/// similar keys (e.g. consecutive integers) spread across the space.
pub fn key_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = Fnv64(FNV_OFFSET);
    key.hash(&mut h);
    mix(h.0)
}

/// `SEQ_BASE^exp` mod 2⁶⁴ by square-and-multiply.
fn pow_base(mut exp: u64) -> u64 {
    let mut base = SEQ_BASE;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        exp >>= 1;
    }
    acc
}

/// splitmix64 finaliser.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Deterministic FNV-1a, independent of `RandomState` so hashes are
/// stable across processes and snapshots.
struct Fnv64(u64);

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
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
    fn order_sensitivity_and_key_sensitivity() {
        let ab = Summary::of_key(&1u32).combine(&Summary::of_key(&2u32));
        let ba = Summary::of_key(&2u32).combine(&Summary::of_key(&1u32));
        assert_ne!(ab.hash, ba.hash, "sequence hash must be order-sensitive");
        assert_ne!(key_hash(&1u32), key_hash(&2u32));
        assert_eq!(key_hash(&1u32), key_hash(&1u32), "stable across calls");
    }

    #[test]
    fn min_max_track_extremes() {
        let s = Summary::of_sorted_keys(&[5u32, 9]).combine(&Summary::of_sorted_keys(&[12, 40]));
        assert_eq!(s.keys, Some((5, 40)));
        assert_eq!(s.count, 4);
    }
}
