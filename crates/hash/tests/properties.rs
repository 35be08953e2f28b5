//! Property-based tests for the hash monoid.
//!
//! These pin down the algebraic contract the paper's index maintenance
//! relies on: `C` is an associative operation with identity `H("")`,
//! and `H` is a monoid homomorphism from byte strings under
//! concatenation to `(HashValue, C)`.

use proptest::prelude::*;
use xvi_hash::{combine, combine_all, hash_bytes, HashValue};

/// Arbitrary *valid* hash values: any 27-bit c-array with any offset in
/// `0..27`. `combine` must be closed and associative over this whole
/// set, not just over hashes of actual strings.
fn arb_hash() -> impl Strategy<Value = HashValue> {
    (0u32..(1 << 27), 0u32..27)
        .prop_map(|(ca, off)| HashValue::from_raw(ca << 5 | off).expect("offset < 27"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// H(a ⧺ b) = C(H(a), H(b)) for arbitrary byte strings.
    #[test]
    fn homomorphism(a in proptest::collection::vec(any::<u8>(), 0..200),
                    b in proptest::collection::vec(any::<u8>(), 0..200)) {
        let joined: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(combine(hash_bytes(&a), hash_bytes(&b)), hash_bytes(&joined));
    }

    /// Splitting a string at *every* position combines back to its hash.
    #[test]
    fn all_split_points_recombine(s in proptest::collection::vec(any::<u8>(), 0..80)) {
        let whole = hash_bytes(&s);
        for cut in 0..=s.len() {
            let (l, r) = s.split_at(cut);
            prop_assert_eq!(combine(hash_bytes(l), hash_bytes(r)), whole);
        }
    }

    /// Associativity over the full domain of valid hash values.
    #[test]
    fn associativity(a in arb_hash(), b in arb_hash(), c in arb_hash()) {
        prop_assert_eq!(combine(combine(a, b), c), combine(a, combine(b, c)));
    }

    /// H("") is a two-sided identity over the full domain.
    #[test]
    fn identity(h in arb_hash()) {
        prop_assert_eq!(combine(HashValue::EMPTY, h), h);
        prop_assert_eq!(combine(h, HashValue::EMPTY), h);
    }

    /// combine stays inside the valid domain (offc < 27).
    #[test]
    fn closure(a in arb_hash(), b in arb_hash()) {
        let c = combine(a, b);
        prop_assert!(c.offset() < 27);
        prop_assert_eq!(HashValue::from_raw(c.raw()), Some(c));
    }

    /// Left fold equals right fold (a consequence of associativity the
    /// commutative-commit transaction layer depends on).
    #[test]
    fn fold_direction_is_irrelevant(parts in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..30), 0..10)) {
        let hashes: Vec<HashValue> = parts.iter().map(|p| hash_bytes(p)).collect();
        let left = combine_all(hashes.iter().copied());
        let right = hashes
            .iter()
            .rev()
            .fold(HashValue::EMPTY, |acc, &h| combine(h, acc));
        prop_assert_eq!(left, right);
        let flat: Vec<u8> = parts.concat();
        prop_assert_eq!(left, hash_bytes(&flat));
    }

    /// Appending a single byte changes the hash (no trivial fixpoints
    /// on the 5-bit-step circle: the offset always moves).
    #[test]
    fn appending_byte_changes_offset(s in proptest::collection::vec(any::<u8>(), 0..50),
                                     b in any::<u8>()) {
        let mut t = s.clone();
        t.push(b);
        prop_assert_ne!(hash_bytes(&s).offset(), hash_bytes(&t).offset());
    }

    /// Splits on and next to the 27-byte block boundaries of the hash
    /// kernel (26, 27, 28, 54, 55) recombine to the hash of the whole,
    /// for inputs with bytes >= 0x80.
    #[test]
    fn block_boundary_splits_recombine(s in proptest::collection::vec(any::<u8>(), 0..140)) {
        let whole = hash_bytes(&s);
        let mut cuts: Vec<usize> = [26usize, 27, 28, 54, 55]
            .into_iter()
            .filter(|&c| c <= s.len())
            .collect();
        cuts.push(s.len());
        let mut start = 0;
        let mut acc = HashValue::EMPTY;
        for &cut in &cuts {
            acc = combine(acc, hash_bytes(&s[start..cut]));
            start = cut;
        }
        prop_assert_eq!(acc, whole);
        for &cut in &cuts {
            let (l, r) = s.split_at(cut);
            prop_assert_eq!(combine(hash_bytes(l), hash_bytes(r)), whole);
        }
    }
}
