//! # xvi-hash — the string-value hash `H` and combination function `C`
//!
//! This crate implements the two functions at the heart of the paper's
//! *string equi-lookup index* (Section 3 of Sidirourgos & Boncz, EDBT'09):
//!
//! * [`hash_str`] / [`hash_bytes`] — the hash function `H` of Figure 2.
//!   It maps an arbitrary-length XML string value to a 32-bit
//!   [`HashValue`] whose 27 most significant bits (the *c-array*) are a
//!   circular XOR of the input characters, stepped 5 bit positions per
//!   character, and whose 5 least significant bits (the *offc* field)
//!   record where in the circle the next character would land.
//! * [`combine`] — the associative combination function `C` of Figure 4,
//!   designed so that for all strings `a`, `b`:
//!
//!   ```text
//!   H(a ⧺ b) = C(H(a), H(b))
//!   ```
//!
//!   This property is what makes the index *updatable*: the hash of an
//!   element node (the concatenation of its descendant text nodes, per
//!   the XQuery data model) can be recomputed from the already-stored
//!   hashes of its children without touching any string data.
//!
//! `(HashValue, combine)` forms a **monoid** with identity
//! [`HashValue::EMPTY`] (= `H("")`); associativity and the homomorphism
//! property are exercised by the property tests in this crate.
//!
//! ## The block kernel
//!
//! The write offset after `k` characters is `5k mod 27`, so it has
//! period 27: every run of 27 characters starts again at offset 0 and
//! character `k` of a run always lands at offset `5k mod 27`.
//! [`hash_bytes`] therefore XORs whole 27-byte blocks into a 64-bit
//! accumulator with 27 constant shifts (no offset bookkeeping, no
//! branch), hashes the tail as one block padded with zero bytes — a
//! zero byte XORs nothing in, so the padding contributes nothing — and
//! sets the final offset to `5·len mod 27`. Bits that overflow the
//! 27-bit circle collect above bit 26 and are folded back onto the low
//! positions once, at the end. The result is bit-identical to the
//! character loop of Figure 2.
//!
//! The [`collisions`] module provides the histogram machinery used to
//! reproduce the paper's hash-stability experiment (Figure 11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod combine;
mod hasher;

pub mod collisions;

pub use combine::{combine, combine_all};
pub use hasher::{hash_bytes, hash_str};

/// Number of bits in the c-array (character circle) of a hash value.
pub const C_ARRAY_BITS: u32 = 27;

/// Number of low bits reserved for the `offc` (offset) field.
pub const OFFC_BITS: u32 = 5;

/// Bit mask selecting the `offc` field of a raw hash value (`mask5`).
pub const OFFC_MASK: u32 = (1 << OFFC_BITS) - 1; // 0b11111

/// Bit mask selecting the c-array of a raw hash value (`mask27`).
pub const C_ARRAY_MASK: u32 = !OFFC_MASK;

/// A 32-bit XML string-value hash in the paper's `C27..1|OFFC` format.
///
/// The 27 most significant bits hold the circular-XOR c-array; the 5
/// least significant bits hold the offset (mod 27) at which the *next*
/// character of the string would be XOR-ed. Values are only constructed
/// through [`hash_str`], [`hash_bytes`], [`combine`] or the checked
/// [`HashValue::from_raw`], so the invariant `offc < 27` always holds.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct HashValue(u32);

impl HashValue {
    /// The hash of the empty string; the identity element of [`combine`].
    pub const EMPTY: HashValue = HashValue(0);

    /// Returns the raw 32-bit representation (`c-array << 5 | offc`).
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a hash value from its raw representation.
    ///
    /// Returns `None` if the `offc` field is not a valid offset
    /// (i.e. not in `0..27`); every such raw word is unreachable from
    /// the hash function and would break [`combine`]'s rotation.
    #[inline]
    pub const fn from_raw(raw: u32) -> Option<HashValue> {
        if raw & OFFC_MASK < C_ARRAY_BITS {
            Some(HashValue(raw))
        } else {
            None
        }
    }

    /// The 27-bit character circle, aligned to the least significant bit.
    #[inline]
    pub const fn c_array(self) -> u32 {
        self.0 >> OFFC_BITS
    }

    /// The offset (in `0..27`) where the next character would be XOR-ed.
    #[inline]
    pub const fn offset(self) -> u32 {
        self.0 & OFFC_MASK
    }

    /// Internal constructor from a LSB-aligned c-array and an offset.
    #[inline]
    pub(crate) fn from_parts(c_array: u32, offset: u32) -> HashValue {
        debug_assert!(offset < C_ARRAY_BITS);
        debug_assert!(c_array >> C_ARRAY_BITS == 0);
        HashValue(c_array << OFFC_BITS | offset)
    }
}

impl std::fmt::Debug for HashValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Mirrors the paper's Figure 3 layout: c-array MSB-first, then offc.
        write!(f, "H({:027b}|{:05b})", self.c_array(), self.offset())
    }
}

impl std::fmt::Display for HashValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip() {
        let h = hash_str("hello world");
        assert_eq!(HashValue::from_raw(h.raw()), Some(h));
    }

    #[test]
    fn from_raw_rejects_invalid_offsets() {
        for offc in 27..=31u32 {
            assert_eq!(HashValue::from_raw(0xdead_bee0 | offc), None);
        }
        for offc in 0..27u32 {
            assert!(HashValue::from_raw(offc).is_some());
        }
    }

    #[test]
    fn empty_hash_is_all_zero() {
        assert_eq!(hash_str(""), HashValue::EMPTY);
        assert_eq!(HashValue::EMPTY.raw(), 0);
        assert_eq!(HashValue::EMPTY.c_array(), 0);
        assert_eq!(HashValue::EMPTY.offset(), 0);
    }

    #[test]
    fn parts_agree_with_masks() {
        let h = hash_str("Arthur Dent");
        assert_eq!(h.c_array(), (h.raw() & C_ARRAY_MASK) >> OFFC_BITS);
        assert_eq!(h.offset(), h.raw() & OFFC_MASK);
    }

    #[test]
    fn debug_format_matches_figure_layout() {
        let s = format!("{:?}", hash_str("Arthur"));
        assert_eq!(s, "H(011011001011101111000011101|00011)");
    }
}
