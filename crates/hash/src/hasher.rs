//! The hash function `H` (paper Figure 2).
//!
//! `H` consumes the characters of an XML string value left to right and
//! XOR-s the 7 low bits of each character into a 27-bit circular buffer
//! (the *c-array*), advancing the write offset by 5 bit positions per
//! character and wrapping at 27. Because `gcd(5, 27) = 1` the offset
//! visits all 27 positions before repeating, so consecutive characters
//! land on distinct, interleaved positions — this is what keeps
//! collisions low for typical text (see the paper's Figure 11 and the
//! [`crate::collisions`] module).
//!
//! [`hash_bytes`] evaluates `H` a block of 27 characters at a time (the
//! block kernel described in the crate docs); the character loop of
//! Figure 2 is kept in this module's tests as the oracle.

use crate::{HashValue, C_ARRAY_BITS};

const C_ARRAY_LOW_MASK: u32 = (1 << C_ARRAY_BITS) - 1;

/// Hashes a string value with the paper's hash function `H`.
///
/// Operates on the UTF-8 bytes of `s`; each byte contributes its 7 low
/// bits, exactly as the paper's C implementation does (`*str & 127`).
/// Hashing bytes (rather than code points) is essential for the
/// homomorphism `H(a ⧺ b) = C(H(a), H(b))` to hold for *byte*
/// concatenation, which is how XML string values concatenate.
///
/// ```
/// use xvi_hash::{combine, hash_str};
/// let h = combine(hash_str("Arthur"), hash_str("Dent"));
/// assert_eq!(h, hash_str("ArthurDent"));
/// ```
#[inline]
pub fn hash_str(s: &str) -> HashValue {
    hash_bytes(s.as_bytes())
}

/// Hashes a byte sequence with the paper's hash function `H`.
///
/// This is the workhorse behind [`hash_str`]; it is public because the
/// XML store hands out string values as byte slices during shredding.
///
/// Computes the same value as the byte-at-a-time loop of Figure 2 with
/// a block kernel (see the crate docs): whole 27-byte blocks are
/// XOR-ed in with constant shifts, the tail as one zero-padded block,
/// and the final offset is `5·len mod 27`.
pub fn hash_bytes(bytes: &[u8]) -> HashValue {
    // Bits 27.. of the accumulator hold the parts of characters that
    // straddle the end of the circle; they are folded back at the end.
    let mut acc: u64 = 0;
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        acc ^= xor_block(block.try_into().expect("chunks_exact yields whole blocks"));
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; BLOCK];
        padded[..tail.len()].copy_from_slice(tail);
        acc ^= xor_block(&padded);
    }
    let c_array = (acc ^ (acc >> C_ARRAY_BITS)) as u32 & C_ARRAY_LOW_MASK;
    let offset = (bytes.len() % BLOCK) as u32 * 5 % C_ARRAY_BITS;
    HashValue::from_parts(c_array, offset)
}

/// Characters per block: after `k` characters the write offset is
/// `5k mod 27`, so every run of 27 characters starts at offset 0.
const BLOCK: usize = C_ARRAY_BITS as usize;

/// The write offset of the `k`-th character of a block.
const SHIFTS: [u32; BLOCK] = {
    let mut shifts = [0u32; BLOCK];
    let mut k = 0;
    while k < BLOCK {
        shifts[k] = (5 * k % BLOCK) as u32;
        k += 1;
    }
    shifts
};

/// XORs the 7 low bits of each character of one block in at its
/// offset, without wrapping: bit `27 + j` stands for circle bit `j`.
#[inline(always)]
fn xor_block(block: &[u8; BLOCK]) -> u64 {
    let mut acc = 0u64;
    for k in 0..BLOCK {
        acc ^= u64::from(block[k] & 127) << SHIFTS[k];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine;

    /// The byte-at-a-time loop of the paper's Figure 2: the oracle the
    /// block kernel must match bit for bit.
    fn hash_bytes_fig2(bytes: &[u8]) -> HashValue {
        let mut acc: u32 = 0; // bits >= 27 are junk
        let mut offset: u32 = 0;
        for &b in bytes {
            let c = u32::from(b & 127);
            // Characters at offsets > 20 straddle the end of the
            // circle: their overflowing high bits wrap to the low end.
            acc ^= c << offset;
            if offset > 20 {
                acc ^= c >> (C_ARRAY_BITS - offset);
            }
            offset += 5;
            if offset > 26 {
                offset -= 27;
            }
        }
        // The paper's final `hval <<= 5` discards the junk bits.
        HashValue::from_parts(acc & C_ARRAY_LOW_MASK, offset)
    }

    /// xorshift64: deterministic bytes covering the full 0..=255 range.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn block_kernel_matches_the_figure2_loop() {
        for len in 0..=300usize {
            for seed in 0..8u64 {
                let bytes = random_bytes(seed * 1000 + len as u64, len);
                assert_eq!(
                    hash_bytes(&bytes),
                    hash_bytes_fig2(&bytes),
                    "length {len}, seed {seed}"
                );
            }
        }
        // Constant fills, including bytes with bit 7 set, which must
        // contribute only their 7 low bits.
        for len in 0..=300usize {
            for fill in [0x7fu8, 0x80, 0xff] {
                let bytes = vec![fill; len];
                assert_eq!(
                    hash_bytes(&bytes),
                    hash_bytes_fig2(&bytes),
                    "{len}x{fill:#x}"
                );
            }
        }
    }

    #[test]
    fn block_kernel_matches_on_unaligned_subslices() {
        let bytes = random_bytes(42, 4096);
        for start in 0..64 {
            for end in (start..bytes.len()).step_by(97) {
                let s = &bytes[start..end];
                assert_eq!(hash_bytes(s), hash_bytes_fig2(s), "{start}..{end}");
            }
        }
    }

    /// Paper Figure 3: the worked example `H("Arthur")`.
    ///
    /// The figure lists the resulting c-array MSB-first as
    /// `011011001011101111000011101` and the offc field as `00011`
    /// (offset 3 = 6 characters × 5 positions mod 27).
    #[test]
    fn figure3_arthur_worked_example() {
        let h = hash_str("Arthur");
        #[allow(clippy::unusual_byte_groupings)] // grouped as c-array | offc
        {
            assert_eq!(h.c_array(), 0b011011001011101111000011101);
            assert_eq!(h.offset(), 3);
            assert_eq!(h.raw(), 0b011011001011101111000011101_00011);
        }
    }

    #[test]
    fn offset_advances_five_positions_per_character_mod_27() {
        for len in 0..100usize {
            let s = "x".repeat(len);
            assert_eq!(
                hash_bytes(s.as_bytes()).offset(),
                (len as u32 * 5) % 27,
                "offset after {len} characters"
            );
        }
    }

    #[test]
    fn single_character_occupies_its_offset() {
        // One character at offset 0: c-array == the 7 low bits.
        assert_eq!(hash_str("A").c_array(), u32::from(b'A'));
        assert_eq!(hash_str("\x7f").c_array(), 127);
    }

    #[test]
    fn only_seven_low_bits_of_each_byte_contribute() {
        // 'A' (0x41) and 0xC1 share the same 7 low bits.
        assert_eq!(hash_bytes(&[0x41]), hash_bytes(&[0xC1]));
    }

    #[test]
    fn wraparound_region_is_exercised() {
        // 5 characters put the offset at 25; the 6th character straddles
        // the circle boundary. Verify against a split-and-combine.
        let s = "abcdef";
        let h = combine(hash_str("abcde"), hash_str("f"));
        assert_eq!(h, hash_str(s));
    }

    #[test]
    fn hash_distinguishes_order_for_most_strings() {
        assert_ne!(hash_str("ab"), hash_str("ba"));
        assert_ne!(hash_str("Arthur"), hash_str("ruhtrA"));
    }

    /// The documented pathology behind the paper's Figure 11 tail: the
    /// write offset has period 27 in the character count, so swapping
    /// two characters exactly 27 positions apart XORs the same values
    /// into the same positions and the hashes collide.
    #[test]
    fn period_27_character_swap_collides() {
        let filler = "w".repeat(26);
        let a = format!("A{filler}B-tail");
        let b = format!("B{filler}A-tail");
        assert_ne!(a, b);
        assert_eq!(hash_str(&a), hash_str(&b));
    }

    #[test]
    fn nearby_swaps_do_not_collide() {
        for dist in 1..27usize {
            let filler = "w".repeat(dist - 1);
            let a = format!("A{filler}B");
            let b = format!("B{filler}A");
            assert_ne!(
                hash_str(&a),
                hash_str(&b),
                "swap at distance {dist} must not collide"
            );
        }
    }

    #[test]
    fn long_input_stability() {
        // A megabyte of repeating text hashes deterministically and the
        // offset lands where the length predicts.
        let s = "lorem ipsum ".repeat(87_382);
        let h = hash_bytes(s.as_bytes());
        assert_eq!(h.offset(), (s.len() as u32 * 5) % 27);
        assert_eq!(h, hash_bytes(s.as_bytes()));
    }
}
