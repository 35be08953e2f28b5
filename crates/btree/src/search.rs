//! Intra-node search hints.
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

/// Stride of the implicit hint column: the hint pass probes every
/// `HINT_STRIDE`-th key before the final linear scan. 8 keeps both
/// passes at most `order / 8 + 7` predictable comparisons for the
/// default order of 32.
const HINT_STRIDE: usize = 8;

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
}
