//! Small utilities shared across the index implementation.

/// A totally ordered `f64` for use as a B+tree key.
///
/// The lexical FSMs never produce NaN (no `NaN` literal in the paper's
/// double language), but the ordering is total regardless via IEEE-754
/// `total_cmp`, so the tree cannot be corrupted by odd inputs.
///
/// Equality is defined through the same `total_cmp`, NOT `f64::eq`:
/// under `total_cmp` the values `-0.0` and `0.0` are *distinct*, and a
/// key type whose `Eq` disagrees with its `Ord` silently corrupts
/// search trees (an entry stored under `-0.0` would be "equal" to but
/// unreachable from `0.0`).
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(pub f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for OrdF64 {
    fn from(v: f64) -> Self {
        OrdF64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_numeric() {
        let mut v = vec![OrdF64(2.0), OrdF64(-1.0), OrdF64(0.0), OrdF64(1.5)];
        v.sort();
        assert_eq!(v, vec![OrdF64(-1.0), OrdF64(0.0), OrdF64(1.5), OrdF64(2.0)]);
    }

    #[test]
    fn negative_zero_sorts_before_positive_zero() {
        assert!(OrdF64(-0.0) < OrdF64(0.0), "total_cmp distinguishes zeros");
        // Eq must agree with Ord — the invariant search trees rely on.
        assert_ne!(OrdF64(-0.0), OrdF64(0.0));
        assert_eq!(OrdF64(1.5), OrdF64(1.5));
    }
}
