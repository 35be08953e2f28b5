//! The monoid-summary battery: after *any* interleaving of point
//! inserts, deletes, bulk reloads, compactions and copy-on-write
//! clone-then-mutate steps, every interior node's **stored** summary
//! must be byte-identical to a from-scratch recompute (that is what
//! [`BPlusTree::check_invariants`] verifies since the summaries landed
//! there), the root summary must equal an entry-by-entry external fold,
//! and [`BPlusTree::count_range`] must agree with the range iterator
//! for every bound shape — including empty and reversed bounds — while
//! visiting at most `2·depth + 1` nodes.

use std::ops::Bound;

use proptest::collection::vec;
use proptest::prelude::*;

use xvi_btree::{BPlusTree, Summary};

/// One step of a generated mutation script.
#[derive(Debug, Clone)]
enum Op {
    /// Insert (or replace) a key.
    Insert(u32),
    /// Remove a key (may miss).
    Remove(u32),
    /// Rebuild the tree from its own contents via the bulk loader.
    BulkReload,
    /// Compact the arena.
    Shrink,
    /// Clone the tree (pinning every page), then mutate the original —
    /// every touched page must detach copy-on-write with its stored
    /// summaries intact on both sides.
    CloneThenMutate(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..600).prop_map(Op::Insert),
        3 => (0u32..600).prop_map(Op::Remove),
        1 => Just(Op::BulkReload),
        1 => Just(Op::Shrink),
        1 => (0u32..600).prop_map(Op::CloneThenMutate),
    ]
}

/// Recomputes the root summary externally, one entry at a time —
/// sharing no code with the tree's own fold.
fn external_fold(t: &BPlusTree<u32, u64>) -> Summary<u32> {
    t.iter().fold(Summary::empty(), |acc, (k, _)| {
        acc.combine(&Summary::of_key(k))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Summaries survive arbitrary interleavings of every mutation
    /// path, with a COW snapshot pinned across part of the script.
    #[test]
    fn summaries_exact_after_any_interleaving(
        order in prop_oneof![Just(3usize), Just(4), Just(8)],
        ops in vec(op_strategy(), 1..120),
    ) {
        let mut t: BPlusTree<u32, u64> = BPlusTree::with_order(order);
        let mut snapshots: Vec<BPlusTree<u32, u64>> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(k) => {
                    t.insert(*k, u64::from(*k) * 2);
                }
                Op::Remove(k) => {
                    t.remove(k);
                }
                Op::BulkReload => {
                    let entries: Vec<(u32, u64)> =
                        t.iter().map(|(k, v)| (*k, *v)).collect();
                    t = BPlusTree::from_sorted_iter_with_order(order, entries);
                }
                Op::Shrink => t.shrink_to_fit(),
                Op::CloneThenMutate(k) => {
                    snapshots.push(t.clone());
                    t.insert(*k, 7);
                }
            }
            t.check_invariants()
                .map_err(|e| TestCaseError::fail(format!("after {op:?}: {e}")))?;
        }
        // The stored root summary equals an entry-by-entry recompute.
        prop_assert_eq!(t.summary(), external_fold(&t));
        // Pinned snapshots kept their (pre-mutation) summaries intact
        // through every COW detach the later script steps caused.
        for s in &snapshots {
            s.check_invariants()
                .map_err(|e| TestCaseError::fail(format!("snapshot: {e}")))?;
            prop_assert_eq!(s.summary(), external_fold(s));
        }
    }

    /// `count_range` agrees with the iterator for random bounds of
    /// every shape, within the probe budget.
    #[test]
    fn count_range_matches_iterator(
        keys in vec(0u32..2000, 0..400),
        probes_spec in vec((0u32..2100, 0u32..2100, 0usize..9), 1..24),
    ) {
        let mut t: BPlusTree<u32, u32> = BPlusTree::with_order(4);
        for k in &keys {
            t.insert(*k, *k);
        }
        let depth = t.stats().depth;
        for &(a, b, shape) in &probes_spec {
            let bounds: (Bound<u32>, Bound<u32>) = match shape {
                0 => (Bound::Included(a), Bound::Included(b)),
                1 => (Bound::Included(a), Bound::Excluded(b)),
                2 => (Bound::Excluded(a), Bound::Included(b)),
                3 => (Bound::Excluded(a), Bound::Excluded(b)),
                4 => (Bound::Unbounded, Bound::Included(b)),
                5 => (Bound::Unbounded, Bound::Excluded(b)),
                6 => (Bound::Included(a), Bound::Unbounded),
                7 => (Bound::Excluded(a), Bound::Unbounded),
                _ => (Bound::Unbounded, Bound::Unbounded),
            };
            // `a > b` cases are the reversed/empty bounds on purpose:
            // the iterator yields nothing and the count must agree.
            let want = t.range(bounds).count();
            let (got, probes) = t.count_range_probed(bounds);
            prop_assert_eq!(got, want, "bounds {:?}", bounds);
            prop_assert!(
                probes <= 2 * depth + 1,
                "{} probes exceeds 2*{}+1 for {:?}", probes, depth, bounds
            );
        }
        // The degenerate single-point and full ranges, for good measure.
        prop_assert_eq!(t.count_range(..), t.len());
        if let Some((&k, _)) = t.iter().next() {
            prop_assert_eq!(t.count_range(k..=k), 1);
        }
    }
}

#[test]
fn value_only_mutation_is_invisible_to_diff() {
    let mut t: BPlusTree<u32, u32> = BPlusTree::from_sorted_iter((0..10_000).map(|i| (i, i)));
    let snap = t.clone();
    // In-place value edit through get_mut: detaches a page, changes no
    // key, so the summary and the key sequence stay as they were.
    *t.get_mut(&4321).unwrap() = 999;
    assert_eq!(t.summary(), snap.summary());
    assert!(t.iter().map(|(k, _)| k).eq(snap.iter().map(|(k, _)| k)));
}

// ----- shrink_to_fit preservation (the compaction fix's pin) ---------------

#[test]
fn shrink_to_fit_preserves_summary_iteration_and_counts() {
    let mut t: BPlusTree<u32, u32> = BPlusTree::with_order(4);
    for i in 0..5_000u32 {
        t.insert(i, i);
    }
    for i in (0..5_000u32).step_by(3) {
        t.remove(&i);
    }
    let before_summary = t.summary();
    let before_entries: Vec<(u32, u32)> = t.iter().map(|(k, v)| (*k, *v)).collect();
    let s0 = t.stats();

    t.shrink_to_fit();

    let s1 = t.stats();
    assert_eq!(s1.free_slots, 0, "compaction must leave no free slots");
    assert_eq!(t.summary(), before_summary);
    let after: Vec<(u32, u32)> = t.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(after, before_entries);
    assert_eq!(
        (s1.len, s1.leaves, s1.internals),
        (s0.len, s0.leaves, s0.internals)
    );
    t.check_invariants().unwrap();
}
