//! Descent model tests: every point and range probe answers exactly
//! what a `std::collections::BTreeMap` kept beside the tree answers.
//!
//! Probes are woven *between* the mutations — inserts, deletes, bulk
//! builds, arena compactions and COW clone-then-mutate forks — so the
//! root-to-leaf descent, the hinted in-node routing and the leaf-chain
//! range walk are checked against every tree shape the history
//! produces. Pinned snapshots are probed again after their source
//! keeps mutating, against the map as it stood when they were pinned.

use std::collections::BTreeMap;

use proptest::prelude::*;
use xvi_btree::BPlusTree;

type Model = BTreeMap<u16, u32>;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Remove(u16),
    /// Point-probe a run of adjacent keys.
    Probe(u16),
    /// Range-probe `[k, k + len)`.
    RangeProbe(u16, u16),
    /// Compact the arena (rebuilds node ids wholesale).
    Shrink,
    /// Pin a COW snapshot; it is probed after source mutations.
    Snapshot,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
        3 => any::<u16>().prop_map(|k| Op::Remove(k % 512)),
        4 => any::<u16>().prop_map(|k| Op::Probe(k % 512)),
        2 => (any::<u16>(), 1u16..24).prop_map(|(k, l)| Op::RangeProbe(k % 512, l)),
        1 => Just(Op::Shrink),
        1 => Just(Op::Snapshot),
    ]
}

/// Asserts point answers agree with the model for a small
/// neighborhood of `k`: the key itself, its neighbours, and (for keys
/// at a leaf edge) the probes that route across a separator.
fn check_probes(tree: &BPlusTree<u16, u32>, model: &Model, k: u16) -> Result<(), TestCaseError> {
    for k in k.saturating_sub(1)..=k.saturating_add(2) {
        prop_assert_eq!(tree.get(&k), model.get(&k), "point divergence at {}", k);
    }
    Ok(())
}

fn check_range(
    tree: &BPlusTree<u16, u32>,
    model: &Model,
    k: u16,
    len: u16,
) -> Result<(), TestCaseError> {
    let hi = k.saturating_add(len);
    let got: Vec<(u16, u32)> = tree.range(k..hi).map(|(a, b)| (*a, *b)).collect();
    let want: Vec<(u16, u32)> = model.range(k..hi).map(|(a, b)| (*a, *b)).collect();
    prop_assert_eq!(got, want, "range divergence at {}..{}", k, hi);
    Ok(())
}

proptest! {
    /// Lookups and ranges match the model at every point of an
    /// arbitrary mutation history, on snapshots pinned mid-history
    /// (probed again after the source mutates), and on a fork that
    /// keeps mutating after the clone.
    #[test]
    fn descents_match_btreemap_model(
        seed_n in 0usize..400,
        ops in proptest::collection::vec(arb_op(), 1..250),
        probe_keys in proptest::collection::vec(any::<u16>(), 8),
    ) {
        for order in [4usize, 32] {
            // Bulk-built start so the descent also sees bulk-loaded
            // topology, not just incrementally grown trees.
            let seed = (0..seed_n as u16).map(|k| (k, k as u32));
            let mut tree: BPlusTree<u16, u32> =
                BPlusTree::from_sorted_iter_with_order(order, seed.clone());
            let mut model: Model = seed.collect();
            let mut snapshots: Vec<(BPlusTree<u16, u32>, Model)> = Vec::new();

            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                        check_probes(&tree, &model, k)?;
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(tree.remove(&k), model.remove(&k));
                        check_probes(&tree, &model, k)?;
                    }
                    Op::Probe(k) => check_probes(&tree, &model, k)?,
                    Op::RangeProbe(k, len) => check_range(&tree, &model, k, len)?,
                    Op::Shrink => {
                        tree.shrink_to_fit();
                        check_probes(&tree, &model, 0)?;
                    }
                    Op::Snapshot => snapshots.push((tree.clone(), model.clone())),
                }
            }
            prop_assert!(tree.check_invariants().is_ok());

            // Pinned snapshots, probed after the source kept mutating:
            // each must still answer as the map did when it was pinned.
            for (snap, pinned) in &snapshots {
                for &k in &probe_keys {
                    check_probes(snap, pinned, k % 512)?;
                }
                check_range(snap, pinned, 0, 512)?;
            }

            // A fork that mutates *after* cloning: COW detaches must
            // leave both sides answering their own model.
            let mut fork = tree.clone();
            let mut fork_model = model.clone();
            for &k in &probe_keys {
                fork.insert(k % 512, 0xF00D);
                fork_model.insert(k % 512, 0xF00D);
                check_probes(&fork, &fork_model, k % 512)?;
                check_probes(&tree, &model, k % 512)?;
            }
            fork.shrink_to_fit();
            prop_assert!(fork.check_invariants().is_ok());
            for &k in &probe_keys {
                check_probes(&fork, &fork_model, k % 512)?;
            }
            check_range(&fork, &fork_model, 0, 512)?;
            check_range(&tree, &model, 0, 512)?;
        }
    }
}
