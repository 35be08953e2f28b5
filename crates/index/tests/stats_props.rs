//! Estimate exactness under maintenance as a property: after *any*
//! interleaving of insert/delete/update operations, every tree-backed
//! cardinality estimate equals the true candidate count computed by
//! brute force — `lower == estimate == upper == truth` — for equality
//! probes (string index) and range probes (double index) alike.
//!
//! The mutations run through the exact maintenance entry points the
//! service's group-commit leader drives (`update_values`,
//! `delete_subtree`, `index_new_subtree` — see
//! `IndexService::apply_group`), so the counts checked here are the
//! counts commits preserve. The estimates come from the B+trees'
//! interior monoid summaries (`count_range`); a summary left stale by
//! a tree insert or remove on any of these paths breaks the equality
//! immediately, which is what this suite hunts. (`exact_estimates`
//! pins the same contract for value updates only.)

use proptest::prelude::*;

use xvi_index::{Bounds, Document, IndexConfig, IndexManager, Lookup};
use xvi_xml::{NodeId, NodeKind};

/// One generated scenario: initial leaf values plus a mutation script.
#[derive(Debug, Clone)]
struct Case {
    leaves: Vec<String>,
    ops: Vec<Op>,
}

#[derive(Debug, Clone)]
enum Op {
    /// Commit a new value into leaf `i % live leaves`.
    Update(usize, String),
    /// Delete the subtree of wrapper element `i % live leaves`.
    DeleteLeaf(usize),
    /// Append a fresh `<x>value</x>` child under the root.
    Insert(String),
}

/// Values drawn from a small pool so hash multiplicities climb high
/// enough to span several leaves, mixed with numerics so the double
/// index's value tree sees inserts and removals too.
fn value_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => prop_oneof![
            Just("alpha".to_string()),
            Just("beta".to_string()),
            Just("gamma".to_string()),
        ],
        2 => (0u32..20).prop_map(|n| n.to_string()),
        1 => (0u32..10, 0u32..100).prop_map(|(a, b)| format!("{a}.{b:02}")),
        1 => "[a-f]{1,6}",
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u64>().prop_map(|i| i as usize), value_strategy())
            .prop_map(|(i, v)| Op::Update(i, v)),
        1 => any::<u64>().prop_map(|i| Op::DeleteLeaf(i as usize)),
        2 => value_strategy().prop_map(Op::Insert),
    ]
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(value_strategy(), 3..24),
        proptest::collection::vec(op_strategy(), 0..40),
    )
        .prop_map(|(leaves, ops)| Case { leaves, ops })
}

fn build_doc(leaves: &[String]) -> Document {
    let mut xml = String::from("<root>");
    for v in leaves {
        xml.push_str(&format!("<x>{v}</x>"));
    }
    xml.push_str("</root>");
    Document::parse(&xml).expect("escaping-free values")
}

/// Live `<x>` wrapper elements under the root, in document order.
fn wrappers(doc: &Document) -> Vec<NodeId> {
    let root = doc.root_element().expect("root element");
    doc.children(root)
        .filter(|&n| matches!(doc.kind(n), NodeKind::Element(_)))
        .collect()
}

/// Applies the script through the real maintenance paths.
fn run_script(case: &Case) -> (Document, IndexManager) {
    let mut doc = build_doc(&case.leaves);
    let mut idx = IndexManager::build(&doc, IndexConfig::default());
    for op in &case.ops {
        match op {
            Op::Update(i, value) => {
                let w = wrappers(&doc);
                let text = doc
                    .children(w[i % w.len()])
                    .find(|&c| matches!(doc.kind(c), NodeKind::Text(_)));
                if let Some(text) = text {
                    idx.update_value(&mut doc, text, value).expect("live text");
                }
            }
            Op::DeleteLeaf(i) => {
                let w = wrappers(&doc);
                // Keep at least two wrappers alive so updates always
                // have targets.
                if w.len() > 2 {
                    idx.delete_subtree(&mut doc, w[i % w.len()])
                        .expect("live element");
                }
            }
            Op::Insert(value) => {
                let root = doc.root_element().expect("root element");
                let elem = doc.append_element(root, "x");
                doc.append_text(elem, value);
                idx.index_new_subtree(&doc, elem);
            }
        }
    }
    (doc, idx)
}

/// Equality probes to check: the value pool plus absent strings.
fn equi_probes() -> Vec<String> {
    let mut v: Vec<String> = vec![
        "alpha".into(),
        "beta".into(),
        "gamma".into(),
        "absent".into(),
        "zz".into(),
    ];
    for n in 0..20u32 {
        v.push(n.to_string());
    }
    v
}

/// Range probes to check, covering full, half-open, narrow and point
/// shapes.
fn range_probes() -> Vec<Bounds> {
    vec![
        Bounds::all(),
        Bounds::from_range(0.0..10.0),
        Bounds::from_range(5.0..),
        Bounds::from_range(..7.5),
        Bounds::from_range(3.0..=4.0),
        Bounds::eq(7.0),
        Bounds::eq(19.0),
        Bounds::from_range(100.0..200.0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After any interleaving of insert/delete/update operations,
    /// every tree-backed estimate is exact: its bounds and point
    /// estimate all equal the brute-force candidate count.
    #[test]
    fn estimates_bound_truth_under_maintenance(case in case_strategy()) {
        let (doc, idx) = run_script(&case);
        idx.verify_against(&doc).expect("maintenance stays exact");

        for value in equi_probes() {
            // Brute force: candidate count of an equality probe is the
            // number of hash-matching entries.
            let truth = idx.equi_candidates(&value).len();
            let est = idx.estimate(&Lookup::equi(value.clone())).unwrap();
            prop_assert!(
                (est.lower, est.estimate, est.upper) == (truth, truth, truth),
                "equi({value:?}): truth {truth}, estimate {} in [{}, {}]",
                est.estimate, est.lower, est.upper
            );
        }

        for bounds in range_probes() {
            // The typed index has no false positives: the range result
            // *is* the candidate set.
            let truth = idx.query(&doc, &Lookup::RangeF64(bounds)).unwrap().len();
            let est = idx.estimate(&Lookup::RangeF64(bounds)).unwrap();
            prop_assert!(
                (est.lower, est.estimate, est.upper) == (truth, truth, truth),
                "range({bounds}): truth {truth}, estimate {} in [{}, {}]",
                est.estimate, est.lower, est.upper
            );
        }
    }
}
