//! Index creation on documents whose arena order differs from
//! document order.
//!
//! `IndexManager::build` walks the tree by its links, keeps its frames
//! on flat stacks, stages the hash column in a plain vector and sorts
//! the `(hash, node)` keys with a radix sort before bulk-loading. Each
//! of those depends on node ids and document positions agreeing in
//! none of the ways a freshly parsed document happens to make them
//! agree. These tests scramble documents (subtrees deleted, their slots
//! reused by later appends) and check the build against independent
//! oracles: every stored hash and state recomputed from the node's
//! string value, and a string index filled by one-at-a-time inserts.

use xvi_datagen::Dataset;
use xvi_hash::hash_str;
use xvi_index::{IndexConfig, IndexManager, StringIndex, XmlType};
use xvi_xml::{Document, NodeId, NodeKind};

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

fn elements(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.document_node())
        .filter(|&n| matches!(doc.kind(n), NodeKind::Element(_)))
        .collect()
}

/// An XMark document with random small subtrees deleted and new typed
/// and untyped content appended into the freed slots.
fn scrambled(seed: u64) -> Document {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut doc = Document::parse(&Dataset::XMark(1).generate(5)).unwrap();
    let root = doc.root_element().unwrap();
    for step in 0..120 {
        let els = elements(&doc);
        let victim = els[rng.below(els.len())];
        if victim != root && rng.below(2) == 0 && doc.descendants(victim).nth(40).is_none() {
            doc.delete_subtree(victim);
            continue;
        }
        let els = elements(&doc);
        let parent = els[rng.below(els.len())];
        let e = doc.append_element(parent, "added");
        match rng.below(4) {
            0 => {
                doc.append_text(e, &format!("{}.25", step));
            }
            1 => {
                doc.set_attribute(e, "when", "2009-03-24T10:00:00");
                doc.append_text(e, &step.to_string());
            }
            2 => {
                let inner = doc.append_element(e, "part");
                doc.append_text(inner, "4");
                doc.append_text(e, "2");
            }
            _ => {
                doc.append_text(e, "duplicate value");
            }
        }
    }
    doc
}

fn config() -> IndexConfig {
    IndexConfig::with_types(&[XmlType::Double, XmlType::Integer, XmlType::DateTime])
}

/// Every structural node and attribute of `doc`.
fn all_nodes(doc: &Document) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = doc.descendants_or_self(doc.document_node()).collect();
    let attrs: Vec<NodeId> = nodes.iter().flat_map(|&n| doc.attributes(n)).collect();
    nodes.extend(attrs);
    nodes
}

fn indexed(doc: &Document, n: NodeId) -> bool {
    matches!(
        doc.kind(n),
        NodeKind::Document | NodeKind::Element(_) | NodeKind::Text(_) | NodeKind::Attribute { .. }
    )
}

#[test]
fn build_matches_independent_oracles_on_scrambled_documents() {
    for seed in 1..=12 {
        let doc = scrambled(seed);
        let pre: Vec<NodeId> = doc.descendants_or_self(doc.document_node()).collect();
        assert!(
            pre.windows(2).any(|w| w[0] > w[1]),
            "seed {seed}: arena order still follows document order"
        );
        let idx = IndexManager::build(&doc, config());
        idx.verify_against(&doc).unwrap();

        let mut one_by_one = StringIndex::new(doc.arena_size());
        let nodes = all_nodes(&doc);
        for &n in nodes.iter().rev() {
            let value = doc.string_value(n);
            if !indexed(&doc, n) {
                assert_eq!(idx.hash_of(n), None, "seed {seed}: {n:?} is not indexed");
                continue;
            }
            let h = hash_str(&value);
            assert_eq!(idx.hash_of(n), Some(h), "seed {seed}: hash of {n:?}");
            one_by_one.set(n, h);
            for &ty in &config().typed {
                let an = xvi_fsm::analyzer(ty);
                let state = an.state_of(&value);
                let typed = idx.typed_index(ty).unwrap();
                assert_eq!(
                    typed.state_of(n),
                    state,
                    "seed {seed}: {ty:?} state of {n:?}"
                );
                let want = state
                    .filter(|&s| an.is_complete(s))
                    .and_then(|_| an.cast(&value))
                    .map(|v| v.key);
                assert_eq!(
                    typed.value_of(n),
                    want,
                    "seed {seed}: {ty:?} value of {n:?}"
                );
            }
        }
        let bulk = idx.string_index().unwrap();
        assert_eq!(bulk.len(), one_by_one.len(), "seed {seed}");
        assert_eq!(bulk.root_hash(), one_by_one.root_hash(), "seed {seed}");
    }
}

#[test]
fn subtree_insertion_after_build_stays_equivalent() {
    // The non-bulk path of the same walk: new content indexed into an
    // already built index ends where a fresh build ends.
    let mut doc = scrambled(99);
    let mut idx = IndexManager::build(&doc, config());
    let parents = elements(&doc);
    for (i, &p) in parents.iter().step_by(parents.len() / 8 + 1).enumerate() {
        let e = doc.append_element(p, "late");
        doc.set_attribute(e, "n", &i.to_string());
        let inner = doc.append_element(e, "v");
        doc.append_text(inner, &format!("{i}.5"));
        idx.index_new_subtree(&doc, e);
    }
    idx.verify_against(&doc).unwrap();
    let fresh = IndexManager::build(&doc, config());
    assert_eq!(
        idx.string_index().unwrap().root_hash(),
        fresh.string_index().unwrap().root_hash()
    );
}
