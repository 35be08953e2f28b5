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
//!
//! A WAL insert splits the same build over two threads: the caller
//! shreds and loads the string index while the log helper loads the
//! typed (and substring) indexes. The last test holds that split build
//! equal to `IndexManager::build`.

use xvi_datagen::Dataset;
use xvi_hash::hash_str;
use xvi_index::{
    IndexConfig, IndexManager, IndexService, Lookup, ServiceConfig, StringIndex, XmlType,
};
use xvi_xml::{Document, NodeId, NodeKind};

mod common;
use common::index_state;

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
        assert!(
            bulk.entries().eq(one_by_one.entries()),
            "seed {seed}: (hash, node) entries differ"
        );
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
    assert!(idx
        .string_index()
        .unwrap()
        .entries()
        .eq(fresh.string_index().unwrap().entries()));
}

#[test]
fn wal_insert_builds_what_build_builds() {
    let dir = std::env::temp_dir().join(format!("xvi-split-build-{}", std::process::id()));
    for config in [IndexConfig::default(), IndexConfig::all()] {
        let _ = std::fs::remove_dir_all(&dir);
        let service = IndexService::open(
            ServiceConfig::with_shards(2)
                .with_index(config.clone())
                .with_wal(&dir),
        )
        .unwrap();
        for ds in Dataset::paper_suite() {
            let doc = Document::parse(&ds.generate(2)).unwrap();
            let built = IndexManager::build(&doc, config.clone());
            service.insert_document(ds.name(), doc);
            service
                .read(&ds.name(), |doc, inserted| {
                    let name = ds.name();
                    assert!(
                        index_state(doc, inserted) == index_state(doc, &built),
                        "{name}: inserted index differs from build under {config:?}"
                    );
                    let (a, b) = (inserted.string_index(), built.string_index());
                    assert!(a.unwrap().entries().eq(b.unwrap().entries()), "{name}");
                    for &ty in &config.typed {
                        // `index_state` reads the node trees; the value
                        // trees answer this scan.
                        let all = Lookup::typed_range(ty, f64::NEG_INFINITY..=f64::INFINITY);
                        assert_eq!(
                            inserted.query(doc, &all).unwrap(),
                            built.query(doc, &all).unwrap(),
                            "{name}: {ty:?} value order"
                        );
                    }
                    match (inserted.substring_index(), built.substring_index()) {
                        (None, None) => assert!(!config.substring_index),
                        (Some(a), Some(b)) => {
                            assert_eq!(
                                (a.postings(), a.indexed_nodes()),
                                (b.postings(), b.indexed_nodes()),
                                "{name}"
                            );
                            let needle = Lookup::contains("ing");
                            assert_eq!(
                                inserted.query(doc, &needle).unwrap(),
                                built.query(doc, &needle).unwrap(),
                                "{name}"
                            );
                        }
                        _ => panic!("{name}: substring index presence differs"),
                    }
                })
                .unwrap();
        }
        drop(service);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
