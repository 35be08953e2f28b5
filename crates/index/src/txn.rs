//! Commutative transaction commits (paper §5.1).
//!
//! The challenge: every text update changes the hash of *all* its
//! ancestors, so naive locking would serialise every transaction on
//! the root. The paper's observation is that because the combination
//! function `C` is associative and ancestors are recomputed *from
//! their children's stored values*, index maintenance commutes: no
//! ancestor needs to be locked while a transaction runs. A committing
//! transaction re-reads the latest values of the affected ancestors
//! (and their direct children) and recomputes — and whatever order
//! concurrent commits interleave in, the final hashes are the ones a
//! serial execution would produce.
//!
//! A [`Transaction`] is the buffered write batch of that protocol;
//! [`IndexService`](crate::IndexService) commits it through its
//! group-commit pipeline. The commutativity property itself — *any*
//! commit order yields identical indices — is what the tests pin down,
//! on a service holding one document.

use xvi_xml::NodeId;

/// A buffered batch of value updates; created by
/// [`IndexService::begin`](crate::IndexService::begin), applied
/// atomically on commit.
#[derive(Debug, Default, Clone)]
pub struct Transaction {
    pub(crate) writes: Vec<(NodeId, String)>,
    /// Position of each node's buffered write in `writes`, so
    /// re-writing a node is O(1) instead of a scan (bulk transactions
    /// stay linear in their write count).
    slot_of: std::collections::HashMap<NodeId, usize>,
}

impl Transaction {
    /// Buffers a value write. No locks are taken and no ancestor is
    /// touched — maintenance is deferred to commit.
    ///
    /// Writing the same node twice is **last-write-wins**: the earlier
    /// buffered value is replaced (first-write position kept), so a
    /// transaction never carries more entries than distinct target
    /// nodes and batches shrink *before* they reach the group-commit
    /// leader.
    pub fn set_value(&mut self, node: NodeId, value: impl Into<String>) {
        let value = value.into();
        match self.slot_of.entry(node) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.writes[*e.get()].1 = value;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.writes.len());
                self.writes.push((node, value));
            }
        }
    }

    /// Number of buffered writes.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Whether the transaction buffers no writes.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexManager, IndexService, Lookup, ServiceConfig};
    use std::sync::Arc;
    use xvi_xml::{Document, NodeKind};

    const DOC: &str = "<person><name><first>Arthur</first><family>Dent</family></name>\
                       <age>42</age></person>";

    fn text_node(doc: &Document, content: &str) -> NodeId {
        doc.descendants(doc.document_node())
            .find(|&n| matches!(doc.kind(n), NodeKind::Text(t) if t == content))
            .unwrap()
    }

    /// The catalog id every test registers its one document under.
    const DOC_ID: &str = "doc";

    /// A one-shard service holding `doc` alone.
    fn one_doc_service(doc: Document) -> IndexService {
        let service = IndexService::new(ServiceConfig::with_shards(1));
        service.insert_document(DOC_ID, doc);
        service
    }

    fn read<R>(store: &IndexService, f: impl FnOnce(&Document, &IndexManager) -> R) -> R {
        store.read(DOC_ID, f).expect("the document is registered")
    }

    fn fingerprint(store: &IndexService) -> Vec<Option<u32>> {
        read(store, |doc, idx| {
            doc.descendants_or_self(doc.document_node())
                .map(|n| idx.hash_of(n).map(|h| h.raw()))
                .collect()
        })
    }

    #[test]
    fn single_transaction_commit() {
        let doc = Document::parse(DOC).unwrap();
        let first = text_node(&doc, "Arthur");
        let store = one_doc_service(doc);

        let mut t = store.begin();
        assert!(t.is_empty());
        t.set_value(first, "Ford");
        assert_eq!(t.len(), 1);
        assert_eq!(store.commit(DOC_ID, t).unwrap().applied, 1);
        assert_eq!(store.commit_count(), 1);

        read(&store, |doc, idx| {
            assert_eq!(idx.query(doc, &Lookup::equi("FordDent")).unwrap().len(), 1);
            idx.verify_against(doc).unwrap();
        });
    }

    #[test]
    fn empty_commit_is_free() {
        let doc = Document::parse(DOC).unwrap();
        let store = one_doc_service(doc);
        assert_eq!(store.commit(DOC_ID, store.begin()).unwrap().applied, 0);
        assert_eq!(store.commit_count(), 0);
    }

    /// §5.1's claim, directly: two transactions touching *sibling*
    /// leaves (both affecting the same ancestors, including the root)
    /// produce identical final indices regardless of commit order.
    #[test]
    fn commit_order_does_not_matter() {
        let run = |first_order: bool| {
            let doc = Document::parse(DOC).unwrap();
            let a = text_node(&doc, "Arthur");
            let d = text_node(&doc, "Dent");
            let store = one_doc_service(doc);
            let mut t1 = store.begin();
            t1.set_value(a, "Ford");
            let mut t2 = store.begin();
            t2.set_value(d, "Prefect");
            if first_order {
                store.commit(DOC_ID, t1).unwrap();
                store.commit(DOC_ID, t2).unwrap();
            } else {
                store.commit(DOC_ID, t2).unwrap();
                store.commit(DOC_ID, t1).unwrap();
            }
            read(&store, |doc, idx| idx.verify_against(doc).unwrap());
            fingerprint(&store)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn concurrent_commits_converge() {
        let doc = Document::parse(DOC).unwrap();
        let a = text_node(&doc, "Arthur");
        let d = text_node(&doc, "Dent");
        let g = text_node(&doc, "42");
        let store = Arc::new(one_doc_service(doc));

        let handles: Vec<_> = [(a, "Zaphod"), (d, "Beeblebrox"), (g, "200")]
            .into_iter()
            .map(|(node, val)| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut t = store.begin();
                    t.set_value(node, val);
                    store.commit(DOC_ID, t).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(store.commit_count(), 3);
        read(&store, |doc, idx| {
            assert_eq!(
                idx.query(doc, &Lookup::equi("ZaphodBeeblebrox"))
                    .unwrap()
                    .len(),
                1
            );
            assert!(
                idx.query(doc, &Lookup::range_f64(199.0..201.0))
                    .unwrap()
                    .len()
                    >= 2
            );
            idx.verify_against(doc).unwrap();
        });
    }

    #[test]
    fn conflicting_writes_last_commit_wins() {
        let doc = Document::parse(DOC).unwrap();
        let a = text_node(&doc, "Arthur");
        let store = one_doc_service(doc);

        let mut t1 = store.begin();
        t1.set_value(a, "Ford");
        let mut t2 = store.begin();
        t2.set_value(a, "Zaphod");
        store.commit(DOC_ID, t1).unwrap();
        store.commit(DOC_ID, t2).unwrap();

        read(&store, |doc, idx| {
            assert!(idx
                .query(doc, &Lookup::equi("FordDent"))
                .unwrap()
                .is_empty());
            assert_eq!(
                idx.query(doc, &Lookup::equi("ZaphodDent")).unwrap().len(),
                1
            );
            idx.verify_against(doc).unwrap();
        });
    }

    #[test]
    fn one_transaction_with_many_writes_is_atomicish() {
        let doc = Document::parse(DOC).unwrap();
        let a = text_node(&doc, "Arthur");
        let d = text_node(&doc, "Dent");
        let g = text_node(&doc, "42");
        let store = one_doc_service(doc);

        let mut t = store.begin();
        t.set_value(a, "Tricia");
        t.set_value(d, "McMillan");
        t.set_value(g, "30");
        assert_eq!(store.commit(DOC_ID, t).unwrap().applied, 3);
        read(&store, |doc, idx| {
            assert_eq!(
                idx.query(doc, &Lookup::equi("TriciaMcMillan"))
                    .unwrap()
                    .len(),
                1
            );
            assert!(
                idx.query(doc, &Lookup::range_f64(29.5..30.5))
                    .unwrap()
                    .len()
                    >= 2
            );
            idx.verify_against(doc).unwrap();
        });
    }

    /// Satellite fix: writing the same node twice in one transaction
    /// must keep only the last value — the batch shrinks *before* it
    /// reaches the group-commit leader instead of relying on
    /// downstream coalescing order.
    #[test]
    fn same_node_twice_is_last_write_wins() {
        let doc = Document::parse(DOC).unwrap();
        let a = text_node(&doc, "Arthur");
        let d = text_node(&doc, "Dent");
        let store = one_doc_service(doc);

        let mut t = store.begin();
        t.set_value(a, "Ford");
        t.set_value(d, "Prefect");
        t.set_value(a, "Zaphod");
        t.set_value(a, "Tricia");
        // Two buffered entries for two distinct nodes, not four.
        assert_eq!(t.len(), 2);
        assert_eq!(store.commit(DOC_ID, t).unwrap().applied, 2);
        read(&store, |doc, idx| {
            assert_eq!(
                idx.query(doc, &Lookup::equi("TriciaPrefect"))
                    .unwrap()
                    .len(),
                1
            );
            assert!(idx
                .query(doc, &Lookup::equi("FordPrefect"))
                .unwrap()
                .is_empty());
            idx.verify_against(doc).unwrap();
        });
    }

    #[test]
    fn into_parts_returns_the_final_state() {
        let doc = Document::parse(DOC).unwrap();
        let a = text_node(&doc, "Arthur");
        let store = one_doc_service(doc);
        let mut t = store.begin();
        t.set_value(a, "Random");
        store.commit(DOC_ID, t).unwrap();
        let (doc, idx) = store.remove_document(DOC_ID).unwrap().unwrap();
        assert_eq!(
            idx.query(&doc, &Lookup::equi("RandomDent")).unwrap().len(),
            1
        );
    }

    #[test]
    fn reads_see_committed_state_only() {
        let doc = Document::parse(DOC).unwrap();
        let a = text_node(&doc, "Arthur");
        let store = one_doc_service(doc);
        let mut t = store.begin();
        t.set_value(a, "Ford");
        // Not yet committed: reads still see Arthur.
        read(&store, |doc, idx| {
            assert_eq!(
                idx.query(doc, &Lookup::equi("ArthurDent")).unwrap().len(),
                1
            );
        });
        store.commit(DOC_ID, t).unwrap();
        read(&store, |doc, idx| {
            assert!(idx
                .query(doc, &Lookup::equi("ArthurDent"))
                .unwrap()
                .is_empty());
        });
    }
}
