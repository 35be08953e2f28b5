//! Threaded stress test for the sharded index service: barrier-
//! synchronised writer threads race reader threads on one document,
//! and every reader-observed snapshot must be consistent with *some*
//! subset of the committed transactions.
//!
//! Because the write batches are disjoint and commits commute (§5.1),
//! the set of legal intermediate states is exactly the set of unions
//! of committed batches — so the test precomputes the root hash of
//! every subset and asserts each observed snapshot hashes to one of
//! them. A torn commit (a partially applied batch, or an index update
//! without the matching ancestor repair) would produce a hash outside
//! that set. The final state and all assertions are deterministic
//! regardless of thread interleaving, so the test is CI-safe at
//! `XVI_SCALE=1` with real parallelism.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use xvi::hash::hash_str;
use xvi::index::{IndexConfig, IndexManager, IndexService, ServiceConfig};
use xvi::prelude::*;

const WRITERS: usize = 5;
const TXNS_PER_WRITER: usize = 2;
const READERS: usize = 3;
const WRITES_PER_TXN: usize = 6;

fn scale() -> usize {
    std::env::var("XVI_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// 16 groups × 4 leaves = 64 text nodes, deep enough that every
/// transaction repairs shared ancestors (group + root + document).
fn base_doc() -> Document {
    let mut xml = String::from("<r>");
    for g in 0..16 {
        xml.push_str(&format!("<g{g}>"));
        for l in 0..4 {
            xml.push_str(&format!("<v>leaf{g}x{l}</v>"));
        }
        xml.push_str(&format!("</g{g}>"));
    }
    xml.push_str("</r>");
    Document::parse(&xml).unwrap()
}

/// The disjoint write batches: transaction `t` updates leaves
/// `t*WRITES_PER_TXN .. (t+1)*WRITES_PER_TXN`, each to a value no
/// other transaction writes.
fn transactions(doc: &Document) -> Vec<Vec<(NodeId, String)>> {
    let leaves: Vec<NodeId> = doc
        .descendants(doc.document_node())
        .filter(|&n| matches!(doc.kind(n), NodeKind::Text(_)))
        .collect();
    let total = WRITERS * TXNS_PER_WRITER;
    assert!(total * WRITES_PER_TXN <= leaves.len(), "document too small");
    (0..total)
        .map(|t| {
            (0..WRITES_PER_TXN)
                .map(|w| {
                    let leaf = t * WRITES_PER_TXN + w;
                    (leaves[leaf], format!("txn{t}w{w}"))
                })
                .collect()
        })
        .collect()
}

/// Root hash after applying the union of the batches in `mask` — the
/// state a reader may legally observe once those commits landed.
fn subset_hashes(
    doc: &Document,
    idx: &IndexManager,
    txns: &[Vec<(NodeId, String)>],
) -> HashSet<u32> {
    let root = doc.root_element().unwrap();
    let mut hashes = HashSet::new();
    for mask in 0u32..(1 << txns.len()) {
        let mut d = doc.clone();
        let mut i = idx.clone();
        let writes: Vec<(NodeId, &str)> = txns
            .iter()
            .enumerate()
            .filter(|(t, _)| mask & (1 << t) != 0)
            .flat_map(|(_, txn)| txn.iter().map(|(n, v)| (*n, v.as_str())))
            .collect();
        if !writes.is_empty() {
            i.update_values(&mut d, writes).unwrap();
        }
        hashes.insert(i.hash_of(root).unwrap().raw());
    }
    hashes
}

#[test]
fn readers_only_observe_commit_subsets() {
    let doc = base_doc();
    let idx = IndexManager::build(&doc, IndexConfig::default());
    let txns = transactions(&doc);
    let total_txns = txns.len();
    let allowed = Arc::new(subset_hashes(&doc, &idx, &txns));
    assert!(
        allowed.len() > total_txns,
        "subset states should be plentiful (disjoint batches)"
    );
    let final_hash = {
        let mut d = doc.clone();
        let mut i = idx.clone();
        let writes: Vec<(NodeId, &str)> = txns
            .iter()
            .flat_map(|t| t.iter().map(|(n, v)| (*n, v.as_str())))
            .collect();
        i.update_values(&mut d, writes).unwrap();
        i.hash_of(d.root_element().unwrap()).unwrap()
    };

    let service = Arc::new(IndexService::new(
        ServiceConfig::with_shards(4).with_max_group(4),
    ));
    service.insert_document("stress", doc);

    let running = Arc::new(AtomicBool::new(true));
    let start = Arc::new(Barrier::new(WRITERS + READERS));

    let writer_handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let service = Arc::clone(&service);
            let start = Arc::clone(&start);
            let batches: Vec<Vec<(NodeId, String)>> = (0..TXNS_PER_WRITER)
                .map(|k| txns[w * TXNS_PER_WRITER + k].clone())
                .collect();
            std::thread::spawn(move || {
                start.wait();
                for batch in batches {
                    let mut txn = service.begin();
                    let n = batch.len();
                    for (node, value) in batch {
                        txn.set_value(node, value);
                    }
                    assert_eq!(service.commit("stress", txn).unwrap().applied, n);
                }
            })
        })
        .collect();

    let reader_iterations = 200 * scale().clamp(1, 10);
    let reader_handles: Vec<_> = (0..READERS)
        .map(|_| {
            let service = Arc::clone(&service);
            let start = Arc::clone(&start);
            let allowed = Arc::clone(&allowed);
            let running = Arc::clone(&running);
            std::thread::spawn(move || {
                start.wait();
                let mut observed = HashSet::new();
                let mut i = 0usize;
                // Keep reading while the writers are active, and for a
                // fixed minimum afterwards so the final state is also
                // exercised.
                while i < reader_iterations || running.load(Ordering::Relaxed) {
                    i += 1;
                    let snap = service.snapshot("stress").unwrap();
                    let root = snap.document().root_element().unwrap();
                    let h = snap.index().hash_of(root).unwrap();
                    // 1. The snapshot is some union of committed
                    //    batches — never a torn state.
                    assert!(
                        allowed.contains(&h.raw()),
                        "observed hash {h:?} matches no commit subset"
                    );
                    // 2. The snapshot's index is coherent with the
                    //    snapshot's document.
                    assert_eq!(
                        h,
                        hash_str(&snap.document().string_value(root)),
                        "index hash diverged from the snapshotted document"
                    );
                    observed.insert(h.raw());
                }
                observed.len()
            })
        })
        .collect();

    // Collect writer outcomes before asserting on them: the readers
    // spin on `running`, so it must be cleared even when a writer
    // failed, or they would loop forever and bury the real failure.
    let writer_results: Vec<_> = writer_handles.into_iter().map(|h| h.join()).collect();
    running.store(false, Ordering::Relaxed);
    let mut distinct_states = 0usize;
    for h in reader_handles {
        distinct_states += h.join().expect("reader panicked");
    }
    for r in writer_results {
        r.expect("writer panicked");
    }
    // Readers saw at least the final state each (usually several
    // intermediate versions too, but that part is interleaving-
    // dependent, so only the lower bound is asserted).
    assert!(distinct_states >= READERS);

    assert_eq!(service.commit_count(), total_txns as u64);
    service
        .read("stress", |doc, idx| {
            let root = doc.root_element().unwrap();
            assert_eq!(idx.hash_of(root), Some(final_hash));
            idx.verify_against(doc).unwrap();
        })
        .unwrap();
}

/// Single thread, many tickets: a writer keeps every transaction in
/// flight at once via `submit`, reaps the tickets in a shuffled
/// order, and the final state must be byte-identical to a serial
/// replay of the same batches — the pipelined path cannot lose,
/// duplicate or reorder writes observably (the batches are disjoint,
/// so §5.1 commutativity promises exactly the serial outcome).
#[test]
fn single_thread_pipelined_tickets_match_serial_replay() {
    let doc = base_doc();
    let idx = IndexManager::build(&doc, IndexConfig::default());
    let txns = transactions(&doc);

    // Serial replay baseline: one `update_values` per transaction.
    let expected_root = {
        let mut d = doc.clone();
        let mut i = idx.clone();
        for t in &txns {
            let writes: Vec<(NodeId, &str)> = t.iter().map(|(n, v)| (*n, v.as_str())).collect();
            i.update_values(&mut d, writes).unwrap();
        }
        i.hash_of(d.root_element().unwrap()).unwrap()
    };

    // Small group limit so reaping spans several leader rounds.
    let service = IndexService::new(ServiceConfig::with_shards(2).with_max_group(3));
    service.insert_document("stress", doc);

    let mut tickets = Vec::new();
    for batch in &txns {
        let mut txn = service.begin();
        for (node, value) in batch {
            txn.set_value(*node, value.clone());
        }
        tickets.push((service.submit("stress", txn), batch.len()));
    }
    // All in flight, nothing published yet: submits do not block on
    // (or drive) the pipeline.
    assert_eq!(service.version_of("stress"), Some(0));
    assert!(tickets.iter().all(|(t, _)| !t.is_complete()));

    // Reap in a deterministic shuffled order.
    let mut order: Vec<usize> = (0..tickets.len()).collect();
    order.reverse();
    order.swap(0, tickets.len() / 2);
    let mut reaped = vec![false; tickets.len()];
    let mut indexed: Vec<Option<(xvi::index::CommitTicket, usize)>> =
        tickets.into_iter().map(Some).collect();
    for &i in &order {
        let (ticket, expected_len) = indexed[i].take().unwrap();
        let receipt = ticket.wait().unwrap();
        assert_eq!(receipt.applied, expected_len);
        assert!(receipt.version > 0);
        reaped[i] = true;
    }
    assert!(reaped.iter().all(|&r| r));

    assert_eq!(service.commit_count(), txns.len() as u64);
    assert_eq!(service.version_of("stress"), Some(txns.len() as u64));
    service
        .read("stress", |doc, idx| {
            assert_eq!(
                idx.hash_of(doc.root_element().unwrap()),
                Some(expected_root),
                "pipelined reap diverged from serial replay"
            );
            idx.verify_against(doc).unwrap();
        })
        .unwrap();
}

/// The same race as blocking `commit` calls on a one-shard service
/// holding the one document: every writer contends for the same
/// group-commit leader, and the result must still be a consistent
/// index with every transaction counted.
#[test]
fn blocking_commits_on_one_shard_stay_consistent_under_races() {
    let doc = base_doc();
    let txns = transactions(&doc);
    let service = Arc::new(IndexService::new(ServiceConfig::with_shards(1)));
    service.insert_document("doc", doc);
    let start = Arc::new(Barrier::new(txns.len()));
    let handles: Vec<_> = txns
        .iter()
        .cloned()
        .map(|batch| {
            let service = Arc::clone(&service);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut t = service.begin();
                for (node, value) in batch {
                    t.set_value(node, value);
                }
                start.wait();
                service.commit("doc", t).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(service.commit_count(), txns.len() as u64);
    service
        .read("doc", |doc, idx| idx.verify_against(doc).unwrap())
        .unwrap();
}
