//! Crash-recovery properties of the per-shard write-ahead log.
//!
//! The central oracle (the acceptance criterion of the WAL work): a
//! service killed at **any** byte prefix of its log tail must recover
//! to a state *byte-identical* to a serial replay of the durable
//! prefix of its commit history — torn final records are truncated,
//! whole records are replayed exactly once on top of the last
//! checkpoint.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

mod common;
use common::SlotState;
use xvi_index::{Document, IndexConfig, IndexManager, IndexService, NodeId, ServiceConfig};
use xvi_xml::NodeKind;

/// A scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("xvi-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn wal_config(dir: &Path) -> ServiceConfig {
    // One shard: one log file, deterministic frame order — the shape
    // the byte-prefix sweep needs.
    ServiceConfig::with_shards(1)
        .with_index(IndexConfig::default().with_substring_index())
        .with_wal(dir)
}

/// Every document's `(id, version, serialized XML, index state)`,
/// id-sorted.
type ServiceState = Vec<(String, u64, String, (IndexConfig, Vec<SlotState>))>;

/// The byte-identity fingerprint of a whole service: every document's
/// version, serialized XML and per-node index annotations. Two
/// services with equal prints are indistinguishable down to the
/// persisted representation and every stored hash, state and value.
fn state_bytes(service: &IndexService) -> ServiceState {
    let mut out = Vec::new();
    for (id, snap) in service.snapshot_all().iter() {
        out.push((
            id.to_string(),
            snap.version(),
            xvi_xml::serialize::to_string(snap.document()),
            common::index_state(snap.document(), snap.index()),
        ));
    }
    out
}

fn text_nodes(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.document_node())
        .filter(|&n| matches!(doc.kind(n), NodeKind::Text(_)))
        .collect()
}

const DOC: &str = "<r><g><v>alpha</v><v>17</v></g><g><v>beta</v><v>42</v></g></r>";

/// Frame boundaries of a log file: byte offsets where each whole
/// record ends (frame = 8-byte header + payload of the header's
/// length). The file was written cleanly, so walking the lengths is
/// exact.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut off = 0;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        assert!(off <= bytes.len(), "clean log walks exactly");
        ends.push(off);
    }
    assert_eq!(*ends.last().unwrap(), bytes.len());
    ends
}

#[test]
fn commits_survive_reopen_without_checkpoint() {
    let scratch = ScratchDir::new("reopen");
    let before = {
        let service = IndexService::new(wal_config(&scratch.0));
        service.insert_document("doc", Document::parse(DOC).unwrap());
        let nodes = service.read("doc", |doc, _| text_nodes(doc)).unwrap();
        for (i, value) in ["one", "two", "three"].iter().enumerate() {
            let mut txn = service.begin();
            txn.set_value(nodes[i], *value);
            service.commit("doc", txn).unwrap();
        }
        state_bytes(&service)
    };
    // No save_catalog, no checkpoint: the log alone restores the state.
    let recovered = IndexService::open(wal_config(&scratch.0)).unwrap();
    assert_eq!(state_bytes(&recovered), before);
    assert_eq!(recovered.version_of("doc"), Some(3));
    recovered
        .read("doc", |doc, idx| idx.verify_against(doc).unwrap())
        .unwrap();
    // And the recovered service keeps committing at the right version.
    let nodes = recovered.read("doc", |doc, _| text_nodes(doc)).unwrap();
    let mut txn = recovered.begin();
    txn.set_value(nodes[3], "four");
    assert_eq!(recovered.commit("doc", txn).unwrap().version, 4);
}

/// THE acceptance criterion: kill the writer at every byte prefix of
/// the WAL tail; recovery must land on the serial replay of exactly
/// the records that are whole in the prefix — never a torn half-batch,
/// never a panic.
#[test]
fn kill_at_every_byte_prefix_recovers_the_durable_prefix() {
    let scratch = ScratchDir::new("prefix");
    let values = ["one", "two", "three"];
    {
        let service = IndexService::new(wal_config(&scratch.0));
        service.insert_document("doc", Document::parse(DOC).unwrap());
        let nodes = service.read("doc", |doc, _| text_nodes(doc)).unwrap();
        for (i, value) in values.iter().enumerate() {
            let mut txn = service.begin();
            txn.set_value(nodes[i], *value);
            service.commit("doc", txn).unwrap();
        }
    }
    let log_path = scratch.0.join("wal0.log");
    let bytes = std::fs::read(&log_path).unwrap();
    let ends = frame_ends(&bytes);
    assert_eq!(
        ends.len(),
        1 + values.len(),
        "insert + one frame per commit"
    );

    // Reference states: serial replay of the first r records through a
    // fresh ephemeral service.
    let reference: Vec<_> = (0..=ends.len())
        .map(|r| {
            let service = IndexService::new(
                ServiceConfig::with_shards(1)
                    .with_index(IndexConfig::default().with_substring_index()),
            );
            if r >= 1 {
                service.insert_document("doc", Document::parse(DOC).unwrap());
                let nodes = service.read("doc", |doc, _| text_nodes(doc)).unwrap();
                for (i, value) in values.iter().take(r - 1).enumerate() {
                    let mut txn = service.begin();
                    txn.set_value(nodes[i], *value);
                    service.commit("doc", txn).unwrap();
                }
            }
            state_bytes(&service)
        })
        .collect();

    for cut in 0..=bytes.len() {
        let dir = ScratchDir::new(&format!("prefix-cut{cut}"));
        std::fs::write(dir.0.join("wal0.log"), &bytes[..cut]).unwrap();
        let recovered = IndexService::open(wal_config(&dir.0)).unwrap();
        let durable = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(
            state_bytes(&recovered),
            reference[durable],
            "cut at byte {cut} must recover exactly {durable} records"
        );
    }
}

#[test]
fn checkpoint_truncates_the_log_and_recovery_stacks_replay_on_it() {
    let scratch = ScratchDir::new("checkpoint");
    let before = {
        let service = IndexService::new(wal_config(&scratch.0));
        service.insert_document("doc", Document::parse(DOC).unwrap());
        let nodes = service.read("doc", |doc, _| text_nodes(doc)).unwrap();
        let commit = |node: usize, value: &str| {
            let mut txn = service.begin();
            txn.set_value(nodes[node], value);
            service.commit("doc", txn).unwrap();
        };
        commit(0, "pre-checkpoint");
        commit(1, "also-pre");
        let grown = std::fs::metadata(scratch.0.join("wal0.log")).unwrap().len();
        service.checkpoint().unwrap();
        let truncated = std::fs::metadata(scratch.0.join("wal0.log")).unwrap().len();
        assert!(
            truncated < grown,
            "checkpoint must truncate the log ({truncated} >= {grown})"
        );
        assert_eq!(truncated, 0, "every record was covered by the checkpoint");
        commit(2, "post-checkpoint");
        state_bytes(&service)
    };
    let recovered = IndexService::open(wal_config(&scratch.0)).unwrap();
    assert_eq!(state_bytes(&recovered), before);
    assert_eq!(recovered.version_of("doc"), Some(3));
}

/// The global commit total is part of the durable state: the manifest
/// persists it at checkpoint/save time and recovery seeds the counter
/// from it before replaying post-checkpoint records — so the count
/// stays monotonic across restarts instead of resetting to the
/// post-checkpoint replay length.
#[test]
fn commit_count_survives_checkpoint_and_restart() {
    let scratch = ScratchDir::new("commit-count");
    {
        let service = IndexService::new(wal_config(&scratch.0));
        service.insert_document("doc", Document::parse(DOC).unwrap());
        let nodes = service.read("doc", |doc, _| text_nodes(doc)).unwrap();
        for (i, value) in ["one", "two", "three"].iter().enumerate() {
            let mut txn = service.begin();
            txn.set_value(nodes[i], *value);
            service.commit("doc", txn).unwrap();
        }
        assert_eq!(service.commit_count(), 3);
        service.checkpoint().unwrap();
        let mut txn = service.begin();
        txn.set_value(nodes[3], "four");
        service.commit("doc", txn).unwrap();
        assert_eq!(service.commit_count(), 4);
    }
    // 3 commits live only in the checkpoint, 1 only in the log.
    let recovered = IndexService::open(wal_config(&scratch.0)).unwrap();
    assert_eq!(recovered.commit_count(), 4);
    // A further checkpoint folds everything into the manifest; the
    // total still survives a restart off an empty log.
    recovered.checkpoint().unwrap();
    drop(recovered);
    let again = IndexService::open(wal_config(&scratch.0)).unwrap();
    assert_eq!(again.commit_count(), 4);
}

/// Checkpoints racing each other (and racing live commits) must never
/// leave the directory in a state that loses acked commits: whole
/// checkpoint cycles are serialized, so the manifest on disk always
/// covers at least the log suffix that was truncated away.
#[test]
fn concurrent_checkpoints_and_commits_recover_every_acked_commit() {
    use std::sync::Arc;

    let scratch = ScratchDir::new("ckpt-race");
    let commits_per_writer = 30usize;
    let writers = 3usize;
    {
        let service = Arc::new(IndexService::new(wal_config(&scratch.0)));
        service.insert_document("doc", Document::parse(DOC).unwrap());
        let nodes = service.read("doc", |doc, _| text_nodes(doc)).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let checkpointers: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        service.checkpoint().unwrap();
                    }
                })
            })
            .collect();
        let committers: Vec<_> = (0..writers)
            .map(|w| {
                let service = Arc::clone(&service);
                let nodes = nodes.clone();
                std::thread::spawn(move || {
                    for c in 0..commits_per_writer {
                        let mut txn = service.begin();
                        txn.set_value(nodes[w], format!("w{w}c{c}"));
                        service.commit("doc", txn).unwrap();
                    }
                })
            })
            .collect();
        for h in committers {
            h.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in checkpointers {
            h.join().unwrap();
        }
        assert_eq!(
            service.commit_count(),
            (writers * commits_per_writer) as u64
        );
    }
    // Every acked commit must be recoverable from checkpoint + log.
    let recovered = IndexService::open(wal_config(&scratch.0)).unwrap();
    assert_eq!(
        recovered.commit_count(),
        (writers * commits_per_writer) as u64
    );
    assert_eq!(
        recovered.version_of("doc"),
        Some((writers * commits_per_writer) as u64)
    );
    // Each writer owned one leaf and wrote its final value last.
    recovered
        .read("doc", |doc, idx| {
            idx.verify_against(doc).unwrap();
            for w in 0..writers {
                let wanted = format!("w{w}c{}", commits_per_writer - 1);
                assert!(
                    !idx.query(doc, &xvi_index::Lookup::equi(wanted.as_str()))
                        .unwrap()
                        .is_empty(),
                    "writer {w}'s final value {wanted:?} must survive recovery"
                );
            }
        })
        .unwrap();
}

#[test]
fn insert_and_remove_records_replay() {
    let scratch = ScratchDir::new("insert-remove");
    let before = {
        let service = IndexService::new(wal_config(&scratch.0));
        service.insert_document("keep", Document::parse(DOC).unwrap());
        service.insert_document("drop", Document::parse("<x><y>1</y></x>").unwrap());
        let nodes = service.read("keep", |doc, _| text_nodes(doc)).unwrap();
        let mut txn = service.begin();
        txn.set_value(nodes[0], "updated");
        service.commit("keep", txn).unwrap();
        assert!(service.remove_document("drop").unwrap().is_some());
        state_bytes(&service)
    };
    let recovered = IndexService::open(wal_config(&scratch.0)).unwrap();
    assert_eq!(state_bytes(&recovered), before);
    assert!(!recovered.contains_document("drop"));
    assert_eq!(recovered.version_of("keep"), Some(1));
}

#[test]
fn reopening_a_checkpointed_catalog_overrides_the_passed_shape() {
    let scratch = ScratchDir::new("shape");
    {
        let service = IndexService::new(wal_config(&scratch.0).with_max_group(7));
        service.insert_document("doc", Document::parse(DOC).unwrap());
        service.checkpoint().unwrap();
    }
    // A different shard count in the passed config must lose to the
    // checkpoint's: the logs are sharded by the persisted count.
    let reopened = IndexService::open(
        ServiceConfig::with_shards(4)
            .with_index(IndexConfig::default().with_substring_index())
            .with_wal(&scratch.0),
    )
    .unwrap();
    assert_eq!(reopened.config().shards, 1);
    assert_eq!(reopened.config().max_group, 7);
    assert!(reopened.contains_document("doc"));
}

// ---------------------------------------------------------------------------
// Property: checkpoint + replay under random batch boundaries is
// byte-identical to a serial replay of the same transactions.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Case {
    leaves: Vec<String>,
    /// Transactions in commit order: `txns[t]` holds `(leaf, value)`.
    txns: Vec<Vec<(usize, String)>>,
    /// Checkpoint after this many transactions (may be 0 or all).
    checkpoint_after: usize,
}

fn value_strategy() -> impl Strategy<Value = String> {
    prop_oneof!["[a-z]{1,8}", "[0-9]{1,5}", "[a-z0-9 ]{2,10}"]
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(value_strategy(), 2..10),
        proptest::collection::vec((0..10usize, value_strategy()), 1..12),
        any::<u64>(),
    )
        .prop_map(|(leaves, raw_writes, seed)| {
            // Random batch boundaries: split the write stream into
            // transactions at seed-driven points.
            let mut txns: Vec<Vec<(usize, String)>> = vec![Vec::new()];
            let mut s = seed;
            for (leaf, value) in raw_writes {
                txns.last_mut().unwrap().push((leaf % leaves.len(), value));
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s % 3 == 0 {
                    txns.push(Vec::new());
                }
            }
            txns.retain(|t| !t.is_empty());
            let checkpoint_after = (seed % (txns.len() as u64 + 1)) as usize;
            Case {
                leaves,
                txns,
                checkpoint_after,
            }
        })
}

fn build_doc(leaves: &[String]) -> Document {
    let mut xml = String::from("<r>");
    for (i, chunk) in leaves.chunks(3).enumerate() {
        xml.push_str(&format!("<g{i}>"));
        for v in chunk {
            let v = if v.trim().is_empty() { "x" } else { v.trim() };
            xml.push_str(&format!("<v>{v}</v>"));
        }
        xml.push_str(&format!("</g{i}>"));
    }
    xml.push_str("</r>");
    Document::parse(&xml).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Commit a random transaction stream with a checkpoint at a random
    /// position, kill the service, recover — the result must be
    /// byte-identical to the same transactions replayed serially on an
    /// ephemeral service, and to a plain `IndexManager` replay.
    #[test]
    fn checkpoint_and_replay_match_serial_replay(case in case_strategy()) {
        let scratch = ScratchDir::new(&format!(
            "prop-{:x}",
            case.txns.len() * 1000 + case.checkpoint_after * 10 + case.leaves.len()
        ));
        let run = |config: ServiceConfig, checkpoint_after: Option<usize>| {
            let service = IndexService::new(config);
            service.insert_document("doc", build_doc(&case.leaves));
            let nodes = service
                .read("doc", |doc, _| text_nodes(doc))
                .unwrap();
            for (t, txn_writes) in case.txns.iter().enumerate() {
                if checkpoint_after == Some(t) {
                    service.checkpoint().unwrap();
                }
                let mut txn = service.begin();
                for (leaf, value) in txn_writes {
                    txn.set_value(nodes[*leaf], value.clone());
                }
                service.commit("doc", txn).unwrap();
            }
            if checkpoint_after == Some(case.txns.len()) {
                service.checkpoint().unwrap();
            }
            service
        };

        // Durable run: WAL on, checkpoint at the random position, then
        // "crash" (drop) and recover.
        let expected = {
            let service = run(wal_config(&scratch.0), Some(case.checkpoint_after));
            state_bytes(&service)
        };
        let recovered = IndexService::open(wal_config(&scratch.0)).unwrap();
        prop_assert_eq!(&state_bytes(&recovered), &expected);

        // Serial oracle 1: the same stream on an ephemeral service.
        let serial = run(
            ServiceConfig::with_shards(1)
                .with_index(IndexConfig::default().with_substring_index()),
            None,
        );
        prop_assert_eq!(&state_bytes(&serial), &expected);

        // Serial oracle 2: a bare IndexManager replay, one
        // update_values call per transaction.
        let mut doc = build_doc(&case.leaves);
        let nodes = text_nodes(&doc);
        let mut idx = IndexManager::build(
            &doc,
            IndexConfig::default().with_substring_index(),
        );
        for txn_writes in &case.txns {
            let writes: Vec<(NodeId, &str)> = txn_writes
                .iter()
                .map(|(leaf, v)| (nodes[*leaf], v.as_str()))
                .collect();
            idx.update_values(&mut doc, writes).unwrap();
        }
        let (_, _, rec_xml, rec_state) = &state_bytes(&recovered)[0];
        prop_assert_eq!(rec_xml, &xvi_xml::serialize::to_string(&doc));
        prop_assert_eq!(rec_state, &common::index_state(&doc, &idx));

        recovered
            .read("doc", |doc, idx| idx.verify_against(doc).unwrap())
            .unwrap();
    }
}
