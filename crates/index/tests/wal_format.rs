//! Pins the write-ahead log's on-disk format with a committed golden
//! file: one document insert followed by two commits, written through
//! the public service API. The writer must reproduce the fixture byte
//! for byte, and the fixture must recover to the state the operations
//! produced.

use std::path::{Path, PathBuf};

use xvi_index::{Document, IndexService, Lookup, NodeId, ServiceConfig};

const XML: &str = concat!(
    r#"<catalog><item id="i1" price="12.50">Towel &amp; guide</item>"#,
    r#"<item id="i2">42</item><note kind="&quot;q&quot;">don't panic</note></catalog>"#
);

const FIXTURE: &[u8] = include_bytes!("fixtures/wal_insert_two_commits.log");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xvi-walfmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig::with_shards(1).with_wal(dir)
}

/// The text node holding `content` and the attribute node `name` on
/// the element whose text is `content`.
fn nodes(doc: &Document, content: &str, name: &str) -> (NodeId, NodeId) {
    let text = doc
        .descendants(doc.document_node())
        .find(|&n| doc.direct_value(n) == Some(content))
        .expect("text node present");
    let element = doc.parent(text).expect("text has a parent");
    (
        text,
        doc.attribute(element, name).expect("attribute present"),
    )
}

/// Runs the fixed operations on an empty WAL service and returns the
/// resulting log bytes.
fn write_log(dir: &Path) -> Vec<u8> {
    let svc = IndexService::open(config(dir)).unwrap();
    svc.insert_document("guide", Document::parse(XML).unwrap());
    let ((answer, id), (note, kind)) = svc
        .read("guide", |doc, _| {
            (nodes(doc, "42", "id"), nodes(doc, "don't panic", "kind"))
        })
        .unwrap();
    let mut txn = svc.begin();
    txn.set_value(answer, "43");
    svc.commit("guide", txn).unwrap();
    let mut txn = svc.begin();
    txn.set_value(note, "mostly harmless");
    txn.set_value(kind, "<q>");
    txn.set_value(id, "i2b");
    svc.commit("guide", txn).unwrap();
    drop(svc);
    std::fs::read(dir.join("wal0.log")).unwrap()
}

#[test]
fn writer_reproduces_the_golden_log() {
    let dir = scratch("write");
    let bytes = write_log(&dir);
    assert_eq!(
        bytes.len(),
        FIXTURE.len(),
        "log length differs from fixture"
    );
    if let Some(i) = bytes.iter().zip(FIXTURE).position(|(a, b)| a != b) {
        panic!("log differs from the fixture at byte {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_log_recovers_the_written_state() {
    let dir = scratch("recover");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal0.log"), FIXTURE).unwrap();
    let svc = IndexService::open(config(&dir)).unwrap();
    assert_eq!(svc.doc_ids(), vec!["guide".to_string()]);
    assert_eq!(svc.version_of("guide"), Some(2));
    assert_eq!(svc.commit_count(), 2);
    svc.read("guide", |doc, idx| {
        let root = doc.root_element().unwrap();
        assert_eq!(doc.string_value(root), "Towel & guide43mostly harmless");
        let items: Vec<NodeId> = doc.children(root).collect();
        assert_eq!(doc.attribute_value(items[0], "price"), Some("12.50"));
        assert_eq!(doc.attribute_value(items[1], "id"), Some("i2b"));
        assert_eq!(doc.attribute_value(items[2], "kind"), Some("<q>"));
        for value in ["43", "mostly harmless", "<q>", "i2b"] {
            assert!(
                !idx.query(doc, &Lookup::equi(value)).unwrap().is_empty(),
                "index misses {value:?}"
            );
        }
        assert!(idx.query(doc, &Lookup::equi("42")).unwrap().is_empty());
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
