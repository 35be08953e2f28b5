//! A WAL insert logs the text its document was parsed from, and
//! serializes the arena only for a document written since its parse.
//! Replay parses whatever the log holds, so both kinds of record
//! rebuild the inserted document; installed and reopened documents
//! keep no copy of their text.

use std::path::{Path, PathBuf};

use xvi_index::{Document, IndexService, ServiceConfig};
use xvi_xml::serialize;

/// The declaration, the comment's spacing and `<links></links>` are
/// all written differently by the serializer, so the logged bytes tell
/// the source from a serialization.
const XML: &str = concat!(
    "<?xml version=\"1.0\"?>\n",
    "<site><!-- kept -->\n  <page id=\"p1\">Towel &amp; guide<links></links></page>",
    "<page id='p2'>42</page></site>"
);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("xvi-source-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An insert frame's tag, pinned by `wal_format`'s golden log.
const TAG_INSERT: u8 = 2;

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig::with_shards(1).with_wal(dir)
}

/// The document payloads of the insert frames in `dir`'s one log, in
/// log order. Frame: `[len u32][crc u32][seq u64][tag u8][id][xml]`,
/// each string a `u32` length and its bytes.
fn logged_inserts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let log = std::fs::read(dir.join("wal0.log")).unwrap();
    let u32_at = |at: usize| u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
    let mut out = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let (payload, end) = (at + 8, at + 8 + u32_at(at));
        if log[payload + 8] == TAG_INSERT {
            let id_at = payload + 9;
            let xml_at = id_at + 4 + u32_at(id_at);
            let id = String::from_utf8(log[id_at + 4..xml_at].to_vec()).unwrap();
            let xml = log[xml_at + 4..xml_at + 4 + u32_at(xml_at)].to_vec();
            assert_eq!(xml_at + 4 + xml.len(), end, "xml is the frame's last field");
            out.push((id, xml));
        }
        at = end;
    }
    out
}

/// `doc` after one value write.
fn written(mut doc: Document) -> Document {
    let text = doc
        .descendants(doc.document_node())
        .find(|&n| doc.direct_value(n) == Some("42"))
        .unwrap();
    doc.set_value(text, "43");
    assert_eq!(doc.source(), None);
    doc
}

/// Every registered document holds no source and serializes as
/// `expected` says, with indices equal to a fresh build.
fn assert_catalog(svc: &IndexService, expected: &[(&str, &str)]) {
    assert_eq!(svc.doc_ids().len(), expected.len());
    for (id, xml) in expected {
        svc.read(id, |doc, idx| {
            assert_eq!(doc.source(), None, "{id} keeps a source");
            assert_eq!(serialize::to_string(doc), *xml, "{id}");
            idx.verify_against(doc).unwrap();
        })
        .unwrap();
    }
}

#[test]
fn insert_logs_the_parsed_bytes_or_the_serialization() {
    let dir = ScratchDir::new("log");
    let parsed = Document::parse(XML).unwrap();
    let plain = serialize::to_string(&parsed);
    assert_ne!(
        plain, XML,
        "the fixture must tell source from serialization"
    );
    let mutated = written(parsed.clone());
    let mutated_xml = serialize::to_string(&mutated);

    let svc = IndexService::open(config(&dir.0)).unwrap();
    svc.insert_document("parsed", parsed);
    svc.insert_document("written", mutated);
    let expected = [
        ("parsed", plain.as_str()),
        ("written", mutated_xml.as_str()),
    ];
    assert_catalog(&svc, &expected);
    drop(svc);

    let inserts = logged_inserts(&dir.0);
    assert_eq!(
        inserts,
        vec![
            ("parsed".to_string(), XML.as_bytes().to_vec()),
            ("written".to_string(), mutated_xml.as_bytes().to_vec()),
        ]
    );

    // Replay parses each logged payload into the inserted document.
    let svc = IndexService::open(config(&dir.0)).unwrap();
    assert_catalog(&svc, &expected);
    // A reopen from a checkpoint parses the serialized documents.
    svc.checkpoint().unwrap();
    drop(svc);
    let svc = IndexService::open(config(&dir.0)).unwrap();
    assert_catalog(&svc, &expected);
    drop(svc);
    assert_catalog(&IndexService::load_catalog(&dir.0).unwrap(), &expected);
}

/// An ephemeral insert installs through the same path and keeps no
/// source either.
#[test]
fn ephemeral_insert_keeps_no_source() {
    let svc = IndexService::new(ServiceConfig::with_shards(1));
    let doc = Document::parse(XML).unwrap();
    let plain = serialize::to_string(&doc);
    svc.insert_document("parsed", doc);
    assert_catalog(&svc, &[("parsed", plain.as_str())]);
}
