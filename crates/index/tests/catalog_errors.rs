//! Error paths of the catalog persistence: corrupt, truncated,
//! version-skewed and incomplete catalogs must come back as typed
//! errors — never panics, never a mis-parsed service.

use std::path::{Path, PathBuf};

use xvi_index::{Document, IndexError, IndexService, Lookup, ServiceConfig, XmlType};

/// A scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("xvi-{tag}-{}", std::process::id()));
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

/// The documents every saved catalog here holds, in id order.
const DOCS: [(&str, &str); 2] = [
    ("alpha", "<person><name>Arthur</name><age>42</age></person>"),
    ("beta", "<log><n>17</n><n>18</n></log>"),
];

fn insert_docs(service: &IndexService) {
    for (id, xml) in DOCS {
        service.insert_document(id, Document::parse(xml).unwrap());
    }
}

fn saved_catalog(tag: &str) -> ScratchDir {
    let scratch = ScratchDir::new(tag);
    let service = IndexService::new(ServiceConfig::with_shards(2));
    insert_docs(&service);
    service.save_catalog(&scratch.0).unwrap();
    scratch
}

#[test]
fn truncated_manifest_is_a_typed_error_not_a_panic() {
    let scratch = saved_catalog("catalog-truncated");
    let manifest = scratch.0.join("catalog.xvi");
    let bytes = std::fs::read(&manifest).unwrap();
    // Cut the manifest at every prefix length: each truncation must
    // surface as an io::Error (UnexpectedEof or InvalidData), and
    // never panic or return Ok.
    for len in 0..bytes.len() {
        std::fs::write(&manifest, &bytes[..len]).unwrap();
        let err = IndexService::load_catalog(&scratch.0)
            .expect_err(&format!("truncation at {len} bytes must fail"));
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::InvalidData
            ),
            "truncation at {len}: unexpected kind {:?}",
            err.kind()
        );
    }
}

#[test]
fn unknown_catalog_version_is_rejected_with_a_typed_error() {
    let scratch = saved_catalog("catalog-version");
    let manifest = scratch.0.join("catalog.xvi");
    let mut bytes = std::fs::read(&manifest).unwrap();
    // The version field sits right after the 4-byte magic.
    bytes[4..8].copy_from_slice(&999u32.to_le_bytes());
    std::fs::write(&manifest, &bytes).unwrap();

    let err = IndexService::load_catalog(&scratch.0).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let source = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<IndexError>())
        .expect("the error source is the typed IndexError");
    assert!(
        matches!(
            source,
            IndexError::CatalogVersion {
                found: 999,
                supported: _
            }
        ),
        "{source:?}"
    );
    assert!(err.to_string().contains("version 999"), "{err}");
}

/// A version-1 catalog (the old magic, no version field) is rejected
/// with the typed version error — its shard count must never alias as
/// a format version.
#[test]
fn version_one_magic_is_rejected_with_a_typed_error() {
    let scratch = saved_catalog("catalog-v1-magic");
    let manifest = scratch.0.join("catalog.xvi");
    let mut bytes = std::fs::read(&manifest).unwrap();
    // Rewrite as the old layout: v1 magic, then the fields that used
    // to follow it directly (drop the version word). shards == 2 here,
    // which would alias as "version 2" if only the word were checked.
    bytes.splice(0..8, *b"XVC1");
    std::fs::write(&manifest, &bytes).unwrap();

    let err = IndexService::load_catalog(&scratch.0).unwrap_err();
    let source = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<IndexError>())
        .expect("typed source");
    assert!(
        matches!(source, IndexError::CatalogVersion { found: 1, .. }),
        "{source:?}"
    );
}

#[test]
fn missing_per_doc_document_is_a_typed_error() {
    let scratch = saved_catalog("catalog-missing-xml");
    std::fs::remove_file(scratch.0.join("doc0.xml")).unwrap();
    let err = IndexService::load_catalog(&scratch.0).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
}

#[test]
fn garbage_document_xml_is_a_typed_error() {
    let scratch = saved_catalog("catalog-bad-xml");
    std::fs::write(scratch.0.join("doc0.xml"), "<oops>").unwrap();
    let err = IndexService::load_catalog(&scratch.0).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}

/// Stranded `*.tmp` siblings — what a crash between a temp write and
/// its rename leaves behind — are swept by the next save **and** by a
/// load, so they cannot accumulate forever.
#[test]
fn stranded_tmp_files_are_swept_on_save_and_load() {
    let scratch = saved_catalog("catalog-tmp-sweep");
    std::fs::write(scratch.0.join("doc7.xml.tmp"), b"torn").unwrap();
    std::fs::write(scratch.0.join("catalog.xvi.tmp"), b"torn").unwrap();
    let loaded = IndexService::load_catalog(&scratch.0).unwrap();
    assert!(!scratch.0.join("doc7.xml.tmp").exists(), "load sweeps");
    assert!(!scratch.0.join("catalog.xvi.tmp").exists(), "load sweeps");

    std::fs::write(scratch.0.join("doc9.xml.tmp"), b"torn again").unwrap();
    loaded.save_catalog(&scratch.0).unwrap();
    assert!(!scratch.0.join("doc9.xml.tmp").exists(), "save sweeps");
}

/// Re-saving a shrunk catalog into the same directory must delete the
/// `docN.*` files beyond the new manifest's count — otherwise stale
/// pairs from the larger save stay paired with the new manifest.
#[test]
fn shrinking_resave_removes_orphaned_doc_files() {
    let scratch = saved_catalog("catalog-orphans");
    assert!(scratch.0.join("doc1.xml").exists());

    let service = IndexService::load_catalog(&scratch.0).unwrap();
    assert!(service.remove_document("beta").unwrap().is_some());
    service.save_catalog(&scratch.0).unwrap();
    assert!(
        !scratch.0.join("doc1.xml").exists(),
        "doc1.xml must be deleted by the shrinking re-save"
    );
    // The shrunk directory loads cleanly and holds exactly one doc.
    let reloaded = IndexService::load_catalog(&scratch.0).unwrap();
    assert_eq!(reloaded.doc_ids(), vec!["alpha"]);
}

/// The version field round-trips: a freshly saved catalog loads, and
/// the loaded service still answers and commits.
#[test]
fn current_version_round_trips() {
    let scratch = saved_catalog("catalog-roundtrip-v");
    let loaded = IndexService::load_catalog(&scratch.0).unwrap();
    assert_eq!(loaded.doc_ids(), vec!["alpha", "beta"]);
    for id in loaded.doc_ids() {
        loaded
            .read(&id, |doc, idx| idx.verify_against(doc).unwrap())
            .unwrap();
    }
}

/// The file names in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// An index image (`doc0.idx`) as catalogs stored beside each
/// document before indices were rebuilt on open: the image of
/// `saved_catalog`'s first document under the default index config.
const LEGACY_IMAGE: &[u8] = include_bytes!("fixtures/legacy_doc0.idx");

/// A directory in the older layout — the same manifest and documents,
/// plus one index image per document — still opens: the images are
/// ignored, even a garbage one, and the first checkpoint deletes them.
#[test]
fn legacy_index_images_are_ignored_and_swept() {
    let scratch = saved_catalog("catalog-legacy-images");
    std::fs::write(scratch.0.join("doc0.idx"), LEGACY_IMAGE).unwrap();
    std::fs::write(scratch.0.join("doc1.idx"), b"not an index image").unwrap();
    let original = IndexService::load_catalog(&scratch.0).unwrap();

    let reopened = IndexService::open(ServiceConfig::with_shards(2).with_wal(&scratch.0)).unwrap();
    assert_eq!(reopened.doc_ids(), vec!["alpha", "beta"]);
    for id in reopened.doc_ids() {
        reopened
            .read(&id, |doc, idx| idx.verify_against(doc).unwrap())
            .unwrap();
    }
    let fresh = IndexService::new(ServiceConfig::with_shards(2));
    insert_docs(&fresh);
    for lookup in [
        Lookup::equi("Arthur"),
        Lookup::equi("17"),
        Lookup::range_f64(0.0..=100.0),
        Lookup::typed_eq(XmlType::Double, 18.0),
    ] {
        let (fresh_all, reopened_all) = (fresh.snapshot_all(), reopened.snapshot_all());
        let want = fresh_all.query(&lookup);
        assert_eq!(reopened_all.query(&lookup), want, "{lookup}");
        assert_eq!(original.snapshot_all().query(&lookup), want, "{lookup}");
    }

    reopened.checkpoint().unwrap();
    let names = file_names(&scratch.0);
    assert!(
        names.iter().all(|n| !n.ends_with(".idx")),
        "a checkpoint leaves no index image: {names:?}"
    );
    let again = IndexService::open(ServiceConfig::with_shards(2).with_wal(&scratch.0)).unwrap();
    assert_eq!(again.doc_ids(), vec!["alpha", "beta"]);
}

/// A checkpoint holds the manifest, one XML file per document and one
/// log per shard — nothing derived from the documents.
#[test]
fn checkpoint_directory_holds_manifest_documents_and_logs_only() {
    let scratch = ScratchDir::new("catalog-layout");
    let service = IndexService::open(ServiceConfig::with_shards(2).with_wal(&scratch.0)).unwrap();
    insert_docs(&service);
    service.checkpoint().unwrap();
    assert_eq!(
        file_names(&scratch.0),
        [
            "catalog.xvi",
            "doc0.xml",
            "doc1.xml",
            "wal0.log",
            "wal1.log"
        ]
    );
}
