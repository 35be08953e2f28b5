//! Catalog persistence: one manifest plus the serialized documents.
//!
//! Every index annotation is derived from the document in one creation
//! pass, so the documents are the only state a catalog stores. The
//! multi-document [`IndexService`] persists as one manifest (service
//! config, doc ids, per-doc versions, per-shard WAL sequence numbers)
//! plus one serialized document per hosted document:
//! [`IndexService::save_catalog`] writes them, and
//! [`IndexService::load_catalog`] parses each document and builds its
//! indices with [`IndexManager::build`] — the same function a WAL
//! insert and its replay use — restoring the service with identical
//! shard count, ids and versions.

use std::io::{self, Read, Write};
use std::path::Path;

use xvi_fsm::XmlType;
use xvi_xml::Document;

use crate::config::IndexConfig;
use crate::error::IndexError;
use crate::manager::IndexManager;
use crate::service::{IndexService, ServiceConfig};

const CATALOG_MAGIC: &[u8; 4] = b"XVC2";
/// The version-1 magic: catalogs written before the manifest carried a
/// version field. Recognised only to reject them with a *typed*
/// version error instead of "not a catalog".
const CATALOG_MAGIC_V1: &[u8; 4] = b"XVC1";
/// Catalog manifest format version. Bumped whenever the manifest
/// layout changes; [`IndexService::load_catalog`] refuses any other
/// version with a typed [`IndexError::CatalogVersion`] instead of
/// mis-parsing the bytes. (Version 2 introduced the version field
/// itself — with a new magic, so a version-1 manifest's shard count
/// cannot alias as a version. Version 3 appends, after the document
/// list, one u64 per shard — the write-ahead-log sequence number each
/// shard had reached when the documents were captured, so recovery
/// knows exactly which WAL records the checkpoint already covers — and
/// one final u64 with the total committed-transaction count at capture,
/// so [`IndexService::commit_count`] stays monotonic across restarts.
/// No index state is serialized: every index is built from the parsed
/// document on load.)
const CATALOG_VERSION: u32 = 3;

fn catalog_version_error(found: u32) -> io::Error {
    // Typed rejection: the caller can downcast the source to
    // `IndexError::CatalogVersion` to distinguish "wrong version" from
    // plain corruption.
    io::Error::new(
        io::ErrorKind::InvalidData,
        IndexError::CatalogVersion {
            found,
            supported: CATALOG_VERSION,
        },
    )
}

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

pub(crate) fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Checks a length or count taken from untrusted bytes: `count` items
/// of `unit` bytes each must fit in the `remaining` bytes of the input.
/// A corrupt field thus yields a typed [`IndexError::CorruptLength`]
/// (`InvalidData`) instead of a huge allocation.
pub(crate) fn checked_len(
    count: u64,
    unit: usize,
    remaining: usize,
    what: &'static str,
) -> io::Result<usize> {
    let len = count.saturating_mul(unit as u64);
    if len > remaining as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            IndexError::CorruptLength { what, len },
        ));
    }
    Ok(count as usize)
}

/// Narrows a length/count to the persistent format's `u32` field
/// width, rejecting (instead of silently truncating via `as u32`)
/// values that do not fit — a truncated count would make the manifest
/// or WAL record parse cleanly to *wrong* data. The error's source is
/// a typed [`IndexError::Oversize`].
pub(crate) fn checked_u32(len: usize, what: &'static str) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| oversize(what, len))
}

fn oversize(what: &'static str, len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        IndexError::Oversize {
            what,
            len: len as u64,
        },
    )
}

fn type_tag(ty: XmlType) -> u8 {
    match ty {
        XmlType::Double => 0,
        XmlType::Decimal => 1,
        XmlType::Integer => 2,
        XmlType::Boolean => 3,
        XmlType::DateTime => 4,
        XmlType::Date => 5,
        XmlType::Time => 6,
    }
}

fn type_from_tag(tag: u8) -> io::Result<XmlType> {
    Ok(match tag {
        0 => XmlType::Double,
        1 => XmlType::Decimal,
        2 => XmlType::Integer,
        3 => XmlType::Boolean,
        4 => XmlType::DateTime,
        5 => XmlType::Date,
        6 => XmlType::Time,
        other => return Err(bad(format!("unknown type tag {other}"))),
    })
}

fn write_index_config(w: &mut impl Write, cfg: &IndexConfig) -> io::Result<()> {
    let typed = u8::try_from(cfg.typed.len())
        .map_err(|_| oversize("typed index count", cfg.typed.len()))?;
    w.write_all(&[
        u8::from(cfg.string_index),
        u8::from(cfg.substring_index),
        typed,
    ])?;
    for &ty in &cfg.typed {
        w.write_all(&[type_tag(ty)])?;
    }
    Ok(())
}

fn read_index_config(r: &mut impl Read) -> io::Result<IndexConfig> {
    let mut flags = [0u8; 3];
    r.read_exact(&mut flags)?;
    let mut typed = Vec::with_capacity(flags[2] as usize);
    for _ in 0..flags[2] {
        let mut t = [0u8; 1];
        r.read_exact(&mut t)?;
        typed.push(type_from_tag(t[0])?);
    }
    Ok(IndexConfig {
        string_index: flags[0] != 0,
        typed,
        substring_index: flags[1] != 0,
    })
}

pub(crate) fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u32(w, checked_u32(s.len(), "string length")?)?;
    w.write_all(s.as_bytes())
}

pub(crate) fn read_str(r: &mut &[u8]) -> io::Result<String> {
    let n = checked_len(read_u32(r)?.into(), 1, r.len(), "string length")?;
    let (bytes, rest) = r.split_at(n);
    *r = rest;
    String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-UTF-8 string in catalog manifest"))
}

/// Writes `content` produced by `fill` to `<dir>/<name>` crash-safely:
/// the bytes go to a `.tmp` sibling first, are fsynced, renamed over
/// the final name, and the parent **directory** is fsynced so the
/// rename itself survives power loss — a torn save never clobbers a
/// previously valid file, and a completed save cannot be undone by a
/// crash. A failing `fill` (or rename) removes the temp file instead
/// of stranding it.
pub(crate) fn write_file_atomically(
    dir: &Path,
    name: &str,
    fill: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let result = (|| -> io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        fill(&mut w)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, dir.join(name))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    crate::wal::fsync_dir(dir)
}

/// Removes stranded `*.tmp` siblings (left by a crash between a temp
/// write and its rename) so they cannot accumulate forever. Run by
/// both `save_catalog` and `load_catalog` — either end of a round trip
/// cleans up after an earlier torn save.
pub(crate) fn sweep_tmp_files(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Removes `doc<N>.xml` files with `N >= keep` — the orphans a re-save
/// into a directory that previously held more documents would
/// otherwise leave paired with the new manifest — and every
/// `doc<N>.idx`, the index image older catalogs stored beside each
/// document and nothing reads any more.
fn remove_orphan_docs(dir: &Path, keep: usize) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some((stem, ext)) = name.rsplit_once('.') else {
            continue;
        };
        let Some(n) = stem
            .strip_prefix("doc")
            .and_then(|d| d.parse::<usize>().ok())
        else {
            continue;
        };
        if ext == "idx" || (ext == "xml" && n >= keep) {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Writes one captured catalog state into `dir`: per-doc XML plus the
/// version-3 manifest (which carries `seqs`, the per-shard WAL
/// sequence numbers the capture observed — all zeros for a service
/// without a WAL — and `commits`, the committed-transaction total at
/// capture). Shared by [`IndexService::save_catalog`] and the WAL
/// checkpointer.
pub(crate) fn save_snapshot_to(
    dir: &Path,
    snap: &crate::ServiceSnapshot,
    seqs: &[u64],
    commits: u64,
    cfg: &ServiceConfig,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    sweep_tmp_files(dir)?;
    for (i, (_, doc_snap)) in snap.iter().enumerate() {
        write_file_atomically(dir, &format!("doc{i}.xml"), |w| {
            w.write_all(xvi_xml::serialize::to_string(doc_snap.document()).as_bytes())
        })?;
    }
    write_file_atomically(dir, "catalog.xvi", |manifest| {
        manifest.write_all(CATALOG_MAGIC)?;
        write_u32(manifest, CATALOG_VERSION)?;
        write_u32(manifest, checked_u32(cfg.shards, "shard count")?)?;
        write_u32(manifest, checked_u32(cfg.max_group, "group limit")?)?;
        write_index_config(manifest, &cfg.index)?;
        write_u32(manifest, checked_u32(snap.doc_count(), "document count")?)?;
        for (id, doc_snap) in snap.iter() {
            write_str(manifest, id)?;
            write_u64(manifest, doc_snap.version())?;
        }
        for &seq in seqs {
            write_u64(manifest, seq)?;
        }
        write_u64(manifest, commits)?;
        Ok(())
    })?;
    // The manifest now names doc0..docN-1; anything beyond that is an
    // orphan from an earlier, larger save in the same directory.
    remove_orphan_docs(dir, snap.doc_count())
}

/// A parsed catalog/checkpoint directory: everything
/// [`IndexService::load_catalog`] needs to rebuild a service, plus the
/// per-shard WAL sequence numbers recovery needs to know which log
/// records the checkpoint already covers.
pub(crate) struct Checkpoint {
    pub(crate) shards: usize,
    pub(crate) max_group: usize,
    pub(crate) index: IndexConfig,
    /// Per-shard WAL sequence captured when the documents were saved;
    /// recovery replays only records with a larger sequence.
    pub(crate) seqs: Vec<u64>,
    /// Total committed transactions at capture time; restore seeds
    /// [`IndexService::commit_count`] from it so the total stays
    /// monotonic across restarts.
    pub(crate) commits: u64,
    /// `(id, version, document, index)` per hosted document.
    pub(crate) docs: Vec<(String, u64, Document, IndexManager)>,
}

/// Reads the manifest and parses every per-doc XML file under `dir`,
/// building each document's indices with the manifest's
/// [`IndexConfig`] (also sweeping stranded `*.tmp` files from an
/// earlier torn save). Any `doc<N>.idx` left by an older catalog is
/// ignored.
pub(crate) fn read_checkpoint(dir: &Path) -> io::Result<Checkpoint> {
    let manifest = std::fs::read(dir.join("catalog.xvi"))?;
    let mut manifest = manifest.as_slice();
    sweep_tmp_files(dir)?;
    let mut magic = [0u8; 4];
    manifest.read_exact(&mut magic)?;
    if &magic == CATALOG_MAGIC_V1 {
        return Err(catalog_version_error(1));
    }
    if &magic != CATALOG_MAGIC {
        return Err(bad("not an xvi catalog manifest"));
    }
    let version = read_u32(&mut manifest)?;
    if version != CATALOG_VERSION {
        return Err(catalog_version_error(version));
    }
    let shards = read_u32(&mut manifest)? as usize;
    let max_group = read_u32(&mut manifest)? as usize;
    let index = read_index_config(&mut manifest)?;
    let doc_count = read_u32(&mut manifest)? as usize;
    let mut docs = Vec::with_capacity(doc_count.min(1 << 16));
    for i in 0..doc_count {
        let id = read_str(&mut manifest)?;
        let version = read_u64(&mut manifest)?;
        let xml = std::fs::read_to_string(dir.join(format!("doc{i}.xml")))?;
        let mut doc = Document::parse(&xml)
            .map_err(|e| bad(format!("catalog document {id:?} failed to parse: {e}")))?;
        // Nothing logs a reopened document: free its copy of the text
        // now, not when the whole catalog has been read.
        doc.drop_source();
        let idx = IndexManager::build(&doc, index.clone());
        docs.push((id, version, doc, idx));
    }
    let mut seqs = Vec::with_capacity(shards.min(1 << 16));
    for _ in 0..shards {
        seqs.push(read_u64(&mut manifest)?);
    }
    let commits = read_u64(&mut manifest)?;
    Ok(Checkpoint {
        shards,
        max_group,
        index,
        seqs,
        commits,
        docs,
    })
}

impl IndexService {
    /// Persists the whole catalog into `dir` (created if missing): a
    /// `catalog.xvi` manifest carrying the service configuration
    /// (shard count, group limit, index config), every document id and
    /// its committed version — plus the per-shard WAL sequence numbers
    /// when the service has a write-ahead log — and one serialized
    /// document (`doc<i>.xml`) per hosted document. No index state is
    /// written: [`IndexService::load_catalog`] rebuilds it. The save
    /// works from one [`ServiceSnapshot`], so a concurrently committing
    /// service persists a consistent per-document prefix of the commit
    /// history.
    ///
    /// Every file is written to a temporary sibling, fsynced, renamed
    /// into place and made durable with a directory fsync, with the
    /// manifest renamed **last** — a crash or full disk mid-save never
    /// truncates or tears an existing manifest or document. Stranded
    /// `*.tmp` files from an earlier torn save are swept, `doc<N>.xml`
    /// files beyond the new manifest's document count are deleted, and
    /// so is every `doc<N>.idx` an older catalog left, so the directory
    /// is self-consistent after every save — re-saving a shrunk catalog
    /// in place is safe.
    ///
    /// [`ServiceSnapshot`]: crate::ServiceSnapshot
    pub fn save_catalog(&self, dir: &Path) -> io::Result<()> {
        // Serialized with checkpoint(): a save into the WAL directory
        // interleaving with a checkpoint's log truncation could
        // otherwise leave a manifest older than the truncated logs.
        let _serialize = self.checkpoint_guard();
        let (snap, seqs, commits) = self.capture_for_checkpoint();
        save_snapshot_to(dir, &snap, &seqs, commits, self.config())
    }

    /// Restores a service persisted by [`IndexService::save_catalog`]:
    /// shard count, group limit, index configuration, document ids and
    /// per-document versions all round-trip. Each document is reparsed
    /// and its indices built from it with the saved index
    /// configuration, in the creation pass [`IndexManager::build`].
    ///
    /// The restored service is **ephemeral** (no write-ahead log) and
    /// the saved WAL sequence numbers are ignored: this is the plain
    /// full-catalog restore. To reopen a WAL-backed service — checkpoint
    /// plus replay of the durable log suffix — use
    /// [`IndexService::open`] with [`Durability::Wal`].
    ///
    /// [`Durability::Wal`]: crate::service::Durability::Wal
    pub fn load_catalog(dir: &Path) -> io::Result<IndexService> {
        let cp = read_checkpoint(dir)?;
        let service = IndexService::new(ServiceConfig {
            shards: cp.shards,
            max_group: cp.max_group,
            index: cp.index,
            durability: crate::service::Durability::Ephemeral,
            ..ServiceConfig::default()
        });
        service.seed_commit_count(cp.commits);
        for (id, version, doc, idx) in cp.docs {
            service.install_version(id, doc, idx, version);
        }
        Ok(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lookup;

    /// A scratch directory under the system temp dir, removed on drop.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> ScratchDir {
            let dir = std::env::temp_dir().join(format!("xvi-{tag}-{}", std::process::id()));
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn catalog_save_load_round_trip() {
        use xvi_xml::NodeKind;

        let config = ServiceConfig {
            shards: 3,
            max_group: 16,
            index: IndexConfig::with_types(&[XmlType::Double, XmlType::Integer]),
            durability: crate::service::Durability::Ephemeral,
            ..ServiceConfig::default()
        };
        let service = IndexService::new(config);
        for (id, xml) in [
            ("alpha", "<person><name>Arthur</name><age>42</age></person>"),
            ("beta", "<person><name>Ford</name><age>200</age></person>"),
            ("gamma", "<log><n>17</n><n>18</n></log>"),
        ] {
            service.insert_document(id, Document::parse(xml).unwrap());
        }
        // Commit into one document so a non-zero version must survive
        // the round trip.
        let node = service
            .read("alpha", |doc, _| {
                doc.descendants(doc.document_node())
                    .find(|&n| matches!(doc.kind(n), NodeKind::Text(t) if t == "Arthur"))
                    .unwrap()
            })
            .unwrap();
        for value in ["Tricia", "Zaphod"] {
            let mut txn = service.begin();
            txn.set_value(node, value);
            service.commit("alpha", txn).unwrap();
        }

        let scratch = ScratchDir::new("catalog");
        service.save_catalog(&scratch.0).unwrap();
        let loaded = IndexService::load_catalog(&scratch.0).unwrap();

        // Shard count, ids and versions round-trip.
        assert_eq!(loaded.config().shards, 3);
        assert_eq!(loaded.config().max_group, 16);
        assert_eq!(loaded.config().index, service.config().index);
        assert_eq!(loaded.doc_ids(), service.doc_ids());
        for id in ["alpha", "beta", "gamma"] {
            assert_eq!(loaded.version_of(id), service.version_of(id), "{id}");
        }
        assert_eq!(loaded.version_of("alpha"), Some(2));

        // The restored indices answer identically and verify cleanly.
        for lookup in [
            Lookup::equi("Zaphod"),
            Lookup::range_f64(0.0..=1000.0),
            Lookup::typed_eq(XmlType::Integer, 17.0),
        ] {
            assert_eq!(
                loaded.snapshot_all().query(&lookup),
                service.snapshot_all().query(&lookup),
                "{lookup}"
            );
        }
        for id in loaded.doc_ids() {
            loaded
                .read(&id, |doc, idx| idx.verify_against(doc).unwrap())
                .unwrap();
        }

        // A restored service stays writable at the restored version.
        let mut txn = loaded.begin();
        txn.set_value(node, "Marvin");
        let receipt = loaded.commit("alpha", txn).unwrap();
        assert_eq!(receipt.version, 3);
    }

    #[test]
    fn failing_fill_removes_the_temp_file() {
        let scratch = ScratchDir::new("tmp-cleanup");
        std::fs::create_dir_all(&scratch.0).unwrap();
        let err = write_file_atomically(&scratch.0, "out.bin", |_| {
            Err(io::Error::other("fill failed"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "fill failed");
        assert!(
            !scratch.0.join("out.bin.tmp").exists(),
            "the error path must not strand the temp file"
        );
        assert!(!scratch.0.join("out.bin").exists());
    }

    #[test]
    fn atomic_write_replaces_and_survives_success() {
        let scratch = ScratchDir::new("tmp-success");
        std::fs::create_dir_all(&scratch.0).unwrap();
        for payload in [b"first".as_slice(), b"second".as_slice()] {
            write_file_atomically(&scratch.0, "out.bin", |w| w.write_all(payload)).unwrap();
            assert_eq!(std::fs::read(scratch.0.join("out.bin")).unwrap(), payload);
            assert!(!scratch.0.join("out.bin.tmp").exists());
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn oversize_counts_are_rejected_with_a_typed_error() {
        let err = checked_u32(u32::MAX as usize + 1, "document count").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let source = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<IndexError>())
            .expect("typed Oversize source");
        assert!(
            matches!(
                source,
                IndexError::Oversize {
                    what: "document count",
                    len
                } if *len == u32::MAX as u64 + 1
            ),
            "{source:?}"
        );
        // In-range values pass through unchanged.
        assert_eq!(checked_u32(0, "x").unwrap(), 0);
        assert_eq!(checked_u32(u32::MAX as usize, "x").unwrap(), u32::MAX);
    }

    /// The manifest stores the typed-index count in one byte: a config
    /// with more entries must be refused, not written as a count that
    /// parses back to fewer types.
    #[test]
    fn oversize_typed_index_count_is_rejected_with_a_typed_error() {
        let scratch = ScratchDir::new("catalog-typed-count");
        let service = IndexService::new(ServiceConfig {
            index: IndexConfig::with_types(&[XmlType::Double; 256]),
            ..ServiceConfig::default()
        });
        let err = service.save_catalog(&scratch.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let source = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<IndexError>())
            .expect("typed Oversize source");
        assert!(
            matches!(
                source,
                IndexError::Oversize {
                    what: "typed index count",
                    len: 256
                }
            ),
            "{source:?}"
        );
        assert!(!scratch.0.join("catalog.xvi").exists());
        assert!(!scratch.0.join("catalog.xvi.tmp").exists());

        // One entry fewer still fits the byte and round-trips.
        let index = IndexConfig::with_types(&[XmlType::Double; 255]);
        let service = IndexService::new(ServiceConfig {
            index: index.clone(),
            ..ServiceConfig::default()
        });
        service.save_catalog(&scratch.0).unwrap();
        assert_eq!(
            IndexService::load_catalog(&scratch.0)
                .unwrap()
                .config()
                .index,
            index
        );
    }

    fn corrupt_length_of(err: &io::Error) -> (&'static str, u64) {
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        match err.get_ref().and_then(|e| e.downcast_ref::<IndexError>()) {
            Some(IndexError::CorruptLength { what, len }) => (what, *len),
            other => panic!("expected a CorruptLength source, got {other:?}"),
        }
    }

    /// Length and count fields are taken from file bytes: a corrupt
    /// one must come back as a typed `InvalidData` error before
    /// anything of that size is allocated (a `u64::MAX` entry count
    /// would otherwise abort in the allocator).
    #[test]
    fn corrupt_length_fields_are_rejected_before_allocating() {
        let mut short: &[u8] = &[0xff, 0xff, 0xff, 0xff, b'a', b'b'];
        let err = read_str(&mut short).unwrap_err();
        assert_eq!(corrupt_length_of(&err), ("string length", u32::MAX as u64));

        // The first document id's length field in a saved manifest.
        let scratch = ScratchDir::new("catalog-corrupt-length");
        let service = IndexService::new(ServiceConfig::default());
        service.insert_document("alpha", Document::parse("<a>1</a>").unwrap());
        service.save_catalog(&scratch.0).unwrap();
        let manifest = scratch.0.join("catalog.xvi");
        let mut bytes = std::fs::read(&manifest).unwrap();
        let id_len = 4 + 4 + 4 + 4 + 3 + ServiceConfig::default().index.typed.len() + 4;
        assert_eq!(&bytes[id_len..id_len + 4], &5u32.to_le_bytes());
        bytes[id_len..id_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&manifest, &bytes).unwrap();
        let err = IndexService::load_catalog(&scratch.0).unwrap_err();
        assert_eq!(corrupt_length_of(&err), ("string length", u32::MAX as u64));
    }

    #[test]
    fn load_catalog_rejects_garbage() {
        let scratch = ScratchDir::new("catalog-garbage");
        std::fs::create_dir_all(&scratch.0).unwrap();
        assert!(IndexService::load_catalog(&scratch.0).is_err()); // no manifest
        std::fs::write(scratch.0.join("catalog.xvi"), b"nope").unwrap();
        assert!(IndexService::load_catalog(&scratch.0).is_err());
    }
}
