//! Per-shard write-ahead logging for the [`IndexService`] commit
//! pipeline.
//!
//! Each shard owns one append-only log file (`wal<shard>.log` inside
//! the durability directory). The group-commit leader appends every
//! coalesced per-document batch as **one framed, checksummed record**
//! and issues **one fsync per batch** before publishing, so the
//! durable cost of a commit round is O(batch delta) — independent of
//! catalog or document size. Document registration and removal are
//! logged too, so a crash between checkpoints loses nothing that a
//! committer was told succeeded.
//!
//! ## Frame format
//!
//! ```text
//! [payload len: u32 le][crc32(payload): u32 le][payload]
//! payload := [seq: u64 le][tag: u8][record fields...]
//! ```
//!
//! `seq` is a shard-local, strictly increasing record number; the
//! checkpoint manifest stores the per-shard sequence captured at
//! checkpoint time, and recovery replays only records with a larger
//! sequence. A torn final frame — short header, length running past
//! end-of-file, checksum mismatch, or an undecodable payload — marks
//! the end of the durable prefix: [`ShardWal::open`] truncates the
//! file there and replay proceeds from the valid prefix only.
//!
//! ## Failure handling on the append side
//!
//! Because recovery stops at the *first* bad frame, a torn frame must
//! never end up buried mid-file with good frames appended after it —
//! those later records would be silently discarded even though their
//! fsync was acknowledged. The log therefore tracks the last good
//! frame boundary and reacts to every I/O failure:
//!
//! * a **failed append** (short write, `ENOSPC`, `EIO`) cuts the file
//!   back to the last good boundary through a fresh descriptor and
//!   reopens the append handle before any further record is accepted;
//! * a **failed fsync poisons the log**: the kernel may have dropped
//!   the dirty pages, and on Linux re-fsyncing the same descriptor can
//!   falsely report success (the "fsyncgate" failure mode), so the
//!   handle is never trusted again — every later append/sync/truncate
//!   fails until the log is reopened (which re-scans the file). The
//!   suffix whose fsync failed was reported *not durable* to its
//!   committers, so it is also scrubbed off the file (best effort,
//!   through a fresh descriptor) lest recovery resurrect a commit that
//!   was reported as failed;
//! * a checkpoint rewrite that fails after its rename may have left
//!   the append handle on the unlinked inode, so it poisons the log
//!   too rather than appending records that no open() would ever see.
//!
//! ## Crash safety of the files themselves
//!
//! Appends go to a pre-existing file, so only `File::sync_data` is
//! needed per batch. Creating a fresh log and rewriting one during
//! checkpoint truncation both follow the same discipline as
//! `persist.rs`: write a `.tmp` sibling, fsync it, rename over the
//! final name, then **fsync the parent directory** so the rename
//! itself survives power loss.
//!
//! [`IndexService`]: crate::IndexService

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use xvi_xml::NodeId;

use crate::persist::{bad, read_str, read_u32, read_u64, write_str, write_u32, write_u64};

/// Record tag bytes (part of the on-disk format; never renumber).
const TAG_COMMIT: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_REMOVE: u8 = 3;

/// Smallest decodable payload: sequence number plus tag byte.
const MIN_PAYLOAD: usize = 8 + 1;

/// One logical log record, decoded from a frame payload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// A published group-commit batch for one document: `committed`
    /// transactions coalesced into `writes`, bringing the document to
    /// `publish_version`.
    Commit {
        doc: String,
        committed: u64,
        publish_version: u64,
        writes: Vec<(u32, String)>,
    },
    /// A document registered under `doc` with serialized content
    /// `xml` (version resets to 0, replacing any previous document).
    Insert { doc: String, xml: String },
    /// The document registered under `doc` was removed.
    Remove { doc: String },
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the frame checksum —
/// as slice-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table and `CRC_TABLES[k][b]` advances the checksum of byte `b` past
/// `k` further zero bytes, so eight bytes fold in with eight lookups
/// and no loop-carried dependency between them.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Extends `crc`, the CRC-32 of some bytes, to the CRC-32 of those
/// bytes followed by `bytes`: `crc32_update(crc32(a), b) == crc32(a ++ b)`,
/// so a frame split into parts is checksummed without joining them.
pub(crate) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xff) as usize];
    }
    !c
}

pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Fsyncs a directory so a rename/creation inside it is durable.
/// (On Linux, directory fsync is the documented way to persist the
/// directory entry itself; a plain file fsync does not cover it.)
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn decode(payload: &[u8]) -> io::Result<(u64, WalRecord)> {
    let mut r = payload;
    let seq = read_u64(&mut r)?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let record = match tag[0] {
        TAG_COMMIT => {
            let doc = read_str(&mut r)?;
            let committed = read_u64(&mut r)?;
            let publish_version = read_u64(&mut r)?;
            let n = read_u32(&mut r)? as usize;
            let mut writes = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let node = read_u32(&mut r)?;
                let value = read_str(&mut r)?;
                writes.push((node, value));
            }
            WalRecord::Commit {
                doc,
                committed,
                publish_version,
                writes,
            }
        }
        TAG_INSERT => WalRecord::Insert {
            doc: read_str(&mut r)?,
            xml: read_str(&mut r)?,
        },
        TAG_REMOVE => WalRecord::Remove {
            doc: read_str(&mut r)?,
        },
        other => return Err(bad(format!("unknown WAL record tag {other}"))),
    };
    Ok((seq, record))
}

/// One parsed frame plus its byte span in the file — the span lets
/// checkpoint truncation rewrite the kept suffix without re-encoding.
struct RawFrame {
    seq: u64,
    start: usize,
    end: usize,
    record: WalRecord,
}

/// Parses frames from the start of `bytes`, stopping at the first
/// torn or corrupt frame. Returns the frames and the length of the
/// valid prefix (everything past it is an un-fsynced or torn tail to
/// be truncated away).
fn scan(bytes: &[u8]) -> (Vec<RawFrame>, usize) {
    let mut frames = Vec::new();
    let mut off = 0usize;
    // `len` comes from untrusted file bytes and can be up to u32::MAX:
    // all bounds are checked arithmetic so a huge length is an
    // explicit torn tail, not a usize wraparound (which on 32-bit
    // targets would only accidentally degrade to the same outcome).
    while let Some(payload_start) = off.checked_add(8) {
        let Some(header) = bytes.get(off..payload_start) else {
            break;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len < MIN_PAYLOAD {
            break;
        }
        let Some(end) = payload_start.checked_add(len) else {
            break;
        };
        let Some(payload) = bytes.get(payload_start..end) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Ok((seq, record)) = decode(payload) else {
            break;
        };
        frames.push(RawFrame {
            seq,
            start: off,
            end,
            record,
        });
        off = end;
    }
    (frames, off)
}

/// The append side of one shard's log.
#[derive(Debug)]
pub(crate) struct ShardWal {
    file: File,
    path: PathBuf,
    /// Sequence number of the last record appended (or recovered).
    pub(crate) seq: u64,
    /// Logical end of the log: the offset just past the last frame
    /// that was appended whole. A failed append cuts the file back to
    /// this boundary before anything else is accepted, so a torn frame
    /// can never end up buried under later records.
    len: u64,
    /// Prefix confirmed durable by the last successful [`ShardWal::sync`].
    /// A failed fsync scrubs the file back to this boundary: everything
    /// past it was reported *not* durable to its committers.
    synced_len: u64,
    /// Set when the log can no longer be trusted (unrepairable append,
    /// any fsync failure, a half-swapped checkpoint rewrite). Every
    /// later durable operation fails with this message until the log
    /// is reopened via [`ShardWal::open`], which re-scans the file.
    poisoned: Option<String>,
    /// Test-only fault injection: the next appended frame is cut off
    /// after this many bytes and the write reports failure.
    #[cfg(test)]
    pub(crate) fail_append_after: Option<usize>,
    /// Test-only fault injection: the next sync skips the fsync and
    /// reports failure (the appended bytes stay in the file, modelling
    /// "the data may have reached disk anyway").
    #[cfg(test)]
    pub(crate) fail_next_sync: bool,
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal{shard}.log"))
}

impl ShardWal {
    /// Opens (creating if missing) shard `shard`'s log under `dir`,
    /// returning the records of its valid prefix in append order. A
    /// torn tail — any suffix that does not parse as whole, checksummed
    /// frames — is truncated off the file before the append handle is
    /// handed out, so later appends can never bury garbage mid-log.
    pub(crate) fn open(dir: &Path, shard: usize) -> io::Result<(Vec<(u64, WalRecord)>, ShardWal)> {
        let path = wal_path(dir, shard);
        let existed = path.exists();
        let bytes = if existed {
            std::fs::read(&path)?
        } else {
            Vec::new()
        };
        let (frames, valid_len) = scan(&bytes);
        if valid_len < bytes.len() {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_len as u64)?;
            f.sync_all()?;
        }
        let seq = frames.last().map(|f| f.seq).unwrap_or(0);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if !existed {
            // The file's directory entry must survive power loss too.
            file.sync_all()?;
            fsync_dir(dir)?;
        }
        let records = frames.into_iter().map(|f| (f.seq, f.record)).collect();
        Ok((
            records,
            ShardWal {
                file,
                path,
                seq,
                len: valid_len as u64,
                synced_len: valid_len as u64,
                poisoned: None,
                #[cfg(test)]
                fail_append_after: None,
                #[cfg(test)]
                fail_next_sync: false,
            },
        ))
    }

    fn check_usable(&self) -> io::Result<()> {
        match &self.poisoned {
            Some(msg) => Err(io::Error::other(format!(
                "shard WAL poisoned, reopen to recover: {msg}"
            ))),
            None => Ok(()),
        }
    }

    /// Writes one frame given as consecutive parts.
    fn write_frame(&mut self, parts: [&[u8]; 2]) -> io::Result<()> {
        #[cfg(test)]
        if let Some(mut cut) = self.fail_append_after.take() {
            for part in parts {
                let n = cut.min(part.len());
                self.file.write_all(&part[..n])?;
                cut -= n;
            }
            return Err(io::Error::other("injected append fault"));
        }
        for part in parts {
            self.file.write_all(part)?;
        }
        Ok(())
    }

    /// A failed append may have left a torn frame past `self.len`.
    /// Cuts the file back to the last good frame boundary (through a
    /// fresh descriptor — the failed one may be wedged) and reopens
    /// the append handle; if the cut itself fails, the log is poisoned
    /// so nothing can ever be appended after the garbage.
    fn rewind_torn_append(&mut self, cause: &io::Error) {
        let repaired = (|| -> io::Result<()> {
            let f = OpenOptions::new().write(true).open(&self.path)?;
            f.set_len(self.len)?;
            f.sync_all()?;
            self.file = OpenOptions::new().append(true).open(&self.path)?;
            Ok(())
        })();
        if let Err(e) = repaired {
            self.poisoned = Some(format!(
                "append failed ({cause}) and the torn frame could not be cut off ({e})"
            ));
        }
    }

    /// Completes and appends the frame whose payload is the rest of
    /// `head` (as started by [`ShardWal::frame_head`]) followed by
    /// `tail`: fills in the length and the checksum, then writes both
    /// parts as they are, so a large trailing field is never copied
    /// into a frame buffer.
    fn append_frame(&mut self, mut head: Vec<u8>, tail: &[u8]) -> io::Result<u64> {
        self.check_usable()?;
        let len = crate::persist::checked_u32(head.len() - 8 + tail.len(), "WAL payload length")?;
        let crc = crc32_update(crc32(&head[8..]), tail);
        head[0..4].copy_from_slice(&len.to_le_bytes());
        head[4..8].copy_from_slice(&crc.to_le_bytes());
        if let Err(e) = self.write_frame([&head, tail]) {
            self.rewind_torn_append(&e);
            return Err(e);
        }
        // Only now does the record exist: a failed append consumes
        // neither log space nor a sequence number.
        self.len += (head.len() + tail.len()) as u64;
        self.seq += 1;
        Ok(self.seq)
    }

    /// Starts a frame for the record that would carry the *next*
    /// sequence number: room for the frame header, then the payload's
    /// sequence number and tag. [`ShardWal::append_frame`] claims the
    /// number only once the frame is fully in the file.
    fn frame_head(&self, tag: u8) -> Vec<u8> {
        let mut head = Vec::with_capacity(64);
        head.extend_from_slice(&[0; 8]);
        head.extend_from_slice(&(self.seq + 1).to_le_bytes());
        head.push(tag);
        head
    }

    /// Appends one coalesced commit batch (no fsync — call
    /// [`ShardWal::sync`] once per batch).
    pub(crate) fn append_commit(
        &mut self,
        doc: &str,
        committed: u64,
        publish_version: u64,
        writes: &[(NodeId, String)],
    ) -> io::Result<u64> {
        let mut payload = self.frame_head(TAG_COMMIT);
        write_str(&mut payload, doc)?;
        write_u64(&mut payload, committed)?;
        write_u64(&mut payload, publish_version)?;
        write_u32(
            &mut payload,
            crate::persist::checked_u32(writes.len(), "write count")?,
        )?;
        for (node, value) in writes {
            write_u32(
                &mut payload,
                crate::persist::checked_u32(node.index(), "node id")?,
            )?;
            write_str(&mut payload, value)?;
        }
        self.append_frame(payload, &[])
    }

    /// Appends a document-registration record. The serialized
    /// document goes to the file straight from `xml`: only the frame
    /// header and the short fields before it are buffered.
    pub(crate) fn append_insert(&mut self, doc: &str, xml: &str) -> io::Result<u64> {
        let mut head = self.frame_head(TAG_INSERT);
        write_str(&mut head, doc)?;
        write_u32(
            &mut head,
            crate::persist::checked_u32(xml.len(), "string length")?,
        )?;
        self.append_frame(head, xml.as_bytes())
    }

    /// Appends a document-removal record.
    pub(crate) fn append_remove(&mut self, doc: &str) -> io::Result<u64> {
        let mut head = self.frame_head(TAG_REMOVE);
        write_str(&mut head, doc)?;
        self.append_frame(head, &[])
    }

    /// The group fsync: one durable barrier per coalesced batch.
    ///
    /// A failure here **poisons the log** (see the module docs): the
    /// error is reported to every committer of the batch as
    /// not-durable, the un-acked suffix is scrubbed off the file so
    /// recovery cannot resurrect it, and no further append/sync
    /// succeeds on this handle — the caller must reopen to recover.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.check_usable()?;
        #[cfg(test)]
        let result = if std::mem::take(&mut self.fail_next_sync) {
            Err(io::Error::other("injected fsync fault"))
        } else {
            self.file.sync_data()
        };
        #[cfg(not(test))]
        let result = self.file.sync_data();
        match result {
            Ok(()) => {
                self.synced_len = self.len;
                Ok(())
            }
            Err(e) => {
                // Best effort: the suffix past `synced_len` was just
                // reported NOT durable, but its pages may have reached
                // disk before the failure — truncate it away through a
                // fresh descriptor (the failed one can falsely ack a
                // retried fsync) so a commit reported as failed is not
                // replayed as durable on recovery.
                let _ = (|| -> io::Result<()> {
                    let f = OpenOptions::new().write(true).open(&self.path)?;
                    f.set_len(self.synced_len)?;
                    f.sync_all()
                })();
                self.len = self.synced_len;
                self.poisoned = Some(format!("fsync failed: {e}"));
                Err(e)
            }
        }
    }

    /// Drops every record with `seq <= keep_after` (they are covered
    /// by a checkpoint) by atomically rewriting the log with the
    /// kept suffix: tmp sibling → fsync → rename → directory fsync.
    pub(crate) fn truncate_through(&mut self, keep_after: u64) -> io::Result<()> {
        self.check_usable()?;
        let bytes = std::fs::read(&self.path)?;
        let (frames, _) = scan(&bytes);
        let mut kept = Vec::new();
        for f in &frames {
            if f.seq > keep_after {
                kept.extend_from_slice(&bytes[f.start..f.end]);
            }
        }
        let dir = self
            .path
            .parent()
            .ok_or_else(|| bad("WAL path has no parent directory"))?
            .to_path_buf();
        let tmp = self.path.with_extension("log.tmp");
        // Stage the kept suffix first: a failure here leaves the live
        // log (and the append handle) completely untouched.
        if let Err(e) = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&kept)?;
            f.sync_all()
        })() {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Swap it in and re-point the append handle at the new file
        // (the rename leaves the old handle on the unlinked inode). A
        // failure anywhere in the swap poisons the log: the handle may
        // now point at an inode no future open() will ever read, so
        // appending further records would silently lose them.
        let swapped = (|| -> io::Result<()> {
            std::fs::rename(&tmp, &self.path)?;
            fsync_dir(&dir)?;
            self.file = OpenOptions::new().append(true).open(&self.path)?;
            Ok(())
        })();
        match swapped {
            Ok(()) => {
                self.len = kept.len() as u64;
                self.synced_len = self.len;
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                self.poisoned = Some(format!("checkpoint log rewrite failed mid-swap: {e}"));
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bit-serial CRC-32: no tables at all.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// Every length through the word loop's remainder cases, and every
    /// split point of each.
    #[test]
    fn crc32_matches_the_reference_at_every_short_length_and_split() {
        let bytes: Vec<u8> = (0..=64u32).map(|i| (i * 151 + 7) as u8).collect();
        for len in 0..=64 {
            let data = &bytes[..len];
            let whole = crc32(data);
            assert_eq!(whole, crc32_reference(data), "length {len}");
            for split in 0..=len {
                let (a, b) = data.split_at(split);
                assert_eq!(
                    crc32_update(crc32(a), b),
                    whole,
                    "length {len}, split {split}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn crc32_equals_the_reference_and_composes(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            split in any::<usize>(),
        ) {
            let whole = crc32(&data);
            prop_assert_eq!(whole, crc32_reference(&data));
            let (a, b) = data.split_at(split % (data.len() + 1));
            prop_assert_eq!(crc32_update(crc32(a), b), whole);
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xvi-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_sync_reopen_round_trips() {
        let dir = scratch("roundtrip");
        let (records, mut wal) = ShardWal::open(&dir, 0).unwrap();
        assert!(records.is_empty());
        wal.append_insert("alpha", "<a/>").unwrap();
        wal.append_commit("alpha", 2, 2, &[(NodeId::from_index(3), "x".to_string())])
            .unwrap();
        wal.append_remove("alpha").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let (records, wal) = ShardWal::open(&dir, 0).unwrap();
        assert_eq!(wal.seq, 3);
        assert_eq!(
            records,
            vec![
                (
                    1,
                    WalRecord::Insert {
                        doc: "alpha".into(),
                        xml: "<a/>".into()
                    }
                ),
                (
                    2,
                    WalRecord::Commit {
                        doc: "alpha".into(),
                        committed: 2,
                        publish_version: 2,
                        writes: vec![(3, "x".into())],
                    }
                ),
                (
                    3,
                    WalRecord::Remove {
                        doc: "alpha".into()
                    }
                ),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_prefix() {
        let dir = scratch("torn");
        let (_, mut wal) = ShardWal::open(&dir, 0).unwrap();
        wal.append_insert("doc", "<r>hello</r>").unwrap();
        wal.append_remove("doc").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let path = wal_path(&dir, 0);
        let bytes = std::fs::read(&path).unwrap();
        let (frames, valid) = scan(&bytes);
        assert_eq!(frames.len(), 2);
        assert_eq!(valid, bytes.len());
        let first_end = frames[0].end;

        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (records, wal) = ShardWal::open(&dir, 0).unwrap();
            let expect = if cut >= bytes.len() {
                2
            } else if cut >= first_end {
                1
            } else {
                0
            };
            assert_eq!(records.len(), expect, "cut at {cut}");
            // The torn tail is physically gone after open.
            drop(wal);
            let kept = std::fs::read(&path).unwrap().len();
            assert!(kept == if expect == 0 { 0 } else { first_end } || kept == bytes.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_through_keeps_only_newer_records() {
        let dir = scratch("truncate");
        let (_, mut wal) = ShardWal::open(&dir, 1).unwrap();
        for i in 0..5 {
            wal.append_remove(&format!("d{i}")).unwrap();
        }
        wal.sync().unwrap();
        wal.truncate_through(3).unwrap();
        // The handle stays appendable after the rewrite.
        wal.append_remove("post").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let (records, wal) = ShardWal::open(&dir, 1).unwrap();
        let seqs: Vec<u64> = records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
        assert_eq!(wal.seq, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed append (at every torn prefix length) must leave the
    /// file at the last good frame boundary, consume no sequence
    /// number, and keep the log usable — later records land after the
    /// good prefix, never after buried garbage.
    #[test]
    fn failed_append_is_cut_off_and_the_log_stays_usable() {
        let dir = scratch("append-fault");
        let (_, mut wal) = ShardWal::open(&dir, 0).unwrap();
        wal.append_remove("before").unwrap();
        wal.sync().unwrap();
        let clean_len = std::fs::metadata(wal_path(&dir, 0)).unwrap().len();
        // Insert frames are written as a buffered head plus the
        // document bytes: cut them anywhere in either part too.
        let xml = "<r>a document long enough to span many bytes</r>";
        let insert_len = 8 + 8 + 1 + (4 + "doc".len()) + 4 + xml.len();
        for (frame_len, insert) in [(clean_len as usize, false), (insert_len, true)] {
            for torn in 0..frame_len + 8 {
                wal.fail_append_after = Some(torn);
                let err = if insert {
                    wal.append_insert("doc", xml)
                } else {
                    wal.append_remove("torn")
                }
                .unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::Other, "cut at {torn}");
                assert_eq!(
                    std::fs::metadata(wal_path(&dir, 0)).unwrap().len(),
                    clean_len,
                    "torn frame (cut at {torn}) must be physically gone"
                );
            }
        }
        assert_eq!(
            wal.seq, 1,
            "failed appends must not consume sequence numbers"
        );
        wal.append_remove("after").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let (records, wal) = ShardWal::open(&dir, 0).unwrap();
        assert_eq!(
            records,
            vec![
                (
                    1,
                    WalRecord::Remove {
                        doc: "before".into()
                    }
                ),
                (
                    2,
                    WalRecord::Remove {
                        doc: "after".into()
                    }
                ),
            ]
        );
        assert_eq!(wal.seq, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed fsync poisons the log — every later durable operation
    /// fails until reopen — and scrubs the un-acked suffix, so a
    /// record whose sync was reported as failed is never replayed as
    /// durable.
    #[test]
    fn failed_fsync_poisons_the_log_and_scrubs_the_unacked_suffix() {
        let dir = scratch("sync-fault");
        let (_, mut wal) = ShardWal::open(&dir, 0).unwrap();
        wal.append_remove("durable").unwrap();
        wal.sync().unwrap();
        wal.append_remove("unacked").unwrap();
        wal.fail_next_sync = true;
        assert!(wal.sync().is_err());
        // Poisoned: appends, syncs and checkpoint rewrites all refuse.
        assert!(wal.append_remove("later").is_err());
        assert!(wal.sync().is_err());
        assert!(wal.truncate_through(0).is_err());
        drop(wal);

        let (records, _) = ShardWal::open(&dir, 0).unwrap();
        assert_eq!(
            records,
            vec![(
                1,
                WalRecord::Remove {
                    doc: "durable".into()
                }
            )],
            "the record whose fsync failed must not be resurrected"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checksummed frame whose string length field promises more
    /// bytes than the payload holds decodes as a torn tail, without
    /// allocating that length.
    #[test]
    fn corrupt_string_length_ends_the_valid_prefix() {
        let mut payload = 1u64.to_le_bytes().to_vec();
        payload.push(TAG_REMOVE);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(b"doc");
        let err = decode(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let (frames, valid) = scan(&frame);
        assert!(frames.is_empty());
        assert_eq!(valid, 0);
    }

    #[test]
    fn bit_flips_invalidate_the_frame() {
        let dir = scratch("bitflip");
        let (_, mut wal) = ShardWal::open(&dir, 0).unwrap();
        wal.append_insert("doc", "<r>payload</r>").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let path = wal_path(&dir, 0);
        let clean = std::fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let (records, _) = ShardWal::open(&dir, 0).unwrap();
            assert!(
                records.is_empty(),
                "flip at byte {i} must invalidate the only frame"
            );
            std::fs::write(&path, &clean).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
