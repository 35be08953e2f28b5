//! Index errors.

use xvi_xml::NodeId;

/// Errors surfaced by index maintenance and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// A value update targeted a node that has no directly stored
    /// value (only text and attribute nodes do).
    NotAValueNode(NodeId),
    /// The node id does not denote a live node of the indexed document.
    DeadNode(NodeId),
    /// A query string failed to parse.
    QuerySyntax(String),
    /// A query referenced a typed index that was not configured.
    TypeNotIndexed(xvi_fsm::XmlType),
    /// A lookup required an index family (string or substring) that was
    /// not configured; the value names the missing family.
    IndexNotConfigured(&'static str),
    /// A service operation referenced a document id that is not
    /// registered in the catalog.
    UnknownDocument(String),
    /// The target document was replaced or removed while the commit
    /// was queued; the transaction was not applied.
    DocumentReplaced(String),
    /// A group-commit leader panicked before this transaction's round
    /// completed; the transaction was not applied.
    CommitPipelinePoisoned,
    /// A bounded submission was rejected because the target shard's
    /// commit queue is full ([`ServiceConfig::max_queue`] entries are
    /// already waiting). The transaction was **not** enqueued; retry
    /// after roughly `retry_after`, by which time the shard's leader
    /// should have drained a group round or two.
    ///
    /// [`ServiceConfig::max_queue`]: crate::ServiceConfig::max_queue
    Overloaded {
        /// Index of the saturated shard.
        shard: usize,
        /// Suggested backoff before retrying, derived from the queue
        /// depth at rejection time.
        retry_after: std::time::Duration,
    },
    /// A commit could not be made durable: the write-ahead-log append
    /// or fsync failed. The transaction was **not** applied — an
    /// unlogged commit must never become visible.
    Durability(String),
    /// A value to be persisted (a string, write count or document
    /// count) exceeds the catalog/WAL format's `u32` field width.
    /// Refusing to write beats silently truncating the count and
    /// producing a manifest or log record that parses to wrong data.
    Oversize {
        /// What was being written (e.g. `"document count"`).
        what: &'static str,
        /// The offending length/count.
        len: u64,
    },
    /// A length or count read from a persisted manifest or log
    /// record promises more data than is left in the input. The loader
    /// rejects it before allocating anything of that size.
    CorruptLength {
        /// What the field counts (e.g. `"string length"`).
        what: &'static str,
        /// The bytes the field asks for.
        len: u64,
    },
    /// A persisted catalog manifest declares a format version this
    /// build does not understand — refusing to load beats mis-parsing
    /// it as the wrong layout.
    CatalogVersion {
        /// The version the manifest declares.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::NotAValueNode(n) => {
                write!(f, "{n:?} is not a text or attribute node")
            }
            IndexError::DeadNode(n) => write!(f, "{n:?} is not a live node"),
            IndexError::QuerySyntax(msg) => write!(f, "query syntax error: {msg}"),
            IndexError::TypeNotIndexed(t) => {
                write!(f, "no range index configured for {}", t.name())
            }
            IndexError::IndexNotConfigured(family) => {
                write!(f, "no {family} index configured")
            }
            IndexError::UnknownDocument(id) => {
                write!(f, "no document registered under id {id:?}")
            }
            IndexError::DocumentReplaced(id) => {
                write!(
                    f,
                    "document {id:?} was replaced or removed while the commit was queued"
                )
            }
            IndexError::CommitPipelinePoisoned => {
                write!(
                    f,
                    "the group-commit leader panicked; transaction not applied"
                )
            }
            IndexError::Overloaded { shard, retry_after } => {
                write!(
                    f,
                    "shard {shard} commit queue is full; retry after {:?}",
                    retry_after
                )
            }
            IndexError::Durability(msg) => {
                write!(f, "commit not durable (WAL append/fsync failed): {msg}")
            }
            IndexError::Oversize { what, len } => {
                write!(
                    f,
                    "{what} of {len} exceeds the persistent format's u32 field width"
                )
            }
            IndexError::CorruptLength { what, len } => {
                write!(
                    f,
                    "{what} asks for {len} bytes, more than the input holds: corrupt length field"
                )
            }
            IndexError::CatalogVersion { found, supported } => {
                write!(
                    f,
                    "catalog manifest has format version {found}, but this build supports \
                     version {supported}"
                )
            }
        }
    }
}

impl std::error::Error for IndexError {}

#[cfg(test)]
mod tests {
    /// Every query result and commit outcome carries an `IndexError`
    /// slot, so a new variant must not grow the enum past its payloads'
    /// common 24 bytes plus tag.
    #[test]
    fn index_error_stays_small() {
        assert!(std::mem::size_of::<super::IndexError>() <= 32);
    }
}
