//! A sharded, multi-document index service with group commit.
//!
//! The paper's §5.1 commutativity argument (see [`crate::txn`]) makes
//! commits to one document order-independent. This module scales that
//! argument out: an [`IndexService`] hosts many
//! `(Document, IndexManager)` pairs across `N` shards (hash of the
//! document id picks the shard), and turns the per-commit lock into a
//! **group-commit pipeline**:
//!
//! * Committers **submit** their write batches to the owning shard's
//!   queue without blocking: [`IndexService::submit`] enqueues and
//!   returns a [`CommitTicket`] immediately, so one thread can keep
//!   hundreds of commits in flight across shards and reap completions
//!   in any order ([`CommitTicket::wait`] blocks,
//!   [`CommitTicket::try_poll`] does not;
//!   [`IndexService::commit`] is simply `submit(..).wait()`). The
//!   first waiter to find the pipeline idle becomes the **leader**; it
//!   drains the queue (up to [`ServiceConfig::max_group`] batches per
//!   round), coalesces all batches that target the same document, and
//!   repairs that document's ancestors **once** via the existing
//!   [`IndexManager::update_values`] path — exactly the amortisation
//!   the paper's associative combination function `C` makes sound:
//!   because commits commute, collapsing a queue of transactions into
//!   one batch per document yields the same indices as any serial
//!   order. Each ticket's completion slot is filled by the group
//!   leader with a [`CommitReceipt`] carrying the publish version and
//!   the applied-write count.
//! * Reads are **lock-free snapshots**. Every document's committed
//!   state lives in an [`Arc`]; a reader clones the `Arc` (one brief
//!   shard-lock acquisition) and then queries an immutable version
//!   with no lock held — commits landing concurrently never move the
//!   ground under a running query. The leader publishes adaptively:
//!   while snapshots of the current version are outstanding it uses
//!   copy-on-write (clone, apply the coalesced batch, swap), and when
//!   none are it updates the version in place at the paper's
//!   O(writes + ancestors) cost — uncontended single-writer commits
//!   pay nothing for the snapshot machinery.
//! * Copy-on-write publishes are **structurally shared**. The document
//!   arena, every index B+tree and every annotation column live in
//!   paged copy-on-write storage ([`xvi_btree::PagedVec`]), so the
//!   "clone" half of a COW publish is O(pages) reference-count bumps
//!   and applying the coalesced batch copies only the pages the batch
//!   touches — publish cost is proportional to the *touched set*, not
//!   the document size, no matter how many snapshots pin old versions.
//!
//! The service therefore gives every reader a consistent prefix of the
//! commit history, lets writers on different shards (and different
//! documents within a shard's group round) proceed in parallel, and
//! preserves the paper's invariant that the final indices are
//! byte-identical to a serial replay.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};

use parking_lot::RwLock;

use xvi_obs::{Counter, LatencyHistogram, Obs, Stage, Trace, Unit};
use xvi_xml::{Document, NodeId, NodeKind};

use crate::config::IndexConfig;
use crate::error::IndexError;
use crate::lookup::{Lookup, QueryResult};
use crate::manager::{IndexManager, TypedLoads};
use crate::query::{Plan, QueryEngine};
use crate::stats::CardinalityEstimate;
use crate::txn::Transaction;
use crate::wal::{ShardWal, WalRecord};

/// A document's catalog identifier.
pub type DocId = String;

/// How (whether) an [`IndexService`] makes commits durable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Durability {
    /// No persistence: commits live only in memory (the default, and
    /// the previous behaviour). [`IndexService::save_catalog`] remains
    /// available for explicit full-catalog saves.
    #[default]
    Ephemeral,
    /// Per-shard write-ahead logging under the given directory: the
    /// group-commit leader appends each coalesced batch as one framed,
    /// checksummed record and issues **one fsync per batch** before
    /// publishing, so the durable cost of a commit is O(batch delta),
    /// not O(catalog). [`IndexService::open`] recovers by loading the
    /// last checkpoint in the same directory (if any) and replaying
    /// each shard's log, tolerating a torn final record;
    /// [`IndexService::checkpoint`] bounds replay time by saving the
    /// current documents and truncating the logs.
    Wal(PathBuf),
}

/// Tuning knobs for an [`IndexService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards the document catalog is split over. Commits on
    /// different shards never contend with each other.
    pub shards: usize,
    /// Maximum number of queued transactions a group-commit leader
    /// drains per round. `1` degenerates to per-transaction commits;
    /// larger values amortise the copy-on-write publish across more
    /// transactions under contention.
    pub max_group: usize,
    /// Index configuration applied to every hosted document.
    pub index: IndexConfig,
    /// Durability mode: ephemeral (default) or per-shard write-ahead
    /// logging.
    pub durability: Durability,
    /// Capacity of each shard's commit queue as seen by the **bounded**
    /// submission path: [`IndexService::try_submit`] rejects with
    /// [`IndexError::Overloaded`] once this many transactions are
    /// already waiting on the target shard. The unbounded paths
    /// ([`IndexService::submit`] / [`IndexService::commit`]) ignore it.
    pub max_queue: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 8,
            max_group: 64,
            index: IndexConfig::default(),
            durability: Durability::Ephemeral,
            max_queue: 4096,
        }
    }
}

impl ServiceConfig {
    /// A config with the given shard count and defaults elsewhere.
    pub fn with_shards(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        }
    }

    /// Sets the group-commit drain limit.
    pub fn with_max_group(mut self, max_group: usize) -> ServiceConfig {
        self.max_group = max_group;
        self
    }

    /// Sets the per-document index configuration.
    pub fn with_index(mut self, index: IndexConfig) -> ServiceConfig {
        self.index = index;
        self
    }

    /// Enables per-shard write-ahead logging under `dir` (see
    /// [`Durability::Wal`]).
    pub fn with_wal(mut self, dir: impl Into<PathBuf>) -> ServiceConfig {
        self.durability = Durability::Wal(dir.into());
        self
    }

    /// Sets the bounded-submission queue capacity per shard (see
    /// [`ServiceConfig::max_queue`]).
    pub fn with_max_queue(mut self, max_queue: usize) -> ServiceConfig {
        self.max_queue = max_queue;
        self
    }
}

/// One immutable published version of a document and its indices.
///
/// The document is held behind its own [`Arc`] so a copy-on-write
/// publish starts from a pointer bump and [`Arc::make_mut`] — which,
/// combined with the paged arenas inside [`Document`] and
/// [`IndexManager`], copies only the pages the batch touches.
#[derive(Debug, Clone)]
struct SharedVersion {
    doc: Arc<Document>,
    idx: IndexManager,
    /// Number of transactions committed into this version.
    version: u64,
}

/// A document slot in the catalog: the currently published version,
/// swapped atomically by the group-commit leader.
#[derive(Debug)]
struct DocHandle {
    id: String,
    published: RwLock<Arc<SharedVersion>>,
}

impl DocHandle {
    fn current(&self) -> Arc<SharedVersion> {
        Arc::clone(&self.published.read())
    }
}

/// A committed transaction waiting for its group-commit round.
struct Pending {
    handle: Arc<DocHandle>,
    writes: Vec<(NodeId, String)>,
    slot: Arc<CommitSlot>,
    trace: Option<PendingTrace>,
}

/// Trace context riding along with a queued transaction: the leader
/// records the queue wait and attributes the round's shared WAL /
/// fsync / publish timings to it.
struct PendingTrace {
    trace: Trace,
    /// Tracer-clock reading at enqueue time (queue wait starts here).
    enqueue_ns: u64,
    /// Whether the service started the trace itself (sampled inside
    /// [`IndexService::submit`]) and must therefore finish it after the
    /// slot is filled. Traces handed in by a caller (the serve
    /// frontend) stay open: the layer that started a trace finishes it
    /// once the end-to-end request completes.
    owned: bool,
}

/// What a completed commit reports back through its
/// [`CommitTicket`]: which published version made the transaction's
/// writes visible, and how many writes it applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The document version (count of committed transactions) whose
    /// publish included this transaction. Every snapshot taken at or
    /// after this version sees the writes.
    pub version: u64,
    /// Number of writes the transaction applied.
    pub applied: usize,
}

/// Per-ticket completion slot, filled exactly once by the group
/// leader (or the unwind guards, if a leader panics mid-round).
struct CommitSlot {
    result: Mutex<Option<Result<CommitReceipt, IndexError>>>,
    cv: Condvar,
    /// Whether `fill` has run — checked by the unwind guards so a
    /// slot is filled exactly once even if a leader panics mid-round.
    filled: AtomicBool,
}

impl CommitSlot {
    fn new() -> CommitSlot {
        CommitSlot {
            result: Mutex::new(None),
            cv: Condvar::new(),
            filled: AtomicBool::new(false),
        }
    }

    fn completed(r: Result<CommitReceipt, IndexError>) -> Arc<CommitSlot> {
        let slot = CommitSlot::new();
        *slot.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        slot.filled.store(true, Ordering::SeqCst);
        Arc::new(slot)
    }

    fn fill(&self, r: Result<CommitReceipt, IndexError>) {
        if self.filled.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        self.cv.notify_all();
    }

    /// The result, if the commit completed — the slot keeps it, so the
    /// probe can be repeated.
    fn get(&self) -> Option<Result<CommitReceipt, IndexError>> {
        self.result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn wait_filled(&self) -> Result<CommitReceipt, IndexError> {
        let mut st = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = st.as_ref() {
                return r.clone();
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A commit in flight: the handle [`IndexService::submit`] returns
/// immediately, resolved by the shard's group-commit leader.
///
/// Waiting is **cooperative**: if no leader is active on the shard,
/// [`CommitTicket::wait`] takes over and drains the queue itself (this
/// is what makes a single thread's pipelined submits make progress);
/// otherwise it blocks on the completion slot until the active leader
/// publishes the round. [`CommitTicket::try_poll`] never blocks and
/// never drives the pipeline.
///
/// ```
/// use xvi_index::{Document, IndexService, ServiceConfig};
///
/// let service = IndexService::new(ServiceConfig::default());
/// service.insert_document("crew", Document::parse(
///     "<person><name>Arthur</name></person>").unwrap());
/// let node = service.read("crew", |doc, _| {
///     doc.descendants(doc.document_node())
///         .find(|&n| doc.direct_value(n).is_some()).unwrap()
/// }).unwrap();
///
/// // Keep several commits in flight, then reap them in any order.
/// let tickets: Vec<_> = (0..4).map(|i| {
///     let mut txn = service.begin();
///     txn.set_value(node, format!("v{i}"));
///     service.submit("crew", txn)
/// }).collect();
/// for t in tickets.into_iter().rev() {
///     let receipt = t.wait().unwrap();
///     assert_eq!(receipt.applied, 1);
/// }
/// assert_eq!(service.version_of("crew"), Some(4));
/// ```
#[must_use = "a ticket must be waited on (or polled) to observe the commit outcome"]
pub struct CommitTicket<'a> {
    service: &'a IndexService,
    /// Index of the shard whose pipeline resolves this ticket; `None`
    /// when the ticket was born completed (empty or rejected submit).
    shard: Option<usize>,
    slot: Arc<CommitSlot>,
}

impl std::fmt::Debug for CommitTicket<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitTicket")
            .field("completed", &self.slot.filled.load(Ordering::SeqCst))
            .finish()
    }
}

impl CommitTicket<'_> {
    /// Blocks until the commit is published (helping to drain the
    /// shard's queue if no leader is active) and returns its receipt.
    pub fn wait(self) -> Result<CommitReceipt, IndexError> {
        loop {
            if let Some(r) = self.slot.get() {
                return r;
            }
            let shard = &self.service.shards[self.shard.expect("unfilled tickets carry a shard")];
            if self.service.try_lead(shard) {
                self.service.run_leader(shard);
            } else {
                // An active leader owns the queue (and therefore this
                // ticket's pending entry); it fills the slot when the
                // round publishes.
                return self.slot.wait_filled();
            }
        }
    }

    /// Non-blocking completion probe: `Some(receipt)` once the commit
    /// round has published, `None` while it is still queued. Never
    /// performs pipeline work — progress is driven by `wait()` (on any
    /// ticket of the shard) or by concurrent committers.
    pub fn try_poll(&self) -> Option<Result<CommitReceipt, IndexError>> {
        self.slot.get()
    }

    /// Whether the commit has completed (equivalent to
    /// `try_poll().is_some()`).
    pub fn is_complete(&self) -> bool {
        self.slot.filled.load(Ordering::SeqCst)
    }
}

/// Group-commit queue of one shard.
struct Pipeline {
    state: Mutex<PipelineState>,
}

struct PipelineState {
    queue: VecDeque<Pending>,
    leader_active: bool,
}

impl Pipeline {
    fn new() -> Pipeline {
        Pipeline {
            state: Mutex::new(PipelineState {
                queue: VecDeque::new(),
                leader_active: false,
            }),
        }
    }
}

/// One shard: a slice of the document catalog plus its commit queue
/// and (in [`Durability::Wal`] mode) its write-ahead log.
///
/// Lock order, everywhere: the service's `ckpt` mutex → `wal` mutex →
/// `catalog` lock → a handle's `published` lock. The leader holds the
/// wal mutex from the record append through the publish, which gives
/// checkpointing its exactness guarantee: capturing `(catalog state,
/// wal.seq, commit count)` under the wal mutex observes either none or
/// all of every logged batch's effects.
struct Shard {
    catalog: RwLock<HashMap<String, Arc<DocHandle>>>,
    pipeline: Pipeline,
    wal: Option<Mutex<ShardWal>>,
    /// Transactions committed into this shard's documents. Kept
    /// per-shard (the leader increments it while holding the shard's
    /// wal mutex) so a checkpoint capture reads a count exactly
    /// consistent with the shard's documents and WAL sequence; only the
    /// sum across shards is meaningful to callers.
    commits: AtomicU64,
}

impl Shard {
    fn new(wal: Option<ShardWal>) -> Shard {
        Shard {
            catalog: RwLock::new(HashMap::new()),
            pipeline: Pipeline::new(),
            wal: wal.map(Mutex::new),
            commits: AtomicU64::new(0),
        }
    }
}

/// A sharded, concurrent, multi-document index service (see the
/// module docs for the commit pipeline and snapshot semantics).
///
/// ```
/// use std::sync::Arc;
/// use xvi_index::{Document, IndexService, Lookup, ServiceConfig};
///
/// let service = Arc::new(IndexService::new(ServiceConfig::default()));
/// service.insert_document("crew", Document::parse(
///     "<person><name>Arthur</name><age>42</age></person>").unwrap());
///
/// let mut txn = service.begin();
/// // The lookup returns both <name> and its text node; updates target
/// // nodes with a directly stored value.
/// let node = service.read("crew", |doc, idx| {
///     *idx.query(doc, &Lookup::equi("Arthur")).unwrap()
///         .iter()
///         .find(|&&n| doc.direct_value(n).is_some())
///         .unwrap()
/// }).unwrap();
/// txn.set_value(node, "Ford");
/// let receipt = service.commit("crew", txn).unwrap();
/// assert_eq!((receipt.version, receipt.applied), (1, 1));
///
/// // <name> and its text node both have string value "Ford".
/// let snap = service.snapshot("crew").unwrap();
/// assert_eq!(snap.query(&Lookup::equi("Ford")).unwrap().len(), 2);
/// ```
pub struct IndexService {
    shards: Arc<Vec<Shard>>,
    config: ServiceConfig,
    /// Serializes whole checkpoint/save cycles (capture → write
    /// documents and manifest → truncate logs). Without it, two interleaved
    /// checkpoints could truncate the logs past the manifest that ends
    /// up on disk, leaving acked commits unrecoverable. Lock order:
    /// this mutex strictly before any shard's wal mutex.
    ckpt: Mutex<()>,
    /// The observability hub every layer of this service reports into.
    obs: Arc<Obs>,
    metrics: ServiceMetrics,
}

/// Pre-registered handles for every hot-path series the service
/// updates — resolved once at construction so the commit and query
/// paths touch only relaxed atomics, never the registry lock.
struct ServiceMetrics {
    commits: Counter,
    batches: Counter,
    /// Transactions coalesced per group-commit batch (dimensionless).
    batch_size: Arc<LatencyHistogram>,
    wal_append: Arc<LatencyHistogram>,
    wal_fsync: Arc<LatencyHistogram>,
    publish: Arc<LatencyHistogram>,
    publish_inplace: Counter,
    publish_cow: Counter,
    cow_pages_detached: Counter,
    queries: Counter,
    query_latency: Arc<LatencyHistogram>,
    plan_index: Counter,
    plan_intersect: Counter,
    plan_scan: Counter,
    /// |estimate − actual| per probed XPath query, in permille of the
    /// larger of the two (dimensionless).
    estimate_drift: Arc<LatencyHistogram>,
}

impl ServiceMetrics {
    fn register(obs: &Obs) -> ServiceMetrics {
        let r = &obs.registry;
        ServiceMetrics {
            commits: r.counter(
                "xvi_service_commits_total",
                "Transactions committed through the group-commit pipeline",
                &[],
            ),
            batches: r.counter(
                "xvi_service_commit_batches_total",
                "Coalesced per-document group-commit batches published",
                &[],
            ),
            batch_size: r.histogram(
                "xvi_service_commit_batch_size",
                "Transactions coalesced per group-commit batch",
                &[],
                Unit::None,
            ),
            wal_append: r.histogram(
                "xvi_service_wal_append_seconds",
                "WAL record append latency per batch",
                &[],
                Unit::Seconds,
            ),
            wal_fsync: r.histogram(
                "xvi_service_wal_fsync_seconds",
                "WAL fsync latency per batch",
                &[],
                Unit::Seconds,
            ),
            publish: r.histogram(
                "xvi_service_publish_seconds",
                "Version publish latency per batch (apply + swap)",
                &[],
                Unit::Seconds,
            ),
            publish_inplace: r.counter(
                "xvi_service_publish_total",
                "Publishes by mode",
                &[("mode", "inplace")],
            ),
            publish_cow: r.counter(
                "xvi_service_publish_total",
                "Publishes by mode",
                &[("mode", "cow")],
            ),
            cow_pages_detached: r.counter(
                "xvi_service_cow_pages_detached_total",
                "Index arena pages copied (detached) by copy-on-write publishes",
                &[],
            ),
            queries: r.counter(
                "xvi_service_queries_total",
                "Lookups served from lock-free snapshots",
                &[],
            ),
            query_latency: r.histogram(
                "xvi_service_query_seconds",
                "Service-level query latency",
                &[],
                Unit::Seconds,
            ),
            plan_index: r.counter(
                "xvi_service_plans_total",
                "Chosen query plan shapes",
                &[("shape", "index")],
            ),
            plan_intersect: r.counter(
                "xvi_service_plans_total",
                "Chosen query plan shapes",
                &[("shape", "intersect")],
            ),
            plan_scan: r.counter(
                "xvi_service_plans_total",
                "Chosen query plan shapes",
                &[("shape", "scan")],
            ),
            estimate_drift: r.histogram(
                "xvi_service_estimate_drift_permille",
                "Planner estimate vs. actual probe cardinality drift (permille)",
                &[],
                Unit::None,
            ),
        }
    }
}

/// Registers the snapshot-time collector that pulls cheap-to-read but
/// pointless-to-mirror values out of the shards: queue depths, doc
/// counts, and the per-kind B+tree statistics (entries, page
/// sharing, cumulative COW detaches) summed across
/// every published document. Holds only a [`Weak`] reference — the
/// service owns the registry, so a strong one would leak the cycle.
fn register_shard_collector(obs: &Obs, shards: &Arc<Vec<Shard>>) {
    let weak: Weak<Vec<Shard>> = Arc::downgrade(shards);
    obs.registry.register_collector(Box::new(move |sink| {
        let Some(shards) = weak.upgrade() else { return };
        let mut docs = 0u64;
        let mut by_kind: HashMap<String, xvi_btree::TreeStats> = HashMap::new();
        for (i, shard) in shards.iter().enumerate() {
            let depth = shard
                .pipeline
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len() as u64;
            let label = i.to_string();
            sink.gauge(
                "xvi_service_queue_depth",
                "Commit-queue depth per shard",
                &[("shard", label.as_str())],
                depth,
            );
            sink.counter(
                "xvi_service_shard_commits_total",
                "Transactions committed per shard",
                &[("shard", label.as_str())],
                shard.commits.load(Ordering::Relaxed),
            );
            let handles: Vec<Arc<DocHandle>> = shard.catalog.read().values().cloned().collect();
            docs += handles.len() as u64;
            for handle in handles {
                let version = handle.current();
                for (kind, stats) in version.idx.tree_stats_by_kind() {
                    if let Some(agg) = by_kind.get_mut(&kind) {
                        agg.len += stats.len;
                        agg.pages += stats.pages;
                        agg.shared_pages += stats.shared_pages;
                        agg.pages_detached += stats.pages_detached;
                    } else {
                        by_kind.insert(kind, stats);
                    }
                }
            }
        }
        sink.gauge(
            "xvi_service_documents",
            "Documents registered in the catalog",
            &[],
            docs,
        );
        let mut kinds: Vec<_> = by_kind.into_iter().collect();
        kinds.sort_by(|a, b| a.0.cmp(&b.0));
        for (kind, s) in kinds {
            let labels = [("kind", kind.as_str())];
            sink.gauge(
                "xvi_btree_entries",
                "Entries stored per index kind (summed over documents)",
                &labels,
                s.len as u64,
            );
            sink.gauge(
                "xvi_btree_pages",
                "Arena pages per index kind",
                &labels,
                s.pages as u64,
            );
            sink.gauge(
                "xvi_btree_shared_pages",
                "Arena pages currently shared with other clones",
                &labels,
                s.shared_pages as u64,
            );
            sink.counter(
                "xvi_btree_pages_detached_total",
                "Cumulative COW page detaches per index kind",
                &labels,
                s.pages_detached,
            );
        }
    }));
}

impl std::fmt::Debug for IndexService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexService")
            .field("shards", &self.shards.len())
            .field("docs", &self.doc_count())
            .field("commits", &self.commit_count())
            .finish()
    }
}

impl IndexService {
    /// Creates an empty service. For [`Durability::Wal`] configs this
    /// delegates to [`IndexService::open`] (creating the directory and
    /// recovering any existing checkpoint + logs) and panics on I/O
    /// failure; call `open` directly to handle such failures.
    pub fn new(config: ServiceConfig) -> IndexService {
        IndexService::open(config).expect("opening the WAL-backed service failed")
    }

    fn build(config: ServiceConfig, wals: Vec<Option<ShardWal>>, obs: Arc<Obs>) -> IndexService {
        debug_assert_eq!(wals.len(), config.shards.max(1));
        let shards: Arc<Vec<Shard>> = Arc::new(wals.into_iter().map(Shard::new).collect());
        register_shard_collector(&obs, &shards);
        let metrics = ServiceMetrics::register(&obs);
        IndexService {
            shards,
            config,
            ckpt: Mutex::new(()),
            obs,
            metrics,
        }
    }

    /// The observability hub: the metrics registry every layer of this
    /// service reports into, and the request tracer / flight recorder.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Opens a service with recovery. For [`Durability::Ephemeral`]
    /// this is just an empty service. For [`Durability::Wal`] it
    /// restores the durable state from the log directory:
    ///
    /// 1. if a checkpoint (`catalog.xvi` + per-doc XML) exists, each
    ///    document is parsed and its indices built — and the
    ///    checkpoint's shard count, group limit and index config
    ///    **override** the passed config, since the logs are sharded by
    ///    the persisted shard count;
    /// 2. each shard's `wal<i>.log` is scanned, a torn final record
    ///    (crash mid-append) is truncated off, and every record newer
    ///    than the checkpoint's captured sequence is replayed.
    ///
    /// The result is byte-identical to a serial replay of the durable
    /// prefix of the commit history.
    pub fn open(config: ServiceConfig) -> io::Result<IndexService> {
        let obs = Obs::new();
        let Durability::Wal(dir) = config.durability.clone() else {
            let shards = config.shards.max(1);
            return Ok(IndexService::build(
                config,
                (0..shards).map(|_| None).collect(),
                obs,
            ));
        };
        std::fs::create_dir_all(&dir)?;
        let checkpoint = if dir.join("catalog.xvi").exists() {
            Some(crate::persist::read_checkpoint(&dir)?)
        } else {
            None
        };
        let (config, seqs, docs, commits) = match checkpoint {
            Some(cp) => (
                ServiceConfig {
                    shards: cp.shards,
                    max_group: cp.max_group,
                    index: cp.index,
                    durability: Durability::Wal(dir.clone()),
                    // Not persisted: an admission-control knob, not a
                    // property of the on-disk layout.
                    max_queue: config.max_queue,
                },
                cp.seqs,
                cp.docs,
                cp.commits,
            ),
            None => {
                let shards = config.shards.max(1);
                (config, vec![0; shards], Vec::new(), 0)
            }
        };
        let shard_count = config.shards.max(1);
        if seqs.len() != shard_count {
            return Err(crate::persist::bad(format!(
                "checkpoint has {} shard sequence numbers for {shard_count} shards",
                seqs.len()
            )));
        }
        let mut wals = Vec::with_capacity(shard_count);
        let mut logs = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            let (records, wal) = ShardWal::open(&dir, shard)?;
            wals.push(Some(wal));
            logs.push(records);
        }
        let service = IndexService::build(config, wals, obs);
        service.seed_commit_count(commits);
        for (id, version, doc, idx) in docs {
            service.install_version(id, doc, idx, version);
        }
        for (shard, records) in logs.into_iter().enumerate() {
            for (seq, record) in records {
                if seq > seqs[shard] {
                    service.replay_record(record)?;
                }
            }
        }
        Ok(service)
    }

    /// Applies one recovered WAL record directly to the catalog
    /// (without re-logging it — the record is already durable).
    fn replay_record(&self, record: WalRecord) -> io::Result<()> {
        match record {
            WalRecord::Insert { doc, xml } => {
                let parsed = Document::parse(&xml).map_err(|e| {
                    crate::persist::bad(format!("WAL document {doc:?} failed to parse: {e}"))
                })?;
                let idx = IndexManager::build(&parsed, self.config.index.clone());
                self.install_version(doc, parsed, idx, 0);
            }
            WalRecord::Remove { doc } => {
                self.shard_of(&doc).catalog.write().remove(&doc);
            }
            WalRecord::Commit {
                doc,
                committed,
                publish_version,
                writes,
            } => {
                let handle = self.handle(&doc).ok_or_else(|| {
                    crate::persist::bad(format!(
                        "WAL commit record targets unknown document {doc:?}"
                    ))
                })?;
                let mut published = handle.published.write();
                let version = Arc::get_mut(&mut published)
                    .expect("recovery is single-threaded: no snapshot pins this version");
                let writes = writes
                    .iter()
                    .map(|(n, v)| (NodeId::from_index(*n as usize), v.as_str()));
                version
                    .idx
                    .update_values(Arc::make_mut(&mut version.doc), writes)
                    .map_err(|e| {
                        crate::persist::bad(format!("WAL commit replay on {doc:?} failed: {e}"))
                    })?;
                version.version = publish_version;
                drop(published);
                self.shard_of(&doc)
                    .commits
                    .fetch_add(committed, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Seeds the restored commit total (the recovery/load entry
    /// point). Only the sum across shards is meaningful to callers, so
    /// the whole total lands on shard 0; records replayed afterwards
    /// add onto their own shards.
    pub(crate) fn seed_commit_count(&self, total: u64) {
        self.shards[0].commits.store(total, Ordering::Relaxed);
    }

    /// Serializes a whole checkpoint/save cycle; see the `ckpt` field.
    pub(crate) fn checkpoint_guard(&self) -> std::sync::MutexGuard<'_, ()> {
        self.ckpt.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Captures a consistent `(catalog snapshot, per-shard WAL
    /// sequence, commit total)` triple for checkpointing. Each shard's
    /// handles, sequence and commit counter are read under that
    /// shard's wal mutex — the same mutex the leader holds from record
    /// append through publish — so the captured documents reflect
    /// **exactly** the records with `seq <= seqs[shard]`: never a
    /// logged-but-unpublished batch, never a published-but-unlogged
    /// one. (For ephemeral services the sequences are all zero.)
    pub(crate) fn capture_for_checkpoint(&self) -> (ServiceSnapshot, Vec<u64>, u64) {
        let mut docs: Vec<(String, Arc<SharedVersion>)> = Vec::new();
        let mut seqs = Vec::with_capacity(self.shards.len());
        let mut commits = 0u64;
        for shard in self.shards.iter() {
            let wal_guard = shard
                .wal
                .as_ref()
                .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()));
            for handle in shard.catalog.read().values() {
                docs.push((handle.id.clone(), handle.current()));
            }
            seqs.push(wal_guard.as_ref().map_or(0, |w| w.seq));
            commits += shard.commits.load(Ordering::Relaxed);
        }
        docs.sort_by(|a, b| a.0.cmp(&b.0));
        (ServiceSnapshot { docs }, seqs, commits)
    }

    /// Checkpoints a [`Durability::Wal`] service: saves every document
    /// as XML plus the manifest into the WAL directory (via the same
    /// crash-safe writer as [`IndexService::save_catalog`]), then
    /// truncates each shard's log up to the captured sequence number.
    /// Recovery time after a checkpoint is proportional to the commits
    /// since it, not to history length.
    ///
    /// Whole checkpoints are serialized against each other (and
    /// against [`IndexService::save_catalog`]): without that, a slow
    /// checkpoint could overwrite the manifest with documents older than
    /// the log suffix a faster one already truncated, losing acked
    /// commits.
    ///
    /// Returns [`io::ErrorKind::Unsupported`] for ephemeral services.
    pub fn checkpoint(&self) -> io::Result<()> {
        let Durability::Wal(dir) = &self.config.durability else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "checkpoint requires a WAL-backed service (Durability::Wal)",
            ));
        };
        let _serialize = self.checkpoint_guard();
        let (snap, seqs, commits) = self.capture_for_checkpoint();
        crate::persist::save_snapshot_to(dir, &snap, &seqs, commits, self.config())?;
        for (shard, &seq) in self.shards.iter().zip(&seqs) {
            let mut wal = shard
                .wal
                .as_ref()
                .expect("WAL-backed service has a log per shard")
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            wal.truncate_through(seq)?;
        }
        Ok(())
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn shard_index(&self, doc_id: &str) -> usize {
        let mut h = DefaultHasher::new();
        doc_id.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn shard_of(&self, doc_id: &str) -> &Shard {
        &self.shards[self.shard_index(doc_id)]
    }

    fn handle(&self, doc_id: &str) -> Option<Arc<DocHandle>> {
        self.shard_of(doc_id).catalog.read().get(doc_id).cloned()
    }

    // ----- catalog ----------------------------------------------------------

    /// Builds indices for `doc` and registers it under `id`, replacing
    /// any previous document with that id.
    ///
    /// On a [`Durability::Wal`] service the registration is logged and
    /// fsynced before it becomes visible; this infallible wrapper
    /// panics if that fails — use
    /// [`IndexService::try_insert_document`] to handle log I/O errors.
    pub fn insert_document(&self, id: impl Into<String>, doc: Document) {
        self.try_insert_document(id, doc)
            .expect("WAL append/fsync failed while registering the document")
    }

    /// Fallible [`IndexService::insert_document`]: an `Err` means the
    /// WAL append or fsync failed (or the thread writing the log could
    /// not be started) and the document was **not** registered.
    ///
    /// On a [`Durability::Wal`] service the log record and the index
    /// are produced at the same time, under the shard's wal mutex. One
    /// scoped helper thread appends the record and fsyncs it. The
    /// record holds the text the document was parsed from
    /// ([`Document::source`]), and replay parses it into the same
    /// arena. Only a document written since its parse has no source;
    /// for that one the helper serializes the arena first. Meanwhile
    /// the calling thread runs the build's
    /// shred pass, hands the typed bulk loads (and the substring build,
    /// if configured) to the helper, and bulk-loads the string index.
    /// The helper runs the typed loads once the record is durable; if
    /// the append or fsync fails it drops them and the insert returns
    /// `Err`. The index is installed only once the record is durable.
    /// The wal mutex is therefore held for the longer of the two
    /// halves, not just for the log write. Splitting the build this
    /// way keeps two cores busy for the whole insert with no third
    /// thread. The typed trees the helper allocates land in its own
    /// malloc arena: perfbench `ingest` `peak_rss_mb` rose by a median
    /// 1.7% (0.4–2.3% over 10 pairs) when the typed loads moved there.
    pub fn try_insert_document(&self, id: impl Into<String>, doc: Document) -> io::Result<()> {
        let id = id.into();
        let shard = self.shard_of(&id);
        let Some(wal) = &shard.wal else {
            let idx = IndexManager::build(&doc, self.config.index.clone());
            self.install_version(id, doc, idx, 0);
            return Ok(());
        };
        // Lock order: wal → catalog. The wal mutex is held through the
        // install so a concurrent checkpoint capture sees the logged
        // record and the catalog entry together or not at all. The
        // guard itself cannot cross threads; the helper borrows the
        // log through it.
        let mut guard = wal.lock().unwrap_or_else(|e| e.into_inner());
        let log: &mut ShardWal = &mut guard;
        let (doc_ref, id_ref) = (&doc, &id);
        let idx = std::thread::scope(|s| {
            // One slot, so the caller's send never blocks, even when
            // the helper has already returned an error.
            let (loads_tx, loads_rx) = mpsc::sync_channel::<TypedLoads>(1);
            // A failed spawn has logged nothing: report it like a
            // failed append.
            let helper =
                std::thread::Builder::new().spawn_scoped(s, move || -> io::Result<_> {
                    match doc_ref.source() {
                        Some(xml) => log.append_insert(id_ref, xml)?,
                        None => {
                            log.append_insert(id_ref, &xvi_xml::serialize::to_string(doc_ref))?
                        }
                    };
                    log.sync()?;
                    // The sender is gone only if the caller panicked
                    // before handing the loads over.
                    let loads = loads_rx
                        .recv()
                        .map_err(|_| io::Error::other("index build abandoned"))?;
                    Ok(loads.finish(doc_ref))
                })?;
            let (mut idx, loads) = IndexManager::shred(&doc, self.config.index.clone());
            // A helper that failed has dropped the receiver; the loads
            // are then dropped here and the join reports its error.
            let _ = loads_tx.send(loads);
            idx.finish_string();
            helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                .map(|typed| {
                    idx.attach(typed);
                    idx
                })
        })?;
        self.install_version(id, doc, idx, 0);
        drop(guard);
        Ok(())
    }

    /// Registers a prebuilt `(document, index, version)` triple — the
    /// catalog loader's entry point, which must restore versions
    /// instead of resetting them. The installed document keeps no
    /// source ([`Document::source`]): nothing logs it again.
    pub(crate) fn install_version(
        &self,
        id: String,
        mut doc: Document,
        idx: IndexManager,
        version: u64,
    ) {
        doc.drop_source();
        let handle = Arc::new(DocHandle {
            id: id.clone(),
            published: RwLock::new(Arc::new(SharedVersion {
                doc: Arc::new(doc),
                idx,
                version,
            })),
        });
        self.shard_of(&id).catalog.write().insert(id, handle);
    }

    /// Removes a document, returning its final state (`None` if no
    /// document is registered under `id`). An `Err` means the WAL
    /// append or fsync failed and the document is still registered.
    pub fn remove_document(&self, id: &str) -> io::Result<Option<(Document, IndexManager)>> {
        let shard = self.shard_of(id);
        // Lock order: wal → catalog (see `Shard`).
        let mut wal_guard = shard
            .wal
            .as_ref()
            .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()));
        let mut catalog = shard.catalog.write();
        if !catalog.contains_key(id) {
            return Ok(None);
        }
        if let Some(wal) = wal_guard.as_mut() {
            wal.append_remove(id)?;
            wal.sync()?;
        }
        let handle = catalog.remove(id).expect("presence checked above");
        drop(catalog);
        drop(wal_guard);
        let v = Arc::unwrap_or_clone(handle.current());
        Ok(Some((Arc::unwrap_or_clone(v.doc), v.idx)))
    }

    /// Whether a document is registered under `id`.
    pub fn contains_document(&self, id: &str) -> bool {
        self.handle(id).is_some()
    }

    /// All registered document ids, sorted.
    pub fn doc_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.catalog.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    /// Number of hosted documents.
    pub fn doc_count(&self) -> usize {
        self.shards.iter().map(|s| s.catalog.read().len()).sum()
    }

    // ----- reads ------------------------------------------------------------

    /// Snapshot of one document's committed state. The returned value
    /// is immutable and queried without holding any lock.
    pub fn snapshot(&self, doc_id: &str) -> Option<DocSnapshot> {
        Some(DocSnapshot {
            inner: self.handle(doc_id)?.current(),
        })
    }

    /// Runs a closure over a lock-free snapshot of one document.
    pub fn read<R>(
        &self,
        doc_id: &str,
        f: impl FnOnce(&Document, &IndexManager) -> R,
    ) -> Option<R> {
        let snap = self.snapshot(doc_id)?;
        Some(f(snap.document(), snap.index()))
    }

    /// Snapshot of the whole catalog (every document's current
    /// version, id-sorted), for cross-document fan-out queries.
    pub fn snapshot_all(&self) -> ServiceSnapshot {
        let mut docs: Vec<Arc<DocHandle>> = self
            .shards
            .iter()
            .flat_map(|s| s.catalog.read().values().cloned().collect::<Vec<_>>())
            .collect();
        docs.sort_by(|a, b| a.id.cmp(&b.id));
        ServiceSnapshot {
            docs: docs
                .into_iter()
                .map(|h| (h.id.clone(), h.current()))
                .collect(),
        }
    }

    /// Evaluates one typed [`Lookup`] against a lock-free snapshot of
    /// `doc_id`'s committed state — the service-level twin of
    /// [`IndexManager::query`].
    ///
    /// Every call lands in the query counter and latency histogram;
    /// when request tracing is enabled
    /// (`service.obs().tracer.set_sample_rate(..)`), sampled calls
    /// additionally record per-stage timings (plan, probe,
    /// verify-walk) and are offered to the flight recorder. Traced or
    /// not, results are identical — the taps only observe.
    pub fn query(&self, doc_id: &str, lookup: &Lookup) -> QueryResult {
        let trace = self
            .obs
            .tracer
            .maybe_start("query", || format!("doc={doc_id} lookup={lookup:?}"));
        let out = self.query_traced(doc_id, lookup, trace.as_ref());
        if let Some(t) = trace {
            self.obs.tracer.finish(t);
        }
        out
    }

    /// [`IndexService::query`] under an externally owned [`Trace`]
    /// (the serve frontend threads its request trace through here; it
    /// finishes the trace itself once the response is complete). Also
    /// the shared implementation of the untraced path — `trace: None`
    /// costs two clock reads for the latency histogram and nothing
    /// else.
    pub fn query_traced(
        &self,
        doc_id: &str,
        lookup: &Lookup,
        trace: Option<&Trace>,
    ) -> QueryResult {
        let clock = self.obs.tracer.clock();
        let t0 = clock.now_ns();
        let out = self.query_inner(doc_id, lookup, trace);
        self.metrics.queries.inc();
        self.metrics
            .query_latency
            .record_value(clock.now_ns().saturating_sub(t0));
        out
    }

    fn query_inner(&self, doc_id: &str, lookup: &Lookup, trace: Option<&Trace>) -> QueryResult {
        let snap = self
            .snapshot(doc_id)
            .ok_or_else(|| IndexError::UnknownDocument(doc_id.to_string()))?;
        match lookup {
            Lookup::XPath(query) => {
                // Plan at this level so the plan shape, the
                // `--explain`-style rendering, and the
                // estimate-vs-actual drift all land in the
                // observability layer; the chosen plan is exactly what
                // `IndexManager::query` would pick, so results are
                // identical to the untraced path.
                let tp = trace.map(|t| t.now_ns());
                let plan = QueryEngine::plan(snap.index(), query);
                if let (Some(t), Some(tp)) = (trace, tp) {
                    t.record_stage(Stage::Plan, tp);
                    t.annotate(&format!("plan: {plan}"));
                }
                let estimate = match &plan {
                    Plan::Index(p) => {
                        self.metrics.plan_index.inc();
                        Some(p.estimate.estimate)
                    }
                    Plan::Intersect(a, b) => {
                        self.metrics.plan_intersect.inc();
                        Some(a.estimate.estimate + b.estimate.estimate)
                    }
                    Plan::Scan => {
                        self.metrics.plan_scan.inc();
                        None
                    }
                };
                let mut probed = estimate.map(|_| 0usize);
                let nodes = QueryEngine::evaluate_with_plan_probed(
                    snap.document(),
                    snap.index(),
                    query,
                    &plan,
                    trace,
                    &mut probed,
                );
                if let (Some(est), Some(actual)) = (estimate, probed) {
                    let denom = est.max(actual).max(1) as u64;
                    let drift = est.abs_diff(actual) as u64 * 1000 / denom;
                    self.metrics.estimate_drift.record_value(drift);
                    if let Some(t) = trace {
                        t.annotate(&format!("probe estimate={est} actual={actual}"));
                    }
                }
                Ok(nodes)
            }
            _ => {
                let tp = trace.map(|t| t.now_ns());
                let out = snap.query(lookup);
                if let (Some(t), Some(tp)) = (trace, tp) {
                    t.record_stage(Stage::Probe, tp);
                }
                out
            }
        }
    }

    /// Estimates the candidate cardinality of `lookup` against
    /// `doc_id`'s committed state — the service-level twin of
    /// [`IndexManager::estimate`]: **exact** for tree-backed lookups
    /// (answered from the B+trees' monoid summaries), bounded for
    /// substring probes.
    pub fn estimate(
        &self,
        doc_id: &str,
        lookup: &Lookup,
    ) -> Result<CardinalityEstimate, IndexError> {
        self.snapshot(doc_id)
            .ok_or_else(|| IndexError::UnknownDocument(doc_id.to_string()))?
            .estimate(lookup)
    }

    /// Number of transactions committed into `doc_id`'s current
    /// version.
    pub fn version_of(&self, doc_id: &str) -> Option<u64> {
        Some(self.handle(doc_id)?.current().version)
    }

    /// Total committed transactions across all documents. On a
    /// [`Durability::Wal`] service the total survives restarts: the
    /// checkpoint manifest persists it and recovery seeds the counter
    /// from it before replaying post-checkpoint records.
    pub fn commit_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.commits.load(Ordering::Relaxed))
            .sum()
    }

    // ----- commits ----------------------------------------------------------

    /// Starts an empty transaction (a buffered write batch; see
    /// [`Transaction`]). Nothing is locked by an open transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::default()
    }

    /// Enqueues a transaction on `doc_id`'s shard **without blocking**
    /// and returns a [`CommitTicket`] for the in-flight commit. The
    /// batch is applied by a later group-commit round; reap the
    /// outcome with [`CommitTicket::wait`] or [`CommitTicket::try_poll`],
    /// in any order relative to other tickets.
    ///
    /// A transaction either applies completely or not at all: if any
    /// buffered write targets a dead or non-value node, the whole
    /// transaction is rejected and the document is untouched. An empty
    /// transaction (or one against an unregistered document) returns
    /// an already-completed ticket.
    pub fn submit(&self, doc_id: &str, txn: Transaction) -> CommitTicket<'_> {
        self.enqueue(doc_id, txn, usize::MAX, None)
            .expect("unbounded submissions are never rejected")
    }

    /// Bounded [`IndexService::submit`]: the admission-control fast
    /// path. If the target shard already has
    /// [`ServiceConfig::max_queue`] transactions waiting, the
    /// submission is rejected **without enqueueing anything** and
    /// without blocking: the caller gets a typed
    /// [`IndexError::Overloaded`] carrying a suggested backoff derived
    /// from the queue depth, and the service's state is untouched — no
    /// unbounded queue growth, no silently dropped commit.
    ///
    /// Empty transactions and transactions against unknown documents
    /// behave exactly like [`IndexService::submit`] (an
    /// already-completed ticket), since they occupy no queue space.
    ///
    /// With `trace: None` the tracer's sampler decides whether the
    /// service traces the commit itself. A caller-owned [`Trace`] makes
    /// the group-commit leader record the queue wait and attribute the
    /// round's WAL-append / fsync / publish timings to it, but the
    /// **caller** finishes it (after the ticket resolves), so the
    /// trace's total spans the caller's whole request, not just the
    /// pipeline's part.
    ///
    /// ```
    /// use xvi_index::{Document, IndexError, IndexService, ServiceConfig};
    ///
    /// let service = IndexService::new(
    ///     ServiceConfig::with_shards(1).with_max_queue(2));
    /// service.insert_document("crew", Document::parse(
    ///     "<person><name>Arthur</name></person>").unwrap());
    /// let node = service.read("crew", |doc, _| {
    ///     doc.descendants(doc.document_node())
    ///         .find(|&n| doc.direct_value(n).is_some()).unwrap()
    /// }).unwrap();
    ///
    /// let submit = |v: &str| {
    ///     let mut txn = service.begin();
    ///     txn.set_value(node, v);
    ///     service.try_submit("crew", txn, None)
    /// };
    /// // Nothing drives the pipeline yet, so the queue fills.
    /// let t1 = submit("a").unwrap();
    /// let t2 = submit("b").unwrap();
    /// assert!(matches!(
    ///     submit("c").unwrap_err(),
    ///     IndexError::Overloaded { .. }));
    /// // Draining the queue makes room again.
    /// t2.wait().unwrap();
    /// t1.wait().unwrap();
    /// assert!(submit("c").is_ok());
    /// ```
    pub fn try_submit(
        &self,
        doc_id: &str,
        txn: Transaction,
        trace: Option<Trace>,
    ) -> Result<CommitTicket<'_>, IndexError> {
        self.enqueue(doc_id, txn, self.config.max_queue.max(1), trace)
    }

    /// Shared enqueue path of [`IndexService::submit`] (unbounded) and
    /// [`IndexService::try_submit`] (bounded by `max_queue`). With no
    /// external trace, the tracer's sampler decides per submission
    /// whether to start a service-owned one.
    fn enqueue(
        &self,
        doc_id: &str,
        txn: Transaction,
        max_queue: usize,
        trace: Option<Trace>,
    ) -> Result<CommitTicket<'_>, IndexError> {
        let Some(handle) = self.handle(doc_id) else {
            return Ok(CommitTicket {
                service: self,
                shard: None,
                slot: CommitSlot::completed(Err(IndexError::UnknownDocument(doc_id.to_string()))),
            });
        };
        if txn.writes.is_empty() {
            let receipt = CommitReceipt {
                version: handle.current().version,
                applied: 0,
            };
            return Ok(CommitTicket {
                service: self,
                shard: None,
                slot: CommitSlot::completed(Ok(receipt)),
            });
        }
        let shard_idx = self.shard_index(doc_id);
        let slot = Arc::new(CommitSlot::new());
        let mut st = self.shards[shard_idx]
            .pipeline
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if st.queue.len() >= max_queue {
            let depth = st.queue.len();
            drop(st);
            return Err(IndexError::Overloaded {
                shard: shard_idx,
                retry_after: retry_after_for_depth(depth),
            });
        }
        let trace = match trace {
            Some(t) => Some(PendingTrace {
                enqueue_ns: t.now_ns(),
                trace: t,
                owned: false,
            }),
            None => self
                .obs
                .tracer
                .maybe_start("commit", || {
                    format!("doc={doc_id} writes={}", txn.writes.len())
                })
                .map(|t| PendingTrace {
                    enqueue_ns: t.now_ns(),
                    trace: t,
                    owned: true,
                }),
        };
        st.queue.push_back(Pending {
            handle,
            writes: txn.writes,
            slot: Arc::clone(&slot),
            trace,
        });
        drop(st);
        Ok(CommitTicket {
            service: self,
            shard: Some(shard_idx),
            slot,
        })
    }

    /// Commit-queue depth of the shard owning `doc_id` — what an
    /// admission controller compares against
    /// [`ServiceConfig::max_queue`].
    pub fn queue_depth(&self, doc_id: &str) -> usize {
        self.shards[self.shard_index(doc_id)]
            .pipeline
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Commit-queue depth of every shard, index-aligned with the
    /// shard layout (for observability snapshots).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                s.pipeline
                    .state
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .queue
                    .len()
            })
            .collect()
    }

    /// Commits a transaction against `doc_id` through the shard's
    /// group-commit pipeline, blocking until the batch is durably
    /// published: exactly [`IndexService::submit`] followed by
    /// [`CommitTicket::wait`].
    pub fn commit(&self, doc_id: &str, txn: Transaction) -> Result<CommitReceipt, IndexError> {
        self.submit(doc_id, txn).wait()
    }

    /// Claims shard leadership: `true` if the caller must now drain
    /// the queue via [`IndexService::run_leader`], `false` if the
    /// queue is empty or another leader is already active.
    fn try_lead(&self, shard: &Shard) -> bool {
        let mut st = shard
            .pipeline
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if st.leader_active || st.queue.is_empty() {
            false
        } else {
            st.leader_active = true;
            true
        }
    }

    /// Drains the shard's queue in group rounds until it is empty,
    /// then steps down. Called by the waiter that found the pipeline
    /// idle; all other waiters merely block on their slot.
    ///
    /// If the leader unwinds (a panic inside a round), the drop guard
    /// steps it down and fails everything still queued, so no
    /// committer blocks forever behind a dead leader and the next
    /// enqueuer can take over.
    fn run_leader(&self, shard: &Shard) {
        struct StepDown<'a> {
            pipeline: &'a Pipeline,
            clean_exit: bool,
        }
        impl Drop for StepDown<'_> {
            fn drop(&mut self) {
                if self.clean_exit {
                    return;
                }
                let mut st = self
                    .pipeline
                    .state
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                st.leader_active = false;
                for p in st.queue.drain(..) {
                    p.slot.fill(Err(IndexError::CommitPipelinePoisoned));
                }
            }
        }

        let mut guard = StepDown {
            pipeline: &shard.pipeline,
            clean_exit: false,
        };
        let max_group = self.config.max_group.max(1);
        loop {
            let round: Vec<Pending> = {
                let mut st = shard
                    .pipeline
                    .state
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if st.queue.is_empty() {
                    st.leader_active = false;
                    guard.clean_exit = true;
                    return;
                }
                let n = st.queue.len().min(max_group);
                st.queue.drain(..n).collect()
            };
            self.apply_group(shard, round);
        }
    }

    /// Applies one group round: coalesces the batches per document,
    /// makes each coalesced batch durable (one WAL record + one fsync
    /// per batch, when a log is configured), repairs each affected
    /// document's ancestors once, publishes the new versions, and
    /// wakes every waiting committer.
    fn apply_group(&self, shard: &Shard, round: Vec<Pending>) {
        // If this round unwinds partway (a panic inside the apply),
        // fail every slot that was not yet filled so its committer
        // wakes up instead of blocking forever. `fill` is idempotent,
        // so slots completed before the panic keep their result.
        struct FailUnfilled {
            slots: Vec<Arc<CommitSlot>>,
        }
        impl Drop for FailUnfilled {
            fn drop(&mut self) {
                for slot in &self.slots {
                    slot.fill(Err(IndexError::CommitPipelinePoisoned));
                }
            }
        }
        let _round_guard = FailUnfilled {
            slots: round.iter().map(|p| Arc::clone(&p.slot)).collect(),
        };

        // Group by document, preserving enqueue order within each.
        let mut order: Vec<Arc<DocHandle>> = Vec::new();
        let mut by_doc: HashMap<String, Vec<Pending>> = HashMap::new();
        for p in round {
            let entry = by_doc.entry(p.handle.id.clone()).or_default();
            if entry.is_empty() {
                order.push(Arc::clone(&p.handle));
            }
            entry.push(p);
        }

        let clock = self.obs.tracer.clock();
        for handle in order {
            let group = by_doc.remove(&handle.id).expect("grouped above");
            let base = handle.current();
            let drain_ns = clock.now_ns();

            // Validate each transaction against the base version so a
            // bad batch is rejected wholesale instead of applying
            // halfway; surviving batches are coalesced into one
            // `update_values` pass (writes in enqueue order, so a
            // later transaction's write to the same node wins — the
            // serial-replay outcome).
            let mut results: Vec<(Arc<CommitSlot>, Result<CommitReceipt, IndexError>)> = Vec::new();
            let mut traces: Vec<PendingTrace> = Vec::new();
            let mut coalesced: Vec<(NodeId, String)> = Vec::new();
            let mut committed = 0u64;
            for p in group {
                if let Some(pt) = p.trace {
                    pt.trace.record_stage_dur(
                        Stage::QueueWait,
                        pt.enqueue_ns,
                        drain_ns.saturating_sub(pt.enqueue_ns),
                    );
                    traces.push(pt);
                }
                match validate(&base.doc, &p.writes) {
                    Ok(()) => {
                        let n = p.writes.len();
                        coalesced.extend(p.writes);
                        committed += 1;
                        results.push((
                            p.slot,
                            Ok(CommitReceipt {
                                // All transactions of this round become
                                // visible in the same publish; its version
                                // is patched in below once known.
                                version: 0,
                                applied: n,
                            }),
                        ));
                    }
                    Err(e) => results.push((p.slot, Err(e))),
                }
            }
            let publish_version = base.version + committed;
            // Release the leader's extra reference before the
            // uniqueness probe below.
            drop(base);

            if !coalesced.is_empty() {
                // Lock order: wal → catalog → published (see `Shard`).
                // The wal mutex stays held from the append through the
                // publish, so a checkpoint capture can never observe a
                // logged-but-unpublished (or published-but-unlogged)
                // batch.
                let mut wal_guard = shard
                    .wal
                    .as_ref()
                    .map(|w| w.lock().unwrap_or_else(|e| e.into_inner()));
                // Apply under the catalog read lock, after checking
                // the handle is still the catalog's entry for this id:
                // `insert_document` / `remove_document` take the
                // catalog *write* lock, so a concurrent replacement or
                // removal cannot orphan this apply — the commit either
                // lands in the live document or fails loudly.
                let catalog = shard.catalog.read();
                let still_current = catalog
                    .get(&handle.id)
                    .is_some_and(|h| Arc::ptr_eq(h, &handle));
                if still_current {
                    // Durability first: the coalesced batch goes to the
                    // shard's log as ONE framed record with ONE fsync
                    // before any reader can observe its effects — the
                    // durable cost of the round is O(batch delta). On
                    // failure nothing publishes: an unlogged commit
                    // must never become visible, so every transaction
                    // of the batch reports `Durability` instead.
                    let durable = match wal_guard.as_mut() {
                        Some(wal) => {
                            let t0 = clock.now_ns();
                            let appended = wal.append_commit(
                                &handle.id,
                                committed,
                                publish_version,
                                &coalesced,
                            );
                            let t1 = clock.now_ns();
                            self.metrics.wal_append.record_value(t1.saturating_sub(t0));
                            let synced = appended.and_then(|_| wal.sync());
                            let t2 = clock.now_ns();
                            self.metrics.wal_fsync.record_value(t2.saturating_sub(t1));
                            // One shared append + one fsync cover the
                            // whole batch; every trace in it carries
                            // the same timings.
                            for pt in &traces {
                                pt.trace.record_stage_dur(
                                    Stage::WalAppend,
                                    t0,
                                    t1.saturating_sub(t0),
                                );
                                pt.trace
                                    .record_stage_dur(Stage::Fsync, t1, t2.saturating_sub(t1));
                            }
                            synced
                        }
                        None => Ok(()),
                    };
                    if let Err(e) = durable {
                        drop(catalog);
                        drop(wal_guard);
                        for (_, r) in results.iter_mut() {
                            if r.is_ok() {
                                *r = Err(IndexError::Durability(e.to_string()));
                            }
                        }
                        for (slot, r) in results {
                            slot.fill(r);
                        }
                        for pt in traces {
                            if pt.owned {
                                self.obs.tracer.finish(pt.trace);
                            }
                        }
                        continue;
                    }
                    let publish_t0 = clock.now_ns();
                    let mut published = handle.published.write();
                    // No snapshot outstanding: update in place at the
                    // paper's O(writes + ancestors) cost. Otherwise
                    // copy-on-write: the clone is O(pages) pointer
                    // bumps, and `update_values` detaches only the
                    // pages the batch touches, so pinned snapshots stay
                    // immutable and the publish costs O(touched set).
                    let cow = Arc::get_mut(&mut published).is_none();
                    let version = Arc::make_mut(&mut published);
                    let before = version.idx.pages_detached();
                    version
                        .idx
                        .update_values(
                            Arc::make_mut(&mut version.doc),
                            coalesced.iter().map(|(n, v)| (*n, v.as_str())),
                        )
                        .expect("writes were validated against this version");
                    version.version += committed;
                    let pages_detached = version.idx.pages_detached() - before;
                    drop(published);
                    drop(catalog);
                    // Still under the wal mutex: the count stays
                    // exactly consistent with the log sequence a
                    // concurrent checkpoint capture would read.
                    shard.commits.fetch_add(committed, Ordering::Relaxed);
                    let publish_dur = clock.now_ns().saturating_sub(publish_t0);
                    self.metrics.publish.record_value(publish_dur);
                    if cow {
                        self.metrics.publish_cow.inc();
                    } else {
                        self.metrics.publish_inplace.inc();
                    }
                    self.metrics.cow_pages_detached.add(pages_detached);
                    self.metrics.commits.add(committed);
                    self.metrics.batches.inc();
                    self.metrics.batch_size.record_value(committed);
                    for pt in &traces {
                        pt.trace
                            .record_stage_dur(Stage::Publish, publish_t0, publish_dur);
                        pt.trace.annotate(&format!(
                            "batch: txns={committed} writes={} publish={} pages_detached={pages_detached}",
                            coalesced.len(),
                            if cow { "cow" } else { "inplace" },
                        ));
                    }
                    for (_, r) in results.iter_mut() {
                        if let Ok(receipt) = r {
                            receipt.version = publish_version;
                        }
                    }
                } else {
                    drop(catalog);
                    for (_, r) in results.iter_mut() {
                        if r.is_ok() {
                            *r = Err(IndexError::DocumentReplaced(handle.id.clone()));
                        }
                    }
                }
            }

            // Wake the committers only after the publish, so a
            // returned `commit` is visible to every later snapshot.
            for (slot, r) in results {
                slot.fill(r);
            }
            // Service-owned traces end here (the commit is published
            // and acknowledged); caller-owned ones stay open until
            // the caller's request completes.
            for pt in traces {
                if pt.owned {
                    self.obs.tracer.finish(pt.trace);
                }
            }
        }
    }
}

/// Backoff suggestion for an [`IndexError::Overloaded`] rejection:
/// proportional to the rejected-at queue depth (a leader drains and
/// publishes a queued transaction in roughly tens of microseconds),
/// clamped so callers neither hot-spin on a barely-full queue nor
/// stall for seconds on a deep one.
fn retry_after_for_depth(depth: usize) -> std::time::Duration {
    const PER_QUEUED_US: u64 = 20;
    std::time::Duration::from_micros((depth as u64 * PER_QUEUED_US).clamp(100, 50_000))
}

/// Pre-checks a write batch against a document: every target must be a
/// live text or attribute node (the same conditions
/// [`IndexManager::update_values`] enforces, hoisted before any state
/// is touched).
fn validate(doc: &Document, writes: &[(NodeId, String)]) -> Result<(), IndexError> {
    for &(node, _) in writes {
        if !doc.is_live(node) {
            return Err(IndexError::DeadNode(node));
        }
        match doc.kind(node) {
            NodeKind::Text(_) | NodeKind::Attribute { .. } => {}
            _ => return Err(IndexError::NotAValueNode(node)),
        }
    }
    Ok(())
}

/// An immutable snapshot of one document's committed state.
///
/// Cheap to clone (an [`Arc`] bump); queries run without any lock and
/// are unaffected by concurrent commits.
#[derive(Debug, Clone)]
pub struct DocSnapshot {
    inner: Arc<SharedVersion>,
}

impl DocSnapshot {
    /// The snapshotted document.
    pub fn document(&self) -> &Document {
        &self.inner.doc
    }

    /// The snapshotted indices.
    pub fn index(&self) -> &IndexManager {
        &self.inner.idx
    }

    /// Number of transactions committed into this version.
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// Evaluates one typed [`Lookup`] against this immutable version
    /// (no lock held, unaffected by concurrent commits).
    pub fn query(&self, lookup: &Lookup) -> QueryResult {
        self.inner.idx.query(&self.inner.doc, lookup)
    }

    /// Estimates the candidate cardinality of `lookup` against this
    /// version (see [`IndexManager::estimate`]): exact for tree-backed
    /// lookups, bounded for substring probes. Because the version is
    /// immutable, the answer cannot drift under concurrent commits.
    pub fn estimate(&self, lookup: &Lookup) -> Result<CardinalityEstimate, IndexError> {
        self.inner.idx.estimate(lookup)
    }
}

/// A catalog-wide snapshot supporting fan-out lookups across every
/// hosted document (id-sorted, deterministic result order).
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    docs: Vec<(String, Arc<SharedVersion>)>,
}

impl ServiceSnapshot {
    /// Number of documents in the snapshot.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Iterates over `(id, snapshot)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, DocSnapshot)> + '_ {
        self.docs.iter().map(|(id, v)| {
            (
                id.as_str(),
                DocSnapshot {
                    inner: Arc::clone(v),
                },
            )
        })
    }

    /// Evaluates one typed [`Lookup`] fanned out across every document
    /// in the snapshot; returns `(doc id, node)` hits in id order (ids
    /// borrowed from the snapshot — no per-hit allocation; call
    /// `to_owned` on an id to keep it as a [`DocId`]).
    ///
    /// Documents whose configuration lacks the index family a lookup
    /// needs are skipped rather than failing the whole fan-out (e.g. a
    /// [`Lookup::Contains`] over a catalog without substring indices
    /// returns no hits for those documents) — so every lookup flavor,
    /// including typed-range, typed-eq and wildcard, is available
    /// across documents.
    pub fn query(&self, lookup: &Lookup) -> Vec<(&str, NodeId)> {
        self.docs
            .iter()
            .flat_map(|(id, v)| {
                v.idx
                    .query(&v.doc, lookup)
                    .unwrap_or_default()
                    .into_iter()
                    .map(move |n| (id.as_str(), n))
            })
            .collect()
    }

    /// Estimates the fan-out cardinality of `lookup` across every
    /// document in the snapshot: the component-wise sum of each
    /// document's [`IndexManager::estimate`]. Documents whose
    /// configuration lacks the needed index family contribute nothing,
    /// mirroring [`ServiceSnapshot::query`]'s skip semantics.
    pub fn estimate(&self, lookup: &Lookup) -> CardinalityEstimate {
        self.docs
            .iter()
            .filter_map(|(_, v)| v.idx.estimate(lookup).ok())
            .fold(CardinalityEstimate::empty(), CardinalityEstimate::sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use xvi_hash::hash_str;

    const DOC_A: &str = "<person><name>Arthur</name><age>42</age></person>";
    const DOC_B: &str = "<person><name>Ford</name><age>200</age></person>";

    fn text_node(doc: &Document, content: &str) -> NodeId {
        doc.descendants(doc.document_node())
            .find(|&n| matches!(doc.kind(n), NodeKind::Text(t) if t == content))
            .unwrap()
    }

    fn service_with_two_docs() -> IndexService {
        let service = IndexService::new(ServiceConfig::with_shards(4));
        service.insert_document("a", Document::parse(DOC_A).unwrap());
        service.insert_document("b", Document::parse(DOC_B).unwrap());
        service
    }

    #[test]
    fn catalog_round_trip() {
        let service = service_with_two_docs();
        assert_eq!(service.doc_count(), 2);
        assert_eq!(service.doc_ids(), vec!["a", "b"]);
        assert!(service.contains_document("a"));
        assert!(!service.contains_document("c"));
        let (doc, idx) = service.remove_document("b").unwrap().unwrap();
        assert_eq!(idx.query(&doc, &Lookup::equi("Ford")).unwrap().len(), 2);
        assert_eq!(service.doc_count(), 1);
        assert!(service.remove_document("b").unwrap().is_none());
    }

    #[test]
    fn commit_against_missing_doc_errors() {
        let service = service_with_two_docs();
        let txn = service.begin();
        let err = service.commit("nope", txn).unwrap_err();
        assert!(matches!(err, IndexError::UnknownDocument(id) if id == "nope"));
    }

    #[test]
    fn empty_commit_is_free() {
        let service = service_with_two_docs();
        assert_eq!(service.commit("a", service.begin()).unwrap().applied, 0);
        assert_eq!(service.commit_count(), 0);
        assert_eq!(service.version_of("a"), Some(0));
    }

    #[test]
    fn commit_updates_one_doc_only() {
        let service = service_with_two_docs();
        let node = service
            .read("a", |doc, _| text_node(doc, "Arthur"))
            .unwrap();
        let mut txn = service.begin();
        txn.set_value(node, "Tricia");
        assert_eq!(service.commit("a", txn).unwrap().applied, 1);
        assert_eq!(service.version_of("a"), Some(1));
        assert_eq!(service.version_of("b"), Some(0));
        service
            .read("a", |doc, idx| {
                assert_eq!(idx.query(doc, &Lookup::equi("Tricia")).unwrap().len(), 2);
                idx.verify_against(doc).unwrap();
            })
            .unwrap();
    }

    #[test]
    fn snapshots_are_immutable_under_commits() {
        let service = service_with_two_docs();
        let before = service.snapshot("a").unwrap();
        let node = service
            .read("a", |doc, _| text_node(doc, "Arthur"))
            .unwrap();
        let mut txn = service.begin();
        txn.set_value(node, "Zaphod");
        service.commit("a", txn).unwrap();
        // The old snapshot still sees the old value...
        assert_eq!(
            before
                .index()
                .query(before.document(), &Lookup::equi("Arthur"))
                .unwrap()
                .len(),
            2
        );
        assert_eq!(before.version(), 0);
        // ...while a fresh one sees the new state.
        let after = service.snapshot("a").unwrap();
        assert!(after
            .index()
            .query(after.document(), &Lookup::equi("Arthur"))
            .unwrap()
            .is_empty());
        assert_eq!(after.version(), 1);
    }

    #[test]
    fn atomic_rejection_of_bad_transactions() {
        let service = service_with_two_docs();
        let (good, root) = service
            .read("a", |doc, _| {
                (text_node(doc, "Arthur"), doc.root_element().unwrap())
            })
            .unwrap();
        let mut txn = service.begin();
        txn.set_value(good, "Marvin");
        txn.set_value(root, "not a value node");
        let err = service.commit("a", txn).unwrap_err();
        assert!(matches!(err, IndexError::NotAValueNode(_)));
        // The good write must not have leaked through.
        service
            .read("a", |doc, idx| {
                assert_eq!(idx.query(doc, &Lookup::equi("Arthur")).unwrap().len(), 2);
                idx.verify_against(doc).unwrap();
            })
            .unwrap();
        assert_eq!(service.commit_count(), 0);
    }

    #[test]
    fn fan_out_lookups_across_docs() {
        let service = service_with_two_docs();
        let snap = service.snapshot_all();
        assert_eq!(snap.doc_count(), 2);
        let ages = snap.query(&Lookup::range_f64(40.0..=200.0));
        assert!(ages.iter().any(|(id, _)| *id == "a"));
        assert!(ages.iter().any(|(id, _)| *id == "b"));
        let hits = snap.query(&Lookup::equi("Ford"));
        assert!(hits.iter().all(|(id, _)| *id == "b"));
        assert_eq!(hits.len(), 2);
        // No substring index configured: empty, not a panic.
        assert!(snap.query(&Lookup::contains("rthu")).is_empty());
    }

    #[test]
    fn substring_fan_out_when_configured() {
        let config =
            ServiceConfig::with_shards(2).with_index(IndexConfig::default().with_substring_index());
        let service = IndexService::new(config);
        service.insert_document("a", Document::parse(DOC_A).unwrap());
        let snap = service.snapshot_all();
        assert_eq!(snap.query(&Lookup::contains("rthu")).len(), 1);
    }

    /// Many threads, many documents, one service: the final state of
    /// every document must be byte-identical to a serial replay, and
    /// every commit must be counted exactly once.
    #[test]
    fn concurrent_commits_across_shards_converge() {
        let service = Arc::new(IndexService::new(ServiceConfig {
            shards: 4,
            max_group: 8,
            index: IndexConfig::default(),
            durability: Durability::Ephemeral,
            ..ServiceConfig::default()
        }));
        let n_docs = 6;
        for i in 0..n_docs {
            service.insert_document(format!("doc{i}"), Document::parse(DOC_A).unwrap());
        }
        // Node ids are stable across versions; resolve the target in
        // each document once, before any writer changes its value.
        let targets: Vec<NodeId> = (0..n_docs)
            .map(|i| {
                service
                    .read(&format!("doc{i}"), |doc, _| text_node(doc, "42"))
                    .unwrap()
            })
            .collect();
        let threads = 8;
        let commits_per_thread = 10;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                let targets = targets.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for c in 0..commits_per_thread {
                        let d = (t + c) % n_docs;
                        let id = format!("doc{d}");
                        let mut txn = service.begin();
                        // All writers converge on the same final value
                        // per node, so the final state is deterministic
                        // regardless of interleaving.
                        txn.set_value(targets[d], "54");
                        service.commit(&id, txn).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            service.commit_count(),
            (threads * commits_per_thread) as u64
        );
        let expected = hash_str("Arthur54");
        for i in 0..n_docs {
            service
                .read(&format!("doc{i}"), |doc, idx| {
                    let root = doc.root_element().unwrap();
                    assert_eq!(idx.hash_of(root), Some(expected));
                    idx.verify_against(doc).unwrap();
                })
                .unwrap();
        }
    }

    #[test]
    fn submit_returns_immediately_and_wait_reaps() {
        let service = service_with_two_docs();
        let node = service
            .read("a", |doc, _| text_node(doc, "Arthur"))
            .unwrap();
        let mut txn = service.begin();
        txn.set_value(node, "Tricia");
        let ticket = service.submit("a", txn);
        // Nothing has driven the pipeline yet: the commit is queued,
        // not published, and try_poll does not block or drive it.
        assert!(!ticket.is_complete());
        assert!(ticket.try_poll().is_none());
        assert_eq!(service.version_of("a"), Some(0));
        // wait() takes over leadership and drains the queue.
        let receipt = ticket.wait().unwrap();
        assert_eq!(
            receipt,
            CommitReceipt {
                version: 1,
                applied: 1
            }
        );
        assert_eq!(service.version_of("a"), Some(1));
    }

    #[test]
    fn tickets_reap_out_of_order() {
        let service = service_with_two_docs();
        let node = service
            .read("a", |doc, _| text_node(doc, "Arthur"))
            .unwrap();
        let tickets: Vec<CommitTicket> = (0..8)
            .map(|i| {
                let mut txn = service.begin();
                txn.set_value(node, format!("v{i}"));
                service.submit("a", txn)
            })
            .collect();
        // Waiting on the *last* ticket drains the whole queue; the
        // earlier tickets complete as a side effect and their receipts
        // stay available in any reap order.
        let mut tickets = tickets;
        let last = tickets.pop().unwrap();
        let receipt = last.wait().unwrap();
        assert_eq!(receipt.version, 8);
        for t in tickets.iter() {
            let r = t.try_poll().expect("drained by the last wait").unwrap();
            assert_eq!(r.applied, 1);
            assert_eq!(r.version, 8, "one group round published all eight");
        }
        for t in tickets.into_iter().rev() {
            t.wait().unwrap();
        }
        assert_eq!(service.commit_count(), 8);
        // Last submit wins on the shared node.
        service
            .read("a", |doc, idx| {
                assert_eq!(idx.query(doc, &Lookup::equi("v7")).unwrap().len(), 2);
                idx.verify_against(doc).unwrap();
            })
            .unwrap();
    }

    #[test]
    fn submit_against_missing_doc_returns_completed_error_ticket() {
        let service = service_with_two_docs();
        let ticket = service.submit("nope", service.begin());
        // Born completed: the outcome is there at once, and repeatedly.
        assert!(ticket.is_complete());
        for _ in 0..2 {
            assert!(matches!(
                ticket.try_poll(),
                Some(Err(IndexError::UnknownDocument(_)))
            ));
        }
        assert!(matches!(
            ticket.wait().unwrap_err(),
            IndexError::UnknownDocument(id) if id == "nope"
        ));
    }

    #[test]
    fn empty_submit_completes_with_current_version() {
        let service = service_with_two_docs();
        let node = service
            .read("a", |doc, _| text_node(doc, "Arthur"))
            .unwrap();
        let mut txn = service.begin();
        txn.set_value(node, "Eddie");
        service.commit("a", txn).unwrap();
        let receipt = service.submit("a", service.begin()).wait().unwrap();
        assert_eq!(
            receipt,
            CommitReceipt {
                version: 1,
                applied: 0
            }
        );
        assert_eq!(service.commit_count(), 1);
    }

    #[test]
    fn rejected_submit_reports_through_its_ticket() {
        let service = service_with_two_docs();
        let root = service
            .read("a", |doc, _| doc.root_element().unwrap())
            .unwrap();
        let mut txn = service.begin();
        txn.set_value(root, "not a value node");
        let ticket = service.submit("a", txn);
        assert!(matches!(
            ticket.wait().unwrap_err(),
            IndexError::NotAValueNode(_)
        ));
        assert_eq!(service.commit_count(), 0);
    }

    /// Satellite regression: every lookup flavor — including the
    /// typed-range, typed-eq and wildcard lookups that the old
    /// per-flavor `ServiceSnapshot` surface silently lacked — must
    /// agree between per-document queries and the cross-document
    /// fan-out.
    #[test]
    fn cross_doc_query_agrees_with_per_doc_queries() {
        use xvi_fsm::XmlType;
        let config = ServiceConfig::with_shards(4).with_index(IndexConfig::all());
        let service = IndexService::new(config);
        service.insert_document("a", Document::parse(DOC_A).unwrap());
        service.insert_document("b", Document::parse(DOC_B).unwrap());
        let snap = service.snapshot_all();
        for lookup in [
            Lookup::equi("Ford"),
            Lookup::range_f64(40.0..=200.0),
            Lookup::typed_range(XmlType::Integer, 41.0..43.0),
            Lookup::typed_eq(XmlType::Integer, 200.0),
            Lookup::contains("rthu"),
            Lookup::wildcard("F?rd*"),
            Lookup::XPath(crate::QueryEngine::parse("//person[age >= 42]").unwrap()),
        ] {
            let fan_out = snap.query(&lookup);
            let mut per_doc: Vec<(&str, xvi_xml::NodeId)> = Vec::new();
            for (id, doc_snap) in snap.iter() {
                for n in doc_snap.query(&lookup).unwrap() {
                    per_doc.push((id, n));
                }
            }
            assert_eq!(fan_out, per_doc, "{lookup}");
            // And the live-service entry point agrees per document.
            for id in ["a", "b"] {
                assert_eq!(
                    service.query(id, &lookup).unwrap(),
                    snap.iter()
                        .find(|(i, _)| *i == id)
                        .map(|(_, s)| s.query(&lookup).unwrap())
                        .unwrap(),
                    "{id}: {lookup}"
                );
            }
        }
        assert!(matches!(
            service.query("nope", &Lookup::equi("x")).unwrap_err(),
            IndexError::UnknownDocument(_)
        ));
    }

    /// The copy-on-write publish must share pages with the pinned
    /// snapshot instead of deep-copying the document: after a
    /// one-write commit under an outstanding snapshot, the snapshot's
    /// document still shares almost all of its arena pages with the
    /// newly published version.
    #[test]
    fn cow_publish_shares_pages_with_pinned_snapshot() {
        let service = IndexService::new(ServiceConfig::with_shards(1));
        let mut xml = String::from("<r>");
        for i in 0..2_000 {
            xml.push_str(&format!("<v>{i}</v>"));
        }
        xml.push_str("</r>");
        service.insert_document("big", Document::parse(&xml).unwrap());
        let pinned = service.snapshot("big").unwrap();
        assert_eq!(pinned.document().shared_pages(), 0);
        let node = service
            .read("big", |doc, _| text_node(doc, "1234"))
            .unwrap();
        let mut txn = service.begin();
        txn.set_value(node, "replaced");
        service.commit("big", txn).unwrap();
        // COW happened (the pinned snapshot is intact) ...
        assert_eq!(pinned.version(), 0);
        assert_eq!(
            pinned.query(&Lookup::equi("1234")).unwrap().len(),
            2,
            "pinned snapshot still sees the old value"
        );
        // ... and it shared pages: the pinned document's arena overlaps
        // the published successor's almost entirely (only the pages
        // holding the text node and its ancestors were detached).
        let shared = pinned.document().shared_pages();
        let total = pinned.document().stats().total_nodes / xvi_btree::PAGE_SIZE;
        assert!(
            shared > total / 2,
            "expected most of ~{total} pages shared, got {shared}"
        );
        let after = service.snapshot("big").unwrap();
        assert!(after.query(&Lookup::equi("1234")).unwrap().is_empty());
    }

    /// With no leader active, the ticket resolves cooperatively: the
    /// lone waiter drives the pipeline itself, and a born-completed
    /// ticket (unknown doc) resolves without touching any shard.
    #[test]
    fn ticket_future_resolves_via_cooperative_poll() {
        let service = service_with_two_docs();
        let node = service
            .read("a", |doc, _| text_node(doc, "Arthur"))
            .unwrap();
        let mut txn = service.begin();
        txn.set_value(node, "Tricia");
        let ticket = service.submit("a", txn);
        // Probing never does pipeline work, so the commit stays queued.
        assert!(!ticket.is_complete());
        assert!(ticket.try_poll().is_none());
        let receipt = ticket.wait().expect("lone waiter must drive the pipeline");
        assert_eq!((receipt.version, receipt.applied), (1, 1));
        assert_eq!(service.version_of("a"), Some(1));
        let dead = service.submit("nope", service.begin());
        assert!(matches!(dead.wait(), Err(IndexError::UnknownDocument(_))));
    }

    /// A waiter that finds another leader mid-round blocks on its slot
    /// and must be woken by the leader that publishes its commit. An
    /// active leader is simulated by flipping the shard's
    /// `leader_active` flag, which forces the first `wait` down the
    /// blocking path deterministically.
    #[test]
    fn blocked_waiter_is_woken_by_the_publishing_leader() {
        let service = IndexService::new(ServiceConfig::with_shards(1));
        service.insert_document("a", Document::parse(DOC_A).unwrap());
        let node = service
            .read("a", |doc, _| text_node(doc, "Arthur"))
            .unwrap();
        let set_leader = |active: bool| {
            service.shards[0]
                .pipeline
                .state
                .lock()
                .unwrap()
                .leader_active = active;
        };
        let mut txn = service.begin();
        txn.set_value(node, "Random");
        let ticket = service.submit("a", txn);

        // Pretend another thread is mid-round on the shard.
        set_leader(true);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| ticket.wait());
            // The waiter cannot lead, so it parks on its slot.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!waiter.is_finished(), "an active leader owns the round");
            set_leader(false);
            // A second committer's blocking wait drains the queue and
            // must wake the parked waiter when it fills the first slot.
            let mut txn2 = service.begin();
            txn2.set_value(node, "Frankie");
            service.commit("a", txn2).unwrap();
            assert_eq!(waiter.join().unwrap().unwrap().applied, 1);
        });
        assert_eq!(service.version_of("a"), Some(2));
    }

    /// A WAL fsync failure must fail the commit with a typed
    /// `Durability` error, publish nothing, poison the shard's log so
    /// later commits cannot append after potential garbage, and stay
    /// invisible after recovery (the failed record must not be
    /// resurrected as durable).
    #[test]
    fn wal_fsync_failure_fails_the_commit_and_poisons_the_shard() {
        let dir = std::env::temp_dir().join(format!("xvi-svc-walfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_config = || ServiceConfig::with_shards(1).with_wal(&dir);
        {
            let service = IndexService::new(wal_config());
            service.insert_document("a", Document::parse(DOC_A).unwrap());
            let node = service
                .read("a", |doc, _| text_node(doc, "Arthur"))
                .unwrap();
            service.shards[0]
                .wal
                .as_ref()
                .unwrap()
                .lock()
                .unwrap()
                .fail_next_sync = true;
            let mut txn = service.begin();
            txn.set_value(node, "lost");
            let err = service.commit("a", txn).unwrap_err();
            assert!(matches!(err, IndexError::Durability(_)), "{err:?}");
            // Nothing published: the unlogged commit never became visible.
            assert_eq!(service.version_of("a"), Some(0));
            assert_eq!(service.commit_count(), 0);
            // The shard's log is poisoned: later commits fail too
            // instead of appending records after potential garbage.
            let mut txn = service.begin();
            txn.set_value(node, "also-lost");
            assert!(matches!(
                service.commit("a", txn).unwrap_err(),
                IndexError::Durability(_)
            ));
        }
        // Recovery reopens the log: the failed commit is gone and the
        // service accepts new commits again.
        let recovered = IndexService::open(wal_config()).unwrap();
        assert_eq!(recovered.version_of("a"), Some(0));
        let node = recovered
            .read("a", |doc, idx| {
                assert_eq!(idx.query(doc, &Lookup::equi("Arthur")).unwrap().len(), 2);
                text_node(doc, "Arthur")
            })
            .unwrap();
        let mut txn = recovered.begin();
        txn.set_value(node, "works");
        assert_eq!(recovered.commit("a", txn).unwrap().version, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn wal_test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xvi-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fault(service: &IndexService) -> std::sync::MutexGuard<'_, ShardWal> {
        service.shards[0].wal.as_ref().unwrap().lock().unwrap()
    }

    /// A document insert whose log append is torn inside the document
    /// bytes, or whose fsync fails, reports `Err`, registers nothing,
    /// and is not brought back by recovery. Under
    /// [`IndexConfig::all`] the helper owns the typed and substring
    /// loads when the log write fails. (The test finishing at all shows
    /// the helper thread was joined on both paths.)
    #[test]
    fn failed_insert_registers_nothing_and_stays_gone_after_reopen() {
        for (tag, index) in [
            ("insertfault", IndexConfig::default()),
            ("insertfault-all", IndexConfig::all()),
        ] {
            let dir = wal_test_dir(tag);
            let wal_config = || {
                ServiceConfig::with_shards(1)
                    .with_index(index.clone())
                    .with_wal(&dir)
            };
            {
                let service = IndexService::open(wal_config()).unwrap();
                service.insert_document("a", Document::parse(DOC_A).unwrap());
                // Frame header, seq, tag, the id "b" and the xml length
                // come before the document bytes; cut ten bytes into them.
                let head = 8 + 8 + 1 + (4 + 1) + 4;
                fault(&service).fail_append_after = Some(head + 10);
                assert!(service
                    .try_insert_document("b", Document::parse(DOC_B).unwrap())
                    .is_err());
                assert_eq!(service.doc_count(), 1);
                assert!(!service.contains_document("b"));
                // A torn append is cut off and the log stays usable.
                service.insert_document("c", Document::parse(DOC_B).unwrap());

                fault(&service).fail_next_sync = true;
                assert!(service
                    .try_insert_document("d", Document::parse(DOC_B).unwrap())
                    .is_err());
                assert_eq!(service.doc_ids(), vec!["a", "c"]);
                // The inserts that did land carry every configured index.
                for id in ["a", "c"] {
                    service
                        .read(id, |doc, idx| {
                            assert_eq!(idx.config(), &index);
                            assert!(index.typed.iter().all(|&t| idx.typed_index(t).is_some()));
                            assert_eq!(idx.substring_index().is_some(), index.substring_index);
                            idx.verify_against(doc).unwrap();
                        })
                        .unwrap();
                }
            }
            let recovered = IndexService::open(wal_config()).unwrap();
            assert_eq!(recovered.doc_ids(), vec!["a", "c"]);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// An insert holds its shard's wal mutex while it logs and builds;
    /// a commit to another document of that shard submitted meanwhile
    /// waits for it and then completes, and both survive a reopen.
    #[test]
    fn commit_on_the_same_shard_completes_while_an_insert_is_in_flight() {
        let dir = wal_test_dir("insertcommit");
        let wal_config = || ServiceConfig::with_shards(1).with_wal(&dir);
        let big = Document::parse(&xvi_datagen::Dataset::XMark(1).generate(20)).unwrap();
        let service = IndexService::open(wal_config()).unwrap();
        service.insert_document("a", Document::parse(DOC_A).unwrap());
        let node = service
            .read("a", |doc, _| text_node(doc, "Arthur"))
            .unwrap();
        let mut overlapped = false;
        for attempt in 0..20 {
            let id = format!("big{attempt}");
            let start = Barrier::new(2);
            let value = format!("Zaphod{attempt}");
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    service.insert_document(id.clone(), big.clone());
                });
                start.wait();
                // Wait until the insert holds the wal mutex (or has
                // already finished, in which case this attempt does
                // not count).
                while !service.contains_document(&id) {
                    if service.shards[0].wal.as_ref().unwrap().try_lock().is_err() {
                        overlapped = true;
                        break;
                    }
                    std::hint::spin_loop();
                }
                let mut txn = service.begin();
                txn.set_value(node, value.clone());
                service.commit("a", txn).unwrap();
            });
            assert!(service.contains_document(&id));
            if overlapped {
                break;
            }
        }
        assert!(overlapped, "no commit was submitted during an insert");
        let version = service.version_of("a").unwrap();
        let docs = service.doc_count();
        drop(service);
        let recovered = IndexService::open(wal_config()).unwrap();
        assert_eq!(recovered.version_of("a"), Some(version));
        assert_eq!(recovered.doc_count(), docs);
        let last = format!("Zaphod{}", version - 1);
        recovered
            .read("a", |doc, idx| {
                assert_eq!(idx.query(doc, &Lookup::equi(&last)).unwrap().len(), 2);
            })
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bounded submissions: a full shard queue yields a typed
    /// `Overloaded` rejection with a depth-derived backoff, nothing is
    /// silently dropped, and draining the queue restores admission.
    #[test]
    fn try_submit_rejects_on_full_queue_and_recovers() {
        let service = IndexService::new(ServiceConfig::with_shards(1).with_max_queue(3));
        service.insert_document("a", Document::parse(DOC_A).unwrap());
        let node = service
            .read("a", |doc, _| text_node(doc, "Arthur"))
            .unwrap();
        let submit = |v: String| {
            let mut txn = service.begin();
            txn.set_value(node, v);
            service.try_submit("a", txn, None)
        };
        // Nothing drives the pipeline, so the queue fills deterministically.
        let tickets: Vec<_> = (0..3).map(|i| submit(format!("v{i}")).unwrap()).collect();
        assert_eq!(service.queue_depth("a"), 3);
        assert_eq!(service.queue_depths(), vec![3]);
        match submit("overflow".into()).unwrap_err() {
            IndexError::Overloaded { shard, retry_after } => {
                assert_eq!(shard, 0);
                assert!(
                    retry_after >= std::time::Duration::from_micros(60),
                    "{retry_after:?}"
                );
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The rejection dropped nothing: every admitted commit lands.
        for t in tickets.into_iter().rev() {
            t.wait().unwrap();
        }
        assert_eq!(service.commit_count(), 3);
        assert_eq!(service.queue_depth("a"), 0);
        // Room again after the drain.
        submit("again".into()).unwrap().wait().unwrap();
        assert_eq!(service.commit_count(), 4);
        // Empty transactions occupy no queue space, so they are always
        // admitted (completed tickets), even at capacity.
        let _fill: Vec<_> = (0..3).map(|i| submit(format!("w{i}")).unwrap()).collect();
        let empty = service.try_submit("a", service.begin(), None).unwrap();
        assert!(empty.is_complete());
        for t in _fill.into_iter() {
            t.wait().unwrap();
        }
    }

    #[test]
    fn group_commit_of_one_still_works() {
        let service = IndexService::new(ServiceConfig {
            shards: 1,
            max_group: 1,
            index: IndexConfig::default(),
            durability: Durability::Ephemeral,
            ..ServiceConfig::default()
        });
        service.insert_document("a", Document::parse(DOC_A).unwrap());
        // Node ids are stable across versions (values are replaced in
        // place), so one lookup serves all three commits.
        let node = service.read("a", |doc, _| text_node(doc, "42")).unwrap();
        for val in ["1", "2", "3"] {
            let mut txn = service.begin();
            txn.set_value(node, val);
            assert_eq!(service.commit("a", txn).unwrap().applied, 1);
        }
        assert_eq!(service.version_of("a"), Some(3));
        service
            .read("a", |doc, idx| {
                // Both <person> and the document node concatenate to
                // "Arthur3".
                assert_eq!(idx.query(doc, &Lookup::equi("Arthur3")).unwrap().len(), 2);
                idx.verify_against(doc).unwrap();
            })
            .unwrap();
    }
}
