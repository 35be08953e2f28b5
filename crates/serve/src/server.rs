//! The serving frontend: admission control, per-tenant fairness and
//! latency observability over an [`IndexService`].
//!
//! Requests enter through [`Server::submit`], which either **admits**
//! them into the caller's per-tenant queue or **rejects** them with a
//! typed [`ServeError::Overloaded`] carrying a suggested backoff —
//! the queue is bounded, so overload surfaces at the edge instead of
//! growing latency without bound (an open-loop arrival process has no
//! other way to learn it should slow down).
//!
//! Admitted requests are served by a fixed pool of plain worker
//! threads. A free worker picks the next request by **deficit
//! round-robin** across tenants: each scheduling round tops up the
//! head tenant's deficit by a quantum and dispatches while the deficit
//! covers the next request's cost. A tenant offering 10× the load gets
//! at most its round-robin share of dispatch slots, so a cold tenant's
//! tail latency stays within a constant factor of running alone. The
//! worker then runs the request to completion on its own thread: a
//! query probes a snapshot, a commit submits to the shard's bounded
//! queue and waits for its group-commit round.
//!
//! Every completed request records its **end-to-end latency**
//! (admission → completion, on a [`MonotonicClock`]) into a shared
//! [`LatencyHistogram`]; [`Server::stats`] snapshots the histogram and
//! the admission counters for reporting.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use xvi_index::{CommitReceipt, IndexError, IndexService, Lookup, Transaction};
use xvi_obs::{Counter, Obs, Stage, Trace, Unit};
use xvi_xml::NodeId;

use crate::clock::{Clock, MonotonicClock};
use crate::histogram::{HistogramSnapshot, LatencyHistogram};

/// Relative DRR cost of a query (a snapshot probe).
const QUERY_COST: u64 = 1;
/// Relative DRR cost of a commit (pipeline submission + group commit).
const COMMIT_COST: u64 = 4;

/// Configuration for a [`Server`].
///
/// Each worker serves one request at a time, so the real concurrency
/// cap is `min(workers, max_in_flight)`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads the server starts (clamped to ≥ 1).
    pub workers: usize,
    /// Maximum requests dispatched but not yet completed (clamped to
    /// ≥ 1).
    pub max_in_flight: usize,
    /// Per-tenant admission queue capacity; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub tenant_queue: usize,
    /// DRR quantum: cost units granted to a tenant per scheduling
    /// round (clamped to ≥ 1). Queries cost 1, commits 4.
    pub quantum: u64,
    /// Start with dispatch paused — requests are admitted (or
    /// rejected) but nothing runs until [`Server::resume`]. Lets tests
    /// preload queues and observe pure scheduling order.
    pub start_paused: bool,
    /// Maximum admission-control retries a commit job performs when
    /// the underlying shard queue is full, backing off by the shard's
    /// suggested `retry_after` between attempts.
    pub commit_retries: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_in_flight: 64,
            tenant_queue: 256,
            quantum: 8,
            start_paused: false,
            commit_retries: 16,
        }
    }
}

/// A request to serve.
#[derive(Debug, Clone)]
pub enum Request {
    /// Apply a transaction to a document (group-committed).
    Commit {
        /// Target document id.
        doc: String,
        /// The operations to apply.
        txn: Transaction,
    },
    /// Evaluate a lookup against a document's current snapshot.
    Query {
        /// Target document id.
        doc: String,
        /// The lookup to evaluate.
        lookup: Lookup,
    },
}

impl Request {
    fn cost(&self) -> u64 {
        match self {
            Request::Commit { .. } => COMMIT_COST,
            Request::Query { .. } => QUERY_COST,
        }
    }
}

/// A completed request's payload.
#[derive(Debug, Clone)]
pub enum Response {
    /// Receipt of a committed transaction.
    Commit(CommitReceipt),
    /// Matching nodes of a query.
    Query(Vec<NodeId>),
}

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The tenant's admission queue (or, after retries, the underlying
    /// shard queue) is full. Back off for `retry_after` and resubmit.
    Overloaded {
        /// Suggested client backoff before retrying.
        retry_after: Duration,
    },
    /// The server is shutting down; the request was not admitted.
    Closed,
    /// The underlying index rejected the request.
    Index(IndexError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { retry_after } => {
                write!(f, "server overloaded; retry after {retry_after:?}")
            }
            ServeError::Closed => write!(f, "server is closed"),
            ServeError::Index(e) => write!(f, "index error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IndexError> for ServeError {
    fn from(e: IndexError) -> ServeError {
        match e {
            IndexError::Overloaded { retry_after, .. } => ServeError::Overloaded { retry_after },
            other => ServeError::Index(other),
        }
    }
}

/// Where a finished request parks its result.
#[derive(Debug)]
struct ResponseSlot {
    result: Mutex<Option<Result<Response, ServeError>>>,
    done: Condvar,
    /// Global completion sequence number, for scheduling-order tests.
    completion_index: AtomicU64,
    /// Admission timestamp on the server clock.
    enqueue_ns: u64,
}

/// Handle to an admitted request's eventual [`Response`].
#[derive(Debug, Clone)]
pub struct ResponseTicket {
    slot: Arc<ResponseSlot>,
}

impl ResponseTicket {
    /// Blocks until the request completes.
    pub fn wait(&self) -> Result<Response, ServeError> {
        let mut guard = self.slot.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = guard.as_ref() {
                return r.clone();
            }
            guard = self
                .slot
                .done
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The result if already complete, without blocking.
    pub fn try_get(&self) -> Option<Result<Response, ServeError>> {
        self.slot
            .result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The request's position in the global completion order
    /// (1-based), once complete. Scheduling tests use this to observe
    /// DRR dispatch order without timing assumptions.
    pub fn completion_index(&self) -> Option<u64> {
        match self.slot.completion_index.load(Ordering::SeqCst) {
            0 => None,
            n => Some(n),
        }
    }
}

/// One admitted request waiting for dispatch.
struct Job {
    request: Request,
    slot: Arc<ResponseSlot>,
    /// Sampled request trace plus its admission timestamp on the
    /// tracer's clock (the admission-wait stage starts there). The
    /// serve layer started it, so the serve layer finishes it — after
    /// the response is complete, with the service's pipeline stages
    /// already attributed to it.
    trace: Option<(Trace, u64)>,
}

#[derive(Default)]
struct TenantQueue {
    jobs: VecDeque<Job>,
    deficit: u64,
    /// Whether the deficit was already topped up this round — a pick
    /// re-fronts a mid-round tenant, and a re-front visit must not
    /// grant a second quantum.
    topped_up: bool,
}

struct SchedState {
    tenants: HashMap<String, TenantQueue>,
    /// Tenants with queued work, in round-robin order.
    active: VecDeque<String>,
    /// Requests dispatched but not yet completed.
    in_flight: usize,
    paused: bool,
    closed: bool,
}

impl SchedState {
    fn queue_depth(&self) -> usize {
        self.tenants.values().map(|t| t.jobs.len()).sum()
    }

    /// The DRR pick: the head tenant's deficit grows by one quantum
    /// per visit and pays for dispatched requests; when it cannot
    /// cover the next request, the tenant goes to the back of the
    /// round with its balance kept. A tenant that can still pay is
    /// re-fronted, so one round spends its whole quantum rather than
    /// one request per visit. `None` when no tenant has queued work.
    fn pick(&mut self, quantum: u64) -> Option<Job> {
        loop {
            let tenant = self.active.pop_front()?;
            let q = self.tenants.get_mut(&tenant).expect("active tenant exists");
            if !q.topped_up {
                q.deficit += quantum;
                q.topped_up = true;
            }
            let cost = q
                .jobs
                .front()
                .expect("active tenant has work")
                .request
                .cost();
            if q.deficit < cost {
                // Quantum spent: back of the round, balance carried.
                q.topped_up = false;
                self.active.push_back(tenant);
                continue;
            }
            q.deficit -= cost;
            let job = q.jobs.pop_front().expect("front checked");
            if q.jobs.is_empty() {
                // An idle tenant must not bank credit for later bursts.
                q.deficit = 0;
                q.topped_up = false;
            } else {
                self.active.push_front(tenant);
            }
            return Some(job);
        }
    }
}

struct ServerShared {
    service: Arc<IndexService>,
    clock: MonotonicClock,
    /// The service's observability hub: admission counters and the
    /// latency histogram live in its registry (shared cells — the
    /// handles below), and sampled requests trace through its tracer.
    obs: Arc<Obs>,
    sched: Mutex<SchedState>,
    /// Signalled when a worker may find something to pick: a request
    /// was admitted, dispatch resumed, or shutdown began.
    work: Condvar,
    admitted: Counter,
    rejected: Counter,
    completed: Counter,
    completions: AtomicU64,
    latency: Arc<LatencyHistogram>,
    config: ServerConfig,
}

/// Point-in-time serving metrics; see [`Server::stats`].
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Requests accepted into a tenant queue.
    pub admitted: u64,
    /// Requests refused with [`ServeError::Overloaded`] at admission.
    pub rejected: u64,
    /// Requests fully completed.
    pub completed: u64,
    /// Dispatched but not yet completed.
    pub in_flight: usize,
    /// Admitted but not yet dispatched, summed over tenants.
    pub queue_depth: usize,
    /// End-to-end latency distribution of completed requests.
    pub latency: HistogramSnapshot,
}

impl ServerShared {
    fn sched(&self) -> MutexGuard<'_, SchedState> {
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The serving frontend; see the module docs.
pub struct Server {
    shared: Arc<ServerShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("in_flight", &self.shared.sched().in_flight)
            .finish()
    }
}

impl Server {
    /// A server over `service`; starts `config.workers` worker
    /// threads.
    pub fn new(service: Arc<IndexService>, config: ServerConfig) -> Server {
        let obs = Arc::clone(service.obs());
        let shared = Arc::new(ServerShared {
            admitted: obs.registry.counter(
                "xvi_serve_admitted_total",
                "Requests accepted into a tenant queue",
                &[],
            ),
            rejected: obs.registry.counter(
                "xvi_serve_rejected_total",
                "Requests refused at admission (overloaded)",
                &[],
            ),
            completed: obs.registry.counter(
                "xvi_serve_completed_total",
                "Requests fully completed",
                &[],
            ),
            latency: obs.registry.histogram(
                "xvi_serve_latency_seconds",
                "End-to-end request latency (admission to completion)",
                &[],
                Unit::Seconds,
            ),
            obs,
            service,
            clock: MonotonicClock::new(),
            sched: Mutex::new(SchedState {
                tenants: HashMap::new(),
                active: VecDeque::new(),
                in_flight: 0,
                paused: config.start_paused,
                closed: false,
            }),
            work: Condvar::new(),
            completions: AtomicU64::new(0),
            config,
        });
        {
            // Dispatch-state gauges come from a snapshot-time
            // collector (Weak: the shared state indirectly owns the
            // registry through the service's hub).
            let weak = Arc::downgrade(&shared);
            shared
                .obs
                .registry
                .register_collector(Box::new(move |sink| {
                    let Some(shared) = weak.upgrade() else { return };
                    let (queued, in_flight) = {
                        let st = shared.sched();
                        (st.queue_depth(), st.in_flight)
                    };
                    sink.gauge(
                        "xvi_serve_queue_depth",
                        "Admitted requests not yet dispatched, summed over tenants",
                        &[],
                        queued as u64,
                    );
                    sink.gauge(
                        "xvi_serve_in_flight",
                        "Requests dispatched but not yet completed",
                        &[],
                        in_flight as u64,
                    );
                }));
        }
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xvi-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The underlying index service.
    pub fn service(&self) -> &Arc<IndexService> {
        &self.shared.service
    }

    /// Submits a request on behalf of `tenant`. Returns a ticket when
    /// admitted; rejects with [`ServeError::Overloaded`] when the
    /// tenant's queue is full, or [`ServeError::Closed`] after
    /// shutdown began.
    pub fn submit(&self, tenant: &str, request: Request) -> Result<ResponseTicket, ServeError> {
        let mut st = self.shared.sched();
        if st.closed {
            return Err(ServeError::Closed);
        }
        let depth = st.tenants.get(tenant).map_or(0, |t| t.jobs.len());
        if depth >= self.shared.config.tenant_queue.max(1) {
            self.shared.rejected.inc();
            // Scale the suggested backoff with how far over capacity
            // the caller is pushing: one dispatch-ish interval per
            // queued request, clamped to a sane range.
            let retry_after = Duration::from_micros((depth as u64 * 20).clamp(100, 50_000));
            return Err(ServeError::Overloaded { retry_after });
        }
        let slot = Arc::new(ResponseSlot {
            result: Mutex::new(None),
            done: Condvar::new(),
            completion_index: AtomicU64::new(0),
            enqueue_ns: self.shared.clock.now_ns(),
        });
        let kind = match &request {
            Request::Commit { .. } => "serve-commit",
            Request::Query { .. } => "serve-query",
        };
        let trace = self
            .shared
            .obs
            .tracer
            .maybe_start(kind, || format!("tenant={tenant} request={request:?}"))
            .map(|t| {
                let admitted_ns = t.now_ns();
                (t, admitted_ns)
            });
        let queue = st.tenants.entry(tenant.to_string()).or_default();
        queue.jobs.push_back(Job {
            request,
            slot: Arc::clone(&slot),
            trace,
        });
        if queue.jobs.len() == 1 {
            st.active.push_back(tenant.to_string());
        }
        self.shared.admitted.inc();
        drop(st);
        self.shared.work.notify_one();
        Ok(ResponseTicket { slot })
    }

    /// Pauses dispatch: admitted requests queue but do not run.
    pub fn pause(&self) {
        self.shared.sched().paused = true;
    }

    /// Resumes dispatch after [`Server::pause`] (or `start_paused`).
    pub fn resume(&self) {
        self.shared.sched().paused = false;
        self.shared.work.notify_all();
    }

    /// Current metrics.
    pub fn stats(&self) -> ServerStats {
        let (queue_depth, in_flight) = {
            let st = self.shared.sched();
            (st.queue_depth(), st.in_flight)
        };
        ServerStats {
            admitted: self.shared.admitted.get(),
            rejected: self.shared.rejected.get(),
            completed: self.shared.completed.get(),
            in_flight,
            queue_depth,
            latency: self.shared.latency.snapshot(),
        }
    }

    /// Blocks until every admitted request has completed (dispatch
    /// must not be paused, or this never returns).
    pub fn drain(&self) {
        loop {
            {
                let st = self.shared.sched();
                if st.active.is_empty() && st.in_flight == 0 {
                    return;
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stops admission, lets the workers finish every admitted
    /// request, and joins them.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.sched();
            st.closed = true;
            st.paused = false;
        }
        self.shared.work.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: picks requests by DRR under the `sched` lock while
/// fewer than `max_in_flight` are running, and serves each on this
/// thread. Exits once the server is closed and every tenant queue is
/// empty.
///
/// Completion needs no wake-up of its own: the finishing worker frees
/// its in-flight slot and picks again under the same lock, so a
/// request held back by `max_in_flight` is dispatched by the worker
/// whose slot it takes.
fn worker_loop(shared: &ServerShared) {
    let max_in_flight = shared.config.max_in_flight.max(1);
    let mut st = shared.sched();
    loop {
        if st.closed && st.active.is_empty() {
            // Workers parked behind `max_in_flight` must see the
            // drained queues too.
            shared.work.notify_all();
            return;
        }
        let job = if st.paused || st.in_flight >= max_in_flight {
            None
        } else {
            // A zero quantum would never pay for a request: the pick
            // would spin under the lock.
            st.pick(shared.config.quantum.max(1))
        };
        let Some(job) = job else {
            st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        st.in_flight += 1;
        drop(st);
        serve(shared, job);
        st = shared.sched();
        st.in_flight -= 1;
    }
}

/// Runs one dispatched request to completion and publishes its result.
fn serve(shared: &ServerShared, job: Job) {
    let Job {
        request,
        slot,
        trace,
    } = job;
    // The wait between admission and this dispatch is the
    // admission-control stage of a traced request.
    let trace = trace.map(|(t, admitted_ns)| {
        t.record_stage(Stage::AdmissionWait, admitted_ns);
        t
    });
    let result: Result<Response, ServeError> = match request {
        Request::Query { doc, lookup } => shared
            .service
            .query_traced(&doc, &lookup, trace.as_ref())
            .map(Response::Query)
            .map_err(ServeError::from),
        Request::Commit { doc, txn } => commit_with_backoff(shared, &doc, txn, trace.as_ref()),
    };
    // Completion bookkeeping: latency, sequence number, count, and
    // only then the result and the wake, so `stats()` read by a waiter
    // that has its result already counts it.
    let elapsed = shared.clock.now_ns().saturating_sub(slot.enqueue_ns);
    shared.latency.record(Duration::from_nanos(elapsed));
    let seq = shared.completions.fetch_add(1, Ordering::SeqCst) + 1;
    slot.completion_index.store(seq, Ordering::SeqCst);
    shared.completed.inc();
    *slot.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
    slot.done.notify_all();
    // The serve layer started the trace at admission, so it ends it
    // here — total = the same admission→completion span the latency
    // histogram records.
    if let Some(t) = trace {
        shared.obs.tracer.finish(t);
    }
}

/// Submits a commit through the bounded [`IndexService::try_submit`]
/// path and waits for its group-commit round, sleeping out each
/// `retry_after` hint on shard overload. After `commit_retries`
/// rejections the overload is propagated to the client — admission
/// control composes: the shard's bound backstops the tenant queue's
/// bound.
fn commit_with_backoff(
    shared: &ServerShared,
    doc: &str,
    txn: Transaction,
    trace: Option<&Trace>,
) -> Result<Response, ServeError> {
    let mut last_retry_after = Duration::from_micros(100);
    for attempt in 0..=shared.config.commit_retries {
        // try_submit consumes its transaction; keep ours and hand the
        // shard a clone so a rejected attempt can be retried. The
        // trace (an Arc handle) rides into the pipeline, where the
        // group leader attributes queue-wait/WAL/fsync/publish stages
        // to it; this layer still owns and finishes it.
        match shared.service.try_submit(doc, txn.clone(), trace.cloned()) {
            Ok(ticket) => return Ok(Response::Commit(ticket.wait()?)),
            Err(IndexError::Overloaded { retry_after, .. }) => {
                last_retry_after = retry_after;
                if attempt < shared.config.commit_retries {
                    std::thread::sleep(retry_after);
                }
            }
            Err(other) => return Err(ServeError::Index(other)),
        }
    }
    Err(ServeError::Overloaded {
        retry_after: last_retry_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvi_index::ServiceConfig;
    use xvi_xml::Document;

    /// `stats().completed` already counts every request whose waiter
    /// has its result: read right after a round's tickets resolve, with
    /// no `drain` or `shutdown` first, it equals the number submitted.
    /// Odd rounds poll each ticket instead of blocking, so the check
    /// runs as soon as the last result is in its slot.
    #[test]
    fn completion_is_counted_before_its_waiter_sees_it() {
        const ROUNDS: u64 = 2000;
        const PER_ROUND: u64 = 8;
        let service = Arc::new(IndexService::new(ServiceConfig::with_shards(1)));
        service.insert_document("a", Document::parse("<r><v>42</v></r>").unwrap());
        let server = Server::new(service, ServerConfig::default());
        for round in 0..ROUNDS {
            let tickets: Vec<ResponseTicket> = (0..PER_ROUND)
                .map(|_| {
                    let query = Request::Query {
                        doc: "a".into(),
                        lookup: Lookup::equi("42"),
                    };
                    server.submit("t", query).unwrap()
                })
                .collect();
            for t in &tickets {
                if round % 2 == 0 {
                    t.wait().unwrap();
                } else {
                    while t.try_get().is_none() {
                        std::hint::spin_loop();
                    }
                }
            }
            assert_eq!(
                server.stats().completed,
                (round + 1) * PER_ROUND,
                "round {round}"
            );
        }
        server.shutdown();
    }

    /// A zero quantum still serves: every round grants at least one
    /// cost unit.
    #[test]
    fn zero_quantum_still_dispatches() {
        let service = Arc::new(IndexService::new(ServiceConfig::with_shards(1)));
        service.insert_document("a", Document::parse("<r><v>42</v></r>").unwrap());
        let server = Server::new(
            service,
            ServerConfig {
                quantum: 0,
                ..ServerConfig::default()
            },
        );
        let query = Request::Query {
            doc: "a".into(),
            lookup: Lookup::equi("42"),
        };
        let Ok(Response::Query(hits)) = server.submit("t", query).unwrap().wait() else {
            panic!("a zero-quantum server must still serve");
        };
        assert!(!hits.is_empty());
        server.shutdown();
    }

    /// A commit whose shard stays full through every retry fails with
    /// a typed overload, lands nothing, and leaves its worker free to
    /// serve the next request.
    #[test]
    fn commit_out_of_retries_fails_cleanly() {
        let service = Arc::new(IndexService::new(
            ServiceConfig::with_shards(1).with_max_queue(1),
        ));
        service.insert_document(
            "a",
            Document::parse("<r><name>Arthur</name><age>42</age></r>").unwrap(),
        );
        let node = service
            .read("a", |d, _| {
                d.descendants(d.document_node())
                    .find(|&n| d.kind(n).has_direct_value())
                    .unwrap()
            })
            .unwrap();
        let txn = |v: &str| {
            let mut txn = service.begin();
            txn.set_value(node, v);
            txn
        };
        // Nothing waits this ticket, so nothing drains the one slot
        // of the shard's queue until the end of the test.
        let held = service.submit("a", txn("held"));
        let server = Server::new(
            Arc::clone(&service),
            ServerConfig {
                commit_retries: 2,
                ..ServerConfig::default()
            },
        );

        let commit = Request::Commit {
            doc: "a".into(),
            txn: txn("served"),
        };
        let served = server.submit("t", commit).unwrap().wait();
        assert!(
            matches!(served, Err(ServeError::Overloaded { .. })),
            "expected Overloaded, got {served:?}"
        );
        assert_eq!(service.commit_count(), 0);

        let query = Request::Query {
            doc: "a".into(),
            lookup: Lookup::equi("42"),
        };
        let Ok(Response::Query(hits)) = server.submit("t", query).unwrap().wait() else {
            panic!("the query after the failed commit must complete");
        };
        assert!(!hits.is_empty());
        server.shutdown();

        assert_eq!(held.wait().unwrap().applied, 1);
        assert_eq!(service.commit_count(), 1);
    }
}
