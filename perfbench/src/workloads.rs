//! The four workloads. Each sets up from the seed (five times, for
//! `setup_s`), runs its timed phase, checks every answer against the
//! oracle, and reports its metrics. With `--trace 1` the timed phase
//! runs as untraced and traced slices (see [`slices`]), and the layer
//! ladder follows.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xvi_index::{CommitTicket, Document, IndexService, NodeId, ServiceConfig};
use xvi_serve::{Request, Response, ResponseTicket, ServeError, Server, ServerConfig};

use crate::corpus::{self, Class, CorpusDoc, DocOracle, Probe, TxnShape};
use crate::spans::{span, SpanLog};
use crate::{
    fresh_dir, ladder, median, timed_setup, Args, Blocked, Report, Samples, BLOCK_S, SCALE_PERMILLE,
};

/// Distinct reads precomputed per run (the closed loops cycle through them).
const READS: usize = 40_000;
/// Commit tickets a writer keeps open.
pub const WINDOW: usize = 4;
/// Commits applied after the timed phase of `update_durable`, so
/// every reopen replays a log of the same size.
const REPLAY_COMMITS: usize = 120;
/// Reopens whose median is `recovery_s`.
const REOPENS: usize = 3;
/// Offered load of `serve_mixed`, requests per second.
const SERVE_RATE: f64 = 8000.0;
/// Admission queue per tenant in `serve_mixed`. The default 256 fills
/// in about 40 ms at the hot tenant's rate, and a shared 2-vCPU guest
/// stalls that long now and then; a deeper queue turns such a stall
/// into latency (timed from each due time) instead of refusals.
const SERVE_TENANT_QUEUE: usize = 4096;

/// The seed-derived inputs every workload starts from.
pub struct Inputs {
    pub corpus: Vec<CorpusDoc>,
    pub oracles: Vec<DocOracle>,
    pub xmark: Vec<bool>,
}

impl Inputs {
    /// Generates and parses the corpus and scans it into oracles.
    pub fn new(seed: u64) -> (Inputs, Vec<Document>) {
        let corpus = corpus::generate(seed, SCALE_PERMILLE);
        let docs = corpus::parse_all(&corpus);
        let oracles = docs.iter().map(DocOracle::build).collect();
        let xmark = corpus.iter().map(|d| d.xmark).collect();
        (
            Inputs {
                corpus,
                oracles,
                xmark,
            },
            docs,
        )
    }

    pub fn ids(&self) -> Vec<String> {
        self.corpus.iter().map(|d| d.id.clone()).collect()
    }

    pub fn xml_bytes(&self) -> usize {
        corpus::xml_bytes(&self.corpus)
    }
}

/// Latencies of a run by class, in blocks.
#[derive(Default)]
struct Latencies {
    eq: Blocked,
    range: Blocked,
    xpath: Blocked,
    commit: Blocked,
}

impl Latencies {
    fn push(&mut self, class: Class, block: usize, ns: u64) {
        match class {
            Class::Eq => &mut self.eq,
            Class::Range => &mut self.range,
            Class::XPath => &mut self.xpath,
        }
        .push(block, ns);
    }

    fn append(&mut self, other: Latencies) {
        self.eq.append(other.eq);
        self.range.append(other.range);
        self.xpath.append(other.xpath);
        self.commit.append(other.commit);
    }

    /// Reports `<class>_p50_us` and `<class>_p90_us` (best-block
    /// estimates), the pooled p50 and p99, and the sample count of
    /// every measured class.
    fn report(&self, report: &mut Report) {
        for (name, s) in [
            ("eq", &self.eq),
            ("range", &self.range),
            ("xpath", &self.xpath),
            ("commit", &self.commit),
        ] {
            if s.is_empty() {
                continue;
            }
            report.set(&format!("{name}_p50_us"), s.best_quantile_us(0.5), "us");
            report.set(&format!("{name}_p90_us"), s.best_quantile_us(0.9), "us");
            report.set(
                &format!("{name}_pooled_p50_us"),
                s.pooled_quantile_us(0.5),
                "us",
            );
            report.set(
                &format!("{name}_pooled_p99_us"),
                s.pooled_quantile_us(0.99),
                "us",
            );
            report.set(&format!("{name}_samples"), s.len() as f64, "count");
        }
    }
}

/// The block an event at `t` falls in, for a slice started at `start`.
fn block_of(start: Instant, t: Instant) -> usize {
    (t.saturating_duration_since(start).as_secs_f64() / BLOCK_S) as usize
}

/// Rates of the complete blocks of a `seconds`-long slice, given
/// each event's block.
fn block_rates(counts: &[u64], seconds: f64) -> Vec<f64> {
    let full = ((seconds / BLOCK_S) as usize).max(1);
    let w = BLOCK_S.min(seconds);
    (0..full)
        .map(|b| counts.get(b).copied().unwrap_or(0) as f64 / w)
        .collect()
}

/// Nanoseconds since `t`.
fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn count_at(counts: &mut Vec<u64>, block: usize) {
    if counts.len() <= block {
        counts.resize(block + 1, 0);
    }
    counts[block] += 1;
}

/// The slices of a run's timed phase as `(traced, seconds)`: one
/// untraced slice, or with `--trace 1` untraced and traced slices in
/// ABBA order, so drift over the run weighs on both sides alike.
fn slices(args: &Args) -> Vec<(bool, f64)> {
    let q = args.seconds / 4.0;
    if args.trace {
        vec![(false, q), (true, q), (true, q), (false, q)]
    } else {
        vec![(false, args.seconds)]
    }
}

/// What the slices of a run gathered: the untraced latencies and
/// block throughputs (the end-to-end numbers; `ops_per_s` is the best
/// block, or the median one with `median_rate`) and each side's cost
/// per operation (their ratio is the tracing overhead).
#[derive(Default)]
struct Sides {
    lat: Latencies,
    rates: Vec<f64>,
    cost: [Vec<f64>; 2],
    median_rate: bool,
}

impl Sides {
    fn add(&mut self, traced: bool, cost: f64, rates: Vec<f64>, lat: Latencies) {
        self.cost[usize::from(traced)].push(cost);
        if !traced {
            self.rates.extend(rates);
            self.lat.append(lat);
        }
    }

    fn report(self, report: &mut Report) {
        let med = median(self.rates.clone());
        let best = self.rates.into_iter().fold(0.0, f64::max);
        report.set("ops_per_s_median_block", med, "1/s");
        report.set("ops_per_s_best_block", best, "1/s");
        report.set(
            "ops_per_s",
            if self.median_rate { med } else { best },
            "1/s",
        );
        self.lat.report(report);
        if !self.cost[1].is_empty() {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            report.set(
                "obs.trace_overhead_frac",
                mean(&self.cost[1]) / mean(&self.cost[0]) - 1.0,
                "frac",
            );
        }
    }
}

fn check_service(
    report: &mut Report,
    svc: &IndexService,
    probes: &[Probe],
    ids: &[String],
    what: &str,
) {
    for p in probes {
        let got = svc.query(&ids[p.doc], &p.lookup);
        report.check(matches!(got, Ok(ref g) if p.check(g.clone())), || {
            format!(
                "{what}: {} on {} gave {got:?}, expected {} nodes",
                p.lookup,
                ids[p.doc],
                p.expected.len()
            )
        });
    }
}

/// The writes a run acknowledged: `(doc, node)` → `(seq, value)`,
/// the highest commit sequence number winning.
#[derive(Default)]
struct Acked(HashMap<(usize, NodeId), (u64, String)>);

impl Acked {
    fn record(&mut self, doc: usize, seq: u64, writes: Vec<(NodeId, String)>) {
        for (n, v) in writes {
            let e = self.0.entry((doc, n)).or_insert((0, String::new()));
            if seq >= e.0 {
                *e = (seq, v);
            }
        }
    }

    /// Every acknowledged write must be visible in `svc`.
    fn verify(&self, report: &mut Report, svc: &IndexService, ids: &[String]) {
        let mut missing = 0usize;
        for ((doc, node), (_, value)) in &self.0 {
            let seen = svc.read(&ids[*doc], |d, _| d.string_value(*node));
            if seen.as_deref() != Some(value.as_str()) {
                missing += 1;
            }
        }
        report.invariant(missing == 0, || {
            format!(
                "{missing} of {} acknowledged writes are not visible",
                self.0.len()
            )
        });
    }
}

/// Adds the branch-cache counters (full and partial hits, all
/// descents) of every index tree of every document's current version
/// to `acc` with `sign`: -1 before a slice, +1 after it.
fn cache_delta(acc: &mut (i64, i64), svc: &IndexService, ids: &[String], sign: i64) {
    for id in ids {
        if let Some(snap) = svc.snapshot(id) {
            for (_, t) in snap.index().tree_stats_by_kind() {
                let hits = (t.cache_hits + t.cache_partial_hits) as i64;
                acc.0 += sign * hits;
                acc.1 += sign * (hits + t.cache_misses as i64);
            }
        }
    }
}

fn report_cache(report: &mut Report, acc: (i64, i64)) {
    let ratio = if acc.1 > 0 {
        acc.0 as f64 / acc.1 as f64
    } else {
        0.0
    };
    report.set("btree.cache_hit_ratio", ratio, "ratio");
}

// ---------------------------------------------------------------- ingest

/// `ingest`: each round parses every document and inserts it into an
/// empty WAL service, checkpoints, drops the service and reopens it
/// from the images, then checks the catalog and a sample of answers.
pub fn ingest(args: &Args, report: &mut Report, mut spans: Option<&mut SpanLog>) {
    let (inputs, verify) = timed_setup(report, || {
        let (inputs, _) = Inputs::new(args.seed);
        let verify = corpus::probes(&inputs.oracles, &inputs.xmark, 600, (67, 33, 0), args.seed);
        (inputs, verify)
    });
    let ids = inputs.ids();
    let bytes = inputs.xml_bytes();
    // A round's 0.3 s of parsing and inserting is already a mean over
    // many operations, and its median over the run repeats from run to
    // run better than the best round does (spreads of 0.15 to 0.16
    // against 0.17 to 0.27 across seeds).
    let mut sides = Sides {
        median_rate: true,
        ..Sides::default()
    };
    let (mut mb_s, mut ckpt, mut reopen, mut disk) = (vec![], vec![], vec![], vec![]);
    let mut cache = (0i64, 0i64);
    let mut round = 0u64;
    for (traced, seconds) in slices(args) {
        let mut log = if traced { spans.as_deref_mut() } else { None };
        let mut lat = Latencies::default();
        let mut docs_per_s: Vec<f64> = Vec::new();
        let t_slice = Instant::now();
        while docs_per_s.is_empty() || t_slice.elapsed().as_secs_f64() < seconds {
            let dir = fresh_dir("ingest");
            let config = || ServiceConfig::default().with_wal(&dir);
            let svc = IndexService::open(config()).expect("open an empty WAL service");
            let t = Instant::now();
            for (i, d) in inputs.corpus.iter().enumerate() {
                let t_doc = Instant::now();
                let doc = span(&mut log, "xml.parse", i as u64, || Document::parse(&d.xml))
                    .expect("generated XML parses");
                span(&mut log, "service.insert_document", i as u64, || {
                    svc.insert_document(d.id.clone(), doc)
                });
                lat.commit.push(docs_per_s.len(), since(t_doc));
            }
            let secs = t.elapsed().as_secs_f64();
            docs_per_s.push(ids.len() as f64 / secs);
            let t = Instant::now();
            span(&mut log, "persist.checkpoint", round, || svc.checkpoint()).expect("checkpoint");
            let ckpt_s = t.elapsed().as_secs_f64();
            let disk_ratio = crate::dir_bytes(&dir) as f64 / bytes as f64;
            drop(svc);
            let t = Instant::now();
            let svc = span(&mut log, "recovery.open", round, || {
                IndexService::open(config())
            })
            .expect("reopen from the checkpoint");
            let reopen_s = t.elapsed().as_secs_f64();
            if !traced {
                mb_s.push(bytes as f64 / 1e6 / secs);
                ckpt.push(ckpt_s);
                disk.push(disk_ratio);
                reopen.push(reopen_s);
            }
            report.invariant(svc.doc_count() == ids.len(), || {
                format!("reopened catalog holds {} documents", svc.doc_count())
            });
            report.invariant(svc.commit_count() == 0, || {
                format!("reopened commit count {}", svc.commit_count())
            });
            cache_delta(&mut cache, &svc, &ids, -1);
            for (k, p) in verify.iter().enumerate() {
                let t = Instant::now();
                let got = span(&mut log, "service.query", k as u64, || {
                    svc.query(&ids[p.doc], &p.lookup)
                });
                lat.push(p.class, docs_per_s.len() - 1, since(t));
                report.check(matches!(got, Ok(ref g) if p.check(g.clone())), || {
                    format!(
                        "ingest: {} on {} after reopen gave {got:?}",
                        p.lookup, ids[p.doc]
                    )
                });
            }
            cache_delta(&mut cache, &svc, &ids, 1);
            drop(svc);
            let _ = std::fs::remove_dir_all(&dir);
            round += 1;
        }
        let cost = docs_per_s.iter().map(|r| 1.0 / r).sum::<f64>() / docs_per_s.len() as f64;
        sides.add(traced, cost, docs_per_s, lat);
    }
    sides.report(report);
    report.set("ingest_mb_s", median(mb_s), "MB/s");
    report.set("checkpoint_s", median(ckpt), "s");
    report.set("recovery_s", median(reopen), "s");
    report.set("disk_bytes_per_xml_byte", median(disk), "ratio");
    report.set("xml_mb", bytes as f64 / 1e6, "MB");
    report.set("rounds", round as f64, "count");
    if args.trace {
        report_cache(report, cache);
        ladder::run(&inputs, args.seed, report, &mut spans);
    }
}

// ---------------------------------------------------------------- lookup

/// `lookup`: one client in a closed loop of `IndexService::query`
/// over an in-memory catalog; 60% selective equality, 30% narrow
/// double ranges, 10% XPath value predicates.
pub fn lookup(args: &Args, report: &mut Report, mut spans: Option<&mut SpanLog>) {
    let (inputs, svc, probes) = timed_setup(report, || {
        let (inputs, docs) = Inputs::new(args.seed);
        let svc = IndexService::new(ServiceConfig::default());
        for (d, doc) in inputs.corpus.iter().zip(docs) {
            svc.insert_document(d.id.clone(), doc);
        }
        let probes = corpus::probes(
            &inputs.oracles,
            &inputs.xmark,
            READS,
            (60, 30, 10),
            args.seed,
        );
        (inputs, svc, probes)
    });
    let ids = inputs.ids();
    let mut sides = Sides::default();
    let mut cache = (0i64, 0i64);
    let mut i = 0usize;
    for (traced, seconds) in slices(args) {
        let mut log = if traced { spans.as_deref_mut() } else { None };
        let mut lat = Latencies::default();
        let mut counts = Vec::new();
        cache_delta(&mut cache, &svc, &ids, -1);
        let start = Instant::now();
        let first = i;
        loop {
            if i.is_multiple_of(64) && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let p = &probes[i % probes.len()];
            let t = Instant::now();
            let got = span(&mut log, "service.query", i as u64, || {
                svc.query(&ids[p.doc], &p.lookup)
            });
            let block = block_of(start, t);
            lat.push(p.class, block, since(t));
            count_at(&mut counts, block);
            report.check(matches!(got, Ok(ref g) if p.check(g.clone())), || {
                format!(
                    "lookup: {} on {} gave {got:?}, expected {:?}",
                    p.lookup, ids[p.doc], p.expected
                )
            });
            i += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        cache_delta(&mut cache, &svc, &ids, 1);
        sides.add(
            traced,
            elapsed / (i - first) as f64,
            block_rates(&counts, elapsed),
            lat,
        );
    }
    sides.report(report);
    report.set("xml_mb", inputs.xml_bytes() as f64 / 1e6, "MB");
    if args.trace {
        report_cache(report, cache);
        ladder::run(&inputs, args.seed, report, &mut spans);
    }
}

// ------------------------------------------------------- update_durable

/// One open commit of the `update_durable` writer.
struct Open<'a> {
    ticket: CommitTicket<'a>,
    submitted: Instant,
    seq: u64,
    doc: usize,
    writes: Vec<(NodeId, String)>,
}

/// A single client that keeps [`WINDOW`] commit tickets open.
struct Writer<'a> {
    svc: &'a IndexService,
    ids: &'a [String],
    shapes: &'a [TxnShape],
    open: Vec<Open<'a>>,
    seq: u64,
    acked: Acked,
    failed: Vec<String>,
    lat: Blocked,
    /// Completed commits per block since `start`.
    counts: Vec<u64>,
    start: Instant,
}

impl<'a> Writer<'a> {
    fn new(
        svc: &'a IndexService,
        ids: &'a [String],
        shapes: &'a [TxnShape],
        seq: u64,
    ) -> Writer<'a> {
        Writer {
            svc,
            ids,
            shapes,
            open: Vec::new(),
            seq,
            acked: Acked::default(),
            failed: Vec::new(),
            lat: Blocked::default(),
            counts: Vec::new(),
            start: Instant::now(),
        }
    }

    fn submit(&mut self, log: &mut Option<&mut SpanLog>) {
        self.seq += 1;
        let shape = &self.shapes[self.seq as usize % self.shapes.len()];
        let (txn, writes) = corpus::make_txn(shape, self.seq);
        let submitted = Instant::now();
        let ticket = span(log, "service.submit", self.seq, || {
            self.svc.submit(&self.ids[shape.doc], txn)
        });
        self.open.push(Open {
            ticket,
            submitted,
            seq: self.seq,
            doc: shape.doc,
            writes,
        });
        if self.open.len() >= WINDOW {
            self.reap(log);
        }
    }

    /// Waits for the oldest open commit (which drives its shard's
    /// group commit), then collects every other completed one. The
    /// writer is the only client, so nothing completes outside
    /// `wait`, and the time right after it is each completion's.
    fn reap(&mut self, log: &mut Option<&mut SpanLog>) {
        if self.open.is_empty() {
            return;
        }
        let oldest = self.open.remove(0);
        let seq = oldest.seq;
        let result = span(log, "service.commit_wait", seq, || oldest.ticket.wait());
        self.finish(oldest.submitted, seq, oldest.doc, oldest.writes, result);
        let mut k = 0;
        while k < self.open.len() {
            if let Some(result) = self.open[k].ticket.try_poll() {
                let o = self.open.remove(k);
                self.finish(o.submitted, o.seq, o.doc, o.writes, result);
            } else {
                k += 1;
            }
        }
    }

    fn finish(
        &mut self,
        submitted: Instant,
        seq: u64,
        doc: usize,
        writes: Vec<(NodeId, String)>,
        result: Result<xvi_index::CommitReceipt, xvi_index::IndexError>,
    ) {
        let block = block_of(self.start, Instant::now());
        self.lat.push(block, since(submitted));
        count_at(&mut self.counts, block);
        match result {
            Ok(r) if r.applied == writes.len() => self.acked.record(doc, seq, writes),
            other => self
                .failed
                .push(format!("commit {seq} on {}: {other:?}", self.ids[doc])),
        }
    }

    fn drain(&mut self, log: &mut Option<&mut SpanLog>) {
        while !self.open.is_empty() {
            self.reap(log);
        }
    }

    /// Moves the tally into the run's report and acknowledged writes.
    fn settle(self, report: &mut Report, acked: &mut Acked) -> (Blocked, Vec<u64>) {
        report.attempted += self.counts.iter().sum::<u64>();
        report.failed += self.failed.len() as u64;
        report.mismatches.extend(self.failed.into_iter().take(20));
        for ((doc, node), (seq, value)) in self.acked.0 {
            acked.record(doc, seq, vec![(node, value)]);
        }
        (self.lat, self.counts)
    }
}

/// `update_durable`: one thread commits Fig-10 transactions of 1, 10
/// and 100 text-node writes on a WAL service with a window of open
/// tickets while a second thread runs the equality/range read mix;
/// afterwards the service is dropped and reopened from its log.
pub fn update_durable(args: &Args, report: &mut Report, mut spans: Option<&mut SpanLog>) {
    let dir = fresh_dir("update");
    let config = || ServiceConfig::default().with_wal(&dir);
    let (inputs, svc, reads, shapes) = timed_setup(report, || {
        let _ = std::fs::remove_dir_all(&dir);
        let (inputs, docs) = Inputs::new(args.seed);
        let svc = IndexService::open(config()).expect("open an empty WAL service");
        for (d, doc) in inputs.corpus.iter().zip(docs) {
            svc.insert_document(d.id.clone(), doc);
        }
        svc.checkpoint().expect("checkpoint after load");
        let reads = corpus::probes(
            &inputs.oracles,
            &inputs.xmark,
            READS,
            (67, 33, 0),
            args.seed,
        );
        let writable = corpus::writable(&inputs.oracles, &reads);
        let shapes = corpus::txn_shapes(&writable, &[1, 10, 100], 600, args.seed);
        (inputs, svc, reads, shapes)
    });
    let ids = inputs.ids();
    let mut acked = Acked::default();
    let mut seq = 0u64;
    let mut sides = Sides::default();
    let mut reads_per_s = Vec::new();
    let mut cache = (0i64, 0i64);
    for (traced, seconds) in slices(args) {
        let mut log = if traced { spans.as_deref_mut() } else { None };
        let mut reader_log = log.as_ref().map(|l| l.fork(1));
        cache_delta(&mut cache, &svc, &ids, -1);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let (writer, (read_lat, read_failures, read_ops)) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut lat = Latencies::default();
                let mut failures: Vec<String> = Vec::new();
                let mut rl = reader_log.as_mut();
                let mut i = 0usize;
                while Instant::now() < deadline {
                    let p = &reads[i % reads.len()];
                    let t = Instant::now();
                    let got = span(&mut rl, "service.query", i as u64, || {
                        svc.query(&ids[p.doc], &p.lookup)
                    });
                    lat.push(p.class, block_of(start, t), since(t));
                    if !matches!(got, Ok(ref g) if p.check(g.clone())) {
                        failures.push(format!(
                            "update_durable read {} on {} gave {got:?}",
                            p.lookup, ids[p.doc]
                        ));
                    }
                    i += 1;
                }
                (lat, failures, i)
            });
            let mut w = Writer::new(&svc, &ids, &shapes, seq);
            w.start = start;
            while Instant::now() < deadline {
                w.submit(&mut log);
            }
            w.drain(&mut log);
            (w, reader.join().expect("reader thread panicked"))
        });
        let elapsed = start.elapsed().as_secs_f64();
        cache_delta(&mut cache, &svc, &ids, 1);
        if let (Some(l), Some(r)) = (log, reader_log) {
            l.join(r);
        }
        report.attempted += read_ops as u64;
        report.failed += read_failures.len() as u64;
        report.mismatches.extend(read_failures.into_iter().take(20));
        seq = writer.seq;
        let (commit_lat, counts) = writer.settle(report, &mut acked);
        let mut lat = read_lat;
        lat.commit = commit_lat;
        if !traced {
            reads_per_s.push(read_ops as f64 / elapsed);
        }
        // The reader's time per read: it shares the cores with the
        // writer, so it carries the write side's cost as well.
        sides.add(
            traced,
            elapsed / read_ops as f64,
            block_rates(&counts, elapsed),
            lat,
        );
    }
    sides.report(report);
    report.set("reads_per_s", median(reads_per_s), "1/s");

    // Recovery: checkpoint, append a fixed tail of commits, then drop
    // and reopen repeatedly; every reopen replays the same log.
    let t = Instant::now();
    span(&mut spans, "persist.checkpoint", 0, || svc.checkpoint()).expect("checkpoint");
    report.set("checkpoint_s", t.elapsed().as_secs_f64(), "s");
    let mut tail = Writer::new(&svc, &ids, &shapes, seq);
    for _ in 0..REPLAY_COMMITS {
        tail.submit(&mut None);
    }
    tail.drain(&mut None);
    let wal = crate::wal_bytes(&dir);
    let tail_writes: usize = shapes
        .iter()
        .cycle()
        .skip(seq as usize + 1)
        .take(REPLAY_COMMITS)
        .map(|s| s.nodes.len())
        .sum();
    report.set(
        "wal_bytes_per_write",
        wal as f64 / tail_writes as f64,
        "bytes",
    );
    tail.settle(report, &mut acked);
    let (docs, commits) = (svc.doc_count(), svc.commit_count());
    drop(svc);
    let mut times = Vec::new();
    let mut reopened = None;
    for r in 0..REOPENS {
        drop(reopened.take());
        let t = Instant::now();
        let svc = span(&mut spans, "recovery.open", r as u64, || {
            IndexService::open(config())
        })
        .expect("reopen from checkpoint and log");
        times.push(t.elapsed().as_secs_f64());
        reopened = Some(svc);
    }
    let svc = reopened.expect("reopened");
    report.set("recovery_s", median(times), "s");
    report.set("replayed_commits", REPLAY_COMMITS as f64, "count");
    report.invariant(svc.doc_count() == docs, || {
        format!("doc_count {} after reopen, {docs} before", svc.doc_count())
    });
    report.invariant(svc.commit_count() == commits, || {
        format!(
            "commit_count {} after reopen, {commits} before",
            svc.commit_count()
        )
    });
    acked.verify(report, &svc, &ids);
    check_service(
        report,
        &svc,
        &reads[..500],
        &ids,
        "update_durable after reopen",
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    if args.trace {
        report_cache(report, cache);
        ladder::run(&inputs, args.seed, report, &mut spans);
    }
}

// ----------------------------------------------------------- serve_mixed

enum Job {
    Query(usize),
    Commit(usize),
}

/// One scheduled request of the open loop.
struct Scheduled {
    tenant: usize,
    job: Job,
}

/// An admitted request the reaper waits for.
struct Outstanding {
    ticket: ResponseTicket,
    due: Instant,
    index: usize,
}

/// What the reaper saw complete.
struct Completed {
    index: usize,
    at: Instant,
    latency_ns: u64,
    result: Result<Response, ServeError>,
}

const TENANTS: [&str; 4] = ["hot", "cold-1", "cold-2", "cold-3"];

/// Collects completed requests on its own thread. It blocks on the
/// oldest outstanding query (queries are short and finish in arrival
/// order) and, each time it wakes, sweeps every other outstanding
/// ticket, so a request is timestamped when its ticket is seen
/// complete, not at the generator's next wake-up.
fn reap(
    rx: mpsc::Receiver<Outstanding>,
    schedule: &[Scheduled],
    mut log: Option<&mut SpanLog>,
) -> Vec<Completed> {
    let mut pending: VecDeque<Outstanding> = VecDeque::new();
    let mut done = Vec::new();
    let mut complete = |o: Outstanding, result: Result<Response, ServeError>| {
        let now = Instant::now();
        if let Some(l) = log.as_deref_mut() {
            l.record("serve.request", o.due, now, o.index as u64);
        }
        done.push(Completed {
            index: o.index,
            at: now,
            latency_ns: now.saturating_duration_since(o.due).as_nanos() as u64,
            result,
        });
    };
    loop {
        if pending.is_empty() {
            match rx.recv() {
                Ok(o) => pending.push_back(o),
                Err(_) => break,
            }
        }
        pending.extend(rx.try_iter());
        let k = pending
            .iter()
            .position(|o| matches!(schedule[o.index].job, Job::Query(_)))
            .unwrap_or(0);
        let o = pending.remove(k).expect("pending is not empty");
        let r = o.ticket.wait();
        complete(o, r);
        let mut k = 0;
        while k < pending.len() {
            if let Some(r) = pending[k].ticket.try_get() {
                let o = pending.remove(k).expect("index is in range");
                complete(o, r);
            } else {
                k += 1;
            }
        }
    }
    done
}

/// `serve_mixed`: an open loop at [`SERVE_RATE`] into
/// `xvi_serve::Server` over an in-memory service, from 4 tenants (the
/// first 10x hotter); 90% equality/range queries, 10% one-write commits.
pub fn serve_mixed(args: &Args, report: &mut Report, mut spans: Option<&mut SpanLog>) {
    let (inputs, server, reads, singles, schedule) = timed_setup(report, || {
        let (inputs, docs) = Inputs::new(args.seed);
        let svc = Arc::new(IndexService::new(ServiceConfig::default()));
        for (d, doc) in inputs.corpus.iter().zip(docs) {
            svc.insert_document(d.id.clone(), doc);
        }
        let reads = corpus::probes(
            &inputs.oracles,
            &inputs.xmark,
            READS,
            (67, 33, 0),
            args.seed,
        );
        // Every commit writes a node no other commit writes, so the
        // final value of each node is that of its only commit.
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5e_87e);
        let mut singles: Vec<(usize, NodeId)> = corpus::writable(&inputs.oracles, &reads)
            .into_iter()
            .enumerate()
            .flat_map(|(d, nodes)| nodes.into_iter().map(move |n| (d, n)))
            .collect();
        singles.shuffle(&mut rng);
        let n = (SERVE_RATE * args.seconds) as usize + 16;
        let (mut q, mut c) = (0usize, 0usize);
        let schedule: Vec<Scheduled> = (0..n)
            .map(|_| {
                let tenant = if rng.gen_range(0..13) < 10 {
                    0
                } else {
                    rng.gen_range(1..4)
                };
                let job = if rng.gen_range(0..10) == 0 {
                    c += 1;
                    Job::Commit(c - 1)
                } else {
                    q += 1;
                    Job::Query((q - 1) % reads.len())
                };
                Scheduled { tenant, job }
            })
            .collect();
        singles.truncate(c);
        let config = ServerConfig {
            tenant_queue: SERVE_TENANT_QUEUE,
            ..ServerConfig::default()
        };
        let server = Server::new(svc, config);
        (inputs, server, reads, singles, schedule)
    });
    let ids = inputs.ids();
    let svc = Arc::clone(server.service());
    let commits_before = svc.commit_count();
    let mut acked = Acked::default();
    let mut sides = Sides::default();
    let (mut hot, mut cold, mut late, mut submit) = <[Samples; 4]>::default().into();
    let mut rejected = 0u64;
    let mut offered = 0usize;
    let mut cache = (0i64, 0i64);
    let mut next = 0usize;
    let interval = 1.0 / SERVE_RATE;
    for (traced, seconds) in slices(args) {
        let mut log = if traced { spans.as_deref_mut() } else { None };
        let reaper_log = log.as_ref().map(|l| l.fork(1));
        let (tx, rx) = mpsc::channel::<Outstanding>();
        let mut lat = Latencies::default();
        let first = next;
        let n = ((seconds * SERVE_RATE) as usize).min(schedule.len() - first);
        next = first + n;
        cache_delta(&mut cache, &svc, &ids, -1);
        let start = Instant::now() + Duration::from_millis(5);
        let (completed, reaper_log) = std::thread::scope(|s| {
            let reaper = s.spawn(|| {
                let mut rl = reaper_log;
                let done = reap(rx, &schedule, rl.as_mut());
                (done, rl)
            });
            for i in 0..n {
                let index = first + i;
                let req = &schedule[index];
                let due = start + Duration::from_secs_f64(i as f64 * interval);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t = Instant::now();
                let request = match req.job {
                    Job::Query(p) => Request::Query {
                        doc: ids[reads[p].doc].clone(),
                        lookup: reads[p].lookup.clone(),
                    },
                    Job::Commit(c) => {
                        let (d, node) = singles[c];
                        let mut txn = svc.begin();
                        txn.set_value(node, corpus::write_value(index as u64, 0));
                        Request::Commit {
                            doc: ids[d].clone(),
                            txn,
                        }
                    }
                };
                let admitted = span(&mut log, "serve.submit", index as u64, || {
                    server.submit(TENANTS[req.tenant], request)
                });
                if !traced {
                    late.0
                        .push(t.saturating_duration_since(due).as_nanos() as u64);
                    submit.push(t);
                }
                match admitted {
                    Ok(ticket) => tx
                        .send(Outstanding { ticket, due, index })
                        .expect("the reaper is alive"),
                    Err(e) => {
                        rejected += 1;
                        report.check(false, || format!("request {index} refused: {e}"));
                    }
                }
            }
            drop(tx);
            reaper.join().expect("reaper thread panicked")
        });
        cache_delta(&mut cache, &svc, &ids, 1);
        if let (Some(l), Some(r)) = (log, reaper_log) {
            l.join(r);
        }
        // Throughput: completions over the time from the first due
        // time to the last completion, so a backlog lowers it.
        let last = completed.iter().map(|c| c.at).max().unwrap_or(start);
        let rate = completed.len() as f64
            / last
                .saturating_duration_since(start)
                .as_secs_f64()
                .max(1e-9);
        for c in completed {
            let req = &schedule[c.index];
            let block = ((c.index - first) as f64 * interval / BLOCK_S) as usize;
            match (&req.job, c.result) {
                (Job::Query(p), r) => {
                    let p = &reads[*p];
                    lat.push(p.class, block, c.latency_ns);
                    if !traced {
                        if req.tenant == 0 { &mut hot } else { &mut cold }
                            .0
                            .push(c.latency_ns);
                    }
                    report.check(
                        matches!(r, Ok(Response::Query(ref g)) if p.check(g.clone())),
                        || format!("serve query {} on {} gave {r:?}", p.lookup, ids[p.doc]),
                    );
                }
                (Job::Commit(k), r) => {
                    lat.commit.push(block, c.latency_ns);
                    let ok = matches!(r, Ok(Response::Commit(ref rc)) if rc.applied == 1);
                    report.check(ok, || format!("serve commit {} gave {r:?}", c.index));
                    if ok {
                        let (d, node) = singles[*k];
                        acked.record(
                            d,
                            c.index as u64,
                            vec![(node, corpus::write_value(c.index as u64, 0))],
                        );
                    }
                }
            }
        }
        if !traced {
            offered += n;
        }
        let cost = lat.eq.pooled_quantile_us(0.5) + lat.range.pooled_quantile_us(0.5);
        sides.add(traced, cost, vec![rate], lat);
    }
    sides.report(report);
    report.set("offered_per_s", SERVE_RATE, "1/s");
    report.set("gen.late_p50_us", late.quantile_us(0.5), "us");
    report.set("gen.late_p99_us", late.quantile_us(0.99), "us");
    report.set("serve.submit_call_us", submit.mean_us(), "us");
    report.set(
        "serve.rejected_frac",
        rejected as f64 / offered.max(1) as f64,
        "frac",
    );
    report.set(
        "serve.hot_cold_p99_ratio",
        hot.quantile_us(0.99) / cold.quantile_us(0.99),
        "ratio",
    );
    server.drain();
    let expected_commits = commits_before + acked.0.len() as u64;
    report.invariant(svc.commit_count() == expected_commits, || {
        format!(
            "commit_count {} but {expected_commits} commits were acknowledged",
            svc.commit_count()
        )
    });
    acked.verify(report, &svc, &ids);
    server.shutdown();
    drop(server);
    drop(svc);
    if args.trace {
        report_cache(report, cache);
        ladder::run(&inputs, args.seed, report, &mut spans);
    }
}
