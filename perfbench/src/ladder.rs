//! The layer ladder of the traced run: each layer's public function
//! timed on the workload's own inputs, bottom (XML parsing) to top
//! (the serving frontend), plus the deterministic counts of the
//! commit path under one client.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use xvi_fsm::{TypedAnalyzer, XmlType};
use xvi_index::{Document, IndexConfig, IndexManager, IndexService, NodeId, ServiceConfig};
use xvi_obs::{RegistrySnapshot, SampleValue};
use xvi_serve::{Request, Server, ServerConfig};
use xvi_xml::NodeKind;

use crate::corpus::{self, Class, Probe, TxnShape};
use crate::spans::{span, SpanLog};
use crate::workloads::Inputs;
use crate::{fresh_dir, median, wal_bytes, Report, Samples};

/// Reads the ladder times per query class.
const LADDER_READS: usize = 3_000;
/// Transactions the private copies and the WAL service commit.
const LADDER_TXNS: usize = 150;
/// Least time spent on each value-level microbenchmark.
const MIN_LOOP_S: f64 = 0.1;

/// Sum of a registry histogram's samples (ns) and their count.
fn summary(snap: &RegistrySnapshot, name: &str) -> (f64, u64) {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .find_map(|s| match &s.value {
            SampleValue::Summary(h, _) => Some((h.sum().as_nanos() as f64, h.count())),
            _ => None,
        })
        .unwrap_or((0.0, 0))
}

fn counter(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.counter(name, &[]).unwrap_or(0)
}

/// Times `f` over `items` repeatedly until [`MIN_LOOP_S`] has passed;
/// returns nanoseconds per item.
fn per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    let mut n = 0usize;
    while n == 0 || t.elapsed().as_secs_f64() < MIN_LOOP_S {
        for it in items {
            f(it);
        }
        n += items.len();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

pub fn run(inputs: &Inputs, seed: u64, report: &mut Report, spans: &mut Option<&mut SpanLog>) {
    let ids = inputs.ids();
    let corpus = &inputs.corpus;

    // xml: parse and serialize.
    let t = Instant::now();
    let docs: Vec<Document> = corpus
        .iter()
        .enumerate()
        .map(|(i, d)| {
            span(spans, "xml.parse", i as u64, || Document::parse(&d.xml))
                .expect("generated XML parses")
        })
        .collect();
    report.set(
        "xml.parse_ns_per_byte",
        t.elapsed().as_nanos() as f64 / inputs.xml_bytes() as f64,
        "ns",
    );
    let t = Instant::now();
    let out_bytes: usize = docs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            span(spans, "xml.serialize", i as u64, || {
                xvi_xml::serialize::to_string(d)
            })
            .len()
        })
        .sum();
    report.set(
        "xml.serialize_ns_per_byte",
        t.elapsed().as_nanos() as f64 / out_bytes as f64,
        "ns",
    );

    // hash and fsm: the H and C functions and the SCT states over
    // every text and attribute value.
    let values: Vec<&str> = docs
        .iter()
        .flat_map(|d| {
            (0..d.arena_size())
                .map(NodeId::from_index)
                .filter_map(move |n| match d.kind(n) {
                    NodeKind::Text(t) => Some(t.as_str()),
                    NodeKind::Attribute { value, .. } => Some(value.as_str()),
                    _ => None,
                })
        })
        .collect();
    let ns = span(spans, "hash.hash_str+combine", 0, || {
        let mut acc = xvi_hash::hash_str("");
        per_item(&values, |v| {
            acc = black_box(xvi_hash::combine(acc, xvi_hash::hash_str(black_box(v))))
        })
    });
    report.set("hash.ns_per_value", ns, "ns");
    let analyzer = TypedAnalyzer::new(XmlType::Double);
    let sct = analyzer.sct();
    let ns = span(spans, "fsm.state_of+combine", 0, || {
        let mut acc = Some(sct.identity());
        per_item(&values, |v| {
            acc = black_box(sct.combine(acc, sct.state_of(black_box(v))))
        })
    });
    report.set("fsm.ns_per_value", ns, "ns");

    // manager: index build and incremental maintenance on a private copy.
    let t = Instant::now();
    let managers: Vec<IndexManager> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            span(spans, "manager.build", i as u64, || {
                IndexManager::build(d, IndexConfig::default())
            })
        })
        .collect();
    let nodes: usize = docs.iter().map(|d| d.stats().total_nodes).sum();
    report.set(
        "manager.build_ns_per_node",
        t.elapsed().as_nanos() as f64 / nodes as f64,
        "ns",
    );

    let reads = corpus::probes(
        &inputs.oracles,
        &inputs.xmark,
        LADDER_READS,
        (60, 30, 10),
        seed ^ 0x1add,
    );
    let writable = corpus::writable(&inputs.oracles, &reads);
    let shapes = corpus::txn_shapes(&writable, &[1, 10, 100], LADDER_TXNS, seed ^ 0x1add);
    let mut copies: Vec<(Document, IndexManager)> =
        docs.iter().cloned().zip(managers.iter().cloned()).collect();
    let mut writes = 0usize;
    let t = Instant::now();
    for (k, shape) in shapes.iter().enumerate() {
        let (txn_writes, (doc, idx)) = (
            corpus::make_txn(shape, k as u64 + 1).1,
            &mut copies[shape.doc],
        );
        writes += txn_writes.len();
        span(spans, "manager.update_values", k as u64, || {
            idx.update_values(doc, txn_writes.iter().map(|(n, v)| (*n, v.as_str())))
        })
        .expect("update_values on a private copy");
    }
    report.set(
        "manager.update_us_per_write",
        t.elapsed().as_nanos() as f64 / 1e3 / writes as f64,
        "us",
    );
    drop(copies);

    // query: plan, probe and verify on the index itself.
    let mut by_class: HashMap<Class, Samples> = HashMap::new();
    let mut results = 0usize;
    let mut failed = 0usize;
    for (k, p) in reads.iter().enumerate() {
        let t = Instant::now();
        let got = span(spans, "manager.query", k as u64, || {
            managers[p.doc].query(&docs[p.doc], &p.lookup)
        });
        by_class.entry(p.class).or_default().push(t);
        match got {
            Ok(g) => {
                results += g.len();
                failed += usize::from(!p.check(g));
            }
            Err(_) => failed += 1,
        }
    }
    report.check(failed == 0, || {
        format!("ladder: {failed} index queries disagreed with the oracle")
    });
    for c in [Class::Eq, Class::Range, Class::XPath] {
        let us = by_class.get(&c).map_or(f64::NAN, Samples::mean_us);
        report.set(&format!("query.{}_us", c.name()), us, "us");
    }
    report.set(
        "query.results_per_op",
        results as f64 / reads.len() as f64,
        "count",
    );
    let xpaths: Vec<&Probe> = reads.iter().filter(|p| p.class == Class::XPath).collect();
    let ns = span(spans, "manager.estimate", 0, || {
        per_item(&xpaths, |p| {
            black_box(managers[p.doc].estimate(&p.lookup).expect("estimate"));
        })
    });
    report.set("query.estimate_us", ns / 1e3, "us");

    // service: the catalog's query path over the same index, timed
    // interleaved with the bare snapshot query.
    let svc = Arc::new(IndexService::new(ServiceConfig::default()));
    for (id, d) in ids.iter().zip(&docs) {
        svc.insert_document(id.clone(), d.clone());
    }
    let (mut through, mut direct) = (Samples::default(), Samples::default());
    for (k, p) in reads.iter().enumerate() {
        let t = Instant::now();
        black_box(span(spans, "service.query", k as u64, || {
            svc.query(&ids[p.doc], &p.lookup)
        }))
        .ok();
        through.push(t);
        let snap = svc.snapshot(&ids[p.doc]).expect("document is hosted");
        let t = Instant::now();
        black_box(snap.query(&p.lookup)).ok();
        direct.push(t);
    }
    report.set(
        "service.query_tax_us",
        through.mean_us() - direct.mean_us(),
        "us",
    );

    // serve: one closed-loop client through the frontend, against the
    // direct service call on the same probe.
    let server = Server::new(Arc::clone(&svc), ServerConfig::default());
    let (mut served, mut direct, mut submit) =
        (Samples::default(), Samples::default(), Samples::default());
    for (k, p) in reads.iter().filter(|p| p.class != Class::XPath).enumerate() {
        let request = Request::Query {
            doc: ids[p.doc].clone(),
            lookup: p.lookup.clone(),
        };
        let t = Instant::now();
        let ticket = span(spans, "serve.submit", k as u64, || {
            server.submit("ladder", request)
        })
        .expect("admitted");
        submit.push(t);
        black_box(span(spans, "serve.wait", k as u64, || ticket.wait())).ok();
        served.push(t);
        let t = Instant::now();
        black_box(svc.query(&ids[p.doc], &p.lookup)).ok();
        direct.push(t);
    }
    server.shutdown();
    drop(server);
    report.set("serve.submit_us", submit.mean_us(), "us");
    report.set(
        "serve.tax_us",
        served.quantile_us(0.5) - direct.quantile_us(0.5),
        "us",
    );
    drop(svc);

    // The durable commit path: WAL inserts, checkpoint, image load,
    // commits under one client, then replay.
    let dir = fresh_dir("ladder");
    let counts = durable_path(&ids, &docs, &shapes, &dir, report, spans);
    report.set("btree.pages_detached_per_commit", counts.0, "count");
    report.set("wal.bytes_per_write", counts.1, "bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the WAL ladder in `dir`; returns (pages detached per commit,
/// WAL bytes per write), both deterministic for a fixed input.
fn durable_path(
    ids: &[String],
    docs: &[Document],
    shapes: &[TxnShape],
    dir: &Path,
    report: &mut Report,
    spans: &mut Option<&mut SpanLog>,
) -> (f64, f64) {
    let config = || ServiceConfig::default().with_wal(dir);
    let svc = IndexService::open(config()).expect("open an empty WAL service");
    for (i, (id, d)) in ids.iter().zip(docs).enumerate() {
        span(spans, "service.insert_document", i as u64, || {
            svc.insert_document(id.clone(), d.clone())
        });
    }
    let t = Instant::now();
    span(spans, "persist.checkpoint", 0, || svc.checkpoint()).expect("checkpoint");
    report.set("persist.checkpoint_s", t.elapsed().as_secs_f64(), "s");

    // One client, one commit at a time, a snapshot pinned across each
    // commit so the publish is copy-on-write.
    let half = shapes.len() / 2;
    let (mut detached, mut writes) = (0u64, 0usize);
    let wal0 = wal_bytes(dir);
    let obs0 = svc.obs().registry.snapshot();
    let mut acked: Vec<(usize, Vec<(NodeId, String)>)> = Vec::new();
    for (k, shape) in shapes[..half].iter().enumerate() {
        let id = &ids[shape.doc];
        let pinned = svc.snapshot(id).expect("document is hosted");
        let before = pinned.index().pages_detached();
        let (txn, w) = corpus::make_txn(shape, k as u64 + 1);
        let r = span(spans, "service.commit", k as u64, || svc.commit(id, txn));
        report.check(matches!(r, Ok(ref rc) if rc.applied == w.len()), || {
            format!("ladder commit {k}: {r:?}")
        });
        let after = svc
            .snapshot(id)
            .expect("document is hosted")
            .index()
            .pages_detached();
        detached += after - before;
        writes += w.len();
        acked.push((shape.doc, w));
        drop(pinned);
    }
    let wal_per_write = (wal_bytes(dir) - wal0) as f64 / writes as f64;
    // A window of open commits, as the `update_durable` writer keeps,
    // so batches can form.
    let mut open = std::collections::VecDeque::new();
    for (k, shape) in shapes[half..].iter().enumerate() {
        let seq = (half + k) as u64 + 1;
        let (txn, w) = corpus::make_txn(shape, seq);
        open.push_back((svc.submit(&ids[shape.doc], txn), shape.doc, w));
        if open.len() >= crate::workloads::WINDOW {
            let (ticket, doc, w) = open.pop_front().expect("window is full");
            let r = span(spans, "service.commit_wait", seq, || ticket.wait());
            report.check(r.is_ok(), || format!("ladder windowed commit: {r:?}"));
            acked.push((doc, w));
        }
    }
    for (ticket, doc, w) in open {
        let r = ticket.wait();
        report.check(r.is_ok(), || format!("ladder windowed commit: {r:?}"));
        acked.push((doc, w));
    }
    let obs1 = svc.obs().registry.snapshot();
    let commits =
        counter(&obs1, "xvi_service_commits_total") - counter(&obs0, "xvi_service_commits_total");
    let batches = counter(&obs1, "xvi_service_commit_batches_total")
        - counter(&obs0, "xvi_service_commit_batches_total");
    let (pub1, _) = summary(&obs1, "xvi_service_publish_seconds");
    let (pub0, _) = summary(&obs0, "xvi_service_publish_seconds");
    let (_, fs1) = summary(&obs1, "xvi_service_wal_fsync_seconds");
    let (_, fs0) = summary(&obs0, "xvi_service_wal_fsync_seconds");
    report.set(
        "service.batch_size",
        commits as f64 / batches.max(1) as f64,
        "count",
    );
    report.set(
        "service.publish_us",
        (pub1 - pub0) / 1e3 / batches.max(1) as f64,
        "us",
    );
    report.set(
        "wal.fsyncs_per_commit",
        (fs1 - fs0) as f64 / commits.max(1) as f64,
        "count",
    );
    let commit_count = svc.commit_count();
    drop(svc);

    // Each reopen loads the images and replays every commit above.
    let mut times = Vec::new();
    let mut last = None;
    for r in 0..3 {
        drop(last.take());
        let t = Instant::now();
        last = Some(
            span(spans, "recovery.open", r, || IndexService::open(config()))
                .expect("reopen with replay"),
        );
        times.push(t.elapsed().as_secs_f64());
    }
    let svc = last.expect("reopened");
    report.invariant(svc.commit_count() == commit_count, || {
        format!(
            "ladder: commit_count {} after replay, {commit_count} before",
            svc.commit_count()
        )
    });
    let mut last_value: HashMap<(usize, NodeId), &str> = HashMap::new();
    for (doc, w) in &acked {
        for (n, v) in w {
            last_value.insert((*doc, *n), v);
        }
    }
    let lost = last_value
        .iter()
        .filter(|((doc, n), v)| {
            svc.read(&ids[*doc], |d, _| d.string_value(*n)).as_deref() != Some(**v)
        })
        .count();
    report.invariant(lost == 0, || {
        format!("ladder: {lost} acknowledged writes lost in replay")
    });
    // A checkpoint of the recovered state leaves an empty log, so the
    // next open loads images only.
    svc.checkpoint().expect("checkpoint the recovered state");
    drop(svc);
    let t = Instant::now();
    let svc = span(spans, "persist.open_images", 0, || {
        IndexService::open(config())
    })
    .expect("reopen from images");
    let image_load = t.elapsed().as_secs_f64();
    report.set("persist.image_load_s", image_load, "s");
    report.invariant(svc.commit_count() == commit_count, || {
        format!(
            "ladder: commit_count {} after image load, {commit_count} before",
            svc.commit_count()
        )
    });
    drop(svc);
    let replay = (median(times) - image_load).max(0.0);
    report.set(
        "recovery.replay_us_per_record",
        replay * 1e6 / shapes.len() as f64,
        "us",
    );
    (detached as f64 / half as f64, wal_per_write)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic counts of the commit path under one client, for a
    /// fixed seed: they repeat exactly from run to run.
    #[derive(Debug, PartialEq)]
    struct Counts {
        results_per_op: f64,
        pages_detached_per_commit: f64,
        wal_bytes_per_write: f64,
        disk_bytes_per_xml_byte: f64,
    }

    /// The deterministic counts the ladder reports, for `seed` at a
    /// small scale.
    fn counts(seed: u64, scale_permille: u32) -> Counts {
        let corpus = corpus::generate(seed, scale_permille);
        let docs = corpus::parse_all(&corpus);
        let oracles: Vec<_> = docs.iter().map(corpus::DocOracle::build).collect();
        let xmark: Vec<bool> = corpus.iter().map(|d| d.xmark).collect();
        let ids: Vec<String> = corpus.iter().map(|d| d.id.clone()).collect();
        let reads = corpus::probes(&oracles, &xmark, 500, (60, 30, 10), seed);
        let managers: Vec<IndexManager> = docs
            .iter()
            .map(|d| IndexManager::build(d, IndexConfig::default()))
            .collect();
        let results: usize = reads
            .iter()
            .map(|p| {
                managers[p.doc]
                    .query(&docs[p.doc], &p.lookup)
                    .expect("query")
                    .len()
            })
            .sum();
        let writable = corpus::writable(&oracles, &reads);
        let shapes = corpus::txn_shapes(&writable, &[1, 10, 100], 30, seed);
        let dir = fresh_dir(&format!("counts-{seed}-{scale_permille}"));
        let mut report = Report::default();
        let (pages, wal) = durable_path(&ids, &docs, &shapes, &dir, &mut report, &mut None);
        assert_eq!(report.failed, 0, "{:?}", report.mismatches);
        let _ = std::fs::remove_dir_all(&dir);
        let dir = fresh_dir(&format!("counts-disk-{seed}-{scale_permille}"));
        let svc = IndexService::open(ServiceConfig::default().with_wal(&dir)).expect("open");
        for (id, d) in ids.iter().zip(docs) {
            svc.insert_document(id.clone(), d);
        }
        svc.checkpoint().expect("checkpoint");
        let disk = crate::dir_bytes(&dir) as f64 / corpus::xml_bytes(&corpus) as f64;
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
        Counts {
            results_per_op: results as f64 / reads.len() as f64,
            pages_detached_per_commit: pages,
            wal_bytes_per_write: wal,
            disk_bytes_per_xml_byte: disk,
        }
    }

    /// The deterministic counts the benchmark reports next to its
    /// wall-clock times repeat exactly for a fixed seed.
    #[test]
    fn counts_repeat_exactly_for_a_fixed_seed() {
        let a = counts(7, 5);
        let b = counts(7, 5);
        assert_eq!(a, b);
        assert!(
            a.results_per_op > 0.0 && a.pages_detached_per_commit > 0.0,
            "{a:?}"
        );
        assert!(
            a.wal_bytes_per_write > 0.0 && a.disk_bytes_per_xml_byte > 0.0,
            "{a:?}"
        );
    }
}
