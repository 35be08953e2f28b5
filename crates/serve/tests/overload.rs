//! Admission control under overload: full queues produce typed
//! rejections, never deadlocks, and never a silently dropped commit.

use std::sync::Arc;
use std::time::Duration;

use xvi_index::{IndexService, Lookup, ServiceConfig};
use xvi_serve::{Request, Response, ServeError, Server, ServerConfig};
use xvi_xml::Document;

fn service(shards: usize, max_queue: usize) -> Arc<IndexService> {
    let service = Arc::new(IndexService::new(
        ServiceConfig::with_shards(shards).with_max_queue(max_queue),
    ));
    for id in ["a", "b", "c", "d"] {
        service.insert_document(
            id,
            Document::parse("<r><name>Arthur</name><age>42</age></r>").unwrap(),
        );
    }
    service
}

/// A one-write transaction against `doc`'s first value node. (Empty
/// transactions short-circuit before the pipeline, so counting what
/// actually landed needs real writes.)
fn commit(service: &IndexService, doc: &str) -> Request {
    let node = service
        .read(doc, |d, _| {
            d.descendants_or_self(d.document_node())
                .find(|&n| d.kind(n).has_direct_value())
                .unwrap()
        })
        .unwrap();
    let mut txn = service.begin();
    txn.set_value(node, "updated");
    Request::Commit {
        doc: doc.into(),
        txn,
    }
}

/// A paused server admits exactly `tenant_queue` requests per tenant,
/// rejects the next with a typed, actionable error, and still
/// completes everything admitted once dispatch resumes.
#[test]
fn full_tenant_queue_rejects_typed_and_recovers() {
    let server = Server::new(
        service(2, 4096),
        ServerConfig {
            tenant_queue: 4,
            start_paused: true,
            ..ServerConfig::default()
        },
    );
    let admitted: Vec<_> = (0..4)
        .map(|_| server.submit("t1", commit(server.service(), "a")).unwrap())
        .collect();

    let err = server
        .submit("t1", commit(server.service(), "a"))
        .unwrap_err();
    match err {
        ServeError::Overloaded { retry_after } => {
            assert!(retry_after >= Duration::from_micros(80));
            assert!(retry_after <= Duration::from_millis(50));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Tenant isolation: a different tenant's queue is unaffected.
    let other = server.submit("t2", commit(server.service(), "b")).unwrap();

    let stats = server.stats();
    assert_eq!(stats.admitted, 5);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.queue_depth, 5);

    server.resume();
    server.drain();
    // Every admitted request records exactly one latency sample.
    assert_eq!(server.stats().latency.count(), 5);
    for t in admitted.iter().chain([&other]) {
        assert!(matches!(t.try_get(), Some(Ok(Response::Commit(_)))));
    }
    assert_eq!(server.stats().completed, 5);
    assert_eq!(server.service().commit_count(), 5);
    server.shutdown();
}

/// Saturate a single shard whose submission queue holds only 2
/// entries. The serve layer's retry-with-backoff must absorb the shard
/// rejections: every admitted commit eventually lands exactly once —
/// the commit counter equals the number of Ok receipts — and no
/// ticket waits forever.
#[test]
fn shard_overload_retries_and_never_drops_commits() {
    let server = Server::new(
        service(1, 2),
        ServerConfig {
            workers: 4,
            max_in_flight: 32,
            tenant_queue: 256,
            commit_retries: 1000,
            ..ServerConfig::default()
        },
    );
    let tickets: Vec<_> = (0..60)
        .map(|i| {
            let tenant = ["t1", "t2", "t3"][i % 3];
            let doc = ["a", "b", "c", "d"][i % 4];
            server
                .submit(tenant, commit(server.service(), doc))
                .unwrap()
        })
        .collect();
    let mut ok = 0u64;
    for t in &tickets {
        match t.wait() {
            Ok(Response::Commit(_)) => ok += 1,
            other => panic!("commit neither completed nor typed-failed: {other:?}"),
        }
    }
    assert_eq!(ok, 60, "every admitted commit must land");
    assert_eq!(
        server.service().commit_count(),
        60,
        "no duplicates, no drops"
    );
    server.shutdown();
}

/// Mixed queries and commits under the same saturation: queries keep
/// being served while the write path backs off.
#[test]
fn queries_survive_write_overload() {
    let server = Server::new(
        service(1, 2),
        ServerConfig {
            workers: 4,
            max_in_flight: 16,
            commit_retries: 1000,
            ..ServerConfig::default()
        },
    );
    let mut tickets = Vec::new();
    for i in 0..40 {
        tickets.push(
            server
                .submit("w", commit(server.service(), ["a", "b"][i % 2]))
                .unwrap(),
        );
        tickets.push(
            server
                .submit(
                    "r",
                    // Probe a value the commits never touch (they
                    // rewrite the name text, not the age).
                    Request::Query {
                        doc: "a".into(),
                        lookup: Lookup::equi("42"),
                    },
                )
                .unwrap(),
        );
    }
    let mut queries = 0;
    for t in tickets {
        match t.wait().expect("no admitted request may be dropped") {
            Response::Commit(_) => {}
            Response::Query(hits) => {
                assert!(!hits.is_empty());
                queries += 1;
            }
        }
    }
    assert_eq!(queries, 40);
    server.shutdown();
}

/// After shutdown begins, submission fails closed — typed, not hung.
#[test]
fn closed_server_rejects_new_work() {
    let server = Server::new(service(2, 4096), ServerConfig::default());
    server.shutdown();
    assert!(matches!(
        server.submit("t", commit(server.service(), "a")),
        Err(ServeError::Closed)
    ));
}
