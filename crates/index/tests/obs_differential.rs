//! Observability must be free of observer effects: the same workload
//! run with the tracer disabled and at sample rate 1.0 must produce
//! byte-identical results, receipts and persisted state — and a
//! traced query's recorded stages must tile its end-to-end latency.

use xvi_index::{Document, IndexConfig, IndexService, Lookup, NodeId, ServiceConfig};
use xvi_xml::NodeKind;

mod common;
use common::SlotState;

fn people_doc(n: usize) -> Document {
    let mut xml = String::from("<site><people>");
    for i in 0..n {
        xml.push_str(&format!(
            "<person><name>name{i}</name><profile>\
             <education>Graduate School</education>\
             <age>{}</age></profile></person>",
            18 + (i % 60)
        ));
    }
    xml.push_str("</people></site>");
    Document::parse(&xml).unwrap()
}

fn text_nodes(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.document_node())
        .filter(|&n| matches!(doc.kind(n), NodeKind::Text(_)))
        .collect()
}

fn lookups() -> Vec<Lookup> {
    vec![
        Lookup::equi("name7"),
        Lookup::equi("Graduate School"),
        Lookup::range_f64(20.0..30.0),
        Lookup::contains("ame1"),
        Lookup::xpath("//person[.//age = 42]").unwrap(),
        Lookup::xpath("//person[name = \"name3\"]").unwrap(),
        Lookup::xpath("//person[.//age >= 18][education = \"Graduate School\"]").unwrap(),
        Lookup::xpath("//person").unwrap(),
    ]
}

/// Runs the canonical mixed workload and returns every observable
/// output: commit receipts, query results, and the final state
/// fingerprint `(version, serialized XML, per-node index state)`.
#[allow(clippy::type_complexity)]
fn run_workload(
    service: &IndexService,
) -> (
    Vec<(u64, usize)>,
    Vec<Vec<NodeId>>,
    Vec<(u64, String, (IndexConfig, Vec<SlotState>))>,
) {
    service.insert_document("doc", people_doc(40));
    let nodes = service.read("doc", |doc, _| text_nodes(doc)).unwrap();

    let mut receipts = Vec::new();
    let mut results = Vec::new();
    for round in 0..6 {
        let mut txn = service.begin();
        txn.set_value(nodes[round * 3 % nodes.len()], format!("edit{round}"));
        txn.set_value(
            nodes[(round * 7 + 1) % nodes.len()],
            format!("{}", 30 + round),
        );
        let receipt = service.commit("doc", txn).unwrap();
        receipts.push((receipt.version, receipt.applied));

        for lookup in lookups() {
            results.push(service.query("doc", &lookup).unwrap());
        }
    }

    let mut state = Vec::new();
    for (_, snap) in service.snapshot_all().iter() {
        state.push((
            snap.version(),
            xvi_xml::serialize::to_string(snap.document()),
            common::index_state(snap.document(), snap.index()),
        ));
    }
    (receipts, results, state)
}

fn config() -> ServiceConfig {
    ServiceConfig::with_shards(2).with_index(IndexConfig::default().with_substring_index())
}

/// Sampling every request must not perturb a single byte of output:
/// tracing observes the pipeline, it never participates in it.
#[test]
fn traced_run_is_byte_identical_to_untraced() {
    let untraced = IndexService::new(config());
    assert!(!untraced.obs().tracer.enabled());
    let baseline = run_workload(&untraced);

    let traced = IndexService::new(config());
    traced.obs().tracer.set_sample_rate(1.0);
    let observed = run_workload(&traced);

    assert_eq!(baseline, observed);
    // The traced run actually exercised the tracer.
    assert!(traced.obs().tracer.recorder().finished_count() > 0);
    assert!(untraced.obs().tracer.recorder().finished_count() == 0);
}

/// A traced query's stage breakdown (plan, probe, verify-walk) must
/// account for its end-to-end latency to within 10% — the flight
/// recorder's numbers have to be trustworthy before they are used to
/// explain slow requests.
#[test]
fn traced_query_stages_tile_total_latency() {
    let service = IndexService::new(config());
    service.obs().tracer.set_sample_rate(1.0);
    // Large enough that the traced stages (probe + verify walk over
    // every person) dominate the untimed prologue by orders of
    // magnitude.
    service.insert_document("doc", people_doc(4000));

    let lookup = Lookup::xpath("//person[.//age >= 18]").unwrap();
    let hits = service.query("doc", &lookup).unwrap();
    assert_eq!(hits.len(), 4000);

    let slowest = service
        .obs()
        .tracer
        .recorder()
        .slowest()
        .into_iter()
        .filter(|t| t.kind == "query")
        .max_by_key(|t| t.total_ns)
        .expect("query trace recorded");
    assert!(slowest.total_ns > 0);
    let sum = slowest.stage_sum_ns();
    let gap = slowest.total_ns.abs_diff(sum);
    assert!(
        gap * 10 <= slowest.total_ns,
        "stage sum {}ns must tile total {}ns within 10% (gap {}ns)\n{}",
        sum,
        slowest.total_ns,
        gap,
        slowest.render()
    );
}
