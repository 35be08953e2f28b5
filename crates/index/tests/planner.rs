//! Integration tests of the cost-based planner: plan shapes driven by
//! real selectivity differences on a generated document, equivalence
//! of every plan shape with the scan baseline, and the estimate
//! surface across the manager/snapshot/service layers.

use xvi_index::{
    Document, IndexConfig, IndexManager, IndexService, Lookup, Plan, QueryEngine, ServiceConfig,
};

/// A synthetic "people" document with controlled selectivities:
/// every person shares `<education>` (unselective), ages spread over
/// 18..=77 (moderately selective per value), and each `<name>` is
/// unique (maximally selective).
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

fn setup(n: usize) -> (Document, IndexManager) {
    let doc = people_doc(n);
    let idx = IndexManager::build(&doc, IndexConfig::default());
    (doc, idx)
}

/// The paper-motivated adversarial case: the *last* predicate is the
/// least selective one, and the cost-based planner must not fall for
/// it.
#[test]
fn least_selective_last_predicate_is_not_chosen() {
    let (doc, idx) = setup(120);
    let q =
        QueryEngine::parse("//person[.//age = 42][.//education = \"Graduate School\"]").unwrap();
    let probes = QueryEngine::candidate_probes(&idx, &q);
    assert_eq!(probes.len(), 2, "both predicates enumerated");

    let plan = QueryEngine::plan(&idx, &q);
    let Plan::Index(probe) = &plan else {
        panic!("expected a single index probe, got {plan}");
    };
    assert!(
        matches!(probe.lookup, Lookup::RangeF64(_)),
        "the selective age probe must win, got {}",
        probe.lookup
    );

    // The education probe's actual candidate count dwarfs the age
    // probe's — the selectivity gap the planner exploited.
    let edu = idx
        .query(&doc, &Lookup::equi("Graduate School"))
        .unwrap()
        .len();
    let age = idx.query(&doc, &probe.lookup).unwrap().len();
    assert!(
        edu >= 10 * age.max(1),
        "education candidates ({edu}) should dwarf age candidates ({age})"
    );

    let fast = QueryEngine::evaluate(&doc, &idx, &q);
    assert_eq!(fast, QueryEngine::evaluate_scan(&doc, &q));
    assert_eq!(fast.len(), 2, "ages cycle every 60 persons");
}

/// The unselective predicate's estimate is *exact* — `count_range`
/// over the string index's B+tree summaries — so the planner's
/// ranking rests on real numbers.
#[test]
fn unselective_estimate_is_exact() {
    let (doc, idx) = setup(120);
    let est = idx.estimate(&Lookup::equi("Graduate School")).unwrap();
    let actual = idx
        .query(&doc, &Lookup::equi("Graduate School"))
        .unwrap()
        .len();
    assert_eq!(est.estimate, actual, "equality estimates are exact");
    assert_eq!(est.lower, est.upper);
}

/// Every plan shape the planner can emit agrees with the scan
/// baseline on the same query.
#[test]
fn all_plan_shapes_agree_with_scan() {
    let (doc, idx) = setup(60);
    let q =
        QueryEngine::parse("//person[.//age = 40][.//education = \"Graduate School\"]").unwrap();
    let scan = QueryEngine::evaluate_scan(&doc, &q);
    let probes = QueryEngine::candidate_probes(&idx, &q);
    assert_eq!(probes.len(), 2);
    // Forced single-probe plans, one per predicate.
    for p in &probes {
        let plan = Plan::Index(p.clone());
        assert_eq!(
            QueryEngine::evaluate_with_plan(&doc, &idx, &q, &plan),
            scan,
            "probe {} diverged",
            p.lookup
        );
    }
    // Forced intersection.
    let plan = Plan::Intersect(probes[0].clone(), probes[1].clone());
    assert_eq!(QueryEngine::evaluate_with_plan(&doc, &idx, &q, &plan), scan);
    // Forced scan.
    assert_eq!(
        QueryEngine::evaluate_with_plan(&doc, &idx, &q, &Plan::Scan),
        scan
    );
    // And whatever the planner actually picks.
    assert_eq!(QueryEngine::evaluate(&doc, &idx, &q), scan);
}

/// A forced plan that does not address this query — a probe with an
/// out-of-range step or predicate index, or an intersection whose
/// probes sit on different steps — degrades to the scan answer
/// instead of panicking or intersecting unrelated anchor sets.
#[test]
fn malformed_forced_plans_degrade_to_scan() {
    let (doc, idx) = setup(30);
    let q =
        QueryEngine::parse("//person[.//age = 40][.//education = \"Graduate School\"]").unwrap();
    let scan = QueryEngine::evaluate_scan(&doc, &q);
    let probes = QueryEngine::candidate_probes(&idx, &q);

    let mut beyond_step = probes[0].clone();
    beyond_step.step = 99;
    let mut beyond_pred = probes[0].clone();
    beyond_pred.pred = 99;
    // Servable lookup, but not the addressed predicate's lowering:
    // evaluating it would silently drop the real matches.
    let mut forged_lookup = probes[0].clone();
    forged_lookup.lookup = Lookup::equi("no such value");
    for plan in [
        Plan::Index(beyond_step.clone()),
        Plan::Index(beyond_pred.clone()),
        Plan::Index(forged_lookup),
        Plan::Intersect(probes[0].clone(), beyond_step),
    ] {
        assert_eq!(
            QueryEngine::evaluate_with_plan(&doc, &idx, &q, &plan),
            scan,
            "{plan}"
        );
    }
    // An intersection across *different* steps of another query shape
    // is likewise rejected (the plan cannot mean anything sound).
    let q2 = QueryEngine::parse("//person[.//age = 40]/profile[.//age = 40]").unwrap();
    let probes2 = QueryEngine::candidate_probes(&idx, &q2);
    assert_eq!(probes2.len(), 2);
    assert_ne!(probes2[0].step, probes2[1].step);
    let cross = Plan::Intersect(probes2[0].clone(), probes2[1].clone());
    assert_eq!(
        QueryEngine::evaluate_with_plan(&doc, &idx, &q2, &cross),
        QueryEngine::evaluate_scan(&doc, &q2)
    );
}

/// The scan threshold governs whether an unselective lone predicate
/// is probed at all.
#[test]
fn scan_threshold_governs_unselective_probe() {
    let (_, idx) = setup(120);
    let q = QueryEngine::parse("//person[.//education = \"Graduate School\"]").unwrap();
    // The education probe covers every person — about a quarter of
    // the document's nodes, exactly as its estimate (exact through
    // `count_range`) says — so under the scan threshold (half the
    // nodes) the probe still wins …
    let est = idx.estimate(&Lookup::equi("Graduate School")).unwrap();
    assert_eq!(est.estimate, 240);
    assert!(matches!(QueryEngine::plan(&idx, &q), Plan::Index(_)));
    // … but where it covers more than half of the nodes, the planner
    // scans, and the scan answers.
    let mut xml = String::from("<site>");
    for _ in 0..120 {
        xml.push_str("<person><education>Graduate School</education></person>");
    }
    xml.push_str("</site>");
    let doc = Document::parse(&xml).unwrap();
    let idx = IndexManager::build(&doc, IndexConfig::default());
    let est = idx.estimate(&Lookup::equi("Graduate School")).unwrap();
    assert!(2 * est.estimate > idx.approx_node_count(), "{est:?}");
    assert_eq!(QueryEngine::plan(&idx, &q), Plan::Scan);
    let hits = QueryEngine::evaluate(&doc, &idx, &q);
    assert_eq!(hits, QueryEngine::evaluate_scan(&doc, &q));
    assert_eq!(hits.len(), 120);
}

/// Estimates are served identically by the manager, the document
/// snapshot, the service entry point, and (summed) the catalog-wide
/// snapshot.
#[test]
fn estimate_surface_agrees_across_layers() {
    let doc = people_doc(40);
    let service = IndexService::new(ServiceConfig::with_shards(2));
    service.insert_document("a", doc.clone());
    service.insert_document("b", doc.clone());
    let idx = IndexManager::build(&doc, IndexConfig::default());

    for lookup in [
        Lookup::equi("Graduate School"),
        Lookup::equi("name7"),
        Lookup::range_f64(30.0..40.0),
    ] {
        let direct = idx.estimate(&lookup).unwrap();
        let snap = service.snapshot("a").unwrap().estimate(&lookup).unwrap();
        let svc = service.estimate("a", &lookup).unwrap();
        assert_eq!(direct, snap, "{lookup}");
        assert_eq!(direct, svc, "{lookup}");
        let fanout = service.snapshot_all().estimate(&lookup);
        assert_eq!(fanout, direct.sum(direct), "{lookup}: two identical docs");
    }
    assert!(service.estimate("nope", &Lookup::equi("x")).is_err());

    // Estimates stay aligned with truth across commits.
    let node = service
        .read("a", |doc, idx| {
            idx.query(doc, &Lookup::equi("name7"))
                .unwrap()
                .into_iter()
                .find(|&n| doc.direct_value(n).is_some())
                .unwrap()
        })
        .unwrap();
    let mut txn = service.begin();
    txn.set_value(node, "Graduate School");
    service.commit("a", txn).unwrap();
    let est = service.estimate("a", &Lookup::equi("name7")).unwrap();
    let actual = service.query("a", &Lookup::equi("name7")).unwrap().len();
    assert!(est.lower <= actual && actual <= est.upper);
}

/// `Lookup::XPath` estimates report the chosen plan's expected work
/// (probe cardinality, or the document scale for scans) — with
/// deliberately vacuous bounds, since a query's result count is not
/// bounded by its probe's candidates.
#[test]
fn xpath_lookup_estimates() {
    let (doc, idx) = setup(60);
    let probe = idx
        .estimate(&Lookup::xpath("//person[.//age = 42]").unwrap())
        .unwrap();
    assert!(probe.estimate < idx.approx_node_count());
    let scan = idx
        .estimate(&Lookup::xpath("//person[years]").unwrap())
        .unwrap();
    assert_eq!(scan.estimate, idx.approx_node_count());
    // The bounds must hold for the actual result count — including
    // queries whose trailing steps fan out far beyond the probe, and
    // the no-index configuration where every plan is a scan.
    for q in ["//person[.//age = 40]//*", "//person[.//age = 42]"] {
        let lookup = Lookup::xpath(q).unwrap();
        let est = idx.estimate(&lookup).unwrap();
        let results = idx.query(&doc, &lookup).unwrap().len();
        assert!(
            est.lower <= results && results <= est.upper,
            "{q}: {results} outside [{}, {}]",
            est.lower,
            est.upper
        );
    }
    let bare = IndexManager::build(&doc, IndexConfig::typed_only(&[]));
    let lookup = Lookup::xpath("//person").unwrap();
    let est = bare.estimate(&lookup).unwrap();
    let results = bare.query(&doc, &lookup).unwrap().len();
    assert!(results > 0 && est.lower <= results && results <= est.upper);
}

/// Two moderately selective same-step predicates intersect under the
/// default configuration once their cardinalities are real (not just
/// toy counts), and the intersection still answers exactly.
#[test]
fn default_config_intersects_mid_selectivity_predicates() {
    // 2400 persons: an age probe matches ~40 persons × 2 nodes ≈ 80
    // candidates (past intersect_min), and a month probe is within the
    // intersect factor of that, so the two-sided plan wins.
    let mut xml = String::from("<people>");
    for i in 0..2400 {
        xml.push_str(&format!(
            "<person><age>{}</age><month>m{}</month></person>",
            18 + (i % 60),
            i % 12
        ));
    }
    xml.push_str("</people>");
    let doc = Document::parse(&xml).unwrap();
    let idx = IndexManager::build(&doc, IndexConfig::default());
    let q = QueryEngine::parse("//person[.//age = 42][.//month = \"m3\"]").unwrap();
    let plan = QueryEngine::plan(&idx, &q);
    // With ~80 vs ~400 candidates inside the 8x factor, the default
    // config intersects — and the intersection still answers exactly.
    assert!(matches!(plan, Plan::Intersect(_, _)), "got {plan}");
    let fast = QueryEngine::evaluate_with_plan(&doc, &idx, &q, &plan);
    assert_eq!(fast, QueryEngine::evaluate_scan(&doc, &q));
}
