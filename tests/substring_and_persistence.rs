//! Integration coverage for the §7 substring index, a beyond-the-paper
//! feature, through the public facade.

use xvi::datagen::Dataset;
use xvi::prelude::*;

#[test]
fn substring_search_on_wiki_urls() {
    let xml = Dataset::Wiki.generate(10);
    let doc = Document::parse(&xml).unwrap();
    let idx = IndexManager::build(&doc, IndexConfig::string_only().with_substring_index());

    // Every URL contains the common prefix.
    let all_urls = idx
        .query(&doc, &Lookup::contains("http://en.wikipedia.org/wiki/"))
        .unwrap();
    assert!(all_urls.len() > 100);
    for &n in &all_urls {
        assert!(doc
            .direct_value(n)
            .unwrap()
            .contains("http://en.wikipedia.org/wiki/"));
    }

    // A rarer needle narrows it down; results equal the naive scan.
    let fast = idx.query(&doc, &Lookup::contains("family_000000")).unwrap();
    let slow: Vec<NodeId> = doc
        .descendants(doc.document_node())
        .filter(|&n| {
            doc.direct_value(n)
                .is_some_and(|v| v.contains("family_000000"))
        })
        .collect();
    let mut slow = slow;
    slow.sort();
    assert_eq!(fast, slow);
}

#[test]
fn substring_survives_update_workloads() {
    let xml = Dataset::Dblp.generate(5);
    let mut doc = Document::parse(&xml).unwrap();
    let mut idx = IndexManager::build(&doc, IndexConfig::default().with_substring_index());
    let w = xvi::datagen::UpdateWorkload::generate(&doc, 100, 77);
    idx.update_values(&mut doc, w.as_pairs()).unwrap();
    idx.verify_against(&doc).unwrap();
    // A value written by the workload is findable by substring.
    if let Some((node, value)) = w.updates.iter().find(|(_, v)| v.len() >= 3) {
        assert!(idx
            .query(&doc, &Lookup::contains(value))
            .unwrap()
            .contains(node));
    }
}
