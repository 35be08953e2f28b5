//! The §5.1 protocol: transactions buffer value writes without
//! touching (or locking) any ancestor; commits repair ancestors from
//! the latest committed state. Because the combination function `C`
//! is associative and updates commute, concurrent commits converge to
//! the same index no matter the order. One document on a one-shard
//! [`IndexService`] is the single-document case.
//!
//! ```sh
//! cargo run --example transactional_updates
//! ```

use std::sync::Arc;

use xvi::datagen::Dataset;
use xvi::prelude::*;
use xvi::xml::NodeKind;

fn main() {
    let xml = Dataset::XMark(1).generate(50);
    let doc = Document::parse(&xml).expect("generated XML parses");

    // Collect some age text nodes to fight over.
    let targets: Vec<NodeId> = doc
        .descendants(doc.document_node())
        .filter(|&n| doc.name(n) == Some("age"))
        .filter_map(|age| doc.first_child(age))
        .filter(|&t| matches!(doc.kind(t), NodeKind::Text(_)))
        .take(64)
        .collect();
    println!("updating {} <age> values from 8 threads…", targets.len());

    let store = Arc::new(IndexService::new(ServiceConfig::with_shards(1)));
    store.insert_document("auction", doc);

    let handles: Vec<_> = (0..8u64)
        .map(|thread| {
            let store = Arc::clone(&store);
            let targets = targets.clone();
            std::thread::spawn(move || {
                // Each thread commits several small transactions over
                // its slice of the targets — all of which share
                // ancestors up to the root, the case §5.1 is about.
                for (i, &node) in targets.iter().enumerate() {
                    if i as u64 % 8 != thread {
                        continue;
                    }
                    let mut txn = store.begin();
                    txn.set_value(node, format!("{}", 20 + (i % 60)));
                    store.commit("auction", txn).expect("value node");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics");
    }

    println!("{} transactions committed", store.commit_count());

    // The store must be byte-identical to a from-scratch rebuild.
    store
        .read("auction", |doc, idx| {
            idx.verify_against(doc)
                .expect("commutative commits converge");
            let adults = idx.query(doc, &Lookup::range_f64(20.0..=79.0)).unwrap();
            println!(
                "ages now in [20, 79]: {} nodes — index verified ✓",
                adults.len()
            );
        })
        .expect("the document is registered");
}
