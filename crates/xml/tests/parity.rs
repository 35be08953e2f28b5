//! Parse → serialize → parse parity on the paper's eight dataset
//! shapes: the reparsed document must match the first parse node for
//! node (same arena ids, kinds, names, values and attribute order) and
//! serialize to the same bytes. Write-ahead-log replay relies on this:
//! it re-parses the serialized document and then applies commits that
//! name nodes by arena id.

use xvi_datagen::Dataset;
use xvi_xml::{serialize, Document, NodeId, NodeKind};

/// A node with names resolved, so two documents compare by content.
#[derive(Debug, PartialEq)]
enum Shape<'a> {
    Document,
    Element(&'a str),
    Attribute(&'a str, &'a str),
    Text(&'a str),
    Comment(&'a str),
    Pi(&'a str, &'a str),
    Free,
}

fn shape(doc: &Document, id: NodeId) -> Shape<'_> {
    match doc.kind(id) {
        NodeKind::Document => Shape::Document,
        NodeKind::Element(n) => Shape::Element(doc.resolve(*n)),
        NodeKind::Attribute { name, value } => Shape::Attribute(doc.resolve(*name), value),
        NodeKind::Text(t) => Shape::Text(t),
        NodeKind::Comment(c) => Shape::Comment(c),
        NodeKind::Pi { target, data } => Shape::Pi(target, data),
        NodeKind::Free => Shape::Free,
    }
}

/// Asserts `a` and `b` agree on every arena slot: payload and links.
fn assert_same_nodes(a: &Document, b: &Document, what: &str) {
    assert_eq!(a.arena_size(), b.arena_size(), "{what}: arena size");
    for i in 0..a.arena_size() {
        let id = NodeId::from_index(i);
        assert_eq!(shape(a, id), shape(b, id), "{what}: node {i}");
        assert_eq!(a.parent(id), b.parent(id), "{what}: parent of {i}");
        assert_eq!(a.first_child(id), b.first_child(id), "{what}: child of {i}");
        assert_eq!(
            a.next_sibling(id),
            b.next_sibling(id),
            "{what}: sibling of {i}"
        );
        assert_eq!(
            a.attributes(id).collect::<Vec<_>>(),
            b.attributes(id).collect::<Vec<_>>(),
            "{what}: attributes of {i}"
        );
    }
}

#[test]
fn paper_suite_reparses_node_for_node() {
    for ds in Dataset::paper_suite() {
        let what = ds.name();
        let xml = ds.generate(5);
        let first = Document::parse(&xml).unwrap();
        assert!(first.stats().total_nodes > 100, "{what}: too small to test");
        let text = serialize::to_string(&first);
        let second = Document::parse(&text).unwrap();
        assert_same_nodes(&first, &second, &what);
        assert_eq!(serialize::to_string(&second), text, "{what}: serialization");
        assert_eq!(first.stats(), second.stats(), "{what}: stats");
    }
}

#[test]
fn escaped_and_attribute_heavy_markup_reparses_node_for_node() {
    let xml = concat!(
        "<?xml version=\"1.0\"?><!DOCTYPE r><r a0=\"&amp;\" a1='&lt;&gt;' a2=\"&quot;\" ",
        "a3=\"x\" a4=\"y\" a5=\"z\" a6=\"&#65;\" a7=\"&#x42;\" a8=\"\" a9=\"καλημέρα\">",
        "t&amp;x<![CDATA[<c>]]>y<!-- note --><?pi data ?><e b='1'/>tail</r>"
    );
    let first = Document::parse(xml).unwrap();
    let root = first.root_element().unwrap();
    assert_eq!(first.attributes(root).count(), 10);
    assert_eq!(first.attribute_value(root, "a9"), Some("καλημέρα"));
    let text = serialize::to_string(&first);
    let second = Document::parse(&text).unwrap();
    assert_same_nodes(&first, &second, "escaped markup");
    assert_eq!(serialize::to_string(&second), text);
}
