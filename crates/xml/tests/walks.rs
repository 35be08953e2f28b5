//! Differential tests of the link-following walks.
//!
//! `dfs_events`, `to_string` and `node_to_string` follow the
//! `first_child` / `next_sibling` / `parent` links instead of
//! collecting children. These tests run them on documents whose arena
//! order differs from document order — subtrees deleted, their slots
//! reused by later `append_element` calls — and compare each with a
//! plain recursive walk over `Document::children`. Golden strings pin
//! the escaping.

use xvi_xml::cursor::dfs_events;
use xvi_xml::serialize::{escape_into, node_to_string, to_string};
use xvi_xml::{DfsEvent, Document, NodeId, NodeKind};

/// xorshift64, so the scrambles repeat exactly for a seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const BASE: &str = "<lib><!--c--><?pi some data?>\
    <shelf id=\"a&amp;b\"><book year=\"1979\"><title>Hitchhiker&apos;s</title>\
    <price>7.50</price></book><book><title>&lt;Restaurant&gt;</title><note/></book></shelf>\
    <shelf><book year=\"1982\">Life, &quot;the&quot; Universe<price>9</price></book></shelf>\
    <misc>tail text</misc></lib>";

fn elements(doc: &Document) -> Vec<NodeId> {
    doc.descendants(doc.document_node())
        .filter(|&n| matches!(doc.kind(n), NodeKind::Element(_)))
        .collect()
}

/// Deletes random subtrees and appends new content, so freed arena
/// slots are reused at later document positions.
fn scrambled(seed: u64) -> Document {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut doc = Document::parse(BASE).unwrap();
    let root = doc.root_element().unwrap();
    for step in 0..40 {
        let els = elements(&doc);
        let victim = els[rng.below(els.len())];
        if victim != root && rng.below(3) == 0 {
            doc.delete_subtree(victim);
            continue;
        }
        let els = elements(&doc);
        let parent = els[rng.below(els.len())];
        let e = doc.append_element(parent, &format!("n{}", step % 5));
        match rng.below(5) {
            0 => {
                doc.append_text(e, &format!("v<{step}>&\"q\""));
            }
            1 => {
                doc.set_attribute(e, "k", &format!("\"{step}\" & <x>"));
                doc.append_text(e, "é&ü");
            }
            2 => {
                let c = doc.create_comment(" note ");
                doc.append_child(e, c);
            }
            3 => {
                let inner = doc.append_element(e, "deep");
                doc.append_text(inner, &step.to_string());
            }
            _ => {}
        }
    }
    doc
}

fn reference_events(doc: &Document, node: NodeId, out: &mut Vec<DfsEvent>) {
    out.push(DfsEvent::Enter(node));
    for c in doc.children(node) {
        reference_events(doc, c, out);
    }
    out.push(DfsEvent::Leave(node));
}

fn reference_escape(s: &str, in_attr: bool, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if in_attr => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

fn reference_serialize(doc: &Document, node: NodeId, out: &mut String) {
    match doc.kind(node) {
        NodeKind::Document => {
            for c in doc.children(node) {
                reference_serialize(doc, c, out);
            }
        }
        NodeKind::Element(_) => {
            let name = doc.name(node).unwrap();
            out.push('<');
            out.push_str(name);
            for a in doc.attributes(node) {
                out.push(' ');
                out.push_str(doc.name(a).unwrap());
                out.push_str("=\"");
                reference_escape(doc.direct_value(a).unwrap(), true, out);
                out.push('"');
            }
            if doc.first_child(node).is_none() {
                out.push_str("/>");
            } else {
                out.push('>');
                for c in doc.children(node) {
                    reference_serialize(doc, c, out);
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
        }
        NodeKind::Text(t) => reference_escape(t, false, out),
        NodeKind::Attribute { value, .. } => reference_escape(value, true, out),
        NodeKind::Comment(c) => {
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
        NodeKind::Pi { target, data } => {
            out.push_str("<?");
            out.push_str(target);
            if !data.is_empty() {
                out.push(' ');
                out.push_str(data);
            }
            out.push_str("?>");
        }
        NodeKind::Free => {}
    }
}

fn arena_order_differs(doc: &Document) -> bool {
    let pre: Vec<NodeId> = doc.descendants_or_self(doc.document_node()).collect();
    pre.windows(2).any(|w| w[0] > w[1])
}

#[test]
fn walks_match_the_recursive_reference_on_scrambled_documents() {
    let mut scrambled_docs = 0;
    for seed in 1..=60 {
        let doc = scrambled(seed);
        scrambled_docs += usize::from(arena_order_differs(&doc));
        let mut every_node: Vec<NodeId> = doc.descendants_or_self(doc.document_node()).collect();
        let attrs: Vec<NodeId> = every_node.iter().flat_map(|&n| doc.attributes(n)).collect();
        every_node.extend(attrs);
        for node in every_node {
            let mut want = Vec::new();
            reference_events(&doc, node, &mut want);
            let got: Vec<DfsEvent> = dfs_events(&doc, node).collect();
            assert_eq!(got, want, "seed {seed}, events below {node:?}");

            let mut want = String::new();
            reference_serialize(&doc, node, &mut want);
            assert_eq!(
                node_to_string(&doc, node),
                want,
                "seed {seed}, node {node:?}"
            );
        }
        let mut want = String::new();
        reference_serialize(&doc, doc.document_node(), &mut want);
        assert_eq!(to_string(&doc), want, "seed {seed}");
    }
    assert!(
        scrambled_docs >= 50,
        "only {scrambled_docs} of 60 documents left document order"
    );
}

#[test]
fn deep_scrambled_chain_walks_without_recursion() {
    // A 20 000-deep chain whose arena slots run against document
    // order: every level reuses a slot freed by deleting a sibling.
    let mut doc = Document::parse("<r/>").unwrap();
    let mut cur = doc.root_element().unwrap();
    let mut decoys = Vec::new();
    for _ in 0..20_000 {
        decoys.push(doc.append_element(cur, "x"));
        cur = doc.append_element(cur, "d");
    }
    for d in decoys {
        doc.delete_subtree(d);
    }
    let mut tail = cur;
    for _ in 0..20_000 {
        tail = doc.append_element(tail, "d");
    }
    doc.append_text(tail, "&end");
    assert!(arena_order_differs(&doc));
    let text = to_string(&doc);
    assert_eq!(text.matches("<d>").count(), 40_000);
    assert!(text.contains("&amp;end"));
    assert!(text.ends_with("</d></r>"));
    let events = dfs_events(&doc, doc.document_node()).count();
    // document + r + 40 000 d + one text node, each entered and left.
    assert_eq!(events, 2 * (40_000 + 3));
}

#[test]
fn escape_goldens() {
    let cases: [(&str, bool, &str); 10] = [
        ("", false, ""),
        ("plain", false, "plain"),
        ("&", false, "&amp;"),
        ("<a>", false, "&lt;a&gt;"),
        ("\"q\"", false, "\"q\""),
        ("\"q\"", true, "&quot;q&quot;"),
        ("é&ü<€>", false, "é&amp;ü&lt;€&gt;"),
        ("&&<<", true, "&amp;&amp;&lt;&lt;"),
        ("tail&", false, "tail&amp;"),
        ("'apos' stays", true, "'apos' stays"),
    ];
    for (input, in_attr, want) in cases {
        let mut out = String::from("[");
        escape_into(input, in_attr, &mut out);
        assert_eq!(out, format!("[{want}"), "{input:?} in_attr={in_attr}");
    }
}

#[test]
fn serializer_golden() {
    let doc = Document::parse(BASE).unwrap();
    assert_eq!(
        to_string(&doc),
        "<lib><!--c--><?pi some data?>\
         <shelf id=\"a&amp;b\"><book year=\"1979\"><title>Hitchhiker's</title>\
         <price>7.50</price></book><book><title>&lt;Restaurant&gt;</title><note/></book></shelf>\
         <shelf><book year=\"1982\">Life, \"the\" Universe<price>9</price></book></shelf>\
         <misc>tail text</misc></lib>"
    );
    let shelf = doc
        .children(doc.root_element().unwrap())
        .find(|&n| doc.name(n) == Some("shelf"))
        .unwrap();
    let id = doc.attribute(shelf, "id").unwrap();
    assert_eq!(node_to_string(&doc, id), "a&amp;b");
}
