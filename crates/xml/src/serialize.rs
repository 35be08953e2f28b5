//! Serialising (sub)trees back to XML text.

use crate::doc::Document;
use crate::node::{NodeId, NodeKind};

/// Serialises the whole document to XML text.
pub fn to_string(doc: &Document) -> String {
    node_to_string(doc, doc.document_node())
}

/// Serialises the subtree rooted at `node`.
pub fn node_to_string(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    write_subtree(doc, node, &mut out);
    out
}

/// Writes the subtree rooted at `root` by following the tree links:
/// start tags on the way down, end tags on the way back up. Iterative,
/// so arbitrarily deep trees serialise, and the only buffer is the
/// stack of open element names.
fn write_subtree(doc: &Document, root: NodeId, out: &mut String) {
    // Names of the open elements below `root`, innermost last.
    let mut open: Vec<&str> = Vec::new();
    let mut node = root;
    loop {
        let data = doc.data(node);
        let descend = match &data.kind {
            NodeKind::Document => true,
            NodeKind::Element(name) => {
                let name = doc.resolve(*name);
                out.push('<');
                out.push_str(name);
                write_attributes(doc, data.first_attr.get(), out);
                if data.first_child.get().is_some() {
                    out.push('>');
                    open.push(name);
                    true
                } else {
                    out.push_str("/>");
                    false
                }
            }
            NodeKind::Text(t) => {
                escape_into(t, false, out);
                false
            }
            NodeKind::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
                false
            }
            NodeKind::Pi { target, data } => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
                false
            }
            NodeKind::Attribute { value, .. } => {
                escape_into(value, true, out);
                false
            }
            NodeKind::Free => false,
        };
        if let Some(child) = data.first_child.get().filter(|_| descend) {
            node = child;
            continue;
        }
        // The subtree of `node` is written: move to its next sibling,
        // closing every element whose last child this was.
        loop {
            if node == root {
                return;
            }
            let data = doc.data(node);
            if let Some(sibling) = data.next_sibling.get() {
                node = sibling;
                break;
            }
            node = data
                .parent
                .get()
                .expect("a node below the root has a parent");
            // Only elements push a name, and the document node is
            // never below an element, so a pop here closes `node`.
            if let Some(name) = open.pop() {
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
        }
    }
}

fn write_attributes(doc: &Document, first: Option<NodeId>, out: &mut String) {
    let mut attr = first;
    while let Some(a) = attr {
        let data = doc.data(a);
        if let NodeKind::Attribute { name, value } = &data.kind {
            out.push(' ');
            out.push_str(doc.resolve(*name));
            out.push_str("=\"");
            escape_into(value, true, out);
            out.push('"');
        }
        attr = data.next_sibling.get();
    }
}

/// Escapes character data; `in_attr` additionally escapes quotes.
///
/// Copies each run of bytes between escapable characters in one
/// `push_str`. The four escapable characters are ASCII, and an ASCII
/// byte never occurs inside a multi-byte UTF-8 sequence, so every cut
/// falls on a character boundary.
pub fn escape_into(s: &str, in_attr: bool, out: &mut String) {
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if in_attr => "&quot;",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(entity);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let src = "<a x=\"1\"><b>hi</b><c/>tail</a>";
        let doc = Document::parse(src).unwrap();
        assert_eq!(to_string(&doc), src);
    }

    #[test]
    fn roundtrip_escapes() {
        let doc = Document::parse("<a q=\"&quot;&amp;\">&lt;&amp;&gt;</a>").unwrap();
        let text = to_string(&doc);
        let doc2 = Document::parse(&text).unwrap();
        assert_eq!(
            doc.string_value(doc.document_node()),
            doc2.string_value(doc2.document_node())
        );
        assert_eq!(
            doc.attribute_value(doc.root_element().unwrap(), "q"),
            doc2.attribute_value(doc2.root_element().unwrap(), "q")
        );
    }

    #[test]
    fn roundtrip_preserves_structure_and_values() {
        let src = "<r><!--c--><?pi data?><e a=\"v\">text<f>nested</f>more</e></r>";
        let doc = Document::parse(src).unwrap();
        let out = to_string(&doc);
        let doc2 = Document::parse(&out).unwrap();
        assert_eq!(doc.stats(), doc2.stats());
        assert_eq!(out, to_string(&doc2), "serialisation is a fixpoint");
    }

    #[test]
    fn subtree_serialisation() {
        let doc = Document::parse("<r><a>1</a><b>2</b></r>").unwrap();
        let r = doc.root_element().unwrap();
        let b = doc.last_child(r).unwrap();
        assert_eq!(node_to_string(&doc, b), "<b>2</b>");
    }

    #[test]
    fn deep_tree_serialises_iteratively() {
        let depth = 50_000;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<d>");
        }
        s.push('x'); // keep the innermost element non-empty
        for _ in 0..depth {
            s.push_str("</d>");
        }
        let doc = Document::parse(&s).unwrap();
        assert_eq!(to_string(&doc), s);
    }
}
