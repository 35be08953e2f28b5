//! Depth-first traversal: the paper's `DFS` module.
//!
//! Figures 7 and 8 of the paper drive index creation and maintenance
//! through a small set of primitives (`getRoot`, `nextChildNode`,
//! `nextSiblingNode`, `getFatherNode`, `hasSiblingNode`,
//! `leftMostSibling`), all evaluated against a *current node*.
//! [`DfsCursor`] is that interface. [`DfsEvent`] additionally offers an
//! enter/leave event stream, convenient for single-pass algorithms.

use crate::doc::Document;
use crate::node::NodeId;

/// A cursor over the structural tree, exposing the traversal
/// primitives the paper's algorithms are written against.
///
/// The cursor holds a position (`current`); every method mirrors one of
/// the paper's `DFS.*` calls.
#[derive(Debug, Clone, Copy)]
pub struct DfsCursor<'a> {
    doc: &'a Document,
    current: NodeId,
}

impl<'a> DfsCursor<'a> {
    /// Positions a cursor at the document root (`DFS.getRoot()`).
    pub fn at_root(doc: &'a Document) -> DfsCursor<'a> {
        DfsCursor {
            doc,
            current: doc.document_node(),
        }
    }

    /// Positions a cursor at an arbitrary node.
    pub fn at(doc: &'a Document, node: NodeId) -> DfsCursor<'a> {
        DfsCursor { doc, current: node }
    }

    /// The node the cursor is on.
    pub fn current(&self) -> NodeId {
        self.current
    }

    /// `DFS.nextChildNode()`: descends to the first child, returning
    /// the new position (or `None` at a leaf, cursor unchanged).
    pub fn next_child_node(&mut self) -> Option<NodeId> {
        let c = self.doc.first_child(self.current)?;
        self.current = c;
        Some(c)
    }

    /// `DFS.nextSiblingNode()`: moves right to the next sibling.
    pub fn next_sibling_node(&mut self) -> Option<NodeId> {
        let s = self.doc.next_sibling(self.current)?;
        self.current = s;
        Some(s)
    }

    /// `DFS.hasSiblingNode()`: whether a right sibling exists.
    pub fn has_sibling_node(&self) -> bool {
        self.doc.next_sibling(self.current).is_some()
    }

    /// `DFS.getFatherNode()`: the parent of the current node (cursor
    /// unchanged — the paper reads the father's fields, then continues
    /// from the current node).
    pub fn get_father_node(&self) -> Option<NodeId> {
        self.doc.parent(self.current)
    }

    /// `DFS.leftMostSibling()`: moves to the first sibling of the
    /// current node (possibly itself).
    pub fn left_most_sibling(&mut self) -> NodeId {
        if let Some(p) = self.doc.parent(self.current) {
            if let Some(first) = self.doc.first_child(p) {
                self.current = first;
            }
        }
        self.current
    }

    /// Moves the cursor to a specific node.
    pub fn jump(&mut self, node: NodeId) {
        self.current = node;
    }
}

/// One step of an enter/leave depth-first walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfsEvent {
    /// First visit of a node (pre-order position).
    Enter(NodeId),
    /// All descendants of the node have been visited (post-order
    /// position). Leaves produce `Enter` immediately followed by
    /// `Leave`.
    Leave(NodeId),
}

/// Streams [`DfsEvent`]s for the subtree rooted at `root` (structural
/// nodes only — attributes are visited separately by index creation).
///
/// The walk keeps O(1) state: it follows the `first_child`,
/// `next_sibling` and `parent` links from the last event, so it
/// allocates nothing however large or deep the subtree is.
pub fn dfs_events(doc: &Document, root: NodeId) -> impl Iterator<Item = DfsEvent> + '_ {
    let mut next = Some(DfsEvent::Enter(root));
    std::iter::from_fn(move || {
        let event = next?;
        next = match event {
            DfsEvent::Enter(node) => Some(match doc.first_child(node) {
                Some(child) => DfsEvent::Enter(child),
                None => DfsEvent::Leave(node),
            }),
            DfsEvent::Leave(node) if node == root => None,
            DfsEvent::Leave(node) => match doc.next_sibling(node) {
                Some(sibling) => Some(DfsEvent::Enter(sibling)),
                None => doc.parent(node).map(DfsEvent::Leave),
            },
        };
        Some(event)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        Document::parse("<a><b><c>1</c><d>2</d></b><e>3</e></a>").unwrap()
    }

    #[test]
    fn cursor_walks_the_paper_route() {
        let doc = sample();
        let mut cur = DfsCursor::at_root(&doc);
        assert_eq!(cur.current(), doc.document_node());

        let a = cur.next_child_node().unwrap();
        assert_eq!(doc.name(a), Some("a"));
        let b = cur.next_child_node().unwrap();
        assert_eq!(doc.name(b), Some("b"));
        let c = cur.next_child_node().unwrap();
        assert_eq!(doc.name(c), Some("c"));
        let one = cur.next_child_node().unwrap();
        assert_eq!(doc.string_value(one), "1");
        assert_eq!(cur.next_child_node(), None); // leaf: cursor stays
        assert_eq!(cur.current(), one);
        assert!(!cur.has_sibling_node());
        assert_eq!(cur.get_father_node(), Some(c));

        cur.jump(c);
        assert!(cur.has_sibling_node());
        let d = cur.next_sibling_node().unwrap();
        assert_eq!(doc.name(d), Some("d"));
        assert_eq!(cur.left_most_sibling(), c);
        assert_eq!(cur.current(), c);
    }

    #[test]
    fn left_most_sibling_of_root_is_identity() {
        let doc = sample();
        let mut cur = DfsCursor::at_root(&doc);
        assert_eq!(cur.left_most_sibling(), doc.document_node());
    }

    #[test]
    fn events_are_properly_nested() {
        let doc = sample();
        let mut depth = 0i32;
        let mut enters = 0;
        let mut open = Vec::new();
        for ev in dfs_events(&doc, doc.document_node()) {
            match ev {
                DfsEvent::Enter(n) => {
                    depth += 1;
                    enters += 1;
                    open.push(n);
                }
                DfsEvent::Leave(n) => {
                    depth -= 1;
                    assert_eq!(open.pop(), Some(n), "leave order mirrors enter order");
                }
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        // document + a,b,c,d,e + three text nodes = 9 structural nodes
        assert_eq!(enters, 9);
    }

    #[test]
    fn events_match_descendants_or_self_order() {
        let doc = sample();
        let pre: Vec<NodeId> = dfs_events(&doc, doc.document_node())
            .filter_map(|e| match e {
                DfsEvent::Enter(n) => Some(n),
                DfsEvent::Leave(_) => None,
            })
            .collect();
        let walk: Vec<NodeId> = doc.descendants_or_self(doc.document_node()).collect();
        assert_eq!(pre, walk);
    }

    #[test]
    fn subtree_events_stay_in_subtree() {
        let doc = sample();
        let a = doc.root_element().unwrap();
        let b = doc.first_child(a).unwrap();
        let nodes: Vec<NodeId> = dfs_events(&doc, b)
            .filter_map(|e| match e {
                DfsEvent::Enter(n) => Some(n),
                _ => None,
            })
            .collect();
        assert_eq!(nodes.len(), 5); // b, c, "1", d, "2"
        for n in nodes {
            assert!(n == b || doc.is_ancestor(b, n));
        }
    }
}
