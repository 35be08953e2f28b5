//! The arena document store.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use xvi_btree::{PagedVec, StagedPages};

use crate::error::ParseError;
use crate::node::{NameId, NodeData, NodeId, NodeKind};

/// An updatable XML document, stored as an arena of linked nodes.
///
/// Slot 0 is always the document node. Structural children (elements,
/// text, comments, PIs) form one sibling chain; attributes form a
/// second chain reachable through [`Document::attributes`]. Both kinds
/// of nodes carry indexable values, but only descendant *text* nodes
/// contribute to an element's XDM string value.
///
/// The arena is paged with copy-on-write structural sharing
/// ([`PagedVec`]): `Clone` is O(pages) reference-count bumps, and a
/// clone that mutates (value updates, construction, deletion) detaches
/// only the pages it touches — so snapshot-style cloning of a large
/// document costs nothing proportional to the document size.
///
/// ```
/// use xvi_xml::Document;
/// let doc = Document::parse("<name><first>Arthur</first><family>Dent</family></name>").unwrap();
/// let root = doc.root_element().unwrap();
/// assert_eq!(doc.name(root), Some("name"));
/// assert_eq!(doc.string_value(root), "ArthurDent");
/// ```
#[derive(Clone)]
pub struct Document {
    nodes: PagedVec<NodeData>,
    names: Names,
    free: Vec<NodeId>,
    /// The text [`Document::parse`] read, until the first write to the
    /// arena: re-parsing it rebuilds exactly this arena.
    source: Option<Arc<str>>,
}

/// Prints the source's length only: a kept source can be megabytes.
impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("nodes", &self.nodes)
            .field("names", &self.names)
            .field("free", &self.free)
            .field("source_len", &self.source.as_deref().map(str::len))
            .finish()
    }
}

/// The name table: `NameId`s in first-interned order, found through a
/// keyed (`RandomState`) hash map, so hostile names cannot force
/// collisions.
#[derive(Debug, Clone, Default)]
struct Names {
    names: Vec<String>,
    ids: HashMap<String, NameId>,
}

impl Names {
    fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// The name `id` stands for, or `None` if no name has that id.
    fn get(&self, id: NameId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }
}

/// Arena storage with the link logic written once over it. Two
/// storages implement it: a [`Document`]'s paged arena, where each
/// write goes through the page's copy-on-write check, and the plain
/// pages a parse stages its nodes in ([`Staged`]), which no clone can
/// see yet.
pub(crate) trait Arena {
    fn slot(&self, id: NodeId) -> &NodeData;
    fn slot_mut(&mut self, id: NodeId) -> &mut NodeData;
    /// Stores a detached node holding `kind` and returns its id.
    fn alloc(&mut self, kind: NodeKind) -> NodeId;

    /// Links detached node `child` in as the last structural child of
    /// `parent`.
    fn link_child(&mut self, parent: NodeId, child: NodeId) {
        let old_last = self.slot(parent).last_child;
        {
            let c = self.slot_mut(child);
            c.parent = parent;
            c.prev_sibling = old_last;
        }
        if let Some(last) = old_last.get() {
            self.slot_mut(last).next_sibling = child;
        } else {
            self.slot_mut(parent).first_child = child;
        }
        self.slot_mut(parent).last_child = child;
    }

    /// Appends a new attribute `name` holding `value` at the tail of
    /// `parent`'s attribute chain (keeping document order), or returns
    /// `Err` with the attribute of that name `parent` already has. The
    /// chain is walked once, comparing `NameId`s.
    fn link_attribute(
        &mut self,
        parent: NodeId,
        name: NameId,
        value: String,
    ) -> Result<NodeId, NodeId> {
        let mut tail = NodeId::NONE;
        let mut cur = self.slot(parent).first_attr;
        while let Some(a) = cur.get() {
            let data = self.slot(a);
            if matches!(data.kind, NodeKind::Attribute { name: n, .. } if n == name) {
                return Err(a);
            }
            tail = a;
            cur = data.next_sibling;
        }
        let attr = self.alloc(NodeKind::Attribute { name, value });
        let a = self.slot_mut(attr);
        a.parent = parent;
        a.prev_sibling = tail;
        match tail.get() {
            Some(t) => self.slot_mut(t).next_sibling = attr,
            None => self.slot_mut(parent).first_attr = attr,
        }
        Ok(attr)
    }
}

impl Arena for Document {
    #[inline]
    fn slot(&self, id: NodeId) -> &NodeData {
        self.data(id)
    }

    #[inline]
    fn slot_mut(&mut self, id: NodeId) -> &mut NodeData {
        self.source = None;
        &mut self.nodes[id.index()]
    }

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        self.source = None;
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = NodeData::new(kind);
            id
        } else {
            self.nodes.push(NodeData::new(kind));
            NodeId((self.nodes.len() - 1) as u32)
        }
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates an empty document containing only the document node.
    pub fn new() -> Document {
        let mut nodes = PagedVec::new();
        nodes.push(NodeData::new(NodeKind::Document));
        Document {
            nodes,
            names: Names::default(),
            free: Vec::new(),
            source: None,
        }
    }

    /// Number of arena pages currently shared with other clones of
    /// this document (copy-on-write sharing diagnostics).
    pub fn shared_pages(&self) -> usize {
        self.nodes.shared_pages()
    }

    /// Shreds XML text into a document (see [`crate::parser`]).
    ///
    /// The document keeps one copy of `input` until its first write
    /// ([`Document::source`]), so a caller that logs the document can
    /// log the text it came from instead of serializing the arena.
    pub fn parse(input: &str) -> Result<Document, ParseError> {
        crate::parser::parse(input)
    }

    /// The text this document was parsed from (minus any byte-order
    /// mark), if nothing has been written to it since. Parsing it again yields this document, node
    /// ids included. Every mutator (`intern`, `create_*`, `append_*`,
    /// `set_attribute`, `set_value`, `delete_subtree`) drops it; a
    /// clone shares it until one of the two is written.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Drops the kept source ([`Document::source`]) to free its memory.
    pub fn drop_source(&mut self) {
        self.source = None;
    }

    /// The document node.
    #[inline]
    pub fn document_node(&self) -> NodeId {
        NodeId(0)
    }

    /// The root element, if the document has one.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(self.document_node())
            .find(|&c| matches!(self.kind(c), NodeKind::Element(_)))
    }

    // ----- name interning ------------------------------------------------

    /// Interns `name`, returning its id.
    pub fn intern(&mut self, name: &str) -> NameId {
        self.source = None;
        self.names.intern(name)
    }

    /// Resolves an interned name.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names.names[id.0 as usize]
    }

    /// Looks up a name id without interning.
    pub fn lookup_name(&self, name: &str) -> Option<NameId> {
        self.names.ids.get(name).copied()
    }

    // ----- node access ----------------------------------------------------

    #[inline]
    pub(crate) fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// The payload of a node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.data(id).kind
    }

    /// Whether `id` denotes a live (non-freed) node in this arena.
    pub fn is_live(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len() && !matches!(self.kind(id), NodeKind::Free)
    }

    /// The element/attribute name of `id`, if it has one.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Element(n) | NodeKind::Attribute { name: n, .. } => Some(self.resolve(*n)),
            _ => None,
        }
    }

    /// Parent node (attributes report their owning element).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).parent.get()
    }

    /// First structural child.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).first_child.get()
    }

    /// Last structural child.
    #[inline]
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).last_child.get()
    }

    /// Next sibling on the same chain (structural or attribute).
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).next_sibling.get()
    }

    /// Previous sibling on the same chain.
    #[inline]
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).prev_sibling.get()
    }

    /// Iterates the structural children of `id`.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.first_child(id);
        std::iter::from_fn(move || {
            let out = cur?;
            cur = self.next_sibling(out);
            Some(out)
        })
    }

    /// Iterates the attribute nodes of `id` (empty for non-elements).
    pub fn attributes(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.data(id).first_attr.get();
        std::iter::from_fn(move || {
            let out = cur?;
            cur = self.next_sibling(out);
            Some(out)
        })
    }

    /// Looks up an attribute of `id` by name.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<NodeId> {
        let name_id = self.lookup_name(name)?;
        self.attributes(id)
            .find(|&a| matches!(self.kind(a), NodeKind::Attribute { name: n, .. } if *n == name_id))
    }

    /// The value of an attribute of `id` by name.
    pub fn attribute_value(&self, id: NodeId, name: &str) -> Option<&str> {
        let attr = self.attribute(id, name)?;
        match self.kind(attr) {
            NodeKind::Attribute { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Pre-order depth-first traversal of the subtree rooted at `id`
    /// (structural nodes only; attributes are not part of the DFS).
    pub fn descendants_or_self(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut next = Some(id);
        std::iter::from_fn(move || {
            let out = next?;
            // Advance: first child, else next sibling, else climb until
            // a next sibling exists — stopping at the traversal root.
            next = if let Some(c) = self.first_child(out) {
                Some(c)
            } else {
                let mut cur = out;
                loop {
                    if cur == id {
                        break None;
                    }
                    if let Some(s) = self.next_sibling(cur) {
                        break Some(s);
                    }
                    match self.parent(cur) {
                        Some(p) => cur = p,
                        None => break None,
                    }
                }
            };
            Some(out)
        })
    }

    /// Proper descendants of `id` in document order.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants_or_self(id).skip(1)
    }

    /// Whether `anc` is a proper ancestor of `desc` (attribute nodes
    /// count their owning element chain).
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        let mut cur = self.parent(desc);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Depth of a node (document node has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            d += 1;
            cur = self.parent(p);
        }
        d
    }

    // ----- string values --------------------------------------------------

    /// The XDM string value of a node.
    ///
    /// * text node — its content;
    /// * attribute — its value;
    /// * comment / PI — its content/data;
    /// * element / document node — the concatenation of the string
    ///   values of all descendant text nodes, in document order.
    pub fn string_value(&self, id: NodeId) -> String {
        match self.kind(id) {
            NodeKind::Text(t) => t.clone(),
            NodeKind::Attribute { value, .. } => value.clone(),
            NodeKind::Comment(c) => c.clone(),
            NodeKind::Pi { data, .. } => data.clone(),
            NodeKind::Document | NodeKind::Element(_) => {
                let mut out = String::new();
                self.push_text(id, &mut out);
                out
            }
            NodeKind::Free => String::new(),
        }
    }

    fn push_text(&self, id: NodeId, out: &mut String) {
        for c in self.descendants_or_self(id) {
            if let NodeKind::Text(t) = self.kind(c) {
                out.push_str(t);
            }
        }
    }

    /// The directly stored value of a text or attribute node.
    pub fn direct_value(&self, id: NodeId) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Text(t) => Some(t),
            NodeKind::Attribute { value, .. } => Some(value),
            _ => None,
        }
    }

    // ----- construction ---------------------------------------------------

    /// Creates a detached element node.
    pub fn create_element(&mut self, name: &str) -> NodeId {
        let n = self.intern(name);
        self.alloc(NodeKind::Element(n))
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, content: &str) -> NodeId {
        self.alloc(NodeKind::Text(content.to_owned()))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, content: &str) -> NodeId {
        self.alloc(NodeKind::Comment(content.to_owned()))
    }

    /// Creates a detached processing-instruction node.
    pub fn create_pi(&mut self, target: &str, data: &str) -> NodeId {
        self.alloc(NodeKind::Pi {
            target: target.to_owned(),
            data: data.to_owned(),
        })
    }

    /// Appends detached node `child` as the last structural child of
    /// `parent`.
    ///
    /// # Panics
    /// Panics if `child` already has a parent.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        assert_eq!(
            self.data(child).parent,
            NodeId::NONE,
            "append_child: node is already attached"
        );
        self.link_child(parent, child);
    }

    /// Adds an attribute to element `parent`, or replaces the value of
    /// the attribute of that name it already has. Returns the node.
    ///
    /// # Panics
    /// Panics if `parent` is not an element.
    pub fn set_attribute(&mut self, parent: NodeId, name: &str, value: &str) -> NodeId {
        assert!(
            matches!(self.kind(parent), NodeKind::Element(_)),
            "attributes can only be set on elements"
        );
        let name = self.intern(name);
        match self.link_attribute(parent, name, value.to_owned()) {
            Ok(attr) => attr,
            Err(existing) => {
                if let NodeKind::Attribute { value: v, .. } = &mut self.slot_mut(existing).kind {
                    *v = value.to_owned();
                }
                existing
            }
        }
    }

    /// Convenience: create an element, append it, return its id.
    pub fn append_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        let e = self.create_element(name);
        self.append_child(parent, e);
        e
    }

    /// Convenience: create a text node, append it, return its id.
    pub fn append_text(&mut self, parent: NodeId, content: &str) -> NodeId {
        let t = self.create_text(content);
        self.append_child(parent, t);
        t
    }

    // ----- updates ----------------------------------------------------------

    /// Replaces the stored value of a text or attribute node, returning
    /// the previous value. This is the paper's primitive update: "the
    /// value of a text node is updated" (§5, Figure 8).
    ///
    /// # Panics
    /// Panics if the node is not a text or attribute node.
    pub fn set_value(&mut self, id: NodeId, new_value: &str) -> String {
        match &mut self.slot_mut(id).kind {
            NodeKind::Text(t) => std::mem::replace(t, new_value.to_owned()),
            NodeKind::Attribute { value, .. } => std::mem::replace(value, new_value.to_owned()),
            other => panic!("set_value on non-valued node kind {other:?}"),
        }
    }

    /// Detaches and frees the subtree rooted at `id` (including its
    /// attributes). Returns the former parent. The paper handles this
    /// by re-running the update pass with the parent as an
    /// empty-valued context node.
    ///
    /// # Panics
    /// Panics on the document node.
    pub fn delete_subtree(&mut self, id: NodeId) -> Option<NodeId> {
        assert!(
            !matches!(self.kind(id), NodeKind::Document),
            "cannot delete the document node"
        );
        self.source = None;
        let parent = self.parent(id);
        // Unlink from the sibling chain.
        let (prev, next) = {
            let d = self.data(id);
            (d.prev_sibling, d.next_sibling)
        };
        if let Some(p) = prev.get() {
            self.slot_mut(p).next_sibling = next;
        } else if let Some(par) = parent {
            // Head of either the child chain or the attribute chain.
            if self.data(par).first_child == id {
                self.slot_mut(par).first_child = next;
            } else if self.data(par).first_attr == id {
                self.slot_mut(par).first_attr = next;
            }
        }
        if let Some(n) = next.get() {
            self.slot_mut(n).prev_sibling = prev;
        } else if let Some(par) = parent {
            if self.data(par).last_child == id {
                self.slot_mut(par).last_child = prev;
            }
        }
        // Free the whole subtree.
        let subtree: Vec<NodeId> = self.descendants_or_self(id).collect();
        for n in subtree {
            let attrs: Vec<NodeId> = self.attributes(n).collect();
            for a in attrs {
                self.nodes[a.index()] = NodeData::new(NodeKind::Free);
                self.free.push(a);
            }
            self.nodes[n.index()] = NodeData::new(NodeKind::Free);
            self.free.push(n);
        }
        parent
    }

    // ----- statistics -------------------------------------------------------

    /// Upper bound on arena slots (live + freed); `NodeId::index()` is
    /// always below this.
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Counts and sizes for the paper's Table 1.
    pub fn stats(&self) -> DocStats {
        let mut s = DocStats::default();
        for n in self.nodes.iter() {
            match &n.kind {
                NodeKind::Free => continue,
                NodeKind::Document => {}
                NodeKind::Element(_) => {
                    s.element_nodes += 1;
                    s.total_nodes += 1;
                }
                NodeKind::Text(t) => {
                    s.text_nodes += 1;
                    s.total_nodes += 1;
                    s.text_bytes += t.len();
                }
                NodeKind::Attribute { value, .. } => {
                    s.attribute_nodes += 1;
                    s.total_nodes += 1;
                    s.text_bytes += value.len();
                }
                NodeKind::Comment(c) => {
                    s.other_nodes += 1;
                    s.total_nodes += 1;
                    s.text_bytes += c.len();
                }
                NodeKind::Pi { data, .. } => {
                    s.other_nodes += 1;
                    s.total_nodes += 1;
                    s.text_bytes += data.len();
                }
            }
        }
        s.arena_bytes = self.nodes.len() * std::mem::size_of::<NodeData>()
            + s.text_bytes
            + self.names.names.iter().map(|n| n.len()).sum::<usize>();
        s
    }

    /// Computes the pre/size/level range encoding of the current tree.
    pub fn pre_post_view(&self) -> PrePostView {
        PrePostView::build(self)
    }
}

/// log2 of the number of slots in [`Staged`]'s name cache.
const NAME_CACHE_BITS: u32 = 8;

/// A document being shredded. Its nodes are staged in [`StagedPages`],
/// which no clone can see yet, so each link write is a plain store
/// with no copy-on-write check; [`Staged::finish`] seals the pages
/// once, in place.
///
/// Names go through a small direct-mapped cache of `NameId`s in front
/// of the keyed name table. A hit is confirmed by comparing bytes with
/// the cached id's name, so it hashes and allocates nothing; a miss
/// costs one table lookup, as interning does without the cache.
pub(crate) struct Staged {
    nodes: StagedPages<NodeData>,
    names: Names,
    name_cache: [NameId; 1 << NAME_CACHE_BITS],
}

impl Arena for Staged {
    #[inline]
    fn slot(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    #[inline]
    fn slot_mut(&mut self, id: NodeId) -> &mut NodeData {
        &mut self.nodes[id.index()]
    }

    #[inline]
    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        self.nodes.push(NodeData::new(kind));
        NodeId((self.nodes.len() - 1) as u32)
    }
}

impl Staged {
    /// A document holding only the document node.
    pub(crate) fn new() -> Staged {
        let mut nodes = StagedPages::new();
        nodes.push(NodeData::new(NodeKind::Document));
        Staged {
            nodes,
            names: Names::default(),
            // No name has id u32::MAX, so an empty slot never hits.
            name_cache: [NameId(u32::MAX); 1 << NAME_CACHE_BITS],
        }
    }

    /// Interns `name` through the cache. Ids come out in
    /// first-interned order, exactly as [`Document::intern`] gives them.
    fn intern(&mut self, name: &str) -> NameId {
        let slot = name_cache_slot(name);
        let cached = self.name_cache[slot];
        if self.names.get(cached) == Some(name) {
            return cached;
        }
        let id = self.names.intern(name);
        self.name_cache[slot] = id;
        id
    }

    /// Appends a new element named `name` under `parent`.
    pub(crate) fn append_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        let name = self.intern(name);
        self.append(parent, NodeKind::Element(name))
    }

    /// Appends a new node holding `kind` under `parent`.
    pub(crate) fn append(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        let node = self.alloc(kind);
        self.link_child(parent, node);
        node
    }

    /// Adds attribute `name` to `parent`, or returns `Err` with the
    /// attribute of that name it already has
    /// ([`Arena::link_attribute`]).
    pub(crate) fn add_attribute(
        &mut self,
        parent: NodeId,
        name: &str,
        value: String,
    ) -> Result<NodeId, NodeId> {
        let name = self.intern(name);
        self.link_attribute(parent, name, value)
    }

    /// Seals the staged nodes into a [`Document`] that keeps `source`,
    /// the text they were parsed from.
    pub(crate) fn finish(self, source: &str) -> Document {
        Document {
            nodes: self.nodes.seal(),
            names: self.names,
            free: Vec::new(),
            source: Some(Arc::from(source)),
        }
    }
}

/// The name cache slot of `name`: a mix of its length and its first
/// and last bytes, which tell most element names of a schema apart.
fn name_cache_slot(name: &str) -> usize {
    let b = name.as_bytes();
    let (first, last) = match b {
        [] => (0, 0),
        [f, ..] => (*f, b[b.len() - 1]),
    };
    let key = (b.len() as u32) << 16 | u32::from(first) << 8 | u32::from(last);
    (key.wrapping_mul(0x9E37_79B1) >> (32 - NAME_CACHE_BITS)) as usize
}

/// Node counts and byte sizes (Table 1 columns).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DocStats {
    /// All live nodes except the document node.
    pub total_nodes: usize,
    /// Element nodes.
    pub element_nodes: usize,
    /// Text nodes.
    pub text_nodes: usize,
    /// Attribute nodes.
    pub attribute_nodes: usize,
    /// Comments and processing instructions.
    pub other_nodes: usize,
    /// Bytes of stored character data (text + attribute values + misc).
    pub text_bytes: usize,
    /// Approximate heap footprint of the document store.
    pub arena_bytes: usize,
}

/// The MonetDB/XQuery-style pre/size/level encoding: for every node its
/// pre-order rank, subtree size and depth. A consistent snapshot for
/// document-order comparisons and O(1) ancestry tests; rebuild after
/// structural updates.
#[derive(Debug)]
pub struct PrePostView {
    /// `pre[i]` = pre-order rank of the node with arena index `i`
    /// (`usize::MAX` for attributes/freed slots, which are outside the
    /// structural DFS).
    pre: Vec<usize>,
    /// In pre-order: (node, subtree size, level).
    table: Vec<(NodeId, usize, usize)>,
}

impl PrePostView {
    fn build(doc: &Document) -> PrePostView {
        let mut pre = vec![usize::MAX; doc.arena_size()];
        let mut table = Vec::new();
        // Iterative DFS computing subtree sizes via a finish stack.
        let root = doc.document_node();
        for (rank, node) in doc.descendants_or_self(root).enumerate() {
            pre[node.index()] = rank;
            table.push((node, 1, doc.depth(node)));
        }
        // Subtree sizes: accumulate child sizes in reverse pre-order.
        for i in (1..table.len()).rev() {
            let (node, size, _) = table[i];
            if let Some(parent) = doc.parent(node) {
                let p_rank = pre[parent.index()];
                table[p_rank].1 += size;
            }
        }
        PrePostView { pre, table }
    }

    /// Pre-order rank of `id`, if it participates in the structural DFS.
    pub fn pre(&self, id: NodeId) -> Option<usize> {
        let r = *self.pre.get(id.index())?;
        (r != usize::MAX).then_some(r)
    }

    /// Subtree size of `id` (including itself).
    pub fn size(&self, id: NodeId) -> Option<usize> {
        Some(self.table[self.pre(id)?].1)
    }

    /// Depth of `id` (document node = 0).
    pub fn level(&self, id: NodeId) -> Option<usize> {
        Some(self.table[self.pre(id)?].2)
    }

    /// O(1) ancestry test via the range encoding:
    /// `anc < desc <= anc + size(anc) - 1`.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        match (self.pre(anc), self.pre(desc)) {
            (Some(a), Some(d)) => {
                let size = self.table[a].1;
                a < d && d < a + size
            }
            _ => false,
        }
    }

    /// Document-order comparison of two structural nodes.
    pub fn doc_order(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        self.pre(a).cmp(&self.pre(b))
    }

    /// Number of structural nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the snapshot is empty (never true: the document node is
    /// always present).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Figure 1 "person" document by hand.
    fn person_doc() -> Document {
        let mut d = Document::new();
        let person = d.append_element(d.document_node(), "person");
        let name = d.append_element(person, "name");
        let first = d.append_element(name, "first");
        d.append_text(first, "Arthur");
        let family = d.append_element(name, "family");
        d.append_text(family, "Dent");
        let birthday = d.append_element(person, "birthday");
        d.append_text(birthday, "1966-09-26");
        let age = d.append_element(person, "age");
        let decades = d.append_element(age, "decades");
        d.append_text(decades, "4");
        d.append_text(age, "2");
        d.append_element(age, "years");
        let weight = d.append_element(person, "weight");
        let kilos = d.append_element(weight, "kilos");
        d.append_text(kilos, "78");
        d.append_text(weight, ".");
        let grams = d.append_element(weight, "grams");
        d.append_text(grams, "230");
        d
    }

    #[test]
    fn figure1_string_values() {
        let d = person_doc();
        let person = d.root_element().unwrap();
        assert_eq!(d.string_value(person), "ArthurDent1966-09-264278.230");
        let name = d.children(person).next().unwrap();
        assert_eq!(d.string_value(name), "ArthurDent");
        let age = d
            .children(person)
            .find(|&c| d.name(c) == Some("age"))
            .unwrap();
        assert_eq!(d.string_value(age), "42");
        let weight = d
            .children(person)
            .find(|&c| d.name(c) == Some("weight"))
            .unwrap();
        assert_eq!(d.string_value(weight), "78.230");
    }

    #[test]
    fn attributes_do_not_contribute_to_string_value() {
        let mut d = Document::new();
        let e = d.append_element(d.document_node(), "e");
        d.set_attribute(e, "id", "attr-value");
        d.append_text(e, "text");
        assert_eq!(d.string_value(e), "text");
        let attr = d.attribute(e, "id").unwrap();
        assert_eq!(d.string_value(attr), "attr-value");
        assert_eq!(d.attribute_value(e, "id"), Some("attr-value"));
        assert_eq!(d.attribute_value(e, "missing"), None);
    }

    #[test]
    fn attribute_replacement_updates_in_place() {
        let mut d = Document::new();
        let e = d.append_element(d.document_node(), "e");
        let a1 = d.set_attribute(e, "k", "v1");
        let a2 = d.set_attribute(e, "k", "v2");
        assert_eq!(a1, a2);
        assert_eq!(d.attribute_value(e, "k"), Some("v2"));
        assert_eq!(d.attributes(e).count(), 1);
    }

    #[test]
    fn descendants_in_document_order() {
        let d = person_doc();
        let names: Vec<Option<&str>> = d
            .descendants_or_self(d.document_node())
            .map(|n| d.name(n))
            .collect();
        let elem_names: Vec<&str> = names.into_iter().flatten().collect();
        assert_eq!(
            elem_names,
            vec![
                "person", "name", "first", "family", "birthday", "age", "decades", "years",
                "weight", "kilos", "grams"
            ]
        );
    }

    #[test]
    fn ancestry_and_depth() {
        let d = person_doc();
        let person = d.root_element().unwrap();
        let age = d
            .descendants(person)
            .find(|&n| d.name(n) == Some("age"))
            .unwrap();
        let decades = d.first_child(age).unwrap();
        assert!(d.is_ancestor(person, decades));
        assert!(d.is_ancestor(age, decades));
        assert!(!d.is_ancestor(decades, age));
        assert!(!d.is_ancestor(age, age));
        assert_eq!(d.depth(d.document_node()), 0);
        assert_eq!(d.depth(person), 1);
        assert_eq!(d.depth(decades), 3);
    }

    #[test]
    fn pre_post_view_matches_tree_walks() {
        let d = person_doc();
        let v = d.pre_post_view();
        let person = d.root_element().unwrap();
        assert_eq!(v.pre(d.document_node()), Some(0));
        assert_eq!(v.pre(person), Some(1));
        // Subtree size of the whole document = all structural nodes.
        assert_eq!(v.size(d.document_node()), Some(v.len()));
        for a in d.descendants_or_self(d.document_node()) {
            for b in d.descendants_or_self(d.document_node()) {
                assert_eq!(
                    v.is_ancestor(a, b),
                    d.is_ancestor(a, b),
                    "range-encoding ancestry must match pointer chasing for {a:?},{b:?}"
                );
            }
            assert_eq!(v.level(a), Some(d.depth(a)));
        }
    }

    #[test]
    fn set_value_replaces_and_returns_old() {
        let mut d = person_doc();
        let person = d.root_element().unwrap();
        let family_text = d
            .descendants(person)
            .find(|&n| matches!(d.kind(n), NodeKind::Text(t) if t == "Dent"))
            .unwrap();
        let old = d.set_value(family_text, "Prefect");
        assert_eq!(old, "Dent");
        assert_eq!(d.string_value(person), "ArthurPrefect1966-09-264278.230");
    }

    #[test]
    #[should_panic(expected = "set_value on non-valued")]
    fn set_value_rejects_elements() {
        let mut d = person_doc();
        let person = d.root_element().unwrap();
        d.set_value(person, "nope");
    }

    #[test]
    fn delete_subtree_unlinks_and_frees() {
        let mut d = person_doc();
        let person = d.root_element().unwrap();
        let age = d
            .descendants(person)
            .find(|&n| d.name(n) == Some("age"))
            .unwrap();
        let before = d.stats().total_nodes;
        let parent = d.delete_subtree(age).unwrap();
        assert_eq!(parent, person);
        assert!(!d.is_live(age));
        assert_eq!(d.string_value(person), "ArthurDent1966-09-2678.230");
        // age + decades + "4" + "2" + years = 5 nodes freed
        assert_eq!(d.stats().total_nodes, before - 5);
        // Freed slots are recycled.
        let e = d.create_element("recycled");
        assert!(d.is_live(e));
    }

    #[test]
    fn delete_first_and_last_children() {
        let mut d = Document::new();
        let r = d.append_element(d.document_node(), "r");
        let a = d.append_element(r, "a");
        let b = d.append_element(r, "b");
        let c = d.append_element(r, "c");
        d.delete_subtree(a);
        assert_eq!(d.first_child(r), Some(b));
        d.delete_subtree(c);
        assert_eq!(d.last_child(r), Some(b));
        d.delete_subtree(b);
        assert_eq!(d.children(r).count(), 0);
        assert_eq!(d.first_child(r), None);
        assert_eq!(d.last_child(r), None);
    }

    #[test]
    fn stats_count_kinds() {
        let d = person_doc();
        let s = d.stats();
        assert_eq!(s.element_nodes, 11);
        assert_eq!(s.text_nodes, 8);
        assert_eq!(s.attribute_nodes, 0);
        assert_eq!(s.total_nodes, 19);
        assert!(s.text_bytes > 0);
        assert!(s.arena_bytes > s.text_bytes);
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut big = Document::new();
        let root = big.append_element(big.document_node(), "r");
        for i in 0..2_000 {
            let e = big.append_element(root, "item");
            big.append_text(e, &format!("value-{i}"));
        }
        assert_eq!(big.shared_pages(), 0);
        let mut snap = big.clone();
        assert!(snap.shared_pages() > 0, "clone shares the arena pages");
        let text = snap
            .descendants(root)
            .find(|&n| matches!(snap.kind(n), NodeKind::Text(t) if t == "value-7"))
            .unwrap();
        snap.set_value(text, "rewritten");
        // Only the touched page detached; the original never moved.
        assert_eq!(big.string_value(text), "value-7");
        assert_eq!(snap.string_value(text), "rewritten");
        assert!(snap.shared_pages() > 0);
        drop(snap);
        assert_eq!(big.shared_pages(), 0);
    }

    /// The shredder's name-cache thrash test relies on this.
    #[test]
    fn names_of_one_length_and_end_bytes_share_a_cache_slot() {
        let slot = name_cache_slot("a0000z");
        assert!((1..6_000).all(|i| name_cache_slot(&format!("a{i:04}z")) == slot));
        assert_ne!(name_cache_slot("item"), name_cache_slot("name"));
    }

    const SOURCE: &str = r#"<r a="1"><c>x &amp; y</c><d/></r>"#;

    /// The first text node of `d`.
    fn text(d: &Document) -> NodeId {
        d.descendants(d.document_node())
            .find(|&n| matches!(d.kind(n), NodeKind::Text(_)))
            .unwrap()
    }

    /// A named call to one public mutator.
    type Mutator = (&'static str, fn(&mut Document));

    /// Each public mutator, called once on a freshly parsed document
    /// whose source is kept. Those that need a detached node create it
    /// first and then put the source back, so the one call under test
    /// is what has to drop it.
    fn mutators() -> Vec<Mutator> {
        fn detached(d: &mut Document) -> NodeId {
            let e = d.create_element("e");
            d.source = Some(Arc::from(SOURCE));
            e
        }
        vec![
            ("intern", |d| {
                d.intern("r");
            }),
            ("create_element", |d| {
                d.create_element("e");
            }),
            ("create_text", |d| {
                d.create_text("t");
            }),
            ("create_comment", |d| {
                d.create_comment("c");
            }),
            ("create_pi", |d| {
                d.create_pi("p", "data");
            }),
            ("append_child", |d| {
                let e = detached(d);
                let r = d.root_element().unwrap();
                d.append_child(r, e);
            }),
            ("append_element", |d| {
                let r = d.root_element().unwrap();
                d.append_element(r, "e");
            }),
            ("append_text", |d| {
                let r = d.root_element().unwrap();
                d.append_text(r, "t");
            }),
            ("set_attribute (new)", |d| {
                let r = d.root_element().unwrap();
                d.set_attribute(r, "b", "2");
            }),
            ("set_attribute (replace)", |d| {
                let r = d.root_element().unwrap();
                d.set_attribute(r, "a", "2");
            }),
            ("set_value", |d| {
                let t = text(d);
                d.set_value(t, "z");
            }),
            ("delete_subtree", |d| {
                let t = text(d);
                d.delete_subtree(t);
            }),
            ("delete_subtree (detached)", |d| {
                let e = detached(d);
                d.delete_subtree(e);
            }),
        ]
    }

    #[test]
    fn every_mutator_drops_the_kept_source() {
        for (name, mutate) in mutators() {
            let mut d = Document::parse(SOURCE).unwrap();
            assert_eq!(d.source(), Some(SOURCE), "{name}: parse keeps its input");
            let copy = d.clone();
            mutate(&mut d);
            assert_eq!(d.source(), None, "{name} must drop the source");
            assert_eq!(copy.source(), Some(SOURCE), "{name}: a clone keeps its own");
        }
    }

    #[test]
    fn reads_keep_the_source_and_drop_source_drops_it() {
        let mut d = Document::parse(SOURCE).unwrap();
        let t = text(&d);
        let _ = (d.string_value(t), d.stats(), d.pre_post_view());
        let _ = d.clone();
        assert_eq!(d.source(), Some(SOURCE));
        d.drop_source();
        assert_eq!(d.source(), None);
        assert_eq!(Document::new().source(), None);
    }

    #[test]
    fn debug_prints_the_source_length_not_the_source() {
        let d = Document::parse(SOURCE).unwrap();
        let shown = format!("{d:?}");
        assert!(shown.contains(&format!("source_len: Some({})", SOURCE.len())));
        // The arena holds the decoded text; only the source has `&amp;`.
        assert!(!shown.contains("&amp;"), "{shown}");
    }

    #[test]
    fn interning_is_stable() {
        let mut d = Document::new();
        let a = d.intern("item");
        let b = d.intern("item");
        assert_eq!(a, b);
        assert_eq!(d.resolve(a), "item");
        assert_eq!(d.lookup_name("item"), Some(a));
        assert_eq!(d.lookup_name("nope"), None);
    }
}
