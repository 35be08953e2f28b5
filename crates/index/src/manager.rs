//! The index manager: ownership of all indices over one document,
//! lookups, and the maintenance algorithms of paper §5.

use std::collections::HashSet;

use xvi_fsm::{StateId, XmlType};
use xvi_hash::{combine, hash_str, HashValue};
use xvi_xml::{Document, NodeId, NodeKind};

use crate::config::IndexConfig;
use crate::create::index_subtree;
use crate::error::IndexError;
use crate::lookup::{Bounds, Lookup, QueryResult};
use crate::stats::CardinalityEstimate;
use crate::string_index::StringIndex;
use crate::substring::SubstringIndex;
use crate::typed_index::TypedIndex;

/// All value indices over one [`Document`].
///
/// Build once with [`IndexManager::build`] (paper Figure 7), then keep
/// it in sync through [`IndexManager::update_value`],
/// [`IndexManager::update_values`], [`IndexManager::delete_subtree`]
/// and [`IndexManager::index_new_subtree`] (paper Figure 8); every
/// lookup flavor goes through the one generic entry point,
/// [`IndexManager::query`], with a typed [`Lookup`] request.
///
/// ```
/// use xvi_index::{IndexConfig, IndexManager, Lookup};
/// use xvi_xml::Document;
///
/// let doc = Document::parse(
///     "<person><name><first>Arthur</first><family>Dent</family></name></person>").unwrap();
/// let idx = IndexManager::build(&doc, IndexConfig::default());
/// // The paper's query: //*[fn:data(name)="ArthurDent"] — elements
/// // whose *concatenated* string value matches. In this minimal
/// // document that is <name>, <person>, and the document node, since
/// // they all concatenate to the same text.
/// let hits = idx.query(&doc, &Lookup::equi("ArthurDent")).unwrap();
/// assert_eq!(hits.len(), 3);
/// assert!(hits.iter().any(|&n| doc.name(n) == Some("name")));
/// ```
#[derive(Debug, Clone)]
pub struct IndexManager {
    config: IndexConfig,
    string: Option<StringIndex>,
    typed: Vec<TypedIndex>,
    substring: Option<SubstringIndex>,
}

/// The typed half of a build's bulk loads, detached from its manager
/// by [`IndexManager::shred`]: the staged typed indexes and whether a
/// substring index is configured.
pub(crate) struct TypedLoads {
    typed: Vec<TypedIndex>,
    substring: bool,
}

/// What [`TypedLoads::finish`] hands back to [`IndexManager::attach`].
pub(crate) type LoadedTyped = (Vec<TypedIndex>, Option<SubstringIndex>);

impl TypedLoads {
    /// Bulk-loads every typed index and builds the substring index,
    /// if configured.
    pub(crate) fn finish(mut self, doc: &Document) -> LoadedTyped {
        for t in self.typed.iter_mut() {
            t.finish_bulk();
        }
        let substring = self.substring.then(|| SubstringIndex::build(doc));
        (self.typed, substring)
    }
}

impl IndexManager {
    /// Builds all configured indices in a single depth-first pass.
    pub fn build(doc: &Document, config: IndexConfig) -> IndexManager {
        let (mut mgr, typed) = IndexManager::shred(doc, config);
        mgr.finish_string();
        mgr.attach(typed.finish(doc));
        mgr
    }

    /// The first half of [`IndexManager::build`]: the shred pass. It
    /// stages every configured index's entries in one depth-first
    /// walk and returns the manager with its string index still
    /// staged, plus the typed indexes (and the substring build, if
    /// configured) as a [`TypedLoads`] that can run on another thread.
    pub(crate) fn shred(doc: &Document, config: IndexConfig) -> (IndexManager, TypedLoads) {
        // Creation is append-only, so the B+trees are bulk-loaded from
        // sorted entry runs instead of filled by random inserts.
        let mut string = config
            .string_index
            .then(|| StringIndex::for_bulk(doc.arena_size()));
        let mut typed: Vec<TypedIndex> = config
            .typed
            .iter()
            .map(|&t| TypedIndex::for_bulk(t, doc.arena_size()))
            .collect();
        index_subtree(doc, doc.document_node(), string.as_mut(), &mut typed);
        let loads = TypedLoads {
            typed,
            substring: config.substring_index,
        };
        let mgr = IndexManager {
            config,
            string,
            typed: Vec::new(),
            substring: None,
        };
        (mgr, loads)
    }

    /// The string half of the bulk loads: sorts the staged `(hash,
    /// node)` keys and loads the hash B+tree.
    pub(crate) fn finish_string(&mut self) {
        if let Some(s) = self.string.as_mut() {
            s.finish_bulk();
        }
    }

    /// Installs the result of [`TypedLoads::finish`].
    pub(crate) fn attach(&mut self, (typed, substring): LoadedTyped) {
        self.typed = typed;
        self.substring = substring;
    }

    /// The active configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The string equi-index, if configured.
    pub fn string_index(&self) -> Option<&StringIndex> {
        self.string.as_ref()
    }

    /// The trigram substring index, if configured.
    pub fn substring_index(&self) -> Option<&SubstringIndex> {
        self.substring.as_ref()
    }

    /// The typed index for `ty`, if configured.
    pub fn typed_index(&self, ty: XmlType) -> Option<&TypedIndex> {
        self.typed.iter().find(|t| t.xml_type() == ty)
    }

    /// The stored hash of a node's string value.
    pub fn hash_of(&self, node: NodeId) -> Option<HashValue> {
        self.string.as_ref()?.hash_of(node)
    }

    /// The stored FSM state of a node for `ty` (`None` = reject).
    pub fn state_of(&self, ty: XmlType, node: NodeId) -> Option<StateId> {
        self.typed_index(ty)?.state_of(node)
    }

    // ----- lookups ---------------------------------------------------------

    /// Candidate nodes whose string value *hashes* like `value`.
    /// May contain hash-collision false positives — the diagnostic
    /// window into the paper's verification step; verified lookups go
    /// through [`IndexManager::query`].
    ///
    /// # Panics
    /// Panics if the string index is not configured.
    pub fn equi_candidates(&self, value: &str) -> Vec<NodeId> {
        self.string
            .as_ref()
            .expect("string index not configured")
            .candidates(hash_str(value))
    }

    /// Evaluates one typed [`Lookup`] request — the single generic
    /// query entry point covering equality, range, typed, substring,
    /// wildcard and XPath lookups.
    ///
    /// Results are verified against the document (no hash-collision or
    /// trigram false positives) and returned in a deterministic order:
    /// arena order for value lookups, document order for XPath.
    pub fn query(&self, doc: &Document, lookup: &Lookup) -> QueryResult {
        match lookup {
            Lookup::Equi(value) => {
                let string = self
                    .string
                    .as_ref()
                    .ok_or(IndexError::IndexNotConfigured("string"))?;
                Ok(string
                    .candidates(hash_str(value))
                    .into_iter()
                    .filter(|&n| doc.is_live(n) && doc.string_value(n) == *value)
                    .collect())
            }
            Lookup::RangeF64(bounds) => self.typed_range(XmlType::Double, *bounds),
            Lookup::TypedEq(ty, key) => self.typed_range(*ty, Bounds::eq(*key)),
            Lookup::TypedRange(ty, bounds) => self.typed_range(*ty, *bounds),
            Lookup::Contains(needle) => Ok(self.substring()?.contains(doc, needle)),
            Lookup::Wildcard(pattern) => Ok(self.substring()?.matches_wildcard(doc, pattern)),
            Lookup::XPath(q) => Ok(crate::query::QueryEngine::evaluate(doc, self, q)),
        }
    }

    fn typed_range(&self, ty: XmlType, bounds: Bounds) -> QueryResult {
        Ok(self
            .typed_index(ty)
            .ok_or(IndexError::TypeNotIndexed(ty))?
            .range(bounds))
    }

    fn substring(&self) -> Result<&SubstringIndex, IndexError> {
        self.substring
            .as_ref()
            .ok_or(IndexError::IndexNotConfigured("substring"))
    }

    // ----- cardinality estimation -------------------------------------------

    /// Estimates how many candidate nodes evaluating `lookup` would
    /// produce, answered purely from the maintained per-index
    /// structures (no document access, no probe). The same lookups
    /// that [`IndexManager::query`] rejects are rejected here with the
    /// same typed errors.
    ///
    /// Tree-backed lookups — [`Lookup::Equi`], [`Lookup::RangeF64`],
    /// [`Lookup::TypedEq`], [`Lookup::TypedRange`] — are answered
    /// **exactly** (`lower == estimate == upper`) in O(log n) node
    /// visits from the B+trees' interior monoid summaries; for `Equi`
    /// the count covers hash-matching *candidates*, before string
    /// verification. Substring lookups — [`Lookup::Contains`],
    /// [`Lookup::Wildcard`] — are answered from the substring index's
    /// q-gram table ([`QGramTable`](crate::QGramTable)) with guaranteed
    /// `[lower, upper]` bounds around the point estimate. Either way
    /// the estimate is what [`QueryEngine`](crate::QueryEngine) ranks
    /// candidate predicates by. A [`Lookup::XPath`] request instead
    /// estimates the *work* of the chosen plan with vacuous bounds
    /// (`[0, usize::MAX]`): a query's result count can fan out beyond
    /// any probe's candidates, so no finite bound would be sound.
    ///
    /// ```
    /// use xvi_index::{Document, IndexConfig, IndexManager, Lookup};
    ///
    /// let doc = Document::parse(
    ///     "<people><p><age>42</age></p><p><age>7</age></p></people>").unwrap();
    /// let idx = IndexManager::build(&doc, IndexConfig::default());
    /// let est = idx.estimate(&Lookup::range_f64(0.0..100.0)).unwrap();
    /// let actual = idx.query(&doc, &Lookup::range_f64(0.0..100.0)).unwrap().len();
    /// assert_eq!((est.lower, est.estimate, est.upper), (actual, actual, actual));
    /// ```
    pub fn estimate(&self, lookup: &Lookup) -> Result<CardinalityEstimate, IndexError> {
        match lookup {
            Lookup::Equi(value) => Ok(self
                .string
                .as_ref()
                .ok_or(IndexError::IndexNotConfigured("string"))?
                .estimate_equi(hash_str(value))),
            Lookup::RangeF64(bounds) => self.estimate_typed(XmlType::Double, bounds),
            Lookup::TypedEq(ty, key) => self.estimate_typed(*ty, &Bounds::eq(*key)),
            Lookup::TypedRange(ty, bounds) => self.estimate_typed(*ty, bounds),
            Lookup::Contains(needle) => Ok(self.substring()?.estimate_contains(needle)),
            Lookup::Wildcard(pattern) => Ok(self.substring()?.estimate_wildcard(pattern)),
            Lookup::XPath(q) => Ok(crate::query::QueryEngine::estimate_query(self, q)),
        }
    }

    fn estimate_typed(
        &self,
        ty: XmlType,
        bounds: &Bounds,
    ) -> Result<CardinalityEstimate, IndexError> {
        Ok(self
            .typed_index(ty)
            .ok_or(IndexError::TypeNotIndexed(ty))?
            .estimate_range(bounds))
    }

    /// Structural [`xvi_btree::TreeStats`] for every tree-backed index
    /// this manager holds, labeled by index kind — the per-kind series
    /// the observability registry's tree collector exports (cache
    /// hit/miss counters, page sharing, COW detach totals).
    pub fn tree_stats_by_kind(&self) -> Vec<(String, xvi_btree::TreeStats)> {
        let mut out = Vec::new();
        if let Some(s) = &self.string {
            out.push(("string".to_string(), s.tree_stats()));
        }
        for t in &self.typed {
            let ty = format!("{:?}", t.xml_type()).to_lowercase();
            out.push((format!("typed_{ty}_value"), t.value_tree_stats()));
            out.push((format!("typed_{ty}_node"), t.node_tree_stats()));
        }
        if let Some(s) = &self.substring {
            out.push(("substring".to_string(), s.tree_stats()));
        }
        out
    }

    /// Total copy-on-write page detaches across every tree-backed
    /// index (cumulative over this manager's mutation lineage; clones
    /// inherit the count). O(1) — cheap enough for the service publish
    /// path to read before and after an update and report "COW pages
    /// detached per publish" as the difference.
    pub fn pages_detached(&self) -> u64 {
        let string = self.string.as_ref().map_or(0, |s| s.pages_detached());
        let typed: u64 = self.typed.iter().map(|t| t.pages_detached()).sum();
        let substring = self.substring.as_ref().map_or(0, |s| s.pages_detached());
        string + typed + substring
    }

    /// A cheap proxy for the document's node population, derived from
    /// the largest configured index — the scale the planner compares
    /// scan costs against.
    pub fn approx_node_count(&self) -> usize {
        let string = self.string.as_ref().map(|s| s.len()).unwrap_or(0);
        let typed = self
            .typed
            .iter()
            .map(|t| t.stored_states())
            .max()
            .unwrap_or(0);
        let substring = self
            .substring
            .as_ref()
            .map(|s| s.indexed_nodes())
            .unwrap_or(0);
        string.max(typed).max(substring)
    }

    // ----- maintenance (paper Figure 8) -------------------------------------

    /// Updates the value of one text or attribute node and repairs all
    /// indices by recombining only the node's ancestors.
    pub fn update_value(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        new_value: &str,
    ) -> Result<(), IndexError> {
        self.update_values(doc, std::iter::once((node, new_value)))
    }

    /// Batch value update. All leaf changes are applied first, then
    /// every affected ancestor is recombined exactly once from its
    /// children's stored hashes/states — the batch equivalent of the
    /// paper's Figure 8 pass over a sequence of updated text nodes.
    pub fn update_values<'a, I>(&mut self, doc: &mut Document, updates: I) -> Result<(), IndexError>
    where
        I: IntoIterator<Item = (NodeId, &'a str)>,
    {
        let mut touched_text_nodes = Vec::new();
        for (node, value) in updates {
            if !doc.is_live(node) {
                return Err(IndexError::DeadNode(node));
            }
            match doc.kind(node) {
                NodeKind::Text(_) => {
                    let old = doc.set_value(node, value);
                    self.reindex_value_node(doc, node);
                    if let Some(sub) = self.substring.as_mut() {
                        sub.replace_value(node, &old, value);
                    }
                    touched_text_nodes.push(node);
                }
                NodeKind::Attribute { .. } => {
                    // Attribute values are indexed but, per XDM, do not
                    // contribute to any element's string value — no
                    // ancestor propagation needed.
                    let old = doc.set_value(node, value);
                    self.reindex_value_node(doc, node);
                    if let Some(sub) = self.substring.as_mut() {
                        sub.replace_value(node, &old, value);
                    }
                }
                _ => return Err(IndexError::NotAValueNode(node)),
            }
        }
        self.recombine_ancestors(doc, &touched_text_nodes);
        Ok(())
    }

    /// Removes the subtree rooted at `node` from the document and all
    /// indices, then repairs the ancestors. Returns the former parent.
    /// (The paper: run the update algorithm with the deleted subtree's
    /// root as an empty-valued context node.)
    pub fn delete_subtree(
        &mut self,
        doc: &mut Document,
        node: NodeId,
    ) -> Result<Option<NodeId>, IndexError> {
        if !doc.is_live(node) {
            return Err(IndexError::DeadNode(node));
        }
        // Drop index entries before the arena frees the nodes; only the
        // stored annotations are read, never the string data.
        let subtree: Vec<NodeId> = doc.descendants_or_self(node).collect();
        for m in subtree {
            for a in doc.attributes(m) {
                if let (Some(sub), Some(v)) = (self.substring.as_mut(), doc.direct_value(a)) {
                    sub.remove_value(a, v);
                }
                self.drop_node(a);
            }
            if let (Some(sub), Some(v)) = (self.substring.as_mut(), doc.direct_value(m)) {
                sub.remove_value(m, v);
            }
            self.drop_node(m);
        }
        let parent = doc.delete_subtree(node);
        if let Some(p) = parent {
            self.recombine_ancestors_from(doc, p);
        }
        Ok(parent)
    }

    /// Indexes a freshly attached subtree (built via the `Document`
    /// construction API) and repairs the ancestors of its root.
    pub fn index_new_subtree(&mut self, doc: &Document, node: NodeId) {
        index_subtree(doc, node, self.string.as_mut(), &mut self.typed);
        if let Some(sub) = self.substring.as_mut() {
            for m in doc.descendants_or_self(node) {
                if let Some(v) = doc.direct_value(m) {
                    sub.add_value(m, v);
                }
                for a in doc.attributes(m) {
                    if let Some(v) = doc.direct_value(a) {
                        sub.add_value(a, v);
                    }
                }
            }
        }
        if let Some(p) = doc.parent(node) {
            self.recombine_ancestors_from(doc, p);
        }
    }

    /// Recomputes the annotations of one value-carrying node after its
    /// stored value changed.
    fn reindex_value_node(&mut self, doc: &Document, node: NodeId) {
        let value = doc.direct_value(node).expect("text or attribute node");
        if let Some(s) = self.string.as_mut() {
            s.set(node, hash_str(value));
        }
        for idx in &mut self.typed {
            let an = idx.analyzer();
            let state = an.state_of(value);
            let key = state
                .filter(|&st| an.is_complete(st))
                .and_then(|_| an.cast(value))
                .map(|v| v.key);
            idx.set(node, state, key);
        }
    }

    fn drop_node(&mut self, node: NodeId) {
        if let Some(s) = self.string.as_mut() {
            s.remove(node);
        }
        for idx in &mut self.typed {
            idx.remove(node);
        }
    }

    /// Recombines every ancestor of the given text nodes, bottom-up,
    /// each exactly once.
    fn recombine_ancestors(&mut self, doc: &Document, updated: &[NodeId]) {
        let mut affected: Vec<(usize, NodeId)> = Vec::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        for &n in updated {
            let mut cur = doc.parent(n);
            while let Some(p) = cur {
                if !seen.insert(p) {
                    break; // the rest of this chain is already queued
                }
                affected.push((doc.depth(p), p));
                cur = doc.parent(p);
            }
        }
        // Children before parents: recombine deepest first.
        affected.sort_by_key(|&(depth, _)| std::cmp::Reverse(depth));
        for (_, node) in affected {
            self.recombine_node(doc, node);
        }
    }

    fn recombine_ancestors_from(&mut self, doc: &Document, start: NodeId) {
        let mut cur = Some(start);
        while let Some(p) = cur {
            self.recombine_node(doc, p);
            cur = doc.parent(p);
        }
    }

    /// Recomputes one element's (or the document node's) hash and
    /// states from its immediate children's *stored* annotations —
    /// the heart of the paper's update algorithm: no string data is
    /// read unless the node turns out to hold a complete typed value.
    fn recombine_node(&mut self, doc: &Document, node: NodeId) {
        debug_assert!(matches!(
            doc.kind(node),
            NodeKind::Element(_) | NodeKind::Document
        ));
        if let Some(s) = self.string.as_mut() {
            let mut h = HashValue::EMPTY;
            for c in doc.children(node) {
                if let Some(ch) = s.hash_of(c) {
                    h = combine(h, ch);
                }
            }
            s.set(node, h);
        }
        for idx in &mut self.typed {
            let an = idx.analyzer();
            let mut state = Some(an.sct().identity());
            for c in doc.children(node) {
                match doc.kind(c) {
                    NodeKind::Text(_) | NodeKind::Element(_) => {
                        state = an.combine(state, idx.state_of(c));
                        if state.is_none() {
                            break;
                        }
                    }
                    _ => {} // comments/PIs contribute nothing
                }
            }
            let key = state
                .filter(|&st| an.is_complete(st))
                .and_then(|_| an.cast(&doc.string_value(node)))
                .map(|v| v.key);
            idx.set(node, state, key);
        }
    }

    // ----- statistics & verification ----------------------------------------

    /// Storage accounting for the Figure 9 experiment.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            string_entries: self.string.as_ref().map(|s| s.len()).unwrap_or(0),
            string_bytes: self.string.as_ref().map(|s| s.approx_bytes()).unwrap_or(0),
            typed: self
                .typed
                .iter()
                .map(|t| TypedStats {
                    ty: t.xml_type(),
                    states: t.stored_states(),
                    values: t.stored_values(),
                    bytes: t.approx_bytes(),
                })
                .collect(),
        }
    }

    /// Compares this (incrementally maintained) index against a fresh
    /// rebuild from the same config; any divergence — including an
    /// index the config names but this manager lacks, or one it holds
    /// unconfigured — is a maintenance bug. Test/debug aid.
    pub fn verify_against(&self, doc: &Document) -> Result<(), String> {
        let fresh = IndexManager::build(doc, self.config.clone());
        let present = |stored: bool, configured: bool, what: &str| {
            if stored == configured {
                Ok(())
            } else {
                Err(format!(
                    "{what} index: stored {stored}, configured {configured}"
                ))
            }
        };
        present(self.string.is_some(), fresh.string.is_some(), "string")?;
        present(
            self.substring.is_some(),
            fresh.substring.is_some(),
            "substring",
        )?;
        let stored_types: Vec<XmlType> = self.typed.iter().map(|t| t.xml_type()).collect();
        let fresh_types: Vec<XmlType> = fresh.typed.iter().map(|t| t.xml_type()).collect();
        if stored_types != fresh_types {
            return Err(format!(
                "typed indexes: stored {stored_types:?}, configured {fresh_types:?}"
            ));
        }
        let mut nodes: Vec<NodeId> = doc.descendants_or_self(doc.document_node()).collect();
        let attrs: Vec<NodeId> = nodes
            .iter()
            .flat_map(|&n| doc.attributes(n).collect::<Vec<_>>())
            .collect();
        nodes.extend(attrs);
        for &n in &nodes {
            if self.hash_of(n) != fresh.hash_of(n) {
                return Err(format!(
                    "hash mismatch at {n:?}: stored {:?}, fresh {:?} (value {:?})",
                    self.hash_of(n),
                    fresh.hash_of(n),
                    doc.string_value(n)
                ));
            }
            for (idx, fresh_idx) in self.typed.iter().zip(&fresh.typed) {
                let ty = idx.xml_type();
                if idx.state_of(n) != fresh_idx.state_of(n) {
                    return Err(format!("{} state mismatch at {n:?}", ty.name()));
                }
                if idx.value_of(n) != fresh_idx.value_of(n) {
                    return Err(format!("{} value mismatch at {n:?}", ty.name()));
                }
            }
        }
        // Entry counts (catches stale entries for freed nodes).
        if let (Some(a), Some(b)) = (&self.string, &fresh.string) {
            if a.len() != b.len() {
                return Err(format!(
                    "string index entry count: stored {}, fresh {}",
                    a.len(),
                    b.len()
                ));
            }
        }
        for (idx, f) in self.typed.iter().zip(&fresh.typed) {
            if idx.stored_states() != f.stored_states() || idx.stored_values() != f.stored_values()
            {
                return Err(format!("{} index size mismatch", idx.xml_type().name()));
            }
        }
        if let (Some(a), Some(b)) = (&self.substring, &fresh.substring) {
            if a.postings() != b.postings() || a.indexed_nodes() != b.indexed_nodes() {
                return Err(format!(
                    "substring index mismatch: {}/{} postings, {}/{} nodes",
                    a.postings(),
                    b.postings(),
                    a.indexed_nodes(),
                    b.indexed_nodes()
                ));
            }
        }
        Ok(())
    }
}

/// Per-typed-index storage statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedStats {
    /// The indexed type.
    pub ty: XmlType,
    /// Nodes with a stored (non-reject) state.
    pub states: usize,
    /// Nodes with a complete, range-indexed value.
    pub values: usize,
    /// Approximate heap bytes.
    pub bytes: usize,
}

/// Aggregated storage statistics (Figure 9 accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// Entries in the string index.
    pub string_entries: usize,
    /// Approximate heap bytes of the string index.
    pub string_bytes: usize,
    /// One entry per typed index.
    pub typed: Vec<TypedStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERSON: &str = "<person><name><first>Arthur</first><family>Dent</family></name>\
        <birthday>1966-09-26</birthday>\
        <age><decades>4</decades>2<years/></age>\
        <weight><kilos>78</kilos>.<grams>230</grams></weight></person>";

    fn setup() -> (Document, IndexManager) {
        let doc = Document::parse(PERSON).unwrap();
        let idx = IndexManager::build(&doc, IndexConfig::default());
        (doc, idx)
    }

    fn find_text(doc: &Document, content: &str) -> NodeId {
        doc.descendants(doc.document_node())
            .find(|&n| matches!(doc.kind(n), NodeKind::Text(t) if t == content))
            .unwrap()
    }

    fn find_elem(doc: &Document, name: &str) -> NodeId {
        doc.descendants(doc.document_node())
            .find(|&n| doc.name(n) == Some(name))
            .unwrap()
    }

    #[test]
    fn element_hashes_equal_string_value_hashes() {
        let (doc, idx) = setup();
        for n in doc.descendants_or_self(doc.document_node()) {
            if matches!(doc.kind(n), NodeKind::Comment(_) | NodeKind::Pi { .. }) {
                continue;
            }
            assert_eq!(
                idx.hash_of(n),
                Some(hash_str(&doc.string_value(n))),
                "hash annotation of {n:?} ({:?})",
                doc.name(n)
            );
        }
    }

    #[test]
    fn equi_lookup_paper_queries() {
        let (doc, idx) = setup();
        // //person[first/text()="Arthur"] — the text node exists:
        let hits = idx.query(&doc, &Lookup::equi("Arthur")).unwrap();
        assert_eq!(hits.len(), 2); // the text node and its <first> parent
                                   // fn:data(name) = "ArthurDent":
        let hits = idx.query(&doc, &Lookup::equi("ArthurDent")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.name(hits[0]), Some("name"));
        // The mixed-content <age> has string value "42":
        let hits = idx.query(&doc, &Lookup::equi("42")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.name(hits[0]), Some("age"));
        // Nothing matches a string that is not a value:
        assert!(idx.query(&doc, &Lookup::equi("Zaphod")).unwrap().is_empty());
    }

    #[test]
    fn range_lookup_respects_mixed_content() {
        let (doc, idx) = setup();
        // <age> concatenates to "42", <weight> to "78.230".
        let hits = idx.query(&doc, &Lookup::range_f64(40.0..=80.0)).unwrap();
        let names: Vec<_> = hits.iter().map(|&n| doc.name(n)).collect();
        assert!(names.contains(&Some("age")));
        assert!(names.contains(&Some("weight")));
        // Text node "78" and element <kilos> also cast to 78.
        assert!(hits.len() >= 4);
        // Degenerate range
        assert!(idx
            .query(&doc, &Lookup::range_f64(1000.0..))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn update_propagates_to_ancestors() {
        let (mut doc, mut idx) = setup();
        let dent = find_text(&doc, "Dent");
        idx.update_value(&mut doc, dent, "Prefect").unwrap();
        assert_eq!(
            doc.string_value(doc.root_element().unwrap()),
            "ArthurPrefect1966-09-264278.230"
        );
        assert!(idx
            .query(&doc, &Lookup::equi("ArthurDent"))
            .unwrap()
            .is_empty());
        let hits = idx.query(&doc, &Lookup::equi("ArthurPrefect")).unwrap();
        assert_eq!(hits.len(), 1);
        idx.verify_against(&doc).unwrap();
    }

    #[test]
    fn numeric_update_moves_range_entries() {
        let (mut doc, mut idx) = setup();
        let two = find_text(&doc, "2");
        // <age> becomes "49".
        idx.update_value(&mut doc, two, "9").unwrap();
        let age = find_elem(&doc, "age");
        let hits = idx.query(&doc, &Lookup::range_f64(48.5..49.5)).unwrap();
        assert!(hits.contains(&age));
        assert!(!idx
            .query(&doc, &Lookup::range_f64(41.5..42.5))
            .unwrap()
            .contains(&age));
        idx.verify_against(&doc).unwrap();
    }

    #[test]
    fn update_can_turn_numbers_into_text_and_back() {
        let (mut doc, mut idx) = setup();
        let kilos_text = find_text(&doc, "78");
        idx.update_value(&mut doc, kilos_text, "heavy").unwrap();
        // weight = "heavy.230" → reject for doubles.
        let weight = find_elem(&doc, "weight");
        assert_eq!(idx.state_of(XmlType::Double, weight), None);
        idx.verify_against(&doc).unwrap();

        idx.update_value(&mut doc, kilos_text, "80").unwrap();
        assert!(idx
            .query(&doc, &Lookup::range_f64(80.0..81.0))
            .unwrap()
            .contains(&weight));
        idx.verify_against(&doc).unwrap();
    }

    #[test]
    fn attribute_updates_do_not_touch_ancestors() {
        let mut doc = Document::parse(r#"<r a="42"><c>x</c></r>"#).unwrap();
        let mut idx = IndexManager::build(&doc, IndexConfig::default());
        let r = doc.root_element().unwrap();
        let attr = doc.attribute(r, "a").unwrap();
        let before = idx.hash_of(r);

        idx.update_value(&mut doc, attr, "43").unwrap();
        assert_eq!(idx.hash_of(r), before);
        assert_eq!(idx.query(&doc, &Lookup::equi("43")).unwrap(), vec![attr]);
        assert!(idx
            .query(&doc, &Lookup::range_f64(42.5..43.5))
            .unwrap()
            .contains(&attr));
        idx.verify_against(&doc).unwrap();
    }

    #[test]
    fn update_rejects_non_value_nodes() {
        let (mut doc, mut idx) = setup();
        let name = find_elem(&doc, "name");
        let err = idx.update_value(&mut doc, name, "nope").unwrap_err();
        assert!(matches!(err, IndexError::NotAValueNode(_)));
    }

    #[test]
    fn batch_update_recombines_shared_ancestors_once() {
        let (mut doc, mut idx) = setup();
        let arthur = find_text(&doc, "Arthur");
        let dent = find_text(&doc, "Dent");
        idx.update_values(&mut doc, [(arthur, "Ford"), (dent, "Prefect")])
            .unwrap();
        assert_eq!(
            idx.query(&doc, &Lookup::equi("FordPrefect")).unwrap().len(),
            1
        );
        idx.verify_against(&doc).unwrap();
    }

    #[test]
    fn delete_subtree_repairs_indices() {
        let (mut doc, mut idx) = setup();
        let age = find_elem(&doc, "age");
        idx.delete_subtree(&mut doc, age).unwrap();
        assert!(idx.query(&doc, &Lookup::equi("42")).unwrap().is_empty());
        let person = doc.root_element().unwrap();
        assert_eq!(
            idx.hash_of(person),
            Some(hash_str("ArthurDent1966-09-2678.230"))
        );
        idx.verify_against(&doc).unwrap();
    }

    #[test]
    fn insert_subtree_indexes_new_nodes() {
        let (mut doc, mut idx) = setup();
        let person = doc.root_element().unwrap();
        let height = doc.append_element(person, "height");
        doc.append_text(height, "1.85");
        idx.index_new_subtree(&doc, height);
        assert!(idx
            .query(&doc, &Lookup::range_f64(1.8..1.9))
            .unwrap()
            .contains(&height));
        assert_eq!(
            idx.hash_of(person),
            Some(hash_str("ArthurDent1966-09-264278.2301.85"))
        );
        idx.verify_against(&doc).unwrap();
    }

    #[test]
    fn stats_reflect_population() {
        let (_, idx) = setup();
        let s = idx.stats();
        assert!(s.string_entries > 10);
        assert!(s.string_bytes > 0);
        assert_eq!(s.typed.len(), 1);
        assert_eq!(s.typed[0].ty, XmlType::Double);
        // "4","2","78",".","230", age, weight, kilos, grams, decades… —
        // every non-reject node stores a state, completes store values.
        assert!(s.typed[0].states >= 9);
        assert!(s.typed[0].values >= 6);
        assert!(s.typed[0].states >= s.typed[0].values);
    }

    #[test]
    fn multi_type_configuration() {
        let doc =
            Document::parse("<log><when>2008-12-31T23:59:59Z</when><ok>true</ok><n>17</n></log>")
                .unwrap();
        let idx = IndexManager::build(&doc, IndexConfig::all());
        let when = find_elem(&doc, "when");
        let hits = idx
            .query(
                &doc,
                &Lookup::typed_range(XmlType::DateTime, 1.2e12..1.3e12),
            )
            .unwrap();
        assert!(hits.contains(&when));
        let ok = find_elem(&doc, "ok");
        assert!(idx
            .query(&doc, &Lookup::typed_eq(XmlType::Boolean, 1.0))
            .unwrap()
            .contains(&ok));
        let n = find_elem(&doc, "n");
        assert!(idx
            .query(&doc, &Lookup::typed_eq(XmlType::Integer, 17.0))
            .unwrap()
            .contains(&n));
        let err = IndexManager::build(&doc, IndexConfig::string_only())
            .query(&doc, &Lookup::typed_range(XmlType::Double, 0.0..1.0))
            .unwrap_err();
        assert!(matches!(err, IndexError::TypeNotIndexed(_)));
    }

    /// Regression: `-0e0` and `000` cast to `-0.0` / `0.0`, which are
    /// equal under `f64::eq` but *distinct* under the tree's total
    /// order. An update flipping the zero sign must still move the
    /// range-tree entry, or a later removal leaves it stranded.
    #[test]
    fn negative_zero_updates_do_not_strand_entries() {
        let mut doc = Document::parse("<r><v>-0e0</v></r>").unwrap();
        let mut idx = IndexManager::build(&doc, IndexConfig::default());
        let text = find_text(&doc, "-0e0");
        idx.update_value(&mut doc, text, "000").unwrap();
        idx.verify_against(&doc).unwrap();
        idx.update_value(&mut doc, text, "not a number").unwrap();
        idx.verify_against(&doc).unwrap();
        assert!(idx.query(&doc, &Lookup::range_f64(..)).unwrap().is_empty());
    }

    #[test]
    fn substring_index_through_the_manager() {
        let mut doc = Document::parse(PERSON).unwrap();
        let mut idx = IndexManager::build(&doc, IndexConfig::default().with_substring_index());
        // Substring of a stored text value.
        let hits = idx.query(&doc, &Lookup::contains("rthu")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(doc.string_value(hits[0]), "Arthur");
        // Wildcards over stored values.
        let hits = idx.query(&doc, &Lookup::wildcard("19??-09-*")).unwrap();
        assert_eq!(hits.len(), 1);
        // Updates keep the trigram postings exact.
        let arthur = find_text(&doc, "Arthur");
        idx.update_value(&mut doc, arthur, "Zaphod").unwrap();
        assert!(idx
            .query(&doc, &Lookup::contains("rthu"))
            .unwrap()
            .is_empty());
        assert_eq!(idx.query(&doc, &Lookup::contains("apho")).unwrap().len(), 1);
        idx.verify_against(&doc).unwrap();
        // Deletion drops postings.
        let name = find_elem(&doc, "name");
        idx.delete_subtree(&mut doc, name).unwrap();
        assert!(idx
            .query(&doc, &Lookup::contains("apho"))
            .unwrap()
            .is_empty());
        idx.verify_against(&doc).unwrap();
        // Insertion adds postings.
        let person = doc.root_element().unwrap();
        let e = doc.append_element(person, "nickname");
        doc.append_text(e, "Beeblebrox");
        idx.index_new_subtree(&doc, e);
        assert_eq!(
            idx.query(&doc, &Lookup::contains("eeble")).unwrap().len(),
            1
        );
        idx.verify_against(&doc).unwrap();
    }

    /// A manager missing an index its config names must not verify
    /// clean, whichever kind of index is missing.
    #[test]
    fn verify_against_rejects_a_missing_configured_index() {
        let doc = Document::parse(PERSON).unwrap();
        let full = IndexManager::build(&doc, IndexConfig::all());
        full.verify_against(&doc).unwrap();
        let drops: [fn(&mut IndexManager); 3] = [
            |m| m.string = None,
            |m| m.substring = None,
            |m| drop(m.typed.pop()),
        ];
        for drop_one in drops {
            let mut idx = full.clone();
            drop_one(&mut idx);
            assert!(idx.verify_against(&doc).is_err());
        }
    }

    #[test]
    fn dead_node_errors() {
        let (mut doc, mut idx) = setup();
        let age = find_elem(&doc, "age");
        idx.delete_subtree(&mut doc, age).unwrap();
        let err = idx.delete_subtree(&mut doc, age).unwrap_err();
        assert!(matches!(err, IndexError::DeadNode(_)));
    }
}
