//! Single-pass index creation (paper Figure 7).
//!
//! One depth-first traversal builds *all* configured indices
//! simultaneously: at every text node the hash function `H` and the
//! typed FSMs run once over the character data; at every element the
//! children's already-computed hashes/states are folded with the
//! combination function `C` and the SCTs. The traversal is expressed
//! over enter/leave events with an explicit frame stack — the same
//! control structure as the paper's stack-based algorithm, with the
//! push/pop bookkeeping made explicit by the event stream.
//!
//! Attribute nodes are indexed on their own values when their owner
//! element is entered; per XDM they do **not** contribute to the
//! element's string value, so they never join a frame. Comments and
//! processing instructions are not value-indexed and contribute
//! nothing either.

use std::borrow::Cow;

use xvi_fsm::StateId;
use xvi_hash::{combine, hash_str, HashValue};
use xvi_xml::{cursor::dfs_events, DfsEvent, Document, NodeId, NodeKind};

use crate::string_index::StringIndex;
use crate::typed_index::TypedIndex;

/// Indexes the subtree rooted at `root` (inclusive), filling the
/// string index and every typed index in one pass. Ancestors of
/// `root` are *not* touched — the caller recombines them when `root`
/// is not the document node (subtree insertion).
///
/// Each open element (or the document node) accumulates the hash and
/// the per-type states of the concatenation of the text content seen
/// so far. The frames live on two flat stacks — one hash per frame and
/// `typed.len()` states per frame — so opening an element allocates
/// nothing.
pub(crate) fn index_subtree(
    doc: &Document,
    root: NodeId,
    mut string: Option<&mut StringIndex>,
    typed: &mut [TypedIndex],
) {
    let k = typed.len();
    let identity_states: Vec<Option<StateId>> = typed
        .iter()
        .map(|t| Some(t.analyzer().sct().identity()))
        .collect();
    let mut hashes: Vec<HashValue> = Vec::new();
    let mut states: Vec<Option<StateId>> = Vec::new();

    for event in dfs_events(doc, root) {
        match event {
            DfsEvent::Enter(node) => match doc.kind(node) {
                NodeKind::Text(t) => {
                    let h = hash_str(t);
                    if let Some(s) = string.as_deref_mut() {
                        s.set(node, h);
                    }
                    if let Some(top) = hashes.last_mut() {
                        *top = combine(*top, h);
                    }
                    let top = states.len().saturating_sub(k);
                    for (i, idx) in typed.iter_mut().enumerate() {
                        let an = idx.analyzer();
                        let state = an.state_of(t);
                        let value = state
                            .filter(|&s| an.is_complete(s))
                            .and_then(|_| an.cast(t))
                            .map(|v| v.key);
                        idx.set(node, state, value);
                        if !hashes.is_empty() {
                            states[top + i] = an.combine(states[top + i], state);
                        }
                    }
                }
                NodeKind::Element(_) | NodeKind::Document => {
                    // Attributes are indexed on their own values.
                    for attr in doc.attributes(node) {
                        if let NodeKind::Attribute { value, .. } = doc.kind(attr) {
                            if let Some(s) = string.as_deref_mut() {
                                s.set(attr, hash_str(value));
                            }
                            for idx in typed.iter_mut() {
                                let an = idx.analyzer();
                                let state = an.state_of(value);
                                let key = state
                                    .filter(|&s| an.is_complete(s))
                                    .and_then(|_| an.cast(value))
                                    .map(|v| v.key);
                                idx.set(attr, state, key);
                            }
                        }
                    }
                    hashes.push(HashValue::EMPTY);
                    states.extend_from_slice(&identity_states);
                }
                // Comments/PIs carry values but are outside the paper's
                // index coverage (text/element/attribute) and outside
                // XDM element string values.
                NodeKind::Comment(_) | NodeKind::Pi { .. } => {}
                NodeKind::Attribute { .. } | NodeKind::Free => {
                    unreachable!("attributes/freed nodes are not in the structural DFS")
                }
            },
            DfsEvent::Leave(node) => match doc.kind(node) {
                NodeKind::Element(_) | NodeKind::Document => {
                    let hash = hashes.pop().expect("leave matches enter");
                    let top = states.len() - k;
                    if let Some(s) = string.as_deref_mut() {
                        s.set(node, hash);
                    }
                    for (i, idx) in typed.iter_mut().enumerate() {
                        let an = idx.analyzer();
                        let state = states[top + i];
                        let value = state
                            .filter(|&s| an.is_complete(s))
                            .and_then(|_| an.cast(&string_value(doc, node)))
                            .map(|v| v.key);
                        idx.set(node, state, value);
                    }
                    if let Some(parent) = hashes.last_mut() {
                        *parent = combine(*parent, hash);
                        let (rest, frame) = states.split_at_mut(top);
                        let parent_states = &mut rest[top - k..];
                        for (i, idx) in typed.iter().enumerate() {
                            parent_states[i] = idx.analyzer().combine(parent_states[i], frame[i]);
                        }
                    }
                    states.truncate(top);
                }
                _ => {}
            },
        }
    }
    debug_assert!(hashes.is_empty(), "every frame is popped");
}

/// The string value of a complete element, read in place when its only
/// child is a text node: nearly every complete element is such a leaf.
/// Complete intermediate nodes are rare (paper Table 1's "non-leaf"
/// column), so materialising theirs costs next to nothing.
fn string_value(doc: &Document, node: NodeId) -> Cow<'_, str> {
    if let Some(child) = doc.first_child(node) {
        if let (None, NodeKind::Text(t)) = (doc.next_sibling(child), doc.kind(child)) {
            return Cow::Borrowed(t);
        }
    }
    Cow::Owned(doc.string_value(node))
}
