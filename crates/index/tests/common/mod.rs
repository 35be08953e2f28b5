//! Helpers shared by the index crate's integration tests.

use xvi_index::{IndexConfig, IndexManager, NodeId};
use xvi_xml::Document;

/// One arena slot's index annotations: the string-index hash, then
/// `(state, value bits)` for each configured typed index in config
/// order.
pub type SlotState = (Option<u32>, Vec<(Option<u16>, Option<u64>)>);

/// The per-node state of `idx` over `doc`, read through the public
/// accessors: the index configuration plus, for every arena slot, the
/// stored hash and each typed index's state and value. Two indices
/// with equal states hold the same annotations on every node.
pub fn index_state(doc: &Document, idx: &IndexManager) -> (IndexConfig, Vec<SlotState>) {
    let config = idx.config().clone();
    let slots = (0..doc.arena_size())
        .map(|i| {
            let node = NodeId::from_index(i);
            let typed = config
                .typed
                .iter()
                .map(|&ty| {
                    let t = idx.typed_index(ty).expect("configured type");
                    (t.state_of(node), t.value_of(node).map(f64::to_bits))
                })
                .collect();
            (idx.hash_of(node).map(|h| h.raw()), typed)
        })
        .collect();
    (config, slots)
}
