//! Model check of `CausalGraph`, the per-origin runs behind Algorithm 5's
//! `UpdateCG`: random sequences of `update` / `retire` / `get` /
//! `contains` / `missing_from` / `messages` / `len` against a
//! `BTreeMap<MsgId, AppMessage>` plus the two digests as plain sets.
//!
//! Origins run up to `u32::MAX` and sequence numbers come from a pool with
//! holes, 0 and the top of the range, so updates arrive in order, out of
//! order and twice, runs split and empty, and retired ids are offered again.
//! After every step each answer — and the iteration order — must equal the
//! reference's, and a graph rebuilt from the reference in reverse order
//! must compare equal (equality is by content, not by history).

use std::collections::{BTreeMap, BTreeSet};

use ec_core::etob_omega::CausalGraph;
use ec_core::types::{AppMessage, MsgId};
use ec_core::version::VersionVector;
use ec_sim::ProcessId;
use proptest::prelude::*;

const ORIGINS: [usize; 4] = [0, 1, 2, u32::MAX as usize];
const TOP: u64 = u64::MAX;
const SEQS: [u64; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 11, TOP - 2, TOP - 1, TOP];

fn id(origin: usize, seq: usize) -> MsgId {
    MsgId::new(ProcessId::new(ORIGINS[origin]), SEQS[seq])
}

/// The reference: resident nodes in identifier order, everything ever
/// added, and everything retired.
#[derive(Default)]
struct Model {
    nodes: BTreeMap<MsgId, AppMessage>,
    digest: BTreeSet<MsgId>,
    compacted: BTreeSet<MsgId>,
}

impl Model {
    fn update(&mut self, m: AppMessage) -> bool {
        if self.compacted.contains(&m.id) || self.nodes.contains_key(&m.id) {
            return false;
        }
        self.digest.insert(m.id);
        self.nodes.insert(m.id, m);
        true
    }

    fn retire(&mut self, ids: &[MsgId]) {
        for id in ids {
            self.compacted.insert(*id);
            self.digest.insert(*id);
            self.nodes.remove(id);
        }
    }
}

fn digest_of<'a>(ids: impl IntoIterator<Item = &'a MsgId>) -> VersionVector {
    let mut digest = VersionVector::new();
    for id in ids {
        digest.insert(*id);
    }
    digest
}

fn assert_agree(graph: &CausalGraph, model: &Model) {
    let messages: Vec<&AppMessage> = graph.messages().collect();
    let expected: Vec<&AppMessage> = model.nodes.values().collect();
    assert_eq!(messages, expected, "iteration order and content");
    assert_eq!(graph.len(), model.nodes.len());
    assert_eq!(graph.is_empty(), model.nodes.is_empty());
    assert_eq!(graph.digest(), &digest_of(&model.digest));
    assert_eq!(graph.compacted(), &digest_of(&model.compacted));
    for origin in 0..ORIGINS.len() {
        for seq in 0..SEQS.len() {
            let id = id(origin, seq);
            assert_eq!(graph.get(id), model.nodes.get(&id), "get({id})");
            assert_eq!(graph.contains(id), model.nodes.contains_key(&id));
            assert_eq!(graph.is_compacted(id), model.compacted.contains(&id));
        }
    }
    // the same content inserted in reverse order is the same graph
    let mut rebuilt = CausalGraph::recovered(digest_of(&model.compacted));
    for m in model.nodes.values().rev() {
        assert!(rebuilt.update(m.clone()));
    }
    assert_eq!(&rebuilt, graph);
}

proptest! {
    #[test]
    fn causal_graph_agrees_with_a_map_model(
        ops in prop::collection::vec((0u8..8, 0usize..4, 0usize..12, any::<u64>()), 1..160)
    ) {
        let mut graph = CausalGraph::new();
        let mut model = Model::default();
        for (kind, origin, seq, bits) in ops {
            let target = id(origin, seq);
            match kind {
                // updates dominate; a payload per call shows which copy stays
                0..=3 => {
                    let dep = id((origin + 1) % ORIGINS.len(), seq);
                    let m = AppMessage::with_deps(target, bits.to_le_bytes().to_vec(), [dep]);
                    prop_assert_eq!(graph.update(m.clone()), model.update(m));
                }
                // a fold: the first `bits % 3 + 1` resident nodes of an origin
                4 => {
                    let origin = ProcessId::new(ORIGINS[origin]);
                    let ids: Vec<MsgId> = model
                        .nodes
                        .keys()
                        .filter(|id| id.origin == origin)
                        .take(bits as usize % 3 + 1)
                        .copied()
                        .collect();
                    graph.retire(ids.iter().copied());
                    model.retire(&ids);
                }
                // any id, resident or not: a delivered entry never admitted
                5 => {
                    graph.retire([target]);
                    model.retire(&[target]);
                }
                // a repair answer for a peer that knows a random subset
                _ => {
                    let known: Vec<MsgId> = model
                        .digest
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| bits >> (i % 64) & 1 == 1)
                        .map(|(_, id)| *id)
                        .collect();
                    let expected: Vec<AppMessage> = model
                        .nodes
                        .values()
                        .filter(|m| !known.contains(&m.id))
                        .cloned()
                        .collect();
                    prop_assert_eq!(graph.missing_from(&digest_of(&known)), expected);
                }
            }
            assert_agree(&graph, &model);
        }
    }
}
