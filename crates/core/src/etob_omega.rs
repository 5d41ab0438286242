//! **Algorithm 5** of the paper: eventual total order broadcast (ETOB)
//! directly from Ω.
//!
//! Every process that broadcasts a message sends its causality graph to
//! everyone. Every process maintains (1) a causality graph `CG_i` of all
//! messages it knows about and (2) a *promotion sequence* `promote_i`, a
//! linearization of `CG_i` that respects causal order and only ever grows by
//! appending. As long as a process considers itself the leader (its Ω module
//! outputs itself), it periodically sends its promotion sequence to everyone.
//! A process adopts a received promotion sequence as its delivered sequence
//! `d_i` only if the sender is the process its own Ω module currently trusts.
//!
//! The three headline properties of the paper:
//!
//! * **P1 — two communication steps.** A broadcast reaches the leader in one
//!   message hop (`update`) and the resulting promotion sequence reaches all
//!   processes in one more hop (`promote`). With
//!   [`EtobConfig::eager_promote`] the leader promotes immediately upon
//!   learning a new message, making the two-hop latency visible end to end;
//!   otherwise a fraction of the promotion period is added on the simulator,
//!   while the real-time engines promote whenever the leader's inbox runs
//!   dry ([`Algorithm::on_idle`]).
//! * **P2 — strong consistency under a stable leader.** If Ω outputs the same
//!   leader at every process from the very beginning, delivered sequences are
//!   prefix-ordered from time 0: the algorithm implements full TOB.
//! * **P3 — causal order always.** Promotion sequences linearize the causal
//!   graph, so causal order holds even while processes trust different
//!   leaders.
//!
//! # Wire format: delta state vs the paper's full-graph broadcasts
//!
//! Algorithm 5 as written broadcasts the *entire* causality graph in every
//! `update` and the *entire* promotion sequence in every `promote`, so wire
//! traffic per broadcast grows linearly with history length (and total
//! traffic quadratically). This module keeps that literal protocol available
//! ([`EtobConfig::full_graph`], messages [`EtobMsg::Update`] /
//! [`EtobMsg::Promote`]) as the reference specification, and by default
//! ([`EtobConfig::delta_sync`]) runs a correctness-preserving refinement:
//!
//! * `update` becomes [`EtobMsg::Delta`]: the nodes added since the sender's
//!   last broadcast, plus an exact digest ([`VersionVector`]) of the
//!   sender's whole graph and the length and rolling hash of its delivered
//!   sequence. Each sender also tracks a per-peer *acked* frontier —
//!   everything a peer has provably confirmed knowing through the digests
//!   it sent — and excludes acked nodes from the per-peer copies.
//! * A receiver whose merged graph does not cover the incoming digest has
//!   detected a gap (a lost or not-yet-delivered earlier delta) and pulls
//!   with [`EtobMsg::SyncRequest`], carrying its own digest; the repairer
//!   answers with exactly the missing nodes. A peer is pulled at most once
//!   per promote period: further deltas showing the gap do not pull again,
//!   a lost request or repair is pulled again a period later.
//!   Anti-entropy retransmission ([`EtobConfig::resend_period`]) pushes
//!   per-peer unacked nodes, so the two mechanisms together restore
//!   eventual delivery over lossy links.
//! * `promote` becomes [`EtobMsg::PromoteDelta`]: the suffix appended since
//!   the leader's previous promote broadcast, keyed by the prefix length and
//!   a rolling FNV-1a hash of the prefix identifiers. A receiver whose
//!   delivered sequence does not match the keyed prefix falls back to a full
//!   resend via [`EtobMsg::PromoteRequest`].
//!
//! Both refinements only change *how* graph and sequence state move between
//! processes, never what the states converge to — the delta-equivalence
//! property tests (`crates/core/tests/batching_equivalence.rs`) and
//! experiment E12 pin delivered-sequence equality against the full-graph
//! reference, including under message loss and duplication.
//!
//! # Stable-prefix compaction
//!
//! Even with delta wire traffic, *resident* state (graph, promotion
//! sequence, delivered sequence) still grows with history. With
//! [`EtobConfig::compact_after`] enabled, every process folds, at promote
//! cadence, each delivered prefix that the whole group has both delivered
//! (a hash-checked delivered claim from every peer) and digest-acked (every
//! peer's graph frontier covers it) — bounding resident state by the
//! in-flight window (experiment E13) while the rolling prefix hashes keep
//! histories comparable across different fold points.
//!
//! No message exists only to carry that evidence: frontier and delivered
//! claim are fields of every [`EtobMsg::Delta`], so a link that carries
//! updates carries the evidence with them. Only a link that carried no
//! delta for a whole promote period gets a *beacon* — a node-less delta —
//! and none is sent while the sender holds a batch back
//! ([`EtobConfig::batch`]), because its digest would advertise nodes the
//! receiver cannot have yet. Evidence only ever comes from the peer it is
//! about, and a delivered claim counts only once the receiver's own lineage
//! reaches the claimed length with the same hash.
//!
//! Folded entries cannot be re-served by anti-entropy; a process that loses
//! its state after the group folds recovers through `ec-replication`'s
//! durable facade instead.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use ec_sim::{Algorithm, Context, ProcessId};

use crate::types::{
    common_prefix_len, decode_node, decode_sequence, AppMessage, Compactable, DeliveryDelta,
    EtobBroadcast, MsgId,
};
use crate::version::VersionVector;

/// The causality graph `CG_i`: all messages known to a process together with
/// the causal edges `(m′, m)` for every declared dependency `m′ ∈ C(m)`.
///
/// The edges are not stored apart from the nodes: the edges into `m` are
/// exactly `m.deps`, so the graph is its node map, and a node keeps the
/// dependencies it was first admitted with.
///
/// Under stable-prefix compaction ([`EtobConfig::compact_after`]) a causally
/// closed, globally acknowledged prefix of the graph can be *retired*
/// ([`CausalGraph::retire`]): the nodes are dropped, but their identifiers
/// stay in the [`CausalGraph::digest`] (which never shrinks) and move into
/// the [`CausalGraph::compacted`] frontier. Digest gap detection therefore
/// keeps working across the compaction boundary — a peer's frontier
/// covering a retired id is still covered by ours — while
/// [`CausalGraph::missing_from`] can only serve the *resident* nodes. An
/// edge from a retired node is satisfied by [`CausalGraph::is_compacted`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CausalGraph {
    /// The resident nodes as one run per origin: the runs sorted by origin,
    /// each sorted by `seq` and never empty — so iteration is `(origin,
    /// seq)` order and equal graphs hold equal runs. Runs are sorted, not
    /// dense: an origin's messages need not form a chain (explicit ids and
    /// dependencies break it), and a peer-chosen `seq` must not size a
    /// buffer.
    runs: Vec<VecDeque<AppMessage>>,
    /// Exact digest of every identifier ever added — resident *and*
    /// compacted — maintained incrementally and never shrunk.
    digest: VersionVector,
    /// Identifiers retired by compaction: still in the digest, no longer
    /// resident, and refused re-admission by [`CausalGraph::update`].
    compacted: VersionVector,
}

impl CausalGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph recovered from durable state: no resident nodes, with
    /// `frontier` recorded as the already-compacted (and digested) history.
    pub fn recovered(frontier: VersionVector) -> Self {
        CausalGraph {
            runs: Vec::new(),
            digest: frontier.clone(),
            compacted: frontier,
        }
    }

    /// Position of `origin`'s run: `Ok` where it is, `Err` where it goes.
    fn run_of(&self, origin: ProcessId) -> Result<usize, usize> {
        self.runs
            .binary_search_by_key(&Some(origin), |run| run.front().map(|m| m.id.origin))
    }

    /// Position of `seq` in a run: `Ok` where it is, `Err` where it goes. A
    /// run without holes holds `seq` at its offset from the front, so that
    /// slot is tried before the binary search.
    fn slot(run: &VecDeque<AppMessage>, seq: u64) -> Result<usize, usize> {
        let offset = run
            .front()
            .and_then(|first| usize::try_from(seq.checked_sub(first.id.seq)?).ok());
        match offset {
            Some(at) if run.get(at).is_some_and(|m| m.id.seq == seq) => Ok(at),
            _ => run.binary_search_by_key(&seq, |m| m.id.seq),
        }
    }

    /// `UpdateCG(m, C(m))`: adds the node `m`, and with it the edges
    /// `{(m′, m) | m′ ∈ C(m)}`. Returns `true` if the node was new.
    /// A compacted identifier is refused (it is history, not news), and a
    /// known one keeps its first copy: a duplicate id never rewrites the
    /// dependencies of a node that may already be promoted.
    pub fn update(&mut self, message: AppMessage) -> bool {
        let id = message.id;
        if self.compacted.contains(id) {
            return false;
        }
        match self.run_of(id.origin) {
            Err(at) => self.runs.insert(at, VecDeque::from([message])),
            Ok(at) => {
                let Some(run) = self.runs.get_mut(at) else {
                    return false;
                };
                if run.back().is_some_and(|last| last.id.seq < id.seq) {
                    run.push_back(message);
                } else {
                    match Self::slot(run, id.seq) {
                        Ok(_) => return false,
                        Err(pos) => run.insert(pos, message),
                    }
                }
            }
        }
        self.digest.insert(id);
        true
    }

    /// Retires a causally closed set of nodes folded into a snapshot: drops
    /// the nodes, keeps their identifiers in the digest, and records them
    /// as compacted. A fold retires delivered prefixes, so the node is
    /// mostly its run's front, which the deque removes in O(1).
    pub fn retire<I: IntoIterator<Item = MsgId>>(&mut self, ids: I) {
        for id in ids {
            self.compacted.insert(id);
            // A delivered entry adopted through a promote delta may never
            // have become a resident node; retiring still claims it in the
            // digest so peers' frontiers covering it stay covered by ours.
            self.digest.insert(id);
            let Ok(at) = self.run_of(id.origin) else {
                continue;
            };
            let Some(run) = self.runs.get_mut(at) else {
                continue;
            };
            if let Ok(pos) = Self::slot(run, id.seq) {
                run.remove(pos);
            }
            if run.is_empty() {
                self.runs.remove(at);
            }
        }
    }

    /// The identifiers retired by compaction.
    pub fn compacted(&self) -> &VersionVector {
        &self.compacted
    }

    /// Returns `true` if the identifier was retired by compaction.
    pub fn is_compacted(&self, id: MsgId) -> bool {
        self.compacted.contains(id)
    }

    /// The exact digest of the graph's node identifiers.
    pub fn digest(&self) -> &VersionVector {
        &self.digest
    }

    /// The nodes of the graph not contained in `known`, in identifier order
    /// — the repair payload answering a [`EtobMsg::SyncRequest`].
    pub fn missing_from(&self, known: &VersionVector) -> Vec<AppMessage> {
        self.messages()
            .filter(|m| !known.contains(m.id))
            .cloned()
            .collect()
    }

    /// The node with identifier `id`, if known.
    pub fn get(&self, id: MsgId) -> Option<&AppMessage> {
        let run = self.runs.get(self.run_of(id.origin).ok()?)?;
        run.get(Self::slot(run, id.seq).ok()?)
    }

    /// Number of *resident* messages (compacted history excluded) — the
    /// quantity bounded by compaction, reported by experiment E13.
    pub fn len(&self) -> usize {
        self.runs.iter().map(VecDeque::len).sum()
    }

    /// Returns `true` if no message is resident.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Returns `true` if the graph holds the message as a resident node.
    pub fn contains(&self, id: MsgId) -> bool {
        self.get(id).is_some()
    }

    /// The messages of the graph, in identifier order.
    pub fn messages(&self) -> impl Iterator<Item = &AppMessage> + '_ {
        self.runs.iter().flatten()
    }
}

/// Messages of [`EtobOmega`].
///
/// [`EtobMsg::Update`] and [`EtobMsg::Promote`] are the paper-literal
/// full-state messages (sent in [`EtobConfig::full_graph`] mode, and
/// `Promote` additionally as the fallback full resend of the delta mode);
/// the other variants carry the delta-state wire format (see the module
/// docs). Compaction has no variant of its own: its evidence rides on
/// [`EtobMsg::Delta`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EtobMsg {
    /// `update(CG_i)`: the sender's *entire* causality graph (paper mode).
    Update(CausalGraph),
    /// Delta update: the nodes the receiver is believed to be missing, plus
    /// an exact digest of the sender's whole graph for gap detection and the
    /// sender's delivered prefix. Frontier and prefix are the two compaction
    /// evidences (see [`EtobConfig::compact_after`]); they ride on every
    /// delta, so no message exists only to carry them — except the *beacon*,
    /// a node-less delta sent at promote cadence to a peer that got no other
    /// delta for a whole period.
    Delta {
        /// Graph nodes new to the receiver (empty in a beacon and in the
        /// sender's self-copy).
        nodes: Vec<AppMessage>,
        /// Digest of the sender's full graph *after* the nodes.
        frontier: VersionVector,
        /// Absolute length of the sender's delivered sequence: "I have
        /// delivered (and, under the durable facade, logged) this many
        /// entries". Counts as evidence only once the receiver's own
        /// lineage reaches that length with the same `hash`.
        delivered: u64,
        /// Rolling FNV-1a hash of the first `delivered` identifiers.
        hash: u64,
    },
    /// Digest pull: the receiver detected that the sender knows messages it
    /// does not, and asks for everything not covered by `digest`.
    SyncRequest {
        /// The requester's full graph digest.
        digest: VersionVector,
    },
    /// `promote(promote_i)`: the sender's *entire* promotion sequence
    /// (paper mode, and the delta mode's full-resend fallback).
    Promote(Vec<AppMessage>),
    /// Delta promote: the suffix of the leader's promotion sequence since
    /// its previous promote broadcast, keyed by the prefix length and a
    /// rolling FNV-1a hash of the prefix identifiers.
    PromoteDelta {
        /// Length of the unsent prefix (the leader's sequence length at the
        /// previous broadcast).
        base: usize,
        /// Rolling hash of the first `base` identifiers of the leader's
        /// sequence; a receiver reconstructs `prefix ++ suffix` only if its
        /// own delivered prefix matches.
        prefix_hash: u64,
        /// The appended entries `promote_i[base..]`.
        suffix: Vec<AppMessage>,
    },
    /// A receiver could not verify a [`EtobMsg::PromoteDelta`] prefix (it
    /// followed a different leader, missed a promote, or the leader
    /// restarted) and asks for a full [`EtobMsg::Promote`] resend.
    PromoteRequest,
}

/// Configuration of [`EtobOmega`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EtobConfig {
    /// Ticks between the leader's periodic `promote` broadcasts: the
    /// liveness and repair cadence (a promote goes out every period, grown
    /// or not, and compaction evidence is exchanged on it). On the
    /// simulator it is also when a grown sequence leaves; on the real-time
    /// engines the leader sends a grown suffix as soon as its inbox drains
    /// ([`Algorithm::on_idle`]).
    pub promote_period: u64,
    /// If `true`, a process that currently considers itself the leader sends
    /// a `promote` immediately whenever its promotion sequence grows — once
    /// per step that grew it, busy or not. This realizes the paper's optimal
    /// two-communication-step delivery on every engine; ablation A2
    /// quantifies the trade-off. The real-time engines get the same two
    /// steps without it, one promote per burst instead of per step.
    pub eager_promote: bool,
    /// Message batching: an upper bound, in ticks, on how long an
    /// application message may wait before the `update` carrying it is
    /// broadcast.
    ///
    /// With `batch == 0` (the default) every `broadcastETOB(m, C(m))`
    /// invocation broadcasts `update(CG_i)` immediately — one broadcast per
    /// operation, the literal Algorithm 5. With `batch > 0` the process
    /// instead coalesces pending operations into a *single*
    /// `update(CG_i)` broadcast, so the hot path scales with operations per
    /// flush rather than per message. This is correct because the flushed
    /// broadcast covers every pending message at once: the whole causality
    /// graph in full-graph mode, and everything since the previous
    /// broadcast in delta mode. On the simulator the flush comes `batch`
    /// ticks after the first pending operation (experiment E11 quantifies
    /// the broadcasts-per-op reduction; the trade-off is up to `batch`
    /// extra ticks of delivery latency). On the real-time engines it comes
    /// when the node's inbox runs dry ([`Algorithm::on_idle`]), so a batch
    /// is whatever arrived while the node was busy, and the deadline only
    /// binds when the inbox never drains.
    pub batch: u64,
    /// Anti-entropy retransmission: every `resend_period` ticks, a process
    /// whose causality graph contains messages missing from its delivered
    /// sequence re-broadcasts `update(CG_i)`. `0` (the default) disables it.
    ///
    /// The paper assumes reliable links, under which a single `update`
    /// broadcast suffices. Over the chaos subsystem's *lossy* links the
    /// algorithm instead relies on the fairness assumption (each transmission
    /// attempt succeeds with probability `1 - drop_prob > 0`, see
    /// `ec_sim::LinkFaults`): enabling retransmission turns that
    /// infinitely-often delivery guarantee into eventual delivery of every
    /// payload, restoring convergence. Retransmission stops by itself once
    /// the local delivered sequence covers the local graph.
    ///
    /// In delta mode the retransmission is *targeted*: each peer is sent
    /// only the nodes it has not acked (via the digests it sent back), so a
    /// caught-up peer receives a constant-size digest beacon instead of the
    /// whole graph.
    pub resend_period: u64,
    /// Delta-state wire format (the default). When `true`, `update`
    /// broadcasts carry only the suffix since the sender's last broadcast
    /// (per-peer, minus acked nodes) plus an exact digest, gaps are healed
    /// by digest-triggered pulls, and `promote` broadcasts carry hash-keyed
    /// suffixes. When `false`, every message carries the full state — the
    /// literal Algorithm 5 wire format of the paper, kept as the reference
    /// the equivalence tests and experiment E12 compare against.
    pub delta_sync: bool,
    /// Stable-prefix compaction granularity, in delivered entries. `0` (the
    /// default) disables compaction: graph, promotion sequence and delivered
    /// sequence keep the whole history — the paper's model and the
    /// conformance reference. With `compact_after = k > 0` (delta mode
    /// only), every process periodically folds the longest multiple-of-`k`
    /// delivered prefix that is (a) hash-verified against the leader's
    /// lineage, (b) claimed as delivered, with a matching hash, by **every**
    /// peer, and (c) covered by every peer's graph digest (both carried by
    /// the peer's [`EtobMsg::Delta`]s) — dropping those
    /// entries from the graph, the promotion sequence and the delivered
    /// vector, so resident state stays bounded by the in-flight window
    /// instead of growing with history (experiment E13).
    ///
    /// Soundness: folding requires unanimous evidence, so no *live* peer can
    /// ever need a folded node again; a below-fold rewrite attempt (possible
    /// only while Ω has not stabilized) is rejected and counted in
    /// [`EtobOmega::compact_conflicts`]. A process that loses its state
    /// *after* the group folds (e.g. blank-slate recovery) cannot be healed
    /// by anti-entropy — folded nodes cannot be re-served — and needs
    /// durable recovery (`ec-replication`'s `durable` facade) instead.
    pub compact_after: u64,
}

impl Default for EtobConfig {
    fn default() -> Self {
        EtobConfig {
            promote_period: 5,
            eager_promote: false,
            batch: 0,
            resend_period: 0,
            delta_sync: true,
            compact_after: 0,
        }
    }
}

impl EtobConfig {
    /// Configuration with eager promotion enabled (used by the latency
    /// experiment E1).
    pub fn eager() -> Self {
        EtobConfig {
            eager_promote: true,
            ..Default::default()
        }
    }

    /// The paper-literal wire format: full-graph `update(CG_i)` and
    /// full-sequence `promote(promote_i)` broadcasts (the reference mode the
    /// delta-equivalence tests and experiment E12 compare against).
    pub fn full_graph() -> Self {
        EtobConfig {
            delta_sync: false,
            ..Default::default()
        }
    }

    /// Builder-style helper selecting the wire format (see
    /// [`EtobConfig::delta_sync`]).
    pub fn with_delta_sync(mut self, delta_sync: bool) -> Self {
        self.delta_sync = delta_sync;
        self
    }

    /// Configuration that coalesces operations submitted within a
    /// `flush_interval`-tick window into one `update` broadcast (used by
    /// experiment E11).
    pub fn batched(flush_interval: u64) -> Self {
        EtobConfig {
            batch: flush_interval,
            ..Default::default()
        }
    }

    /// Builder-style helper enabling anti-entropy retransmission every
    /// `period` ticks (used by fault-injecting runs; see
    /// [`EtobConfig::resend_period`]).
    pub fn with_resend(mut self, period: u64) -> Self {
        self.resend_period = period;
        self
    }

    /// Builder-style helper enabling stable-prefix compaction with the given
    /// chunk granularity (see [`EtobConfig::compact_after`]). Effective in
    /// delta mode only; the paper-literal full-graph mode always keeps the
    /// whole history.
    pub fn with_compaction(mut self, chunk: u64) -> Self {
        self.compact_after = chunk;
        self
    }
}

/// FNV-1a offset basis: the rolling prefix hash of the empty sequence.
/// Aliases [`crate::types::SEQ_HASH_SEED`], the seed the durable layer
/// persists alongside snapshots.
const FNV_OFFSET: u64 = crate::types::SEQ_HASH_SEED;

/// Extends a rolling FNV-1a prefix hash with one message identifier
/// (delegates to the workspace-wide [`crate::types::seq_hash_step`]).
fn hash_step(h: u64, id: MsgId) -> u64 {
    crate::types::seq_hash_step(h, id)
}

/// The rolling prefix hashes of a sequence continuing from `h0` — the hash
/// of an already-folded absolute prefix: `out[k]` extends `h0` with the
/// first `k` identifiers (`out.len() == sequence.len() + 1`).
fn prefix_hashes_from(h0: u64, sequence: &[AppMessage]) -> Vec<u64> {
    let mut out = Vec::with_capacity(sequence.len() + 1);
    let mut h = h0;
    out.push(h);
    for m in sequence {
        h = hash_step(h, m.id);
        out.push(h);
    }
    out
}

/// What a process keeps about one peer, in [`EtobOmega`]'s table indexed
/// by [`ProcessId::index`]. The evidence (`acked`, `delivered_ack`,
/// `delivered_claim`) only ever advances on messages from the peer itself.
#[derive(Default)]
struct Peer {
    /// Delta state: the peer's *acked* frontier — everything it has provably
    /// confirmed knowing, through the digests it sent (deltas, beacons and
    /// sync requests) — so targeted resends never skip a lost node.
    acked: VersionVector,
    /// Compaction evidence: the largest delivered prefix length the peer
    /// claimed in a [`EtobMsg::Delta`] whose hash matched this process's
    /// own delivered lineage.
    delivered_ack: u64,
    /// Compaction evidence not yet checkable: the peer's lowest
    /// `(delivered, hash)` claim beyond this process's own delivered
    /// prefix, verified once the prefix reaches it.
    delivered_claim: Option<(u64, u64)>,
    /// The peer was sent a [`EtobMsg::Delta`] since the previous
    /// promote-cadence fire; a link that was not is quiet and gets a beacon.
    delta_sent: bool,
    /// Pull discipline: the tick before which no further
    /// [`EtobMsg::SyncRequest`] goes to the peer.
    pull_after: u64,
}

/// Algorithm 5: ETOB from Ω.
pub struct EtobOmega {
    me: ProcessId,
    config: EtobConfig,
    /// `d_i`: the delivered sequence output by this process — the *resident
    /// tail* beyond the `folded` absolute offset (the whole sequence while
    /// compaction is off or has not fired, since `folded` is then 0).
    delivered: Vec<AppMessage>,
    /// Rolling prefix hashes of `delivered` (`delivered.len() + 1` entries),
    /// verifying [`EtobMsg::PromoteDelta`] prefixes in O(1). Hashes are
    /// *absolute*: entry `k` hashes the first `folded + k` identifiers of
    /// the whole history, so entry 0 is the fold hash ([`FNV_OFFSET`] while
    /// nothing is folded) and hashes stay comparable across processes with
    /// different fold points.
    delivered_hashes: Vec<u64>,
    /// `promote_i`: the sequence this process promotes while it trusts
    /// itself — like `delivered`, the resident tail beyond `folded` — as
    /// identifiers: every resident promoted entry is a graph node
    /// (`update_promote` appends only nodes, a fold retires from both, and
    /// recovery inserts the tail into both), so the node is the one copy.
    promote: Vec<MsgId>,
    /// Rolling *absolute* hash of `promote`: the fold hash extended with
    /// every resident identifier. Below the resident part the promotion
    /// sequence is the folded prefix, so its hash is
    /// [`Compactable::stable_hash`].
    promote_hash: u64,
    /// The absolute hash of `promote` up to `last_promote_broadcast`: the
    /// prefix a [`EtobMsg::PromoteDelta`] is keyed by.
    broadcast_hash: u64,
    /// Graph nodes *not yet* in `promote` — the candidate set
    /// `UpdatePromote()` scans. Maintained incrementally at every graph
    /// insertion so the scan is O(pending), not O(graph): without this the
    /// per-message cost grows with the whole retained history, which is
    /// exactly the unbounded-residency failure mode experiment E13 measures.
    /// Its complement in the graph is the resident part of `promote`
    /// ([`EtobOmega::is_promoted`]). Sorted: it holds only the few
    /// candidates still pending, so a vector beats a tree.
    unpromoted: Vec<MsgId>,
    /// `CG_i`: the causality graph.
    graph: CausalGraph,
    /// Delta state: the graph nodes added since this process's last
    /// `update` broadcast — the broadcast suffix, kept as the copies
    /// [`EtobOmega::admit`] was handed, so a broadcast neither rescans nor
    /// looks up the graph.
    unsent: Vec<AppMessage>,
    /// Per-peer delta and compaction state, one entry per process of the
    /// group, sized from [`Context::n`] at every handler entry and read
    /// only through `.get()`: a sender index comes from the wire.
    peers: Vec<Peer>,
    /// Delta state: *absolute* length of `promote` (fold offset included)
    /// at the previous promote broadcast.
    last_promote_broadcast: usize,
    /// Batching state: absolute deadline of the pending flush, if any.
    next_flush: Option<u64>,
    /// Batching state: absolute deadline of the next periodic promote.
    next_promote: u64,
    /// Anti-entropy state: absolute deadline of the next resend check.
    next_resend: u64,
    /// Number of `update` broadcasts sent (one per flush in batch mode, one
    /// per operation otherwise) — reported by the batching experiment E11.
    updates_sent: u64,
    /// Number of digest pulls ([`EtobMsg::SyncRequest`]) this process sent —
    /// each one is a detected update gap (loss, reorder or rejoin).
    sync_pulls: u64,
    /// Number of full-promote pulls ([`EtobMsg::PromoteRequest`]) this
    /// process sent — each one is a promote prefix it could not verify.
    promote_pulls: u64,
    /// Number of incoming messages dropped as malformed
    /// ([`crate::types::DecodeError`]): duplicate-id sequences,
    /// self-dependent nodes. Dropped input never touches protocol state.
    malformed: u64,
    /// Compaction state: absolute number of delivered entries folded out of
    /// the resident sequences (see [`EtobConfig::compact_after`]).
    folded: usize,
    /// Compaction state: the delivered entries the latest fold moved out of
    /// `delivered`, until [`Compactable::drain_folded`] hands them out. The
    /// buffer is kept across folds, so a fold allocates nothing once it
    /// has grown.
    folded_out: Vec<AppMessage>,
    /// Number of beacons (node-less quiet-link deltas) sent.
    beacons_sent: u64,
    /// Number of fold operations performed by this incarnation.
    compactions: u64,
    /// Below-fold rewrite or divergent-prefix adoption attempts rejected —
    /// possible only while Ω is unstable; each one is a dropped prefix that
    /// disagreed with the compacted history.
    compact_conflicts: u64,
    /// Optional telemetry recorder ([`crate::types::Instrumented`]):
    /// lifecycle events and latency clocks, attached by the engines and
    /// never consulted by the protocol itself.
    telemetry: Option<Box<ec_telemetry::Recorder>>,
}

impl EtobOmega {
    /// Creates the automaton for process `me`.
    ///
    /// # Example
    ///
    /// Run Algorithm 5 over the simulator with a stable leader and check that
    /// a broadcast is delivered everywhere:
    ///
    /// ```
    /// use ec_core::etob_omega::{EtobConfig, EtobOmega};
    /// use ec_core::workload::BroadcastWorkload;
    /// use ec_detectors::omega::OmegaOracle;
    /// use ec_sim::{FailurePattern, NetworkModel, ProcessId, WorldBuilder};
    ///
    /// let n = 3;
    /// let failures = FailurePattern::no_failures(n);
    /// let omega = OmegaOracle::stable_from_start(failures.clone());
    /// let mut world = WorldBuilder::new(n)
    ///     .network(NetworkModel::fixed_delay(2))
    ///     .failures(failures)
    ///     .build_with(|p| EtobOmega::new(p, EtobConfig::default()), omega);
    /// let workload = BroadcastWorkload::uniform(n, 4, 10, 10);
    /// workload.submit_to(&mut world);
    /// world.run_until(1_000);
    /// for p in world.process_ids() {
    ///     assert_eq!(world.algorithm(p).delivered().len(), 4);
    /// }
    /// ```
    pub fn new(me: ProcessId, config: EtobConfig) -> Self {
        EtobOmega {
            me,
            config,
            delivered: Vec::new(),
            delivered_hashes: vec![FNV_OFFSET],
            promote: Vec::new(),
            promote_hash: FNV_OFFSET,
            broadcast_hash: FNV_OFFSET,
            unpromoted: Vec::new(),
            graph: CausalGraph::new(),
            unsent: Vec::new(),
            peers: Vec::new(),
            last_promote_broadcast: 0,
            next_flush: None,
            next_promote: 0,
            next_resend: 0,
            updates_sent: 0,
            sync_pulls: 0,
            promote_pulls: 0,
            malformed: 0,
            folded: 0,
            folded_out: Vec::new(),
            beacons_sent: 0,
            compactions: 0,
            compact_conflicts: 0,
            telemetry: None,
        }
    }

    /// Number of `update` broadcasts this process has performed. In batch
    /// mode several operations share one broadcast, so this is the quantity
    /// the batching experiment (E11) compares against delivered operations.
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    /// Number of beacons this process sent: node-less [`EtobMsg::Delta`]s
    /// that carry the compaction evidence over a link that was quiet for a
    /// whole promote period. Zero on links that carry updates anyway.
    pub fn beacons_sent(&self) -> u64 {
        self.beacons_sent
    }

    /// Number of digest pulls ([`EtobMsg::SyncRequest`]) this process sent:
    /// each one is an update gap it detected (from loss, reordering or a
    /// rejoin) and healed through the repair path.
    pub fn sync_pulls(&self) -> u64 {
        self.sync_pulls
    }

    /// Number of full-promote pulls ([`EtobMsg::PromoteRequest`]) this
    /// process sent: promote prefixes it could not verify and re-fetched in
    /// full.
    pub fn promote_pulls(&self) -> u64 {
        self.promote_pulls
    }

    /// Number of incoming messages this process dropped as malformed
    /// (failed [`crate::types::decode_sequence`]/[`crate::types::decode_node`]
    /// validation). A non-zero count under a byzantine-free nemesis is a bug.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Total number of entries delivered over the whole history — the
    /// folded prefix plus the resident tail. With compaction off this
    /// equals `delivered().len()`.
    pub fn delivered_total(&self) -> u64 {
        (self.folded + self.delivered.len()) as u64
    }

    /// Rolling FNV-1a identifier hash of the entire delivered history,
    /// folded prefix included: equal hashes across processes certify
    /// identical histories even after the prefixes were compacted away.
    pub fn delivered_hash(&self) -> u64 {
        self.delivered_hashes.last().copied().unwrap_or(FNV_OFFSET)
    }

    /// Absolute number of delivered entries folded out of resident state.
    pub fn folded(&self) -> u64 {
        self.folded as u64
    }

    /// Number of fold operations this incarnation has performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Below-fold rewrites and divergent-prefix adoptions rejected. Non-zero
    /// only if compaction fired while Ω was still unstable.
    pub fn compact_conflicts(&self) -> u64 {
        self.compact_conflicts
    }

    /// The current *resident* delivered sequence `d_i` — the tail beyond
    /// the [`EtobOmega::folded`] offset (the whole sequence while nothing
    /// is folded).
    pub fn delivered(&self) -> &[AppMessage] {
        &self.delivered
    }

    /// The causality graph `CG_i`.
    pub fn causal_graph(&self) -> &CausalGraph {
        &self.graph
    }

    /// The *resident* promotion sequence `promote_i` — the tail beyond the
    /// [`EtobOmega::folded`] offset — as identifiers; each one is a node of
    /// [`EtobOmega::causal_graph`].
    pub fn promotion(&self) -> &[MsgId] {
        &self.promote
    }

    /// The messages of `promote[from..]` (a *resident* offset), read from
    /// the graph: every promoted identifier is a node, so none is skipped.
    fn promoted_messages(&self, from: usize) -> Vec<AppMessage> {
        let ids = self.promote.get(from..).unwrap_or_default();
        let mut out = Vec::with_capacity(ids.len());
        out.extend(ids.iter().filter_map(|id| self.graph.get(*id)).cloned());
        debug_assert_eq!(out.len(), ids.len(), "a promoted id is not a graph node");
        out
    }

    /// Whether every resident promoted identifier is a graph node.
    fn promote_in_graph(&self) -> bool {
        self.promote.iter().all(|id| self.graph.contains(*id))
    }

    /// Admits one message into the causality graph, keeping the incremental
    /// broadcast (`unsent`) and promotion-candidate (`unpromoted`) sets in
    /// step. Every graph insertion must go through here — a node the
    /// candidate set misses would never be promoted. Returns `true` if the
    /// graph grew.
    fn admit(&mut self, msg: AppMessage) -> bool {
        let id = msg.id;
        let copy = msg.clone();
        if self.graph.update(msg) {
            self.unsent.push(copy);
            if let Err(at) = self.unpromoted.binary_search(&id) {
                self.unpromoted.insert(at, id);
            }
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.admitted(id.origin.index() as u32, id.seq);
            }
            true
        } else {
            false
        }
    }

    /// Returns `true` if `id` is a resident entry of `promote`. Every graph
    /// node is either in `unpromoted` or promoted — `admit`,
    /// `update_promote`, the fold and recovery keep it so — so this needs
    /// no set of its own.
    fn is_promoted(&self, id: MsgId) -> bool {
        self.graph.contains(id) && self.unpromoted.binary_search(&id).is_err()
    }

    /// Drops a malformed peer message: bumps the counter and records the
    /// rejection in the flight ring.
    fn note_malformed(&mut self) {
        self.malformed += 1;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.malformed();
        }
    }

    /// Handler entry: sizes the peer table to the group (once — `n` is
    /// fixed for a run) and pushes the current logical tick into the
    /// attached recorder, if any, so logical-time recorders timestamp with
    /// the handler's simulation tick.
    fn enter(&mut self, ctx: &Context<'_, Self>) {
        if self.peers.len() < ctx.n() {
            self.peers.resize_with(ctx.n(), Peer::default);
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.set_tick(ctx.now().as_u64());
        }
    }

    /// Records every delivered entry beyond the recorder's watermark. The
    /// delivery paths mutate `delivered` wholesale (suffix adoption,
    /// verified-prefix reconstruction), so rather than instrumenting each
    /// push this scans the new suffix once per mutation — O(new entries).
    fn record_delivered_tail(&mut self) {
        let Some(mut t) = self.telemetry.take() else {
            return;
        };
        let folded = self.folded as u64;
        let total = folded + self.delivered.len() as u64;
        let start = t.delivered_watermark().saturating_sub(folded) as usize;
        for m in self.delivered.iter().skip(start) {
            let (origin, seq) = (m.id.origin.index() as u32, m.id.seq);
            // a follower can deliver the leader's promote before the
            // update carrying the message: its own promote is still to come
            if self.is_promoted(m.id) {
                t.delivered(origin, seq);
            } else {
                t.delivered_ahead(origin, seq);
            }
        }
        t.set_delivered_watermark(total);
        self.telemetry = Some(t);
    }

    /// `UpdatePromote()`: extends the promotion sequence with every message of
    /// the causality graph not yet present, in an order that respects the
    /// causal edges (and keeps the existing sequence as a prefix). Messages
    /// whose causal predecessors are not yet known are held back until the
    /// predecessors arrive. Returns `true` if the sequence grew.
    fn update_promote(&mut self) -> bool {
        let before = self.promote.len();
        loop {
            let mut appended = false;
            // One pass in identifier order over the pending candidates only,
            // so it costs O(pending), independent of how much promoted
            // history the graph retains. The pass compacts the candidates
            // in place: `unpromoted[..held]` were held back by it and
            // `unpromoted[next..]` are still to scan, so together they are
            // what is pending now — a node promoted earlier in the pass
            // already satisfies a later one's dependencies.
            let mut held = 0;
            for next in 0..self.unpromoted.len() {
                let Some(&id) = self.unpromoted.get(next) else {
                    break;
                };
                // not a node (any more): drop the candidate
                let Some(msg) = self.graph.get(id) else {
                    continue;
                };
                let pending = |dep: &MsgId| {
                    let (kept, rest) = (self.unpromoted.get(..held), self.unpromoted.get(next..));
                    kept.is_some_and(|k| k.binary_search(dep).is_ok())
                        || rest.is_some_and(|r| r.binary_search(dep).is_ok())
                };
                let deps_satisfied = msg.deps.iter().all(|dep| {
                    self.graph.is_compacted(*dep) || (self.graph.contains(*dep) && !pending(dep))
                });
                if !deps_satisfied {
                    self.unpromoted.swap(held, next);
                    held += 1;
                    continue;
                }
                self.promote_hash = hash_step(self.promote_hash, id);
                self.promote.push(id);
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.promoted(id.origin.index() as u32, id.seq);
                }
                appended = true;
            }
            self.unpromoted.truncate(held);
            // A pass that held nothing back emptied the candidate set, so
            // another could not append.
            if !appended || held == 0 {
                break;
            }
        }
        self.promote.len() > before
    }

    /// Records evidence that `from` knows every identifier in `digest`
    /// (it sent us a delta frontier, a beacon or a sync request).
    fn note_peer_knows(&mut self, from: ProcessId, digest: &VersionVector) {
        if from != self.me {
            if let Some(peer) = self.peers.get_mut(from.index()) {
                peer.acked.merge(digest);
            }
        }
    }

    /// Records `from`'s claim (carried by a [`EtobMsg::Delta`]) to have
    /// delivered the first `delivered` entries, hashing to `hash`. A claim
    /// counts only once it is hash-checked against this process's own
    /// lineage: one inside the resident prefix is checked now (a mismatch
    /// or a position below the fold point is ignored, never trusted), one
    /// beyond it is kept and re-fed by [`EtobOmega::maybe_compact`] until
    /// the prefix has reached it. Only the *lowest* pending claim per peer
    /// is kept — the one this process reaches first — so a receiver that
    /// trails a busy peer still verifies a claim each time it catches up
    /// with one; the peer's next delta brings the next.
    fn note_peer_delivered(&mut self, from: ProcessId, delivered: u64, hash: u64) {
        if from == self.me || self.config.compact_after == 0 {
            return;
        }
        let Some(rel) = usize::try_from(delivered)
            .unwrap_or(usize::MAX)
            .checked_sub(self.folded)
        else {
            return;
        };
        let own = self.delivered_hashes.get(rel).copied();
        let Some(peer) = self.peers.get_mut(from.index()) else {
            return;
        };
        match own {
            Some(own) if own == hash => peer.delivered_ack = peer.delivered_ack.max(delivered),
            Some(_) => {}
            None => {
                let claim = (delivered, hash);
                peer.delivered_claim = Some(peer.delivered_claim.map_or(claim, |c| c.min(claim)));
            }
        }
    }

    /// Sends `to` a delta carrying `nodes` plus both compaction evidences —
    /// the graph digest and the delivered prefix ride on every delta — and
    /// notes that the link was not quiet this promote period. No handler
    /// that sends a delta also extends `delivered` (only promote reception
    /// does), so the claimed prefix was output by an earlier step and a
    /// durable replica has logged it by the time the claim leaves.
    fn send_delta(&mut self, to: ProcessId, nodes: Vec<AppMessage>, ctx: &mut Context<'_, Self>) {
        if self.config.compact_after > 0 {
            if let Some(peer) = self.peers.get_mut(to.index()) {
                peer.delta_sent = true;
            }
        }
        ctx.send(
            to,
            EtobMsg::Delta {
                nodes,
                frontier: self.graph.digest().clone(),
                delivered: self.delivered_total(),
                hash: self.delivered_hash(),
            },
        );
    }

    /// Broadcasts the current graph state: the literal `update(CG_i)` in
    /// full-graph mode, or per-peer suffix deltas (everything neither
    /// broadcast before nor acked by the peer) plus the digest in delta
    /// mode. The suffix is the incrementally maintained `unsent` list, so
    /// broadcast cost is O(new nodes), never a graph rescan or lookup, and
    /// its buffer is kept for the next suffix. The self-copy
    /// carries no nodes — delivering it only triggers the paper's
    /// `UpdatePromote()` step, exactly like receiving one's own full update.
    fn broadcast_update(&mut self, ctx: &mut Context<'_, Self>) {
        self.updates_sent += 1;
        if !self.config.delta_sync {
            self.unsent.clear();
            ctx.broadcast(EtobMsg::Update(self.graph.clone()));
            return;
        }
        let mut fresh = std::mem::take(&mut self.unsent);
        for i in 0..ctx.n() {
            let to = ProcessId::new(i);
            let nodes = match self.peers.get(i) {
                Some(peer) if to != self.me => fresh
                    .iter()
                    .filter(|m| !peer.acked.contains(m.id))
                    .cloned()
                    .collect(),
                _ => Vec::new(),
            };
            self.send_delta(to, nodes, ctx);
        }
        fresh.clear();
        self.unsent = fresh;
    }

    /// Broadcasts the promotion sequence: the full sequence in full-graph
    /// mode, or the suffix since the previous promote broadcast keyed by the
    /// prefix length and hash in delta mode.
    fn broadcast_promote(&mut self, ctx: &mut Context<'_, Self>) {
        if self.config.delta_sync {
            // `base` is absolute and the resident `promote` starts at
            // `folded`; the fold keeps `last_promote_broadcast` within
            // `folded..=folded + promote.len()`, and the clamp keeps this
            // path panic-free even if that invariant is ever broken.
            let base = self
                .last_promote_broadcast
                .clamp(self.folded, self.folded + self.promote.len());
            ctx.broadcast(EtobMsg::PromoteDelta {
                base,
                prefix_hash: self.broadcast_hash,
                suffix: self.promoted_messages(base - self.folded),
            });
        } else {
            ctx.broadcast(EtobMsg::Promote(self.promoted_messages(0)));
        }
        self.last_promote_broadcast = self.folded + self.promote.len();
        self.broadcast_hash = self.promote_hash;
    }

    /// Adopts a full promotion sequence as the delivered sequence
    /// (full-promote reception). With a folded prefix the sequence is
    /// adopted only if its first `folded` entries hash to our fold hash —
    /// a divergent history can never silently replace compacted state.
    /// What lies beyond the fold goes through the same adoption as a
    /// verified delta suffix, so a process that is merely behind extends
    /// from its first differing index instead of starting over.
    fn adopt_full_promote(&mut self, mut sequence: Vec<AppMessage>, ctx: &mut Context<'_, Self>) {
        let Some(prefix) = sequence.get(..self.folded) else {
            // Shorter than our compacted history: a below-fold rewrite.
            self.compact_conflicts += 1;
            return;
        };
        let h = prefix.iter().fold(FNV_OFFSET, |h, m| hash_step(h, m.id));
        if h != self.delivered_hashes.first().copied().unwrap_or(FNV_OFFSET) {
            self.compact_conflicts += 1;
            return;
        }
        sequence.drain(..self.folded);
        self.apply_verified_suffix(0, sequence, ctx);
    }

    /// Applies a hash-verified promote suffix at *resident* offset `rel`:
    /// `d_i := d_i[..folded + rel] ++ suffix`, exactly the sequence the
    /// leader holds, adopted iff it differs from the current one (the same
    /// condition as the paper's full-promote path). The emitted
    /// [`DeliveryDelta`] starts at the first entry that actually differs,
    /// so consumers see a rewrite only where the sequence was rewritten.
    fn apply_verified_suffix(
        &mut self,
        rel: usize,
        mut suffix: Vec<AppMessage>,
        ctx: &mut Context<'_, Self>,
    ) {
        let current = self.delivered.get(rel..).unwrap_or_default();
        let agree = common_prefix_len(current, &suffix);
        if agree == current.len() && agree == suffix.len() {
            return;
        }
        let keep = rel.saturating_add(agree).min(self.delivered.len());
        suffix.drain(..agree);
        self.delivered.truncate(keep);
        self.delivered_hashes.truncate(keep.saturating_add(1));
        let mut h = self.delivered_hashes.last().copied().unwrap_or(FNV_OFFSET);
        for m in &suffix {
            h = hash_step(h, m.id);
            self.delivered_hashes.push(h);
        }
        self.delivered.extend(suffix.iter().cloned());
        self.record_delivered_tail();
        ctx.output(DeliveryDelta {
            keep: self.folded.saturating_add(keep),
            suffix,
        });
    }

    /// Quiet-link fallback of the compaction evidence exchange, at promote
    /// cadence. Both evidences ride on every [`EtobMsg::Delta`], so a link
    /// that carried one since the previous fire needs nothing more; a peer
    /// that got none is sent a *beacon*, a node-less delta (not an `update`
    /// broadcast: [`EtobOmega::updates_sent`] measures payload pushes). No
    /// beacon goes out while a batch flush is pending: the flush carries the
    /// evidence within `batch` ticks, and a beacon ahead of it would
    /// advertise the held-back nodes in its digest — a gap that is only this
    /// process's own batching, which every receiver would pull.
    fn beacon_quiet_links(&mut self, ctx: &mut Context<'_, Self>) {
        if self.next_flush.is_none() {
            for i in 0..ctx.n() {
                let to = ProcessId::new(i);
                if to != self.me && self.peers.get(i).is_some_and(|peer| !peer.delta_sent) {
                    self.beacons_sent += 1;
                    self.send_delta(to, Vec::new(), ctx);
                }
            }
        }
        // A beacon does not make a link busy: a peer that gets nothing else
        // is beaconed every period.
        for peer in &mut self.peers {
            peer.delta_sent = false;
        }
    }

    /// Stable-prefix compaction: folds the longest eligible multiple-of-
    /// [`EtobConfig::compact_after`] delivered prefix into the compacted
    /// frontier. Eligibility is the two-evidence rule — every peer has both
    /// (a) claimed the prefix as delivered with a matching hash
    /// ([`EtobOmega::note_peer_delivered`]), so it holds (and, under the
    /// durable facade, has logged) the entries,
    /// and (b) covered every folded identifier with its graph digest, so
    /// the anti-entropy machinery will never be asked to re-serve a folded
    /// node. Both are needed: graph coverage alone says nothing about
    /// delivery (a peer can crash holding an undelivered node), and
    /// delivered acks alone would leave digest gaps that pull forever.
    fn maybe_compact(&mut self, n: usize) {
        let chunk = usize::try_from(self.config.compact_after).unwrap_or(0);
        if chunk == 0 {
            return;
        }
        // Claims that were ahead of our prefix may be checkable by now.
        for i in 0..self.peers.len() {
            let claim = self
                .peers
                .get_mut(i)
                .and_then(|peer| peer.delivered_claim.take());
            if let Some((delivered, hash)) = claim {
                self.note_peer_delivered(ProcessId::new(i), delivered, hash);
            }
        }
        // (a) unanimous delivered-level acks, bounded by our own sequence.
        let mut acked = self.folded + self.delivered.len();
        for i in 0..n {
            if i == self.me.index() {
                continue;
            }
            let peer = self.peers.get(i).map_or(0, |peer| peer.delivered_ack);
            acked = acked.min(usize::try_from(peer).unwrap_or(usize::MAX));
        }
        let target = (acked / chunk) * chunk;
        if target <= self.folded {
            return;
        }
        let fold = target - self.folded;
        let ids: Vec<MsgId> = self
            .delivered
            .get(..fold)
            .unwrap_or_default()
            .iter()
            .map(|m| m.id)
            .collect();
        if ids.len() < fold {
            return;
        }
        // (b) every peer's graph digest covers every identifier folded.
        for i in 0..n {
            if i == self.me.index() {
                continue;
            }
            let Some(peer) = self.peers.get(i) else {
                return;
            };
            if !ids.iter().all(|id| peer.acked.contains(*id)) {
                return;
            }
        }
        // Fold: retire the nodes and move the resident prefix out to be
        // drained. Hashes are absolute, so draining the first `fold`
        // entries leaves entry 0 as the new fold hash. Under a stable Ω the
        // folded entries are also the prefix of `promote`, which is then
        // drained the same way and keeps its hashes; only a sequence that
        // promoted them in another order is filtered and its hashes rebased
        // on the fold hash.
        let promoted_prefix = self.promote.get(..fold) == Some(ids.as_slice());
        if let Some(t) = self.telemetry.as_deref_mut() {
            let folded = ids.iter().map(|id| (id.origin.index() as u32, id.seq));
            t.folded(target as u64, folded);
        }
        self.graph.retire(ids);
        self.unpromoted.retain(|id| !self.graph.is_compacted(*id));
        self.folded_out.clear();
        self.folded_out.extend(self.delivered.drain(..fold));
        self.delivered_hashes.drain(..fold);
        let fold_hash = self.delivered_hashes.first().copied().unwrap_or(FNV_OFFSET);
        let broadcast = self.last_promote_broadcast.max(target);
        if promoted_prefix {
            self.promote.drain(..fold);
            if broadcast > self.last_promote_broadcast {
                self.broadcast_hash = fold_hash;
            }
        } else {
            self.promote.retain(|id| !self.graph.is_compacted(*id));
            // rebased in one pass: the broadcast prefix, then the rest
            let sent = (broadcast - target).min(self.promote.len());
            let (prefix, rest) = self.promote.split_at(sent);
            self.broadcast_hash = prefix.iter().fold(fold_hash, |h, id| hash_step(h, *id));
            self.promote_hash = rest
                .iter()
                .fold(self.broadcast_hash, |h, id| hash_step(h, *id));
        }
        self.unsent.retain(|m| !self.graph.is_compacted(m.id));
        self.folded = target;
        self.last_promote_broadcast = broadcast;
        self.compactions += 1;
        debug_assert!(self.promote_in_graph());
    }

    /// Anti-entropy step: when enabled and due, retransmits graph state if
    /// the causality graph holds any message the delivered sequence does not
    /// — the retransmission that makes infinitely-often delivery (lossy
    /// links with `drop_prob < 1`) sufficient for eventual delivery. In
    /// full-graph mode this re-broadcasts `update(CG_i)`; in delta mode each
    /// peer is sent exactly its unacked nodes plus the digest (a pure
    /// beacon, ~constant size, once the peer has acked everything), and the
    /// digest lets the peer detect and pull anything still missing.
    fn maybe_resend(&mut self, ctx: &mut Context<'_, Self>) {
        if self.config.resend_period == 0 {
            return;
        }
        let now = ctx.now().as_u64();
        if now < self.next_resend {
            return;
        }
        self.next_resend = now + self.config.resend_period;
        ctx.set_timer(self.config.resend_period);
        let delivered: BTreeSet<MsgId> = self.delivered.iter().map(|m| m.id).collect();
        if self.graph.messages().all(|m| delivered.contains(&m.id)) {
            return;
        }
        self.updates_sent += 1;
        if !self.config.delta_sync {
            ctx.broadcast(EtobMsg::Update(self.graph.clone()));
            return;
        }
        for i in 0..ctx.n() {
            let to = ProcessId::new(i);
            if to == self.me {
                continue;
            }
            // suspected loss: ignore what was already broadcast and resend
            // everything the peer has not itself acked. The graph scan in
            // missing_from is confined to this period-gated repair path,
            // which stops firing once the delivered sequence covers the
            // graph — the steady-state broadcast path never rescans.
            let Some(peer) = self.peers.get(i) else {
                continue;
            };
            let nodes = self.graph.missing_from(&peer.acked);
            self.send_delta(to, nodes, ctx);
        }
    }
}

impl fmt::Debug for EtobOmega {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EtobOmega")
            .field("me", &self.me)
            .field("delivered", &self.delivered.len())
            .field("promote", &self.promote.len())
            .field("known", &self.graph.len())
            .field("folded", &self.folded)
            .finish()
    }
}

impl Algorithm for EtobOmega {
    type Msg = EtobMsg;
    type Input = EtobBroadcast;
    type Output = DeliveryDelta;
    type Fd = ProcessId;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        self.enter(ctx);
        let now = ctx.now().as_u64();
        self.next_promote = now + self.config.promote_period;
        ctx.set_timer(self.config.promote_period);
        if self.config.resend_period > 0 {
            self.next_resend = now + self.config.resend_period;
            ctx.set_timer(self.config.resend_period);
        }
    }

    fn on_input(&mut self, input: EtobBroadcast, ctx: &mut Context<'_, Self>) {
        // On broadcastETOB(m, C(m)): UpdateCG(m, C(m)); send update(CG_i) to all.
        let id = input.message.id;
        self.enter(ctx);
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.submitted(id.origin.index() as u32, id.seq);
        }
        self.admit(input.message);
        if self.config.batch > 0 {
            // Coalesce: the update goes out at the next flush deadline and
            // covers every message recorded in the graph by then.
            if self.next_flush.is_none() {
                self.next_flush = Some(ctx.now().as_u64() + self.config.batch);
                ctx.set_timer(self.config.batch);
            }
        } else {
            self.broadcast_update(ctx);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: EtobMsg, ctx: &mut Context<'_, Self>) {
        self.enter(ctx);
        if from.index() >= ctx.n() {
            // A sender outside the group has no entry in the peer table: its
            // message is not evidence of anything.
            self.note_malformed();
            return;
        }
        match msg {
            EtobMsg::Update(graph) => {
                // On reception of update(CG_j): UnionCG(CG_j); UpdatePromote().
                self.note_peer_knows(from, graph.digest());
                for msg in graph.messages() {
                    if decode_node(msg).is_err() {
                        self.note_malformed();
                        continue;
                    }
                    if !self.graph.contains(msg.id) {
                        self.admit(msg.clone());
                    }
                }
                let grew = self.update_promote();
                if grew && self.config.eager_promote && *ctx.fd() == self.me {
                    self.broadcast_promote(ctx);
                }
            }
            EtobMsg::Delta {
                nodes,
                frontier,
                delivered,
                hash,
            } => {
                // Delta reception = UnionCG over the carried nodes, plus gap
                // detection: the frontier is an exact digest of the sender's
                // graph, so "my graph does not cover it" means the sender
                // knows a message I am missing — pull it. Frontier and
                // delivered prefix are also the two compaction evidences.
                for node in nodes {
                    if decode_node(&node).is_err() {
                        self.note_malformed();
                        continue;
                    }
                    self.admit(node);
                }
                self.note_peer_knows(from, &frontier);
                self.note_peer_delivered(from, delivered, hash);
                let grew = self.update_promote();
                if grew && self.config.eager_promote && *ctx.fd() == self.me {
                    self.broadcast_promote(ctx);
                }
                // Pull discipline: at most one pull per peer per promote
                // period. Gaps seen while one is outstanding are the same
                // gap, and pulling each would multiply the repair traffic by
                // the peer's send rate; a lost request or repair is pulled
                // again a period later.
                let now = ctx.now().as_u64();
                let gap = from != self.me && !self.graph.digest().covers(&frontier);
                let due = self.peers.get_mut(from.index());
                if let Some(peer) = due.filter(|peer| gap && now >= peer.pull_after) {
                    peer.pull_after = now + self.config.promote_period;
                    self.sync_pulls += 1;
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.sync_pull();
                    }
                    ctx.send(
                        from,
                        EtobMsg::SyncRequest {
                            digest: self.graph.digest().clone(),
                        },
                    );
                }
            }
            EtobMsg::SyncRequest { digest } => {
                // Repair: answer with exactly the nodes the requester's
                // digest proves it is missing.
                self.note_peer_knows(from, &digest);
                let missing = self.graph.missing_from(&digest);
                if !missing.is_empty() {
                    self.send_delta(from, missing, ctx);
                }
            }
            EtobMsg::Promote(sequence) => {
                // On reception of promote(promote_j): adopt it iff Ω_i = p_j.
                if decode_sequence(&sequence).is_err() {
                    self.note_malformed();
                    return;
                }
                if *ctx.fd() == from {
                    self.adopt_full_promote(sequence, ctx);
                }
            }
            EtobMsg::PromoteDelta {
                base,
                prefix_hash,
                suffix,
            } => {
                if *ctx.fd() != from {
                    return;
                }
                if decode_sequence(&suffix).is_err() {
                    self.note_malformed();
                    return;
                }
                // `base` is an *absolute* wire value and resident state
                // starts at `folded`: every access below goes through
                // `.get()` so a hostile value falls into the resync branch
                // instead of panicking.
                if base < self.folded {
                    // The claimed prefix ends below our fold point. If the
                    // suffix reaches the fold, roll the prefix hash across
                    // the overlap: a match proves the same lineage (adopt
                    // what lies beyond the fold), a mismatch is a divergent
                    // below-fold rewrite (rejected and counted). A suffix
                    // that falls short of the fold is entirely stale.
                    let skip = self.folded - base;
                    if let Some(overlap) = suffix.get(..skip) {
                        let h = overlap.iter().fold(prefix_hash, |h, m| hash_step(h, m.id));
                        if h == self.delivered_hashes.first().copied().unwrap_or(FNV_OFFSET) {
                            let tail = suffix.get(skip..).unwrap_or_default().to_vec();
                            self.apply_verified_suffix(0, tail, ctx);
                        } else {
                            self.compact_conflicts += 1;
                        }
                    }
                    return;
                }
                let rel = base - self.folded;
                // `delivered_hashes` has `delivered.len() + 1` entries, so
                // `get(rel)` succeeding also proves `rel <= delivered.len()`.
                let verified_prefix = self
                    .delivered_hashes
                    .get(rel)
                    .is_some_and(|h| *h == prefix_hash);
                if verified_prefix {
                    // My delivered prefix is the leader's unsent prefix:
                    // reconstruct exactly the full sequence the leader would
                    // have sent, and adopt it iff it differs (the same
                    // condition as the full-promote path).
                    self.apply_verified_suffix(rel, suffix, ctx);
                } else {
                    // Unverifiable prefix (followed a different leader,
                    // missed a promote, or the leader restarted): fall back
                    // to a full resend.
                    self.promote_pulls += 1;
                    ctx.send(from, EtobMsg::PromoteRequest);
                }
            }
            EtobMsg::PromoteRequest => {
                // Full-resend fallback: only a process that currently
                // considers itself the leader answers (mirroring the gate on
                // periodic promotes). With a folded prefix the full sequence
                // no longer exists resident, so the reply is a delta
                // anchored at the fold point: a requester sharing the folded
                // lineage verifies it like any delta, and one that does not
                // (e.g. restarted blank) needs durable recovery — folded
                // entries cannot be re-served by anti-entropy.
                if *ctx.fd() == self.me {
                    let sequence = self.promoted_messages(0);
                    if self.folded == 0 {
                        ctx.send(from, EtobMsg::Promote(sequence));
                    } else {
                        ctx.send(
                            from,
                            EtobMsg::PromoteDelta {
                                base: self.folded,
                                prefix_hash: self.stable_hash(),
                                suffix: sequence,
                            },
                        );
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        // The process juggles up to three timer chains (flush, promote,
        // resend) through the single `on_timer` entry point, so each fire is
        // matched against absolute deadlines: a timer that has not crossed
        // its deadline does nothing and does not re-arm. (An unconditional
        // re-arm would spawn one fresh perpetual chain per foreign fire —
        // quadratic timer proliferation once a second chain exists.)
        self.enter(ctx);
        let now = ctx.now().as_u64();
        if self.config.batch > 0 && self.next_flush.is_some_and(|at| now >= at) {
            self.next_flush = None;
            self.broadcast_update(ctx);
        }
        if now >= self.next_promote {
            // On local timeout: if Ω_i = p_i then send promote(promote_i) to all.
            if *ctx.fd() == self.me {
                self.broadcast_promote(ctx);
            }
            // Compaction rides the same cadence: beacon the links no delta
            // carried the evidence over, then fold whatever prefix the
            // evidence now covers. Delta mode only — the paper-literal
            // full-graph mode is the uncompacted conformance reference.
            if self.config.compact_after > 0 && self.config.delta_sync {
                self.beacon_quiet_links(ctx);
                self.maybe_compact(ctx.n());
            }
            self.next_promote = now + self.config.promote_period;
            ctx.set_timer(self.config.promote_period);
        }
        self.maybe_resend(ctx);
    }

    fn on_idle(&mut self, ctx: &mut Context<'_, Self>) {
        self.enter(ctx);
        // Nothing else is queued: a pending batch and an unsent promote
        // suffix leave now instead of at their deadlines, so a broadcast is
        // delivered in the paper's two communication steps, not two timers.
        // `batch` and `promote_period` stay the bounds when the inbox never
        // drains.
        if self.next_flush.take().is_some() {
            self.broadcast_update(ctx);
        }
        if *ctx.fd() == self.me && self.folded + self.promote.len() > self.last_promote_broadcast {
            self.broadcast_promote(ctx);
        }
    }

    fn wire_size(msg: &EtobMsg) -> u64 {
        ec_storage::codec::encoded_len(msg)
    }
}

impl Compactable for EtobOmega {
    fn delivered(&self) -> &[AppMessage] {
        &self.delivered
    }

    fn drain_folded(&mut self, f: &mut dyn FnMut(&AppMessage)) -> usize {
        for m in &self.folded_out {
            f(m);
        }
        let drained = self.folded_out.len();
        self.folded_out.clear();
        drained
    }

    fn stable_base(&self) -> u64 {
        self.folded as u64
    }

    fn stable_hash(&self) -> u64 {
        self.delivered_hashes.first().copied().unwrap_or(FNV_OFFSET)
    }

    fn stable_frontier(&self) -> VersionVector {
        self.graph.compacted().clone()
    }

    fn prime_recovery(
        &mut self,
        base: u64,
        hash: u64,
        frontier: VersionVector,
        tail: Vec<AppMessage>,
    ) -> bool {
        // Only a pristine automaton (fresh from `new`, before any input or
        // message) may be primed — recovery replaces state, never merges it.
        let pristine = self.folded == 0
            && self.delivered.is_empty()
            && self.promote.is_empty()
            && self.graph.digest().is_empty();
        let Ok(folded) = usize::try_from(base) else {
            return false;
        };
        if !pristine {
            return false;
        }
        self.folded = folded;
        self.delivered_hashes = prefix_hashes_from(hash, &tail);
        // The recovered graph starts from the folded frontier; the tail
        // entries re-enter as resident nodes so digests, gap detection and
        // repair serve them exactly as if the process had never crashed.
        self.graph = CausalGraph::recovered(frontier);
        for m in &tail {
            self.graph.update(m.clone());
        }
        // Every resident node is in the tail and thus already promoted; an
        // entry the frontier already covers is no node and is not promoted.
        let nodes = tail
            .iter()
            .map(|m| m.id)
            .filter(|id| self.graph.contains(*id));
        self.promote = nodes.collect();
        self.promote_hash = self.promote.iter().fold(hash, |h, id| hash_step(h, *id));
        self.broadcast_hash = self.promote_hash;
        self.unpromoted.clear();
        self.delivered = tail;
        self.last_promote_broadcast = folded + self.promote.len();
        debug_assert!(self.promote_in_graph());
        if let Some(t) = self.telemetry.as_deref_mut() {
            // The recovered prefix was delivered by the previous
            // incarnation: advance the watermark past it so rejoining does
            // not re-measure old deliveries, and stamp the rejoin itself.
            t.set_delivered_watermark(base + self.delivered.len() as u64);
            t.recovered();
        }
        true
    }
}

impl crate::types::Instrumented for EtobOmega {
    fn attach_recorder(&mut self, recorder: ec_telemetry::Recorder) {
        self.telemetry = Some(Box::new(recorder));
    }

    fn recorder(&self) -> Option<&ec_telemetry::Recorder> {
        self.telemetry.as_deref()
    }

    fn recorder_mut(&mut self) -> Option<&mut ec_telemetry::Recorder> {
        self.telemetry.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EtobChecker;
    use crate::types::materialize;
    use crate::workload::BroadcastWorkload;
    use ec_detectors::omega::{OmegaOracle, PreStabilization};
    use ec_sim::{
        FailurePattern, LinkFaults, LinkScope, NetworkModel, OutputHistory, PartitionSpec,
        ProcessSet, Time, WorldBuilder,
    };

    fn run_etob(
        n: usize,
        workload: &BroadcastWorkload,
        failures: FailurePattern,
        omega: OmegaOracle,
        network: NetworkModel,
        horizon: u64,
        config: EtobConfig,
    ) -> OutputHistory<DeliveryDelta> {
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(42)
            .build_with(|p| EtobOmega::new(p, config), omega);
        workload.submit_to(&mut world);
        world.run_until(horizon);
        world.output_history().clone()
    }

    #[test]
    fn stable_leader_from_start_gives_full_tob() {
        // Property P2: Ω stable from time 0 ⇒ strong TOB (tau = 0).
        let n = 4;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let workload = BroadcastWorkload::uniform(n, 12, 10, 7);
        let history = run_etob(
            n,
            &workload,
            failures.clone(),
            omega,
            NetworkModel::fixed_delay(2),
            5_000,
            EtobConfig::default(),
        );
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        assert!(
            checker.check_all_with_causal().is_ok(),
            "{:?}",
            checker.check_all_with_causal()
        );
    }

    #[test]
    fn divergent_leaders_satisfy_etob_after_stabilization() {
        let n = 5;
        let failures = FailurePattern::no_failures(n);
        let tau_omega = Time::new(300);
        let omega = OmegaOracle::stabilizing_at(failures.clone(), tau_omega)
            .with_pre_stabilization(PreStabilization::SelfLeader);
        let workload = BroadcastWorkload::uniform(n, 15, 5, 11);
        let history = run_etob(
            n,
            &workload,
            failures.clone(),
            omega,
            NetworkModel::fixed_delay(3),
            8_000,
            EtobConfig::default(),
        );
        // tau = tau_Omega + Delta_t + Delta_c as in the paper's proof
        let tau = Time::new(300 + 5 + 3 + 1);
        let checker =
            EtobChecker::from_delivered(&history, workload.records(), failures.correct(), tau);
        assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
        // causal order holds from the beginning (property P3)
        assert!(checker.check_causal_order().is_empty());
    }

    #[test]
    fn causal_chains_are_respected_even_during_divergence() {
        let n = 4;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(400))
            .with_pre_stabilization(PreStabilization::RoundRobin { period: 25 });
        let workload = BroadcastWorkload::causal_chains(n, 3, 4, 5, 9);
        let history = run_etob(
            n,
            &workload,
            failures.clone(),
            omega,
            NetworkModel::uniform_delay(1, 4),
            8_000,
            EtobConfig::default(),
        );
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::new(500),
        );
        assert!(
            checker.check_causal_order().is_empty(),
            "{:?}",
            checker.check_causal_order()
        );
        assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
    }

    #[test]
    fn liveness_without_correct_majority() {
        // Only 2 of 5 processes are correct: ETOB still delivers everything
        // broadcast by correct processes (no quorum is ever needed).
        let n = 5;
        let failures = FailurePattern::with_crashes(
            n,
            &[
                (ProcessId::new(2), Time::new(50)),
                (ProcessId::new(3), Time::new(50)),
                (ProcessId::new(4), Time::new(50)),
            ],
        );
        let omega = OmegaOracle::stable_from_start(failures.clone());
        // broadcasts happen after the crashes, from the surviving processes
        let mut workload = BroadcastWorkload::new();
        for k in 0..6 {
            workload.push(
                ProcessId::new(k % 2),
                100 + 10 * k as u64,
                format!("post-crash-{k}").into_bytes(),
                vec![],
            );
        }
        let history = run_etob(
            n,
            &workload,
            failures.clone(),
            omega,
            NetworkModel::fixed_delay(2),
            5_000,
            EtobConfig::default(),
        );
        let checker = EtobChecker::from_delivered(
            &history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
        // every broadcast message was actually delivered by the survivors
        let final_len = materialize(&history)
            .last(ProcessId::new(0))
            .map(|s| s.len())
            .unwrap_or(0);
        assert_eq!(final_len, 6);
    }

    #[test]
    fn deliveries_continue_inside_the_leaders_partition() {
        // The leader p0 is partitioned together with p1 away from the rest;
        // broadcasts originating inside the leader's side keep being delivered
        // there during the partition (eventual consistency is partition
        // tolerant), and everyone converges after the heal.
        let n = 5;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let minority: ProcessSet = [0, 1].into_iter().collect();
        let network = NetworkModel::fixed_delay(2).with_partition(
            Time::new(50),
            Time::new(600),
            PartitionSpec::isolate(minority, n),
        );
        let mut workload = BroadcastWorkload::new();
        for k in 0..5 {
            workload.push(
                ProcessId::new(k % 2), // inside the leader's side
                100 + 20 * k as u64,
                format!("partitioned-{k}").into_bytes(),
                vec![],
            );
        }
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures.clone())
            .seed(9)
            .build_with(|p| EtobOmega::new(p, EtobConfig::default()), omega);
        workload.submit_to(&mut world);
        world.run_until(2_000);
        let history = world.output_history();

        // during the partition (t = 550 < heal) p1 has already delivered
        // messages broadcast on its side
        let during = materialize(history)
            .value_at(ProcessId::new(1), Time::new(550))
            .map(|s| s.len())
            .unwrap_or(0);
        assert!(
            during >= 1,
            "leader side must keep delivering during the partition"
        );

        // after the heal, everyone converges and full ETOB holds
        let checker = EtobChecker::from_delivered(
            history,
            workload.records(),
            failures.correct(),
            Time::ZERO,
        );
        assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
    }

    #[test]
    fn eager_promotion_delivers_in_two_message_hops() {
        let n = 4;
        let delay = 10u64;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let mut workload = BroadcastWorkload::new();
        // broadcast from a non-leader process
        workload.push(ProcessId::new(2), 100, b"fast".to_vec(), vec![]);
        let history = run_etob(
            n,
            &workload,
            failures.clone(),
            omega,
            NetworkModel::fixed_delay(delay),
            2_000,
            EtobConfig::eager(),
        );
        let id = workload.ids()[0];
        // find the first time any non-broadcasting process delivered it
        let history = materialize(&history);
        let mut first_delivery = None;
        for p in (0..n).map(ProcessId::new) {
            if let Some(t) = history.first_time_where(p, |seq| seq.iter().any(|m| m.id == id)) {
                first_delivery = Some(first_delivery.map_or(t, |x: Time| x.min(t)));
            }
        }
        let latency = first_delivery
            .expect("delivered")
            .saturating_since(Time::new(100));
        // two communication steps of 10 ticks each, plus negligible local time
        assert!(latency >= 2 * delay, "latency {latency}");
        assert!(latency < 3 * delay, "latency {latency} should be < 3 hops");
    }

    #[test]
    fn batched_runs_satisfy_etob_with_fewer_update_broadcasts() {
        let n = 4;
        let failures = FailurePattern::no_failures(n);
        // spacing 1 ⇒ each origin submits every 4 ticks, well inside the
        // 10-tick flush window, so batching has something to coalesce
        let workload = BroadcastWorkload::uniform(n, 16, 10, 1);
        let run = |config: EtobConfig| {
            let omega = OmegaOracle::stable_from_start(failures.clone());
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::fixed_delay(2))
                .failures(failures.clone())
                .seed(42)
                .build_with(|p| EtobOmega::new(p, config), omega);
            workload.submit_to(&mut world);
            world.run_until(5_000);
            let updates: u64 = world
                .process_ids()
                .map(|p| world.algorithm(p).updates_sent())
                .sum();
            (world.output_history().clone(), updates)
        };
        let (unbatched, updates_unbatched) = run(EtobConfig::default());
        let (batched, updates_batched) = run(EtobConfig::batched(10));
        for history in [&unbatched, &batched] {
            let checker = EtobChecker::from_delivered(
                history,
                workload.records(),
                failures.correct(),
                Time::ZERO,
            );
            assert!(checker.check_all().is_ok(), "{:?}", checker.check_all());
        }
        // one update per op without batching; coalesced flushes with it
        assert_eq!(updates_unbatched, 16);
        assert!(
            updates_batched < updates_unbatched,
            "batching must coalesce update broadcasts ({updates_batched} vs {updates_unbatched})"
        );
        // both runs deliver the same set of messages everywhere
        let ids = |h: &OutputHistory<DeliveryDelta>| {
            let mut v: Vec<MsgId> = materialize(h)
                .last(ProcessId::new(0))
                .map(|s| s.iter().map(|m| m.id).collect())
                .unwrap_or_default();
            v.sort();
            v
        };
        assert_eq!(ids(&unbatched), ids(&batched));
    }

    #[test]
    fn batched_single_origin_delivers_the_same_stable_sequence() {
        // All broadcasts originate at one process, so the promotion order is
        // forced (FIFO per origin): the batched and unbatched stable
        // sequences must be identical, not merely equivalent.
        let n = 3;
        let failures = FailurePattern::no_failures(n);
        let mut workload = BroadcastWorkload::new();
        for k in 0..8u64 {
            workload.push(
                ProcessId::new(1),
                20 + 4 * k,
                format!("op{k}").into_bytes(),
                vec![],
            );
        }
        let run = |config: EtobConfig| {
            run_etob(
                n,
                &workload,
                failures.clone(),
                OmegaOracle::stable_from_start(failures.clone()),
                NetworkModel::fixed_delay(2),
                4_000,
                config,
            )
        };
        let unbatched = run(EtobConfig::default());
        let batched = run(EtobConfig::batched(7));
        for p in (0..n).map(ProcessId::new) {
            let ids = |h: &OutputHistory<DeliveryDelta>| -> Vec<MsgId> {
                materialize(h)
                    .last(p)
                    .map(|s| s.iter().map(|m| m.id).collect())
                    .unwrap_or_default()
            };
            assert_eq!(ids(&unbatched), ids(&batched), "sequences differ at {p}");
            assert_eq!(ids(&unbatched).len(), 8);
        }
    }

    #[test]
    fn batching_flushes_at_the_deadline_not_per_operation() {
        // Two ops land inside one flush window; the update goes out once.
        let mut alg = EtobOmega::new(ProcessId::new(0), EtobConfig::batched(5));
        let mut actions = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(10),
                3,
                ProcessId::new(0),
                &mut actions,
            );
            alg.on_input(
                EtobBroadcast::new(ProcessId::new(0), 1, b"a".to_vec()),
                &mut ctx,
            );
            alg.on_input(
                EtobBroadcast::new(ProcessId::new(0), 2, b"b".to_vec()),
                &mut ctx,
            );
        }
        assert!(actions.sends.is_empty(), "ops must be buffered, not sent");
        // only the first op arms a flush timer
        assert_eq!(actions.timers, vec![5]);

        // before the deadline the timer does nothing
        let mut early = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(12),
                3,
                ProcessId::new(1),
                &mut early,
            );
            alg.on_timer(&mut ctx);
        }
        assert!(early.sends.is_empty());

        // at the deadline one update carrying both messages goes to all
        let mut flush = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(15),
                3,
                ProcessId::new(1),
                &mut flush,
            );
            alg.on_timer(&mut ctx);
        }
        assert_eq!(flush.sends.len(), 3, "one broadcast to the 3 processes");
        for (to, m) in &flush.sends {
            let EtobMsg::Delta {
                nodes, frontier, ..
            } = m
            else {
                panic!("expected a delta, got {m:?}");
            };
            assert_eq!(frontier.len(), 2, "digest covers both buffered ops");
            if *to == ProcessId::new(0) {
                assert!(nodes.is_empty(), "the self-copy is a pure trigger");
            } else {
                assert_eq!(nodes.len(), 2, "one delta carrying both messages");
            }
        }
        assert_eq!(alg.updates_sent(), 1);
    }

    /// One step of `alg` in a group of three at tick `now`, with Ω trusting
    /// `leader`; returns what the step sent.
    fn step_at(
        alg: &mut EtobOmega,
        now: u64,
        leader: usize,
        handler: impl FnOnce(&mut EtobOmega, &mut Context<'_, EtobOmega>),
    ) -> Vec<(ProcessId, EtobMsg)> {
        let mut actions = ec_sim::Actions::<EtobOmega>::new();
        let leader = ProcessId::new(leader);
        let mut ctx = Context::new(alg.me, Time::new(now), 3, leader, &mut actions);
        handler(alg, &mut ctx);
        actions.sends
    }

    /// Batching on both wire formats: deltas and the paper's full graph.
    fn batched_wires() -> [EtobConfig; 2] {
        let full_graph = EtobConfig {
            batch: 5,
            ..EtobConfig::full_graph()
        };
        [EtobConfig::batched(5), full_graph]
    }

    /// The graph nodes an update carries; `None` for any other message.
    fn update_nodes(msg: &EtobMsg) -> Option<usize> {
        match msg {
            EtobMsg::Delta { nodes, .. } => Some(nodes.len()),
            EtobMsg::Update(graph) => Some(graph.len()),
            _ => None,
        }
    }

    /// The sequence entries a promote carries; `None` for any other message.
    fn promoted_entries(msg: &EtobMsg) -> Option<usize> {
        match msg {
            EtobMsg::PromoteDelta { suffix, .. } => Some(suffix.len()),
            EtobMsg::Promote(sequence) => Some(sequence.len()),
            _ => None,
        }
    }

    /// Submits `seqs` at `alg` as its own broadcasts; each is held back.
    fn submit_held_back(alg: &mut EtobOmega, seqs: std::ops::RangeInclusive<u64>) {
        for seq in seqs {
            let input = EtobBroadcast::new(alg.me, seq, b"x".to_vec());
            let sent = step_at(alg, 10, 0, |a, ctx| a.on_input(input, ctx));
            assert!(sent.is_empty(), "held back to coalesce");
        }
    }

    #[test]
    fn an_idle_step_with_nothing_pending_sends_nothing() {
        // an idle cluster's traffic is what it was before the hook existed
        let [delta, full_graph] = batched_wires();
        for config in [EtobConfig::default(), delta, full_graph] {
            for me in 0..3 {
                let mut alg = EtobOmega::new(ProcessId::new(me), config);
                step_at(&mut alg, 0, 0, |a, ctx| a.on_start(ctx));
                let sent = step_at(&mut alg, 1, 0, |a, ctx| a.on_idle(ctx));
                assert!(sent.is_empty(), "{config:?}, p{me}: {sent:?}");
                assert_eq!(alg.updates_sent(), 0);
            }
        }
    }

    #[test]
    fn an_idle_step_flushes_a_pending_batch_once() {
        for config in batched_wires() {
            let mut alg = EtobOmega::new(ProcessId::new(1), config);
            submit_held_back(&mut alg, 1..=3);
            let flushed = step_at(&mut alg, 10, 0, |a, ctx| a.on_idle(ctx));
            assert_eq!(alg.updates_sent(), 1);
            assert_eq!(flushed.len(), 3, "{config:?}: one update to each process");
            for (to, msg) in &flushed {
                let nodes = update_nodes(msg).expect("an update");
                if *to != alg.me {
                    assert_eq!(nodes, 3, "{config:?}: one update carrying all three");
                }
            }
            // the flush deadline finds nothing left to send
            let at_deadline = step_at(&mut alg, 15, 0, |a, ctx| a.on_timer(ctx));
            assert!(at_deadline.iter().all(|(_, m)| update_nodes(m).is_none()));
            assert_eq!(alg.updates_sent(), 1);
        }
    }

    #[test]
    fn an_idle_leader_promotes_what_grew_and_a_follower_never_does() {
        for config in batched_wires() {
            // p2's batch of two reaches the leader p0 and the follower p1
            let mut origin = EtobOmega::new(ProcessId::new(2), config);
            submit_held_back(&mut origin, 1..=2);
            let update = step_at(&mut origin, 10, 0, |a, ctx| a.on_idle(ctx));
            let copy_for = |p: usize| update.iter().find(|(to, _)| to.index() == p).cloned();
            let mut leader = EtobOmega::new(ProcessId::new(0), config);
            let mut follower = EtobOmega::new(ProcessId::new(1), config);
            for alg in [&mut leader, &mut follower] {
                let (_, msg) = copy_for(alg.me.index()).expect("sent to every process");
                let sent = step_at(alg, 11, 0, |a, ctx| a.on_message(origin.me, msg, ctx));
                assert!(sent.is_empty(), "{config:?}: not eager, nothing missing");
                assert_eq!(alg.promote.len(), 2);
            }
            let promoted = step_at(&mut leader, 11, 0, |a, ctx| a.on_idle(ctx));
            assert_eq!(promoted.len(), 3, "{config:?}: one promote to each process");
            for (_, msg) in &promoted {
                assert_eq!(promoted_entries(msg), Some(2), "{config:?}");
            }
            let again = step_at(&mut leader, 12, 0, |a, ctx| a.on_idle(ctx));
            assert!(again.is_empty(), "{config:?}: no growth, no promote");
            let follows = step_at(&mut follower, 11, 0, |a, ctx| a.on_idle(ctx));
            assert!(follows.is_empty(), "{config:?}: a follower never promotes");
        }
    }

    #[test]
    fn full_graph_mode_still_sends_the_papers_wire_format() {
        let mut alg = EtobOmega::new(ProcessId::new(0), EtobConfig::full_graph());
        let mut actions = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(10),
                3,
                ProcessId::new(0),
                &mut actions,
            );
            alg.on_input(
                EtobBroadcast::new(ProcessId::new(0), 1, b"a".to_vec()),
                &mut ctx,
            );
        }
        assert_eq!(actions.sends.len(), 3);
        assert!(actions
            .sends
            .iter()
            .all(|(_, m)| matches!(m, EtobMsg::Update(g) if g.len() == 1)));
    }

    #[test]
    fn a_sender_outside_the_group_is_dropped_and_counted() {
        // A socket peer claims its own `from`: an index past the group has
        // no peer-table entry, so its messages are malformed input — even
        // under an Ω output naming it, its promote is not adopted.
        let outsider = ProcessId::new(u32::MAX as usize);
        let m = AppMessage::new(MsgId::new(outsider, 1), b"x".to_vec());
        let mut digest = VersionVector::new();
        digest.insert(m.id);
        let config = EtobConfig::default().with_compaction(1);
        let mut alg = EtobOmega::new(ProcessId::new(0), config);
        let mut actions = ec_sim::Actions::<EtobOmega>::new();
        let messages = [
            EtobMsg::Delta {
                nodes: vec![m.clone()],
                frontier: digest.clone(),
                delivered: 1,
                hash: hash_step(FNV_OFFSET, m.id),
            },
            EtobMsg::SyncRequest { digest },
            EtobMsg::PromoteDelta {
                base: 0,
                prefix_hash: FNV_OFFSET,
                suffix: vec![m],
            },
        ];
        for msg in messages {
            let mut ctx = Context::new(ProcessId::new(0), Time::new(5), 3, outsider, &mut actions);
            alg.on_message(outsider, msg, &mut ctx);
        }
        assert!(actions.is_empty(), "{:?}", actions.sends);
        assert_eq!(alg.malformed(), 3);
        assert!(alg.causal_graph().is_empty() && alg.delivered().is_empty());
        assert_eq!(alg.peers.len(), 3, "the table is the group, no more");
    }

    #[test]
    fn a_detected_update_gap_triggers_a_digest_pull_and_the_repair_heals_it() {
        // p1 broadcast m1 then m2; p0 receives only the m2 delta (the m1
        // delta was "lost"), detects the gap from the frontier, pulls, and
        // the repair delta carries exactly m1.
        let m1 = AppMessage::new(MsgId::new(ProcessId::new(1), 1), b"one".to_vec());
        let m2 = AppMessage::new(MsgId::new(ProcessId::new(1), 2), b"two".to_vec());
        let mut sender = EtobOmega::new(ProcessId::new(1), EtobConfig::default());
        sender.graph.update(m1.clone());
        sender.graph.update(m2.clone());
        let frontier = sender.graph.digest().clone();

        let mut receiver = EtobOmega::new(ProcessId::new(0), EtobConfig::default());
        let mut actions = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(5),
                3,
                ProcessId::new(1),
                &mut actions,
            );
            receiver.on_message(
                ProcessId::new(1),
                EtobMsg::Delta {
                    nodes: vec![m2.clone()],
                    frontier: frontier.clone(),
                    delivered: 0,
                    hash: FNV_OFFSET,
                },
                &mut ctx,
            );
        }
        assert_eq!(receiver.sync_pulls(), 1);
        let (to, pull) = &actions.sends[0];
        assert_eq!(*to, ProcessId::new(1));
        let EtobMsg::SyncRequest { digest } = pull else {
            panic!("expected a digest pull, got {pull:?}");
        };
        assert!(digest.contains(m2.id) && !digest.contains(m1.id));

        // the sender answers with exactly the missing node …
        let mut reply = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(1),
                Time::new(7),
                3,
                ProcessId::new(1),
                &mut reply,
            );
            sender.on_message(ProcessId::new(0), pull.clone(), &mut ctx);
        }
        assert_eq!(reply.sends.len(), 1);
        let (_, repair) = &reply.sends[0];
        let EtobMsg::Delta { nodes, .. } = repair else {
            panic!("expected a repair delta, got {repair:?}");
        };
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].id, m1.id);
        // … and the sender now knows what p0 has acked
        assert!(sender.peers[0].acked.contains(m2.id));

        // … which closes the receiver's gap (no further pull)
        let mut heal = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(9),
                3,
                ProcessId::new(1),
                &mut heal,
            );
            receiver.on_message(ProcessId::new(1), repair.clone(), &mut ctx);
        }
        assert!(heal.sends.is_empty());
        assert!(receiver.causal_graph().contains(m1.id));
        assert_eq!(receiver.sync_pulls(), 1);
    }

    #[test]
    fn unverifiable_promote_prefixes_fall_back_to_a_full_resend() {
        // The leader appends and broadcasts a suffix with base 2, but the
        // receiver has an empty delivered sequence: the prefix cannot be
        // verified, so it pulls, and the leader answers with the full
        // promote — which the receiver adopts wholesale.
        let mk = |seq| AppMessage::new(MsgId::new(ProcessId::new(1), seq), b"x".to_vec());
        let mut leader = EtobOmega::new(ProcessId::new(1), EtobConfig::default());
        for seq in 1..=3u64 {
            leader.admit(mk(seq));
        }
        leader.update_promote();
        // as if promote[..2] was broadcast
        leader.last_promote_broadcast = 2;
        leader.broadcast_hash = leader.promote[..2]
            .iter()
            .fold(FNV_OFFSET, |h, id| hash_step(h, *id));

        let mut suffix_actions = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(1),
                Time::new(20),
                2,
                ProcessId::new(1),
                &mut suffix_actions,
            );
            leader.broadcast_promote(&mut ctx);
        }
        let (_, promote_delta) = &suffix_actions.sends[0];
        assert!(
            matches!(promote_delta, EtobMsg::PromoteDelta { base: 2, suffix, .. } if suffix.len() == 1)
        );

        let mut receiver = EtobOmega::new(ProcessId::new(0), EtobConfig::default());
        let mut pull = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(22),
                2,
                ProcessId::new(1),
                &mut pull,
            );
            receiver.on_message(ProcessId::new(1), promote_delta.clone(), &mut ctx);
        }
        assert!(receiver.delivered().is_empty(), "nothing adoptable yet");
        assert_eq!(receiver.promote_pulls(), 1);
        assert_eq!(
            pull.sends,
            vec![(ProcessId::new(1), EtobMsg::PromoteRequest)]
        );

        let mut full = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(1),
                Time::new(24),
                2,
                ProcessId::new(1),
                &mut full,
            );
            leader.on_message(ProcessId::new(0), EtobMsg::PromoteRequest, &mut ctx);
        }
        let (_, full_promote) = &full.sends[0];
        assert!(matches!(full_promote, EtobMsg::Promote(seq) if seq.len() == 3));

        let mut adopt = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(26),
                2,
                ProcessId::new(1),
                &mut adopt,
            );
            receiver.on_message(ProcessId::new(1), full_promote.clone(), &mut ctx);
        }
        assert_eq!(receiver.delivered().len(), 3);

        // a follow-up suffix from the same lineage is now verifiable in O(1)
        for seq in 4..=5u64 {
            leader.admit(mk(seq));
        }
        leader.update_promote();
        let mut next = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(1),
                Time::new(28),
                2,
                ProcessId::new(1),
                &mut next,
            );
            leader.broadcast_promote(&mut ctx);
        }
        let (_, next_delta) = &next.sends[0];
        assert!(matches!(next_delta, EtobMsg::PromoteDelta { base: 3, .. }));
        let mut extend = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(30),
                2,
                ProcessId::new(1),
                &mut extend,
            );
            receiver.on_message(ProcessId::new(1), next_delta.clone(), &mut ctx);
        }
        assert_eq!(receiver.delivered().len(), 5);
        assert_eq!(receiver.promote_pulls(), 1, "no further fallback needed");
        let ids: Vec<MsgId> = receiver.delivered().iter().map(|m| m.id).collect();
        assert_eq!(ids, leader.promote);
    }

    /// Delivers `msg` from p1 (whom Ω trusts) to `alg` and returns what it
    /// output.
    fn deliver_from_leader(alg: &mut EtobOmega, msg: EtobMsg) -> Vec<DeliveryDelta> {
        let mut actions = ec_sim::Actions::<EtobOmega>::new();
        let mut ctx = Context::new(
            ProcessId::new(0),
            Time::new(5),
            2,
            ProcessId::new(1),
            &mut actions,
        );
        alg.on_message(ProcessId::new(1), msg, &mut ctx);
        actions.outputs
    }

    #[test]
    fn a_full_promote_is_adopted_from_its_first_differing_index() {
        let mk = |seq| AppMessage::new(MsgId::new(ProcessId::new(1), seq), b"x".to_vec());
        let seq = |ids: &[u64]| -> Vec<AppMessage> { ids.iter().map(|s| mk(*s)).collect() };
        let mut alg = EtobOmega::new(ProcessId::new(0), EtobConfig::default());
        let first = deliver_from_leader(&mut alg, EtobMsg::Promote(seq(&[1, 2, 3])));
        assert_eq!(
            first,
            vec![DeliveryDelta {
                keep: 0,
                suffix: seq(&[1, 2, 3])
            }]
        );
        // identical resend: d_i did not change, so nothing is output
        assert!(deliver_from_leader(&mut alg, EtobMsg::Promote(seq(&[1, 2, 3]))).is_empty());
        // merely behind: a pure extension from the old length
        let behind = deliver_from_leader(&mut alg, EtobMsg::Promote(seq(&[1, 2, 3, 4, 5])));
        assert_eq!(
            behind,
            vec![DeliveryDelta {
                keep: 3,
                suffix: seq(&[4, 5])
            }]
        );
        // divergent tail: kept up to the fork, rewritten from there
        let forked = deliver_from_leader(&mut alg, EtobMsg::Promote(seq(&[1, 2, 9, 3])));
        assert_eq!(
            forked,
            vec![DeliveryDelta {
                keep: 2,
                suffix: seq(&[9, 3])
            }]
        );
        // a shorter promote truncates (Algorithm 5 adopts it as it is)
        let shorter = deliver_from_leader(&mut alg, EtobMsg::Promote(seq(&[1, 2])));
        assert_eq!(
            shorter,
            vec![DeliveryDelta {
                keep: 2,
                suffix: vec![]
            }]
        );
        let ids: Vec<MsgId> = alg.delivered().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![mk(1).id, mk(2).id]);
        assert_eq!(
            alg.delivered_hash(),
            ids.iter().fold(FNV_OFFSET, |h, id| hash_step(h, *id))
        );
        assert_eq!(alg.compact_conflicts(), 0);
    }

    #[test]
    fn a_full_promote_beyond_a_fold_keeps_absolute_positions() {
        let mk = |seq| AppMessage::new(MsgId::new(ProcessId::new(1), seq), b"x".to_vec());
        let history: Vec<AppMessage> = (1..=5u64).map(mk).collect();
        let hashes = prefix_hashes_from(FNV_OFFSET, &history);
        let mut frontier = VersionVector::new();
        for m in &history[..2] {
            frontier.insert(m.id);
        }
        // 2 entries folded, entry 3 resident
        let mut alg = EtobOmega::new(ProcessId::new(0), EtobConfig::default());
        assert!(alg.prime_recovery(2, hashes[2], frontier, vec![history[2].clone()]));
        // the same lineage, two entries longer: extension at absolute 3
        let out = deliver_from_leader(&mut alg, EtobMsg::Promote(history.clone()));
        assert_eq!(
            out,
            vec![DeliveryDelta {
                keep: 3,
                suffix: history[3..].to_vec()
            }]
        );
        assert_eq!(alg.delivered_total(), 5);
        assert_eq!(alg.delivered_hash(), hashes[5]);
        // a below-fold prefix mismatch is counted and outputs nothing …
        let mut divergent = history.clone();
        divergent[0] = mk(77);
        assert!(deliver_from_leader(&mut alg, EtobMsg::Promote(divergent)).is_empty());
        // … as is a promote shorter than the fold
        assert!(deliver_from_leader(&mut alg, EtobMsg::Promote(vec![mk(1)])).is_empty());
        assert_eq!(alg.compact_conflicts(), 2);
        assert_eq!(
            alg.delivered_hash(),
            hashes[5],
            "compacted history survived"
        );
    }

    #[test]
    fn a_fold_that_is_not_the_promoted_prefix_rebases_both_promote_hashes() {
        // p0 promoted [x, a, b] in identifier order but delivered the
        // leader's [a, b, x]; folding [a, b] leaves x promoted, hashed on
        // top of the fold, and hands a and b out once.
        let (x, a, b) = (
            MsgId::new(ProcessId::new(0), 1),
            MsgId::new(ProcessId::new(1), 1),
            MsgId::new(ProcessId::new(1), 2),
        );
        let mk = |id| AppMessage::new(id, b"v".to_vec());
        let fold_hash = [a, b].into_iter().fold(FNV_OFFSET, hash_step);
        for (sent, broadcast_hash) in [(1, fold_hash), (3, hash_step(fold_hash, x))] {
            let mut alg =
                EtobOmega::new(ProcessId::new(0), EtobConfig::default().with_compaction(2));
            for id in [x, a, b] {
                alg.admit(mk(id));
            }
            assert!(alg.update_promote());
            assert_eq!(alg.promote, [x, a, b]);
            // as if the first `sent` entries of promote went out
            alg.last_promote_broadcast = sent;
            alg.broadcast_hash = alg.promote[..sent]
                .iter()
                .fold(FNV_OFFSET, |h, id| hash_step(h, *id));
            deliver_from_leader(&mut alg, EtobMsg::Promote(vec![mk(a), mk(b), mk(x)]));
            alg.peers.resize_with(2, Peer::default);
            alg.peers[1].delivered_ack = 2;
            alg.peers[1].acked.insert(a);
            alg.peers[1].acked.insert(b);
            alg.maybe_compact(2);

            assert_eq!((alg.folded(), alg.stable_hash()), (2, fold_hash));
            assert_eq!(alg.promote, [x]);
            assert_eq!(alg.promote_hash, hash_step(fold_hash, x));
            assert_eq!(alg.broadcast_hash, broadcast_hash, "{sent} sent");
            assert_eq!(alg.last_promote_broadcast, sent.max(2));
            let mut drained = Vec::new();
            assert_eq!(alg.drain_folded(&mut |m| drained.push(m.id)), 2);
            assert_eq!(drained, [a, b]);
            assert_eq!(alg.drain_folded(&mut |_| {}), 0, "handed out once");
        }
    }

    #[test]
    fn resend_restores_eventual_delivery_over_lossy_links() {
        // Half the remote transmissions in the first 400 ticks are dropped
        // and a fifth are duplicated; with anti-entropy retransmission every
        // message still reaches every process, in one agreed order.
        let n = 4;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let network = NetworkModel::fixed_delay(2).with_faults(
            Time::ZERO,
            Time::new(400),
            LinkScope::All,
            LinkFaults::new(0.5, 0.2, 3),
        );
        let workload = BroadcastWorkload::uniform(n, 10, 10, 8);
        let history = run_etob(
            n,
            &workload,
            failures.clone(),
            omega,
            network,
            6_000,
            EtobConfig::default().with_resend(15),
        );
        let history = materialize(&history);
        let reference: Vec<MsgId> = history
            .last(ProcessId::new(0))
            .map(|s| s.iter().map(|m| m.id).collect())
            .expect("p0 delivered");
        assert_eq!(reference.len(), 10, "every broadcast must survive loss");
        for p in (0..n).map(ProcessId::new) {
            let ids: Vec<MsgId> = history
                .last(p)
                .map(|s| s.iter().map(|m| m.id).collect())
                .unwrap_or_default();
            assert_eq!(ids, reference, "sequences diverged at {p}");
        }
        // duplication must not deliver any message twice
        let mut deduped = reference.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), reference.len());
    }

    #[test]
    fn causal_graph_operations() {
        let a = AppMessage::new(MsgId::new(ProcessId::new(0), 1), b"a".to_vec());
        let b = AppMessage::with_deps(MsgId::new(ProcessId::new(1), 1), b"b".to_vec(), vec![a.id]);
        let mut g = CausalGraph::new();
        assert!(g.is_empty());
        g.update(a.clone());
        g.update(b.clone());
        assert_eq!(g.len(), 2);
        assert!(g.contains(a.id));
        assert_eq!(g.get(b.id).map(|m| m.deps.as_ref()), Some(&[a.id][..]));
        assert!(g.get(a.id).is_some_and(|m| m.deps.is_empty()));
        assert_eq!(g.messages().count(), 2);
    }

    #[test]
    fn a_candidate_waits_for_a_dependency_held_back_earlier_in_the_pass() {
        // p1#1 waits for p0#1, which is unknown; p1#2 waits for p1#1, which
        // the same pass scanned and held back just before it
        let root = AppMessage::new(MsgId::new(ProcessId::new(0), 1), b"r".to_vec());
        let first = AppMessage::with_deps(MsgId::new(ProcessId::new(1), 1), vec![], [root.id]);
        let second = AppMessage::with_deps(MsgId::new(ProcessId::new(1), 2), vec![], [first.id]);
        let mut alg = EtobOmega::new(ProcessId::new(0), EtobConfig::default());
        alg.admit(first.clone());
        alg.admit(second.clone());
        assert!(!alg.update_promote(), "both wait for p0#1");
        assert_eq!(alg.unpromoted, [first.id, second.id]);
        alg.admit(root.clone());
        assert!(alg.update_promote());
        assert_eq!(alg.promote, [root.id, first.id, second.id]);
        assert!(alg.unpromoted.is_empty());
    }

    #[test]
    fn a_second_copy_of_an_admitted_id_leaves_the_held_node_unchanged() {
        let a = AppMessage::new(MsgId::new(ProcessId::new(0), 1), b"a".to_vec());
        let unknown = MsgId::new(ProcessId::new(2), 9);
        let forged = AppMessage::with_deps(a.id, b"forged".to_vec(), vec![unknown]);
        let mut alg = EtobOmega::new(ProcessId::new(0), EtobConfig::default());
        assert!(alg.admit(a.clone()));
        alg.update_promote();
        assert!(alg.is_promoted(a.id));
        // neither the payload nor C(m) of the promoted node may change
        assert!(!alg.admit(forged));
        assert_eq!(alg.causal_graph().get(a.id), Some(&a));
        assert!(alg.is_promoted(a.id) && alg.unpromoted.is_empty());
    }

    #[test]
    fn a_message_whose_dependency_was_folded_before_it_arrived_is_promoted() {
        let a = MsgId::new(ProcessId::new(1), 1);
        let b = AppMessage::with_deps(MsgId::new(ProcessId::new(1), 2), b"b".to_vec(), vec![a]);
        let mut frontier = VersionVector::new();
        frontier.insert(a);
        let mut alg = EtobOmega::new(ProcessId::new(0), EtobConfig::default());
        let folded_hash = hash_step(FNV_OFFSET, a);
        assert!(alg.prime_recovery(1, folded_hash, frontier, Vec::new()));
        assert!(!alg.causal_graph().contains(a) && alg.causal_graph().is_compacted(a));
        assert!(alg.admit(b.clone()));
        assert!(alg.update_promote());
        assert_eq!(alg.promote, [b.id]);
        assert!(alg.is_promoted(b.id));
    }

    #[test]
    fn promoted_is_the_graph_minus_unpromoted_through_lossy_compacted_runs() {
        // Invariant: the resident `promote` ids are exactly the graph's
        // nodes not in `unpromoted` — checked between steps of a lossy,
        // duplicating, compacted run, so it holds across admits, promotes
        // and folds alike.
        let n = 3;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let network = NetworkModel::fixed_delay(2).with_faults(
            Time::ZERO,
            Time::new(600),
            LinkScope::All,
            LinkFaults::new(0.3, 0.2, 3),
        );
        let config = EtobConfig::default().with_resend(15).with_compaction(4);
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(42)
            .build_with(|p| EtobOmega::new(p, config), omega);
        let workload = BroadcastWorkload::uniform(n, 36, 10, 13);
        workload.submit_to(&mut world);
        for horizon in (50..=4_000).step_by(50) {
            world.run_until(horizon);
            for p in world.process_ids() {
                let alg = world.algorithm(p);
                let promoted: BTreeSet<MsgId> = alg.promote.iter().copied().collect();
                let derived: BTreeSet<MsgId> = alg
                    .graph
                    .messages()
                    .map(|m| m.id)
                    .filter(|id| !alg.unpromoted.contains(id))
                    .collect();
                assert_eq!(promoted, derived, "{p} at tick {horizon}");
                assert_eq!(promoted.len(), alg.promote.len(), "{p} promoted twice");
            }
        }
        for p in world.process_ids() {
            let alg = world.algorithm(p);
            assert_eq!(alg.delivered_total(), 36, "{p} lost history");
            assert!(alg.folded() >= 4, "{p} never folded");
        }
        let pulls: u64 = world
            .process_ids()
            .map(|p| world.algorithm(p).sync_pulls())
            .sum();
        assert!(pulls > 0, "the links were not lossy enough to need repair");
    }

    #[test]
    fn update_promote_holds_back_messages_with_unknown_dependencies() {
        let a = AppMessage::new(MsgId::new(ProcessId::new(0), 1), b"a".to_vec());
        let b = AppMessage::with_deps(MsgId::new(ProcessId::new(1), 1), b"b".to_vec(), vec![a.id]);
        let mut alg = EtobOmega::new(ProcessId::new(0), EtobConfig::default());
        // b arrives without a: held back
        alg.admit(b.clone());
        alg.update_promote();
        assert!(alg.promote.is_empty());
        // once a arrives, both are appended in causal order
        alg.admit(a.clone());
        alg.update_promote();
        assert_eq!(alg.promote, [a.id, b.id]);
        assert!(format!("{alg:?}").contains("EtobOmega"));
    }

    #[test]
    fn compaction_folds_globally_acked_prefixes_without_changing_delivery() {
        // Same workload, compaction off (the reference) vs on: identical
        // delivered history — checked via the rolling hash and the resident
        // tail — but the compacted run retires resident state.
        let n = 3;
        let failures = FailurePattern::no_failures(n);
        let workload = BroadcastWorkload::uniform(n, 36, 4, 13);
        let reference: Vec<MsgId> = {
            let omega = OmegaOracle::stable_from_start(failures.clone());
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::fixed_delay(2))
                .failures(failures.clone())
                .seed(42)
                .build_with(
                    |p| EtobOmega::new(p, EtobConfig::default().with_resend(15)),
                    omega,
                );
            workload.submit_to(&mut world);
            world.run_until(4_000);
            world
                .algorithm(ProcessId::new(0))
                .delivered()
                .iter()
                .map(|m| m.id)
                .collect()
        };
        assert_eq!(reference.len(), 36);
        let expected_hash = reference.iter().fold(FNV_OFFSET, |h, id| hash_step(h, *id));

        let omega = OmegaOracle::stable_from_start(failures.clone());
        let config = EtobConfig::default().with_resend(15).with_compaction(8);
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures.clone())
            .seed(42)
            .build_with(|p| EtobOmega::new(p, config), omega);
        workload.submit_to(&mut world);
        world.run_until(4_000);
        for p in world.process_ids() {
            let alg = world.algorithm(p);
            assert_eq!(alg.delivered_total(), 36, "{p} lost history");
            assert_eq!(alg.delivered_hash(), expected_hash, "{p} diverged");
            assert!(alg.folded() >= 8, "{p} never folded");
            assert_eq!(alg.folded() % 8, 0, "{p} folded off-chunk");
            assert_eq!(alg.compact_conflicts(), 0, "{p} hit a conflict");
            assert_eq!(alg.malformed(), 0);
            let tail: Vec<MsgId> = alg.delivered().iter().map(|m| m.id).collect();
            assert_eq!(tail.as_slice(), &reference[alg.folded() as usize..]);
            assert!(
                alg.causal_graph().len() < 36,
                "{p} graph still holds the whole history"
            );
        }
    }

    #[test]
    fn recovery_priming_restores_the_fold_and_rejects_divergent_prefixes() {
        let mk = |seq| AppMessage::new(MsgId::new(ProcessId::new(1), seq), b"x".to_vec());
        let history: Vec<AppMessage> = (1..=3u64).map(mk).collect();
        let hashes = prefix_hashes_from(FNV_OFFSET, &history);
        let mut frontier = VersionVector::new();
        for m in &history[..2] {
            frontier.insert(m.id);
        }

        // Prime a fresh automaton: 2 folded entries plus a 1-entry tail.
        let mut alg = EtobOmega::new(ProcessId::new(0), EtobConfig::default());
        assert!(alg.prime_recovery(2, hashes[2], frontier.clone(), vec![history[2].clone()]));
        assert_eq!(alg.folded(), 2);
        assert_eq!(alg.delivered_total(), 3);
        assert_eq!(alg.delivered_hash(), hashes[3]);
        assert_eq!(alg.stable_base(), 2);
        assert_eq!(alg.stable_hash(), hashes[2]);
        assert!(alg.stable_frontier().covers(&frontier));
        assert!(alg.causal_graph().is_compacted(history[0].id));
        assert!(alg.causal_graph().contains(history[2].id));
        // Priming twice is refused — the automaton is no longer pristine.
        assert!(!alg.prime_recovery(2, hashes[2], frontier.clone(), vec![]));

        // A full promote that disagrees with the folded prefix is rejected…
        let divergent: Vec<AppMessage> = (10..=13u64).map(mk).collect();
        let mut actions = ec_sim::Actions::<EtobOmega>::new();
        {
            let mut ctx = Context::new(
                ProcessId::new(0),
                Time::new(2),
                2,
                ProcessId::new(1),
                &mut actions,
            );
            alg.on_message(ProcessId::new(1), EtobMsg::Promote(divergent), &mut ctx);
            // …as is a promote delta whose below-fold prefix hash diverges…
            alg.on_message(
                ProcessId::new(1),
                EtobMsg::PromoteDelta {
                    base: 1,
                    prefix_hash: hashes[1].wrapping_add(1),
                    suffix: history[1..].to_vec(),
                },
                &mut ctx,
            );
            assert_eq!(alg.compact_conflicts(), 2);
            assert_eq!(alg.delivered_total(), 3, "compacted history survived");

            // …while one overlapping the fold with the *same* lineage
            // verifies across the boundary and extends the tail.
            let mut extended = history[1..].to_vec();
            extended.push(mk(4));
            alg.on_message(
                ProcessId::new(1),
                EtobMsg::PromoteDelta {
                    base: 1,
                    prefix_hash: hashes[1],
                    suffix: extended,
                },
                &mut ctx,
            );
        }
        assert_eq!(alg.compact_conflicts(), 2);
        assert_eq!(alg.delivered_total(), 4);
        assert_eq!(alg.folded(), 2);
        assert_eq!(alg.delivered_hash(), hash_step(hashes[3], mk(4).id));
    }
}
