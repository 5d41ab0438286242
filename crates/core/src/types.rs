//! Common types and abstraction interfaces: application messages, the
//! eventual-consensus (EC), eventual-total-order-broadcast (ETOB) and
//! eventual-irrevocable-consensus (EIC) interfaces.

use std::fmt;
use std::sync::Arc;

use ec_sim::{Algorithm, OutputHistory, ProcessId};

use crate::version::VersionVector;

/// Globally unique identifier of an application message: the broadcaster and
/// a per-broadcaster sequence number.
///
/// # Example
///
/// ```
/// use ec_core::types::MsgId;
/// use ec_sim::ProcessId;
/// let id = MsgId::new(ProcessId::new(2), 7);
/// assert_eq!(format!("{id}"), "p2#7");
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The broadcasting process.
    pub origin: ProcessId,
    /// Sequence number local to the broadcaster.
    pub seq: u64,
}

impl MsgId {
    /// Creates a message identifier.
    pub fn new(origin: ProcessId, seq: u64) -> Self {
        MsgId { origin, seq }
    }
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// The reference-counted payload of an [`AppMessage`].
///
/// Payload bytes are shared, not owned: cloning a message — which the wire
/// layer does once per recipient on every broadcast fan-out, and the thread
/// runtime once per channel send — bumps a reference count instead of deep-
/// copying the byte buffer. The one copy happens at creation, when the
/// client's `Vec<u8>` is moved behind the `Arc`.
pub type Payload = Arc<[u8]>;

/// The causal dependency list `C(m)` of a message — also the edges into it
/// in every causality graph that holds it. Like [`Payload`] it is built
/// once, when the message is created, and shared by every clone, so the
/// broadcast fan-out and the delivery path copy a pointer, not the list.
pub type DepList = Arc<[MsgId]>;

/// An application message broadcast through (E)TOB: an identifier, an opaque
/// payload, and the identifiers of the messages it causally depends on (the
/// paper's `C(m)` passed to `broadcastETOB(m, C(m))`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AppMessage {
    /// Unique identifier.
    pub id: MsgId,
    /// Opaque application payload (shared zero-copy across fan-outs).
    pub payload: Payload,
    /// Identifiers of causal predecessors declared at broadcast time
    /// (shared, never changed after construction).
    pub deps: DepList,
}

impl AppMessage {
    /// Creates a message with no declared causal dependencies.
    pub fn new(id: MsgId, payload: impl Into<Payload>) -> Self {
        AppMessage {
            id,
            payload: payload.into(),
            deps: DepList::from([]),
        }
    }

    /// Creates a message with declared causal dependencies `C(m)`.
    pub fn with_deps(
        id: MsgId,
        payload: impl Into<Payload>,
        deps: impl IntoIterator<Item = MsgId>,
    ) -> Self {
        AppMessage {
            id,
            payload: payload.into(),
            deps: deps.into_iter().collect(),
        }
    }
}

impl fmt::Debug for AppMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AppMessage({}, {} bytes, deps: {:?})",
            self.id,
            self.payload.len(),
            self.deps
        )
    }
}

/// The input accepted by every (E)TOB implementation: `broadcastETOB(m, C(m))`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EtobBroadcast {
    /// The message to broadcast. Its identifier must be unique in the run
    /// (the workload generators in [`crate::workload`] take care of this).
    pub message: AppMessage,
}

impl EtobBroadcast {
    /// Broadcast of a fresh message with no causal dependencies.
    pub fn new(origin: ProcessId, seq: u64, payload: impl Into<Payload>) -> Self {
        EtobBroadcast {
            message: AppMessage::new(MsgId::new(origin, seq), payload),
        }
    }

    /// Broadcast of a fresh message with declared causal dependencies.
    pub fn with_deps(
        origin: ProcessId,
        seq: u64,
        payload: impl Into<Payload>,
        deps: impl IntoIterator<Item = MsgId>,
    ) -> Self {
        EtobBroadcast {
            message: AppMessage::with_deps(MsgId::new(origin, seq), payload, deps),
        }
    }
}

/// A materialised delivered sequence `d_i` — what folding a process's
/// [`DeliveryDelta`]s yields (see [`materialize`]).
pub type DeliveredSequence = Vec<AppMessage>;

/// The output produced by every (E)TOB implementation, emitted every time
/// the delivered sequence `d_i` changes: `d_i := d_i[..keep] ++ suffix`.
///
/// **Why a delta.** `d_i` only ever grows with history, and almost every
/// change is "append a few entries". Emitting the whole sequence made every
/// change cost O(history) three times over — the clone here, the comparison
/// in the consumer, the drop of the superseded copy — so a run's cost was
/// quadratic in its length. A delta costs O(|suffix|), and a consumer that
/// keeps its own copy (a replica, a checker) loses nothing: folding the
/// deltas of one process in order reproduces `d_i(t)` for every `t`.
///
/// **What `keep` counts.** `keep` is *absolute*: the number of entries of
/// the whole history that stay, entries folded away by stable-prefix
/// compaction included. `keep == |d_i|` is a pure extension; a smaller
/// `keep` is a genuine rewrite of the suffix (possible only while Ω is
/// unstable). Because `keep` is absolute, a fold changes nothing a consumer
/// can see: **a fold emits no output**, and a materialised history does not
/// shrink at one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveryDelta {
    /// Absolute length of the prefix of `d_i` that is kept.
    pub keep: usize,
    /// The entries that follow the kept prefix.
    pub suffix: Vec<AppMessage>,
}

impl DeliveryDelta {
    /// The delta that turns `old` into `new` (both whole sequences, nothing
    /// folded), keeping their longest common prefix; `None` if they are
    /// equal.
    pub fn between(old: &[AppMessage], new: &[AppMessage]) -> Option<Self> {
        let keep = common_prefix_len(old, new);
        if keep == old.len() && keep == new.len() {
            return None;
        }
        Some(DeliveryDelta {
            keep,
            suffix: new.get(keep..).unwrap_or_default().to_vec(),
        })
    }

    /// Applies the delta to a materialised copy of `d_i`.
    pub fn apply_to(&self, sequence: &mut DeliveredSequence) {
        sequence.truncate(self.keep);
        sequence.extend(self.suffix.iter().cloned());
    }
}

/// Length of the longest common prefix of two sequences.
pub fn common_prefix_len(a: &[AppMessage], b: &[AppMessage]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The paper's `d_i(t)`: folds every process's [`DeliveryDelta`]s into the
/// sequence they describe, output by output. Materialising costs
/// O(history²) entries — it is for tests and checkers, not for replicas.
pub fn materialize(history: &OutputHistory<DeliveryDelta>) -> OutputHistory<DeliveredSequence> {
    history.scan(Vec::new(), |sequence, delta| delta.apply_to(sequence))
}

/// The interface of an eventual-total-order-broadcast implementation: an
/// [`Algorithm`] whose input is [`EtobBroadcast`] and whose output is a
/// [`DeliveryDelta`] per change of the delivered sequence. Implementations
/// include the direct Ω-based Algorithm 5
/// ([`crate::etob_omega::EtobOmega`]), the transformation from eventual
/// consensus ([`crate::transforms::EcToEtob`], Algorithm 1), and the
/// strongly consistent baseline ([`crate::tob_consensus::ConsensusTob`]).
pub trait EventualTotalOrderBroadcast:
    Algorithm<Input = EtobBroadcast, Output = DeliveryDelta>
{
}

impl<T> EventualTotalOrderBroadcast for T where
    T: Algorithm<Input = EtobBroadcast, Output = DeliveryDelta>
{
}

/// Rolling-hash seed shared by every stable-prefix implementation: the
/// FNV-1a offset basis, i.e. the hash of the empty sequence. The durable
/// layer persists prefix hashes seeded here, so the constant is part of the
/// on-disk format and must never change.
pub const SEQ_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends a rolling FNV-1a prefix hash with one message identifier (origin
/// index then sequence number, both little-endian). This is the single hash
/// function behind [`Compactable::stable_hash`] and the durable layer's
/// snapshot/log linkage checks, so — like [`SEQ_HASH_SEED`] — it is part of
/// the on-disk format.
pub fn seq_hash_step(mut h: u64, id: MsgId) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let bytes = (id.origin.index() as u64)
        .to_le_bytes()
        .into_iter()
        .chain(id.seq.to_le_bytes());
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable-prefix compaction and durable recovery, as implemented by
/// [`crate::etob_omega::EtobOmega`] (see `EtobConfig::compact_after`).
///
/// A broadcast automaton with a *stable prefix* has folded the first
/// [`Compactable::stable_base`] entries of its delivered sequence out of
/// resident state; the fold is summarized by a rolling identifier hash
/// ([`Compactable::stable_hash`]) and an exact identifier digest
/// ([`Compactable::stable_frontier`]). The durable facade in
/// `ec-replication` checkpoints exactly this triple plus the resident tail,
/// and [`Compactable::prime_recovery`] reloads it into a freshly constructed
/// automaton before the node rejoins, so anti-entropy only has to fetch the
/// suffix the node missed while down.
///
/// Every method has a no-compaction default, so implementations that never
/// fold anything (e.g. the strong baseline `ConsensusTob`) implement the
/// trait as an empty `impl` block and remain fully functional — recovery
/// then degrades to replaying the whole logged tail.
pub trait Compactable {
    /// Absolute number of delivered entries folded into the stable prefix.
    fn stable_base(&self) -> u64 {
        0
    }

    /// Rolling FNV-1a hash of the folded prefix's identifiers
    /// ([`SEQ_HASH_SEED`] while nothing is folded).
    fn stable_hash(&self) -> u64 {
        SEQ_HASH_SEED
    }

    /// Exact digest of the folded identifiers (empty while nothing is
    /// folded).
    fn stable_frontier(&self) -> VersionVector {
        VersionVector::new()
    }

    /// Primes a *freshly constructed* automaton with recovered durable
    /// state: `base`/`hash`/`frontier` describe the folded prefix of the
    /// last checkpoint and `tail` is the delivered suffix beyond it
    /// (reassembled from the checkpoint and the record log). Returns `true`
    /// if the state was adopted; `false` if recovery is unsupported or the
    /// automaton is no longer pristine (the caller then starts blank and
    /// relies on anti-entropy alone).
    fn prime_recovery(
        &mut self,
        base: u64,
        hash: u64,
        frontier: VersionVector,
        tail: Vec<AppMessage>,
    ) -> bool {
        let _ = (base, hash, frontier, tail);
        false
    }
}

/// Optional telemetry attachment for broadcast automata.
///
/// Engines attach a per-replica [`ec_telemetry::Recorder`] after
/// construction; an instrumented automaton then timestamps its lifecycle
/// events (submit/admit/promote/deliver/fold/sync-pull) into it and the
/// facade harvests the recorder's histograms and flight ring at report
/// time. Every method has a no-op default, so an automaton that records
/// nothing (or a test double) implements the trait as an empty `impl`
/// block and behaves exactly as before — recording is strictly additive
/// and never observed by the protocol itself.
pub trait Instrumented {
    /// Attaches a recorder. The default discards it (nothing is recorded).
    fn attach_recorder(&mut self, recorder: ec_telemetry::Recorder) {
        let _ = recorder;
    }

    /// The attached recorder, if any.
    fn recorder(&self) -> Option<&ec_telemetry::Recorder> {
        None
    }

    /// Mutable access to the attached recorder, if any (used by wrappers —
    /// e.g. the replication facade's `Replica` — to record their own
    /// lifecycle events, such as `Applied`, into the same ring).
    fn recorder_mut(&mut self) -> Option<&mut ec_telemetry::Recorder> {
        None
    }
}

/// Invocation `proposeEC_ℓ(v)` of eventual consensus instance `ℓ`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcInput<V> {
    /// Instance index `ℓ ≥ 1`.
    pub instance: u64,
    /// Proposed value.
    pub value: V,
}

/// Response `DecideEC(ℓ, v)` of eventual consensus instance `ℓ`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcOutput<V> {
    /// Instance index `ℓ ≥ 1`.
    pub instance: u64,
    /// Decided value.
    pub value: V,
}

/// The interface of an eventual-consensus implementation: an [`Algorithm`]
/// accepting [`EcInput`] invocations and producing [`EcOutput`] decisions.
/// Per the paper's definition, callers must invoke `proposeEC_{ℓ+1}` only
/// after `proposeEC_ℓ` has returned; the
/// [`crate::harness::MultiInstanceProposer`] drives that discipline.
pub trait EventualConsensus:
    Algorithm<
    Input = EcInput<<Self as EventualConsensus>::Value>,
    Output = EcOutput<<Self as EventualConsensus>::Value>,
>
{
    /// The value type proposed and decided (the multivalued extension of the
    /// paper's binary definition).
    type Value: Clone + fmt::Debug + PartialEq;
}

/// Invocation `proposeEIC_ℓ(v)` of eventual irrevocable consensus (Appendix A).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EicInput<V> {
    /// Instance index `ℓ ≥ 1`.
    pub instance: u64,
    /// Proposed value.
    pub value: V,
}

/// A (possibly revocable) response of eventual irrevocable consensus
/// instance `ℓ`: later responses for the same instance revoke earlier ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EicOutput<V> {
    /// Instance index `ℓ ≥ 1`.
    pub instance: u64,
    /// (Current) decided value.
    pub value: V,
}

/// The interface of an eventual-irrevocable-consensus implementation
/// (Appendix A of the paper).
pub trait EventualIrrevocableConsensus:
    Algorithm<
    Input = EicInput<<Self as EventualIrrevocableConsensus>::Value>,
    Output = EicOutput<<Self as EventualIrrevocableConsensus>::Value>,
>
{
    /// The value type proposed and decided.
    type Value: Clone + fmt::Debug + PartialEq;
}

/// Either of two message types — used by wrapper algorithms (the black-box
/// transformations) to multiplex their own messages with those of the wrapped
/// algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Either<L, R> {
    /// A message of the wrapper itself.
    Left(L),
    /// A message of the wrapped (inner) algorithm.
    Right(R),
}

/// Why an incoming wire message was rejected before touching protocol state.
///
/// Handlers that consume peer input validate it first and, on failure, drop
/// the message and bump the automaton's `malformed` counter — a hostile or
/// corrupted peer must never be able to panic a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// A promotion/delivery sequence carried the same identifier twice.
    DuplicateId(MsgId),
    /// A message declared itself as its own causal dependency, which would
    /// wedge the promotion scan forever.
    SelfDependency(MsgId),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::DuplicateId(id) => write!(f, "duplicate identifier {id:?} in sequence"),
            DecodeError::SelfDependency(id) => {
                write!(f, "message {id:?} lists itself as a causal dependency")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Validates a promotion/delivery sequence received from a peer: every
/// identifier must be unique.
pub fn decode_sequence(sequence: &[AppMessage]) -> Result<(), DecodeError> {
    // A promote carries a handful of entries: up to `SHORT` of them a
    // pairwise scan allocates nothing; a longer sequence fills a set.
    const SHORT: usize = 32;
    let mut seen = std::collections::BTreeSet::new();
    for (i, m) in sequence.iter().enumerate() {
        let repeated = if sequence.len() <= SHORT {
            sequence.iter().take(i).any(|earlier| earlier.id == m.id)
        } else {
            !seen.insert(m.id)
        };
        if repeated {
            return Err(DecodeError::DuplicateId(m.id));
        }
    }
    Ok(())
}

/// Validates a single causality-graph node received from a peer.
pub fn decode_node(message: &AppMessage) -> Result<(), DecodeError> {
    if message.deps.contains(&message.id) {
        return Err(DecodeError::SelfDependency(message.id));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_ordering_is_by_origin_then_seq() {
        let a = MsgId::new(ProcessId::new(0), 5);
        let b = MsgId::new(ProcessId::new(1), 1);
        let c = MsgId::new(ProcessId::new(1), 2);
        assert!(a < b && b < c);
        assert_eq!(format!("{a:?}"), "p0#5");
    }

    #[test]
    fn app_message_constructors() {
        let id = MsgId::new(ProcessId::new(1), 1);
        let m = AppMessage::new(id, vec![1, 2, 3]);
        assert!(m.deps.is_empty());
        let dep = MsgId::new(ProcessId::new(0), 1);
        let m2 = AppMessage::with_deps(MsgId::new(ProcessId::new(1), 2), vec![], vec![dep]);
        assert_eq!(*m2.deps, [dep]);
        assert!(format!("{m2:?}").contains("deps"));
    }

    #[test]
    fn etob_broadcast_constructors_assign_ids() {
        let b = EtobBroadcast::new(ProcessId::new(2), 9, b"x".to_vec());
        assert_eq!(b.message.id, MsgId::new(ProcessId::new(2), 9));
        let dep = MsgId::new(ProcessId::new(2), 8);
        let c = EtobBroadcast::with_deps(ProcessId::new(2), 10, b"y".to_vec(), vec![dep]);
        assert_eq!(*c.message.deps, [dep]);
    }

    #[test]
    fn deltas_fold_back_into_the_sequences_they_were_taken_between() {
        let mk = |seq| AppMessage::new(MsgId::new(ProcessId::new(0), seq), vec![seq as u8]);
        let old: Vec<AppMessage> = (1..=4).map(mk).collect();
        assert_eq!(DeliveryDelta::between(&old, &old), None);
        // extension, truncation, and a rewrite from the fork on
        let extended: Vec<AppMessage> = (1..=6).map(mk).collect();
        let forked = vec![mk(1), mk(2), mk(9), mk(3)];
        for (new, keep) in [(&extended, 4), (&old[..2].to_vec(), 2), (&forked, 2)] {
            let delta = DeliveryDelta::between(&old, new).expect("the sequences differ");
            assert_eq!(delta.keep, keep);
            let mut folded = old.clone();
            delta.apply_to(&mut folded);
            assert_eq!(&folded, new);
        }
        // materialising a history replays exactly that, output by output
        let mut history = OutputHistory::new(1);
        let p = ProcessId::new(0);
        for (t, (from, to)) in [(&[][..], &old[..]), (&old[..], &forked[..])]
            .into_iter()
            .enumerate()
        {
            let delta = DeliveryDelta::between(from, to).expect("differ");
            history.record(p, ec_sim::Time::new(t as u64), delta);
        }
        let sequences = materialize(&history);
        assert_eq!(sequences.outputs(p)[0].1, old);
        assert_eq!(sequences.last(p), Some(&forked));
    }

    #[test]
    fn decode_rejects_malformed_peer_input() {
        let id = MsgId::new(ProcessId::new(0), 1);
        let ok = vec![
            AppMessage::new(id, vec![]),
            AppMessage::new(MsgId::new(ProcessId::new(0), 2), vec![]),
        ];
        assert!(decode_sequence(&ok).is_ok());
        let dup = vec![AppMessage::new(id, vec![]), AppMessage::new(id, vec![])];
        assert_eq!(decode_sequence(&dup), Err(DecodeError::DuplicateId(id)));
        // the first id to repeat is reported, by the scan (≤ 32 entries)
        // and by the set: at positions 0 and 5, then a pair that closes
        // inside that one
        let mk = |seq| AppMessage::new(MsgId::new(ProcessId::new(0), seq), vec![]);
        for len in [6, 40] {
            let mut seq: Vec<AppMessage> = (1..=len).map(mk).collect();
            seq[5] = mk(1);
            assert_eq!(decode_sequence(&seq), Err(DecodeError::DuplicateId(id)));
            seq[2] = mk(4);
            assert_eq!(
                decode_sequence(&seq),
                Err(DecodeError::DuplicateId(mk(4).id))
            );
        }
        let selfdep = AppMessage::with_deps(id, vec![], vec![id]);
        assert_eq!(decode_node(&selfdep), Err(DecodeError::SelfDependency(id)));
        assert!(format!("{}", DecodeError::DuplicateId(id)).contains("duplicate"));
        assert!(format!("{}", DecodeError::SelfDependency(id)).contains("dependency"));
    }

    #[test]
    fn either_is_usable_as_a_message_type() {
        let l: Either<u8, &str> = Either::Left(1);
        let r: Either<u8, &str> = Either::Right("m");
        assert_ne!(format!("{l:?}"), format!("{r:?}"));
    }
}
