//! [`WireCodec`] implementations for the protocol types — the single binary
//! encoding used both by the socket engine's frames
//! (`ec-replication::net::codec`) and by the durable record log
//! (`ec-storage::log`).
//!
//! All integers are big-endian; byte strings and lists carry a u32
//! length/count prefix. Decoding is total and canonical-only: every
//! malformed or non-canonical input maps to a typed
//! [`DecodeError`] (digest runs out of order, duplicate
//! graph nodes, duplicate digest origins are *rejected*, not repaired), so
//! `decode(encode(x)) == x` and only encodings produced by
//! [`WireCodec::encode`] are accepted.

use ec_sim::ProcessId;
use ec_storage::codec::{push_bytes, push_u32, push_u64, push_u8, read_usize};
use ec_storage::{DecodeError, Reader, Sink, WireCodec};

use crate::etob_omega::{CausalGraph, EtobMsg};
use crate::tob_consensus::TobMsg;
use crate::types::{AppMessage, MsgId, Payload};
use crate::version::{SeqRanges, VersionVector};

/// Encoded [`MsgId`] size — the `min_elem` bound for dependency lists.
pub const MSG_ID_BYTES: usize = 12;
/// Minimal encoded [`AppMessage`] size (id + empty payload + empty deps).
pub const APP_MESSAGE_BYTES: usize = MSG_ID_BYTES + 4 + 4;

impl WireCodec for MsgId {
    fn encode<S: Sink>(&self, out: &mut S) {
        push_u32(out, self.origin.index() as u32);
        push_u64(out, self.seq);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let origin = ProcessId::new(r.read_u32()? as usize);
        let seq = r.read_u64()?;
        Ok(MsgId::new(origin, seq))
    }
}

impl WireCodec for AppMessage {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.id.encode(out);
        push_bytes(out, self.payload.as_ref());
        push_u32(out, self.deps.len() as u32);
        for dep in self.deps.iter() {
            dep.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let id = MsgId::decode(r)?;
        let payload: Payload = r.read_bytes()?.into();
        let count = r.read_count(MSG_ID_BYTES, "dependency list")?;
        let mut deps = Vec::with_capacity(count);
        for _ in 0..count {
            deps.push(MsgId::decode(r)?);
        }
        Ok(AppMessage {
            id,
            payload,
            deps: deps.into(),
        })
    }
}

/// Encodes a count-prefixed message list.
pub fn encode_messages<S: Sink>(out: &mut S, messages: &[AppMessage]) {
    push_u32(out, messages.len() as u32);
    for m in messages {
        m.encode(out);
    }
}

/// Decodes a count-prefixed message list.
pub fn decode_messages(r: &mut Reader<'_>) -> Result<Vec<AppMessage>, DecodeError> {
    let count = r.read_count(APP_MESSAGE_BYTES, "message list")?;
    let mut messages = Vec::with_capacity(count);
    for _ in 0..count {
        messages.push(AppMessage::decode(r)?);
    }
    Ok(messages)
}

impl WireCodec for SeqRanges {
    fn encode<S: Sink>(&self, out: &mut S) {
        push_u32(out, self.runs().len() as u32);
        for &(lo, hi) in self.runs() {
            push_u64(out, lo);
            push_u64(out, hi);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = r.read_count(16, "digest run list")?;
        let mut runs = Vec::with_capacity(count);
        for _ in 0..count {
            let lo = r.read_u64()?;
            let hi = r.read_u64()?;
            runs.push((lo, hi));
        }
        SeqRanges::from_runs(runs).ok_or(DecodeError::Invalid {
            context: "digest runs must be ascending and maximal",
        })
    }
}

impl WireCodec for VersionVector {
    fn encode<S: Sink>(&self, out: &mut S) {
        push_u32(out, self.entries().count() as u32);
        for (origin, ranges) in self.entries() {
            push_u32(out, origin.index() as u32);
            ranges.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // origin id (4) + run count (4) + at least one run (16)
        let count = r.read_count(24, "digest origin list")?;
        let mut vector = VersionVector::new();
        let mut prev: Option<usize> = None;
        for _ in 0..count {
            let origin = r.read_u32()? as usize;
            if prev.is_some_and(|p| p >= origin) {
                return Err(DecodeError::Invalid {
                    context: "digest origins must be strictly ascending",
                });
            }
            prev = Some(origin);
            let ranges = SeqRanges::decode(r)?;
            if ranges.is_empty() {
                return Err(DecodeError::Invalid {
                    context: "digest entries must be non-empty",
                });
            }
            vector.insert_ranges(ProcessId::new(origin), &ranges);
        }
        Ok(vector)
    }
}

impl WireCodec for CausalGraph {
    // Only the node list crosses the wire: the causal edges are exactly
    // `{(dep, id)}` over the nodes' declared dependencies and the digest is
    // a pure function of the node identifiers, so the receiver rebuilds
    // both — cheaper than shipping them, and impossible to desynchronize.
    fn encode<S: Sink>(&self, out: &mut S) {
        push_u32(out, self.len() as u32);
        for m in self.messages() {
            m.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = r.read_count(APP_MESSAGE_BYTES, "graph node list")?;
        let mut graph = CausalGraph::new();
        for _ in 0..count {
            let message = AppMessage::decode(r)?;
            if !graph.update(message) {
                return Err(DecodeError::Invalid {
                    context: "duplicate graph node",
                });
            }
        }
        Ok(graph)
    }
}

impl WireCodec for EtobMsg {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            EtobMsg::Update(graph) => {
                push_u8(out, 0);
                graph.encode(out);
            }
            EtobMsg::Delta {
                nodes,
                frontier,
                delivered,
                hash,
            } => {
                push_u8(out, 1);
                encode_messages(out, nodes);
                frontier.encode(out);
                push_u64(out, *delivered);
                push_u64(out, *hash);
            }
            EtobMsg::SyncRequest { digest } => {
                push_u8(out, 2);
                digest.encode(out);
            }
            EtobMsg::Promote(sequence) => {
                push_u8(out, 3);
                encode_messages(out, sequence);
            }
            EtobMsg::PromoteDelta {
                base,
                prefix_hash,
                suffix,
            } => {
                push_u8(out, 4);
                push_u64(out, *base as u64);
                push_u64(out, *prefix_hash);
                encode_messages(out, suffix);
            }
            EtobMsg::PromoteRequest => push_u8(out, 5),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(EtobMsg::Update(CausalGraph::decode(r)?)),
            1 => Ok(EtobMsg::Delta {
                nodes: decode_messages(r)?,
                frontier: VersionVector::decode(r)?,
                delivered: r.read_u64()?,
                hash: r.read_u64()?,
            }),
            2 => Ok(EtobMsg::SyncRequest {
                digest: VersionVector::decode(r)?,
            }),
            3 => Ok(EtobMsg::Promote(decode_messages(r)?)),
            4 => Ok(EtobMsg::PromoteDelta {
                base: read_usize(r, "promote base")?,
                prefix_hash: r.read_u64()?,
                suffix: decode_messages(r)?,
            }),
            5 => Ok(EtobMsg::PromoteRequest),
            tag => Err(DecodeError::BadTag {
                context: "EtobMsg",
                tag,
            }),
        }
    }
}

impl WireCodec for TobMsg {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            TobMsg::Forward(message) => {
                push_u8(out, 0);
                message.encode(out);
            }
            TobMsg::Accept { slot, message } => {
                push_u8(out, 1);
                push_u64(out, *slot);
                message.encode(out);
            }
            TobMsg::Ack { slot, id } => {
                push_u8(out, 2);
                push_u64(out, *slot);
                id.encode(out);
            }
            TobMsg::Heads {
                next_slot,
                delivered,
            } => {
                push_u8(out, 3);
                push_u64(out, *next_slot);
                push_u64(out, *delivered);
            }
            TobMsg::SyncRequest { have } => {
                push_u8(out, 4);
                push_u64(out, *have);
            }
            TobMsg::SyncReply {
                have,
                next_deliver_slot,
                suffix,
            } => {
                push_u8(out, 5);
                push_u64(out, *have);
                push_u64(out, *next_deliver_slot);
                encode_messages(out, suffix);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(TobMsg::Forward(AppMessage::decode(r)?)),
            1 => Ok(TobMsg::Accept {
                slot: r.read_u64()?,
                message: AppMessage::decode(r)?,
            }),
            2 => Ok(TobMsg::Ack {
                slot: r.read_u64()?,
                id: MsgId::decode(r)?,
            }),
            3 => Ok(TobMsg::Heads {
                next_slot: r.read_u64()?,
                delivered: r.read_u64()?,
            }),
            4 => Ok(TobMsg::SyncRequest {
                have: r.read_u64()?,
            }),
            5 => Ok(TobMsg::SyncReply {
                have: r.read_u64()?,
                next_deliver_slot: r.read_u64()?,
                suffix: decode_messages(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                context: "TobMsg",
                tag,
            }),
        }
    }
}
