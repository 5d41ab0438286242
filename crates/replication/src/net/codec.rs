//! The hand-rolled wire codec of the socket engine.
//!
//! Every frame on a [`crate::NetEngine`] connection is a **u32 big-endian
//! length prefix** followed by a **tagged body**: one tag byte selecting the
//! [`Frame`] variant, then the variant's fields in declaration order. All
//! integers are big-endian; byte strings and lists carry a u32 length/count
//! prefix. The format is dependency-free by design — the paper's wire enums
//! ([`ec_core::EtobMsg`], [`ec_core::TobMsg`], heartbeats) serialize through
//! the same [`WireCodec`] trait the frame layer uses, so what crosses the
//! TCP boundary is exactly the protocol state the simulator models.
//!
//! Decoding is *total*: malformed input of any shape yields a typed
//! [`DecodeError`], never a panic, never an unbounded allocation (list
//! counts are validated against the bytes actually present, and a frame
//! body is capped at [`MAX_FRAME_BODY`]). Non-canonical encodings — digest
//! runs out of order, duplicate graph nodes — are rejected rather than
//! repaired, so `decode(encode(x)) == x` and *only* encodings produced by
//! [`WireCodec::encode`] are accepted.
//!
//! The codec *core* — [`Reader`], [`DecodeError`], the [`WireCodec`] trait
//! and the push/read helpers — lives in [`ec_storage::codec`] so the
//! durable record log decodes through the same machinery, and the
//! protocol-type implementations live next to the types they encode
//! ([`ec_core::wire`], `ec_detectors::heartbeat`). This module re-exports
//! the core under the original paths and keeps only the engine-local frame
//! layer: [`Frame`] and the length-prefix assembly.

use ec_detectors::HeartbeatMsg;
use ec_sim::ProcessId;

use ec_storage::codec::{push_bytes, push_u32, push_u8, Sink};
pub use ec_storage::codec::{DecodeError, Reader, WireCodec};

/// Upper bound on the body length of a single frame (16 MiB). A length
/// prefix above this is rejected before any allocation happens, so a
/// hostile or corrupted prefix cannot make a reader reserve gigabytes.
pub const MAX_FRAME_BODY: usize = 16 << 20;

/// The `from` value a metrics scraper announces in its [`Frame::Hello`]:
/// it is no replica, and its connection only ever carries one
/// [`Frame::StatsRequest`] and its [`Frame::StatsText`] reply.
pub const SCRAPER: u32 = u32::MAX - 1;

/// One frame body of the socket engine, generic over the broadcast-layer
/// message type `M` ([`ec_core::EtobMsg`] or [`ec_core::TobMsg`]). Peer
/// connections carry `App` and `Heartbeat`, a scrape connection one
/// `StatsRequest` and its `StatsText` reply; every connection opens with a
/// `Hello`. Tags 3–6 are retired and decode to [`DecodeError::BadTag`]: the
/// facade reaches nodes in-process, so no frame carries its inputs,
/// crashes, shutdowns or outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame<M> {
    /// Connection preamble: who is dialing (a replica index, or
    /// [`SCRAPER`]).
    Hello {
        /// The dialer's replica index, or [`SCRAPER`] for a scrape.
        from: u32,
    },
    /// A broadcast-layer protocol message between replicas.
    App {
        /// The sending replica.
        from: ProcessId,
        /// The protocol message.
        msg: M,
    },
    /// A failure-detector heartbeat between replicas (same connections as
    /// `App` traffic — the Ω plumbing rides the one mesh).
    Heartbeat {
        /// The sending replica.
        from: ProcessId,
        /// The heartbeat message.
        msg: HeartbeatMsg,
    },
    /// Scraper → replica: ask for the node's current telemetry in text
    /// exposition form. Answered with [`Frame::StatsText`] on the same
    /// connection.
    StatsRequest,
    /// Replica → scraper: the UTF-8 text metrics exposition of the node's
    /// live telemetry recorder.
    StatsText(
        /// The exposition bytes (UTF-8 text, one metric per line).
        Vec<u8>,
    ),
}

impl<M: WireCodec> WireCodec for Frame<M> {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            Frame::Hello { from } => {
                push_u8(out, 0);
                push_u32(out, *from);
            }
            Frame::App { from, msg } => {
                push_u8(out, 1);
                push_u32(out, from.index() as u32);
                msg.encode(out);
            }
            Frame::Heartbeat { from, msg } => {
                push_u8(out, 2);
                push_u32(out, from.index() as u32);
                msg.encode(out);
            }
            Frame::StatsRequest => push_u8(out, 7),
            Frame::StatsText(text) => {
                push_u8(out, 8);
                push_bytes(out, text);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(Frame::Hello {
                from: r.read_u32()?,
            }),
            1 => Ok(Frame::App {
                from: ProcessId::new(r.read_u32()? as usize),
                msg: M::decode(r)?,
            }),
            2 => Ok(Frame::Heartbeat {
                from: ProcessId::new(r.read_u32()? as usize),
                msg: HeartbeatMsg::decode(r)?,
            }),
            7 => Ok(Frame::StatsRequest),
            8 => Ok(Frame::StatsText(r.read_bytes()?.to_vec())),
            tag => Err(DecodeError::BadTag {
                context: "Frame",
                tag,
            }),
        }
    }
}

/// Encodes a frame body (without the length prefix).
pub fn encode_body<M: WireCodec>(frame: &Frame<M>) -> Vec<u8> {
    let mut out = Vec::new();
    frame.encode(&mut out);
    out
}

/// Decodes a complete frame body (as read off the wire after the length
/// prefix), requiring every byte to be consumed.
pub fn decode_body<M: WireCodec>(body: &[u8]) -> Result<Frame<M>, DecodeError> {
    let mut reader = Reader::new(body);
    let frame = Frame::<M>::decode(&mut reader)?;
    reader.ensure_consumed()?;
    Ok(frame)
}

/// Assembles the on-wire bytes of a frame: u32 big-endian length prefix
/// followed by the body.
pub fn frame_bytes<M: WireCodec>(frame: &Frame<M>) -> Vec<u8> {
    let body = encode_body(frame);
    let mut wire = Vec::with_capacity(4 + body.len());
    push_u32(&mut wire, body.len() as u32);
    wire.extend_from_slice(&body);
    wire
}

/// Encodes a [`Frame::Hello`] body directly: the preamble's layout does not
/// depend on the message type `M`, so connection setup code can emit it
/// without committing to one.
pub fn hello_body(from: u32) -> Vec<u8> {
    let mut out = vec![0u8];
    push_u32(&mut out, from);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::etob_omega::{CausalGraph, EtobMsg};
    use ec_core::types::{AppMessage, MsgId};
    use ec_core::version::VersionVector;
    use ec_storage::codec::push_u64;
    use std::fmt;

    fn id(p: usize, seq: u64) -> MsgId {
        MsgId::new(ProcessId::new(p), seq)
    }

    fn roundtrip<T: WireCodec + PartialEq + fmt::Debug>(value: &T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let mut reader = Reader::new(&bytes);
        let back = T::decode(&mut reader).expect("decodes");
        reader.ensure_consumed().expect("fully consumed");
        assert_eq!(&back, value);
    }

    #[test]
    fn primitives_and_messages_roundtrip() {
        roundtrip(&id(3, 17));
        roundtrip(&AppMessage::with_deps(
            id(1, 2),
            b"payload".to_vec(),
            vec![id(0, 1), id(2, 9)],
        ));
        roundtrip(&AppMessage::new(id(0, 0), Vec::new()));
        let mut vector = VersionVector::new();
        vector.insert(id(0, 1));
        vector.insert(id(0, 2));
        vector.insert(id(2, 7));
        roundtrip(&vector);
        roundtrip(&VersionVector::new());
        let mut graph = CausalGraph::new();
        graph.update(AppMessage::new(id(0, 1), b"a".to_vec()));
        graph.update(AppMessage::with_deps(
            id(1, 1),
            b"b".to_vec(),
            vec![id(0, 1)],
        ));
        roundtrip(&graph);
        roundtrip(&HeartbeatMsg::Heartbeat);
    }

    #[test]
    fn frames_roundtrip_through_the_wire_form() {
        let frame: Frame<EtobMsg> = Frame::App {
            from: ProcessId::new(1),
            msg: EtobMsg::PromoteDelta {
                base: 3,
                prefix_hash: 0xDEAD_BEEF,
                suffix: vec![AppMessage::new(id(1, 4), b"x".to_vec())],
            },
        };
        let wire = frame_bytes(&frame);
        let declared = u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize;
        assert_eq!(declared, wire.len() - 4);
        assert_eq!(decode_body::<EtobMsg>(&wire[4..]), Ok(frame));
    }

    #[test]
    fn malformed_bodies_yield_typed_errors() {
        // unknown frame tag
        assert_eq!(
            decode_body::<EtobMsg>(&[99]),
            Err(DecodeError::BadTag {
                context: "Frame",
                tag: 99
            })
        );
        // truncated Hello
        assert!(matches!(
            decode_body::<EtobMsg>(&[0, 1, 2]),
            Err(DecodeError::Truncated { .. })
        ));
        // the retired driver control tags (Input, Output, Crash, Shutdown)
        for tag in 3..=6 {
            assert_eq!(
                decode_body::<EtobMsg>(&[tag]),
                Err(DecodeError::BadTag {
                    context: "Frame",
                    tag
                })
            );
        }
        // trailing garbage after a complete StatsRequest frame
        assert_eq!(
            decode_body::<EtobMsg>(&[7, 0]),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
        // a list count no remaining input could satisfy
        let mut body = vec![1u8]; // App
        body.extend_from_slice(&0u32.to_be_bytes()); // from p0
        body.push(3); // Promote
        body.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd message count
        assert!(matches!(
            decode_body::<EtobMsg>(&body),
            Err(DecodeError::BadLength { .. })
        ));
        // errors render
        for err in [
            DecodeError::Truncated {
                needed: 4,
                available: 1,
            },
            DecodeError::TrailingBytes { remaining: 2 },
            DecodeError::BadTag {
                context: "Frame",
                tag: 7,
            },
            DecodeError::BadLength {
                context: "list",
                value: 9,
            },
            DecodeError::Oversized { declared: 1 << 40 },
            DecodeError::Invalid { context: "runs" },
        ] {
            assert!(!format!("{err}").is_empty());
            assert!(!format!("{err:?}").is_empty());
        }
    }

    #[test]
    fn non_canonical_digests_and_graphs_are_rejected() {
        // digest with descending origins
        let mut body = Vec::new();
        push_u32(&mut body, 2); // two origins
        for origin in [5u32, 1] {
            push_u32(&mut body, origin);
            push_u32(&mut body, 1); // one run
            push_u64(&mut body, 1);
            push_u64(&mut body, 2);
        }
        let mut reader = Reader::new(&body);
        assert_eq!(
            VersionVector::decode(&mut reader),
            Err(DecodeError::Invalid {
                context: "digest origins must be strictly ascending",
            })
        );
        // duplicate graph node
        let mut body = Vec::new();
        push_u32(&mut body, 2);
        for _ in 0..2 {
            AppMessage::new(id(0, 1), b"dup".to_vec()).encode(&mut body);
        }
        let mut reader = Reader::new(&body);
        assert_eq!(
            CausalGraph::decode(&mut reader),
            Err(DecodeError::Invalid {
                context: "duplicate graph node",
            })
        );
    }
}
