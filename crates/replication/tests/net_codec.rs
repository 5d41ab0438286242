//! Wire-codec conformance: round-trips for every message type that crosses
//! a `NetEngine` socket, and adversarial decoding.
//!
//! Three layers of guarantees are checked here. **Round-trip**: for
//! arbitrary instances of every wire enum (`EtobMsg`, `TobMsg`, frames),
//! `decode(encode(x)) == x`. **One truth**: what the sim and thread engines
//! charge per message (`Algorithm::wire_size`) is the encoded length, nine
//! bytes short of the socket engine's frame.
//! **Totality**: malformed input of any shape — truncations, random bytes,
//! bad tags, impossible list counts, trailing garbage — yields a typed
//! `DecodeError`, never a panic; and on a live cluster, injected garbage
//! increments the malformed-frame counter while the protocol keeps
//! converging.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ec_core::etob_omega::{CausalGraph, EtobMsg, EtobOmega};
use ec_core::tob_consensus::{ConsensusTob, TobMsg};
use ec_core::types::{AppMessage, MsgId};
use ec_core::version::VersionVector;
use ec_detectors::HeartbeatMsg;
use ec_replication::net::codec::{
    decode_body, frame_bytes, DecodeError, Frame, Reader, WireCodec, MAX_FRAME_BODY,
};
use ec_replication::{Cluster, ClusterBuilder, KvStore, NetEngine, StateMachine};
use ec_sim::{Algorithm, ProcessId};
use proptest::prelude::*;

fn roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(value: &T) {
    let mut bytes = Vec::new();
    value.encode(&mut bytes);
    let mut reader = Reader::new(&bytes);
    let back = T::decode(&mut reader).expect("canonical encoding decodes");
    reader
        .ensure_consumed()
        .expect("decode consumes everything");
    assert_eq!(&back, value);
}

/// Every strict prefix of a canonical encoding must fail with a typed
/// error (decoding reads a fixed layout, so losing tail bytes can only
/// truncate a field or leave a value incomplete — never panic).
fn assert_prefixes_fail<T: WireCodec>(value: &T) {
    let mut bytes = Vec::new();
    value.encode(&mut bytes);
    for cut in 0..bytes.len() {
        let mut reader = Reader::new(&bytes[..cut]);
        let outcome = T::decode(&mut reader).and_then(|_| reader.ensure_consumed());
        assert!(outcome.is_err(), "prefix of {cut} bytes decoded cleanly");
    }
}

fn arb_msg_id() -> impl Strategy<Value = MsgId> {
    (0usize..8, 0u64..1000).prop_map(|(p, seq)| MsgId::new(ProcessId::new(p), seq))
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..24)
}

fn arb_app_message() -> impl Strategy<Value = AppMessage> {
    (
        arb_msg_id(),
        arb_payload(),
        prop::collection::vec(arb_msg_id(), 0..4),
    )
        .prop_map(|(id, payload, deps)| AppMessage::with_deps(id, payload, deps))
}

fn arb_messages() -> impl Strategy<Value = Vec<AppMessage>> {
    prop::collection::vec(arb_app_message(), 0..5)
}

fn arb_version_vector() -> impl Strategy<Value = VersionVector> {
    prop::collection::vec(arb_msg_id(), 0..16).prop_map(|ids| {
        let mut vector = VersionVector::new();
        for id in ids {
            vector.insert(id);
        }
        vector
    })
}

fn arb_graph() -> impl Strategy<Value = CausalGraph> {
    arb_messages().prop_map(|messages| {
        let mut graph = CausalGraph::new();
        for m in messages {
            // duplicate ids are dropped here, matching the canonical form
            let _ = graph.update(m);
        }
        graph
    })
}

fn arb_etob_msg() -> impl Strategy<Value = EtobMsg> {
    (
        any::<u8>(),
        arb_graph(),
        arb_version_vector(),
        arb_messages(),
        0usize..100,
        any::<u64>(),
    )
        .prop_map(
            |(selector, graph, digest, messages, base, hash)| match selector % 6 {
                0 => EtobMsg::Update(graph),
                1 => EtobMsg::Delta {
                    nodes: messages,
                    frontier: digest,
                    delivered: base as u64,
                    hash,
                },
                2 => EtobMsg::SyncRequest { digest },
                3 => EtobMsg::Promote(messages),
                4 => EtobMsg::PromoteDelta {
                    base,
                    prefix_hash: hash,
                    suffix: messages,
                },
                _ => EtobMsg::PromoteRequest,
            },
        )
}

fn arb_tob_msg() -> impl Strategy<Value = TobMsg> {
    (
        any::<u8>(),
        arb_app_message(),
        arb_msg_id(),
        any::<u64>(),
        any::<u64>(),
        arb_messages(),
    )
        .prop_map(|(selector, message, id, a, b, suffix)| match selector % 6 {
            0 => TobMsg::Forward(message),
            1 => TobMsg::Accept { slot: a, message },
            2 => TobMsg::Ack { slot: a, id },
            3 => TobMsg::Heads {
                next_slot: a,
                delivered: b,
            },
            4 => TobMsg::SyncRequest { have: a },
            _ => TobMsg::SyncReply {
                have: a,
                next_deliver_slot: b,
                suffix,
            },
        })
}

proptest! {
    #[test]
    fn etob_messages_roundtrip(msg in arb_etob_msg()) {
        roundtrip(&msg);
        assert_prefixes_fail(&msg);
    }

    #[test]
    fn tob_messages_roundtrip(msg in arb_tob_msg()) {
        roundtrip(&msg);
        assert_prefixes_fail(&msg);
    }

    #[test]
    fn frames_roundtrip_through_the_wire_form(msg in arb_etob_msg(), from in 0usize..8) {
        let frame = Frame::App { from: ProcessId::new(from), msg };
        let wire = frame_bytes(&frame);
        let declared =
            u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize;
        prop_assert_eq!(declared, wire.len() - 4);
        prop_assert_eq!(decode_body::<EtobMsg>(&wire[4..]), Ok(frame));
    }

    #[test]
    fn tob_frames_roundtrip_through_the_wire_form(msg in arb_tob_msg(), from in 0usize..8) {
        let frame = Frame::App { from: ProcessId::new(from), msg };
        let wire = frame_bytes(&frame);
        prop_assert_eq!(decode_body::<TobMsg>(&wire[4..]), Ok(frame));
    }

    /// The byte accounting of every engine is one number: `wire_size` is the
    /// length `encode` produces, and a socket frame adds exactly 9 bytes
    /// (4-byte length prefix + `Frame::App` tag + 4-byte `from`).
    #[test]
    fn wire_size_is_the_encoded_length(
        etob in arb_etob_msg(),
        tob in arb_tob_msg(),
        from in 0usize..8,
    ) {
        let from = ProcessId::new(from);
        let (mut etob_bytes, mut tob_bytes) = (Vec::new(), Vec::new());
        etob.encode(&mut etob_bytes);
        tob.encode(&mut tob_bytes);
        prop_assert_eq!(EtobOmega::wire_size(&etob), etob_bytes.len() as u64);
        prop_assert_eq!(ConsensusTob::wire_size(&tob), tob_bytes.len() as u64);
        prop_assert_eq!(
            frame_bytes(&Frame::App { from, msg: etob }).len(),
            etob_bytes.len() + 9
        );
        prop_assert_eq!(
            frame_bytes(&Frame::App { from, msg: tob }).len(),
            tob_bytes.len() + 9
        );
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // any outcome is fine; reaching the end of the case without a panic
        // is the property
        let _ = decode_body::<EtobMsg>(&bytes);
        let _ = decode_body::<TobMsg>(&bytes);
    }

    #[test]
    fn corrupted_encodings_never_panic_the_decoder(
        msg in arb_etob_msg(),
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut wire = frame_bytes(&Frame::App { from: ProcessId::new(0), msg });
        let position = 4 + at % (wire.len() - 4);
        wire[position] ^= xor;
        // the flip may still decode (e.g. a payload byte) or fail — both
        // are acceptable; panicking or over-reading is not
        let _ = decode_body::<EtobMsg>(&wire[4..]);
    }
}

/// Wire sizes scale with content, not history: a `Delta` is priced by its
/// nodes and its digest *runs* — a contiguous history of any length is one
/// run — so a beacon stays far below a loaded delta, and `PromoteRequest`
/// is its tag byte.
#[test]
fn wire_sizes_scale_with_content_not_history() {
    let node = AppMessage::new(MsgId::new(ProcessId::new(0), 1), vec![0u8; 100]);
    let delta = |nodes: Vec<AppMessage>, history: u64| {
        let mut frontier = VersionVector::new();
        for seq in 1..=history {
            frontier.insert(MsgId::new(ProcessId::new(0), seq));
        }
        EtobOmega::wire_size(&EtobMsg::Delta {
            nodes,
            frontier,
            delivered: history,
            hash: 0,
        })
    };
    assert_eq!(delta(Vec::new(), 1), delta(Vec::new(), 1_000));
    assert_eq!(
        delta(vec![node.clone()], 1),
        delta(vec![node.clone()], 1_000)
    );
    // id (12) + length-prefixed payload (4 + 100) + empty dependency list (4)
    assert_eq!(delta(vec![node.clone()], 1) - delta(Vec::new(), 1), 120);
    assert_eq!(EtobOmega::wire_size(&EtobMsg::PromoteRequest), 1);
    assert_eq!(
        EtobOmega::wire_size(&EtobMsg::Promote(vec![node])),
        1 + 4 + 120
    );
}

#[test]
fn adversarial_corpus_yields_typed_errors() {
    // unknown tags at every enum level
    assert_eq!(
        decode_body::<EtobMsg>(&[99]),
        Err(DecodeError::BadTag {
            context: "Frame",
            tag: 99
        })
    );
    let mut reader = Reader::new(&[77]);
    assert_eq!(
        EtobMsg::decode(&mut reader),
        Err(DecodeError::BadTag {
            context: "EtobMsg",
            tag: 77
        })
    );
    // tag 6 was the compaction `Ack`; its evidence now rides on `Delta`
    let mut retired = vec![6u8];
    retired.extend_from_slice(&[0; 16]);
    assert_eq!(
        EtobMsg::decode(&mut Reader::new(&retired)),
        Err(DecodeError::BadTag {
            context: "EtobMsg",
            tag: 6
        })
    );
    // a delta in the pre-evidence layout (nodes + frontier, nothing after)
    let mut old_delta = vec![1u8];
    old_delta.extend_from_slice(&0u32.to_be_bytes());
    old_delta.extend_from_slice(&0u32.to_be_bytes());
    assert!(matches!(
        EtobMsg::decode(&mut Reader::new(&old_delta)),
        Err(DecodeError::Truncated { .. })
    ));
    let mut reader = Reader::new(&[88]);
    assert_eq!(
        TobMsg::decode(&mut reader),
        Err(DecodeError::BadTag {
            context: "TobMsg",
            tag: 88
        })
    );
    let mut reader = Reader::new(&[1]);
    assert_eq!(
        HeartbeatMsg::decode(&mut reader),
        Err(DecodeError::BadTag {
            context: "HeartbeatMsg",
            tag: 1
        })
    );

    // the empty body
    assert!(matches!(
        decode_body::<EtobMsg>(&[]),
        Err(DecodeError::Truncated { .. })
    ));

    // trailing bytes after a complete StatsRequest frame
    assert_eq!(
        decode_body::<EtobMsg>(&[7, 0, 0]),
        Err(DecodeError::TrailingBytes { remaining: 2 })
    );

    // a promote's message count no input of sane size could satisfy:
    // rejected before allocation, so u32::MAX never turns into a reserve
    // call
    let mut body = vec![1u8, 0, 0, 0, 0, 3];
    body.extend_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(
        decode_body::<EtobMsg>(&body),
        Err(DecodeError::BadLength { .. })
    ));

    // a promote base overflowing the platform's usize still maps to a
    // typed error on 64-bit (where it fits) or BadLength elsewhere; what
    // must hold everywhere is totality over the 8-byte field
    let mut body = vec![1u8, 0, 0, 0, 0, 4];
    body.extend_from_slice(&u64::MAX.to_be_bytes());
    assert!(decode_body::<EtobMsg>(&body).is_err());

    // the cap constant is what the transport enforces per frame
    assert_eq!(MAX_FRAME_BODY, 16 << 20);
}

/// Injecting garbage into live node sockets increments the malformed-frame
/// counter and closes only the offending connections: the cluster still
/// converges, and a clean run counts zero. No connection can reach what
/// the facade does in-process: a retired `Crash` frame is malformed and
/// stops nobody, and a hello with the old driver id takes no outputs.
#[test]
fn live_nodes_count_malformed_frames_and_keep_converging() {
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(3).deploy(&NetEngine::default());
    assert_eq!(cluster.malformed_frames(), 0);
    let addr_of = |p: usize| {
        cluster
            .node_addr(ProcessId::new(p))
            .expect("the net engine exposes node addresses")
    };
    let (addr, addr_p1) = (addr_of(0), addr_of(1));

    // connection 1: no Hello at all — an unknown tag right away
    let mut garbage = TcpStream::connect(addr).expect("dial node");
    garbage
        .write_all(&[0, 0, 0, 1, 99])
        .expect("write bad frame");

    // connection 2: a valid Hello, then a truncated body
    let mut truncating = TcpStream::connect(addr).expect("dial node");
    truncating
        .write_all(&[0, 0, 0, 5, 0, 0, 0, 0, 7])
        .expect("write hello");
    truncating
        .write_all(&[0, 0, 0, 3, 1, 0, 0])
        .expect("write truncated frame");

    // connection 3: an oversized length prefix, rejected before allocation
    let mut oversized = TcpStream::connect(addr).expect("dial node");
    oversized
        .write_all(&u32::MAX.to_be_bytes())
        .expect("write oversized prefix");

    // connection 4: a peer hello at p1, then the 1-byte body of tag 5, the
    // retired `Crash` frame
    let mut crashing = TcpStream::connect(addr_p1).expect("dial node");
    let hello = |from: u32| frame_bytes::<EtobMsg>(&Frame::Hello { from });
    crashing.write_all(&hello(0)).expect("write hello");
    crashing
        .write_all(&[0, 0, 0, 1, 5])
        .expect("write retired frame");

    // connection 5: a hello at p0 with the old driver id, held open
    let mut held = TcpStream::connect(addr).expect("dial node");
    held.write_all(&hello(u32::MAX)).expect("write hello");
    held.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set a read timeout");

    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.malformed_frames() < 4 {
        assert!(
            Instant::now() < deadline,
            "only {} of 4 malformed frames were counted",
            cluster.malformed_frames()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // the protocol connections are unaffected: every replica applies the
    // put, p1 included
    let mut session = cluster.session();
    cluster.submit(&mut session, KvStore::put("k", "v"), 10);
    assert!(
        cluster.run_until_applied(1, 10_000),
        "cluster stopped converging after malformed input"
    );
    let applied: Vec<usize> = (0..3).map(|p| cluster.applied(ProcessId::new(p))).collect();
    assert_eq!(applied, [1, 1, 1]);

    // p0's outputs went to the facade, not down the held connection
    let mut buf = [0u8; 64];
    match held.read(&mut buf) {
        Ok(0) => {}
        Ok(read) => panic!("the held connection read {read} bytes"),
        Err(err) => assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "unexpected read error: {err}"
        ),
    }

    let report = cluster.finish();
    assert!(report.shards[0].snapshots_agree());

    let mut expected = KvStore::default();
    expected.apply(&KvStore::put("k", "v"));
    assert_eq!(report.shards[0].snapshots[0], expected.snapshot());
}
