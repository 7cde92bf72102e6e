//! Hostile-input fuzzing of the wire-protocol decoder.
//!
//! A networked server must survive anything a byte stream can carry:
//! truncated frames, oversized length prefixes, garbage opcodes,
//! bit-flipped valid frames, pure noise. Every property here asserts
//! the same contract — `Frame::decode` / `Frame::read_from` return
//! `Err` (or a clean `Ok`) but **never panic, hang, or allocate
//! unboundedly**.

use hipac_common::{TxnId, Value};
use hipac_net::proto::{Command, Frame, PushEvent, Reply, RequestMeta, WireError, MAX_FRAME};
use hipac_net::FrameReader;
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Cursor, Read};

/// Representative valid frames covering all three frame kinds and a
/// spread of command/reply shapes.
fn sample_frames() -> Vec<Frame> {
    let mut args = HashMap::new();
    args.insert("price".to_string(), Value::from(50.0));
    vec![
        Frame::Request {
            id: 1,
            meta: RequestMeta::default(),
            command: Command::Ping { version: 1 },
        },
        Frame::Request {
            id: u64::MAX,
            meta: RequestMeta {
                client_id: 0xDEAD_BEEF,
                seq: 42,
                deadline_ms: 1_500,
            },
            command: Command::Begin,
        },
        Frame::Request {
            id: 7,
            meta: RequestMeta::default(),
            command: Command::Insert {
                txn: TxnId(3),
                class: "stock".into(),
                values: vec![Value::from("XRX"), Value::from(48.0), Value::Null],
            },
        },
        Frame::Request {
            id: 8,
            meta: RequestMeta {
                client_id: 9,
                seq: u64::MAX,
                deadline_ms: 0,
            },
            command: Command::Query {
                txn: TxnId(3),
                text: "from stock where new.price >= 50.0".into(),
                params: HashMap::from([("p".to_string(), Value::from(1))]),
            },
        },
        Frame::Response {
            id: 7,
            reply: Reply::Object(hipac_common::ObjectId(42)),
        },
        Frame::Response {
            id: 9,
            reply: Reply::Err {
                kind: "Deadlock".into(),
                message: "txn#9 chosen as victim".into(),
            },
        },
        Frame::Push(PushEvent {
            seq: 3,
            handler: "trader".into(),
            request: "buy".into(),
            args,
        }),
    ]
}

/// Strip the 4-byte length prefix off an encoded frame.
fn payload_of(frame: &Frame) -> Vec<u8> {
    frame.encode()[4..].to_vec()
}

#[test]
fn sample_frames_roundtrip() {
    for frame in sample_frames() {
        let payload = payload_of(&frame);
        assert_eq!(Frame::decode(&payload).unwrap(), frame);
        let mut cursor = Cursor::new(frame.encode());
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(frame));
    }
}

/// Every strict prefix of a valid payload must be rejected (the
/// decoder demands exact consumption), and no prefix may panic.
#[test]
fn every_truncation_of_every_sample_frame_errors() {
    for frame in sample_frames() {
        let payload = payload_of(&frame);
        for cut in 0..payload.len() {
            let truncated = &payload[..cut];
            assert!(
                Frame::decode(truncated).is_err(),
                "decode accepted a {cut}-byte prefix of {frame:?}"
            );
        }
        // Stream truncation: cutting anywhere inside the wire bytes is
        // either a clean EOF at the boundary (cut == 0) or an error —
        // never a parsed frame, never a panic.
        let wire = frame.encode();
        for cut in 0..wire.len() {
            let mut cursor = Cursor::new(wire[..cut].to_vec());
            match Frame::read_from(&mut cursor) {
                Ok(None) if cut == 0 => {}
                Ok(other) => panic!("{cut}-byte prefix parsed as {other:?}"),
                Err(_) => {}
            }
        }
    }
}

/// Length prefixes beyond `MAX_FRAME` are rejected before any payload
/// read; the hostile length never drives an allocation.
#[test]
fn oversized_length_prefixes_are_rejected_up_front() {
    for len in [
        MAX_FRAME as u64 + 1,
        u64::from(u32::MAX),
        0x2000_0000,
        0xFFFF_FFF0,
    ] {
        let mut wire = (len as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]); // a few bytes, nowhere near `len`
        let mut cursor = Cursor::new(wire);
        match Frame::read_from(&mut cursor) {
            Err(WireError::Protocol(msg)) => {
                assert!(msg.contains("exceeds cap"), "wrong rejection: {msg}")
            }
            other => panic!("oversized length {len} produced {other:?}"),
        }
    }
}

/// Unknown opcodes (23..=255, past `Auth`) and unknown frame kinds
/// (4..=255, past the repl stream kind) must error cleanly
/// whatever bytes follow them.
#[test]
fn garbage_opcodes_and_kinds_error() {
    for op in 23..=255u8 {
        // kind 0 (request), id 1, zeroed request meta, then the bad
        // opcode and some body.
        let payload = vec![0u8, 1, 0, 0, 0, op, 0xDE, 0xAD, 0xBE, 0xEF];
        match Frame::decode(&payload) {
            Err(WireError::Protocol(_)) => {}
            other => panic!("opcode {op} produced {other:?}"),
        }
    }
    for kind in 4..=255u8 {
        let payload = vec![kind, 1, 2, 3];
        match Frame::decode(&payload) {
            Err(WireError::Protocol(_)) => {}
            other => panic!("frame kind {kind} produced {other:?}"),
        }
    }
}

/// Every frame `FrameReader` yields from `src`, and the error that
/// ends the stream. Between reads the bytes are parked and unparked,
/// as a reactor shard does between its turns on a connection.
fn read_through(mut src: impl Read) -> (Vec<Frame>, WireError) {
    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    loop {
        match reader.poll(&mut src) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => {}
            Err(e) => return (frames, e),
        }
        let rest = reader.park();
        reader.unpark(rest);
    }
}

/// Every sample frame, and a burst of all of them, split into two reads
/// at every byte boundary: the reader yields exactly the frames sent,
/// in order, then reports EOF at a frame boundary.
#[test]
fn frame_reader_reassembles_every_split() {
    let frames = sample_frames();
    let burst: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
    let mut cases: Vec<(Vec<u8>, Vec<Frame>)> =
        frames.iter().map(|f| (f.encode(), vec![f.clone()])).collect();
    cases.push((burst, frames));
    for (wire, want) in cases {
        for cut in 0..=wire.len() {
            let (got, end) = read_through((&wire[..cut]).chain(&wire[cut..]));
            assert_eq!(got, want, "split at {cut}");
            assert!(matches!(end, WireError::Io(_)), "split at {cut}: {end:?}");
        }
    }
}

/// EOF inside a length prefix or a payload is a protocol error, never
/// a frame and never the clean EOF reported at a frame boundary.
#[test]
fn frame_reader_eof_inside_a_frame_errors() {
    let first = sample_frames()[0].encode();
    for frame in sample_frames() {
        let wire = frame.encode();
        for cut in 1..wire.len() {
            let (got, end) = read_through((&first[..]).chain(&wire[..cut]));
            assert_eq!(got.len(), 1, "cut at {cut}: only the whole frame");
            assert!(matches!(end, WireError::Protocol(_)), "cut at {cut}: {end:?}");
        }
    }
}

/// An oversize prefix is refused before any payload is read.
#[test]
fn frame_reader_refuses_an_oversize_prefix() {
    let mut wire = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 16]);
    match read_through(&wire[..]) {
        (got, WireError::Protocol(msg)) if got.is_empty() => {
            assert!(msg.contains("exceeds cap"), "wrong rejection: {msg}")
        }
        other => panic!("oversize prefix produced {other:?}"),
    }
}

/// A frame larger than the reader's 64 KiB buffer is reassembled
/// whole, and the frame behind it still reads.
#[test]
fn frame_reader_grows_for_a_frame_larger_than_its_buffer() {
    let big = Frame::Request {
        id: 1,
        meta: RequestMeta::default(),
        command: Command::Insert {
            txn: TxnId(1),
            class: "blob".into(),
            values: vec![Value::from("x".repeat(200 * 1024))],
        },
    };
    let small = sample_frames()[0].clone();
    let wire: Vec<u8> = [big.encode(), small.encode()].concat();
    let (got, end) = read_through(&wire[..]);
    assert_eq!(got, vec![big, small]);
    assert!(matches!(end, WireError::Io(_)), "{end:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure noise: arbitrary payload bytes never panic the decoder.
    #[test]
    fn random_payloads_never_panic(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::decode(&payload);
    }

    /// Noise shaped like a frame: a valid kind byte followed by random
    /// bytes still never panics.
    #[test]
    fn random_bodies_under_valid_kinds_never_panic(
        kind in 0u8..3,
        body in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut payload = vec![kind];
        payload.extend_from_slice(&body);
        let _ = Frame::decode(&payload);
    }

    /// Random byte streams through the framed reader: any outcome but a
    /// panic, and the reader never spins forever (Cursor is finite).
    #[test]
    fn random_streams_never_panic(wire in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut cursor = Cursor::new(wire);
        while let Ok(Some(_)) = Frame::read_from(&mut cursor) {}
    }

    /// Bit-flip fuzzing: corrupting one byte of a valid payload either
    /// still decodes (the flip hit a don't-care bit such as a value in
    /// an id) or errors — never a panic.
    #[test]
    fn single_byte_corruption_never_panics(
        which in 0usize..7,
        offset in any::<u16>(),
        flip in 1u8..255,
    ) {
        let frames = sample_frames();
        let mut payload = payload_of(&frames[which % frames.len()]);
        if !payload.is_empty() {
            let at = offset as usize % payload.len();
            payload[at] ^= flip;
            let _ = Frame::decode(&payload);
        }
    }

    /// Truncation fuzzing across random cut points of random sample
    /// frames (denser than the exhaustive loop for wire-level reads).
    #[test]
    fn random_truncations_never_panic(which in 0usize..7, cut in any::<u16>()) {
        let frames = sample_frames();
        let wire = frames[which % frames.len()].encode();
        let cut = cut as usize % wire.len();
        let mut cursor = Cursor::new(wire[..cut].to_vec());
        let _ = Frame::read_from(&mut cursor);
    }
}
