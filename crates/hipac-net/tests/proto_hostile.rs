//! Hostile-input fuzzing of the wire-protocol decoder.
//!
//! A networked server must survive anything a byte stream can carry:
//! truncated frames, oversized length prefixes, garbage opcodes,
//! bit-flipped valid frames, pure noise. Every property here asserts
//! the same contract — `Frame::decode` / `Frame::read_from` return
//! `Err` (or a clean `Ok`) but **never panic, hang, or allocate
//! unboundedly**.

mod golden;

use hipac_common::codec::put_uvarint;
use hipac_common::{TxnId, Value};
use hipac_net::proto::{
    Command, Frame, RequestMeta, WireAttr, WireError, MAX_FRAME, PROTOCOL_VERSION,
};
use hipac_net::FrameReader;
use proptest::prelude::*;
use std::io::{Cursor, Read};

/// Every golden frame: each frame kind, command, reply and replication
/// message (`tests/golden/mod.rs`).
fn sample_frames() -> Vec<Frame> {
    golden::golden_frames().into_iter().map(|(f, _)| f).collect()
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

/// Unknown opcodes (past the last declared one, `Auth`) and unknown
/// frame kinds (past the repl stream kind) must error cleanly whatever
/// bytes follow them.
#[test]
fn garbage_opcodes_and_kinds_error() {
    for op in Command::WIRE_TAGS.len() as u8..=255 {
        // kind 0 (request), id 1, zeroed request meta, then the bad
        // opcode and some body.
        let payload = vec![0u8, 1, 0, 0, 0, op, 0xDE, 0xAD, 0xBE, 0xEF];
        match Frame::decode(&payload) {
            Err(WireError::Protocol(_)) => {}
            other => panic!("opcode {op} produced {other:?}"),
        }
    }
    for kind in Frame::WIRE_TAGS.len() as u8..=255 {
        let payload = vec![kind, 1, 2, 3];
        match Frame::decode(&payload) {
            Err(WireError::Protocol(_)) => {}
            other => panic!("frame kind {kind} produced {other:?}"),
        }
    }
}

/// A request frame's payload: kind 0, id 1, zeroed metadata, then
/// `body` (an opcode and its fields).
fn request_payload(body: &[u8]) -> Vec<u8> {
    [&[0u8, 1, 0, 0, 0][..], body].concat()
}

/// A `u32` field (`Ping.version`, `Pong.version`) past `u32::MAX` is a
/// protocol error, not the value modulo 2^32: a `Ping` offering
/// `2^32 + PROTOCOL_VERSION` must not read as this build's version.
#[test]
fn u32_fields_past_u32_max_are_rejected() {
    let big = (1u64 << 32) + u64::from(PROTOCOL_VERSION);
    let mut ping = vec![0u8]; // opcode Ping
    put_uvarint(&mut ping, big);
    let mut pong = vec![1u8, 1, 1]; // kind Response, id 1, status Pong
    put_uvarint(&mut pong, big);
    for payload in [request_payload(&ping), pong] {
        match Frame::decode(&payload) {
            Err(WireError::Protocol(_)) => {}
            other => panic!("{payload:x?} produced {other:?}"),
        }
    }
}

/// `CreateClass` packs an attribute's `nullable` and `indexed` into bits
/// 0 and 1 of one flag byte; a flag byte with any higher bit set is a
/// protocol error, not a flag pair with the extra bits ignored.
#[test]
fn attribute_flag_bits_above_bit_1_are_rejected() {
    let frame = Frame::Request {
        id: 1,
        meta: RequestMeta::default(),
        command: Command::CreateClass {
            txn: TxnId(1),
            name: "c".into(),
            superclass: None,
            attrs: vec![WireAttr {
                name: "a".into(),
                ty: 2,
                nullable: true,
                indexed: true,
            }],
        },
    };
    // The payload ends with the attribute's flag byte.
    let mut payload = payload_of(&frame);
    assert_eq!(payload.last(), Some(&0b11));
    for high in [0b100u8, 0x80] {
        *payload.last_mut().unwrap() = 0b11 | high;
        match Frame::decode(&payload) {
            Err(WireError::Protocol(_)) => {}
            other => panic!("flag byte {high:#x} produced {other:?}"),
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
        kind in 0..Frame::WIRE_TAGS.len() as u8,
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
    /// an id) or errors — never a panic. Every case flips a byte of
    /// every sample frame.
    #[test]
    fn single_byte_corruption_never_panics(offset in any::<u16>(), flip in 1u8..255) {
        for frame in sample_frames() {
            let mut payload = payload_of(&frame);
            let at = offset as usize % payload.len();
            payload[at] ^= flip;
            let _ = Frame::decode(&payload);
        }
    }

    /// Truncation fuzzing across random cut points of every sample
    /// frame (denser than the exhaustive loop for wire-level reads).
    #[test]
    fn random_truncations_never_panic(cut in any::<u16>()) {
        for frame in sample_frames() {
            let wire = frame.encode();
            let cut = cut as usize % wire.len();
            let mut cursor = Cursor::new(wire[..cut].to_vec());
            let _ = Frame::read_from(&mut cursor);
        }
    }
}
