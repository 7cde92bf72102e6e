//! Crash-safe reply journal and push-outbox key space.
//!
//! The network layer keeps an in-memory `(client_id, seq) → reply`
//! dedup window so a retried request replays its cached ack instead of
//! re-executing. That window must survive a server restart or the
//! exactly-once contract silently degrades to at-most-once: a client
//! whose commit was durable but whose ack was lost would retry into a
//! fresh process that re-executes it. This module gives the window a
//! durable twin inside the same [`crate::store::DurableStore`] the
//! engine commits through:
//!
//! * **Reply entries** live under the reserved key prefix
//!   [`REPLY_PREFIX`] (`'j'`), keyed by big-endian `(client_id, seq)`
//!   so a prefix scan yields them in client order. Values are sealed
//!   with a CRC-32 header ([`seal`]/[`unseal`]) on top of the WAL's own
//!   record checksums, so a torn or foreign value is detected rather
//!   than replayed as an ack.
//! * **Push-outbox records** ([`OUTBOX_PREFIX`], `'q'`) retain
//!   encoded-but-unacked push frames per handler, and **push counters**
//!   ([`PUSH_SEQ_PREFIX`], `'k'`) persist each handler's next sequence
//!   number so redelivered and fresh pushes never reuse a sequence a
//!   client has already deduplicated.
//!
//! Crash atomicity is the delicate part: the journal entry for a
//! commit must become durable in the *same* WAL batch as the commit
//! itself, or a crash between the two either loses the ack (retry
//! re-executes) or invents one (retry acks a commit that never
//! happened). The server cannot append to the engine's batch directly —
//! the batch is built deep inside the resource managers — so it
//! *annotates the thread* before dispatching ([`set_pending_ops`]) and
//! [`crate::store::DurableStore::commit`] folds the annotation into the
//! first transactional batch it flushes on that thread. Requests whose
//! dispatch never reaches the store (read-only commits) fall back to a
//! separate metadata batch, which is safe precisely because there is no
//! data batch to be atomic with.

use crate::crc::crc32;
use crate::store::StoreOp;
use std::cell::RefCell;

/// Reserved key prefix for reply-journal entries (`'j'`). Must not
/// collide with engine prefixes (`'c'`/`'o'` object manager, `'r'`
/// rules, `'e'` events).
pub const REPLY_PREFIX: u8 = b'j';
/// Reserved key prefix for unacked push-outbox records (`'q'`).
pub const OUTBOX_PREFIX: u8 = b'q';
/// Reserved key prefix for per-handler push sequence counters (`'k'`).
pub const PUSH_SEQ_PREFIX: u8 = b'k';
/// Reserved key prefix for slow-subscriber eviction tombstones (`'v'`).
/// A tombstone marks a handler whose outbox blew its byte/age budget:
/// its `'q'`/`'k'` state has been garbage-collected, and the value
/// (sealed) records the preserved next-sequence counter plus whether
/// the `SubscriberEvicted` engine signal has fired yet — the signal's
/// done-marker rides the signalling transaction's WAL batch so a crash
/// at the eviction point replays it exactly once.
pub const EVICT_PREFIX: u8 = b'v';

/// Journal key for one `(client_id, seq)` reply: prefix byte followed
/// by both halves big-endian, so `scan_prefix(&[REPLY_PREFIX])` yields
/// entries grouped by client in ascending sequence order.
pub fn reply_key(client_id: u64, seq: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(17);
    k.push(REPLY_PREFIX);
    k.extend_from_slice(&client_id.to_be_bytes());
    k.extend_from_slice(&seq.to_be_bytes());
    k
}

/// Inverse of [`reply_key`]; `None` for malformed or foreign keys.
pub fn parse_reply_key(key: &[u8]) -> Option<(u64, u64)> {
    if key.len() != 17 || key[0] != REPLY_PREFIX {
        return None;
    }
    let client_id = u64::from_be_bytes(key[1..9].try_into().ok()?);
    let seq = u64::from_be_bytes(key[9..17].try_into().ok()?);
    Some((client_id, seq))
}

/// Outbox key for one unacked push: prefix, handler length (u32 BE),
/// handler bytes, sequence (u64 BE) — prefix-scannable per handler and
/// ordered by sequence within a handler.
pub fn outbox_key(handler: &str, seq: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(13 + handler.len());
    k.push(OUTBOX_PREFIX);
    k.extend_from_slice(&(handler.len() as u32).to_be_bytes());
    k.extend_from_slice(handler.as_bytes());
    k.extend_from_slice(&seq.to_be_bytes());
    k
}

/// Inverse of [`outbox_key`]; `None` for malformed or foreign keys.
pub fn parse_outbox_key(key: &[u8]) -> Option<(String, u64)> {
    if key.len() < 13 || key[0] != OUTBOX_PREFIX {
        return None;
    }
    let len = u32::from_be_bytes(key[1..5].try_into().ok()?) as usize;
    if key.len() != 13 + len {
        return None;
    }
    let handler = String::from_utf8(key[5..5 + len].to_vec()).ok()?;
    let seq = u64::from_be_bytes(key[5 + len..].try_into().ok()?);
    Some((handler, seq))
}

/// Counter key persisting `handler`'s next push sequence.
pub fn push_seq_key(handler: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + handler.len());
    k.push(PUSH_SEQ_PREFIX);
    k.extend_from_slice(handler.as_bytes());
    k
}

/// Inverse of [`push_seq_key`].
pub fn parse_push_seq_key(key: &[u8]) -> Option<String> {
    if key.is_empty() || key[0] != PUSH_SEQ_PREFIX {
        return None;
    }
    String::from_utf8(key[1..].to_vec()).ok()
}

/// Tombstone key for a dead-lettered (evicted) subscription.
pub fn evict_key(handler: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + handler.len());
    k.push(EVICT_PREFIX);
    k.extend_from_slice(handler.as_bytes());
    k
}

/// Inverse of [`evict_key`].
pub fn parse_evict_key(key: &[u8]) -> Option<String> {
    if key.is_empty() || key[0] != EVICT_PREFIX {
        return None;
    }
    String::from_utf8(key[1..].to_vec()).ok()
}

/// Seal a payload with a little-endian CRC-32 header. The WAL already
/// checksums records, but journal values outlive the log (they survive
/// checkpoints into the image), so they carry their own end-to-end
/// check.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(4 + payload.len());
    v.extend_from_slice(&crc32(payload).to_le_bytes());
    v.extend_from_slice(payload);
    v
}

/// Verify and strip a [`seal`] header; `None` when the checksum does
/// not match (the caller treats the entry as absent, which fails safe:
/// a lost ack re-executes at most the engine's own idempotency, an
/// invented ack would be unrecoverable).
pub fn unseal(value: &[u8]) -> Option<&[u8]> {
    if value.len() < 4 {
        return None;
    }
    let stored = u32::from_le_bytes(value[..4].try_into().ok()?);
    let payload = &value[4..];
    (crc32(payload) == stored).then_some(payload)
}

thread_local! {
    static PENDING_OPS: RefCell<Option<Vec<StoreOp>>> = const { RefCell::new(None) };
}

/// Annotate the current thread with journal ops that must ride the
/// next transactional WAL batch flushed on this thread. The server
/// calls this immediately before dispatching a keyed commit; the store
/// consumes it inside [`crate::store::DurableStore::commit`].
pub fn set_pending_ops(ops: Vec<StoreOp>) {
    PENDING_OPS.with(|p| *p.borrow_mut() = Some(ops));
}

/// Take (and clear) the current thread's pending annotation, if any.
pub fn take_pending_ops() -> Option<Vec<StoreOp>> {
    PENDING_OPS.with(|p| p.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_key_roundtrips() {
        let k = reply_key(7, 42);
        assert_eq!(parse_reply_key(&k), Some((7, 42)));
        assert_eq!(parse_reply_key(b"x"), None);
        assert_eq!(parse_reply_key(&k[..16]), None);
    }

    #[test]
    fn outbox_key_roundtrips() {
        let k = outbox_key("alerts", 9);
        assert_eq!(parse_outbox_key(&k), Some(("alerts".into(), 9)));
        assert_eq!(parse_outbox_key(&outbox_key("", 1)), Some(("".into(), 1)));
        assert_eq!(parse_outbox_key(b"q\x00\x00\x00\x09ab"), None);
    }

    #[test]
    fn push_seq_key_roundtrips() {
        assert_eq!(parse_push_seq_key(&push_seq_key("h")), Some("h".into()));
        assert_eq!(parse_push_seq_key(b"jx"), None);
    }

    #[test]
    fn evict_key_roundtrips() {
        assert_eq!(parse_evict_key(&evict_key("slow")), Some("slow".into()));
        assert_eq!(parse_evict_key(b"kx"), None);
        assert_eq!(parse_evict_key(b""), None);
    }

    #[test]
    fn seal_detects_corruption() {
        let sealed = seal(b"payload");
        assert_eq!(unseal(&sealed), Some(&b"payload"[..]));
        let mut torn = sealed.clone();
        torn[5] ^= 0xff;
        assert_eq!(unseal(&torn), None);
        assert_eq!(unseal(b"xy"), None);
    }

    #[test]
    fn pending_ops_are_per_thread_and_single_shot() {
        set_pending_ops(vec![StoreOp::Delete { key: vec![1] }]);
        std::thread::spawn(|| assert!(take_pending_ops().is_none()))
            .join()
            .unwrap();
        assert_eq!(take_pending_ops().map(|v| v.len()), Some(1));
        assert!(take_pending_ops().is_none());
    }
}
