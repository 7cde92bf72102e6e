//! Push subscriptions and the durable push outbox: who serves which
//! application handler, the per-handler sequenced outbox that makes a
//! push exactly-once per subscription, and the slow-subscriber policy
//! that dead-letters a handler whose outbox outgrows its byte budget.

use super::shard::ConnShared;
use super::{stripe_of_str, STATE_STRIPES};
use crate::proto::{Frame, PushEvent};
use hipac::ActiveDatabase;
use hipac_common::{HipacError, Result as HipacResult, TxnId, Value};
use hipac_storage::journal;
use hipac_storage::{DurableStore, StoreOp};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The eviction housekeeper's idle tick; each tick also commits the
/// ack deletes no outbox write has carried yet.
const ACK_FLUSH_EVERY: Duration = Duration::from_millis(2);

/// Subscription table: handler name -> connections serving it. The engine
/// sees one proxy `ApplicationHandler` per name; the proxy fans out to
/// the live subscribers at call time.
///
/// The push outbox: every delivered frame carries a
/// per-handler sequence number and is retained (durably, when the
/// database is) until a client acks it, so a push lost between the
/// socket write and the client handler is redelivered on the next
/// subscribe instead of vanishing. The first ack clears the frame —
/// with multiple subscribers per handler, redelivery is exactly-once
/// per *subscription*, not per subscriber.
///
/// Both maps are striped by handler hash (see [`STATE_STRIPES`]): the
/// reactor serves every connection from a few shard threads plus the
/// dispatch pool, and one global lock here would serialize unrelated
/// handlers' pushes across all of them.
pub(super) struct Subscriptions {
    by_handler: Vec<RwLock<HashMap<String, Vec<Arc<ConnShared>>>>>,
    outbox: Vec<Mutex<HashMap<String, HandlerOutbox>>>,
    outbox_cap: usize,
    /// Slow-subscriber byte budget (`0` disables): an outbox past it
    /// is dead-lettered instead of backpressured forever.
    evict_bytes: usize,
    /// Handlers detected over-budget by [`Subscriptions::deliver`],
    /// awaiting the eviction housekeeper (`deliver` runs on rule-firing
    /// threads *inside* transactions, so the durable GC, teardown, and
    /// `SubscriberEvicted` signal must happen elsewhere).
    evict_queue: Mutex<Vec<EvictNotice>>,
    /// Push deliveries refused because the handler is over budget or
    /// already dead-lettered (served in Stats as `pushes_shed`).
    pub(super) pushes_shed: AtomicU64,
    /// Subscriptions dead-lettered by the slow-subscriber policy.
    pub(super) subscribers_evicted: AtomicU64,
    /// Persist outbox records and sequence counters when serving a
    /// durable database (counters must survive restarts: reusing a
    /// sequence would make clients silently drop a fresh push as a
    /// redelivery).
    durable: Option<Arc<DurableStore>>,
    /// `'q'` deletes of acked frames not yet committed: they ride the
    /// next outbox write ([`Subscriptions::deliver`]) or the eviction
    /// housekeeper's tick ([`Subscriptions::flush_acks`]), whichever
    /// comes first.
    acked: Mutex<Vec<StoreOp>>,
}

#[derive(Default)]
struct HandlerOutbox {
    next_seq: u64,
    /// Encoded push frames awaiting ack, in sequence order.
    unacked: BTreeMap<u64, Vec<u8>>,
    /// Total encoded bytes across `unacked` (the byte budget's gauge).
    bytes: u64,
    /// The authenticated tenant that first subscribed this handler
    /// (persisted in the `'k'` record on durable stores). With auth
    /// enabled, only the owner may subscribe or ack; `None` means
    /// unclaimed. Ignored when auth is off.
    owner: Option<u64>,
    /// Dead-lettered: deliveries are refused (and counted in
    /// `pushes_shed`) until an owner re-subscribe resurrects the
    /// handler. `next_seq` is preserved across the eviction so a
    /// resurrected subscription never reuses a sequence its client
    /// already deduplicated.
    evicted: bool,
}

/// A dead-letter decision recorded by `deliver`, consumed by the
/// eviction housekeeper: enough to GC the durable state, tear down the
/// subscription, and signal `SubscriberEvicted` through the engine.
struct EvictNotice {
    handler: String,
    /// Preserved sequence counter (written into the tombstone).
    next_seq: u64,
    /// Unacked sequences to GC from the `'q'` key space (empty for
    /// notices recovered from a pending tombstone — their GC already
    /// committed before the crash).
    seqs: Vec<u64>,
    /// Gauges at eviction time, carried into the signal args.
    unacked: u64,
    bytes: u64,
    reason: &'static str,
}

/// Eviction tombstone states (the byte after `next_seq` in the sealed
/// `'v'` record).
const EVICT_PENDING: u8 = 0;
const EVICT_DONE: u8 = 1;

/// Serialize a tombstone record: `next_seq` (BE), state byte, then the
/// eviction-time gauges (BE) for the recovered signal's args.
fn evict_record(next_seq: u64, state: u8, unacked: u64, bytes: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(25);
    v.extend_from_slice(&next_seq.to_be_bytes());
    v.push(state);
    v.extend_from_slice(&unacked.to_be_bytes());
    v.extend_from_slice(&bytes.to_be_bytes());
    v
}

/// Inverse of [`evict_record`].
fn parse_evict_record(raw: &[u8]) -> Option<(u64, u8, u64, u64)> {
    if raw.len() != 25 {
        return None;
    }
    let next_seq = u64::from_be_bytes(raw[0..8].try_into().ok()?);
    let state = raw[8];
    let unacked = u64::from_be_bytes(raw[9..17].try_into().ok()?);
    let bytes = u64::from_be_bytes(raw[17..25].try_into().ok()?);
    Some((next_seq, state, unacked, bytes))
}

/// Serialize a handler's `'k'` record: the 8-byte next sequence, plus
/// the owning tenant id when the handler has been claimed (16 bytes
/// total). `restore` accepts both lengths, so stores written by older
/// builds (owner-less 8-byte records) reopen cleanly.
fn push_seq_value(next_seq: u64, owner: Option<u64>) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&next_seq.to_be_bytes());
    if let Some(o) = owner {
        v.extend_from_slice(&o.to_be_bytes());
    }
    v
}

impl Subscriptions {
    pub(super) fn new(
        outbox_cap: usize,
        evict_bytes: usize,
        durable: Option<Arc<DurableStore>>,
    ) -> Arc<Subscriptions> {
        let subs = Subscriptions {
            by_handler: (0..STATE_STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
            outbox: (0..STATE_STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            outbox_cap: outbox_cap.max(1),
            evict_bytes,
            evict_queue: Mutex::new(Vec::new()),
            pushes_shed: AtomicU64::new(0),
            subscribers_evicted: AtomicU64::new(0),
            durable,
            acked: Mutex::new(Vec::new()),
        };
        subs.restore();
        Arc::new(subs)
    }

    fn handlers(&self, handler: &str) -> &RwLock<HashMap<String, Vec<Arc<ConnShared>>>> {
        &self.by_handler[stripe_of_str(handler)]
    }

    fn outbox_stripe(&self, handler: &str) -> &Mutex<HashMap<String, HandlerOutbox>> {
        &self.outbox[stripe_of_str(handler)]
    }

    /// Rebuild the outbox and sequence counters from storage after a
    /// restart. Torn or corrupt records are dropped (their seal fails),
    /// never replayed.
    fn restore(&self) {
        let Some(d) = &self.durable else { return };
        if let Ok(entries) = d.scan_prefix(&[journal::PUSH_SEQ_PREFIX]) {
            for (key, value) in entries {
                let (Some(handler), Some(raw)) =
                    (journal::parse_push_seq_key(&key), journal::unseal(&value))
                else {
                    continue;
                };
                // 8 bytes = next_seq only; 16 = next_seq + owner.
                if raw.len() == 8 || raw.len() == 16 {
                    let next_seq = u64::from_be_bytes(raw[..8].try_into().unwrap());
                    let owner = (raw.len() == 16)
                        .then(|| u64::from_be_bytes(raw[8..16].try_into().unwrap()));
                    let mut ob = self.outbox_stripe(&handler).lock();
                    let h = ob.entry(handler).or_default();
                    h.next_seq = next_seq;
                    h.owner = owner;
                }
            }
        }
        if let Ok(entries) = d.scan_prefix(&[journal::OUTBOX_PREFIX]) {
            for (key, value) in entries {
                let (Some((handler, seq)), Some(frame)) =
                    (journal::parse_outbox_key(&key), journal::unseal(&value))
                else {
                    continue;
                };
                let mut ob = self.outbox_stripe(&handler).lock();
                let h = ob.entry(handler).or_default();
                h.bytes += frame.len() as u64;
                h.unacked.insert(seq, frame.to_vec());
                h.next_seq = h.next_seq.max(seq + 1);
            }
        }
    }

    /// Replay eviction tombstones after a restart: mark each handler
    /// dead-lettered with its preserved sequence counter, and return a
    /// notice for every *pending* tombstone — an eviction whose durable
    /// GC committed but whose `SubscriberEvicted` signal had not yet
    /// become durable when the process died. The caller re-enqueues
    /// those so the signal fires exactly once across the crash.
    fn restore_evictions(&self) -> Vec<EvictNotice> {
        let Some(d) = &self.durable else {
            return Vec::new();
        };
        let mut pending = Vec::new();
        if let Ok(entries) = d.scan_prefix(&[journal::EVICT_PREFIX]) {
            for (key, value) in entries {
                let (Some(handler), Some(raw)) =
                    (journal::parse_evict_key(&key), journal::unseal(&value))
                else {
                    continue;
                };
                let Some((next_seq, state, unacked, bytes)) = parse_evict_record(raw) else {
                    continue;
                };
                {
                    let mut ob = self.outbox_stripe(&handler).lock();
                    let h = ob.entry(handler.clone()).or_default();
                    h.evicted = true;
                    h.next_seq = h.next_seq.max(next_seq);
                    h.unacked.clear();
                    h.bytes = 0;
                }
                if state == EVICT_PENDING {
                    pending.push(EvictNotice {
                        handler,
                        next_seq,
                        seqs: Vec::new(),
                        unacked,
                        bytes,
                        reason: "recovered",
                    });
                }
            }
        }
        pending
    }

    /// With auth enabled, bind `handler` to its first authenticated
    /// subscriber and enforce the binding afterwards: the owner (and
    /// only the owner) may subscribe again; unauthenticated sessions
    /// may serve unclaimed handlers but never claim one. Returns
    /// whether the caller may proceed.
    pub(super) fn claim_owner(&self, handler: &str, authed: Option<u64>) -> bool {
        let (claimed, next_seq) = {
            let mut ob = self.outbox_stripe(handler).lock();
            let h = ob.entry(handler.to_owned()).or_default();
            match (h.owner, authed) {
                (Some(o), Some(a)) if o == a => return true,
                (Some(_), _) => return false,
                (None, Some(a)) => {
                    h.owner = Some(a);
                    (a, h.next_seq)
                }
                (None, None) => return true,
            }
        };
        if let Some(d) = &self.durable {
            let _ = d.commit(
                TxnId(0),
                [StoreOp::Put {
                    key: journal::push_seq_key(handler),
                    value: journal::seal(&push_seq_value(next_seq, Some(claimed))),
                }],
            );
        }
        true
    }

    /// Whether `authed` may act on `handler`'s outbox (ack pushes).
    /// Unclaimed handlers are open; claimed ones admit only the owner.
    pub(super) fn may_touch(&self, handler: &str, authed: Option<u64>) -> bool {
        let ob = self.outbox_stripe(handler).lock();
        match ob.get(handler).and_then(|h| h.owner) {
            Some(o) => authed == Some(o),
            None => true,
        }
    }

    /// Resurrect a dead-lettered handler on an authorized re-subscribe:
    /// clear the tombstone and resume the preserved sequence counter.
    /// Returns whether a resurrection happened.
    pub(super) fn resurrect(&self, handler: &str) -> bool {
        let revived = {
            let mut ob = self.outbox_stripe(handler).lock();
            match ob.get_mut(handler) {
                Some(h) if h.evicted => {
                    h.evicted = false;
                    Some((h.next_seq, h.owner))
                }
                _ => None,
            }
        };
        let Some((next_seq, owner)) = revived else {
            return false;
        };
        if let Some(d) = &self.durable {
            let _ = d.commit(
                TxnId(0),
                [
                    StoreOp::Put {
                        key: journal::push_seq_key(handler),
                        value: journal::seal(&push_seq_value(next_seq, owner)),
                    },
                    StoreOp::Delete {
                        key: journal::evict_key(handler),
                    },
                ],
            );
        }
        true
    }

    /// Add `conn` as a server for `handler` and queue it every unacked
    /// frame, under the outbox lock [`Subscriptions::deliver`] holds: no
    /// live push gets ahead of the catch-up (the client would drop the
    /// older frame as a duplicate, and ack it). Registers the engine
    /// proxy on the first subscriber. Returns the frames queued.
    pub(super) fn subscribe(
        self: &Arc<Self>,
        db: &ActiveDatabase,
        handler: &str,
        conn: &Arc<ConnShared>,
    ) -> u64 {
        let ob = self.outbox_stripe(handler).lock();
        {
            let mut map = self.handlers(handler).write();
            let subs = map.entry(handler.to_owned()).or_default();
            if !subs.iter().any(|s| s.id == conn.id) {
                subs.push(Arc::clone(conn));
            }
            if subs.len() == 1 {
                let me = Arc::clone(self);
                let name = handler.to_owned();
                db.register_handler(handler, move |request, args| {
                    me.deliver(&name, request, args)
                });
            }
        }
        let Some(h) = ob.get(handler) else { return 0 };
        h.unacked.values().take_while(|frame| conn.send(frame)).count() as u64
    }

    /// Remove `session` from `handler`'s subscribers; unregisters the
    /// proxy when the list empties.
    pub(super) fn unsubscribe(&self, db: &ActiveDatabase, handler: &str, session: u64) {
        let mut map = self.handlers(handler).write();
        if let Some(subs) = map.get_mut(handler) {
            subs.retain(|s| s.id != session);
            if subs.is_empty() {
                map.remove(handler);
                db.unregister_handler(handler);
            }
        }
    }

    /// Remove `session` from every handler it serves.
    pub(super) fn drop_session(&self, db: &ActiveDatabase, session: u64) {
        for stripe in &self.by_handler {
            let mut map = stripe.write();
            map.retain(|handler, subs| {
                subs.retain(|s| s.id != session);
                if subs.is_empty() {
                    db.unregister_handler(handler);
                    false
                } else {
                    true
                }
            });
        }
    }

    /// Push `request` to every subscriber of `handler`.
    ///
    /// The frame is encoded once, sequenced and retained in the outbox
    /// (persisted *before* it is sent, so a crash between the two
    /// redelivers rather than loses), then queued on every subscriber's
    /// connection, all under the handler's outbox lock: `seq N` is
    /// queued ahead of `N + 1` everywhere, whichever firing thread
    /// delivers first. A subscriber that stops reading delays only
    /// itself. Delivery succeeds once the frame is retained; it fails
    /// only when nobody subscribes to the handler or the outbox is full
    /// (backpressure into the triggering rule action).
    fn deliver(
        &self,
        handler: &str,
        request: &str,
        args: &HashMap<String, Value>,
    ) -> HipacResult<()> {
        if self.handlers(handler).read().get(handler).map_or(true, Vec::is_empty) {
            return Err(HipacError::NoApplicationHandler(handler.to_owned()));
        }
        let mut dead = Vec::new();
        {
            let mut ob = self.outbox_stripe(handler).lock();
            let h = ob.entry(handler.to_owned()).or_default();
            if h.evicted {
                self.pushes_shed.fetch_add(1, Ordering::Relaxed);
                return Err(HipacError::InUse(format!(
                    "handler dead-lettered (subscriber evicted): {handler}"
                )));
            }
            // Slow-subscriber policy: an outbox past its byte budget is
            // dead-lettered instead of backpressured forever.
            // `deliver` runs on rule-firing threads inside transactions,
            // so it only *decides* here; the durable GC, teardown, and
            // `SubscriberEvicted` signal run on the eviction housekeeper.
            if self.evict_bytes > 0 && h.bytes as usize >= self.evict_bytes {
                h.evicted = true;
                self.evict_queue.lock().push(EvictNotice {
                    handler: handler.to_owned(),
                    next_seq: h.next_seq,
                    seqs: h.unacked.keys().copied().collect(),
                    unacked: h.unacked.len() as u64,
                    bytes: h.bytes,
                    reason: "bytes",
                });
                self.pushes_shed.fetch_add(1, Ordering::Relaxed);
                return Err(HipacError::InUse(format!(
                    "subscriber evicted: push outbox over budget for handler {handler}"
                )));
            }
            if h.unacked.len() >= self.outbox_cap {
                return Err(HipacError::InUse(format!(
                    "push outbox full for handler {handler} ({} unacked)",
                    h.unacked.len()
                )));
            }
            let seq = h.next_seq.max(1);
            h.next_seq = seq + 1;
            let frame = Frame::Push(PushEvent {
                seq,
                handler: handler.to_owned(),
                request: request.to_owned(),
                args: args.clone(),
            })
            .encode();
            if let Some(d) = &self.durable {
                // Persist-then-send: runs as a metadata batch (TxnId 0)
                // so it cannot consume a reply-journal annotation armed
                // for the enclosing commit. The deletes of frames acked
                // since the last outbox write ride the same batch.
                let mut ops = std::mem::take(&mut *self.acked.lock());
                let n_acked = ops.len();
                ops.push(StoreOp::Put {
                    key: journal::outbox_key(handler, seq),
                    value: journal::seal(&frame),
                });
                ops.push(StoreOp::Put {
                    key: journal::push_seq_key(handler),
                    value: journal::seal(&push_seq_value(h.next_seq, h.owner)),
                });
                // A failed commit leaves the acked deletes queued for
                // the next batch: keep them (keys only) before the batch
                // is handed over.
                let acked = ops[..n_acked].to_vec();
                if let Err(e) = d.commit(TxnId(0), ops) {
                    self.acked.lock().extend(acked);
                    return Err(e);
                }
            }
            // The subscriber list is read under the outbox lock, which
            // `subscribe` holds while it registers and catches up.
            for conn in self.handlers(handler).read().get(handler).into_iter().flatten() {
                if !conn.send(&frame) {
                    dead.push(conn.id);
                }
            }
            h.bytes += frame.len() as u64;
            h.unacked.insert(seq, frame);
        }
        if !dead.is_empty() {
            let mut map = self.handlers(handler).write();
            if let Some(subs) = map.get_mut(handler) {
                subs.retain(|s| !dead.contains(&s.id));
            }
        }
        Ok(())
    }

    /// Drop an acked frame from the outbox. The frame leaves memory at
    /// once; the delete of its durable `'q'` row is queued and commits
    /// with the next outbox write or the housekeeper's next tick
    /// ([`ACK_FLUSH_EVERY`]), never as a commit of its own. A crash
    /// before that delete commits redelivers the frame after restart,
    /// and the client dedups by sequence — the same contract a crash
    /// between the ack and its own commit always had, over a wider
    /// window. Sequences are never reused, so a late delete cannot
    /// remove a newer frame.
    pub(super) fn ack(&self, handler: &str, seq: u64) {
        let removed = {
            let mut ob = self.outbox_stripe(handler).lock();
            ob.get_mut(handler)
                .map(|h| match h.unacked.remove(&seq) {
                    Some(frame) => {
                        h.bytes = h.bytes.saturating_sub(frame.len() as u64);
                        true
                    }
                    None => false,
                })
                .unwrap_or(false)
        };
        if removed && self.durable.is_some() {
            self.acked.lock().push(StoreOp::Delete {
                key: journal::outbox_key(handler, seq),
            });
        }
    }

    /// Commit the queued deletes of acked frames (the housekeeper's
    /// tick, and the last step of a shutdown). Best effort, like the
    /// deletes themselves: a failed commit leaves the rows for
    /// redelivery.
    pub(super) fn flush_acks(&self) {
        let Some(d) = &self.durable else { return };
        let ops = std::mem::take(&mut *self.acked.lock());
        if !ops.is_empty() {
            let _ = d.commit(TxnId(0), ops);
        }
    }

    /// Total unacked push frames across all handlers (test/ops gauge).
    pub(super) fn unacked_total(&self) -> u64 {
        self.outbox
            .iter()
            .map(|stripe| {
                stripe
                    .lock()
                    .values()
                    .map(|h| h.unacked.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Finalize one dead-letter decision, off the rule-firing path (the
    /// eviction housekeeper's work loop). Three steps, each crash-safe:
    ///
    /// 1. **Durable GC, atomically with the tombstone.** One metadata
    ///    batch deletes every unacked `'q'` record and the `'k'` counter,
    ///    and writes the `'v'` tombstone in `EVICT_PENDING` state carrying
    ///    the preserved sequence counter. A crash before this batch leaves
    ///    the outbox intact (the eviction re-decides on the next over-budget
    ///    delivery); a crash after it recovers a pending tombstone, which
    ///    [`Subscriptions::restore_evictions`] turns back into a notice.
    /// 2. **Teardown.** The in-memory outbox empties and the engine proxy
    ///    unregisters, so further rule actions addressed to the handler fail
    ///    fast with `NoApplicationHandler` instead of re-queueing.
    /// 3. **Signal.** `SubscriberEvicted` fires through the engine so user
    ///    rules can react — the active DBMS reacting to its own overload.
    ///    The tombstone's `EVICT_DONE` marker rides the signalling
    ///    transaction's WAL batch (the same piggyback the reply journal
    ///    uses), so the signal-with-rule-effects is atomic: a crash before
    ///    the batch re-fires the signal on restart (the tombstone is still
    ///    pending), a crash after it does not — exactly once. When the
    ///    rule's effects abort (or no rule fires a write), the marker is
    ///    committed standalone: at-most-once on rule failure, by design —
    ///    re-firing a failing rule forever would turn one slow subscriber
    ///    into a poison loop.
    fn finalize_eviction(&self, db: &ActiveDatabase, n: EvictNotice) {
        if let Some(d) = &self.durable {
            let mut ops = vec![StoreOp::Put {
                key: journal::evict_key(&n.handler),
                value: journal::seal(&evict_record(n.next_seq, EVICT_PENDING, n.unacked, n.bytes)),
            }];
            for s in &n.seqs {
                ops.push(StoreOp::Delete {
                    key: journal::outbox_key(&n.handler, *s),
                });
            }
            ops.push(StoreOp::Delete {
                key: journal::push_seq_key(&n.handler),
            });
            let _ = d.commit(TxnId(0), ops);
        }
        {
            let mut ob = self.outbox_stripe(&n.handler).lock();
            if let Some(h) = ob.get_mut(&n.handler) {
                h.unacked.clear();
                h.bytes = 0;
            }
        }
        {
            let mut map = self.handlers(&n.handler).write();
            if map.remove(&n.handler).is_some() {
                db.unregister_handler(&n.handler);
            }
        }
        let mut args = HashMap::new();
        args.insert("handler".to_owned(), Value::Str(n.handler.clone()));
        args.insert("reason".to_owned(), Value::Str(n.reason.to_owned()));
        args.insert("unacked".to_owned(), Value::Int(n.unacked as i64));
        args.insert("bytes".to_owned(), Value::Int(n.bytes as i64));
        if self.durable.is_some() {
            journal::set_pending_ops(vec![StoreOp::Put {
                key: journal::evict_key(&n.handler),
                value: journal::seal(&evict_record(n.next_seq, EVICT_DONE, n.unacked, n.bytes)),
            }]);
        }
        let _ = db.run_top(|t| db.signal_event("SubscriberEvicted", args.clone(), Some(t)));
        if let Some(ops) = journal::take_pending_ops() {
            // The signal never flushed a transactional batch (no rule
            // matched, rule effects were read-only, or the transaction
            // aborted): persist the done marker standalone so the
            // tombstone cannot re-fire forever.
            if let Some(d) = &self.durable {
                let _ = d.commit(TxnId(0), ops);
            }
        }
        self.subscribers_evicted.fetch_add(1, Ordering::Relaxed);
    }
}

/// Start the eviction housekeeper: it commits queued ack deletes every
/// [`ACK_FLUSH_EVERY`] and finalizes dead-letter decisions off the
/// rule-firing path. Pending tombstones from a crash at the eviction
/// point re-enter its queue first, and it drains what is left of the
/// queue before exiting, so a dead-letter decided just before shutdown
/// still signals.
pub(super) fn spawn_housekeeper(
    subs: &Arc<Subscriptions>,
    db: &Arc<ActiveDatabase>,
    stop: &Arc<AtomicBool>,
) -> JoinHandle<()> {
    // Rule-visible slow-subscriber policy: the eviction event is
    // defined up front (idempotent — `DuplicateName` on a reopened
    // durable database is fine).
    let _ = db.define_event("SubscriberEvicted", &["handler", "reason", "unacked", "bytes"]);
    let recovered = subs.restore_evictions();
    subs.evict_queue.lock().extend(recovered);
    let (subs, db, stop) = (Arc::clone(subs), Arc::clone(db), Arc::clone(stop));
    std::thread::Builder::new()
        .name("hipac-net-evict".to_owned())
        .spawn(move || loop {
            subs.flush_acks();
            let batch: Vec<EvictNotice> = std::mem::take(&mut *subs.evict_queue.lock());
            if batch.is_empty() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(ACK_FLUSH_EVERY);
                continue;
            }
            for n in batch {
                subs.finalize_eviction(&db, n);
            }
        })
        .expect("spawn eviction housekeeper thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::super::shard::ShardHandle;
    use hipac_storage::TailRead;
    use std::net::{TcpListener, TcpStream};

    /// An ack takes its frame out of memory at once but only queues the
    /// `'q'` delete: no WAL batch is written until the next outbox write
    /// carries the delete in its own batch (or a housekeeper flush
    /// commits it).
    #[test]
    fn ack_delete_rides_the_next_outbox_write() {
        let dir = std::env::temp_dir().join(format!("hipac-net-ack-fold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DurableStore::open(&dir).unwrap());
        let subs = Subscriptions::new(16, 0, Some(Arc::clone(&store)));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _reader = listener.accept().unwrap();
        let (shard, _wake) = ShardHandle::new().unwrap();
        subs.handlers("h")
            .write()
            .insert("h".to_owned(), vec![Arc::new(ConnShared::new(1, writer, shard))]);
        let row = |seq| store.get(&journal::outbox_key("h", seq)).unwrap();
        let batches_since = |lsn| match store.read_batches_from(lsn, 1 << 20).unwrap() {
            TailRead::Batches { batches, .. } => batches,
            other => panic!("{other:?}"),
        };

        subs.deliver("h", "r", &HashMap::new()).unwrap();
        assert!(row(1).is_some());
        let lsn = store.durable_lsn();
        subs.ack("h", 1);
        assert_eq!(subs.unacked_total(), 0, "the frame leaves memory at once");
        assert!(row(1).is_some(), "its durable row waits for a carrier");
        assert_eq!(store.durable_lsn(), lsn, "the ack wrote no WAL batch");

        subs.deliver("h", "r", &HashMap::new()).unwrap();
        let carried = batches_since(lsn);
        assert_eq!(carried.len(), 1, "one batch: the push and the ack's delete");
        assert!(carried[0].ops.contains(&StoreOp::Delete {
            key: journal::outbox_key("h", 1)
        }));
        assert!(row(1).is_none() && row(2).is_some());

        subs.ack("h", 2);
        let lsn = store.durable_lsn();
        subs.flush_acks();
        assert_eq!(batches_since(lsn).len(), 1);
        assert!(row(2).is_none());
        subs.flush_acks();
        assert_eq!(
            batches_since(lsn).len(),
            1,
            "an empty queue commits nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
