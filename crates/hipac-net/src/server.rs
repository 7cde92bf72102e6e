//! [`HipacServer`]: the active DBMS behind a TCP listener.
//!
//! Connections are served by a sharded reactor: `reactor_shards`
//! event-loop threads multiplex all sockets (non-blocking, via the
//! [`crate::reactor`] epoll facade), so an idle connection costs one
//! registered fd — no thread, no stack. Complete frames dispatch onto
//! a pool of `workers` threads; a per-connection queue keeps each
//! session's requests strictly ordered, and a full queue pauses that
//! connection's reads (per-connection backpressure) until the worker
//! drains it. The server admits at most `workers + max_pending`
//! concurrent connections; beyond that it refuses with an error frame
//! instead of queueing unboundedly.
//!
//! The paper's §4.1 role reversal — the DBMS calling the application —
//! crosses the network through subscriptions: a client that sends
//! `Subscribe { handler }` becomes the application server for that
//! handler name, and every rule action addressed to it is delivered to
//! the client as a push frame, synchronously from the firing's thread
//! (immediate/deferred firings block the triggering transaction on the
//! socket write; separate firings block a pool worker).
//!
//! Sessions own the transactions they begin: a connection that drops —
//! idle timeout, protocol error, or plain disconnect — has its open
//! transactions aborted, so a crashed client cannot strand locks.

use crate::proto::{
    code_type, ping_reply, Command, Frame, PushEvent, Reply, ReplMsg, RequestMeta, WireError,
    WireStats,
};
use hipac::{ActiveDatabase, EngineStats};
use hipac_common::{HipacError, ObjectId, ReplCounters, Result as HipacResult, TxnId, Value};
use hipac_object::{AttrDef, Query};
use hipac_storage::journal;
use hipac_storage::{DurableStore, StoreOp, TailRead};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`HipacServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent session threads (the hard concurrency cap).
    pub workers: usize,
    /// Accepted connections allowed to wait for a free session thread.
    /// Beyond this the server refuses with an error frame.
    pub max_pending: usize,
    /// A session with no complete request for this long is closed (its
    /// open transactions abort). This is the backpressure backstop: a
    /// stalled client cannot pin a session thread forever.
    pub idle_timeout: Duration,
    /// Admission budget: requests allowed in dispatch concurrently
    /// across all sessions. Beyond this the server sheds the request
    /// with an `Overloaded` error instead of queueing it behind slow
    /// work. `0` disables shedding (dispatch concurrency is then
    /// bounded only by `workers`).
    pub max_inflight: usize,
    /// Replies remembered per client for idempotent retries: a request
    /// re-sent with an already-seen `(client_id, seq)` is answered from
    /// this window without re-executing. `0` disables deduplication.
    pub dedup_window: usize,
    /// Persist the dedup window for keyed commits as a crash-safe
    /// reply journal when the served database is durable: the cached
    /// ack becomes durable in the same WAL batch as the commit it
    /// acknowledges, and a restart rebuilds the window from the
    /// journal, so a retry across the restart replays instead of
    /// re-executing. No effect on in-memory databases.
    pub reply_journal: bool,
    /// Unacked push frames retained per handler for redelivery.
    /// Delivery to a full outbox fails the triggering rule action
    /// (backpressure into the transaction) rather than dropping the
    /// frame silently.
    pub outbox_cap: usize,
    /// Adaptive admission signal: when the EWMA of dispatch time
    /// exceeds this, new requests are shed with `Overloaded` (counted
    /// in `shed_adaptive`) while at least one other request is in
    /// flight. `None` disables it; `max_inflight` remains the hard
    /// cap.
    pub shed_queue_delay: Option<Duration>,
    /// Reactor shards: event-loop threads multiplexing all connections
    /// over non-blocking sockets. Each connection is owned by exactly
    /// one shard for reading; complete frames dispatch onto the
    /// `workers` pool. `0` picks a default from the machine's
    /// parallelism. Idle connections cost one registered fd each — no
    /// stack, no thread.
    pub reactor_shards: usize,
    /// Bound on one push-frame write to a slow subscriber before it is
    /// culled (its unacked pushes stay in the outbox for redelivery).
    /// The batched fan-out writes every subscriber opportunistically
    /// first, so a slow subscriber only ever delays itself.
    pub push_write_timeout: Duration,
    /// Shared secret for session authentication. When set, a
    /// session must present `Command::Auth` with a valid
    /// `HMAC-SHA256(secret, client_id)` token before any keyed request
    /// naming that `client_id` is honored — which covers reply-journal
    /// replays, dedup probes, and the per-tenant admission identity.
    /// Push subscriptions bind to the first authenticated owner;
    /// `Subscribe`/`AckPush` from any other identity are refused with
    /// `AuthFailed`. Sessions that never send `Auth` are confined to
    /// the shared `unauthenticated` tenant class and unkeyed work.
    /// `None` disables authentication: the asserted `client_id` is
    /// trusted.
    pub auth_secret: Option<Vec<u8>>,
    /// Per-tenant admission budget: requests one tenant may have in
    /// dispatch concurrently. Beyond it that tenant's requests are
    /// shed with `Overloaded` (counted in `tenant_shed_requests`)
    /// while other tenants keep admitting. `0` disables the cap.
    pub tenant_max_inflight: usize,
    /// Per-tenant adaptive admission signal: when a tenant's own
    /// dispatch-delay EWMA exceeds this while that tenant already has
    /// work in flight, its next request is shed. `None` disables it.
    /// (The global `shed_queue_delay` signal is tenant-weighted too:
    /// it shedding requires the *requesting tenant* to already have
    /// work in flight, so a noisy tenant's queueing delay sheds the
    /// noisy tenant, not the quiet ones.)
    pub tenant_shed_queue_delay: Option<Duration>,
    /// Slow-subscriber byte budget: when a handler's unacked outbox
    /// reaches this many encoded frame bytes, the subscription is
    /// dead-lettered — its durable outbox state is garbage-collected
    /// and a `SubscriberEvicted` engine event is signalled so user
    /// rules can react. `0` disables byte-based eviction.
    pub outbox_evict_bytes: usize,
    /// Slow-subscriber age budget: a handler whose *oldest* unacked
    /// push has waited longer than this is dead-lettered on the next
    /// delivery attempt. `None` disables age-based eviction.
    pub outbox_evict_age: Option<Duration>,
    /// Semi-synchronous replication: gate each successful commit ack on
    /// every connected replica having reported durable application up
    /// to the committing frontier, so an acknowledged write never
    /// exists only on this node. A replica that cannot keep up within
    /// [`ServerConfig::sync_repl_timeout`] degrades that commit to
    /// asynchronous (availability over strictness) rather than
    /// stalling the session. No effect without connected replicas.
    pub sync_repl: bool,
    /// Per-commit bound on the semi-sync wait: a quorum slower than
    /// this degrades the commit to asynchronous. Overridable at bind
    /// time with the `HIPAC_REPL_DEGRADE_MS` environment variable.
    pub sync_repl_timeout: Duration,
    /// How often idle replicas get a heartbeat carrying the durable
    /// frontier and the primary's replication epoch (so a quiet
    /// primary still advertises zero lag, and a fenced world is
    /// discovered without waiting for traffic). Overridable at bind
    /// time with the `HIPAC_REPL_HEARTBEAT_MS` environment variable.
    pub repl_heartbeat_every: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            max_pending: 16,
            idle_timeout: Duration::from_secs(30),
            max_inflight: 0,
            dedup_window: 128,
            reply_journal: true,
            outbox_cap: 256,
            shed_queue_delay: None,
            auth_secret: None,
            tenant_max_inflight: 0,
            tenant_shed_queue_delay: None,
            outbox_evict_bytes: 0,
            outbox_evict_age: None,
            reactor_shards: 0,
            push_write_timeout: Duration::from_secs(5),
            sync_repl: false,
            sync_repl_timeout: Duration::from_millis(250),
            repl_heartbeat_every: Duration::from_millis(50),
        }
    }
}

/// Parse a `HIPAC_REPL_*` millisecond knob from the environment.
/// Unset or unparsable values fall back to the builder configuration.
fn env_millis(name: &str) -> Option<Duration> {
    std::env::var(name)
        .ok()?
        .trim()
        .parse::<u64>()
        .ok()
        .map(Duration::from_millis)
}

/// How often blocked reads wake to check idle/shutdown state.
const READ_TICK: Duration = Duration::from_millis(50);

/// The eviction housekeeper's idle tick; each tick also commits the
/// ack deletes no outbox write has carried yet.
const ACK_FLUSH_EVERY: Duration = Duration::from_millis(2);

/// Lock stripes for the shard-local session maps. Keys hash to a
/// stripe independently of which reactor shard serves the connection,
/// so the *same* client id or handler name always lands on the same
/// stripe no matter where (or when) its connection is homed — which is
/// exactly what keeps dedup and outbox semantics stable when a client
/// reconnects onto a different shard.
const STATE_STRIPES: usize = 16;

fn stripe_of_u64(key: u64) -> usize {
    // Fibonacci hash: client ids are sequential in tests.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % STATE_STRIPES
}

fn stripe_of_str(key: &str) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    stripe_of_u64(h.finish())
}

/// Subscription table: handler name -> sessions serving it. The engine
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
struct Subscriptions {
    by_handler: Vec<RwLock<HashMap<String, Vec<Subscriber>>>>,
    outbox: Vec<Mutex<HashMap<String, HandlerOutbox>>>,
    outbox_cap: usize,
    /// Bound on one push write to a lagging subscriber (second phase of
    /// the fan-out; the first phase never waits).
    push_write_timeout: Duration,
    /// Slow-subscriber budgets (`0`/`None` disable): an outbox past
    /// either one is dead-lettered instead of backpressured forever.
    evict_bytes: usize,
    evict_age: Option<Duration>,
    /// Handlers detected over-budget by [`Subscriptions::deliver`],
    /// awaiting the eviction housekeeper (`deliver` runs on rule-firing
    /// threads *inside* transactions, so the durable GC, teardown, and
    /// `SubscriberEvicted` signal must happen elsewhere).
    evict_queue: Mutex<Vec<EvictNotice>>,
    /// Push deliveries refused because the handler is over budget or
    /// already dead-lettered (served in Stats as `pushes_shed`).
    pushes_shed: AtomicU64,
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
    /// Enqueue instants parallel to `unacked` (the age budget's clock).
    enqueued_at: BTreeMap<u64, Instant>,
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

#[derive(Clone)]
struct Subscriber {
    session: u64,
    writer: Arc<Mutex<TcpStream>>,
}

impl Subscriptions {
    fn new(
        outbox_cap: usize,
        push_write_timeout: Duration,
        evict_bytes: usize,
        evict_age: Option<Duration>,
        durable: Option<Arc<DurableStore>>,
    ) -> Arc<Subscriptions> {
        let subs = Subscriptions {
            by_handler: (0..STATE_STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
            outbox: (0..STATE_STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            outbox_cap: outbox_cap.max(1),
            push_write_timeout,
            evict_bytes,
            evict_age,
            evict_queue: Mutex::new(Vec::new()),
            pushes_shed: AtomicU64::new(0),
            durable,
            acked: Mutex::new(Vec::new()),
        };
        subs.restore();
        Arc::new(subs)
    }

    fn handlers(&self, handler: &str) -> &RwLock<HashMap<String, Vec<Subscriber>>> {
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
            let restored_at = Instant::now();
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
                // The original enqueue instant did not survive the
                // restart; the age clock restarts, which fails toward
                // keeping (not evicting) recovered frames.
                h.enqueued_at.insert(seq, restored_at);
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
                    h.enqueued_at.clear();
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
    fn claim_owner(&self, handler: &str, authed: Option<u64>) -> bool {
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
                &[StoreOp::Put {
                    key: journal::push_seq_key(handler),
                    value: journal::seal(&push_seq_value(next_seq, Some(claimed))),
                }],
            );
        }
        true
    }

    /// Whether `authed` may act on `handler`'s outbox (ack pushes).
    /// Unclaimed handlers are open; claimed ones admit only the owner.
    fn may_touch(&self, handler: &str, authed: Option<u64>) -> bool {
        let ob = self.outbox_stripe(handler).lock();
        match ob.get(handler).and_then(|h| h.owner) {
            Some(o) => authed == Some(o),
            None => true,
        }
    }

    /// Resurrect a dead-lettered handler on an authorized re-subscribe:
    /// clear the tombstone and resume the preserved sequence counter.
    /// Returns whether a resurrection happened.
    fn resurrect(&self, handler: &str) -> bool {
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
                &[
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

    /// Add `session` as a server for `handler`. Registers the engine
    /// proxy on the first subscriber.
    fn subscribe(
        self: &Arc<Self>,
        db: &ActiveDatabase,
        handler: &str,
        session: u64,
        writer: Arc<Mutex<TcpStream>>,
    ) {
        let mut map = self.handlers(handler).write();
        let subs = map.entry(handler.to_owned()).or_default();
        if !subs.iter().any(|s| s.session == session) {
            subs.push(Subscriber { session, writer });
        }
        if subs.len() == 1 {
            let me = Arc::clone(self);
            let name = handler.to_owned();
            db.register_handler(handler, move |request, args| {
                me.deliver(&name, request, args)
            });
        }
    }

    /// Remove `session` from `handler`'s subscribers; unregisters the
    /// proxy when the list empties.
    fn unsubscribe(&self, db: &ActiveDatabase, handler: &str, session: u64) {
        let mut map = self.handlers(handler).write();
        if let Some(subs) = map.get_mut(handler) {
            subs.retain(|s| s.session != session);
            if subs.is_empty() {
                map.remove(handler);
                db.unregister_handler(handler);
            }
        }
    }

    /// Remove `session` from every handler it serves.
    fn drop_session(&self, db: &ActiveDatabase, session: u64) {
        for stripe in &self.by_handler {
            let mut map = stripe.write();
            map.retain(|handler, subs| {
                subs.retain(|s| s.session != session);
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
    /// The frame is sequenced and enqueued in the outbox
    /// (persisted *before* the socket write, so a crash between the
    /// two redelivers rather than loses) and delivery succeeds as soon
    /// as the frame is retained — even if every socket write fails, a
    /// reconnecting subscriber picks it up on re-subscribe. Delivery
    /// fails only when nobody subscribes to the handler at all or the
    /// outbox is full (backpressure into the triggering rule action).
    /// Batched fan-out: the frame is encoded **once** and written to
    /// every subscriber in two phases. Phase 1 writes opportunistically
    /// (non-blocking — a subscriber whose socket has room costs one
    /// syscall and never waits on its peers); phase 2 finishes the
    /// stragglers with a bounded blocking write, so one wedged
    /// subscriber delays only itself, up to `push_write_timeout`, and
    /// is then culled. Its unacked frames stay in the outbox for
    /// redelivery — per-subscriber backpressure without loss.
    fn deliver(
        &self,
        handler: &str,
        request: &str,
        args: &HashMap<String, Value>,
    ) -> HipacResult<()> {
        let subscribers: Vec<Subscriber> = match self.handlers(handler).read().get(handler) {
            Some(subs) => subs.clone(),
            None => Vec::new(),
        };
        if subscribers.is_empty() {
            return Err(HipacError::NoApplicationHandler(handler.to_owned()));
        }
        let frame = {
            let mut ob = self.outbox_stripe(handler).lock();
            let h = ob.entry(handler.to_owned()).or_default();
            if h.evicted {
                self.pushes_shed.fetch_add(1, Ordering::Relaxed);
                return Err(HipacError::InUse(format!(
                    "handler dead-lettered (subscriber evicted): {handler}"
                )));
            }
            // Slow-subscriber policy: an outbox past its byte or age
            // budget is dead-lettered instead of backpressured forever.
            // `deliver` runs on rule-firing threads inside transactions,
            // so it only *decides* here; the durable GC, teardown, and
            // `SubscriberEvicted` signal run on the eviction housekeeper.
            let bytes_blown = self.evict_bytes > 0 && h.bytes as usize >= self.evict_bytes;
            let age_blown = self.evict_age.is_some_and(|limit| {
                h.enqueued_at
                    .values()
                    .next()
                    .is_some_and(|oldest| oldest.elapsed() > limit)
            });
            if bytes_blown || age_blown {
                h.evicted = true;
                self.evict_queue.lock().push(EvictNotice {
                    handler: handler.to_owned(),
                    next_seq: h.next_seq,
                    seqs: h.unacked.keys().copied().collect(),
                    unacked: h.unacked.len() as u64,
                    bytes: h.bytes,
                    reason: if bytes_blown { "bytes" } else { "age" },
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
                if let Err(e) = d.commit(TxnId(0), &ops) {
                    ops.truncate(n_acked);
                    self.acked.lock().extend(ops);
                    return Err(e);
                }
            }
            h.bytes += frame.len() as u64;
            h.enqueued_at.insert(seq, Instant::now());
            h.unacked.insert(seq, frame.clone());
            frame
        };
        // Phase 1: one opportunistic pass over everyone.
        let mut pending: Vec<(usize, usize)> = Vec::new(); // (subscriber, bytes already written)
        let mut dead = Vec::new();
        for (i, sub) in subscribers.iter().enumerate() {
            let mut w = sub.writer.lock();
            match crate::reactor::try_write_prefix(&mut w, &frame) {
                Ok(n) if n == frame.len() => {}
                Ok(n) => pending.push((i, n)),
                Err(_) => dead.push(sub.session),
            }
        }
        // Phase 2: bounded blocking finish for the backed-up sockets.
        for (i, off) in pending {
            let sub = &subscribers[i];
            let mut w = sub.writer.lock();
            if crate::reactor::write_all_timeout(&mut w, &frame[off..], self.push_write_timeout)
                .is_err()
            {
                dead.push(sub.session);
            }
        }
        if !dead.is_empty() {
            let mut map = self.handlers(handler).write();
            if let Some(subs) = map.get_mut(handler) {
                subs.retain(|s| !dead.contains(&s.session));
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
    fn ack(&self, handler: &str, seq: u64) {
        let removed = {
            let mut ob = self.outbox_stripe(handler).lock();
            ob.get_mut(handler)
                .map(|h| match h.unacked.remove(&seq) {
                    Some(frame) => {
                        h.enqueued_at.remove(&seq);
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
    fn flush_acks(&self) {
        let Some(d) = &self.durable else { return };
        let ops = std::mem::take(&mut *self.acked.lock());
        if !ops.is_empty() {
            let _ = d.commit(TxnId(0), &ops);
        }
    }

    /// Write every unacked frame of `handler` to `writer` in sequence
    /// order (a freshly subscribed session catching up). Returns how
    /// many frames were redelivered.
    fn redeliver(&self, handler: &str, writer: &Arc<Mutex<TcpStream>>) -> u64 {
        let frames: Vec<Vec<u8>> = {
            let ob = self.outbox_stripe(handler).lock();
            match ob.get(handler) {
                Some(h) => h.unacked.values().cloned().collect(),
                None => Vec::new(),
            }
        };
        let mut n = 0u64;
        let mut w = writer.lock();
        for frame in &frames {
            if crate::reactor::write_all_timeout(&mut w, frame, self.push_write_timeout).is_err() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Total unacked push frames across all handlers (test/ops gauge).
    fn unacked_total(&self) -> u64 {
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
}

/// Bytes of WAL tail read per shipping round per replica.
const SHIP_WINDOW: usize = 256 * 1024;

/// Per-peer `(lsn, fold)` digest checkpoints retained for anti-entropy
/// comparison. A progress report whose LSN has already been pruned
/// simply skips the comparison (detection is best-effort, never a
/// correctness gate).
const DIGEST_LOG_CAP: usize = 256;

/// One replica connection registered via `ReplSubscribe`.
struct ReplPeer {
    session: u64,
    writer: Arc<Mutex<TcpStream>>,
    /// Next LSN to ship to this peer (the WAL read resume point; it
    /// advances past checkpoint/abort markers).
    shipped: u64,
    /// Stream-chain position: the last shipped batch's `next_lsn` (or
    /// the subscribe/snapshot LSN). This is exactly the watermark the
    /// peer holds after applying everything shipped so far, and is
    /// sent as each batch's `prev_lsn` so the peer can detect gaps.
    chained: u64,
    /// Highest LSN the peer has reported durably applied.
    progress: u64,
    /// Incremental fold of every batch digest shipped to this peer
    /// since subscribe/snapshot — the primary's half of the
    /// anti-entropy exchange (see [`hipac_storage::fold_digest`]).
    fold: u64,
    /// Recent `(chained_lsn, fold)` checkpoints, bounded at
    /// [`DIGEST_LOG_CAP`]: a progress report's digest is compared at
    /// its exact applied LSN.
    digest_log: VecDeque<(u64, u64)>,
    /// Last digest comparison outcome (true until proven otherwise).
    digest_ok: bool,
    /// Ship a full snapshot before any batches: the peer subscribed
    /// from an older epoch, so its watermark lives in a dead LSN space
    /// and must not be used as a WAL resume point.
    force_snapshot: bool,
    /// Socket write failed; the peer is culled after the round.
    dead: bool,
}

/// Replica acks required to release a semi-sync commit: a majority of
/// the full fleet (the N connected replicas plus this primary),
/// ⌈(N+1)/2⌉. One replica → 1 (it must ack, as before multi-replica
/// fan-out existed); three replicas → 2, so one crashed or lagging
/// replica no longer degrades every commit to asynchronous.
fn quorum_of(n_peers: u64) -> u64 {
    if n_peers == 0 {
        0
    } else {
        (n_peers + 2) / 2
    }
}

/// How long a blocked write to a replica socket may stall the shipper
/// before the peer is declared dead and culled (it will reconnect and
/// resubscribe from its durable watermark).
const REPL_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Primary-side replication hub: the registry of subscribed replica
/// connections plus the single shipper thread that streams committed
/// WAL batches to each of them — or a full snapshot when a replica's
/// resume LSN has been truncated away by a checkpoint
/// (`TailRead::OutOfRange`).
///
/// The hub also carries the semi-sync gate: sessions and the drain
/// path call [`ReplHub::wait_caught_up`] to hold an ack (or the
/// shutdown) until every connected replica has applied up to the
/// durable frontier.
struct ReplHub {
    /// `None` for in-memory databases, which cannot be replicated
    /// (there is no WAL to ship); `ReplSubscribe` is refused.
    durable: Option<Arc<DurableStore>>,
    counters: Arc<ReplCounters>,
    peers: Mutex<Vec<ReplPeer>>,
    /// Whether semi-sync acks are configured — reported as the
    /// `repl_quorum` gauge (0 when off, the required ack count when
    /// on).
    sync: bool,
    /// Set when this node observes a replication epoch newer than its
    /// own: a promotion happened elsewhere while this node thought it
    /// was primary. From then on every write-class command is refused
    /// with `NotPrimary` (split-brain fence) until the operator
    /// rejoins the node as a replica of the new epoch's primary.
    fenced: AtomicBool,
}

impl ReplHub {
    fn new(
        durable: Option<Arc<DurableStore>>,
        counters: Arc<ReplCounters>,
        sync: bool,
    ) -> Arc<ReplHub> {
        // Seed the epoch gauges from the persisted sidecar so STATS
        // serves the fence coordinates from the first request on.
        if let Some(d) = &durable {
            counters.epoch.store(d.repl_epoch(), Ordering::Relaxed);
            let (prev, start) = d.repl_fence();
            counters.fence_prev.store(prev, Ordering::Relaxed);
            counters.fence_start.store(start, Ordering::Relaxed);
        }
        // Healthy until a semi-sync wait proves otherwise. A persisted
        // fence marker (set when this node learned it was deposed, not
        // yet repaired by rejoin) re-arms the write fence on restart.
        counters.quorum_ok.store(1, Ordering::Relaxed);
        let fenced = durable.as_ref().is_some_and(|d| d.repl_fenced());
        Arc::new(ReplHub {
            durable,
            counters,
            peers: Mutex::new(Vec::new()),
            sync,
            fenced: AtomicBool::new(fenced),
        })
    }

    /// The replication epoch this node operates under (0 for in-memory
    /// databases, which cannot be fenced).
    fn epoch(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.repl_epoch())
    }

    /// Demote this node: persist the newer epoch *with the fence
    /// marker set* — so the fence survives a restart, can never be
    /// un-observed, and `ReplicaNode::rejoin` still knows the local
    /// WAL carries an unrepaired divergent tail — and refuse writes
    /// from now on.
    fn fence(&self, new_epoch: u64) {
        self.fenced.store(true, Ordering::Release);
        self.counters.stale_epochs.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = &self.durable {
            let _ = d.fence_epoch(new_epoch);
        }
        self.counters.epoch.fetch_max(new_epoch, Ordering::Relaxed);
    }

    /// Register (or re-register) `session`'s connection as a replica
    /// resuming from `start_lsn`. The shipper validates the LSN lazily:
    /// an unusable resume point simply produces a snapshot. A peer
    /// subscribing from an older epoch gets an unconditional snapshot —
    /// its LSNs belong to a superseded primary's WAL and must never be
    /// interpreted in this one.
    ///
    /// Callers must invoke this only *after* the `ReplSubscribe` Ok
    /// response frame has been written to the socket — registering
    /// earlier lets the shipper interleave repl frames ahead of the
    /// Ok, which the replica's handshake would have to reorder.
    fn subscribe(
        &self,
        session: u64,
        writer: Arc<Mutex<TcpStream>>,
        start_lsn: u64,
        peer_epoch: u64,
    ) {
        // A wedged replica must not block the shipper forever: writes
        // go through `write_all_timeout(REPL_WRITE_TIMEOUT)` (sockets
        // are non-blocking under the reactor), the peer is culled, and
        // the replica resubscribes.
        //
        // Any peer that cannot prove it observed this node's epoch —
        // e.g. one that slept through the promotion and still offers
        // epoch 0 — gets a snapshot: its watermark may have been minted
        // under a deposed primary's WAL. A never-promoted fleet has
        // epoch 0 itself, so peers there resume from their LSN.
        let force_snapshot = peer_epoch < self.epoch();
        let mut peers = self.peers.lock();
        peers.retain(|p| p.session != session);
        peers.push(ReplPeer {
            session,
            writer,
            shipped: start_lsn,
            chained: start_lsn,
            progress: start_lsn,
            fold: 0,
            digest_log: VecDeque::from([(start_lsn, 0)]),
            digest_ok: true,
            force_snapshot,
            dead: false,
        });
        drop(peers);
        self.refresh_gauges();
    }

    fn drop_session(&self, session: u64) {
        self.peers.lock().retain(|p| p.session != session);
        self.refresh_gauges();
    }

    fn peer_count(&self) -> usize {
        self.peers.lock().len()
    }

    /// A replica reported durable application up to `applied_lsn`,
    /// carrying its incremental stream digest. Folds the best
    /// progress across peers into the shared counters and compares the
    /// peer's digest against the primary-side fold at the same LSN.
    fn record_progress(&self, session: u64, applied_lsn: u64, digest: u64) {
        let best = {
            let mut peers = self.peers.lock();
            let mut best = 0u64;
            for p in peers.iter_mut() {
                if p.session == session {
                    p.progress = p.progress.max(applied_lsn);
                    if let Some(&(_, expect)) = p.digest_log.iter().find(|(l, _)| *l == applied_lsn)
                    {
                        let ok = expect == digest;
                        if !ok {
                            self.counters.digest_mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                        p.digest_ok = ok;
                    }
                    // Checkpoints at or before the report can never be
                    // asked about again (progress is monotone).
                    while p.digest_log.front().is_some_and(|(l, _)| *l < applied_lsn) {
                        p.digest_log.pop_front();
                    }
                }
                best = best.max(p.progress);
            }
            best
        };
        if let Some(d) = &self.durable {
            self.counters.record_applied(best, d.durable_lsn());
        }
        self.refresh_gauges();
    }

    /// Fold per-peer state into the shared gauges: peer count, the
    /// quorum-limiting watermark, digest agreement, and the required
    /// semi-sync ack count.
    fn refresh_gauges(&self) {
        let (n, min, digest_ok) = {
            let peers = self.peers.lock();
            (
                peers.len() as u64,
                peers.iter().map(|p| p.progress).min().unwrap_or(0),
                peers.iter().filter(|p| p.digest_ok).count() as u64,
            )
        };
        self.counters.peers.store(n, Ordering::Relaxed);
        self.counters.min_peer_applied.store(min, Ordering::Relaxed);
        self.counters.digest_ok_peers.store(digest_ok, Ordering::Relaxed);
        self.counters
            .quorum
            .store(if self.sync { quorum_of(n) } else { 0 }, Ordering::Relaxed);
    }

    /// One shipping round over all peers. Returns whether any bytes
    /// moved (the shipper thread sleeps when nothing did).
    ///
    /// The peers mutex is held only to snapshot the peer list and to
    /// commit results afterwards — never across socket I/O — so
    /// progress reports, (re)subscribes, session teardown and the
    /// semi-sync gate can never stall behind a slow replica's socket
    /// (writes additionally carry [`REPL_WRITE_TIMEOUT`], bounding how
    /// long the shipper itself can wedge on one peer).
    fn ship_once(&self) -> bool {
        let Some(d) = &self.durable else { return false };
        struct Target {
            session: u64,
            writer: Arc<Mutex<TcpStream>>,
            shipped: u64,
            chained: u64,
            fold: u64,
            force_snapshot: bool,
        }
        let targets: Vec<Target> = self
            .peers
            .lock()
            .iter()
            .map(|p| Target {
                session: p.session,
                writer: Arc::clone(&p.writer),
                shipped: p.shipped,
                chained: p.chained,
                fold: p.fold,
                force_snapshot: p.force_snapshot,
            })
            .collect();
        if targets.is_empty() {
            return false;
        }
        let epoch = d.repl_epoch();
        let mut worked = false;
        struct Outcome {
            session: u64,
            pre_shipped: u64,
            shipped: u64,
            chained: u64,
            fold: u64,
            /// New `(lsn, fold)` digest checkpoints from this round;
            /// `reseed` replaces the peer's log instead of appending
            /// (snapshot: the stream fold restarts from zero).
            log: Vec<(u64, u64)>,
            reseed: bool,
            dead: bool,
        }
        let mut outcomes: Vec<Outcome> = Vec::new();
        for t in targets {
            let durable_lsn = d.durable_lsn();
            let pre_shipped = t.shipped;
            let mut shipped = t.shipped;
            let mut chained = t.chained;
            let mut fold = t.fold;
            let mut log: Vec<(u64, u64)> = Vec::new();
            let mut reseed = false;
            let mut dead = false;
            if t.force_snapshot {
                // Stale-epoch subscriber: its watermark is from a dead
                // LSN space; bootstrap it with a snapshot immediately.
                match Self::ship_snapshot(d, &t.writer, epoch) {
                    Some(snapshot_lsn) => {
                        shipped = snapshot_lsn;
                        chained = snapshot_lsn;
                        fold = 0;
                        log = vec![(snapshot_lsn, 0)];
                        reseed = true;
                    }
                    None => dead = true,
                }
                worked = true;
            } else if shipped < durable_lsn {
                match d.read_batches_from(shipped, SHIP_WINDOW as u64) {
                    Ok(TailRead::Batches { batches, next_lsn, .. }) => {
                        if next_lsn > shipped || !batches.is_empty() {
                            let mut w = t.writer.lock();
                            for b in &batches {
                                let frame = Frame::Repl(ReplMsg::Batch {
                                    prev_lsn: chained,
                                    start_lsn: b.start_lsn,
                                    next_lsn: b.next_lsn,
                                    txn: b.txn,
                                    ops: b.ops.clone(),
                                    epoch,
                                })
                                .encode();
                                if crate::reactor::write_all_timeout(
                                    &mut w,
                                    &frame,
                                    REPL_WRITE_TIMEOUT,
                                )
                                .is_err()
                                {
                                    dead = true;
                                    break;
                                }
                                chained = b.next_lsn;
                                fold = hipac_storage::fold_digest(
                                    fold,
                                    hipac_storage::batch_digest(b.next_lsn, b.txn, &b.ops),
                                );
                                log.push((b.next_lsn, fold));
                            }
                            if !dead && next_lsn > shipped {
                                shipped = next_lsn;
                                worked = true;
                            }
                        }
                    }
                    Ok(TailRead::OutOfRange { .. }) => {
                        // The peer's resume point predates the oldest
                        // retained WAL (checkpoint truncation) or is
                        // misaligned: re-seed it with a full snapshot.
                        match Self::ship_snapshot(d, &t.writer, epoch) {
                            Some(snapshot_lsn) => {
                                shipped = snapshot_lsn;
                                chained = snapshot_lsn;
                                fold = 0;
                                log = vec![(snapshot_lsn, 0)];
                                reseed = true;
                            }
                            None => dead = true,
                        }
                        worked = true;
                    }
                    Err(_) => {}
                }
            }
            outcomes.push(Outcome {
                session: t.session,
                pre_shipped,
                shipped,
                chained,
                fold,
                log,
                reseed,
                dead,
            });
        }
        let mut best_shipped = 0u64;
        {
            let mut peers = self.peers.lock();
            for o in outcomes {
                if let Some(p) = peers.iter_mut().find(|p| p.session == o.session) {
                    if o.dead {
                        p.dead = true;
                    } else if p.shipped == o.pre_shipped {
                        // Unchanged since the snapshot: commit the
                        // round. (A concurrent resubscribe rewinds
                        // `shipped`; its fresh resume point must win
                        // over this stale round's.)
                        p.shipped = o.shipped;
                        p.chained = o.chained;
                        p.fold = o.fold;
                        if o.reseed {
                            p.digest_log = o.log.into_iter().collect();
                            p.digest_ok = true;
                            p.force_snapshot = false;
                        } else {
                            p.digest_log.extend(o.log);
                            while p.digest_log.len() > DIGEST_LOG_CAP {
                                p.digest_log.pop_front();
                            }
                        }
                    }
                }
            }
            peers.retain(|p| !p.dead);
            for p in peers.iter() {
                best_shipped = best_shipped.max(p.shipped);
            }
        }
        if best_shipped > 0 {
            self.counters
                .last_shipped_lsn
                .fetch_max(best_shipped, Ordering::Relaxed);
        }
        worked
    }

    /// Stream a consistent full-state snapshot to `writer`. Returns
    /// the snapshot frontier LSN — the peer's new resume point — or
    /// `None` on a socket failure.
    fn ship_snapshot(
        d: &Arc<DurableStore>,
        writer: &Mutex<TcpStream>,
        epoch: u64,
    ) -> Option<u64> {
        let (snapshot_lsn, pairs) = d.snapshot_for_repl().ok()?;
        let mut w = writer.lock();
        let send = |w: &mut TcpStream, frame: &[u8]| {
            crate::reactor::write_all_timeout(w, frame, REPL_WRITE_TIMEOUT).is_ok()
        };
        let begin = Frame::Repl(ReplMsg::SnapshotBegin { snapshot_lsn }).encode();
        if !send(&mut w, &begin) {
            return None;
        }
        // Chunk by payload volume so no frame approaches the cap.
        let mut chunk: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut chunk_bytes = 0usize;
        for (k, v) in pairs {
            chunk_bytes += k.len() + v.len() + 16;
            chunk.push((k, v));
            if chunk_bytes >= SHIP_WINDOW {
                let frame = Frame::Repl(ReplMsg::SnapshotChunk {
                    pairs: std::mem::take(&mut chunk),
                })
                .encode();
                chunk_bytes = 0;
                if !send(&mut w, &frame) {
                    return None;
                }
            }
        }
        if !chunk.is_empty() {
            let frame = Frame::Repl(ReplMsg::SnapshotChunk { pairs: chunk }).encode();
            if !send(&mut w, &frame) {
                return None;
            }
        }
        let end = Frame::Repl(ReplMsg::SnapshotEnd {
            snapshot_lsn,
            epoch,
        })
        .encode();
        if !send(&mut w, &end) {
            return None;
        }
        Some(snapshot_lsn)
    }

    /// Advertise the durable frontier to idle peers. As with
    /// [`ReplHub::ship_once`], socket writes happen outside the peers
    /// lock.
    fn heartbeat(&self) {
        let Some(d) = &self.durable else { return };
        let durable_lsn = d.durable_lsn();
        let epoch = d.repl_epoch();
        let writers: Vec<(u64, Arc<Mutex<TcpStream>>)> = self
            .peers
            .lock()
            .iter()
            .map(|p| (p.session, Arc::clone(&p.writer)))
            .collect();
        let frame = Frame::Repl(ReplMsg::Heartbeat { durable_lsn, epoch }).encode();
        let mut dead = Vec::new();
        for (session, w) in writers {
            if crate::reactor::write_all_timeout(&mut w.lock(), &frame, REPL_WRITE_TIMEOUT).is_err()
            {
                dead.push(session);
            }
        }
        if !dead.is_empty() {
            self.peers.lock().retain(|p| !dead.contains(&p.session));
        }
        self.refresh_gauges();
    }

    /// Block until a quorum of the connected replicas — ⌈(N+1)/2⌉ of
    /// N, see [`quorum_of`] — has reported progress at or past the
    /// current durable frontier, or `timeout` passes. Vacuously true
    /// with no peers or no WAL; with three replicas, one crashed or
    /// lagging peer no longer degrades every commit to asynchronous.
    fn wait_caught_up(&self, timeout: Duration) -> bool {
        let Some(d) = &self.durable else { return true };
        let lsn = d.durable_lsn();
        let deadline = Instant::now() + timeout;
        loop {
            let (n, caught) = {
                let peers = self.peers.lock();
                (
                    peers.len() as u64,
                    peers.iter().filter(|p| p.progress >= lsn).count() as u64,
                )
            };
            if caught >= quorum_of(n) {
                self.counters.quorum_ok.store(1, Ordering::Relaxed);
                return true;
            }
            if Instant::now() >= deadline {
                self.counters.quorum_ok.store(0, Ordering::Relaxed);
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Cross-session resilience state: gauges served over STATS, the
/// admission-control budget, and the idempotency window.
struct ServerShared {
    /// Live sessions (a gauge: incremented at session start,
    /// decremented at teardown).
    active_connections: AtomicU64,
    /// Requests shed by admission control with an `Overloaded` error.
    shed_requests: AtomicU64,
    /// Requests answered from the dedup window instead of re-executing.
    dedup_hits: AtomicU64,
    /// Dedup hits served from the persistent reply journal after a
    /// restart (a subset of `dedup_hits`): retries whose original
    /// committed in a previous process incarnation.
    journal_replays: AtomicU64,
    /// Requests shed by the adaptive queueing-delay signal (a subset
    /// of neither — counted separately from `shed_requests`).
    shed_adaptive: AtomicU64,
    /// Push frames redelivered from the outbox on re-subscribe.
    pushes_redelivered: AtomicU64,
    /// EWMA of dispatch time in microseconds (the adaptive admission
    /// signal).
    ewma_us: AtomicU64,
    /// Requests currently in dispatch (the admission gauge).
    in_flight: AtomicU64,
    /// Set by [`HipacServer::drain`]: refuse new connections and new
    /// requests while in-flight work finishes.
    draining: AtomicBool,
    /// Set when a dispatch surfaced a storage `Io` error on a durable
    /// database: the in-memory engine may have diverged from the WAL,
    /// so every further request is refused (`Draining`) until the
    /// operator restarts against the data dir. Refusing is what makes
    /// an Io outcome *safe* to leave ambiguous — the retry resolves it
    /// against the recovered journal, not against poisoned state.
    storage_poisoned: AtomicBool,
    /// Idempotency window, striped by client-id hash ([`stripe_of_u64`])
    /// so sessions served from different reactor shards never contend
    /// on one global lock — and so the *same* client always probes the
    /// same stripe no matter which shard its reconnected socket lands
    /// on (cross-shard dedup correctness is by key, not by shard).
    dedup: Vec<Mutex<DedupWindow>>,
    /// Journal keys evicted from the in-memory window, awaiting a
    /// piggybacked durable delete on the next journaled commit.
    pending_evictions: Mutex<Vec<(u64, u64)>>,
    /// Keyed requests refused because the session had not proven the
    /// asserted `client_id` (or presented a bad `Auth` token, or tried
    /// to touch another tenant's subscription).
    auth_failures: AtomicU64,
    /// Requests shed by a per-tenant admission gate (cap or per-tenant
    /// queueing-delay signal) — disjoint from the global counters.
    tenant_shed_requests: AtomicU64,
    /// Subscriptions dead-lettered by the slow-subscriber policy.
    subscribers_evicted: AtomicU64,
    /// Per-tenant admission state, striped like the dedup window so
    /// tenants served from different reactor shards never contend on
    /// one lock. Tenant identity is the authenticated client id when
    /// auth is on (id 0 = the shared `unauthenticated` class) and the
    /// asserted client id otherwise.
    tenants: Vec<Mutex<HashMap<u64, Arc<TenantState>>>>,
}

/// One tenant's admission gauges: its in-flight count, its own
/// dispatch-delay EWMA, and how many of its requests were shed.
#[derive(Default)]
struct TenantState {
    in_flight: AtomicU64,
    ewma_us: AtomicU64,
    shed: AtomicU64,
}

/// Soft cap on tenants remembered per stripe; beyond it an *idle*
/// tenant is forgotten to make room, so churning client ids cannot grow
/// the table unboundedly (a tenant with work in flight is never
/// dropped — losing its gauge mid-request would corrupt the counts).
const TENANTS_PER_STRIPE: usize = 64;

impl ServerShared {
    fn new(dedup_window: usize) -> Arc<ServerShared> {
        Arc::new(ServerShared {
            active_connections: AtomicU64::new(0),
            shed_requests: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            journal_replays: AtomicU64::new(0),
            shed_adaptive: AtomicU64::new(0),
            pushes_redelivered: AtomicU64::new(0),
            ewma_us: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            storage_poisoned: AtomicBool::new(false),
            dedup: (0..STATE_STRIPES)
                .map(|_| Mutex::new(DedupWindow::new(dedup_window)))
                .collect(),
            pending_evictions: Mutex::new(Vec::new()),
            auth_failures: AtomicU64::new(0),
            tenant_shed_requests: AtomicU64::new(0),
            subscribers_evicted: AtomicU64::new(0),
            tenants: (0..STATE_STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
        })
    }

    fn dedup_stripe(&self, client: u64) -> &Mutex<DedupWindow> {
        &self.dedup[stripe_of_u64(client)]
    }

    /// The admission state for tenant `id`, created on first sight.
    fn tenant(&self, id: u64) -> Arc<TenantState> {
        let mut map = self.tenants[stripe_of_u64(id)].lock();
        if map.len() >= TENANTS_PER_STRIPE && !map.contains_key(&id) {
            let idle = map
                .iter()
                .find(|(_, t)| t.in_flight.load(Ordering::Acquire) == 0)
                .map(|(k, _)| *k);
            if let Some(idle) = idle {
                map.remove(&idle);
            }
        }
        Arc::clone(map.entry(id).or_default())
    }

    /// Distinct tenants currently tracked (a gauge for Stats).
    fn tenants_active(&self) -> u64 {
        self.tenants.iter().map(|s| s.lock().len() as u64).sum()
    }
}

/// Bounded per-client reply cache keyed by `(client_id, seq)`.
///
/// A retry of an acked-but-lost response replays the cached reply, so
/// the command applies exactly once even though the client sent it
/// twice. Only *definite* outcomes are remembered — shed (`Overloaded`)
/// and draining refusals are returned before insertion, so a later
/// retry of the same `seq` re-executes.
struct DedupWindow {
    per_client: usize,
    clients: HashMap<u64, ClientWindow>,
    /// First-seen order of clients, for eviction at [`Self::MAX_CLIENTS`].
    client_order: VecDeque<u64>,
}

#[derive(Clone)]
struct CachedReply {
    reply: Reply,
    /// The entry also exists in the durable reply journal (its
    /// eviction must piggyback a journal delete).
    journaled: bool,
    /// The entry was rebuilt from the journal at startup — a hit on it
    /// is a cross-restart replay, counted in `journal_replays`.
    restored: bool,
}

#[derive(Default)]
struct ClientWindow {
    replies: HashMap<u64, CachedReply>,
    order: VecDeque<u64>,
    /// Highest sequence ever evicted from this client's window. A miss
    /// at or below the floor is answered with a typed `ReplyEvicted`
    /// refusal instead of silently re-executing: the outcome of that
    /// old request is unknowable, and "definitely refused" is the only
    /// safe answer.
    floor: u64,
}

/// Outcome of a dedup probe, distinguishing a fresh sequence from one
/// whose cached reply was evicted under pressure.
enum DedupProbe {
    Hit(Box<CachedReply>),
    Evicted,
    Miss,
}

impl DedupWindow {
    /// Distinct clients remembered at once; oldest-first eviction
    /// beyond this keeps the window bounded even under client churn.
    const MAX_CLIENTS: usize = 1024;

    fn new(per_client: usize) -> DedupWindow {
        DedupWindow {
            per_client,
            clients: HashMap::new(),
            client_order: VecDeque::new(),
        }
    }

    fn probe(&self, client: u64, seq: u64) -> DedupProbe {
        match self.clients.get(&client) {
            Some(w) => match w.replies.get(&seq) {
                Some(cached) => DedupProbe::Hit(Box::new(cached.clone())),
                None if seq <= w.floor => DedupProbe::Evicted,
                None => DedupProbe::Miss,
            },
            None => DedupProbe::Miss,
        }
    }

    /// Insert a reply; returns the journaled `(client, seq)` entries
    /// this insert evicted, which owe a durable journal delete.
    fn remember(
        &mut self,
        client: u64,
        seq: u64,
        reply: &Reply,
        journaled: bool,
        restored: bool,
    ) -> Vec<(u64, u64)> {
        let mut evicted_journal = Vec::new();
        if self.per_client == 0 {
            return evicted_journal;
        }
        if !self.clients.contains_key(&client) {
            if self.client_order.len() >= Self::MAX_CLIENTS {
                if let Some(old) = self.client_order.pop_front() {
                    if let Some(w) = self.clients.remove(&old) {
                        for (s, c) in &w.replies {
                            if c.journaled {
                                evicted_journal.push((old, *s));
                            }
                        }
                    }
                }
            }
            self.client_order.push_back(client);
        }
        let w = self.clients.entry(client).or_default();
        let cached = CachedReply {
            reply: reply.clone(),
            journaled,
            restored,
        };
        if w.replies.insert(seq, cached).is_none() {
            w.order.push_back(seq);
            if w.order.len() > self.per_client {
                if let Some(old) = w.order.pop_front() {
                    w.floor = w.floor.max(old);
                    if let Some(c) = w.replies.remove(&old) {
                        if c.journaled {
                            evicted_journal.push((client, old));
                        }
                    }
                }
            }
        }
        evicted_journal
    }
}

/// Dispatch-queue depth at which a connection's reads are paused (its
/// `EPOLLIN` interest disarmed) until a worker drains the queue:
/// per-connection backpressure that cannot be bought with memory. A
/// pipelining client slows down; everyone else is unaffected.
const PENDING_CAP: usize = 64;

/// Bound on writing one response frame to a (non-blocking) client
/// socket from a worker; a client that will not drain its own replies
/// is disconnected rather than allowed to pin a worker.
const RESPONSE_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Poller token reserved for a shard's wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// How often a shard sweeps its connections for idle timeouts.
const IDLE_SWEEP_EVERY: Duration = Duration::from_millis(100);

/// Resolved shard count: the explicit knob, or a small default from
/// the machine's parallelism (shards are event loops, not compute —
/// a few go a long way).
fn resolve_shards(knob: usize) -> usize {
    if knob > 0 {
        return knob;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// One unit of per-connection work, ordered through [`ConnQueue`].
enum WorkItem {
    /// A complete request frame read by the owning shard.
    Frame(Vec<u8>),
    /// Session teardown — enqueued by the shard when it retires the
    /// connection, so it runs strictly after every in-flight frame.
    Teardown,
}

/// The per-connection dispatch queue. `busy` marks a worker currently
/// draining it; the shard only submits the connection to the job
/// channel on the false→true transition, so at most one worker works a
/// connection at a time and its requests stay strictly ordered.
struct ConnQueue {
    busy: bool,
    pending: VecDeque<WorkItem>,
}

/// Session state mutated by workers (one at a time, by construction).
struct SessionCore {
    /// The tenant identity this session has proven with `Command::Auth`;
    /// `None` until a valid token arrives. With an `auth_secret`
    /// configured, keyed requests are honored only when their asserted
    /// `client_id` equals this — which is what stops a hostile peer
    /// from replaying another tenant's journal or acking its pushes.
    auth: Option<u64>,
    /// Transactions begun by this session and not yet terminated.
    open_txns: HashSet<TxnId>,
    /// A `ReplSubscribe` accepted but not yet registered with the hub:
    /// `(start_lsn, peer_epoch)`. Registration is deferred until the
    /// Ok response frame has been written to the socket: were the peer
    /// registered first, the shipper could interleave Repl frames
    /// *before* the Ok on the shared writer, and the replica's
    /// handshake would have to cope with replicated data arriving
    /// ahead of the acknowledgement.
    pending_repl: Option<(u64, u64)>,
}

/// Connection state shared between the owning shard (which reads) and
/// the worker pool (which executes and writes).
struct ConnShared {
    id: u64,
    /// The reactor shard owning this connection's socket reads.
    shard: usize,
    writer: Arc<Mutex<TcpStream>>,
    core: Mutex<SessionCore>,
    queue: Mutex<ConnQueue>,
    /// Set by a worker on a doomed connection (response write failed,
    /// protocol violation): queued frames are skipped and the shard
    /// retires the socket at its next wake.
    dead: AtomicBool,
    /// Reads disarmed because the dispatch queue hit [`PENDING_CAP`];
    /// the draining worker asks the shard to re-arm.
    paused: AtomicBool,
}

/// Shard-private per-connection state (owned by the shard thread).
struct ShardConn {
    stream: TcpStream,
    frames: TickReader,
    last_activity: Instant,
    shared: Arc<ConnShared>,
}

/// A shard's mailbox, shared with the accept thread and the workers.
struct ShardHandle {
    /// Freshly admitted sockets awaiting adoption by the shard.
    inbox: Mutex<Vec<TcpStream>>,
    /// Connection ids whose reads should be re-armed (queue drained).
    resume: Mutex<Vec<u64>>,
    /// Write end of the shard's wake pipe.
    wake: Mutex<TcpStream>,
}

/// Everything a worker needs to execute a session's request — the
/// read-only server context threaded through the pool.
struct ServerCtx {
    db: Arc<ActiveDatabase>,
    subs: Arc<Subscriptions>,
    shared: Arc<ServerShared>,
    cfg: ServerConfig,
    /// The durable store for the reply journal (None when journaling
    /// is off or the database is in-memory).
    journal: Option<Arc<DurableStore>>,
    repl: Arc<ReplHub>,
    shards: Vec<Arc<ShardHandle>>,
    /// Resolved shard count, served in `Stats`.
    reactor_shards: usize,
}

/// Append `item` to the connection's queue and submit the connection
/// to the worker pool if no worker is already draining it. Returns the
/// queue depth after the push (the shard's pause signal).
fn enqueue(
    conn: &Arc<ConnShared>,
    item: WorkItem,
    jobs: &crossbeam::channel::Sender<Arc<ConnShared>>,
) -> usize {
    let mut q = conn.queue.lock();
    q.pending.push_back(item);
    let depth = q.pending.len();
    if !q.busy {
        q.busy = true;
        drop(q);
        let _ = jobs.send(Arc::clone(conn));
    }
    depth
}

/// A running network front end over an [`ActiveDatabase`].
///
/// Dropping the server shuts it down gracefully: the listener stops
/// accepting, live sessions finish their in-flight request, open
/// transactions of interrupted sessions abort, and all threads join.
pub struct HipacServer {
    db: Arc<ActiveDatabase>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    /// The original job sender; dropped at shutdown (after the shards —
    /// the only other senders — have joined) to release the workers.
    jobs: Option<crossbeam::channel::Sender<Arc<ConnShared>>>,
    /// Connections refused because the admission cap was reached.
    refused: Arc<AtomicU64>,
    shared: Arc<ServerShared>,
    subscriptions: Arc<Subscriptions>,
    repl: Arc<ReplHub>,
    repl_thread: Option<JoinHandle<()>>,
    /// The slow-subscriber eviction housekeeper (drains
    /// [`Subscriptions::evict_queue`]).
    evict_thread: Option<JoinHandle<()>>,
    ctx: Arc<ServerCtx>,
}

impl HipacServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `db` with default [`ServerConfig`].
    pub fn bind(db: Arc<ActiveDatabase>, addr: impl ToSocketAddrs) -> Result<HipacServer, WireError> {
        HipacServer::bind_with(db, addr, ServerConfig::default())
    }

    /// Bind with explicit configuration.
    pub fn bind_with(
        db: Arc<ActiveDatabase>,
        addr: impl ToSocketAddrs,
        mut config: ServerConfig,
    ) -> Result<HipacServer, WireError> {
        // Deploy-time overrides for the replication cadence knobs, so
        // fleet operators can tune them without recompiling callers.
        if let Some(every) = env_millis("HIPAC_REPL_HEARTBEAT_MS") {
            config.repl_heartbeat_every = every;
        }
        if let Some(degrade) = env_millis("HIPAC_REPL_DEGRADE_MS") {
            config.sync_repl_timeout = degrade;
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept, driven by a poller on the listener fd:
        // new connections accept immediately, and the bounded wait
        // keeps the shutdown flag observable.
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let durable = if config.reply_journal {
            db.durable_store().cloned()
        } else {
            None
        };
        let subscriptions = Subscriptions::new(
            config.outbox_cap,
            config.push_write_timeout,
            config.outbox_evict_bytes,
            config.outbox_evict_age,
            durable.clone(),
        );
        let refused = Arc::new(AtomicU64::new(0));
        let shared = ServerShared::new(config.dedup_window);
        if let Some(d) = &durable {
            load_reply_journal(d, &shared, config.dedup_window);
        }
        // Replication ships the WAL regardless of reply-journal config.
        let repl = ReplHub::new(
            db.durable_store().cloned(),
            Arc::clone(db.repl_counters()),
            config.sync_repl,
        );
        let repl_thread = {
            let hub = Arc::clone(&repl);
            let stop = Arc::clone(&shutdown);
            let beat_every = config.repl_heartbeat_every;
            std::thread::Builder::new()
                .name("hipac-net-repl-ship".to_owned())
                .spawn(move || {
                    let mut last_beat = Instant::now();
                    while !stop.load(Ordering::Acquire) {
                        let worked = hub.ship_once();
                        if last_beat.elapsed() >= beat_every {
                            hub.heartbeat();
                            last_beat = Instant::now();
                        }
                        if !worked {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                })
                .expect("spawn repl shipper thread")
        };
        let n_shards = resolve_shards(config.reactor_shards);
        let mut shard_handles = Vec::with_capacity(n_shards);
        let mut wake_readers = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let (read_end, write_end) = crate::reactor::wake_pair()?;
            shard_handles.push(Arc::new(ShardHandle {
                inbox: Mutex::new(Vec::new()),
                resume: Mutex::new(Vec::new()),
                wake: Mutex::new(write_end),
            }));
            wake_readers.push(read_end);
        }
        let ctx = Arc::new(ServerCtx {
            db: Arc::clone(&db),
            subs: Arc::clone(&subscriptions),
            shared: Arc::clone(&shared),
            cfg: config.clone(),
            journal: durable,
            repl: Arc::clone(&repl),
            shards: shard_handles,
            reactor_shards: n_shards,
        });

        // Rule-visible slow-subscriber policy: the eviction event is
        // defined up front (idempotent — `DuplicateName` on a reopened
        // durable database is fine), pending tombstones from a crash at
        // the eviction point re-enter the queue, and the housekeeper
        // thread finalizes notices off the rule-firing path.
        let _ = db.define_event("SubscriberEvicted", &["handler", "reason", "unacked", "bytes"]);
        {
            let recovered = subscriptions.restore_evictions();
            if !recovered.is_empty() {
                subscriptions.evict_queue.lock().extend(recovered);
            }
        }
        let evict_thread = {
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("hipac-net-evict".to_owned())
                .spawn(move || loop {
                    ctx.subs.flush_acks();
                    let batch: Vec<EvictNotice> =
                        std::mem::take(&mut *ctx.subs.evict_queue.lock());
                    if batch.is_empty() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(ACK_FLUSH_EVERY);
                        continue;
                    }
                    for n in batch {
                        finalize_eviction(&ctx, n);
                    }
                })
                .expect("spawn eviction housekeeper thread")
        };

        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Arc<ConnShared>>();
        let workers = config.workers.max(1);
        let mut worker_threads = Vec::with_capacity(workers);
        for n in 0..workers {
            let rx = job_rx.clone();
            let ctx = Arc::clone(&ctx);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("hipac-net-worker-{n}"))
                    .spawn(move || worker_loop(ctx, rx))
                    .expect("spawn worker thread"),
            );
        }

        let mut shard_threads = Vec::with_capacity(n_shards);
        for (idx, wake_rx) in wake_readers.into_iter().enumerate() {
            let handle = Arc::clone(&ctx.shards[idx]);
            let ctx = Arc::clone(&ctx);
            let jobs = job_tx.clone();
            let stop = Arc::clone(&shutdown);
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("hipac-net-shard-{idx}"))
                    .spawn(move || shard_loop(idx, handle, wake_rx, ctx, jobs, stop))
                    .expect("spawn shard thread"),
            );
        }

        let accept_thread = {
            let stop = Arc::clone(&shutdown);
            let refused = Arc::clone(&refused);
            let ctx = Arc::clone(&ctx);
            // The listener is non-blocking so the shutdown flag stays
            // observable; parking on a poller (instead of sleeping a
            // tick) makes a connection sitting in the backlog accept
            // immediately rather than up to READ_TICK later.
            let accept_poller = crate::reactor::Poller::new()?;
            accept_poller.add(listener.as_raw_fd(), 0)?;
            // Admission cap: at most `workers` connections in active
            // dispatch plus `max_pending` more whose requests wait
            // their turn — same budget the thread-per-session design
            // enforced, now decoupled from connection *count* costs
            // (an admitted idle connection is just an fd).
            let conn_cap = (config.workers.max(1) + config.max_pending).max(1) as u64;
            std::thread::Builder::new()
                .name("hipac-net-accept".to_owned())
                .spawn(move || {
                    let mut rr = 0usize;
                    let mut backlog_events = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if ctx.shared.draining.load(Ordering::Acquire) {
                                    refuse(stream, "Draining", "server is draining");
                                    continue;
                                }
                                if ctx.shared.active_connections.load(Ordering::Acquire)
                                    >= conn_cap
                                {
                                    refused.fetch_add(1, Ordering::Relaxed);
                                    refuse(stream, "ServerBusy", "connection limit reached");
                                    continue;
                                }
                                let _ = stream.set_nodelay(true);
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                ctx.shared.active_connections.fetch_add(1, Ordering::Relaxed);
                                let sh = &ctx.shards[rr % ctx.shards.len()];
                                rr = rr.wrapping_add(1);
                                sh.inbox.lock().push(stream);
                                crate::reactor::signal_wake(&mut *sh.wake.lock());
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                backlog_events.clear();
                                let _ = accept_poller.wait(&mut backlog_events, READ_TICK);
                            }
                            Err(_) => std::thread::sleep(READ_TICK),
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(HipacServer {
            db,
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            shard_threads,
            worker_threads,
            jobs: Some(job_tx),
            refused,
            shared,
            subscriptions,
            repl,
            repl_thread: Some(repl_thread),
            evict_thread: Some(evict_thread),
            ctx,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The database being served.
    pub fn db(&self) -> &Arc<ActiveDatabase> {
        &self.db
    }

    /// Connections refused so far because the pending queue was full.
    pub fn refused_connections(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    /// Requests shed so far by admission control.
    pub fn shed_requests(&self) -> u64 {
        self.shared.shed_requests.load(Ordering::Relaxed)
    }

    /// Requests answered from the idempotency window so far.
    pub fn dedup_hits(&self) -> u64 {
        self.shared.dedup_hits.load(Ordering::Relaxed)
    }

    /// Dedup hits served from the persistent reply journal — retries
    /// whose original committed before a restart.
    pub fn journal_replays(&self) -> u64 {
        self.shared.journal_replays.load(Ordering::Relaxed)
    }

    /// Requests shed so far by the adaptive queueing-delay signal.
    pub fn shed_adaptive(&self) -> u64 {
        self.shared.shed_adaptive.load(Ordering::Relaxed)
    }

    /// Push frames redelivered from the outbox on re-subscribe.
    pub fn pushes_redelivered(&self) -> u64 {
        self.shared.pushes_redelivered.load(Ordering::Relaxed)
    }

    /// Push frames currently awaiting a client ack.
    pub fn unacked_pushes(&self) -> u64 {
        self.subscriptions.unacked_total()
    }

    /// Currently live sessions.
    pub fn active_connections(&self) -> u64 {
        self.shared.active_connections.load(Ordering::Relaxed)
    }

    /// Replica connections currently subscribed to the WAL stream.
    pub fn repl_peers(&self) -> usize {
        self.repl.peer_count()
    }

    /// Keyed requests (or `Auth`/`Subscribe`/`AckPush` attempts)
    /// refused because the session had not proven the identity.
    pub fn auth_failures(&self) -> u64 {
        self.shared.auth_failures.load(Ordering::Relaxed)
    }

    /// Requests shed by a per-tenant admission gate.
    pub fn tenant_shed_requests(&self) -> u64 {
        self.shared.tenant_shed_requests.load(Ordering::Relaxed)
    }

    /// Push deliveries refused because the handler was over budget or
    /// already dead-lettered.
    pub fn pushes_shed(&self) -> u64 {
        self.subscriptions.pushes_shed.load(Ordering::Relaxed)
    }

    /// Subscriptions dead-lettered by the slow-subscriber policy.
    pub fn subscribers_evicted(&self) -> u64 {
        self.shared.subscribers_evicted.load(Ordering::Relaxed)
    }

    /// Distinct tenants currently tracked by admission control.
    pub fn tenants_active(&self) -> u64 {
        self.shared.tenants_active()
    }

    /// Stop accepting, interrupt live sessions at their next reactor
    /// tick, abort their open transactions, and join all threads.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Wake the shards so they observe the flag promptly; each one
        // enqueues a Teardown for every connection it owns on its way
        // out (running after any frames already dispatched).
        for sh in &self.ctx.shards {
            crate::reactor::signal_wake(&mut *sh.wake.lock());
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        // The shards held the only other job senders; dropping ours
        // closes the channel and the workers exit once the teardown
        // queue drains.
        self.jobs = None;
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.repl_thread.take() {
            let _ = t.join();
        }
        // The housekeeper drains its remaining queue before exiting, so
        // a dead-letter decided just before shutdown still signals.
        if let Some(t) = self.evict_thread.take() {
            let _ = t.join();
        }
        // Every thread that could ack is gone: commit the last queued
        // ack deletes, so a clean shutdown leaves no acked row on disk.
        self.subscriptions.flush_acks();
    }

    /// Graceful drain: refuse new connections and new requests (with a
    /// `Draining` error, so clients get a definite answer rather than a
    /// cut socket), let every request already in dispatch finish and
    /// flush its reply, wait for separate-coupled firings already
    /// submitted to the engine, then shut down. Committed transactions
    /// are never lost: a request either completes and is acknowledged,
    /// or is refused before touching the engine.
    pub fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        // In-flight dispatches finish and write their replies before
        // their session observes the stop flag, but waiting here keeps
        // the engine quiet before we quiesce the rule workers.
        while self.shared.in_flight.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.db.quiesce();
        // Finish shipping the committed tail before going away: every
        // connected replica must apply up to the durable frontier (the
        // quiesce above may have committed separate-mode work), so no
        // acknowledged write exists only on this dying node. Bounded —
        // a wedged replica cannot hold the drain hostage forever.
        self.repl.wait_caught_up(Duration::from_secs(5));
        self.shutdown();
    }
}

impl Drop for HipacServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Rebuild the in-memory dedup window from the durable reply journal
/// at startup. Entries are scanned in `(client, seq)` order, so the
/// per-client FIFO keeps the *newest* sequences when a journal holds
/// more than the window; overflow entries (and torn values, whose
/// seal fails) are deleted from storage so the journal stays bounded
/// across restarts.
fn load_reply_journal(d: &Arc<DurableStore>, shared: &Arc<ServerShared>, window: usize) {
    if window == 0 {
        return;
    }
    let entries = match d.scan_prefix(&[journal::REPLY_PREFIX]) {
        Ok(e) => e,
        Err(_) => return,
    };
    let mut dead_keys = Vec::new();
    for (key, value) in entries {
        let Some((client, seq)) = journal::parse_reply_key(&key) else {
            dead_keys.push(key);
            continue;
        };
        let reply = journal::unseal(&value).and_then(|raw| Reply::from_bytes(raw).ok());
        match reply {
            Some(reply) => {
                let evicted = shared
                    .dedup_stripe(client)
                    .lock()
                    .remember(client, seq, &reply, true, true);
                for (c, s) in evicted {
                    dead_keys.push(journal::reply_key(c, s));
                }
            }
            None => dead_keys.push(key),
        }
    }
    if !dead_keys.is_empty() {
        let ops: Vec<StoreOp> = dead_keys
            .into_iter()
            .map(|key| StoreOp::Delete { key })
            .collect();
        let _ = d.commit(TxnId(0), &ops);
    }
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
fn finalize_eviction(ctx: &Arc<ServerCtx>, n: EvictNotice) {
    if let Some(d) = &ctx.subs.durable {
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
        let _ = d.commit(TxnId(0), &ops);
    }
    {
        let mut ob = ctx.subs.outbox_stripe(&n.handler).lock();
        if let Some(h) = ob.get_mut(&n.handler) {
            h.unacked.clear();
            h.enqueued_at.clear();
            h.bytes = 0;
        }
    }
    {
        let mut map = ctx.subs.handlers(&n.handler).write();
        if map.remove(&n.handler).is_some() {
            ctx.db.unregister_handler(&n.handler);
        }
    }
    let mut args = HashMap::new();
    args.insert("handler".to_owned(), Value::Str(n.handler.clone()));
    args.insert("reason".to_owned(), Value::Str(n.reason.to_owned()));
    args.insert("unacked".to_owned(), Value::Int(n.unacked as i64));
    args.insert("bytes".to_owned(), Value::Int(n.bytes as i64));
    if ctx.subs.durable.is_some() {
        journal::set_pending_ops(vec![StoreOp::Put {
            key: journal::evict_key(&n.handler),
            value: journal::seal(&evict_record(n.next_seq, EVICT_DONE, n.unacked, n.bytes)),
        }]);
    }
    let _ = ctx
        .db
        .run_top(|t| ctx.db.signal_event("SubscriberEvicted", args.clone(), Some(t)));
    if let Some(ops) = journal::take_pending_ops() {
        // The signal never flushed a transactional batch (no rule
        // matched, rule effects were read-only, or the transaction
        // aborted): persist the done marker standalone so the
        // tombstone cannot re-fire forever.
        if let Some(d) = &ctx.subs.durable {
            let _ = d.commit(TxnId(0), &ops);
        }
    }
    ctx.shared.subscribers_evicted.fetch_add(1, Ordering::Relaxed);
}

/// Best-effort typed error frame on a refused connection.
fn refuse(mut stream: TcpStream, kind: &str, message: &str) {
    let frame = Frame::Response {
        id: 0,
        reply: Reply::Err {
            kind: kind.to_owned(),
            message: message.to_owned(),
        },
    };
    let _ = stream.write_all(&frame.encode());
}

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// Resumable frame reader for sockets with a short read timeout.
///
/// `poll` accumulates bytes across timeout ticks, so a frame split
/// across ticks never desynchronizes the stream — partial reads park in
/// the buffer until the frame completes.
struct TickReader {
    /// Frame length once the 4-byte header is complete.
    want: Option<usize>,
    buf: Vec<u8>,
    filled: usize,
}

impl TickReader {
    fn new() -> TickReader {
        TickReader {
            want: None,
            buf: vec![0u8; 4],
            filled: 0,
        }
    }

    /// Try to complete one frame. `Ok(Some(payload))` when a full frame
    /// arrived, `Ok(None)` when the read tick expired first, `Err` on
    /// EOF, oversized frame, or transport error.
    fn poll(&mut self, stream: &mut TcpStream) -> Result<Option<Vec<u8>>, WireError> {
        use std::io::Read;
        loop {
            let target = self.buf.len();
            while self.filled < target {
                match stream.read(&mut self.buf[self.filled..]) {
                    Ok(0) => return Err(WireError::Io("connection closed".into())),
                    Ok(n) => self.filled += n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return Ok(None)
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            match self.want {
                None => {
                    let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                        as usize;
                    if len > crate::proto::MAX_FRAME {
                        return Err(WireError::Protocol(format!(
                            "frame of {len} bytes exceeds cap"
                        )));
                    }
                    self.want = Some(len);
                    self.buf = vec![0u8; len];
                    self.filled = 0;
                }
                Some(_) => {
                    let payload = std::mem::replace(&mut self.buf, vec![0u8; 4]);
                    self.want = None;
                    self.filled = 0;
                    return Ok(Some(payload));
                }
            }
        }
    }
}

/// The reactor shard event loop: adopts admitted sockets, reads frames
/// from every connection it owns, and dispatches complete frames to
/// the worker pool through per-connection queues. All socket reads for
/// a connection happen here — workers only write.
fn shard_loop(
    idx: usize,
    handle: Arc<ShardHandle>,
    mut wake_rx: TcpStream,
    ctx: Arc<ServerCtx>,
    jobs: crossbeam::channel::Sender<Arc<ConnShared>>,
    stop: Arc<AtomicBool>,
) {
    let poller = crate::reactor::Poller::new().expect("create shard poller");
    let _ = poller.add(wake_rx.as_raw_fd(), WAKE_TOKEN);
    let mut conns: HashMap<u64, ShardConn> = HashMap::new();
    let mut events: Vec<(u64, u32)> = Vec::new();
    let mut last_idle_sweep = Instant::now();
    while !stop.load(Ordering::Acquire) {
        events.clear();
        let _ = poller.wait(&mut events, READ_TICK);
        let mut check_dead = false;
        let round: Vec<(u64, u32)> = std::mem::take(&mut events);
        for (token, _flags) in round {
            if token == WAKE_TOKEN {
                crate::reactor::drain_wake(&mut wake_rx);
                check_dead = true;
                continue;
            }
            let Some(sc) = conns.get_mut(&token) else {
                continue;
            };
            let mut kill = false;
            loop {
                if sc.shared.paused.load(Ordering::Acquire) {
                    break;
                }
                match sc.frames.poll(&mut sc.stream) {
                    Ok(Some(payload)) => {
                        sc.last_activity = Instant::now();
                        let depth = enqueue(&sc.shared, WorkItem::Frame(payload), &jobs);
                        if depth >= PENDING_CAP {
                            sc.shared.paused.store(true, Ordering::Release);
                            let _ = poller.set_readable(sc.stream.as_raw_fd(), token, false);
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        kill = true;
                        break;
                    }
                }
            }
            if kill {
                if let Some(sc) = conns.remove(&token) {
                    retire(&poller, sc, &jobs);
                }
            }
        }
        // Adoption and resumes are signaled through the wake pipe, but
        // checking the mailboxes every pass keeps the fallback poller
        // (whose wakes are advisory) correct too.
        for stream in handle.inbox.lock().drain(..) {
            adopt(idx, stream, &poller, &mut conns, &ctx);
        }
        for id in handle.resume.lock().drain(..) {
            if let Some(sc) = conns.get_mut(&id) {
                sc.shared.paused.store(false, Ordering::Release);
                // Level-triggered: buffered bytes re-report on re-arm.
                let _ = poller.set_readable(sc.stream.as_raw_fd(), id, true);
            }
        }
        if check_dead {
            let doomed: Vec<u64> = conns
                .iter()
                .filter(|(_, sc)| sc.shared.dead.load(Ordering::Acquire))
                .map(|(id, _)| *id)
                .collect();
            for id in doomed {
                if let Some(sc) = conns.remove(&id) {
                    retire(&poller, sc, &jobs);
                }
            }
        }
        if last_idle_sweep.elapsed() >= IDLE_SWEEP_EVERY {
            last_idle_sweep = Instant::now();
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, sc)| sc.last_activity.elapsed() >= ctx.cfg.idle_timeout)
                .map(|(id, _)| *id)
                .collect();
            for id in idle {
                if let Some(sc) = conns.remove(&id) {
                    retire(&poller, sc, &jobs);
                }
            }
        }
    }
    // Shutdown: adopt whatever the accept thread already admitted (so
    // the gauge bookkeeping stays uniform), then retire everything.
    // The teardowns run after any frames already dispatched.
    for stream in handle.inbox.lock().drain(..) {
        adopt(idx, stream, &poller, &mut conns, &ctx);
    }
    let ids: Vec<u64> = conns.keys().copied().collect();
    for id in ids {
        if let Some(sc) = conns.remove(&id) {
            retire(&poller, sc, &jobs);
        }
    }
}

/// Register an admitted socket with this shard.
fn adopt(
    shard_idx: usize,
    stream: TcpStream,
    poller: &crate::reactor::Poller,
    conns: &mut HashMap<u64, ShardConn>,
    ctx: &Arc<ServerCtx>,
) {
    let Ok(writer) = stream.try_clone() else {
        // Admission already counted it; undo (no session state exists).
        ctx.shared.active_connections.fetch_sub(1, Ordering::Relaxed);
        return;
    };
    let id = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    if poller.add(stream.as_raw_fd(), id).is_err() {
        ctx.shared.active_connections.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    let shared = Arc::new(ConnShared {
        id,
        shard: shard_idx,
        writer: Arc::new(Mutex::new(writer)),
        core: Mutex::new(SessionCore {
            auth: None,
            open_txns: HashSet::new(),
            pending_repl: None,
        }),
        queue: Mutex::new(ConnQueue {
            busy: false,
            pending: VecDeque::new(),
        }),
        dead: AtomicBool::new(false),
        paused: AtomicBool::new(false),
    });
    conns.insert(
        id,
        ShardConn {
            stream,
            frames: TickReader::new(),
            last_activity: Instant::now(),
            shared,
        },
    );
}

/// Deregister and close a connection's socket, then enqueue its
/// teardown (which runs after any frames already in its queue).
fn retire(
    poller: &crate::reactor::Poller,
    sc: ShardConn,
    jobs: &crossbeam::channel::Sender<Arc<ConnShared>>,
) {
    let _ = poller.del(sc.stream.as_raw_fd());
    let _ = sc.stream.shutdown(std::net::Shutdown::Both);
    enqueue(&sc.shared, WorkItem::Teardown, jobs);
}

/// A dispatch worker: drains per-connection queues handed over by the
/// shards, one connection at a time (the `busy` flag keeps two workers
/// off the same connection, so a session's requests execute in order).
fn worker_loop(ctx: Arc<ServerCtx>, rx: crossbeam::channel::Receiver<Arc<ConnShared>>) {
    while let Ok(conn) = rx.recv() {
        loop {
            let item = {
                let mut q = conn.queue.lock();
                match q.pending.pop_front() {
                    Some(i) => i,
                    None => {
                        q.busy = false;
                        break;
                    }
                }
            };
            match item {
                WorkItem::Frame(payload) => process_frame(&ctx, &conn, payload),
                WorkItem::Teardown => teardown(&ctx, &conn),
            }
        }
        // Drained a paused connection: ask its shard to re-arm reads.
        if conn.paused.load(Ordering::Acquire) && !conn.dead.load(Ordering::Acquire) {
            let sh = &ctx.shards[conn.shard];
            sh.resume.lock().push(conn.id);
            crate::reactor::signal_wake(&mut *sh.wake.lock());
        }
    }
}

/// Execute one request frame and write its response.
fn process_frame(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, payload: Vec<u8>) {
    if conn.dead.load(Ordering::Acquire) {
        return; // doomed by an earlier write failure; skip the backlog
    }
    match Frame::decode(&payload) {
        Ok(Frame::Request { id, meta, command }) => {
            let reply = handle(ctx, conn, meta, command);
            let bytes = Frame::Response { id, reply }.encode();
            let sent = crate::reactor::write_all_timeout(
                &mut conn.writer.lock(),
                &bytes,
                RESPONSE_WRITE_TIMEOUT,
            )
            .is_ok();
            if !sent {
                mark_dead(ctx, conn);
                return;
            }
            let pending = conn.core.lock().pending_repl.take();
            if let Some((start_lsn, peer_epoch)) = pending {
                ctx.repl
                    .subscribe(conn.id, Arc::clone(&conn.writer), start_lsn, peer_epoch);
            }
        }
        // Clients never send responses or pushes; treat as a protocol
        // violation and drop the session.
        _ => mark_dead(ctx, conn),
    }
}

/// Doom a connection from a worker; its shard retires the socket (and
/// enqueues the teardown) at its next wake.
fn mark_dead(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>) {
    if !conn.dead.swap(true, Ordering::AcqRel) {
        let sh = &ctx.shards[conn.shard];
        crate::reactor::signal_wake(&mut *sh.wake.lock());
    }
}

/// Abort open transactions and drop subscriptions on disconnect. Runs
/// on a worker, strictly after the connection's in-flight frames.
fn teardown(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>) {
    ctx.shared.active_connections.fetch_sub(1, Ordering::Relaxed);
    ctx.subs.drop_session(&ctx.db, conn.id);
    ctx.repl.drop_session(conn.id);
    // Abort parents last: aborting a parent cascades to children,
    // making the child abort a no-op error we ignore anyway.
    let mut txns: Vec<TxnId> = conn.core.lock().open_txns.drain().collect();
    txns.sort_by_key(|t| std::cmp::Reverse(t.raw()));
    for t in txns {
        let _ = ctx.db.abort(t);
    }
}

/// The resilience pipeline around [`dispatch`]: idempotency replay
/// (in-memory window, backed by the durable journal across restarts),
/// drain/poison refusal, admission control (static cap + adaptive
/// queueing-delay signal), then the reply is remembered for future
/// retries of the same `(client_id, seq)`. Refusals (`Draining`,
/// `Overloaded`, `ReplyEvicted`) return before the window insert, so a
/// retried `seq` re-executes once capacity is back; `Io` replies are
/// *never* remembered — their outcome is ambiguous in memory and only
/// the recovered journal can answer the retry truthfully.
fn handle(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, meta: RequestMeta, command: Command) -> Reply {
    let keyed = meta.client_id != 0 && meta.seq != 0;
    // Identity gate: with auth enabled, a keyed request is honored
    // only for the session's proven identity. Refusing *before* the
    // dedup probe and before any window/journal insert is what stops a
    // hostile peer asserting a foreign `client_id` from reading that
    // tenant's cached replies — or poisoning its dedup state with
    // refusal entries under sequences the victim has yet to use.
    if keyed
        && ctx.cfg.auth_secret.is_some()
        && conn.core.lock().auth != Some(meta.client_id)
    {
        ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
        return Reply::Err {
            kind: "AuthFailed".to_owned(),
            message: "client_id not authenticated on this session".to_owned(),
        };
    }
    if keyed {
        let probed = ctx
            .shared
            .dedup_stripe(meta.client_id)
            .lock()
            .probe(meta.client_id, meta.seq);
        match probed {
            DedupProbe::Hit(cached) => {
                ctx.shared.dedup_hits.fetch_add(1, Ordering::Relaxed);
                if cached.restored {
                    ctx.shared.journal_replays.fetch_add(1, Ordering::Relaxed);
                }
                return cached.reply;
            }
            DedupProbe::Evicted => {
                return Reply::Err {
                    kind: "ReplyEvicted".to_owned(),
                    message: "idempotency entry evicted; outcome unknown".to_owned(),
                };
            }
            DedupProbe::Miss => {}
        }
    }
    if ctx.shared.storage_poisoned.load(Ordering::Acquire) {
        return Reply::Err {
            kind: "Draining".to_owned(),
            message: "storage failed; server requires restart".to_owned(),
        };
    }
    if ctx.shared.draining.load(Ordering::Acquire) {
        return Reply::Err {
            kind: "Draining".to_owned(),
            message: "server is draining; open transactions will abort".to_owned(),
        };
    }
    // Tenant identity for admission control: the *proven* identity
    // when auth is on (sessions that never sent `Auth` share class 0),
    // the asserted one otherwise.
    let tenant_id = if ctx.cfg.auth_secret.is_some() {
        conn.core.lock().auth.unwrap_or(0)
    } else {
        meta.client_id
    };
    let tenant = ctx.shared.tenant(tenant_id);
    let in_flight = ctx.shared.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
    let tenant_in_flight = tenant.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
    let release = || {
        ctx.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
    };
    if ctx.cfg.max_inflight > 0 && in_flight > ctx.cfg.max_inflight as u64 {
        release();
        ctx.shared.shed_requests.fetch_add(1, Ordering::Relaxed);
        return Reply::Err {
            kind: "Overloaded".to_owned(),
            message: "admission budget exhausted; retry later".to_owned(),
        };
    }
    if ctx.cfg.tenant_max_inflight > 0 && tenant_in_flight > ctx.cfg.tenant_max_inflight as u64 {
        release();
        tenant.shed.fetch_add(1, Ordering::Relaxed);
        ctx.shared.tenant_shed_requests.fetch_add(1, Ordering::Relaxed);
        return Reply::Err {
            kind: "Overloaded".to_owned(),
            message: "tenant admission budget exhausted; retry later".to_owned(),
        };
    }
    if let Some(limit) = ctx.cfg.shed_queue_delay {
        // Adaptive signal, tenant-weighted: shed while dispatches are
        // slower than the target and the *requesting tenant* already
        // has work in flight. A noisy tenant (whose requests pile up)
        // absorbs the shedding its own load causes; a quiet tenant's
        // lone request still admits — and a lone request overall keeps
        // admitting, so the signal can decay.
        let ewma = Duration::from_micros(ctx.shared.ewma_us.load(Ordering::Relaxed));
        if tenant_in_flight >= 2 && ewma > limit {
            release();
            ctx.shared.shed_adaptive.fetch_add(1, Ordering::Relaxed);
            return Reply::Err {
                kind: "Overloaded".to_owned(),
                message: "queueing delay over budget; retry later".to_owned(),
            };
        }
    }
    if let Some(limit) = ctx.cfg.tenant_shed_queue_delay {
        // Per-tenant signal: a tenant whose *own* dispatches run slow
        // sheds itself without the global EWMA ever moving.
        let ewma = Duration::from_micros(tenant.ewma_us.load(Ordering::Relaxed));
        if tenant_in_flight >= 2 && ewma > limit {
            release();
            tenant.shed.fetch_add(1, Ordering::Relaxed);
            ctx.shared.tenant_shed_requests.fetch_add(1, Ordering::Relaxed);
            return Reply::Err {
                kind: "Overloaded".to_owned(),
                message: "tenant queueing delay over budget; retry later".to_owned(),
            };
        }
    }

    // Arm the crash-atomic reply journal for keyed commits: the
    // predicted ack (a commit that succeeds always replies `Ok`)
    // rides the commit's own WAL batch, along with deletes for any
    // entries evicted from the window since the last journaled
    // commit.
    let is_commit = matches!(command, Command::Commit { .. });
    let journaling = keyed && is_commit && ctx.journal.is_some();
    if journaling {
        let mut ops = vec![StoreOp::Put {
            key: journal::reply_key(meta.client_id, meta.seq),
            value: journal::seal(&Reply::Ok.to_bytes()),
        }];
        for (c, s) in ctx.shared.pending_evictions.lock().drain(..) {
            ops.push(StoreOp::Delete {
                key: journal::reply_key(c, s),
            });
        }
        journal::set_pending_ops(ops);
    }
    let started = Instant::now();
    let reply = dispatch(ctx, conn, meta, command);
    let spent = started.elapsed().as_micros() as u64;
    let prev = ctx.shared.ewma_us.load(Ordering::Relaxed);
    ctx.shared
        .ewma_us
        .store(prev - prev / 8 + spent / 8, Ordering::Relaxed);
    let prev_t = tenant.ewma_us.load(Ordering::Relaxed);
    tenant
        .ewma_us
        .store(prev_t - prev_t / 8 + spent / 8, Ordering::Relaxed);
    release();
    if journaling {
        if let Some(ops) = journal::take_pending_ops() {
            // The dispatch never flushed a transactional batch
            // (read-only commit). If it succeeded, the predicted
            // ack still holds — persist it as a standalone
            // metadata batch; a failed dispatch discards the
            // annotation (error outcomes are not journaled).
            if reply == Reply::Ok {
                if let Some(d) = &ctx.journal {
                    let _ = d.commit(TxnId(0), &ops);
                }
            }
        }
    }
    // Semi-sync replication: hold the commit ack until every
    // connected replica has durably applied up to the committing
    // frontier. A timeout degrades this commit to async rather
    // than stalling the session indefinitely.
    if ctx.cfg.sync_repl && is_commit && reply == Reply::Ok {
        ctx.repl.wait_caught_up(ctx.cfg.sync_repl_timeout);
    }
    let io_error = matches!(&reply, Reply::Err { kind, .. } if kind == "Io");
    if io_error && ctx.db.durable_store().is_some() {
        // The WAL and the in-memory engine may now disagree;
        // answering further requests from poisoned state could
        // break exactly-once. Fail definite-and-loud until the
        // operator restarts into recovery.
        ctx.shared.storage_poisoned.store(true, Ordering::Release);
    }
    if keyed && !io_error {
        let evicted = ctx.shared.dedup_stripe(meta.client_id).lock().remember(
            meta.client_id,
            meta.seq,
            &reply,
            journaling && reply == Reply::Ok,
            false,
        );
        if !evicted.is_empty() {
            ctx.shared.pending_evictions.lock().extend(evicted);
        }
    }
    reply
}

fn dispatch(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, meta: RequestMeta, command: Command) -> Reply {
    // Propagate the request deadline into the engine: the
    // transaction this command works under sees it in lock waits
    // for the duration of the dispatch.
    let deadline = (meta.deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(meta.deadline_ms));
    let txn = deadline.and_then(|_| command_txn(&command));
    if let (Some(d), Some(t)) = (deadline, txn) {
        let _ = ctx.db.set_txn_deadline(t, Some(d));
    }
    let reply = match execute(ctx, conn, command) {
        Ok(reply) => reply,
        Err(e) => Reply::from(e),
    };
    if let Some(t) = txn {
        // Best effort: commit/abort may already have retired it.
        let _ = ctx.db.set_txn_deadline(t, None);
    }
    reply
}

fn execute(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, command: Command) -> HipacResult<Reply> {
    // Sessions own the transactions they begin: a command naming a
    // transaction this session did not begin (or already retired)
    // is refused with the definite `UnknownTxn`. This is what
    // makes a post-restart retry of an uncommitted transaction
    // safe — the id cannot alias a transaction some other session
    // opened in the new process incarnation.
    if let Some(t) = command_txn(&command) {
        if !conn.core.lock().open_txns.contains(&t) {
            return Err(HipacError::UnknownTxn(t));
        }
    }
    // Split-brain fence: a deposed primary serves reads, session
    // management and replication plumbing, but refuses every mutation
    // — a write acked here could never survive rejoin (the divergent
    // tail is truncated), so it must not be acked at all.
    if ctx.repl.fenced.load(Ordering::Acquire) && is_write_command(&command) {
        return Ok(Reply::Err {
            kind: "NotPrimary".to_owned(),
            message: "node is fenced: a newer replication epoch exists; \
                      write to the current primary"
                .to_owned(),
        });
    }
    Ok(match command {
        Command::Ping { version } => ping_reply(version),
        Command::Auth { client_id, token } => {
            if client_id == 0 {
                ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                Reply::Err {
                    kind: "AuthFailed".to_owned(),
                    message: "client_id 0 cannot authenticate".to_owned(),
                }
            } else {
                match &ctx.cfg.auth_secret {
                    // No secret configured: authentication is vacuous
                    // but *accepted*, so a client fleet can start
                    // presenting tokens before the server enforces
                    // them (roll the secret on clients first).
                    None => {
                        conn.core.lock().auth = Some(client_id);
                        Reply::Ok
                    }
                    Some(secret) => {
                        let expect = crate::auth::session_token(secret, client_id);
                        if crate::auth::token_eq(&token, &expect) {
                            conn.core.lock().auth = Some(client_id);
                            Reply::Ok
                        } else {
                            ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                            Reply::Err {
                                kind: "AuthFailed".to_owned(),
                                message: "invalid session token".to_owned(),
                            }
                        }
                    }
                }
            }
        }
        Command::Begin => {
            let t = ctx.db.begin();
            conn.core.lock().open_txns.insert(t);
            Reply::Txn(t)
        }
        Command::BeginChild { parent } => {
            let t = ctx.db.begin_child(parent)?;
            conn.core.lock().open_txns.insert(t);
            Reply::Txn(t)
        }
        Command::Commit { txn } => {
            let result = ctx.db.commit(txn);
            conn.core.lock().open_txns.remove(&txn);
            match result {
                Ok(()) => Reply::Ok,
                Err(e) => {
                    // A failed commit leaves the transaction dead;
                    // make sure it is really gone before reporting.
                    let _ = ctx.db.abort(txn);
                    return Err(e);
                }
            }
        }
        Command::Abort { txn } => {
            conn.core.lock().open_txns.remove(&txn);
            ctx.db.abort(txn)?;
            Reply::Ok
        }
        Command::CreateClass {
            txn,
            name,
            superclass,
            attrs,
        } => {
            let mut defs = Vec::with_capacity(attrs.len());
            for a in attrs {
                let ty = code_type(a.ty).map_err(|e| HipacError::TypeError(e.to_string()))?;
                defs.push(AttrDef {
                    name: a.name,
                    ty,
                    nullable: a.nullable,
                    indexed: a.indexed,
                });
            }
            let cid = ctx
                .db
                .store()
                .create_class(txn, &name, superclass.as_deref(), defs)?;
            Reply::Id(cid.raw())
        }
        Command::Insert { txn, class, values } => {
            let oid = ctx.db.store().insert(txn, &class, values)?;
            Reply::Object(oid)
        }
        Command::Update {
            txn,
            oid,
            assignments,
        } => {
            let borrowed: Vec<(&str, Value)> = assignments
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            ctx.db.store().update(txn, ObjectId(oid), &borrowed)?;
            Reply::Ok
        }
        Command::Delete { txn, oid } => {
            ctx.db.store().delete(txn, ObjectId(oid))?;
            Reply::Ok
        }
        Command::Query { txn, text, params } => {
            let query = Query::parse(&text)?;
            let params = if params.is_empty() { None } else { Some(&params) };
            let rows = ctx.db.store().query(txn, &query, params)?;
            Reply::Rows(
                rows.into_iter()
                    .map(|r| crate::proto::WireRow {
                        oid: r.oid.raw(),
                        class: r.class.raw(),
                        values: r.values,
                    })
                    .collect(),
            )
        }
        Command::DefineEvent { name, params } => {
            let borrowed: Vec<&str> = params.iter().map(String::as_str).collect();
            let eid = ctx.db.define_event(&name, &borrowed)?;
            Reply::Id(eid.raw())
        }
        Command::SignalEvent { name, args, txn } => {
            ctx.db.signal_event(&name, args, txn)?;
            Reply::Ok
        }
        Command::CreateRule { txn, rule } => {
            let def = hipac_rules::codec::decode_rule(&rule)?;
            let rid = ctx.db.rules().create_rule(txn, def)?;
            Reply::Id(rid.raw())
        }
        Command::DropRule { txn, name } => {
            ctx.db.rules().drop_rule(txn, &name)?;
            Reply::Ok
        }
        Command::EnableRule { txn, name } => {
            ctx.db.rules().enable_rule(txn, &name)?;
            Reply::Ok
        }
        Command::DisableRule { txn, name } => {
            ctx.db.rules().disable_rule(txn, &name)?;
            Reply::Ok
        }
        Command::Subscribe { handler } => {
            if ctx.cfg.auth_secret.is_some() {
                // Subscriptions bind to their first authenticated
                // owner; a foreign identity may neither take over the
                // handler nor receive its (possibly sensitive) backlog.
                let authed = conn.core.lock().auth;
                if !ctx.subs.claim_owner(&handler, authed) {
                    ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                    return Ok(Reply::Err {
                        kind: "AuthFailed".to_owned(),
                        message: format!("handler {handler} is owned by another tenant"),
                    });
                }
            }
            // An authorized re-subscribe revives a dead-lettered
            // handler (its preserved sequence counter resumes).
            ctx.subs.resurrect(&handler);
            ctx.subs
                .subscribe(&ctx.db, &handler, conn.id, Arc::clone(&conn.writer));
            // Catch the new subscriber up on unacked pushes; its
            // client dedups redeliveries by sequence.
            let n = ctx.subs.redeliver(&handler, &conn.writer);
            if n > 0 {
                ctx.shared.pushes_redelivered.fetch_add(n, Ordering::Relaxed);
            }
            Reply::Ok
        }
        Command::Unsubscribe { handler } => {
            ctx.subs.unsubscribe(&ctx.db, &handler, conn.id);
            Reply::Ok
        }
        Command::AckPush { handler, seq } => {
            if ctx.cfg.auth_secret.is_some()
                && !ctx.subs.may_touch(&handler, conn.core.lock().auth)
            {
                // A foreign ack would delete another tenant's unacked
                // frame — exactly-once delivery silently broken.
                ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                return Ok(Reply::Err {
                    kind: "AuthFailed".to_owned(),
                    message: format!("handler {handler} is owned by another tenant"),
                });
            }
            ctx.subs.ack(&handler, seq);
            Reply::Ok
        }
        Command::ReplSubscribe { start_lsn, epoch } => {
            if ctx.repl.durable.is_none() {
                Reply::Err {
                    kind: "Unsupported".to_owned(),
                    message: "in-memory databases cannot be replicated".to_owned(),
                }
            } else {
                let own = ctx.repl.epoch();
                if epoch > own {
                    // The subscriber lives in a newer epoch than this
                    // node has ever observed: a promotion happened
                    // while it thought itself primary. Fence first,
                    // refuse second — the caller learns it must rejoin.
                    ctx.repl.fence(epoch);
                    return Err(HipacError::StaleEpoch {
                        current: epoch,
                        got: own,
                    });
                }
                // Registered by `process_frame` only after the Ok frame
                // is on the wire — see the `pending_repl` field docs.
                // (A stale-epoch subscriber is accepted: the hub
                // bootstraps it with a snapshot instead of trusting
                // its dead-LSN-space watermark.)
                conn.core.lock().pending_repl = Some((start_lsn, epoch));
                Reply::Ok
            }
        }
        Command::ReplProgress {
            applied_lsn,
            epoch,
            digest,
        } => {
            let own = ctx.repl.epoch();
            if epoch > own {
                // Progress from the future: same deposition signal as
                // a newer-epoch subscribe. This is also the heal path
                // — `fence_stale_primary` sends exactly this frame.
                ctx.repl.fence(epoch);
                return Err(HipacError::StaleEpoch {
                    current: epoch,
                    got: own,
                });
            }
            if epoch != 0 && epoch < own {
                // A deposed-epoch replica's progress must never
                // satisfy this epoch's semi-sync quorum.
                ctx.repl
                    .counters
                    .stale_epochs
                    .fetch_add(1, Ordering::Relaxed);
                return Err(HipacError::StaleEpoch {
                    current: own,
                    got: epoch,
                });
            }
            ctx.repl.record_progress(conn.id, applied_lsn, digest);
            Reply::Ok
        }
        Command::Stats => {
            let mut w = stats_to_wire(ctx.db.stats());
            w.active_connections = ctx.shared.active_connections.load(Ordering::Relaxed);
            w.shed_requests = ctx.shared.shed_requests.load(Ordering::Relaxed);
            w.dedup_hits = ctx.shared.dedup_hits.load(Ordering::Relaxed);
            w.shed_adaptive = ctx.shared.shed_adaptive.load(Ordering::Relaxed);
            w.journal_replays = ctx.shared.journal_replays.load(Ordering::Relaxed);
            w.pushes_redelivered = ctx.shared.pushes_redelivered.load(Ordering::Relaxed);
            w.reactor_shards = ctx.reactor_shards as u64;
            w.auth_failures = ctx.shared.auth_failures.load(Ordering::Relaxed);
            w.tenants_active = ctx.shared.tenants_active();
            w.tenant_shed_requests = ctx.shared.tenant_shed_requests.load(Ordering::Relaxed);
            w.pushes_shed = ctx.subs.pushes_shed.load(Ordering::Relaxed);
            w.subscribers_evicted = ctx.shared.subscribers_evicted.load(Ordering::Relaxed);
            // breaker_trips/breaker_resets stay zero: they are client-
            // side gauges, overlaid by `HipacClient::stats`.
            Reply::Stats(Box::new(w))
        }
    })
}

/// Commands refused on a fenced (deposed) primary. Reads, transaction
/// bookkeeping (begin/abort), session management and replication
/// plumbing stay available — only state mutation is forbidden.
fn is_write_command(c: &Command) -> bool {
    matches!(
        c,
        Command::Commit { .. }
            | Command::CreateClass { .. }
            | Command::Insert { .. }
            | Command::Update { .. }
            | Command::Delete { .. }
            | Command::DefineEvent { .. }
            | Command::SignalEvent { .. }
            | Command::CreateRule { .. }
            | Command::DropRule { .. }
            | Command::EnableRule { .. }
            | Command::DisableRule { .. }
    )
}

/// The transaction a command works under, for deadline propagation.
/// Connection-scoped commands (ping, stats, subscriptions, event
/// definitions, begin) have none.
fn command_txn(c: &Command) -> Option<TxnId> {
    match c {
        Command::BeginChild { parent } => Some(*parent),
        Command::Commit { txn }
        | Command::Abort { txn }
        | Command::CreateClass { txn, .. }
        | Command::Insert { txn, .. }
        | Command::Update { txn, .. }
        | Command::Delete { txn, .. }
        | Command::Query { txn, .. }
        | Command::CreateRule { txn, .. }
        | Command::DropRule { txn, .. }
        | Command::EnableRule { txn, .. }
        | Command::DisableRule { txn, .. } => Some(*txn),
        Command::SignalEvent { txn, .. } => *txn,
        _ => None,
    }
}

/// Convert the facade snapshot into its wire representation. The
/// connection-layer gauges (`active_connections`, `shed_requests`,
/// `dedup_hits`) are zero here — the serving session fills them in
/// from its [`ServerShared`].
pub fn stats_to_wire(s: EngineStats) -> WireStats {
    WireStats {
        signals_processed: s.signals_processed,
        rules_triggered: s.rules_triggered,
        conditions_satisfied: s.conditions_satisfied,
        actions_executed: s.actions_executed,
        store_evaluations: s.store_evaluations,
        delta_evaluations: s.delta_evaluations,
        cache_hits: s.cache_hits,
        deferred_txns: s.deferred_txns,
        deferred_firings: s.deferred_firings,
        pool_outstanding: s.pool_outstanding,
        separate_errors: s.separate_errors,
        firings_parallel: s.firings_parallel,
        pool_queue_depth: s.pool_queue_depth,
        active_connections: 0,
        shed_requests: 0,
        dedup_hits: 0,
        separate_retries: s.separate_retries,
        separate_dead_letters: s.separate_dead_letters,
        shed_adaptive: 0,
        journal_replays: 0,
        pushes_redelivered: 0,
        repl_role: s.repl_role,
        last_shipped_lsn: s.last_shipped_lsn,
        last_applied_lsn: s.last_applied_lsn,
        repl_lag_bytes: s.repl_lag_bytes,
        replica_pushes: s.replica_pushes,
        promotions: s.promotions,
        match_index_nodes: s.match_index_nodes,
        match_probes: s.match_probes,
        match_pruned: s.match_pruned,
        memo_hits: s.memo_hits,
        memo_invalidations: s.memo_invalidations,
        group_commits: s.group_commits,
        group_commit_txns: s.group_commit_txns,
        group_commit_largest: s.group_commit_largest,
        reactor_shards: 0,
        auth_failures: 0,
        tenants_active: 0,
        tenant_shed_requests: 0,
        pushes_shed: 0,
        subscribers_evicted: 0,
        breaker_trips: 0,
        breaker_resets: 0,
        repl_epoch: s.repl_epoch,
        repl_fence_prev: s.repl_fence_prev,
        repl_fence_start: s.repl_fence_start,
        repl_peers: s.repl_peers,
        repl_min_peer_applied: s.repl_min_peer_applied,
        repl_digest_ok_peers: s.repl_digest_ok_peers,
        repl_digest_mismatches: s.repl_digest_mismatches,
        repl_quorum: s.repl_quorum,
        repl_quorum_ok: s.repl_quorum_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ack takes its frame out of memory at once but only queues the
    /// `'q'` delete: no WAL batch is written until the next outbox write
    /// carries the delete in its own batch (or a housekeeper flush
    /// commits it).
    #[test]
    fn ack_delete_rides_the_next_outbox_write() {
        let dir = std::env::temp_dir().join(format!("hipac-net-ack-fold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DurableStore::open(&dir).unwrap());
        let subs = Subscriptions::new(
            16,
            Duration::from_secs(1),
            0,
            None,
            Some(Arc::clone(&store)),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _reader = listener.accept().unwrap();
        subs.handlers("h").write().insert(
            "h".to_owned(),
            vec![Subscriber {
                session: 1,
                writer: Arc::new(Mutex::new(writer)),
            }],
        );
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
