//! Admission state shared by every session: the server-wide gauges,
//! per-tenant in-flight accounting, and the idempotency (dedup) window
//! with its reload from the durable reply journal at startup.

use super::{stripe_of_u64, STATE_STRIPES};
use crate::proto::Reply;
use hipac_common::TxnId;
use hipac_storage::journal;
use hipac_storage::{DurableStore, StoreOp};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cross-session resilience state: gauges served over STATS, the
/// admission-control budget, and the idempotency window.
#[derive(Default)]
pub(super) struct ServerShared {
    /// Live sessions (a gauge: incremented at session start,
    /// decremented at teardown).
    pub(super) active_connections: AtomicU64,
    /// Connections refused because the admission cap was reached.
    pub(super) refused_connections: AtomicU64,
    /// Requests shed by admission control with an `Overloaded` error.
    pub(super) shed_requests: AtomicU64,
    /// Requests answered from the dedup window instead of re-executing.
    pub(super) dedup_hits: AtomicU64,
    /// Dedup hits served from the persistent reply journal after a
    /// restart (a subset of `dedup_hits`): retries whose original
    /// committed in a previous process incarnation.
    pub(super) journal_replays: AtomicU64,
    /// Requests shed by the adaptive queueing-delay signal (a subset
    /// of neither — counted separately from `shed_requests`).
    pub(super) shed_adaptive: AtomicU64,
    /// Push frames redelivered from the outbox on re-subscribe.
    pub(super) pushes_redelivered: AtomicU64,
    /// EWMA of dispatch time in microseconds (the adaptive admission
    /// signal).
    pub(super) ewma_us: AtomicU64,
    /// Requests currently in dispatch (the admission gauge).
    pub(super) in_flight: AtomicU64,
    /// Set by [`HipacServer::drain`]: refuse new connections and new
    /// requests while in-flight work finishes.
    pub(super) draining: AtomicBool,
    /// Set when a dispatch surfaced a storage `Io` error on a durable
    /// database: the in-memory engine may have diverged from the WAL,
    /// so every further request is refused (`Draining`) until the
    /// operator restarts against the data dir. Refusing is what makes
    /// an Io outcome *safe* to leave ambiguous — the retry resolves it
    /// against the recovered journal, not against poisoned state.
    pub(super) storage_poisoned: AtomicBool,
    /// Idempotency window, striped by client-id hash ([`stripe_of_u64`])
    /// so sessions served from different reactor shards never contend
    /// on one global lock — and so the *same* client always probes the
    /// same stripe no matter which shard its reconnected socket lands
    /// on (cross-shard dedup correctness is by key, not by shard).
    dedup: Vec<Mutex<DedupWindow>>,
    /// Journal keys evicted from the in-memory window, awaiting a
    /// piggybacked durable delete on the next journaled commit.
    pub(super) pending_evictions: Mutex<Vec<(u64, u64)>>,
    /// Keyed requests refused because the session had not proven the
    /// asserted `client_id` (or presented a bad `Auth` token, or tried
    /// to touch another tenant's subscription).
    pub(super) auth_failures: AtomicU64,
    /// Requests shed by the per-tenant in-flight cap — disjoint from
    /// the global counters.
    pub(super) tenant_shed_requests: AtomicU64,
    /// Per-tenant admission state, striped like the dedup window so
    /// tenants served from different reactor shards never contend on
    /// one lock. Tenant identity is the authenticated client id when
    /// auth is on (id 0 = the shared `unauthenticated` class) and the
    /// asserted client id otherwise.
    tenants: Vec<Mutex<HashMap<u64, Arc<AtomicU64>>>>,
}

/// Soft cap on tenants remembered per stripe; beyond it an *idle*
/// tenant is forgotten to make room, so churning client ids cannot grow
/// the table unboundedly (a tenant with work in flight is never
/// dropped — losing its gauge mid-request would corrupt the counts).
const TENANTS_PER_STRIPE: usize = 64;

impl ServerShared {
    pub(super) fn new(dedup_window: usize) -> Arc<ServerShared> {
        Arc::new(ServerShared {
            dedup: (0..STATE_STRIPES)
                .map(|_| Mutex::new(DedupWindow::new(dedup_window)))
                .collect(),
            tenants: (0..STATE_STRIPES).map(|_| Mutex::default()).collect(),
            ..ServerShared::default()
        })
    }

    pub(super) fn dedup_stripe(&self, client: u64) -> &Mutex<DedupWindow> {
        &self.dedup[stripe_of_u64(client)]
    }

    /// Tenant `id`'s admission gauge — its requests in dispatch —
    /// created on first sight.
    pub(super) fn tenant(&self, id: u64) -> Arc<AtomicU64> {
        let mut map = self.tenants[stripe_of_u64(id)].lock();
        if map.len() >= TENANTS_PER_STRIPE && !map.contains_key(&id) {
            let idle = map
                .iter()
                .find(|(_, t)| t.load(Ordering::Acquire) == 0)
                .map(|(k, _)| *k);
            if let Some(idle) = idle {
                map.remove(&idle);
            }
        }
        Arc::clone(map.entry(id).or_default())
    }

    /// Distinct tenants currently tracked (a gauge for Stats).
    pub(super) fn tenants_active(&self) -> u64 {
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
pub(super) struct DedupWindow {
    per_client: usize,
    clients: HashMap<u64, ClientWindow>,
    /// First-seen order of clients, for eviction at [`Self::MAX_CLIENTS`].
    client_order: VecDeque<u64>,
}

#[derive(Clone)]
pub(super) struct CachedReply {
    pub(super) reply: Reply,
    /// The entry also exists in the durable reply journal (its
    /// eviction must piggyback a journal delete).
    journaled: bool,
    /// The entry was rebuilt from the journal at startup — a hit on it
    /// is a cross-restart replay, counted in `journal_replays`.
    pub(super) restored: bool,
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
pub(super) enum DedupProbe {
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

    pub(super) fn probe(&self, client: u64, seq: u64) -> DedupProbe {
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
    pub(super) fn remember(
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

/// Rebuild the in-memory dedup window from the durable reply journal
/// at startup. Entries are scanned in `(client, seq)` order, so the
/// per-client FIFO keeps the *newest* sequences when a journal holds
/// more than the window; overflow entries (and torn values, whose
/// seal fails) are deleted from storage so the journal stays bounded
/// across restarts.
pub(super) fn load_reply_journal(d: &Arc<DurableStore>, shared: &Arc<ServerShared>, window: usize) {
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
        let _ = d.commit(TxnId(0), ops);
    }
}
