//! Shared replication observability counters.
//!
//! Both sides of the replication stream update one [`ReplCounters`]
//! instance — the primary's shipper thread (shipped LSN, lag), a
//! replica's apply loop (applied LSN, replica-served pushes) and the
//! promotion path — and the engine folds it into `EngineStats`, so lag
//! and role are observable over the wire through the ordinary STATS
//! command. The struct lives here, at the bottom of the dependency
//! graph, because it is written from `hipac-net` (primary role) and
//! `hipac-repl` (replica role) but read from `hipac` (stats snapshot).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Node role in a replication pair, stored as a `u64` for atomic access.
pub const ROLE_PRIMARY: u64 = 0;
/// See [`ROLE_PRIMARY`].
pub const ROLE_REPLICA: u64 = 1;

/// Replication activity counters; all loads/stores are `Relaxed` —
/// these are gauges, not synchronization.
#[derive(Debug, Default)]
pub struct ReplCounters {
    /// [`ROLE_PRIMARY`] or [`ROLE_REPLICA`].
    pub role: AtomicU64,
    /// Highest LSN the primary has shipped to any replica.
    pub last_shipped_lsn: AtomicU64,
    /// Highest primary LSN a replica has durably applied (on the
    /// primary: the highest progress any replica has reported).
    pub last_applied_lsn: AtomicU64,
    /// Durable frontier minus applied watermark — byte lag.
    pub lag_bytes: AtomicU64,
    /// Push frames fanned out to subscribers homed on a replica.
    pub replica_pushes: AtomicU64,
    /// Times this node (or its lineage) promoted replica → primary.
    pub promotions: AtomicU64,
    /// Replication epoch this node operates under (bumped by
    /// promotion; adopted from the wire when fenced).
    pub epoch: AtomicU64,
    /// Replication messages refused (or refusals received) because
    /// their epoch was older than the locally observed one.
    pub stale_epochs: AtomicU64,
    /// LSN (in the previous epoch's space) where this node's lineage
    /// diverged at its last promotion: the truncate point a rejoining
    /// ex-primary must cut its WAL back to.
    pub fence_prev: AtomicU64,
    /// This node's durable LSN at its last promotion: the watermark a
    /// rejoining ex-primary resubscribes from in the new epoch's space.
    pub fence_start: AtomicU64,
    /// Replicas currently subscribed to this primary's hub.
    pub peers: AtomicU64,
    /// Lowest progress watermark across subscribed replicas (the
    /// quorum-limiting peer); 0 with no peers.
    pub min_peer_applied: AtomicU64,
    /// Peers whose anti-entropy stream digest currently matches the
    /// primary's fold.
    pub digest_ok_peers: AtomicU64,
    /// Digest comparisons that disagreed (cumulative — detection
    /// counter, never reset).
    pub digest_mismatches: AtomicU64,
    /// Replica acks required before a semi-sync commit is released
    /// (⌈(N+1)/2⌉ of an N-replica fleet; 0 when semi-sync is off).
    pub quorum: AtomicU64,
    /// 1 while enough live peers exist to satisfy the quorum.
    pub quorum_ok: AtomicU64,
    /// Replica: commits its shipped batches took — one per run of
    /// batches that arrived together (in-process gauge, not served
    /// over STATS).
    pub apply_runs: AtomicU64,
}

impl ReplCounters {
    /// Fresh counters in the given role.
    pub fn new(role: u64) -> ReplCounters {
        let c = ReplCounters::default();
        c.role.store(role, Relaxed);
        c
    }

    /// Update the applied watermark and derived lag against a durable
    /// frontier (saturating: a frontier briefly behind the watermark —
    /// e.g. read racing a write — reads as zero lag, not underflow).
    pub fn record_applied(&self, applied_lsn: u64, durable_lsn: u64) {
        self.last_applied_lsn.store(applied_lsn, Relaxed);
        self.lag_bytes
            .store(durable_lsn.saturating_sub(applied_lsn), Relaxed);
    }
}
