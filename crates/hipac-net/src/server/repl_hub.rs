//! The primary's half of replication (WAL shipping, snapshots,
//! heartbeats, the semi-sync gate, the epoch fence). The replica's half
//! lives in `hipac-repl`, which depends on this crate, so the hub
//! stays here.

use super::shard::ConnShared;
use crate::proto::{Frame, ReplMsg};
use hipac_common::ReplCounters;
use hipac_storage::{DurableStore, TailRead, WalBatch};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often idle replicas get a heartbeat carrying the durable
/// frontier and the primary's replication epoch (so a quiet primary
/// still advertises zero lag, and a fenced world is discovered without
/// waiting for traffic).
const HEARTBEAT_EVERY: Duration = Duration::from_millis(50);

/// Bytes of WAL tail (or snapshot pairs) per shipping round per replica.
const SHIP_WINDOW: usize = 256 * 1024;

/// Per-peer `(lsn, fold)` digest checkpoints retained for anti-entropy
/// comparison. A progress report whose LSN has already been pruned
/// simply skips the comparison (detection is best-effort, never a
/// correctness gate).
const DIGEST_LOG_CAP: usize = 256;

/// One replica connection registered via `ReplSubscribe`.
struct ReplPeer {
    conn: Arc<ConnShared>,
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
    /// A snapshot being sent, a chunk per round.
    snapshot: Option<SnapshotCursor>,
}

/// A snapshot's frontier LSN and the pairs not yet sent.
type SnapshotCursor = (u64, std::vec::IntoIter<(Vec<u8>, Vec<u8>)>);

/// What a peer is due this round: its next WAL window, or a snapshot.
enum Due {
    Batches(Vec<WalBatch>, u64),
    Snapshot(u64, Vec<(Vec<u8>, Vec<u8>)>),
}

impl ReplPeer {
    /// Send this peer what it is due, or else the next chunk of its
    /// snapshot. Returns whether the peer moved, or `None` once its
    /// connection is closed (the peer is culled; it resubscribes).
    fn ship(&mut self, due: Option<Due>, epoch: u64) -> Option<bool> {
        let send = |msg| self.conn.send(&Frame::Repl(msg).encode());
        match due {
            Some(Due::Batches(batches, next_lsn)) => {
                // The round's frames go out in one write.
                let mut frames = Vec::new();
                for b in &batches {
                    let batch = ReplMsg::Batch {
                        prev_lsn: self.chained,
                        start_lsn: b.start_lsn,
                        next_lsn: b.next_lsn,
                        txn: b.txn,
                        ops: b.ops.clone(),
                        epoch,
                    };
                    frames.extend(Frame::Repl(batch).encode());
                    self.chained = b.next_lsn;
                    self.fold = hipac_storage::fold_digest(
                        self.fold,
                        hipac_storage::batch_digest(b.next_lsn, b.txn, &b.ops),
                    );
                    self.digest_log.push_back((b.next_lsn, self.fold));
                }
                while self.digest_log.len() > DIGEST_LOG_CAP {
                    self.digest_log.pop_front();
                }
                if !frames.is_empty() && !self.conn.send(&frames) {
                    return None;
                }
                let moved = next_lsn > self.shipped;
                self.shipped = self.shipped.max(next_lsn);
                return Some(moved);
            }
            Some(Due::Snapshot(snapshot_lsn, pairs)) => {
                if !send(ReplMsg::SnapshotBegin { snapshot_lsn }) {
                    return None;
                }
                self.snapshot = Some((snapshot_lsn, pairs.into_iter()));
            }
            None => {}
        }
        let Some((snapshot_lsn, pairs)) = self.snapshot.as_mut() else {
            return Some(false);
        };
        let snapshot_lsn = *snapshot_lsn;
        // Chunk by payload volume so no frame approaches the cap.
        let mut chunk = Vec::new();
        let mut chunk_bytes = 0usize;
        while chunk_bytes < SHIP_WINDOW {
            let Some((k, v)) = pairs.next() else { break };
            chunk_bytes += k.len() + v.len() + 16;
            chunk.push((k, v));
        }
        let done = pairs.len() == 0;
        if !chunk.is_empty() && !send(ReplMsg::SnapshotChunk { pairs: chunk }) {
            return None;
        }
        if done {
            if !send(ReplMsg::SnapshotEnd { snapshot_lsn, epoch }) {
                return None;
            }
            self.snapshot = None;
            self.force_snapshot = false;
            self.shipped = snapshot_lsn;
            self.chained = snapshot_lsn;
            self.fold = 0;
            self.digest_log = VecDeque::from([(snapshot_lsn, 0)]);
            self.digest_ok = true;
        }
        Some(true)
    }
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

/// Primary-side replication hub: the registry of subscribed replica
/// connections plus the single shipper thread that streams committed
/// WAL batches to each of them — or a full snapshot when a replica's
/// resume LSN has been truncated away by a checkpoint
/// (`TailRead::OutOfRange`). The shipper queues a replica its next
/// window only once its connection's queue is empty.
///
/// The hub also carries the semi-sync gate: sessions and the drain
/// path call [`ReplHub::wait_caught_up`] to hold an ack (or the
/// shutdown) until every connected replica has applied up to the
/// durable frontier.
pub(super) struct ReplHub {
    /// `None` for in-memory databases, which cannot be replicated
    /// (there is no WAL to ship); `ReplSubscribe` is refused.
    pub(super) durable: Option<Arc<DurableStore>>,
    pub(super) counters: Arc<ReplCounters>,
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
    pub(super) fenced: AtomicBool,
}

impl ReplHub {
    pub(super) fn new(
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
    pub(super) fn epoch(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.repl_epoch())
    }

    /// Demote this node: persist the newer epoch *with the fence
    /// marker set* — so the fence survives a restart, can never be
    /// un-observed, and `ReplicaNode::rejoin` still knows the local
    /// WAL carries an unrepaired divergent tail — and refuse writes
    /// from now on.
    pub(super) fn fence(&self, new_epoch: u64) {
        self.fenced.store(true, Ordering::Release);
        self.counters.stale_epochs.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = &self.durable {
            let _ = d.fence_epoch(new_epoch);
        }
        self.counters.epoch.fetch_max(new_epoch, Ordering::Relaxed);
    }

    /// Register (or re-register) `conn` as a replica resuming from
    /// `start_lsn`. The shipper validates the LSN lazily: an unusable
    /// resume point simply produces a snapshot. A peer subscribing from
    /// an older epoch gets an unconditional snapshot — its LSNs belong
    /// to a superseded primary's WAL and must never be interpreted in
    /// this one.
    ///
    /// Callers must invoke this only *after* the `ReplSubscribe` Ok
    /// response frame is queued — registering earlier lets the shipper
    /// queue repl frames ahead of the Ok, which the replica's handshake
    /// would have to reorder.
    pub(super) fn subscribe(&self, conn: Arc<ConnShared>, start_lsn: u64, peer_epoch: u64) {
        // Any peer that cannot prove it observed this node's epoch —
        // e.g. one that slept through the promotion and still offers
        // epoch 0 — gets a snapshot: its watermark may have been minted
        // under a deposed primary's WAL. A never-promoted fleet has
        // epoch 0 itself, so peers there resume from their LSN.
        let force_snapshot = peer_epoch < self.epoch();
        let mut peers = self.peers.lock();
        peers.retain(|p| p.conn.id != conn.id);
        peers.push(ReplPeer {
            conn,
            shipped: start_lsn,
            chained: start_lsn,
            progress: start_lsn,
            fold: 0,
            digest_log: VecDeque::from([(start_lsn, 0)]),
            digest_ok: true,
            force_snapshot,
            snapshot: None,
        });
        drop(peers);
        self.refresh_gauges();
    }

    pub(super) fn drop_session(&self, session: u64) {
        self.peers.lock().retain(|p| p.conn.id != session);
        self.refresh_gauges();
    }

    /// A replica reported durable application up to `applied_lsn`,
    /// carrying its incremental stream digest. Folds the best
    /// progress across peers into the shared counters and compares the
    /// peer's digest against the primary-side fold at the same LSN.
    pub(super) fn record_progress(&self, session: u64, applied_lsn: u64, digest: u64) {
        let best = {
            let mut peers = self.peers.lock();
            let mut best = 0u64;
            for p in peers.iter_mut() {
                if p.conn.id == session {
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

    /// One shipping round: each peer with an empty outbound queue gets
    /// its next WAL window or snapshot chunk. Returns whether any peer
    /// moved (the shipper sleeps when none did). The store is read
    /// outside the peers lock, since a commit's fsync or a checkpoint
    /// holds it; sends never wait, so they happen under the lock.
    fn ship_once(&self) -> bool {
        let Some(d) = &self.durable else { return false };
        let epoch = d.repl_epoch();
        let idle: Vec<(u64, u64, bool)> = self
            .peers
            .lock()
            .iter()
            .filter(|p| p.snapshot.is_none() && !p.conn.backlogged())
            .map(|p| (p.conn.id, p.shipped, p.force_snapshot))
            .collect();
        let mut due = HashMap::new();
        let mut durable_lsn = None;
        for (id, shipped, force_snapshot) in idle {
            if !force_snapshot && shipped >= *durable_lsn.get_or_insert_with(|| d.durable_lsn()) {
                continue;
            }
            let tail = if force_snapshot {
                None
            } else {
                match d.read_batches_from(shipped, SHIP_WINDOW as u64) {
                    Ok(tail) => Some(tail),
                    Err(_) => continue,
                }
            };
            // A stale-epoch subscriber (its watermark is from a dead LSN
            // space), or a resume point that predates the oldest
            // retained WAL (checkpoint truncation) or is misaligned:
            // re-seed the peer with a consistent full snapshot.
            let next = match tail {
                Some(TailRead::Batches { batches, next_lsn, .. }) => Due::Batches(batches, next_lsn),
                _ => match d.snapshot_for_repl() {
                    Ok((snapshot_lsn, pairs)) => Due::Snapshot(snapshot_lsn, pairs),
                    Err(_) => continue,
                },
            };
            due.insert(id, (shipped, next));
        }
        let mut worked = false;
        let mut peers = self.peers.lock();
        peers.retain_mut(|p| {
            // A resubscribe since the read moved `shipped`: its fresh
            // resume point wins over what was read for the old one.
            let due = due.remove(&p.conn.id).filter(|(shipped, _)| *shipped == p.shipped);
            if due.is_none() && (p.snapshot.is_none() || p.conn.backlogged()) {
                return true;
            }
            match p.ship(due.map(|(_, next)| next), epoch) {
                Some(moved) => {
                    worked |= moved;
                    true
                }
                None => false,
            }
        });
        let best_shipped = peers.iter().map(|p| p.shipped).max().unwrap_or(0);
        drop(peers);
        if best_shipped > 0 {
            self.counters
                .last_shipped_lsn
                .fetch_max(best_shipped, Ordering::Relaxed);
        }
        worked
    }

    /// Advertise the durable frontier to peers with nothing queued and
    /// no snapshot under way.
    fn heartbeat(&self) {
        let Some(d) = &self.durable else { return };
        let frame = Frame::Repl(ReplMsg::Heartbeat {
            durable_lsn: d.durable_lsn(),
            epoch: d.repl_epoch(),
        })
        .encode();
        self.peers
            .lock()
            .retain(|p| p.snapshot.is_some() || p.conn.backlogged() || p.conn.send(&frame));
        self.refresh_gauges();
    }

    /// Block until a quorum of the connected replicas — ⌈(N+1)/2⌉ of
    /// N, see [`quorum_of`] — has reported progress at or past the
    /// current durable frontier, or `timeout` passes. Vacuously true
    /// with no peers or no WAL; with three replicas, one crashed or
    /// lagging peer no longer degrades every commit to asynchronous.
    pub(super) fn wait_caught_up(&self, timeout: Duration) -> bool {
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

/// Start the shipper thread: one shipping round after another, a
/// heartbeat every [`HEARTBEAT_EVERY`], and a short sleep whenever a
/// round moved nothing.
pub(super) fn spawn_shipper(hub: &Arc<ReplHub>, stop: &Arc<AtomicBool>) -> JoinHandle<()> {
    let (hub, stop) = (Arc::clone(hub), Arc::clone(stop));
    std::thread::Builder::new()
        .name("hipac-net-repl-ship".to_owned())
        .spawn(move || {
            let mut last_beat = Instant::now();
            while !stop.load(Ordering::Acquire) {
                let worked = hub.ship_once();
                if last_beat.elapsed() >= HEARTBEAT_EVERY {
                    hub.heartbeat();
                    last_beat = Instant::now();
                }
                if !worked {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        })
        .expect("spawn repl shipper thread")
}
