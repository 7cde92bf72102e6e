//! The primary's half of replication (WAL shipping, snapshots,
//! heartbeats, the semi-sync gate, the epoch fence). The replica's half
//! lives in `hipac-repl`, which depends on this crate, so the hub
//! stays here.

use crate::proto::{Frame, ReplMsg};
use hipac_common::ReplCounters;
use hipac_storage::{DurableStore, TailRead};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often idle replicas get a heartbeat carrying the durable
/// frontier and the primary's replication epoch (so a quiet primary
/// still advertises zero lag, and a fenced world is discovered without
/// waiting for traffic).
const HEARTBEAT_EVERY: Duration = Duration::from_millis(50);

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
    pub(super) fn subscribe(
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
        });
        drop(peers);
        self.refresh_gauges();
    }

    pub(super) fn drop_session(&self, session: u64) {
        self.peers.lock().retain(|p| p.session != session);
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
        /// One peer's shipping round: its cursors as snapshotted under
        /// the peers lock, advanced outside it, then committed.
        struct Round {
            session: u64,
            writer: Arc<Mutex<TcpStream>>,
            /// `shipped` at the snapshot (the commit's staleness check).
            pre_shipped: u64,
            shipped: u64,
            chained: u64,
            fold: u64,
            force_snapshot: bool,
            /// New `(lsn, fold)` digest checkpoints from this round;
            /// `reseed` replaces the peer's log instead of appending
            /// (snapshot: the stream fold restarts from zero).
            log: Vec<(u64, u64)>,
            reseed: bool,
            dead: bool,
        }
        let mut rounds: Vec<Round> = self
            .peers
            .lock()
            .iter()
            .map(|p| Round {
                session: p.session,
                writer: Arc::clone(&p.writer),
                pre_shipped: p.shipped,
                shipped: p.shipped,
                chained: p.chained,
                fold: p.fold,
                force_snapshot: p.force_snapshot,
                log: Vec::new(),
                reseed: false,
                dead: false,
            })
            .collect();
        if rounds.is_empty() {
            return false;
        }
        let epoch = d.repl_epoch();
        let mut worked = false;
        for r in &mut rounds {
            let durable_lsn = d.durable_lsn();
            let mut snapshot = r.force_snapshot;
            if !snapshot && r.shipped < durable_lsn {
                match d.read_batches_from(r.shipped, SHIP_WINDOW as u64) {
                    Ok(TailRead::Batches { batches, next_lsn, .. }) => {
                        if next_lsn > r.shipped || !batches.is_empty() {
                            let mut w = r.writer.lock();
                            for b in &batches {
                                let frame = Frame::Repl(ReplMsg::Batch {
                                    prev_lsn: r.chained,
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
                                    r.dead = true;
                                    break;
                                }
                                r.chained = b.next_lsn;
                                r.fold = hipac_storage::fold_digest(
                                    r.fold,
                                    hipac_storage::batch_digest(b.next_lsn, b.txn, &b.ops),
                                );
                                r.log.push((b.next_lsn, r.fold));
                            }
                            if !r.dead && next_lsn > r.shipped {
                                r.shipped = next_lsn;
                                worked = true;
                            }
                        }
                    }
                    Ok(TailRead::OutOfRange { .. }) => snapshot = true,
                    Err(_) => {}
                }
            }
            if snapshot {
                // A stale-epoch subscriber (its watermark is from a dead
                // LSN space), or a resume point that predates the oldest
                // retained WAL (checkpoint truncation) or is misaligned:
                // re-seed the peer with a full snapshot.
                match Self::ship_snapshot(d, &r.writer, epoch) {
                    Some(snapshot_lsn) => {
                        r.shipped = snapshot_lsn;
                        r.chained = snapshot_lsn;
                        r.fold = 0;
                        r.log = vec![(snapshot_lsn, 0)];
                        r.reseed = true;
                    }
                    None => r.dead = true,
                }
                worked = true;
            }
        }
        let mut peers = self.peers.lock();
        for o in rounds {
            if o.dead {
                // A socket write failed: cull the peer; it resubscribes.
                peers.retain(|p| p.session != o.session);
            } else if let Some(p) = peers
                .iter_mut()
                .find(|p| p.session == o.session && p.shipped == o.pre_shipped)
            {
                // Unchanged since the snapshot: commit the round. (A
                // concurrent resubscribe rewinds `shipped`; its fresh
                // resume point must win over this stale round's.)
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
        let best_shipped = peers.iter().map(|p| p.shipped).max().unwrap_or(0);
        drop(peers);
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
