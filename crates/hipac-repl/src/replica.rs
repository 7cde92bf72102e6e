//! The replica node: WAL-stream follower, snapshot-read server, push
//! fan-out host, and promotion path.
//!
//! A [`ReplicaNode`] maintains two socket roles at once:
//!
//! * **Follower** — one outbound connection to the primary. It
//!   pings the primary and sends `ReplSubscribe` from its durable
//!   watermark. It reads the socket a burst at a time: every
//!   consecutive [`ReplMsg::Batch`] already received forms one run,
//!   applied through [`DurableStore::apply_replicated_run`] (the
//!   recovery-equivalent path: the run's ops and the watermark are one
//!   atomic commit, one fsync), mirrored into the in-memory
//!   [`ReplicaView`] under one write lock, and reported with one
//!   `ReplProgress` so the primary's semi-sync gate and lag gauges
//!   advance. A run is all-or-nothing: a stale epoch or a chaining gap
//!   anywhere in it applies none of it and the follower resubscribes.
//!   When its resume LSN has fallen off the primary's retained log it
//!   installs the streamed snapshot instead.
//! * **Read server** — a listener speaking the ordinary wire protocol.
//!   Snapshot queries (`txn == 0`) are served from the view at its
//!   applied LSN; writes are refused with a typed `NotPrimary` error so
//!   a fleet client reroutes. Subscriptions homed here are forwarded
//!   upstream, pushes arriving on the follower connection fan out to
//!   local subscribers, and acks flow back to the primary's durable
//!   outbox — exactly-once per subscription holds across the hop
//!   because the primary's outbox remains the single source of truth.
//!
//! [`ReplicaNode::promote`] turns the node into a primary: stop both
//! roles, release the store, recover a full engine from the local WAL
//! (reply journal and push outbox included, so retried requests replay
//! instead of re-executing), and bind a real [`HipacServer`] on the
//! same read address clients already know.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hipac::ActiveDatabase;
use hipac_common::{HipacError, ReplCounters, Result, TxnId, ROLE_REPLICA};
use hipac_net::proto::{
    ping_reply, Command, Frame, PushEvent, Reply, ReplMsg, RequestMeta, WireRow, WireStats,
    PROTOCOL_VERSION,
};
use hipac_net::{FrameReader, HipacServer, ServerConfig};
use hipac_storage::{
    batch_digest, fold_digest, DurableStore, ReplBatch, StoreOp, TailTruncate,
    REPL_SNAPSHOT_SENTINEL,
};
use parking_lot::Mutex;

use crate::view::ReplicaView;

/// Socket read-timeout tick: how often blocked reads observe the stop
/// flag.
const READ_TICK: Duration = Duration::from_millis(25);
/// Backoff between reconnect attempts to the primary.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(50);
/// Handshake patience (ping + repl-subscribe acks).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// One live subscriber connection: session id plus its shared writer.
type SubWriter = (u64, Arc<Mutex<TcpStream>>);

/// Local push-subscription registry: live subscriber writers per
/// handler, plus unacked pushes retained for late subscribers.
#[derive(Default)]
struct SubState {
    subscribers: HashMap<String, Vec<SubWriter>>,
    pending: HashMap<String, BTreeMap<u64, PushEvent>>,
}

/// State shared by the follower thread, the read-server sessions, and
/// the node handle.
struct Shared {
    /// `None` after promotion released it to the recovering engine.
    store: Mutex<Option<Arc<DurableStore>>>,
    view: Arc<ReplicaView>,
    counters: Arc<ReplCounters>,
    stop: AtomicBool,
    /// Writer half of the live upstream connection (forwarded
    /// `Subscribe` / `AckPush` / `ReplProgress` ride it as id-0
    /// fire-and-forget requests).
    upstream: Mutex<Option<TcpStream>>,
    subs: Mutex<SubState>,
    /// Primary's durable frontier, from batches and heartbeats.
    primary_durable: AtomicU64,
    connected: AtomicBool,
}

impl Shared {
    fn store(&self) -> Option<Arc<DurableStore>> {
        self.store.lock().clone()
    }

    /// Best-effort id-0 fire-and-forget request to the primary. The
    /// primary's `Ok` reply lands in the follower read loop and is
    /// dropped there.
    fn send_upstream(&self, command: Command) {
        let frame = Frame::Request {
            id: 0,
            meta: RequestMeta::default(),
            command,
        };
        let mut guard = self.upstream.lock();
        if let Some(stream) = guard.as_mut() {
            if stream.write_all(&frame.encode()).is_err() {
                *guard = None; // follower loop will reconnect
            }
        }
    }

    /// Fan a push from the primary out to local subscribers, retaining
    /// it (keyed by per-subscription seq) until the local client acks.
    fn fan_out(&self, event: PushEvent) {
        let wire = Frame::Push(event.clone()).encode();
        let mut subs = self.subs.lock();
        if event.seq > 0 {
            subs.pending
                .entry(event.handler.clone())
                .or_default()
                .insert(event.seq, event.clone());
        }
        if let Some(writers) = subs.subscribers.get_mut(&event.handler) {
            writers.retain(|(_, w)| {
                let ok = w.lock().write_all(&wire).is_ok();
                if ok {
                    self.counters.replica_pushes.fetch_add(1, Ordering::Relaxed);
                }
                ok
            });
        }
    }
}

/// A replica: follows one primary, serves snapshot reads and hosts
/// push subscriptions on its own listen address, and can be promoted
/// to primary in place. See the module docs for the full contract.
pub struct ReplicaNode {
    dir: PathBuf,
    listen: SocketAddr,
    shared: Arc<Shared>,
    follower: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ReplicaNode {
    /// Open (or create) the replica store in `dir`, start following the
    /// primary at `primary_addr`, and serve reads on `listen`.
    pub fn start(
        dir: impl AsRef<Path>,
        primary_addr: impl Into<String>,
        listen: impl ToSocketAddrs,
    ) -> Result<ReplicaNode> {
        let dir = dir.as_ref().to_path_buf();
        let primary_addr = primary_addr.into();
        let store = Arc::new(DurableStore::open(&dir)?);
        let applied = store.replicated_applied_lsn()?.unwrap_or(0);

        // Seed the view from whatever the local store already holds (a
        // replica restart resumes from its watermark, not from zero).
        let view = Arc::new(ReplicaView::new());
        let mut pairs = store.scan_prefix(b"c")?;
        pairs.extend(store.scan_prefix(b"o")?);
        view.install(&pairs, applied)?;

        let counters = Arc::new(ReplCounters::new(ROLE_REPLICA));
        counters.record_applied(applied, applied);
        counters.epoch.store(store.repl_epoch(), Ordering::Relaxed);
        let (fence_prev, fence_start) = store.repl_fence();
        counters.fence_prev.store(fence_prev, Ordering::Relaxed);
        counters.fence_start.store(fence_start, Ordering::Relaxed);

        let listener = TcpListener::bind(listen).map_err(|e| HipacError::Io(e.to_string()))?;
        let listen = listener
            .local_addr()
            .map_err(|e| HipacError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| HipacError::Io(e.to_string()))?;

        let shared = Arc::new(Shared {
            store: Mutex::new(Some(store)),
            view,
            counters,
            stop: AtomicBool::new(false),
            upstream: Mutex::new(None),
            subs: Mutex::new(SubState::default()),
            primary_durable: AtomicU64::new(applied),
            connected: AtomicBool::new(false),
        });

        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let follower = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hipac-repl-follow".into())
                .spawn(move || follower_loop(&shared, &primary_addr))
                .map_err(|e| HipacError::Io(e.to_string()))?
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            let sessions = Arc::clone(&sessions);
            std::thread::Builder::new()
                .name("hipac-repl-serve".into())
                .spawn(move || accept_loop(&shared, &listener, &sessions))
                .map_err(|e| HipacError::Io(e.to_string()))?
        };

        Ok(ReplicaNode {
            dir,
            listen,
            shared,
            follower: Some(follower),
            acceptor: Some(acceptor),
            sessions,
        })
    }

    /// The read-serving address (stable across promotion).
    pub fn local_addr(&self) -> SocketAddr {
        self.listen
    }

    /// Replication gauges (role, watermarks, lag, fan-out counts).
    pub fn counters(&self) -> &Arc<ReplCounters> {
        &self.shared.counters
    }

    /// Primary-stream LSN durably applied by this replica.
    pub fn applied_lsn(&self) -> u64 {
        self.shared.counters.last_applied_lsn.load(Ordering::Relaxed)
    }

    /// The in-memory query view (tests).
    pub fn view(&self) -> &Arc<ReplicaView> {
        &self.shared.view
    }

    /// Is the follower connection live and receiving the stream? True
    /// only once at least one replication message (batch, snapshot or
    /// heartbeat) has arrived, so the primary's durable frontier is
    /// known — not merely once the socket handshake completed.
    pub fn is_connected(&self) -> bool {
        self.shared.connected.load(Ordering::Relaxed)
    }

    /// Block until this replica has applied everything the primary has
    /// made durable (as of the latest batch/heartbeat), or `timeout`.
    /// An empty primary counts as caught up once the stream is live.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let frontier = self.shared.primary_durable.load(Ordering::Relaxed);
            let applied = self.applied_lsn();
            if self.is_connected() && applied >= frontier {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.follower.take() {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.sessions.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        *self.shared.upstream.lock() = None;
        self.shared.connected.store(false, Ordering::Relaxed);
    }

    /// Stop following and serving without promoting.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    /// Promote this replica to primary: seal the applied prefix, stop
    /// both socket roles, recover a full engine from the local store
    /// (replaying the reply journal and push outbox, so client retries
    /// from before the failover replay instead of re-executing), and
    /// take over the replica's own listen address with a real server.
    ///
    /// Consumes the node; returns the recovered database and the bound
    /// server. Local subscribers reconnect to the same address and
    /// resume from the restored outbox.
    pub fn promote(mut self, config: ServerConfig) -> Result<(Arc<ActiveDatabase>, HipacServer)> {
        self.stop_threads();
        // Fence coordinates for the deposed primary's eventual rejoin,
        // captured before recovery can append anything: `fence_prev` is
        // the old primary's LSN this node had durably applied at the
        // moment of promotion (anything past it on the deposed node is
        // a divergent tail that rejoin truncates away); `fence_start`
        // is this node's own durable LSN at the same instant — the
        // equivalent point in the new epoch's LSN space, so a rejoiner
        // resubscribing from it receives every post-promotion commit,
        // including any appended during recovery below.
        let (fence_prev, fence_start) = self
            .shared
            .store()
            .map(|s| {
                (
                    s.replicated_applied_lsn().ok().flatten().unwrap_or(0),
                    s.durable_lsn(),
                )
            })
            .unwrap_or((0, 0));
        // Release the replica's store handle: recovery below must be
        // the only WAL owner for this directory.
        drop(self.shared.store.lock().take());

        let db = Arc::new(ActiveDatabase::builder().durable(&self.dir).build()?);
        // Rules fire on the new primary (the gate ships open, but a
        // promotion must never inherit a closed one).
        db.rules().set_firing_gate(true);
        let counters = db.repl_counters();
        counters.promotions.store(
            self.shared.counters.promotions.load(Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        counters.replica_pushes.store(
            self.shared.counters.replica_pushes.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );

        // Bump the replication epoch *before* binding: the server's hub
        // seeds its gauges from the sidecar at bind time, and from the
        // first shipped batch onward every frame carries the new epoch
        // — fencing the deposed primary on contact.
        if let Some(store) = db.durable_store() {
            let epoch = store.repl_epoch() + 1;
            store.set_repl_epoch(epoch, fence_prev, fence_start)?;
            counters.epoch.store(epoch, Ordering::Relaxed);
            counters.fence_prev.store(fence_prev, Ordering::Relaxed);
            counters.fence_start.store(fence_start, Ordering::Relaxed);
        }

        let server = HipacServer::bind_with(Arc::clone(&db), self.listen, config)
            .map_err(|e| HipacError::Io(format!("promotion bind failed: {e}")))?;
        Ok((db, server))
    }

    /// Rejoin a deposed primary's data directory to the fleet as a
    /// replica of the node at `primary_addr` (divergence repair).
    ///
    /// While partitioned, the old primary may have committed a
    /// divergent WAL tail past the point where the new primary's
    /// lineage branched off. Rejoin probes the new primary for its
    /// fence coordinates (epoch, divergence point `fence_prev`,
    /// resubscribe watermark `fence_start`), truncates the local WAL
    /// back to the divergence point (two-phase through the base
    /// sidecar, so a crash at any step either completes or retries the
    /// cut — never leaves half a tail), adopts the new epoch, and
    /// points the resume watermark at `fence_start` in the new
    /// primary's LSN space. If the divergence point is no longer
    /// addressable in the local WAL (a checkpoint baked the tail into
    /// the data file) the watermark is set to the snapshot sentinel
    /// instead, forcing a full snapshot bootstrap. Then starts the
    /// node as an ordinary replica.
    ///
    /// Idempotent: a node that already adopted the primary's epoch (a
    /// plain replica restart, or a rejoin interrupted after adoption)
    /// is not re-truncated — everything past `fence_prev` in its WAL
    /// is new-epoch data by then.
    pub fn rejoin(
        dir: impl AsRef<Path>,
        primary_addr: impl Into<String>,
        listen: impl ToSocketAddrs,
    ) -> Result<ReplicaNode> {
        let dir = dir.as_ref().to_path_buf();
        let primary_addr = primary_addr.into();
        let stats = probe_stats(&primary_addr)?;
        if stats.repl_epoch > 0 {
            let (own, fenced) = {
                let store = DurableStore::open(&dir)?;
                (store.repl_epoch(), store.repl_fenced())
            };
            // Repair when this store has not yet caught up to the
            // primary's epoch — or when it *has* the epoch but only
            // because the wire fence forced it to adopt (the fenced
            // marker): that adoption deliberately left the divergent
            // tail in place, and only the truncation below (which
            // clears the marker) makes the WAL safe to resume from.
            if stats.repl_epoch > own || (stats.repl_epoch == own && fenced) {
                let watermark = match DurableStore::truncate_wal_tail(&dir, stats.repl_fence_prev)?
                {
                    TailTruncate::Done | TailTruncate::NothingToDo => stats.repl_fence_start,
                    TailTruncate::Gone => REPL_SNAPSHOT_SENTINEL,
                };
                // Move the watermark *before* adopting the epoch: the
                // epoch sidecar is the "repair complete" marker. A
                // crash anywhere earlier leaves the old epoch in
                // place, so the next rejoin re-runs the truncation —
                // which also cuts away a half-landed watermark commit,
                // because it sits past `fence_prev` — and retries.
                let store = DurableStore::open(&dir)?;
                store.set_replicated_watermark(watermark)?;
                store.set_repl_epoch(
                    stats.repl_epoch,
                    stats.repl_fence_prev,
                    stats.repl_fence_start,
                )?;
                drop(store);
            }
        }
        ReplicaNode::start(dir, primary_addr, listen)
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

// ---------------------------------------------------------------------
// Follower: primary connection, batch apply, progress reporting.
// ---------------------------------------------------------------------

fn follower_loop(shared: &Arc<Shared>, primary_addr: &str) {
    while !shared.stop.load(Ordering::SeqCst) {
        match follow_once(shared, primary_addr) {
            FollowEnd::Stopped | FollowEnd::StoreGone => return,
            FollowEnd::Disconnected => {
                shared.connected.store(false, Ordering::Relaxed);
                *shared.upstream.lock() = None;
                std::thread::sleep(RECONNECT_BACKOFF);
            }
        }
    }
}

enum FollowEnd {
    Stopped,
    Disconnected,
    /// Promotion took the store out from under us: exit for good.
    StoreGone,
}

/// One connection lifetime: handshake, subscribe, apply until error.
fn follow_once(shared: &Arc<Shared>, primary_addr: &str) -> FollowEnd {
    let Some(store) = shared.store() else {
        return FollowEnd::StoreGone;
    };
    let Ok(mut stream) = TcpStream::connect(primary_addr) else {
        return FollowEnd::Disconnected;
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK)).ok();
    let Ok(writer) = stream.try_clone() else {
        return FollowEnd::Disconnected;
    };
    let mut reader = FrameReader::new();

    // Handshake: ping (a primary speaking another protocol version is
    // refused), then subscribe from our durable watermark.
    let ping = Frame::Request {
        id: 1,
        meta: RequestMeta::default(),
        command: Command::Ping {
            version: PROTOCOL_VERSION,
        },
    };
    if stream.write_all(&ping.encode()).is_err() {
        return FollowEnd::Disconnected;
    }
    // Frames that arrive interleaved with a handshake ack are parked
    // here and drained by the steady loop — never discarded. (The
    // server defers peer registration until its Ok is on the wire, so
    // nothing *should* precede the ack; this is defense in depth.)
    let mut deferred: Vec<Frame> = Vec::new();
    let Ok(Reply::Pong {
        version: PROTOCOL_VERSION,
    }) = wait_reply(&mut reader, &mut stream, 1, &shared.stop, &mut deferred)
    else {
        return FollowEnd::Disconnected;
    };
    let start_lsn = store.replicated_applied_lsn().ok().flatten().unwrap_or(0);
    let sub = Frame::Request {
        id: 2,
        meta: RequestMeta::default(),
        command: Command::ReplSubscribe {
            start_lsn,
            epoch: store.repl_epoch(),
        },
    };
    if stream.write_all(&sub.encode()).is_err() {
        return FollowEnd::Disconnected;
    }
    match wait_reply(&mut reader, &mut stream, 2, &shared.stop, &mut deferred) {
        Ok(Reply::Ok) => {}
        // A typed `StaleEpoch` refusal means *this* node carries the
        // newer epoch and the addressed primary just fenced itself;
        // reconnecting will keep failing until the operator repoints
        // the follower. Either way: disconnect and retry with backoff.
        _ => return FollowEnd::Disconnected,
    }

    *shared.upstream.lock() = Some(writer);
    // Re-home our local subscriptions on the (new) primary so pushes
    // for them flow down this connection; the primary redelivers any
    // unacked outbox entries on resubscribe.
    let handlers: Vec<String> = shared.subs.lock().subscribers.keys().cloned().collect();
    for handler in handlers {
        shared.send_upstream(Command::Subscribe { handler });
    }

    // Steady state: apply the stream, one burst per socket read. The
    // digest fold is per-connection — the primary reseeds its side of
    // the exchange on every (re)subscribe, so both folds start from
    // zero together.
    let mut snapshot: Option<Vec<(Vec<u8>, Vec<u8>)>> = None;
    let mut fold: u64 = 0;
    // Frames parked during the handshake are the first burst: they
    // precede everything still in flight.
    let mut burst = deferred;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return FollowEnd::Stopped;
        }
        if burst.is_empty() {
            match reader.fill(&mut stream) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(_) => return FollowEnd::Disconnected,
            }
        }
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => burst.push(frame),
                Ok(None) => break,
                Err(_) => return FollowEnd::Disconnected,
            }
        }
        if let Some(end) = follow_burst(shared, &store, burst.drain(..), &mut snapshot, &mut fold) {
            return end;
        }
    }
}

/// Handle one burst of frames in arrival order. Consecutive
/// [`ReplMsg::Batch`] frames form a run, applied as one durable commit
/// by [`apply_run`]; any other replication or push frame ends the run
/// and is handled after it. Returns how the connection ends, if it
/// does.
fn follow_burst(
    shared: &Arc<Shared>,
    store: &Arc<DurableStore>,
    frames: impl Iterator<Item = Frame>,
    snapshot: &mut Option<Vec<(Vec<u8>, Vec<u8>)>>,
    fold: &mut u64,
) -> Option<FollowEnd> {
    let mut run: Vec<Shipped> = Vec::new();
    for frame in frames {
        let outcome = match frame {
            Frame::Repl(msg) => apply_repl(shared, store, msg, &mut run, snapshot, fold),
            // Acks of our id-0 progress/subscribe/ack sends.
            Frame::Response { .. } => continue,
            // Pushes for subscriptions homed on this replica.
            Frame::Push(event) => {
                let outcome = apply_run(shared, store, &std::mem::take(&mut run), fold);
                if matches!(outcome, ReplApply::Applied) {
                    shared.fan_out(event);
                }
                outcome
            }
            Frame::Request { .. } => return Some(FollowEnd::Disconnected),
        };
        if let Some(end) = outcome.end() {
            return Some(end);
        }
    }
    apply_run(shared, store, &run, fold).end()
}

/// One shipped [`ReplMsg::Batch`], held until its run is applied.
struct Shipped {
    prev_lsn: u64,
    next_lsn: u64,
    txn: TxnId,
    ops: Vec<StoreOp>,
    epoch: u64,
}

/// Outcome of applying replication messages.
enum ReplApply {
    Applied,
    /// The batch does not chain onto our applied watermark
    /// ([`HipacError::ReplGap`]): recoverable by resubscribing.
    Gap,
    /// The message carries an epoch older than one this node has
    /// durably observed ([`HipacError::StaleEpoch`]): a deposed
    /// primary is still shipping. Disconnect without applying.
    StaleEpoch,
    /// Local storage failed: not recoverable by reconnecting.
    StoreFailed,
}

impl ReplApply {
    /// How the follower's connection ends after this outcome, if it
    /// does.
    fn end(self) -> Option<FollowEnd> {
        match self {
            ReplApply::Applied => None,
            // The stream skipped past our watermark: drop the
            // connection and resubscribe from the durable watermark —
            // the primary resumes or snapshots, and silent divergence
            // becomes automatic recovery.
            ReplApply::Gap => Some(FollowEnd::Disconnected),
            // The stream carries an epoch older than one this node has
            // durably observed: a deposed primary is still shipping.
            // Never apply its batches; disconnect (the backoff loop
            // retries, and succeeds once the operator repoints this
            // follower at the real primary).
            ReplApply::StaleEpoch => Some(FollowEnd::Disconnected),
            // Storage failure: this node cannot keep its durability
            // promise — stop following for good.
            ReplApply::StoreFailed => Some(FollowEnd::StoreGone),
        }
    }
}

/// Observe the epoch stamped on a replication message. Newer epochs
/// are adopted (persisted first, so the observation can never be
/// rolled back by a crash); an older one marks the sender as a deposed
/// primary whose stream must not be applied. Epoch 0 is the
/// never-promoted world and always passes.
fn observe_epoch(shared: &Arc<Shared>, store: &Arc<DurableStore>, wire_epoch: u64) -> ReplApply {
    if wire_epoch == 0 {
        return ReplApply::Applied;
    }
    let own = store.repl_epoch();
    if wire_epoch < own {
        shared.counters.stale_epochs.fetch_add(1, Ordering::Relaxed);
        return ReplApply::StaleEpoch;
    }
    if wire_epoch > own {
        let (prev, start) = store.repl_fence();
        if store.set_repl_epoch(wire_epoch, prev, start).is_err() {
            return ReplApply::StoreFailed;
        }
        shared.counters.epoch.store(wire_epoch, Ordering::Relaxed);
    }
    ReplApply::Applied
}

/// Apply a run of consecutive shipped batches: every batch's epoch is
/// observed in order, then the whole run is one durable commit
/// ([`DurableStore::apply_replicated_run`]) and one view update, each
/// batch's digest is folded in order (the primary logs one fold per
/// batch), and one progress report carries the run's last LSN and the
/// fold. A stale epoch or a chaining gap anywhere in the run applies
/// none of it — the resubscribe that follows re-ships the whole run.
fn apply_run(
    shared: &Arc<Shared>,
    store: &Arc<DurableStore>,
    run: &[Shipped],
    fold: &mut u64,
) -> ReplApply {
    let Some(last) = run.last() else {
        return ReplApply::Applied;
    };
    for b in run {
        match observe_epoch(shared, store, b.epoch) {
            ReplApply::Applied => {}
            other => return other,
        }
    }
    let batches: Vec<ReplBatch<'_>> = run
        .iter()
        .map(|b| ReplBatch {
            ops: &b.ops,
            prev_lsn: b.prev_lsn,
            next_lsn: b.next_lsn,
        })
        .collect();
    match store.apply_replicated_run(&batches) {
        Ok(()) => {}
        Err(HipacError::ReplGap { .. }) => return ReplApply::Gap,
        Err(_) => return ReplApply::StoreFailed,
    }
    let c = &shared.counters;
    c.apply_runs.fetch_add(1, Ordering::Relaxed);
    let next_lsn = last.next_lsn;
    if shared
        .view
        .apply_ops(run.iter().flat_map(|b| &b.ops), next_lsn)
        .is_err()
    {
        return ReplApply::StoreFailed;
    }
    for b in run {
        *fold = fold_digest(*fold, batch_digest(b.next_lsn, b.txn, &b.ops));
    }
    let frontier = shared
        .primary_durable
        .fetch_max(next_lsn, Ordering::Relaxed)
        .max(next_lsn);
    c.record_applied(next_lsn, frontier);
    shared.connected.store(true, Ordering::Relaxed);
    shared.send_upstream(Command::ReplProgress {
        applied_lsn: next_lsn,
        epoch: store.repl_epoch(),
        digest: *fold,
    });
    ReplApply::Applied
}

/// Take one replication message, threading the connection's digest
/// fold (reported back to the primary with every progress frame). A
/// batch joins the pending `run`; any other message first applies the
/// run, then itself.
fn apply_repl(
    shared: &Arc<Shared>,
    store: &Arc<DurableStore>,
    msg: ReplMsg,
    run: &mut Vec<Shipped>,
    snapshot: &mut Option<Vec<(Vec<u8>, Vec<u8>)>>,
    fold: &mut u64,
) -> ReplApply {
    if !matches!(msg, ReplMsg::Batch { .. }) {
        match apply_run(shared, store, &std::mem::take(run), fold) {
            ReplApply::Applied => {}
            other => return other,
        }
    }
    match msg {
        ReplMsg::Batch {
            prev_lsn,
            next_lsn,
            txn,
            ops,
            epoch,
            ..
        } => run.push(Shipped {
            prev_lsn,
            next_lsn,
            txn,
            ops,
            epoch,
        }),
        ReplMsg::SnapshotBegin { .. } => *snapshot = Some(Vec::new()),
        ReplMsg::SnapshotChunk { pairs } => {
            if let Some(buf) = snapshot.as_mut() {
                buf.extend(pairs);
            }
        }
        ReplMsg::SnapshotEnd { snapshot_lsn, epoch } => {
            match observe_epoch(shared, store, epoch) {
                ReplApply::Applied => {}
                other => return other,
            }
            let Some(pairs) = snapshot.take() else {
                return ReplApply::Applied; // end without begin: ignore
            };
            if store.install_snapshot(&pairs, snapshot_lsn).is_err() {
                return ReplApply::StoreFailed;
            }
            if shared.view.install(&pairs, snapshot_lsn).is_err() {
                return ReplApply::StoreFailed;
            }
            // A snapshot restarts the stream — both sides reseed their
            // digest folds at zero.
            *fold = 0;
            let frontier = shared
                .primary_durable
                .fetch_max(snapshot_lsn, Ordering::Relaxed)
                .max(snapshot_lsn);
            shared.counters.record_applied(snapshot_lsn, frontier);
            shared.connected.store(true, Ordering::Relaxed);
            shared.send_upstream(Command::ReplProgress {
                applied_lsn: snapshot_lsn,
                epoch: store.repl_epoch(),
                digest: *fold,
            });
        }
        ReplMsg::Heartbeat { durable_lsn, epoch } => {
            match observe_epoch(shared, store, epoch) {
                ReplApply::Applied => {}
                other => return other,
            }
            let frontier = shared
                .primary_durable
                .fetch_max(durable_lsn, Ordering::Relaxed)
                .max(durable_lsn);
            let applied = shared.counters.last_applied_lsn.load(Ordering::Relaxed);
            shared.counters.record_applied(applied, frontier);
            shared.connected.store(true, Ordering::Relaxed);
        }
    }
    ReplApply::Applied
}

/// Read frames until the response with `id` arrives (handshakes and the
/// fence probe), until `stop` is set, or until [`HANDSHAKE_TIMEOUT`].
/// Any other frame that turns up — a Repl batch or a Push racing the
/// ack onto the shared writer — is parked in `deferred` for the steady
/// loop, never dropped: a discarded batch here would silently vanish
/// from the replica while the primary's shipped cursor moves past it.
fn wait_reply(
    reader: &mut FrameReader,
    stream: &mut TcpStream,
    id: u64,
    stop: &AtomicBool,
    deferred: &mut Vec<Frame>,
) -> Result<Reply> {
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
        match reader.poll(stream) {
            Ok(Some(Frame::Response { id: got, reply })) if got == id => return Ok(reply),
            Ok(Some(f)) => deferred.push(f),
            Ok(None) => {}
            Err(e) => return Err(HipacError::Io(e.to_string())),
        }
    }
    Err(HipacError::Io("no reply within the handshake timeout".into()))
}

// ---------------------------------------------------------------------
// Read server: snapshot queries, local subscriptions, typed refusals.
// ---------------------------------------------------------------------

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("hipac-repl-session".into())
                    .spawn(move || session_loop(&shared, stream))
                {
                    sessions.lock().push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

fn session_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK)).ok();
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer_stream));
    let session = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    let mut reader = FrameReader::new();

    while !shared.stop.load(Ordering::SeqCst) {
        let (id, command) = match reader.poll(&mut stream) {
            Ok(Some(Frame::Request { id, command, .. })) => (id, command),
            Ok(None) => continue,
            _ => break,
        };
        let reply = execute(shared, session, &writer, command);
        let frame = Frame::Response { id, reply };
        if writer.lock().write_all(&frame.encode()).is_err() {
            break;
        }
    }

    // Drop this session's subscriptions (the upstream subscription
    // stays: the primary's outbox redelivers to the next subscriber).
    let mut subs = shared.subs.lock();
    for writers in subs.subscribers.values_mut() {
        writers.retain(|(sid, _)| *sid != session);
    }
}

fn execute(
    shared: &Arc<Shared>,
    session: u64,
    writer: &Arc<Mutex<TcpStream>>,
    command: Command,
) -> Reply {
    match command {
        Command::Ping { version } => ping_reply(version),
        Command::Stats => {
            let c = &shared.counters;
            Reply::Stats(Box::new(WireStats {
                repl_role: c.role.load(Ordering::Relaxed),
                last_shipped_lsn: c.last_shipped_lsn.load(Ordering::Relaxed),
                last_applied_lsn: c.last_applied_lsn.load(Ordering::Relaxed),
                repl_lag_bytes: c.lag_bytes.load(Ordering::Relaxed),
                replica_pushes: c.replica_pushes.load(Ordering::Relaxed),
                promotions: c.promotions.load(Ordering::Relaxed),
                repl_epoch: c.epoch.load(Ordering::Relaxed),
                repl_fence_prev: c.fence_prev.load(Ordering::Relaxed),
                repl_fence_start: c.fence_start.load(Ordering::Relaxed),
                ..WireStats::default()
            }))
        }
        // Snapshot reads at the applied-LSN watermark. Transactional
        // reads need the primary's lock manager — refuse them the same
        // way as writes so the client reroutes.
        Command::Query { txn, text, params } => {
            if txn.raw() != 0 {
                return not_primary("transactional reads");
            }
            match shared.view.query(&text, &params) {
                Ok(rows) => Reply::Rows(
                    rows.into_iter()
                        .map(|r| WireRow {
                            oid: r.oid.raw(),
                            class: r.class.raw(),
                            values: r.values.to_vec(),
                        })
                        .collect(),
                ),
                Err(e) => Reply::from(e),
            }
        }
        // Subscriptions homed on this replica: register locally,
        // re-home upstream, and redeliver anything still unacked.
        Command::Subscribe { handler } => {
            let pending: Vec<PushEvent> = {
                let mut subs = shared.subs.lock();
                subs.subscribers
                    .entry(handler.clone())
                    .or_default()
                    .push((session, Arc::clone(writer)));
                subs.pending
                    .get(&handler)
                    .map(|m| m.values().cloned().collect())
                    .unwrap_or_default()
            };
            shared.send_upstream(Command::Subscribe { handler });
            for event in pending {
                let wire = Frame::Push(event).encode();
                if writer.lock().write_all(&wire).is_ok() {
                    shared.counters.replica_pushes.fetch_add(1, Ordering::Relaxed);
                }
            }
            Reply::Ok
        }
        Command::Unsubscribe { handler } => {
            if let Some(writers) = shared.subs.lock().subscribers.get_mut(&handler) {
                writers.retain(|(sid, _)| *sid != session);
            }
            Reply::Ok
        }
        // The ack retires the push locally and flows to the primary's
        // durable outbox — the source of truth for exactly-once.
        Command::AckPush { handler, seq } => {
            if let Some(m) = shared.subs.lock().pending.get_mut(&handler) {
                m.remove(&seq);
            }
            shared.send_upstream(Command::AckPush { handler, seq });
            Reply::Ok
        }
        Command::ReplSubscribe { .. } | Command::ReplProgress { .. } => Reply::Err {
            kind: "Unsupported".to_owned(),
            message: "replicas do not ship the stream onward".to_owned(),
        },
        // Every mutation (and transaction control) belongs on the
        // primary; the typed kind lets a fleet client reroute.
        _ => not_primary("writes"),
    }
}

fn not_primary(what: &str) -> Reply {
    Reply::Err {
        kind: "NotPrimary".to_owned(),
        message: format!("this node is a replica; {what} must go to the primary"),
    }
}

// ---------------------------------------------------------------------
// Fencing helpers: probing fence coordinates and healing split-brain.
// ---------------------------------------------------------------------

/// Fetch replication stats from `addr` over a throwaway connection —
/// the transport by which a rejoiner learns the new primary's fence
/// coordinates (`repl_epoch`, `repl_fence_prev`, `repl_fence_start`).
fn probe_stats(addr: &str) -> Result<WireStats> {
    let client =
        hipac_net::HipacClient::connect(addr).map_err(|e| HipacError::Io(e.to_string()))?;
    client.stats().map_err(|e| HipacError::Io(e.to_string()))
}

/// Deliver a newer epoch to a node that may still believe it is
/// primary ("fence on heal"): connect, handshake, and send one
/// `ReplProgress` frame stamped with `epoch`. A server that sees an
/// epoch newer than its own fences itself — every subsequent write is
/// refused with a typed `NotPrimary` error — and answers this frame
/// with a typed `StaleEpoch` refusal, which here means the fence
/// *took*. Returns `Ok(())` once the frame was delivered and the peer
/// acknowledged the epoch (fenced now, or already fenced).
pub fn fence_stale_primary(addr: &str, epoch: u64) -> Result<()> {
    let mut stream = TcpStream::connect(addr).map_err(|e| HipacError::Io(e.to_string()))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK)).ok();
    let mut reader = FrameReader::new();

    let ping = Frame::Request {
        id: 1,
        meta: RequestMeta::default(),
        command: Command::Ping {
            version: PROTOCOL_VERSION,
        },
    };
    stream
        .write_all(&ping.encode())
        .map_err(|e| HipacError::Io(e.to_string()))?;
    let (stop, mut ignored) = (AtomicBool::new(false), Vec::new());
    match wait_reply(&mut reader, &mut stream, 1, &stop, &mut ignored)? {
        Reply::Pong {
            version: PROTOCOL_VERSION,
        } => {}
        other => return Err(HipacError::Io(format!("unexpected handshake reply: {other:?}"))),
    }

    let fence = Frame::Request {
        id: 2,
        meta: RequestMeta::default(),
        command: Command::ReplProgress {
            applied_lsn: 0,
            epoch,
            digest: 0,
        },
    };
    stream
        .write_all(&fence.encode())
        .map_err(|e| HipacError::Io(e.to_string()))?;
    match wait_reply(&mut reader, &mut stream, 2, &stop, &mut ignored)? {
        // `Ok`: the peer was at (or already past) this epoch.
        // `StaleEpoch`: the peer just fenced itself against our newer
        // epoch and refused the frame — exactly the intended effect.
        Reply::Ok => Ok(()),
        Reply::Err { ref kind, .. } if kind == "StaleEpoch" => Ok(()),
        other => Err(HipacError::Io(format!("fence frame refused: {other:?}"))),
    }
}
