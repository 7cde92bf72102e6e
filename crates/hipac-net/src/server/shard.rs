//! The reactor shards, which read every socket through one
//! [`FrameReader`] per shard and queue decoded frames per connection,
//! and the dispatch workers, which drain one connection at a time.

use super::dispatch::handle;
use super::{ServerCtx, READ_TICK};
use crate::proto::Frame;
use crate::reactor::Poller;
use crate::reader::FrameReader;
use hipac_common::TxnId;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

type Jobs = crossbeam::channel::Sender<Arc<ConnShared>>;

/// Resolved shard count: the explicit knob, or a small default from
/// the machine's parallelism (shards are event loops, not compute —
/// a few go a long way).
pub(super) fn resolve_shards(knob: usize) -> usize {
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
    /// A complete frame read by the owning shard.
    Frame(Frame),
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
pub(super) struct SessionCore {
    /// The tenant identity this session has proven with `Command::Auth`;
    /// `None` until a valid token arrives. With an `auth_secret`
    /// configured, keyed requests are honored only when their asserted
    /// `client_id` equals this — which is what stops a hostile peer
    /// from replaying another tenant's journal or acking its pushes.
    pub(super) auth: Option<u64>,
    /// Transactions begun by this session and not yet terminated.
    pub(super) open_txns: HashSet<TxnId>,
    /// A `ReplSubscribe` accepted but not yet registered with the hub:
    /// `(start_lsn, peer_epoch)`. Registration is deferred until the
    /// Ok response frame has been written to the socket: were the peer
    /// registered first, the shipper could interleave Repl frames
    /// *before* the Ok on the shared writer, and the replica's
    /// handshake would have to cope with replicated data arriving
    /// ahead of the acknowledgement.
    pub(super) pending_repl: Option<(u64, u64)>,
}

/// Connection state shared between the owning shard (which reads) and
/// the worker pool (which executes and writes).
pub(super) struct ConnShared {
    pub(super) id: u64,
    /// The reactor shard owning this connection's socket reads.
    shard: usize,
    pub(super) writer: Arc<Mutex<TcpStream>>,
    pub(super) core: Mutex<SessionCore>,
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
    /// Bytes read but not yet queued, parked here between the shard's
    /// turns on this connection: a partial frame, or — when the queue
    /// paused the connection mid-burst — complete frames too. Empty,
    /// and unallocated, for an idle connection.
    rest: Vec<u8>,
    last_activity: Instant,
    shared: Arc<ConnShared>,
}

/// A shard's mailbox, shared with the accept thread and the workers.
pub(super) struct ShardHandle {
    /// Freshly admitted sockets awaiting adoption by the shard.
    pub(super) inbox: Mutex<Vec<TcpStream>>,
    /// Connection ids whose reads should be re-armed (queue drained).
    pub(super) resume: Mutex<Vec<u64>>,
    /// Write end of the shard's wake pipe.
    pub(super) wake: Mutex<TcpStream>,
}

/// Append `item` to the connection's queue and submit the connection
/// to the worker pool if no worker is already draining it. Returns
/// whether the queue reached [`PENDING_CAP`]; the connection is then
/// marked paused under the queue lock, so the worker that drains the
/// queue is certain to see the mark and ask for a resume.
fn enqueue(conn: &Arc<ConnShared>, item: WorkItem, jobs: &Jobs) -> bool {
    let mut q = conn.queue.lock();
    q.pending.push_back(item);
    let full = q.pending.len() >= PENDING_CAP;
    if full {
        conn.paused.store(true, Ordering::Release);
    }
    if !q.busy {
        q.busy = true;
        drop(q);
        let _ = jobs.send(Arc::clone(conn));
    }
    full
}

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// The reactor shard event loop: adopts admitted sockets, reads frames
/// from every connection it owns, and dispatches complete frames to
/// the worker pool through per-connection queues. All socket reads for
/// a connection happen here — workers only write.
pub(super) fn shard_loop(
    idx: usize,
    handle: Arc<ShardHandle>,
    mut wake_rx: TcpStream,
    ctx: Arc<ServerCtx>,
    jobs: Jobs,
    stop: Arc<AtomicBool>,
) {
    let poller = Poller::new().expect("create shard poller");
    let _ = poller.add(wake_rx.as_raw_fd(), WAKE_TOKEN);
    let mut reader = FrameReader::new();
    let mut conns: HashMap<u64, ShardConn> = HashMap::new();
    let mut events: Vec<(u64, u32)> = Vec::new();
    let mut last_idle_sweep = Instant::now();
    while !stop.load(Ordering::Acquire) {
        events.clear();
        let _ = poller.wait(&mut events, READ_TICK);
        let mut check_dead = false;
        for &(token, _flags) in &events {
            if token == WAKE_TOKEN {
                crate::reactor::drain_wake(&mut wake_rx);
                check_dead = true;
                continue;
            }
            let Some(sc) = conns.get_mut(&token) else {
                continue;
            };
            if !pump(&mut reader, sc, &poller, &jobs) {
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
        let resumed = std::mem::take(&mut *handle.resume.lock());
        for id in resumed {
            let Some(sc) = conns.get_mut(&id) else {
                continue;
            };
            sc.shared.paused.store(false, Ordering::Release);
            // Frames read before the pause are parked in `rest`, where
            // epoll will never report them: queue them now. What the
            // kernel still holds re-reports once reads are re-armed
            // (level-triggered).
            if !pump(&mut reader, sc, &poller, &jobs) {
                if let Some(sc) = conns.remove(&id) {
                    retire(&poller, sc, &jobs);
                }
            } else if !sc.shared.paused.load(Ordering::Acquire) {
                let _ = poller.set_readable(sc.stream.as_raw_fd(), id, true);
            }
        }
        if check_dead {
            let dead = |sc: &ShardConn| sc.shared.dead.load(Ordering::Acquire);
            retire_where(&mut conns, &poller, &jobs, dead);
        }
        if last_idle_sweep.elapsed() >= IDLE_SWEEP_EVERY {
            last_idle_sweep = Instant::now();
            let idle_timeout = ctx.cfg.idle_timeout;
            let idle = |sc: &ShardConn| sc.last_activity.elapsed() >= idle_timeout;
            retire_where(&mut conns, &poller, &jobs, idle);
        }
    }
    // Shutdown: adopt whatever the accept thread already admitted (so
    // the gauge bookkeeping stays uniform), then retire everything.
    // The teardowns run after any frames already dispatched.
    for stream in handle.inbox.lock().drain(..) {
        adopt(idx, stream, &poller, &mut conns, &ctx);
    }
    for (_, sc) in conns.drain() {
        retire(&poller, sc, &jobs);
    }
}

/// Queue every complete frame of `sc` — those parked in its `rest`
/// first, then what each further `read` brings — until the socket has
/// nothing more or the queue pauses the connection. Returns `false`
/// when the connection must be retired: EOF, a transport error, or a
/// protocol violation (an oversize or undecodable frame), which ends
/// the session after the frames already queued.
fn pump(reader: &mut FrameReader, sc: &mut ShardConn, poller: &Poller, jobs: &Jobs) -> bool {
    if sc.shared.paused.load(Ordering::Acquire) {
        return true;
    }
    reader.unpark(std::mem::take(&mut sc.rest));
    let alive = loop {
        match reader.next_frame() {
            Ok(Some(frame)) => {
                sc.last_activity = Instant::now();
                if enqueue(&sc.shared, WorkItem::Frame(frame), jobs) {
                    let _ = poller.set_readable(sc.stream.as_raw_fd(), sc.shared.id, false);
                    break true;
                }
            }
            Ok(None) => match reader.fill(&mut sc.stream) {
                Ok(true) => {}
                Ok(false) => break true,
                Err(_) => break false,
            },
            Err(_) => break false,
        }
    };
    sc.rest = reader.park();
    alive
}

/// Register an admitted socket with this shard.
fn adopt(
    shard_idx: usize,
    stream: TcpStream,
    poller: &Poller,
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
            rest: Vec::new(),
            last_activity: Instant::now(),
            shared,
        },
    );
}

/// Retire every connection `doomed` picks.
fn retire_where(
    conns: &mut HashMap<u64, ShardConn>,
    poller: &Poller,
    jobs: &Jobs,
    doomed: impl Fn(&ShardConn) -> bool,
) {
    let ids: Vec<u64> = conns
        .iter()
        .filter(|(_, sc)| doomed(sc))
        .map(|(id, _)| *id)
        .collect();
    for id in ids {
        if let Some(sc) = conns.remove(&id) {
            retire(poller, sc, jobs);
        }
    }
}

/// Deregister and close a connection's socket, then enqueue its
/// teardown (which runs after any frames already in its queue).
fn retire(poller: &Poller, sc: ShardConn, jobs: &Jobs) {
    let _ = poller.del(sc.stream.as_raw_fd());
    let _ = sc.stream.shutdown(std::net::Shutdown::Both);
    enqueue(&sc.shared, WorkItem::Teardown, jobs);
}

/// A dispatch worker: drains per-connection queues handed over by the
/// shards, one connection at a time (the `busy` flag keeps two workers
/// off the same connection, so a session's requests execute in order).
pub(super) fn worker_loop(ctx: Arc<ServerCtx>, rx: crossbeam::channel::Receiver<Arc<ConnShared>>) {
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
                WorkItem::Frame(frame) => process_frame(&ctx, &conn, frame),
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
fn process_frame(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, frame: Frame) {
    if conn.dead.load(Ordering::Acquire) {
        return; // doomed by an earlier write failure; skip the backlog
    }
    let Frame::Request { id, meta, command } = frame else {
        // Clients never send responses or pushes; treat as a protocol
        // violation and drop the session.
        mark_dead(ctx, conn);
        return;
    };
    let reply = handle(ctx, conn, meta, command);
    let bytes = Frame::Response { id, reply }.encode();
    let sent =
        crate::reactor::write_all_timeout(&mut conn.writer.lock(), &bytes, RESPONSE_WRITE_TIMEOUT)
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
