//! The reactor shards, which read every socket through one
//! [`FrameReader`] per shard and queue decoded frames per connection;
//! the dispatch workers, which drain one connection at a time; and
//! [`ConnShared::send`], the one way bytes go out to a connection.

use super::dispatch::handle;
use super::{ServerCtx, READ_TICK};
use crate::proto::Frame;
use crate::reactor::Poller;
use crate::reader::FrameReader;
use hipac_common::TxnId;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, IoSlice, Write};
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

/// A connection whose oldest queued outbound byte has waited this long
/// is retired: a peer that stops reading is cut loose.
const OUTBOUND_STALL: Duration = Duration::from_secs(5);

/// Queued frames one vectored write takes at most.
const MAX_IOV: usize = 64;

/// Poller token reserved for a shard's wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;

/// How often a shard retires idle and stalled connections.
const SWEEP_EVERY: Duration = Duration::from_millis(100);

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
    /// Ok response frame is queued: were the peer registered first,
    /// the shipper could queue Repl frames *before* the Ok, and the
    /// replica's handshake would have to cope with replicated data
    /// arriving ahead of the acknowledgement.
    pub(super) pending_repl: Option<(u64, u64)>,
}

/// A connection's outbound queue: frames not yet wholly on the wire, in
/// the order sent, each stamped with when it was queued.
#[derive(Default)]
struct OutQueue {
    frames: VecDeque<(Vec<u8>, Instant)>,
    /// Bytes of the front frame already written.
    head: usize,
    /// A write failed or the connection was retired: nothing is queued.
    closed: bool,
}

impl OutQueue {
    /// Write what the socket takes of the queue, then of `next` (a frame
    /// not yet queued), without waiting, and return how many bytes of
    /// `next` went out. The only code that writes to a server socket.
    fn write_out(&mut self, stream: &TcpStream, next: &[u8]) -> io::Result<usize> {
        let mut sent = 0;
        loop {
            let written = if self.frames.is_empty() {
                if sent == next.len() {
                    break;
                }
                (&*stream).write(&next[sent..])
            } else {
                let mut iov = [IoSlice::new(&[]); MAX_IOV];
                for (slot, (f, _)) in iov.iter_mut().zip(&self.frames) {
                    *slot = IoSlice::new(f);
                }
                iov[0] = IoSlice::new(&self.frames[0].0[self.head..]);
                (&*stream).write_vectored(&iov[..self.frames.len().min(MAX_IOV)])
            };
            let mut n = match written {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            while let Some((f, _)) = self.frames.front() {
                let left = f.len() - self.head;
                if n < left {
                    self.head += n;
                    n = 0;
                    break;
                }
                n -= left;
                self.frames.pop_front();
                self.head = 0;
            }
            sent += n;
        }
        if self.frames.is_empty() {
            // An idle connection holds no queue buffer.
            self.frames = VecDeque::new();
        }
        Ok(sent)
    }

    /// Drop what is queued and refuse what comes.
    fn close(&mut self) {
        self.frames = VecDeque::new();
        self.head = 0;
        self.closed = true;
    }
}

/// Connection state shared by its shard, the workers, and every sender
/// (replies, pushes, the replication shipper).
pub(super) struct ConnShared {
    pub(super) id: u64,
    /// The reactor shard owning this connection.
    shard: Arc<ShardHandle>,
    /// Read by the shard, written by [`OutQueue::write_out`].
    stream: TcpStream,
    out: Mutex<OutQueue>,
    pub(super) core: Mutex<SessionCore>,
    queue: Mutex<ConnQueue>,
    /// Set on a doomed connection (a write failed, a protocol
    /// violation): queued frames are skipped and the shard retires the
    /// socket at its next wake.
    dead: AtomicBool,
    /// Reads disarmed because the dispatch queue hit [`PENDING_CAP`];
    /// the worker that drains the queue clears it and asks the shard to
    /// re-arm.
    paused: AtomicBool,
}

impl ConnShared {
    pub(super) fn new(id: u64, stream: TcpStream, shard: Arc<ShardHandle>) -> ConnShared {
        ConnShared {
            id,
            shard,
            stream,
            out: Mutex::new(OutQueue::default()),
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
        }
    }

    /// Send one encoded frame, in the order `send` calls take the queue
    /// lock. With nothing queued ahead it is written at once, as far as
    /// the socket takes it; the shard finishes the rest when the socket
    /// turns writable. Never waits. `false` once the connection closed.
    pub(super) fn send(&self, frame: &[u8]) -> bool {
        let mut out = self.out.lock();
        if out.closed {
            return false;
        }
        if !out.frames.is_empty() {
            // The shard is finishing the queue; this frame goes after it.
            out.frames.push_back((frame.to_vec(), Instant::now()));
            return true;
        }
        match out.write_out(&self.stream, frame) {
            Ok(n) if n == frame.len() => {}
            Ok(n) => {
                // A backlog formed: the shard arms writes, pauses reads.
                out.frames.push_back((frame[n..].to_vec(), Instant::now()));
                drop(out);
                self.shard.poke(self.id);
            }
            Err(_) => {
                out.close();
                drop(out);
                self.doom();
                return false;
            }
        }
        true
    }

    /// Whether outbound bytes wait to be written.
    pub(super) fn backlogged(&self) -> bool {
        !self.out.lock().frames.is_empty()
    }

    /// Write what the socket takes of the queue (the shard's half of
    /// [`ConnShared::send`]); `Ok(true)` once it is empty.
    fn flush(&self) -> io::Result<bool> {
        let mut out = self.out.lock();
        out.write_out(&self.stream, &[])?;
        Ok(out.frames.is_empty())
    }

    /// Whether the oldest queued byte has waited [`OUTBOUND_STALL`].
    fn stalled(&self) -> bool {
        let out = self.out.lock();
        out.frames.front().is_some_and(|(_, t)| t.elapsed() >= OUTBOUND_STALL)
    }

    /// Doom the connection; its shard retires the socket (and enqueues
    /// the teardown) at its next wake.
    fn doom(&self) {
        if !self.dead.swap(true, Ordering::AcqRel) {
            self.shard.wake();
        }
    }
}

/// Shard-private per-connection state (owned by the shard thread).
struct ShardConn {
    /// Bytes read but not yet queued, parked here between the shard's
    /// turns on this connection: a partial frame, or — when the queue
    /// paused the connection mid-burst — complete frames too. Empty,
    /// and unallocated, for an idle connection.
    rest: Vec<u8>,
    last_activity: Instant,
    /// Outbound bytes were left after the shard's last flush.
    backlog: bool,
    /// The `(read, write)` interest last set with the poller.
    armed: (bool, bool),
    shared: Arc<ConnShared>,
}

/// A shard's mailbox, shared with the accept thread and every sender.
pub(super) struct ShardHandle {
    /// Freshly admitted sockets awaiting adoption by the shard.
    pub(super) inbox: Mutex<Vec<TcpStream>>,
    /// Connections to serve again: a drained dispatch queue or a fresh
    /// outbound backlog.
    poked: Mutex<Vec<u64>>,
    /// Write end of the shard's wake pipe.
    wake: Mutex<TcpStream>,
}

impl ShardHandle {
    /// A shard's mailbox and the read end of its wake pipe.
    pub(super) fn new() -> io::Result<(Arc<ShardHandle>, TcpStream)> {
        let (read_end, write_end) = crate::reactor::wake_pair()?;
        let handle = ShardHandle {
            inbox: Mutex::new(Vec::new()),
            poked: Mutex::new(Vec::new()),
            wake: Mutex::new(write_end),
        };
        Ok((Arc::new(handle), read_end))
    }

    pub(super) fn wake(&self) {
        crate::reactor::signal_wake(&mut *self.wake.lock());
    }

    /// Ask the shard to serve connection `id` again.
    fn poke(&self, id: u64) {
        self.poked.lock().push(id);
        self.wake();
    }
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
/// from every connection it owns, dispatches complete frames to the
/// worker pool through per-connection queues, and finishes outbound
/// queues the senders left for it. All socket reads for a connection
/// happen here.
pub(super) fn shard_loop(
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
    let mut last_sweep = Instant::now();
    while !stop.load(Ordering::Acquire) {
        events.clear();
        let _ = poller.wait(&mut events, READ_TICK);
        let mut check_dead = false;
        let mut ready: Vec<u64> = Vec::with_capacity(events.len());
        for &(token, _flags) in &events {
            if token == WAKE_TOKEN {
                crate::reactor::drain_wake(&mut wake_rx);
                check_dead = true;
            } else {
                ready.push(token);
            }
        }
        // Adoption and pokes are signaled through the wake pipe, but
        // checking the mailboxes every pass keeps the fallback poller
        // (whose wakes are advisory) correct too.
        for stream in handle.inbox.lock().drain(..) {
            adopt(&handle, stream, &poller, &mut conns, &ctx);
        }
        ready.append(&mut handle.poked.lock());
        for id in ready {
            let Some(sc) = conns.get_mut(&id) else {
                continue;
            };
            if !serve(&mut reader, sc, &poller, &jobs) {
                if let Some(sc) = conns.remove(&id) {
                    retire(&poller, sc, &jobs);
                }
            }
        }
        if check_dead {
            let dead = |sc: &ShardConn| sc.shared.dead.load(Ordering::Acquire);
            retire_where(&mut conns, &poller, &jobs, dead);
        }
        if last_sweep.elapsed() >= SWEEP_EVERY {
            last_sweep = Instant::now();
            let idle_timeout = ctx.cfg.idle_timeout;
            let doomed = |sc: &ShardConn| {
                sc.last_activity.elapsed() >= idle_timeout || (sc.backlog && sc.shared.stalled())
            };
            retire_where(&mut conns, &poller, &jobs, doomed);
        }
    }
    // Shutdown: adopt whatever the accept thread already admitted (so
    // the gauge bookkeeping stays uniform), then retire everything.
    // The teardowns run after any frames already dispatched.
    for stream in handle.inbox.lock().drain(..) {
        adopt(&handle, stream, &poller, &mut conns, &ctx);
    }
    for (_, sc) in conns.drain() {
        retire(&poller, sc, &jobs);
    }
}

/// Serve a connection that is ready or poked: flush its outbound queue;
/// then, if that emptied it, queue the frames it sent; and set the
/// poller interest to match — a peer that stops reading stops being
/// served. Returns `false` when the connection must be retired.
fn serve(reader: &mut FrameReader, sc: &mut ShardConn, poller: &Poller, jobs: &Jobs) -> bool {
    sc.backlog = match sc.shared.flush() {
        Ok(drained) => !drained,
        Err(_) => return false,
    };
    if !pump(reader, sc, jobs) {
        return false;
    }
    let want = (
        !sc.backlog && !sc.shared.paused.load(Ordering::Acquire),
        sc.backlog,
    );
    if want != sc.armed {
        let fd = sc.shared.stream.as_raw_fd();
        let _ = poller.set_interest(fd, sc.shared.id, want.0, want.1);
        sc.armed = want;
    }
    true
}

/// Queue every complete frame of `sc` — those parked in its `rest`
/// first, then what each further `read` brings — until the socket has
/// nothing more or the queue pauses the connection. Does nothing while
/// outbound bytes wait or the connection is paused. Returns `false`
/// when the connection must be retired: EOF, a transport error, or a
/// protocol violation (an oversize or undecodable frame), which ends
/// the session after the frames already queued.
fn pump(reader: &mut FrameReader, sc: &mut ShardConn, jobs: &Jobs) -> bool {
    if sc.backlog || sc.shared.paused.load(Ordering::Acquire) {
        return true;
    }
    reader.unpark(std::mem::take(&mut sc.rest));
    let alive = loop {
        match reader.next_frame() {
            Ok(Some(frame)) => {
                sc.last_activity = Instant::now();
                if enqueue(&sc.shared, WorkItem::Frame(frame), jobs) {
                    break true;
                }
            }
            Ok(None) => match reader.fill(&mut &sc.shared.stream) {
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
    handle: &Arc<ShardHandle>,
    stream: TcpStream,
    poller: &Poller,
    conns: &mut HashMap<u64, ShardConn>,
    ctx: &Arc<ServerCtx>,
) {
    let id = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    if poller.add(stream.as_raw_fd(), id).is_err() {
        // Admission already counted it; undo (no session state exists).
        ctx.shared.active_connections.fetch_sub(1, Ordering::Relaxed);
        return;
    }
    conns.insert(
        id,
        ShardConn {
            rest: Vec::new(),
            last_activity: Instant::now(),
            backlog: false,
            armed: (true, false),
            shared: Arc::new(ConnShared::new(id, stream, Arc::clone(handle))),
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

/// Deregister and close a connection's socket — after one last write
/// of what the socket takes of its outbound queue — then enqueue its
/// teardown (which runs after any frames already in its queue).
fn retire(poller: &Poller, sc: ShardConn, jobs: &Jobs) {
    let conn = &sc.shared;
    {
        let mut out = conn.out.lock();
        let _ = out.write_out(&conn.stream, &[]);
        out.close();
    }
    let _ = poller.del(conn.stream.as_raw_fd());
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    enqueue(conn, WorkItem::Teardown, jobs);
}

/// A dispatch worker: drains per-connection queues handed over by the
/// shards, one connection at a time (the `busy` flag keeps two workers
/// off the same connection, so a session's requests execute in order).
pub(super) fn worker_loop(ctx: Arc<ServerCtx>, rx: crossbeam::channel::Receiver<Arc<ConnShared>>) {
    while let Ok(conn) = rx.recv() {
        let resume = loop {
            let item = {
                let mut q = conn.queue.lock();
                match q.pending.pop_front() {
                    Some(i) => i,
                    None => {
                        q.busy = false;
                        break conn.paused.swap(false, Ordering::AcqRel);
                    }
                }
            };
            match item {
                WorkItem::Frame(frame) => process_frame(&ctx, &conn, frame),
                WorkItem::Teardown => teardown(&ctx, &conn),
            }
        };
        // Drained a paused connection: ask its shard to re-arm reads.
        if resume && !conn.dead.load(Ordering::Acquire) {
            conn.shard.poke(conn.id);
        }
    }
}

/// Execute one request frame and send its response.
fn process_frame(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, frame: Frame) {
    if conn.dead.load(Ordering::Acquire) {
        return; // doomed by an earlier write failure; skip the backlog
    }
    let Frame::Request { id, meta, command } = frame else {
        // Clients never send responses or pushes; treat as a protocol
        // violation and drop the session.
        conn.doom();
        return;
    };
    let reply = handle(ctx, conn, meta, command);
    if !conn.send(&Frame::Response { id, reply }.encode()) {
        return;
    }
    let pending = conn.core.lock().pending_repl.take();
    if let Some((start_lsn, peer_epoch)) = pending {
        ctx.repl.subscribe(Arc::clone(conn), start_lsn, peer_epoch);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// `send` never waits: what a peer that stops reading has no room for
    /// is queued, the first shortfall pokes the shard once, and once the
    /// peer reads, the flush delivers every frame whole and in order.
    #[test]
    fn send_queues_what_a_full_socket_refuses() {
        const FRAME: usize = 64 * 1024;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let (shard, _wake) = ShardHandle::new().unwrap();
        let conn = ConnShared::new(7, stream, Arc::clone(&shard));
        let frame = |i: u32| {
            let mut f = vec![0u8; FRAME];
            f[..4].copy_from_slice(&i.to_be_bytes());
            f
        };
        let start = Instant::now();
        let mut n = 0u32;
        while !conn.backlogged() {
            assert!(conn.send(&frame(n)));
            n += 1;
            assert!(n < 10_000, "the socket never refused a byte");
        }
        for _ in 0..4 {
            assert!(conn.send(&frame(n)));
            n += 1;
        }
        assert!(start.elapsed() < Duration::from_secs(1), "send waited on the socket");
        assert_eq!(*shard.poked.lock(), vec![7], "one poke, when the backlog formed");

        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; FRAME];
            for i in 0..n {
                peer.read_exact(&mut buf).unwrap();
                assert_eq!(buf[..4], i.to_be_bytes(), "frame {i} out of order");
            }
        });
        while !conn.flush().unwrap() {
            std::thread::sleep(Duration::from_millis(1));
        }
        reader.join().unwrap();
    }
}
