//! The reactor: the workers that wait on the server's one epoll set
//! and serve a connection from its readiness to its replies, the
//! connections registered with that set, and [`ConnShared::send`], the
//! one way bytes go out to a connection.
//!
//! A worker takes one event at a time. Every socket is registered
//! one-shot, so an event disarms it; the worker that gets the event
//! takes ownership of the connection (the `owned` flag, under the
//! connection's `own` lock), flushes its outbound backlog, reads,
//! decodes and runs its frames in order, sending each reply itself,
//! and releases it: under the same lock it clears `owned`, parks the
//! bytes not yet decoded and re-arms the socket. An event is only a
//! hint: one that finds the connection owned is dropped, and since
//! every release re-arms a level-triggered socket, whatever that event
//! announced is reported again after the release. All workers share
//! the one set, so any free worker serves any connection: a request
//! that blocks its worker (a lock wait, a semi-synchronous commit)
//! holds up no connection while another worker is free.

use super::dispatch::handle;
use super::{ServerCtx, READ_TICK};
use crate::proto::{Command, Frame};
use crate::reactor::Poller;
use crate::reader::FrameReader;
use hipac_common::TxnId;
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A connection whose oldest queued outbound byte has waited this long
/// is retired: a peer that stops reading is cut loose.
const OUTBOUND_STALL: Duration = Duration::from_secs(5);

/// Queued frames one vectored write takes at most.
const MAX_IOV: usize = 64;

/// How often a worker retires idle and stalled connections.
const SWEEP_EVERY: Duration = Duration::from_millis(100);

/// Session state mutated by the connection's owner.
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

/// Who serves a connection, and what it left for the next turn.
pub(super) struct Ownership {
    /// A worker is serving the connection, or it was retired (a retired
    /// connection stays owned for good).
    owned: bool,
    /// Bytes read but not yet decoded — a partial frame, or complete
    /// frames left when a backlog stopped the reading. Empty, and
    /// unallocated, for an idle connection.
    rest: Vec<u8>,
    /// When the connection last sent a complete request.
    last_activity: Instant,
}

/// Connection state shared by its owner and every sender (replies,
/// pushes, the replication shipper).
pub(super) struct ConnShared {
    pub(super) id: u64,
    /// The server's epoll set, which the socket is registered with:
    /// a sender that leaves a backlog on a connection no one owns arms
    /// write interest itself.
    poller: Arc<Poller>,
    /// Read by the owner, written by [`OutQueue::write_out`].
    stream: TcpStream,
    out: Mutex<OutQueue>,
    pub(super) core: Mutex<SessionCore>,
    own: Mutex<Ownership>,
    /// Set on a doomed connection (a write failed, a protocol
    /// violation): frames not yet run are skipped, and the socket is
    /// shut down so that its next event retires it.
    dead: AtomicBool,
    /// Debug check of the ownership rule: set while a worker serves
    /// the connection.
    #[cfg(debug_assertions)]
    serving: AtomicBool,
}

impl ConnShared {
    pub(super) fn new(id: u64, stream: TcpStream, poller: Arc<Poller>) -> ConnShared {
        ConnShared {
            id,
            poller,
            stream,
            out: Mutex::new(OutQueue::default()),
            core: Mutex::new(SessionCore {
                auth: None,
                open_txns: HashSet::new(),
                pending_repl: None,
            }),
            own: Mutex::new(Ownership {
                owned: false,
                rest: Vec::new(),
                last_activity: Instant::now(),
            }),
            dead: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            serving: AtomicBool::new(false),
        }
    }

    /// Send one encoded frame (or several, concatenated), in the order
    /// `send` calls take the queue lock. With nothing queued ahead it is
    /// written at once, as far as the socket takes it; the rest waits
    /// for the socket to turn writable. Never waits. `false` once the
    /// connection closed.
    pub(super) fn send(&self, frame: &[u8]) -> bool {
        let mut out = self.out.lock();
        if out.closed {
            return false;
        }
        if !out.frames.is_empty() {
            // Write interest is armed, or the owner arms it at release.
            out.frames.push_back((frame.to_vec(), Instant::now()));
            return true;
        }
        match out.write_out(&self.stream, frame) {
            Ok(n) if n == frame.len() => {}
            Ok(n) => {
                out.frames.push_back((frame[n..].to_vec(), Instant::now()));
                drop(out);
                // A backlog formed. An owner arms write interest when it
                // releases the connection; with no owner, arm it here.
                let own = self.own.lock();
                if !own.owned {
                    self.arm(false, true);
                }
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

    /// Write what the socket takes of the queue; `Ok(true)` once it is
    /// empty.
    fn flush(&self) -> io::Result<bool> {
        let mut out = self.out.lock();
        out.write_out(&self.stream, &[])?;
        Ok(out.frames.is_empty())
    }

    /// Doom the connection: shut its socket down, so its next event —
    /// an EOF — retires it.
    fn doom(&self) {
        if !self.dead.swap(true, Ordering::AcqRel) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Re-arm the socket. Called under the `own` lock.
    fn arm(&self, read: bool, write: bool) {
        let _ = self.poller.rearm(self.stream.as_raw_fd(), self.id, read, write);
    }

    /// Take ownership, with the bytes the last owner parked, if no one
    /// owns the connection (a retired one stays owned) and `claim`
    /// agrees.
    fn take_if(&self, claim: impl FnOnce(&Ownership) -> bool) -> Option<Vec<u8>> {
        let mut own = self.own.lock();
        if own.owned || !claim(&own) {
            return None;
        }
        own.owned = true;
        self.note_served(true);
        Some(std::mem::take(&mut own.rest))
    }

    /// Whether the connection has sent no request for `idle_timeout`,
    /// or its oldest queued byte has waited [`OUTBOUND_STALL`].
    fn expired(&self, own: &Ownership, now: Instant, idle_timeout: Duration) -> bool {
        let stalled = |(_, queued): &(Vec<u8>, Instant)| now.duration_since(*queued) >= OUTBOUND_STALL;
        now.duration_since(own.last_activity) >= idle_timeout
            || self.out.lock().frames.front().is_some_and(stalled)
    }

    /// Give the connection up: park `rest`, clear `owned` and re-arm —
    /// for writes while outbound bytes wait (reading nothing more until
    /// they are gone), for reads otherwise.
    fn release(&self, rest: Vec<u8>, active: bool) {
        let mut own = self.own.lock();
        self.note_served(false);
        own.owned = false;
        own.rest = rest;
        if active {
            own.last_activity = Instant::now();
        }
        let backlog = self.backlogged();
        self.arm(!backlog, backlog);
    }

    /// The debug check that no two workers own a connection at once.
    fn note_served(&self, serving: bool) {
        #[cfg(debug_assertions)]
        assert_ne!(
            self.serving.swap(serving, Ordering::AcqRel),
            serving,
            "connection {} owned by two workers at once",
            self.id
        );
        let _ = serving;
    }
}

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// Register an admitted socket with the server's epoll set, one-shot,
/// for reads.
pub(super) fn adopt(ctx: &ServerCtx, stream: TcpStream) {
    let id = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    let fd = stream.as_raw_fd();
    let conn = Arc::new(ConnShared::new(id, stream, Arc::clone(&ctx.poller)));
    ctx.conns.lock().insert(id, conn);
    if ctx.poller.add_oneshot(fd, id).is_err() {
        // Admission already counted it; undo (no session state exists).
        ctx.conns.lock().remove(&id);
        ctx.shared.active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A worker: waits on the server's epoll set for one event at a time
/// and serves the connection it names, and runs the sweep when it is
/// due.
pub(super) fn worker_loop(ctx: Arc<ServerCtx>, stop: Arc<AtomicBool>) {
    let mut reader = FrameReader::new();
    while !stop.load(Ordering::Acquire) {
        if let Ok(Some((token, _))) = ctx.poller.wait_one(READ_TICK) {
            let conn = ctx.conns.lock().get(&token).cloned();
            if let Some(conn) = conn {
                serve(&ctx, &mut reader, &conn);
            }
        }
        sweep_if_due(&ctx);
    }
}

/// Serve a connection an event named, unless another thread owns it:
/// flush its backlog, run what it sent, and release or retire it.
fn serve(ctx: &Arc<ServerCtx>, reader: &mut FrameReader, conn: &Arc<ConnShared>) {
    let Some(rest) = conn.take_if(|_| true) else {
        return;
    };
    match conn.flush() {
        Ok(true) => {}
        Ok(false) => return conn.release(rest, false),
        Err(_) => return retire(ctx, conn),
    }
    reader.unpark(rest);
    let (alive, active) = pump(ctx, reader, conn);
    let rest = reader.park();
    if alive {
        conn.release(rest, active);
    } else {
        retire(ctx, conn);
    }
}

/// Run every complete frame of `conn` — those parked first, then what
/// each further `read` brings — sending each reply. Stops after a short
/// read (the socket held no more; the re-armed socket reports anything
/// later) and while outbound bytes wait. Returns whether the connection
/// lives — not after EOF, a transport error, a protocol violation (an
/// oversize or undecodable frame) or a doom — and whether it sent a
/// request.
fn pump(ctx: &Arc<ServerCtx>, reader: &mut FrameReader, conn: &Arc<ConnShared>) -> (bool, bool) {
    let (mut active, mut drained) = (false, false);
    let alive = loop {
        if conn.dead.load(Ordering::Acquire) {
            break false;
        }
        if conn.backlogged() {
            break true;
        }
        match reader.next_frame() {
            Ok(Some(frame)) => {
                active = true;
                process_frame(ctx, conn, frame);
            }
            Ok(None) if drained => break true,
            Ok(None) => match reader.fill(&mut &conn.stream) {
                Ok(true) => drained = reader.room() > 0,
                Ok(false) => break true,
                Err(_) => break false,
            },
            Err(_) => break false,
        }
    };
    (alive, active)
}

/// Run the sweep if it is due and no other worker is running it: retire
/// every connection idle past `idle_timeout` or stalled past
/// [`OUTBOUND_STALL`] that no one owns.
fn sweep_if_due(ctx: &Arc<ServerCtx>) {
    let Some(mut next) = ctx.next_sweep.try_lock() else {
        return;
    };
    let now = Instant::now();
    if now < *next {
        return;
    }
    *next = now + SWEEP_EVERY;
    drop(next);
    retire_where(ctx, |conn, own| conn.expired(own, now, ctx.cfg.idle_timeout));
}

/// Retire every registered connection that no one owns and `doomed`
/// picks.
pub(super) fn retire_where(ctx: &Arc<ServerCtx>, doomed: impl Fn(&ConnShared, &Ownership) -> bool) {
    let claimed: Vec<Arc<ConnShared>> = ctx
        .conns
        .lock()
        .values()
        .filter(|conn| conn.take_if(|own| doomed(conn, own)).is_some())
        .cloned()
        .collect();
    for conn in claimed {
        retire(ctx, &conn);
    }
}

/// Close an owned connection — after one last write of what the socket
/// takes of its outbound queue — and tear its session down. The
/// connection stays owned, so nothing serves it again.
fn retire(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>) {
    {
        let mut out = conn.out.lock();
        let _ = out.write_out(&conn.stream, &[]);
        out.close();
    }
    let _ = ctx.poller.del(conn.stream.as_raw_fd());
    ctx.conns.lock().remove(&conn.id);
    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    teardown(ctx, conn);
}

/// Execute one request frame and send its response. An `AckPush` or
/// `ReplProgress` sent with frame id 0 is fire-and-forget: it runs, and
/// no response is sent.
fn process_frame(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, frame: Frame) {
    let Frame::Request { id, meta, command } = frame else {
        // Clients never send responses or pushes; treat as a protocol
        // violation and drop the session.
        conn.doom();
        return;
    };
    let quiet = id == 0
        && matches!(
            command,
            Command::AckPush { .. } | Command::ReplProgress { .. }
        );
    let reply = handle(ctx, conn, meta, command);
    if quiet || !conn.send(&Frame::Response { id, reply }.encode()) {
        return;
    }
    let pending = conn.core.lock().pending_repl.take();
    if let Some((start_lsn, peer_epoch)) = pending {
        ctx.repl.subscribe(Arc::clone(conn), start_lsn, peer_epoch);
    }
}

/// Abort open transactions and drop subscriptions on disconnect. Runs
/// on the retiring thread, after every frame the connection had read.
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
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A connection on an epoll set of its own, registered one-shot for
    /// reads, and its peer. Skipped (`None`) where the poller is the
    /// fallback scan, which reports every armed socket as ready.
    fn registered(token: u64) -> Option<(ConnShared, TcpStream)> {
        if cfg!(not(all(target_os = "linux", target_arch = "x86_64"))) {
            return None;
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let poller = Arc::new(Poller::new().unwrap());
        poller.add_oneshot(stream.as_raw_fd(), token).unwrap();
        Some((ConnShared::new(token, stream, poller), peer))
    }

    /// The ownership rule: while one thread owns a connection, neither a
    /// worker's event nor the sweep takes it; the owner's release parks
    /// the bytes it did not decode for the next owner and re-arms the
    /// socket, so the readiness an event announced meanwhile is
    /// reported again.
    #[test]
    fn a_connection_has_one_owner_at_a_time() {
        let Some((conn, mut peer)) = registered(3) else { return };
        let event = || conn.poller.wait_one(Duration::from_secs(5)).unwrap();
        peer.write_all(b"unread").unwrap();
        assert_eq!(event().map(|(token, _)| token), Some(3));

        let take = || conn.take_if(|_| true);
        assert_eq!(take(), Some(Vec::new()), "a free connection is taken");
        assert_eq!(take(), None, "an owned connection was taken again");
        let long_after = Instant::now() + Duration::from_secs(3600);
        let sweep = || conn.take_if(|own| conn.expired(own, long_after, Duration::ZERO));
        assert_eq!(sweep(), None, "the sweep took an owned connection");

        conn.release(b"parked".to_vec(), false);
        let rearmed = event().map(|(token, _)| token);
        assert_eq!(rearmed, Some(3), "the release re-armed the socket with its bytes unread");
        assert_eq!(take(), Some(b"parked".to_vec()), "the next owner gets the parked bytes");
        conn.release(Vec::new(), false);
        assert!(sweep().is_some(), "an idle free connection expires");
    }

    /// `send` never waits: what a peer that stops reading has no room for
    /// is queued, and on a connection no one owns the first shortfall
    /// arms write interest, which reports once the peer reads — once,
    /// until the socket is re-armed. The flush then delivers every frame
    /// whole and in order.
    #[test]
    fn send_queues_what_a_full_socket_refuses() {
        const FRAME: usize = 64 * 1024;
        let Some((conn, mut peer)) = registered(7) else { return };
        let event = |wait| conn.poller.wait_one(wait).unwrap();
        let short = Duration::from_millis(20);
        assert_eq!(event(short), None, "an idle connection reports nothing");
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
        assert_eq!(event(short), None, "a full socket reports nothing");

        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; FRAME];
            for i in 0..n {
                peer.read_exact(&mut buf).unwrap();
                assert_eq!(buf[..4], i.to_be_bytes(), "frame {i} out of order");
            }
        });
        let (token, events) = event(Duration::from_secs(5)).expect("no writable event");
        assert_eq!((token, events & crate::reactor::EV_OUT), (7, crate::reactor::EV_OUT));
        assert_eq!(event(short), None, "a one-shot socket reports once");
        while !conn.flush().unwrap() {
            std::thread::sleep(Duration::from_millis(1));
        }
        reader.join().unwrap();
    }
}
