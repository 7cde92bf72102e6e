//! [`HipacServer`]: the active DBMS behind a TCP listener.
//!
//! Connections are served by a reactor: `workers` threads wait on one
//! shared epoll set (the [`crate::reactor`] facade), and the accept
//! thread registers each non-blocking socket with it, one-shot, so an
//! idle connection costs one registered fd — no thread, no stack, no
//! read buffer. The worker that receives a
//! connection's readiness owns the connection until it releases it: it
//! reads the frames through its one [`crate::reader::FrameReader`],
//! runs them in order and sends each reply itself, so a request crosses
//! no thread inside the server, and a session's requests never run out
//! of order. Every byte sent to a connection — replies, pushes, the
//! replication stream — goes through its one ordered outbound queue
//! (`ConnShared::send` in `shard.rs`); while bytes wait there, the
//! owner reads nothing more from that connection (per-connection
//! backpressure that cannot be bought with memory). The server admits
//! at most `workers + max_pending` concurrent connections; beyond that
//! it refuses with an error frame instead of queueing unboundedly.
//!
//! The paper's §4.1 role reversal — the DBMS calling the application —
//! crosses the network through subscriptions: a client that sends
//! `Subscribe { handler }` becomes the application server for that
//! handler name, and every rule action addressed to it is delivered to
//! the client as a push frame, queued in sequence order on every
//! subscriber's connection (`Subscriptions::deliver`).
//!
//! Sessions own the transactions they begin: a connection that drops —
//! idle timeout, protocol error, or plain disconnect — has its open
//! transactions aborted, so a crashed client cannot strand locks.
//!
//! This module holds [`ServerConfig`], [`HipacServer`] (bind, accept,
//! shutdown, drain) and the context its subsystems share; each
//! subsystem is a child module (DESIGN.md §7 has the map).

mod admission;
mod dispatch;
mod repl_hub;
mod shard;
mod subscriptions;

use crate::proto::{Frame, Reply, WireError};
use admission::{load_reply_journal, ServerShared};
use hipac::ActiveDatabase;
use repl_hub::ReplHub;
use parking_lot::Mutex;
use shard::{worker_loop, ConnShared};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use subscriptions::Subscriptions;

/// Tuning knobs for [`HipacServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads: each waits on the server's epoll set, and reads,
    /// runs and answers the requests of one connection at a time.
    pub workers: usize,
    /// Connections admitted beyond `workers`: at most
    /// `workers + max_pending` connections are open at once — those no
    /// worker serves wait as registered fds until one is free — and the
    /// next one is refused with a `ServerBusy` error frame.
    pub max_pending: usize,
    /// A connection with no complete request for this long is closed
    /// (its open transactions abort), so an abandoned client cannot
    /// hold its locks, or its connection slot, forever.
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
    /// On a durable database the window of keyed commits is also a
    /// crash-safe reply journal: the cached ack becomes durable in the
    /// same WAL batch as the commit it acknowledges, and a restart
    /// rebuilds the window from it, so a retry across the restart
    /// replays instead of re-executing.
    pub dedup_window: usize,
    /// Unacked push frames retained per handler for redelivery.
    /// Delivery to a full outbox fails the triggering rule action
    /// (backpressure into the transaction) rather than dropping the
    /// frame silently.
    pub outbox_cap: usize,
    /// Adaptive admission signal: when the EWMA of dispatch time
    /// exceeds this, new requests are shed with `Overloaded` (counted
    /// in `shed_adaptive`) while the requesting tenant already has
    /// work in flight, so a noisy tenant's queueing delay sheds the
    /// noisy tenant, not the quiet ones. `None` disables it;
    /// `max_inflight` remains the hard cap.
    pub shed_queue_delay: Option<Duration>,
    /// Ignored. Every worker waits on one shared epoll set, so that any
    /// free worker serves any connection: split into several sets, a
    /// few requests blocked on a lock or a replica would stall every
    /// other connection of their set. The field stays so that
    /// configurations naming it still build.
    pub reactor_shards: usize,
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
    /// Slow-subscriber byte budget: when a handler's unacked outbox
    /// reaches this many encoded frame bytes, the subscription is
    /// dead-lettered — its durable outbox state is garbage-collected
    /// and a `SubscriberEvicted` engine event is signalled so user
    /// rules can react. `0` disables eviction.
    pub outbox_evict_bytes: usize,
    /// Semi-synchronous replication: gate each successful commit ack on
    /// every connected replica having reported durable application up
    /// to the committing frontier, so an acknowledged write never
    /// exists only on this node. A replica that cannot keep up within
    /// [`ServerConfig::sync_repl_timeout`] degrades that commit to
    /// asynchronous (availability over strictness) rather than
    /// stalling the session. No effect without connected replicas.
    pub sync_repl: bool,
    /// Per-commit bound on the semi-sync wait: a quorum slower than
    /// this degrades the commit to asynchronous.
    pub sync_repl_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            max_pending: 16,
            idle_timeout: Duration::from_secs(30),
            max_inflight: 0,
            dedup_window: 128,
            outbox_cap: 256,
            shed_queue_delay: None,
            auth_secret: None,
            tenant_max_inflight: 0,
            outbox_evict_bytes: 0,
            reactor_shards: 0,
            sync_repl: false,
            sync_repl_timeout: Duration::from_millis(250),
        }
    }
}

/// How often the accept thread and idle workers wake to check the
/// shutdown flag (and, for workers, whether the sweep is due).
const READ_TICK: Duration = Duration::from_millis(50);

/// Lock stripes for the session maps. Keys hash to a stripe
/// independently of the session, so the *same* client id or handler
/// name always lands on the same stripe whichever connection carries
/// it — which is what keeps dedup and outbox semantics stable when a
/// client reconnects.
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

/// Everything a worker needs to execute a session's request — the
/// read-only server context threaded through the pool.
struct ServerCtx {
    db: Arc<ActiveDatabase>,
    subs: Arc<Subscriptions>,
    shared: Arc<ServerShared>,
    cfg: ServerConfig,
    repl: Arc<ReplHub>,
    /// The epoll set every worker waits on.
    poller: Arc<crate::reactor::Poller>,
    /// Every live connection, by poller token.
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    /// When the next sweep of idle and stalled connections is due; the
    /// worker that finds it passed (and the lock free) runs it.
    next_sweep: Mutex<Instant>,
}

/// A running network front end over an [`ActiveDatabase`].
///
/// Dropping the server shuts it down gracefully: the listener stops
/// accepting, live sessions finish their in-flight request, open
/// transactions of interrupted sessions abort, and all threads join.
pub struct HipacServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    repl_thread: Option<JoinHandle<()>>,
    /// The slow-subscriber eviction housekeeper.
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
        config: ServerConfig,
    ) -> Result<HipacServer, WireError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept, driven by a poller on the listener fd:
        // new connections accept immediately, and the bounded wait
        // keeps the shutdown flag observable.
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let durable = db.durable_store().cloned();
        let subscriptions =
            Subscriptions::new(config.outbox_cap, config.outbox_evict_bytes, durable.clone());
        let shared = ServerShared::new(config.dedup_window);
        if let Some(d) = &durable {
            load_reply_journal(d, &shared, config.dedup_window);
        }
        let repl = ReplHub::new(durable, Arc::clone(db.repl_counters()), config.sync_repl);
        let repl_thread = repl_hub::spawn_shipper(&repl, &shutdown);
        let workers = config.workers.max(1);
        let evict_thread = subscriptions::spawn_housekeeper(&subscriptions, &db, &shutdown);
        let ctx = Arc::new(ServerCtx {
            db,
            subs: subscriptions,
            shared,
            cfg: config.clone(),
            repl,
            poller: Arc::new(crate::reactor::Poller::new()?),
            conns: Mutex::new(HashMap::new()),
            next_sweep: Mutex::new(Instant::now()),
        });

        let mut worker_threads = Vec::with_capacity(workers);
        for n in 0..workers {
            let ctx = Arc::clone(&ctx);
            let stop = Arc::clone(&shutdown);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("hipac-net-worker-{n}"))
                    .spawn(move || worker_loop(ctx, stop))
                    .expect("spawn worker thread"),
            );
        }

        let accept_thread = {
            let stop = Arc::clone(&shutdown);
            let ctx = Arc::clone(&ctx);
            // The listener is non-blocking so the shutdown flag stays
            // observable; parking on a poller (instead of sleeping a
            // tick) makes a connection sitting in the backlog accept
            // immediately rather than up to READ_TICK later.
            let accept_poller = crate::reactor::Poller::new()?;
            accept_poller.add(listener.as_raw_fd(), 0)?;
            // Admission cap: at most `workers` connections being served
            // plus `max_pending` more whose requests wait their turn (an
            // admitted idle connection is just an fd).
            let conn_cap = (workers + config.max_pending) as u64;
            std::thread::Builder::new()
                .name("hipac-net-accept".to_owned())
                .spawn(move || {
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
                                    ctx.shared.refused_connections.fetch_add(1, Ordering::Relaxed);
                                    refuse(stream, "ServerBusy", "connection limit reached");
                                    continue;
                                }
                                let _ = stream.set_nodelay(true);
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                ctx.shared.active_connections.fetch_add(1, Ordering::Relaxed);
                                shard::adopt(&ctx, stream);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                let _ = accept_poller.wait_one(READ_TICK);
                            }
                            Err(_) => std::thread::sleep(READ_TICK),
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(HipacServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            worker_threads,
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
        &self.ctx.db
    }

    /// Connections refused so far because the pending queue was full.
    pub fn refused_connections(&self) -> u64 {
        self.ctx.shared.refused_connections.load(Ordering::Relaxed)
    }

    /// Requests shed so far by admission control.
    pub fn shed_requests(&self) -> u64 {
        self.ctx.shared.shed_requests.load(Ordering::Relaxed)
    }

    /// Requests answered from the idempotency window so far.
    pub fn dedup_hits(&self) -> u64 {
        self.ctx.shared.dedup_hits.load(Ordering::Relaxed)
    }

    /// Dedup hits served from the persistent reply journal — retries
    /// whose original committed before a restart.
    pub fn journal_replays(&self) -> u64 {
        self.ctx.shared.journal_replays.load(Ordering::Relaxed)
    }

    /// Requests shed so far by the adaptive queueing-delay signal.
    pub fn shed_adaptive(&self) -> u64 {
        self.ctx.shared.shed_adaptive.load(Ordering::Relaxed)
    }

    /// Push frames redelivered from the outbox on re-subscribe.
    pub fn pushes_redelivered(&self) -> u64 {
        self.ctx.shared.pushes_redelivered.load(Ordering::Relaxed)
    }

    /// Push frames currently awaiting a client ack.
    pub fn unacked_pushes(&self) -> u64 {
        self.ctx.subs.unacked_total()
    }

    /// Currently live sessions.
    pub fn active_connections(&self) -> u64 {
        self.ctx.shared.active_connections.load(Ordering::Relaxed)
    }

    /// Keyed requests (or `Auth`/`Subscribe`/`AckPush` attempts)
    /// refused because the session had not proven the identity.
    pub fn auth_failures(&self) -> u64 {
        self.ctx.shared.auth_failures.load(Ordering::Relaxed)
    }

    /// Requests shed by a per-tenant admission gate.
    pub fn tenant_shed_requests(&self) -> u64 {
        self.ctx.shared.tenant_shed_requests.load(Ordering::Relaxed)
    }

    /// Push deliveries refused because the handler was over budget or
    /// already dead-lettered.
    pub fn pushes_shed(&self) -> u64 {
        self.ctx.subs.pushes_shed.load(Ordering::Relaxed)
    }

    /// Subscriptions dead-lettered by the slow-subscriber policy.
    pub fn subscribers_evicted(&self) -> u64 {
        self.ctx.subs.subscribers_evicted.load(Ordering::Relaxed)
    }

    /// Stop accepting, let each worker finish the connection it
    /// serves, then close every session, abort its open transactions,
    /// and join all threads.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        shard::retire_where(&self.ctx, |_, _| true);
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
        self.ctx.subs.flush_acks();
    }

    /// Graceful drain: refuse new connections and new requests (with a
    /// `Draining` error, so clients get a definite answer rather than a
    /// cut socket), let every request already in dispatch finish and
    /// flush its reply, wait for separate-coupled firings already
    /// submitted to the engine, then shut down. Committed transactions
    /// are never lost: a request either completes and is acknowledged,
    /// or is refused before touching the engine.
    pub fn drain(&mut self) {
        self.ctx.shared.draining.store(true, Ordering::Release);
        // In-flight dispatches finish and write their replies before
        // their session observes the stop flag, but waiting here keeps
        // the engine quiet before we quiesce the rule workers.
        while self.ctx.shared.in_flight.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.ctx.db.quiesce();
        // Finish shipping the committed tail before going away: every
        // connected replica must apply up to the durable frontier (the
        // quiesce above may have committed separate-mode work), so no
        // acknowledged write exists only on this dying node. Bounded —
        // a wedged replica cannot hold the drain hostage forever.
        self.ctx.repl.wait_caught_up(Duration::from_secs(5));
        self.shutdown();
    }
}

impl Drop for HipacServer {
    fn drop(&mut self) {
        self.shutdown();
    }
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
