//! [`HipacClient`]: blocking request/response client with push-frame
//! delivery and transparent failure recovery.
//!
//! A background reader thread demultiplexes the socket: responses are
//! routed to the issuing caller by request id (so the client is safe to
//! share across threads — `&self` methods, interior locking), and push
//! frames — application requests from rule actions, the paper's §4.1
//! role reversal — are dispatched to handlers registered with
//! [`HipacClient::on_push`] / [`HipacClient::subscribe`].
//!
//! ## Resilience
//!
//! A transport failure (socket error, connection reset, server
//! restart) no longer poisons the client: the dead connection is torn
//! down and the next request redials with exponential backoff and
//! jitter, re-subscribing every handler the client serves. Each
//! request carries an idempotency key — a stable per-client id plus a
//! monotonic sequence number — and a retry re-sends the *same* key, so
//! the server's dedup window replays the cached reply instead of
//! re-executing: an acked command applies exactly once even when the
//! ack was lost in transit. When retries are exhausted the caller gets
//! [`WireError::Transport`], meaning the outcome of the *last* attempt
//! is unknown (at-most-once). Per-request deadlines ride in the
//! request metadata — the server bounds lock waits with them — and
//! expire locally as [`WireError::Timeout`].
//!
//! Protocol v4 extends the guarantees across server restarts: push
//! frames carry per-subscription sequence numbers which the reader
//! thread acknowledges after the handler returns (redeliveries with an
//! already-seen sequence are acked but not re-handled), and
//! [`ClientConfig::retry_ambiguous`] opts keyed requests into retrying
//! server refusals and ambiguous storage errors with the *same*
//! idempotency key until the server — possibly a restarted one
//! consulting its reply journal — produces a definite answer. Repeated
//! dial failures trip a process-wide per-address circuit breaker
//! ([`ClientConfig::breaker_threshold`]) so a dead server is probed by
//! one caller per cooldown instead of hammered by every thread.

use crate::proto::{
    Command, Frame, PushEvent, Reply, RequestMeta, WireAttr, WireError, WireRow, WireStats,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use hipac_common::ROLE_PRIMARY;
use hipac_common::{TxnId, Value};
use hipac_object::AttrDef;
use hipac_rules::RuleDef;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Callback invoked on a push frame.
pub type PushHandler = Box<dyn Fn(&PushEvent) + Send + Sync>;

type Pending = Mutex<HashMap<u64, crossbeam::channel::Sender<Reply>>>;

/// Tuning knobs for [`HipacClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Attempts beyond the first after a transport failure. Retries
    /// re-send the same idempotency key, so they are exactly-once
    /// against a v3 server. `0` fails fast.
    pub max_retries: u32,
    /// Base reconnect backoff; attempt `n` waits `backoff * 2^(n-1)`
    /// plus deterministic jitter, capped at one second.
    pub backoff: Duration,
    /// Deadline applied to every request that does not carry its own
    /// (see [`HipacClient::request_with_deadline`]). `None` waits
    /// indefinitely.
    pub default_deadline: Option<Duration>,
    /// Stable client identity for the server's dedup window. `0`
    /// generates a process-unique one.
    pub client_id: u64,
    /// Also retry typed server refusals (`Overloaded`, `Draining`) and
    /// ambiguous storage errors (`Io`) with the same idempotency key.
    /// Refusals are definite non-executions, so the retry is safe; an
    /// `Io` retry is resolved truthfully by a restarted server's reply
    /// journal (committed → replayed ack, not committed → definite
    /// `UnknownTxn`). Off by default: callers that don't run a redo
    /// protocol should see refusals immediately.
    pub retry_ambiguous: bool,
    /// Consecutive dial/handshake failures against this client's
    /// address before the shared per-address circuit breaker opens
    /// (subsequent connection attempts from *any* client in the
    /// process fail fast until a half-open probe succeeds). `0`
    /// disables the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker refuses before allowing one half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// Shared server secret for session authentication (protocol v8).
    /// When set, every (re)connect handshake presents
    /// `HMAC-SHA256(secret, client_id)` via `Command::Auth` after the
    /// ping, binding the session to this client's identity — required
    /// before a v8 server with auth enabled honors keyed requests,
    /// journal replays, or push acks for that `client_id`. Against a
    /// v≤7 server (which cannot understand `Auth`) the step is
    /// skipped. `None` sends no token.
    pub auth_secret: Option<Vec<u8>>,
    /// Run the *first* dial under the same `max_retries`/`backoff`
    /// policy as every later request (transport failures, plus
    /// `Overloaded`/`Draining` handshake refusals when
    /// `retry_ambiguous` is set). Off by default — a bad address or an
    /// incompatible server should fail at connect, not after a retry
    /// budget — and on for clients behind a link that may reset the
    /// handshake itself (a lossy network, a chaos proxy).
    pub connect_retry: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_retries: 3,
            backoff: Duration::from_millis(10),
            default_deadline: None,
            client_id: 0,
            retry_ambiguous: false,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(250),
            auth_secret: None,
            connect_retry: false,
        }
    }
}

/// Connection-failure circuit breaker, shared per address across every
/// client in the process.
struct Breaker {
    state: Mutex<BreakerState>,
    trips: AtomicU64,
    resets: AtomicU64,
}

enum BreakerState {
    Closed { failures: u32 },
    Open { until: Instant },
    HalfOpen,
}

/// Outcome of asking the breaker for permission to dial.
enum BreakerGate {
    /// Dial normally.
    Pass,
    /// Dial as the single half-open probe.
    Probe,
    /// Fail fast — the breaker is open (or another caller holds the
    /// probe slot).
    Refuse,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: Mutex::new(BreakerState::Closed { failures: 0 }),
            trips: AtomicU64::new(0),
            resets: AtomicU64::new(0),
        }
    }

    fn admit(&self) -> BreakerGate {
        let mut state = self.state.lock();
        match *state {
            BreakerState::Closed { .. } => BreakerGate::Pass,
            BreakerState::Open { until } if Instant::now() >= until => {
                *state = BreakerState::HalfOpen;
                BreakerGate::Probe
            }
            BreakerState::Open { .. } | BreakerState::HalfOpen => BreakerGate::Refuse,
        }
    }

    fn on_success(&self) {
        let mut state = self.state.lock();
        if !matches!(*state, BreakerState::Closed { failures: 0 }) {
            if matches!(*state, BreakerState::HalfOpen | BreakerState::Open { .. }) {
                self.resets.fetch_add(1, Ordering::Relaxed);
            }
            *state = BreakerState::Closed { failures: 0 };
        }
    }

    fn on_failure(&self, threshold: u32, cooldown: Duration) {
        let mut state = self.state.lock();
        match *state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= threshold {
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    *state = BreakerState::Open {
                        until: Instant::now() + cooldown,
                    };
                } else {
                    *state = BreakerState::Closed { failures };
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed: back to open for another cooldown.
                self.trips.fetch_add(1, Ordering::Relaxed);
                *state = BreakerState::Open {
                    until: Instant::now() + cooldown,
                };
            }
            BreakerState::Open { .. } => {}
        }
    }
}

/// Process-wide breaker registry: every client dialing the same address
/// shares one breaker, which is the point — when the server is down,
/// one probe per cooldown suffices for all of them.
fn breaker_for(addr: SocketAddr) -> Arc<Breaker> {
    static REGISTRY: OnceLock<Mutex<HashMap<SocketAddr, Arc<Breaker>>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    Arc::clone(
        registry
            .lock()
            .entry(addr)
            .or_insert_with(|| Arc::new(Breaker::new())),
    )
}

/// One live TCP connection: writer half, response router, reader
/// thread. Torn down and replaced wholesale on any transport error.
struct Conn {
    /// Shared with the reader thread, which writes push acks on it.
    writer: Arc<Mutex<TcpStream>>,
    pending: Arc<Pending>,
    dead: Arc<AtomicBool>,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl Conn {
    fn dial(
        addrs: &[SocketAddr],
        handlers: &Arc<RwLock<HashMap<String, PushHandler>>>,
        push_seen: &Arc<Mutex<HashMap<String, u64>>>,
    ) -> Result<Conn, WireError> {
        let stream = TcpStream::connect(addrs)?;
        stream.set_nodelay(true).ok();
        let reader_stream = stream.try_clone()?;
        let writer = Arc::new(Mutex::new(stream));
        let pending: Arc<Pending> = Arc::new(Mutex::new(HashMap::new()));
        let dead = Arc::new(AtomicBool::new(false));
        let reader = {
            let pending = Arc::clone(&pending);
            let handlers = Arc::clone(handlers);
            let dead = Arc::clone(&dead);
            let writer = Arc::clone(&writer);
            let push_seen = Arc::clone(push_seen);
            std::thread::Builder::new()
                .name("hipac-net-client-reader".to_owned())
                .spawn(move || read_loop(reader_stream, &pending, &handlers, &push_seen, &writer, &dead))
                .expect("spawn client reader")
        };
        Ok(Conn {
            writer,
            pending,
            dead,
            reader: Mutex::new(Some(reader)),
        })
    }

    /// Close the socket and join the reader; blocked callers wake with
    /// a transport error when the reader clears the pending table.
    fn teardown(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.writer.lock().shutdown(Shutdown::Both);
        if let Some(t) = self.reader.lock().take() {
            let _ = t.join();
        }
    }
}

/// A connection to a [`crate::HipacServer`].
pub struct HipacClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    client_id: u64,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    conn: Mutex<Option<Arc<Conn>>>,
    handlers: Arc<RwLock<HashMap<String, PushHandler>>>,
    /// Highest push sequence handled per handler. Owned by the client
    /// (not the connection) so redeliveries after a reconnect are
    /// recognized and acked without re-running the handler.
    push_seen: Arc<Mutex<HashMap<String, u64>>>,
    /// Handlers the server knows this client serves; re-subscribed on
    /// every reconnect.
    subscribed: Mutex<HashSet<String>>,
    closed: AtomicBool,
}

impl HipacClient {
    /// Connect and verify protocol compatibility with a ping.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<HipacClient, WireError> {
        HipacClient::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit resilience configuration.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<HipacClient, WireError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(WireError::Io("address resolved to nothing".into()));
        }
        let client_id = match config.client_id {
            0 => auto_client_id(),
            id => id,
        };
        let client = HipacClient {
            addrs,
            config,
            client_id,
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(1),
            conn: Mutex::new(None),
            handlers: Arc::new(RwLock::new(HashMap::new())),
            push_seen: Arc::new(Mutex::new(HashMap::new())),
            subscribed: Mutex::new(HashSet::new()),
            closed: AtomicBool::new(false),
        };
        // Dial now: a bad address or incompatible server should error at
        // connect, not at first use — at once, unless the caller opted
        // the first dial into the request retry policy.
        let mut attempt: u32 = 0;
        while let Err(e) = client.ensure_conn() {
            // As for requests: transport failures, and — for a client that
            // retries refusals — a handshake refused by a draining or
            // overloaded server (the restarted one will answer).
            let transient = match &e {
                WireError::Io(_) | WireError::Transport(_) => true,
                WireError::Remote { kind, .. } => {
                    client.config.retry_ambiguous
                        && matches!(kind.as_str(), "Overloaded" | "Draining")
                }
                _ => false,
            };
            if !(client.config.connect_retry && transient) || attempt >= client.config.max_retries {
                return Err(e);
            }
            attempt += 1;
            std::thread::sleep(retry_backoff(
                client.config.backoff,
                client.client_id,
                0,
                attempt,
            ));
        }
        Ok(client)
    }

    /// The stable identity this client presents in idempotency keys.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Send one command and wait for its reply, retrying transport
    /// failures per [`ClientConfig`]. `Reply::Err` becomes
    /// `WireError::Remote`.
    pub fn request(&self, command: Command) -> Result<Reply, WireError> {
        self.request_with_deadline(command, self.config.default_deadline)
    }

    /// [`HipacClient::request`] with an explicit per-request deadline
    /// (overriding the config default). The deadline travels to the
    /// server, which bounds lock waits with it; locally the wait ends
    /// in [`WireError::Timeout`] — an *indefinite* outcome — shortly
    /// after it passes.
    pub fn request_with_deadline(
        &self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Reply, WireError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(WireError::Io("client closed".into()));
        }
        let meta = RequestMeta {
            client_id: self.client_id,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            deadline_ms: deadline.map_or(0, |d| d.as_millis().max(1) as u64),
        };
        let mut attempt: u32 = 0;
        loop {
            match self.try_once(meta, &command, deadline) {
                // Opt-in: retry refusals (definitely not executed) and
                // ambiguous storage errors with the SAME key until a
                // definite answer arrives — across a server restart,
                // the recovered reply journal provides it.
                Ok(Reply::Err { kind, message })
                    if self.config.retry_ambiguous
                        && matches!(kind.as_str(), "Overloaded" | "Draining" | "Io")
                        && attempt < self.config.max_retries =>
                {
                    let _ = message;
                    attempt += 1;
                    std::thread::sleep(retry_backoff(
                        self.config.backoff,
                        self.client_id,
                        meta.seq,
                        attempt,
                    ));
                }
                Ok(Reply::Err { kind, message }) => {
                    return Err(WireError::Remote { kind, message })
                }
                Ok(reply) => return Ok(reply),
                // Transport failures retry: the key is unchanged,
                // so a server that did execute replays its cached
                // reply. Timeouts and remote errors are definite or
                // deadline-bound — never retried implicitly.
                Err(e) if matches!(e, WireError::Io(_) | WireError::Transport(_)) => {
                    self.discard_conn();
                    if attempt >= self.config.max_retries {
                        return Err(match e {
                            WireError::Io(m) if attempt > 0 => WireError::Transport(m),
                            other => other,
                        });
                    }
                    attempt += 1;
                    std::thread::sleep(retry_backoff(
                        self.config.backoff,
                        self.client_id,
                        meta.seq,
                        attempt,
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt: get (or re-establish) the connection, write the
    /// frame, wait for the routed reply.
    fn try_once(
        &self,
        meta: RequestMeta,
        command: &Command,
        deadline: Option<Duration>,
    ) -> Result<Reply, WireError> {
        let conn = self.ensure_conn()?;
        raw_request(
            &conn,
            self.next_id.fetch_add(1, Ordering::Relaxed),
            meta,
            command.clone(),
            deadline,
        )
    }

    /// Current connection, dialing a fresh one (handshake ping +
    /// handler re-subscription) if the last died.
    fn ensure_conn(&self) -> Result<Arc<Conn>, WireError> {
        let mut guard = self.conn.lock();
        if let Some(c) = guard.as_ref() {
            if !c.dead.load(Ordering::Acquire) {
                return Ok(Arc::clone(c));
            }
        }
        if let Some(old) = guard.take() {
            old.teardown();
        }
        let breaker = if self.config.breaker_threshold > 0 {
            let b = breaker_for(self.addrs[0]);
            match b.admit() {
                BreakerGate::Pass | BreakerGate::Probe => Some(b),
                BreakerGate::Refuse => {
                    return Err(WireError::Transport(format!(
                        "circuit open for {}; retry after cooldown",
                        self.addrs[0]
                    )))
                }
            }
        } else {
            None
        };
        let conn = match Conn::dial(&self.addrs, &self.handlers, &self.push_seen) {
            Ok(c) => Arc::new(c),
            Err(e) => {
                if let Some(b) = &breaker {
                    b.on_failure(self.config.breaker_threshold, self.config.breaker_cooldown);
                }
                return Err(e);
            }
        };
        let handshake = (|| -> Result<(), WireError> {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let ping = Command::Ping {
                version: PROTOCOL_VERSION,
            };
            let negotiated = match raw_request(&conn, id, RequestMeta::default(), ping, None)? {
                // Additive negotiation: any version both ends speak is
                // acceptable — the server answers with the minimum of
                // the two, and v5 extensions degrade gracefully.
                Reply::Pong { version }
                    if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) =>
                {
                    version
                }
                Reply::Pong { version } => {
                    return Err(WireError::Protocol(format!(
                        "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
                    )))
                }
                Reply::Err { kind, message } => return Err(WireError::Remote { kind, message }),
                other => return Err(unexpected(other)),
            };
            // Authenticate before re-subscribing: subscriptions bind to
            // the proven identity on a v8 server with auth enabled, so
            // the token must land first. A v≤7 server never sees the
            // opcode (it could not decode it).
            if let Some(secret) = &self.config.auth_secret {
                if negotiated >= 8 {
                    let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                    let auth = Command::Auth {
                        client_id: self.client_id,
                        token: crate::auth::session_token(secret, self.client_id).to_vec(),
                    };
                    match raw_request(&conn, id, RequestMeta::default(), auth, None)? {
                        Reply::Ok => {}
                        Reply::Err { kind, message } => {
                            return Err(WireError::Remote { kind, message })
                        }
                        other => return Err(unexpected(other)),
                    }
                }
            }
            for handler in self.subscribed.lock().iter() {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let cmd = Command::Subscribe {
                    handler: handler.clone(),
                };
                match raw_request(&conn, id, RequestMeta::default(), cmd, None)? {
                    Reply::Ok => {}
                    Reply::Err { kind, message } => {
                        return Err(WireError::Remote { kind, message })
                    }
                    other => return Err(unexpected(other)),
                }
            }
            Ok(())
        })();
        match handshake {
            Ok(()) => {
                if let Some(b) = &breaker {
                    b.on_success();
                }
                *guard = Some(Arc::clone(&conn));
                Ok(conn)
            }
            Err(e) => {
                if let Some(b) = &breaker {
                    b.on_failure(self.config.breaker_threshold, self.config.breaker_cooldown);
                }
                conn.teardown();
                Err(e)
            }
        }
    }

    /// Times the shared breaker for this client's primary address has
    /// tripped open (0 when the breaker is disabled or never tripped).
    pub fn breaker_trips(&self) -> u64 {
        breaker_for(self.addrs[0]).trips.load(Ordering::Relaxed)
    }

    /// Times the shared breaker recovered (half-open probe succeeded).
    pub fn breaker_resets(&self) -> u64 {
        breaker_for(self.addrs[0]).resets.load(Ordering::Relaxed)
    }

    /// Drop the current connection (if any) so the next request
    /// redials.
    fn discard_conn(&self) {
        if let Some(old) = self.conn.lock().take() {
            old.teardown();
        }
    }

    /// Register a local callback for push frames addressed to
    /// `handler`, without telling the server (use
    /// [`HipacClient::subscribe`] for both at once).
    pub fn on_push(&self, handler: &str, f: impl Fn(&PushEvent) + Send + Sync + 'static) {
        self.handlers.write().insert(handler.to_owned(), Box::new(f));
    }

    // ---- transaction operations ----

    pub fn begin(&self) -> Result<TxnId, WireError> {
        match self.request(Command::Begin)? {
            Reply::Txn(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    pub fn begin_child(&self, parent: TxnId) -> Result<TxnId, WireError> {
        match self.request(Command::BeginChild { parent })? {
            Reply::Txn(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    pub fn commit(&self, txn: TxnId) -> Result<(), WireError> {
        self.expect_ok(Command::Commit { txn })
    }

    pub fn abort(&self, txn: TxnId) -> Result<(), WireError> {
        self.expect_ok(Command::Abort { txn })
    }

    // ---- data operations ----

    /// Create a class; returns the class id.
    pub fn create_class(
        &self,
        txn: TxnId,
        name: &str,
        superclass: Option<&str>,
        attrs: Vec<AttrDef>,
    ) -> Result<u64, WireError> {
        let attrs = attrs
            .into_iter()
            .map(|a| WireAttr {
                name: a.name,
                ty: crate::proto::type_code(a.ty),
                nullable: a.nullable,
                indexed: a.indexed,
            })
            .collect();
        match self.request(Command::CreateClass {
            txn,
            name: name.to_owned(),
            superclass: superclass.map(str::to_owned),
            attrs,
        })? {
            Reply::Id(id) => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// Insert an object; returns its oid.
    pub fn insert(&self, txn: TxnId, class: &str, values: Vec<Value>) -> Result<u64, WireError> {
        match self.request(Command::Insert {
            txn,
            class: class.to_owned(),
            values,
        })? {
            Reply::Object(oid) => Ok(oid.raw()),
            other => Err(unexpected(other)),
        }
    }

    pub fn update(
        &self,
        txn: TxnId,
        oid: u64,
        assignments: Vec<(String, Value)>,
    ) -> Result<(), WireError> {
        self.expect_ok(Command::Update {
            txn,
            oid,
            assignments,
        })
    }

    pub fn delete(&self, txn: TxnId, oid: u64) -> Result<(), WireError> {
        self.expect_ok(Command::Delete { txn, oid })
    }

    /// Run a query in the surface syntax
    /// (`from <class> [where <expr>] [select a, b]`).
    pub fn query(
        &self,
        txn: TxnId,
        text: &str,
        params: HashMap<String, Value>,
    ) -> Result<Vec<WireRow>, WireError> {
        match self.request(Command::Query {
            txn,
            text: text.to_owned(),
            params,
        })? {
            Reply::Rows(rows) => Ok(rows),
            other => Err(unexpected(other)),
        }
    }

    // ---- event operations ----

    /// Define an external event; returns the event id.
    pub fn define_event(&self, name: &str, params: &[&str]) -> Result<u64, WireError> {
        match self.request(Command::DefineEvent {
            name: name.to_owned(),
            params: params.iter().map(|s| s.to_string()).collect(),
        })? {
            Reply::Id(id) => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// Signal an external event, optionally inside a transaction.
    pub fn signal_event(
        &self,
        name: &str,
        args: HashMap<String, Value>,
        txn: Option<TxnId>,
    ) -> Result<(), WireError> {
        self.expect_ok(Command::SignalEvent {
            name: name.to_owned(),
            args,
            txn,
        })
    }

    // ---- rule operations ----

    /// Create a rule from a locally built [`RuleDef`]; returns the rule
    /// id.
    pub fn create_rule(&self, txn: TxnId, def: &RuleDef) -> Result<u64, WireError> {
        match self.request(Command::CreateRule {
            txn,
            rule: hipac_rules::codec::encode_rule(def),
        })? {
            Reply::Id(id) => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    pub fn drop_rule(&self, txn: TxnId, name: &str) -> Result<(), WireError> {
        self.expect_ok(Command::DropRule {
            txn,
            name: name.to_owned(),
        })
    }

    pub fn enable_rule(&self, txn: TxnId, name: &str) -> Result<(), WireError> {
        self.expect_ok(Command::EnableRule {
            txn,
            name: name.to_owned(),
        })
    }

    pub fn disable_rule(&self, txn: TxnId, name: &str) -> Result<(), WireError> {
        self.expect_ok(Command::DisableRule {
            txn,
            name: name.to_owned(),
        })
    }

    // ---- application operations (§4.1 role reversal) ----

    /// Become the application server for `handler`: rule actions
    /// addressed to it are delivered to `f` on this client's reader
    /// thread. Keep `f` quick — it blocks delivery of later frames.
    /// The subscription survives reconnects: the client re-subscribes
    /// every tracked handler as part of redialing.
    pub fn subscribe(
        &self,
        handler: &str,
        f: impl Fn(&PushEvent) + Send + Sync + 'static,
    ) -> Result<(), WireError> {
        self.on_push(handler, f);
        self.expect_ok(Command::Subscribe {
            handler: handler.to_owned(),
        })?;
        self.subscribed.lock().insert(handler.to_owned());
        Ok(())
    }

    /// Stop serving `handler`.
    pub fn unsubscribe(&self, handler: &str) -> Result<(), WireError> {
        self.subscribed.lock().remove(handler);
        self.expect_ok(Command::Unsubscribe {
            handler: handler.to_owned(),
        })?;
        self.handlers.write().remove(handler);
        Ok(())
    }

    // ---- observability ----

    /// Fetch the server's engine statistics snapshot. The client-side
    /// circuit-breaker gauges (`breaker_trips`/`breaker_resets`) are
    /// overlaid from this process's per-address breaker — the server
    /// encodes them as zero because it cannot know them.
    pub fn stats(&self) -> Result<WireStats, WireError> {
        match self.request(Command::Stats)? {
            Reply::Stats(s) => {
                let mut s = *s;
                s.breaker_trips = self.breaker_trips();
                s.breaker_resets = self.breaker_resets();
                Ok(s)
            }
            other => Err(unexpected(other)),
        }
    }

    fn expect_ok(&self, command: Command) -> Result<(), WireError> {
        match self.request(command)? {
            Reply::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

impl Drop for HipacClient {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::Release);
        self.discard_conn();
    }
}

/// A client over a replicated fleet of HiPAC nodes: writes and
/// transactional work route to the primary, snapshot reads and
/// subscriptions prefer a replica, and every address is guarded by the
/// process-wide per-address circuit breaker through the underlying
/// [`HipacClient`]s.
///
/// Roles are discovered by probing each address's `STATS` reply
/// (`repl_role`); they are cached until a request fails in a way
/// another fleet member could serve — dead socket, open breaker, a
/// `NotPrimary`/`Draining` refusal — at which point the whole list is
/// re-probed, so a failover (the old primary gone, a promoted replica
/// now answering as primary) is followed automatically.
///
/// Cross-node retries re-run the operation from scratch (a fresh
/// idempotency key against a different node), so they are at-most-once
/// per node: callers needing exactly-once across a failover should run
/// a redo protocol keyed on application state, as the failover torture
/// does.
pub struct FleetClient {
    addrs: Vec<String>,
    config: ClientConfig,
    primary: Mutex<Option<Arc<HipacClient>>>,
    replica: Mutex<Option<Arc<HipacClient>>>,
    /// Last probe's view of every member, for operators and failover
    /// tooling.
    members: Mutex<Vec<FleetMember>>,
    /// Per-fleet jitter identity for retry backoff: two fleet clients
    /// hammering the same downed primary must not re-probe in
    /// lockstep.
    jitter_key: u64,
}

/// One fleet member as seen by the latest [`FleetClient`] probe.
#[derive(Debug, Clone)]
pub struct FleetMember {
    pub addr: String,
    /// `Some(ROLE_PRIMARY)` / `Some(ROLE_REPLICA)`; `None` when the
    /// member was unreachable or its stats call failed.
    pub role: Option<u64>,
    /// Replication epoch the member reports (0 = never promoted /
    /// pre-epoch build).
    pub epoch: u64,
    /// Primary-stream LSN the member has applied (replicas) or its
    /// highest peer-acked LSN (primaries).
    pub applied_lsn: u64,
}

impl FleetClient {
    /// Connect to a fleet given its member addresses, probing roles
    /// up front. Fails when no member currently answers as primary.
    pub fn connect(
        addrs: &[impl AsRef<str>],
        config: ClientConfig,
    ) -> Result<FleetClient, WireError> {
        let addrs: Vec<String> = addrs.iter().map(|a| a.as_ref().to_owned()).collect();
        if addrs.is_empty() {
            return Err(WireError::Io("fleet address list is empty".into()));
        }
        let fleet = FleetClient {
            addrs,
            config,
            primary: Mutex::new(None),
            replica: Mutex::new(None),
            members: Mutex::new(Vec::new()),
            jitter_key: auto_client_id(),
        };
        fleet.probe()?;
        Ok(fleet)
    }

    /// Probe every address and refresh the cached role routing. `Ok`
    /// iff a primary was found; the replica slot is best-effort.
    ///
    /// All members are probed — no early exit — because role alone no
    /// longer picks the right node: during a split-brain heal two
    /// members may both answer as primary, and only the one carrying
    /// the **highest replication epoch** is real (the other is a
    /// deposed primary that has not yet been fenced; writing to it
    /// would be refused or, worse, lost at rejoin). Among replicas the
    /// probe prefers the **highest applied LSN**, so reads land on the
    /// freshest follower and a failover driven through
    /// [`FleetClient::topology`] promotes the best candidate.
    fn probe(&self) -> Result<(), WireError> {
        let mut primary: Option<(Arc<HipacClient>, u64)> = None;
        let mut replica: Option<(Arc<HipacClient>, u64)> = None;
        let mut members = Vec::with_capacity(self.addrs.len());
        let mut last_err = WireError::Transport("no fleet member reachable".into());
        for addr in &self.addrs {
            let mut member = FleetMember {
                addr: addr.clone(),
                role: None,
                epoch: 0,
                applied_lsn: 0,
            };
            let client = match HipacClient::connect_with(addr.as_str(), self.config.clone()) {
                Ok(c) => Arc::new(c),
                Err(e) => {
                    last_err = e;
                    members.push(member);
                    continue;
                }
            };
            match client.stats() {
                Ok(s) => {
                    member.role = Some(s.repl_role);
                    member.epoch = s.repl_epoch;
                    member.applied_lsn = s.last_applied_lsn;
                    if s.repl_role == ROLE_PRIMARY {
                        if !matches!(&primary, Some((_, e)) if s.repl_epoch <= *e) {
                            primary = Some((client, s.repl_epoch));
                        }
                    } else if !matches!(&replica, Some((_, l)) if s.last_applied_lsn <= *l) {
                        replica = Some((client, s.last_applied_lsn));
                    }
                }
                Err(e) => last_err = e,
            }
            members.push(member);
        }
        *self.members.lock() = members;
        *self.replica.lock() = replica.map(|(c, _)| c);
        match primary {
            Some((p, _)) => {
                *self.primary.lock() = Some(p);
                Ok(())
            }
            None => {
                *self.primary.lock() = None;
                Err(last_err)
            }
        }
    }

    /// The fleet as seen by the most recent probe (refreshed on every
    /// reroute). Failover tooling uses this to pick a promotion
    /// candidate: the reachable replica with the highest
    /// `applied_lsn` loses the least data.
    pub fn topology(&self) -> Vec<FleetMember> {
        self.members.lock().clone()
    }

    /// Re-probe the fleet now and return the refreshed topology.
    pub fn refresh_topology(&self) -> Vec<FleetMember> {
        let _ = self.probe();
        self.topology()
    }

    /// Whether a replica is currently serving the read path (false:
    /// reads fall back to the primary).
    pub fn has_replica(&self) -> bool {
        self.replica.lock().is_some()
    }

    fn current_primary(&self) -> Result<Arc<HipacClient>, WireError> {
        if let Some(c) = self.primary.lock().clone() {
            return Ok(c);
        }
        self.probe()?;
        self.primary
            .lock()
            .clone()
            .ok_or_else(|| WireError::Transport("no primary in fleet".into()))
    }

    fn current_reader(&self) -> Result<Arc<HipacClient>, WireError> {
        if let Some(c) = self.replica.lock().clone() {
            return Ok(c);
        }
        if let Some(c) = self.primary.lock().clone() {
            return Ok(c);
        }
        self.probe()?;
        if let Some(c) = self.replica.lock().clone() {
            return Ok(c);
        }
        self.current_primary()
    }

    /// Whether `e` means this node cannot serve the request but another
    /// fleet member might — the trigger for a re-probe.
    fn reroutable(e: &WireError) -> bool {
        match e {
            WireError::Io(_) | WireError::Transport(_) => true,
            WireError::Remote { kind, .. } => {
                matches!(kind.as_str(), "NotPrimary" | "Draining" | "Unsupported")
            }
            _ => false,
        }
    }

    /// Run `f` against the primary, re-probing and failing over when
    /// the node is unreachable or no longer primary.
    fn with_primary<T>(
        &self,
        f: impl Fn(&HipacClient) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut attempt: u32 = 0;
        loop {
            match self.current_primary().and_then(|c| f(&c)) {
                Ok(v) => return Ok(v),
                Err(e) if Self::reroutable(&e) && attempt < self.config.max_retries => {
                    *self.primary.lock() = None;
                    attempt += 1;
                    std::thread::sleep(retry_backoff(self.config.backoff, self.jitter_key, 0, attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Run `f` against the preferred read node (replica when present),
    /// falling back to the primary when the replica fails.
    fn with_reader<T>(
        &self,
        f: impl Fn(&HipacClient) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut attempt: u32 = 0;
        loop {
            match self.current_reader().and_then(|c| f(&c)) {
                Ok(v) => return Ok(v),
                Err(e) if Self::reroutable(&e) && attempt < self.config.max_retries => {
                    *self.replica.lock() = None;
                    *self.primary.lock() = None;
                    attempt += 1;
                    std::thread::sleep(retry_backoff(self.config.backoff, self.jitter_key, 1, attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ---- write path (routed to the primary) ----

    pub fn begin(&self) -> Result<TxnId, WireError> {
        self.with_primary(|c| c.begin())
    }

    pub fn commit(&self, txn: TxnId) -> Result<(), WireError> {
        self.with_primary(|c| c.commit(txn))
    }

    pub fn abort(&self, txn: TxnId) -> Result<(), WireError> {
        self.with_primary(|c| c.abort(txn))
    }

    pub fn create_class(
        &self,
        txn: TxnId,
        name: &str,
        superclass: Option<&str>,
        attrs: Vec<AttrDef>,
    ) -> Result<u64, WireError> {
        self.with_primary(|c| c.create_class(txn, name, superclass, attrs.clone()))
    }

    pub fn insert(&self, txn: TxnId, class: &str, values: Vec<Value>) -> Result<u64, WireError> {
        self.with_primary(|c| c.insert(txn, class, values.clone()))
    }

    pub fn update(
        &self,
        txn: TxnId,
        oid: u64,
        assignments: Vec<(String, Value)>,
    ) -> Result<(), WireError> {
        self.with_primary(|c| c.update(txn, oid, assignments.clone()))
    }

    pub fn delete(&self, txn: TxnId, oid: u64) -> Result<(), WireError> {
        self.with_primary(|c| c.delete(txn, oid))
    }

    /// Transactional query — runs on the primary, where the
    /// transaction lives.
    pub fn query(
        &self,
        txn: TxnId,
        text: &str,
        params: HashMap<String, Value>,
    ) -> Result<Vec<WireRow>, WireError> {
        self.with_primary(|c| c.query(txn, text, params.clone()))
    }

    pub fn create_rule(&self, txn: TxnId, def: &RuleDef) -> Result<u64, WireError> {
        self.with_primary(|c| c.create_rule(txn, def))
    }

    pub fn define_event(&self, name: &str, params: &[&str]) -> Result<u64, WireError> {
        self.with_primary(|c| c.define_event(name, params))
    }

    pub fn signal_event(
        &self,
        name: &str,
        args: HashMap<String, Value>,
        txn: Option<TxnId>,
    ) -> Result<(), WireError> {
        self.with_primary(|c| c.signal_event(name, args.clone(), txn))
    }

    // ---- read path (routed to a replica when one is up) ----

    /// Snapshot query outside any transaction. A replica serves it at
    /// its applied-LSN watermark (transaction id 0 means "no
    /// transaction" there); the primary fallback wraps the read in a
    /// throwaway transaction for the same point-in-time semantics.
    pub fn snapshot_query(
        &self,
        text: &str,
        params: HashMap<String, Value>,
    ) -> Result<Vec<WireRow>, WireError> {
        self.with_reader(|c| match c.query(TxnId(0), text, params.clone()) {
            Err(WireError::Remote { kind, .. }) if kind == "UnknownTxn" => {
                let t = c.begin()?;
                let rows = c.query(t, text, params.clone());
                let _ = c.abort(t);
                rows
            }
            other => other,
        })
    }

    /// Subscribe `handler` on the preferred read node: with a live
    /// replica, pushes for replica-homed subscriptions are fanned out
    /// from the replica's replicated outbox, offloading the primary.
    pub fn subscribe(
        &self,
        handler: &str,
        f: impl Fn(&PushEvent) + Send + Sync + 'static,
    ) -> Result<(), WireError> {
        let f = Arc::new(f);
        self.with_reader(move |c| {
            let f = Arc::clone(&f);
            c.subscribe(handler, move |ev| f(ev))
        })
    }

    /// Stats from the preferred read node (replica when present).
    pub fn stats(&self) -> Result<WireStats, WireError> {
        self.with_reader(|c| c.stats())
    }

    /// Stats from the primary.
    pub fn primary_stats(&self) -> Result<WireStats, WireError> {
        self.with_primary(|c| c.stats())
    }
}

/// Register the pending slot, write the frame, await the routed reply.
/// `Reply::Err` passes through (the caller distinguishes remote errors
/// from transport ones); all failure paths clean up the pending slot.
fn raw_request(
    conn: &Conn,
    id: u64,
    meta: RequestMeta,
    command: Command,
    deadline: Option<Duration>,
) -> Result<Reply, WireError> {
    if conn.dead.load(Ordering::Acquire) {
        return Err(WireError::Transport("connection lost".into()));
    }
    let (tx, rx) = crossbeam::channel::bounded(1);
    conn.pending.lock().insert(id, tx);
    // The reader marks the connection dead *before* it clears the
    // pending table: a request registered after that sweep would wait
    // forever, so look again now that ours is in the table.
    if conn.dead.load(Ordering::Acquire) {
        conn.pending.lock().remove(&id);
        return Err(WireError::Transport("connection lost".into()));
    }
    let frame = Frame::Request { id, meta, command }.encode();
    if let Err(e) = conn.writer.lock().write_all(&frame) {
        conn.pending.lock().remove(&id);
        return Err(WireError::Transport(format!("write failed: {e}")));
    }
    match deadline {
        None => match rx.recv() {
            Ok(reply) => Ok(reply),
            // Reader dropped the senders: connection died with the
            // request outstanding — outcome unknown.
            Err(_) => Err(WireError::Transport(
                "connection lost awaiting reply".into(),
            )),
        },
        Some(d) => {
            // Grace on top of the deadline: a server that aborts the
            // request with DeadlineExceeded at the deadline still needs
            // time to deliver that definite answer.
            let wait = d + DEADLINE_GRACE;
            match rx.recv_timeout(wait) {
                Ok(reply) => Ok(reply),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    conn.pending.lock().remove(&id);
                    Err(WireError::Timeout(format!(
                        "no reply within {}ms deadline (+{}ms grace)",
                        d.as_millis(),
                        DEADLINE_GRACE.as_millis()
                    )))
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(
                    WireError::Transport("connection lost awaiting reply".into()),
                ),
            }
        }
    }
}

/// Slack between the deadline and the local timeout, so the server's
/// definite `DeadlineExceeded` beats the client's indefinite
/// [`WireError::Timeout`] when both fire.
const DEADLINE_GRACE: Duration = Duration::from_millis(500);

/// Process-unique, nonzero client identity: pid, wall clock, and a
/// process-local counter hashed together.
fn auto_client_id() -> u64 {
    use std::hash::{Hash, Hasher};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::process::id().hash(&mut h);
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .subsec_nanos()
        .hash(&mut h);
    COUNTER.fetch_add(1, Ordering::Relaxed).hash(&mut h);
    h.finish() | 1
}

/// Exponential backoff with deterministic jitter, capped at a second.
fn retry_backoff(base: Duration, client_id: u64, seq: u64, attempt: u32) -> Duration {
    use std::hash::{Hash, Hasher};
    let base_us = base.as_micros().max(1) as u64;
    let exp = base_us.saturating_mul(1 << attempt.min(6));
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (client_id, seq, attempt).hash(&mut h);
    let jitter = h.finish() % base_us.max(1);
    Duration::from_micros((exp + jitter).min(1_000_000))
}

fn unexpected(reply: Reply) -> WireError {
    WireError::Protocol(format!("unexpected reply: {reply:?}"))
}

fn read_loop(
    mut stream: TcpStream,
    pending: &Pending,
    handlers: &RwLock<HashMap<String, PushHandler>>,
    push_seen: &Mutex<HashMap<String, u64>>,
    writer: &Mutex<TcpStream>,
    dead: &AtomicBool,
) {
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Some(Frame::Response { id, reply })) => {
                if let Some(tx) = pending.lock().remove(&id) {
                    let _ = tx.send(reply);
                }
                // No waiter: request raced with a local error path that
                // already gave up on it (or id 0: a fire-and-forget ack
                // whose Ok the server still sends); drop the reply.
            }
            Ok(Some(Frame::Push(event))) => {
                // seq 0 = pre-v4 unacked push: always deliver, no ack.
                // Otherwise dedup on the per-handler high-water mark —
                // redelivery after reconnect resends pushes the server
                // never saw acked, including ones we already ran.
                let duplicate = event.seq != 0 && {
                    let mut seen = push_seen.lock();
                    let last = seen.entry(event.handler.clone()).or_insert(0);
                    if event.seq <= *last {
                        true
                    } else {
                        *last = event.seq;
                        false
                    }
                };
                if !duplicate {
                    let guard = handlers.read();
                    if let Some(h) = guard.get(&event.handler) {
                        h(&event);
                    }
                    // No handler registered: the server pushed to a
                    // handler this client never subscribed (or one
                    // unregistered since); ignore.
                }
                // Ack after the handler returns (at-least-once for the
                // handler, exactly-once per seq for delivery). Id 0 is
                // the fire-and-forget channel: no waiter is registered,
                // so the server's Ok is dropped above.
                if event.seq != 0 {
                    let ack = Frame::Request {
                        id: 0,
                        meta: RequestMeta::default(),
                        command: Command::AckPush {
                            handler: event.handler.clone(),
                            seq: event.seq,
                        },
                    };
                    if ack.write_to(&mut *writer.lock()).is_err() {
                        break;
                    }
                }
            }
            // Servers never send requests to plain clients, and repl
            // stream frames only flow to a subscribed replica (see
            // `hipac-repl`); a malformed stream is fatal.
            Ok(Some(Frame::Request { .. })) | Ok(Some(Frame::Repl(_))) | Err(_) | Ok(None) => break,
        }
    }
    dead.store(true, Ordering::Release);
    // Wake every blocked caller: dropping the senders errors their recv.
    pending.lock().clear();
}
