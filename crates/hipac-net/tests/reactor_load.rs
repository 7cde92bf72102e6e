//! Reactor-server load coverage: connection scale is paid in file
//! descriptors, not threads or stacks; a slow subscriber cannot stall
//! the push fan-out; pushes reach every subscriber in sequence order,
//! under concurrent firings and across a resubscribe; a client that
//! never reads its replies is paused, then retired; workers that share
//! an epoll set answer every pipelined request once and in order, a
//! backed-up connection included; a request blocked on a lock holds up
//! only its own worker; and the dedup window keeps exactly-once when a
//! client reconnects.
//!
//! The thousands-of-subscribers test uses raw `TcpStream` frames
//! rather than `HipacClient`: a subscribed client runs a reader thread
//! for its connection, which would turn a server-scalability test into
//! a client-thread test.

use hipac::ActiveDatabase;
use hipac_common::{Value, ValueType};
use hipac_event::EventSpec;
use hipac_net::proto::{Command, Frame, Reply, RequestMeta};
use hipac_net::{HipacClient, HipacServer, ServerConfig};
use hipac_object::AttrDef;
use hipac_rules::{Action, ActionOp, RuleDef};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The horde test asserts on this process's thread count, which any
/// server another test starts beside it would move: the binary's tests
/// take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock leaves nothing behind
    // that the next one depends on.
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn server_with(config: ServerConfig) -> HipacServer {
    let db = Arc::new(
        ActiveDatabase::builder()
            .lock_timeout(Duration::from_secs(3))
            .build()
            .unwrap(),
    );
    HipacServer::bind_with(db, "127.0.0.1:0", config).unwrap()
}

/// Create class `p(n: Int)` and a rule pushing every insert to
/// `handler` with the given request payload.
fn setup_push_schema(server: &HipacServer, handler: &str, request: &str) {
    setup_push_rule(server, push_rule(handler, request));
}

/// The rule behind [`setup_push_schema`]: push every insert into `p`.
fn push_rule(handler: &str, request: &str) -> RuleDef {
    RuleDef::new("push-insert")
        .on(EventSpec::db(
            hipac_event::spec::DbEventKind::Insert,
            Some("p"),
        ))
        .then(Action::single(ActionOp::AppRequest {
            handler: handler.into(),
            request: request.into(),
            args: vec![],
        }))
}

/// Create class `p(n: Int)` and `rule`.
fn setup_push_rule(server: &HipacServer, rule: RuleDef) {
    let db = server.db();
    db.run_top(|t| {
        db.store()
            .create_class(t, "p", None, vec![AttrDef::new("n", ValueType::Int)])?;
        db.rules().create_rule(t, rule)?;
        Ok(())
    })
    .unwrap();
}

fn roundtrip(stream: &mut TcpStream, id: u64, meta: RequestMeta, command: Command) -> Reply {
    stream
        .write_all(&Frame::Request { id, meta, command }.encode())
        .unwrap();
    loop {
        match Frame::read_from(stream).unwrap().expect("reply") {
            Frame::Response { id: rid, reply } if rid == id => return reply,
            Frame::Response { .. } | Frame::Push(_) => continue,
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// Threads of this process, from /proc (Linux; the reactor design
/// this asserts on is only syscall-backed there anyway).
fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

/// Soft RLIMIT_NOFILE, from /proc.
fn fd_soft_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3)?.parse().ok())
        .unwrap_or(1024)
}

/// Thousands of idle subscribers cost this process file descriptors,
/// not threads: the reactor multiplexes them onto a fixed worker
/// pool, and one committed insert still fans out to every socket.
///
/// Both connection ends live in this process, so each subscriber costs
/// two fds (client end and server end); the budget divides the rlimit
/// by three to keep headroom. The count targets 10k and degrades to
/// what the rlimit allows. `HORDE_N` overrides the target for quick
/// local runs.
#[test]
fn idle_subscriber_horde_costs_fds_not_threads() {
    let _serial = serial();
    let budget = fd_soft_limit().saturating_sub(1000) / 3;
    let target = std::env::var("HORDE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let n = budget.min(target) as usize;
    assert!(
        n >= 1000,
        "fd limit too low to say anything about connection scale"
    );

    let server = server_with(ServerConfig {
        max_pending: n + 64,
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    });
    setup_push_schema(&server, "wave", "wave");

    let threads_before = process_threads();
    let fds_before = open_fds();
    let mut horde = Vec::with_capacity(n);
    for i in 0..n {
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reply = roundtrip(
            &mut conn,
            i as u64,
            RequestMeta::default(),
            Command::Subscribe {
                handler: "wave".into(),
            },
        );
        assert_eq!(reply, Reply::Ok, "subscriber {i} refused");
        horde.push(conn);
    }
    let threads_after = process_threads();
    let fds_after = open_fds();

    assert_eq!(
        server.active_connections(),
        n as u64,
        "every subscriber is a live session"
    );
    assert!(
        fds_after - fds_before >= 2 * n as u64,
        "subscribers must be held open as fds ({fds_before} -> {fds_after})"
    );
    // The whole point: session count must not leak into thread count.
    // (A thread-per-session design would add ~n threads here.)
    assert!(
        threads_after.saturating_sub(threads_before) <= 4,
        "thread explosion: {threads_before} -> {threads_after} threads for {n} conns"
    );

    // One committed insert fans out to the entire horde: spot-check a
    // spread of subscribers, including both ends of the accept order.
    let committer = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let t = committer.begin().unwrap();
    committer.insert(t, "p", vec![Value::from(1i64)]).unwrap();
    committer.commit(t).unwrap();
    for idx in [0, 1, n / 2, n - 2, n - 1] {
        let conn = &mut horde[idx];
        loop {
            match Frame::read_from(conn).unwrap().expect("push") {
                Frame::Push(p) => {
                    assert_eq!(p.handler, "wave");
                    break;
                }
                _ => continue,
            }
        }
    }
    drop(committer);
    drop(horde);
    drop(server);
}

/// A subscriber that stops reading fills its socket and must be cut
/// loose once its oldest queued push has waited out the 5 s outbound
/// bound, without stalling delivery to healthy subscribers: the fast
/// client sees every push, the burst completes in 2.4 s, and the slow
/// one misses the tail (what was queued for it went with the cull).
#[test]
fn slow_subscriber_is_culled_without_stalling_fanout() {
    let _serial = serial();
    const PUSHES: usize = 64;
    let server = server_with(ServerConfig {
        idle_timeout: Duration::from_secs(600),
        outbox_cap: PUSHES + 8,
        ..ServerConfig::default()
    });
    // 256 KiB per push: a non-reading subscriber's socket pair soaks
    // up only a few MB before writes stall.
    let blob = "x".repeat(256 * 1024);
    setup_push_schema(&server, "blob", &blob);

    let fast_seen = Arc::new(AtomicU64::new(0));
    let fast = HipacClient::connect(server.local_addr().to_string()).unwrap();
    {
        let fast_seen = Arc::clone(&fast_seen);
        fast.subscribe("blob", move |_| {
            fast_seen.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    }

    let mut slow = TcpStream::connect(server.local_addr()).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(
        roundtrip(
            &mut slow,
            1,
            RequestMeta::default(),
            Command::Subscribe {
                handler: "blob".into(),
            },
        ),
        Reply::Ok
    );
    // From here on the slow subscriber never reads again.

    let committer = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let start = Instant::now();
    for i in 0..PUSHES as i64 {
        let t = committer.begin().unwrap();
        committer.insert(t, "p", vec![Value::from(i)]).unwrap();
        committer.commit(t).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while fast_seen.load(Ordering::SeqCst) < PUSHES as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let elapsed = start.elapsed();
    assert_eq!(
        fast_seen.load(Ordering::SeqCst),
        PUSHES as u64,
        "healthy subscriber missed pushes behind a slow peer"
    );
    // No push waits on the slow subscriber's socket.
    assert!(
        elapsed < Duration::from_millis(2400),
        "fan-out appears serialized on the slow subscriber: {elapsed:?}"
    );

    // The cull is real: once the 5 s bound (plus a 100 ms sweep) has
    // passed, the slow session is gone, and what its socket buffered is
    // a strict prefix of the burst — the rest was still queued for it
    // when it was cut loose.
    let culled = Instant::now() + Duration::from_secs(7);
    while server.active_connections() > 2 && Instant::now() < culled {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.active_connections(), 2, "the slow subscriber was never culled");
    slow.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
    let mut slow_got = 0usize;
    loop {
        match Frame::read_from(&mut slow) {
            Ok(Some(Frame::Push(_))) => slow_got += 1,
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => break,
        }
    }
    assert!(
        slow_got < PUSHES,
        "slow subscriber received the whole burst; it was never culled"
    );
    drop(committer);
    drop(fast);
    drop(server);
}

/// Exactly-once across a reconnect: a keyed commit acked on one
/// connection must dedup when the client reconnects and retries the
/// same `(client_id, seq)` on a new session. The dedup window is
/// striped by client id, not owned by a session, so the retry replays
/// the cached reply instead of re-executing. (`reactor_shards` is
/// ignored; the test keeps the setting it was written with.)
#[test]
fn dedup_survives_reconnect_across_shards() {
    let _serial = serial();
    let server = server_with(ServerConfig {
        reactor_shards: 2,
        ..ServerConfig::default()
    });
    let db = server.db();
    db.run_top(|t| {
        db.store()
            .create_class(t, "t", None, vec![AttrDef::new("n", ValueType::Int)])?;
        Ok(())
    })
    .unwrap();

    let meta = |seq: u64| RequestMeta {
        client_id: 0xD00D,
        seq,
        deadline_ms: 0,
    };
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let txn = match roundtrip(&mut conn, 1, meta(1), Command::Begin) {
        Reply::Txn(t) => t,
        other => panic!("{other:?}"),
    };
    roundtrip(
        &mut conn,
        2,
        meta(2),
        Command::Insert {
            txn,
            class: "t".into(),
            values: vec![Value::from(7i64)],
        },
    );
    assert_eq!(roundtrip(&mut conn, 3, meta(3), Command::Commit { txn }), Reply::Ok);
    drop(conn); // the session dies with its connection

    // Reconnect: a new session, the same idempotency key and the same
    // command — must replay, not re-run.
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let before = server.dedup_hits();
    assert_eq!(
        roundtrip(&mut conn, 9, meta(3), Command::Commit { txn }),
        Reply::Ok,
        "the retry on a new session must replay the cached reply"
    );
    assert!(
        server.dedup_hits() > before,
        "retry re-executed instead of hitting the dedup window"
    );

    // Exactly once: the row exists a single time.
    let count = db
        .run_top(|t| {
            Ok(db
                .store()
                .query(t, &hipac_object::Query::all("t"), None)?
                .len())
        })
        .unwrap();
    assert_eq!(count, 1, "keyed commit applied more than once");
    drop(server);
}

/// One `write` carrying 200 pipelined requests, served by one worker:
/// it reads them a burst at a time, and any complete frames it parks
/// (behind a reply backlog) it must run itself on its next turn —
/// epoll never reports bytes that already left the kernel. Every ping
/// is answered, in order.
#[test]
fn burst_past_the_pending_cap_is_answered_in_order() {
    let _serial = serial();
    let server = server_with(ServerConfig {
        workers: 1,
        reactor_shards: 1,
        ..ServerConfig::default()
    });
    const N: u64 = 200;
    let burst: Vec<u8> = (1..=N)
        .flat_map(|id| {
            Frame::Request {
                id,
                meta: RequestMeta::default(),
                command: Command::Ping {
                    version: hipac_net::proto::PROTOCOL_VERSION,
                },
            }
            .encode()
        })
        .collect();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn.write_all(&burst).unwrap();
    for want in 1..=N {
        match Frame::read_from(&mut conn) {
            Ok(Some(Frame::Response { id, reply })) => {
                assert_eq!(id, want, "responses out of order");
                assert!(matches!(reply, Reply::Pong { .. }), "{reply:?}");
            }
            other => panic!("ping {want} of {N} unanswered: {other:?}"),
        }
    }
    drop(server);
}

/// A server whose engine runs detached firings on four workers, with
/// room for `outbox_cap` unacked pushes and a detached rule pushing
/// every insert into `p` to handler `seq`.
fn detached_push_server(outbox_cap: usize) -> HipacServer {
    let db = Arc::new(
        ActiveDatabase::builder()
            .workers(4)
            .lock_timeout(Duration::from_secs(3))
            .build()
            .unwrap(),
    );
    let config = ServerConfig {
        outbox_cap,
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let server = HipacServer::bind_with(db, "127.0.0.1:0", config).unwrap();
    setup_push_rule(&server, push_rule("seq", "seq").detached());
    server
}

fn subscribe_frame() -> Vec<u8> {
    Frame::Request {
        id: 1,
        meta: RequestMeta::default(),
        command: Command::Subscribe {
            handler: "seq".into(),
        },
    }
    .encode()
}

/// Commit inserts into `p`, one per transaction, until `more` says stop.
fn commit_inserts(server: &HipacServer, mut more: impl FnMut(i64) -> bool) {
    let client = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let mut i = 0;
    while more(i) {
        let t = client.begin().unwrap();
        client.insert(t, "p", vec![Value::from(i)]).unwrap();
        client.commit(t).unwrap();
        i += 1;
    }
}

/// Pushes that concurrent firings sequence reach a subscriber in
/// sequence order: `deliver` queues each frame on every subscriber's
/// connection under the handler's outbox lock. (Written after that lock
/// is released, two firing workers can put `seq N + 1` on the wire
/// ahead of `N`, and a client drops `N` as a duplicate.)
#[test]
fn pushes_from_concurrent_firings_arrive_in_seq_order() {
    let _serial = serial();
    const COMMITTERS: i64 = 4;
    const PER_COMMITTER: i64 = 1250;
    let commits = (COMMITTERS * PER_COMMITTER) as u64;
    let server = detached_push_server(commits as usize);
    let mut sub = TcpStream::connect(server.local_addr()).unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    sub.write_all(&subscribe_frame()).unwrap();
    assert!(matches!(
        Frame::read_from(&mut sub),
        Ok(Some(Frame::Response { reply: Reply::Ok, .. }))
    ));

    std::thread::scope(|s| {
        for _ in 0..COMMITTERS {
            s.spawn(|| commit_inserts(&server, |i| i < PER_COMMITTER));
        }
        let mut last = 0u64;
        while last < commits {
            match Frame::read_from(&mut sub) {
                Ok(Some(Frame::Push(p))) => {
                    assert_eq!(p.seq, last + 1, "push seq {} arrived after seq {last}", p.seq);
                    last = p.seq;
                }
                other => panic!("{last} of {commits} pushes arrived, then {other:?}"),
            }
        }
    });
    sub.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    assert!(
        Frame::read_from(&mut sub).is_err(),
        "more pushes than commits"
    );
}

/// Subscribe and catch-up are one step: a connection that subscribes
/// while a committer keeps pushing receives every unacked push and then
/// the live ones, each seq once and in order — no live push gets ahead
/// of the catch-up (a client would drop the older frame as a
/// duplicate, and ack it).
#[test]
fn resubscribe_under_live_pushes_catches_up_in_seq_order() {
    let _serial = serial();
    const ROUNDS: usize = 30;
    let server = detached_push_server(100_000);
    let stop = AtomicBool::new(false);
    /// Stops the committers however the rounds end, so a failed round
    /// reports instead of waiting on them forever.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| commit_inserts(&server, |_| !stop.load(Ordering::Acquire)));
        }
        let _stop = StopOnDrop(&stop);
        for round in 0..ROUNDS {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            conn.write_all(&subscribe_frame()).unwrap();
            // Nothing is ever acked, so every subscriber's stream is
            // 1, 2, 3, …: the catch-up, then live pushes.
            let (mut last, mut live, mut subscribed) = (0u64, 0, false);
            while live < 10 {
                match Frame::read_from(&mut conn) {
                    Ok(Some(Frame::Push(p))) => {
                        assert_eq!(p.seq, last + 1, "round {round}: seq {} after {last}", p.seq);
                        last = p.seq;
                        live += usize::from(subscribed);
                    }
                    Ok(Some(Frame::Response { reply, .. })) => {
                        assert_eq!(reply, Reply::Ok);
                        subscribed = true;
                    }
                    other => panic!("round {round}: after seq {last}, {other:?}"),
                }
            }
        }
    });
}

/// The kernel's ceiling on a socket's send buffer (the third field of
/// `tcp_wmem`; 4 MiB, the usual default, where it cannot be read).
fn send_buffer_max() -> u64 {
    std::fs::read_to_string("/proc/sys/net/ipv4/tcp_wmem")
        .ok()
        .and_then(|s| s.split_whitespace().nth(2)?.parse().ok())
        .unwrap_or(4 << 20)
}

/// A client that pipelines requests and never reads its replies stops
/// being served. Once a reply waits in its outbound queue, its owner
/// runs no further request (the bound below keeps the 64 of an earlier
/// per-connection queue as slack); another client's round trips are
/// unaffected, even with one worker, because nobody waits on the
/// socket; and the connection is retired once its oldest queued reply
/// has waited 5 s (plus at most one 100 ms sweep).
#[test]
fn client_that_never_reads_replies_is_paused_then_retired() {
    let _serial = serial();
    const PENDING_CAP: u64 = 64;
    const REPLY: u64 = 16 * 1024;
    let server = server_with(ServerConfig {
        workers: 1,
        reactor_shards: 1,
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    });
    let db = server.db();
    db.define_event("tick", &[]).unwrap();
    db.run_top(|t| {
        let blob = AttrDef::new("s", ValueType::Str);
        db.store().create_class(t, "blob", None, vec![blob])?;
        db.store()
            .insert(t, "blob", vec![Value::from("x".repeat(REPLY as usize))])?;
        Ok(())
    })
    .unwrap();
    let request = |id, command| Frame::Request {
        id,
        meta: RequestMeta::default(),
        command,
    };

    let mut other = TcpStream::connect(server.local_addr()).unwrap();
    other.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hog = TcpStream::connect(server.local_addr()).unwrap();
    hog.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let Reply::Txn(txn) = roundtrip(&mut hog, 1, RequestMeta::default(), Command::Begin) else {
        panic!("begin refused");
    };

    // Pipeline (signal, query) pairs — a countable side effect, then a
    // 16 KiB reply. Once the server stops reading, the kernel may not
    // take them all; the write then gives up, and what it took is
    // enough.
    const PAIRS: u64 = 5_000;
    let pipeline: Vec<u8> = (1..=PAIRS)
        .flat_map(|i| {
            let signal = Command::SignalEvent {
                name: "tick".into(),
                args: Default::default(),
                txn: None,
            };
            let query = Command::Query {
                txn,
                text: "from blob".into(),
                params: Default::default(),
            };
            [request(2 * i, signal).encode(), request(2 * i + 1, query).encode()].concat()
        })
        .collect();
    let executed = || db.stats().signals_processed;
    let before = executed();
    let t0 = Instant::now();
    hog.set_write_timeout(Some(Duration::from_secs(1))).unwrap();
    let _ = hog.write_all(&pipeline);

    // The server stops reading: the count of executed pairs settles far
    // below what was sent, with the session still alive.
    let mut settled = executed();
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let now = executed();
        if now == settled {
            break;
        }
        settled = now;
    }
    let ran = settled - before;
    assert!(ran < PAIRS, "the server kept reading a client that reads nothing");
    assert_eq!(server.active_connections(), 2, "reads paused, session alive");

    // Another client is served as usual until the hog is retired.
    let (mut worst, mut id) = (Duration::ZERO, 100);
    while server.active_connections() == 2 && t0.elapsed() < Duration::from_secs(8) {
        let start = Instant::now();
        let ping = Command::Ping {
            version: hipac_net::proto::PROTOCOL_VERSION,
        };
        let reply = roundtrip(&mut other, id, RequestMeta::default(), ping);
        assert!(matches!(reply, Reply::Pong { .. }), "{reply:?}");
        worst = worst.max(start.elapsed());
        id += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    let retired = t0.elapsed();
    assert_eq!(server.active_connections(), 1, "the hog was never retired");
    assert!(
        retired >= Duration::from_secs(5) && retired < Duration::from_millis(5_500),
        "retired {retired:?} after pipelining began; the bound is 5 s plus a 100 ms sweep"
    );
    assert!(worst < Duration::from_millis(250), "another client's round trip took {worst:?}");

    // What reached the hog's socket before the cull is readable; the
    // replies still queued (or in the server's send buffer) are not.
    // Beyond those, at most the dispatched requests ran.
    hog.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let mut delivered = 0u64;
    while let Ok(Some(frame)) = Frame::read_from(&mut hog) {
        if let Frame::Response { reply: Reply::Rows(_), .. } = frame {
            delivered += 1;
        }
    }
    let in_kernel = send_buffer_max() / REPLY;
    assert_eq!(executed(), settled, "a paused connection's requests ran on");
    assert!(
        ran <= delivered + in_kernel + PENDING_CAP + 2,
        "{ran} pairs ran, {delivered} replies arrived: more than {PENDING_CAP} \
         replies queued for a client that reads nothing"
    );
}

/// Pings with ids `ids`, pipelined in one buffer.
fn pings(ids: std::ops::RangeInclusive<u64>) -> Vec<u8> {
    ids.flat_map(|id| {
        Frame::Request {
            id,
            meta: RequestMeta::default(),
            command: Command::Ping {
                version: hipac_net::proto::PROTOCOL_VERSION,
            },
        }
        .encode()
    })
    .collect()
}

/// Read the replies to `ids`, asserting each is a `Pong` and in order.
fn expect_pongs(conn: &mut TcpStream, ids: std::ops::RangeInclusive<u64>, who: usize) {
    for want in ids {
        match Frame::read_from(conn) {
            Ok(Some(Frame::Response {
                id,
                reply: Reply::Pong { .. },
            })) => assert_eq!(id, want, "connection {who}: reply {id} where {want} was due"),
            other => panic!("connection {who}: ping {want} unanswered: {other:?}"),
        }
    }
}

/// Two workers wait on one epoll set and serve sixteen connections that
/// pipeline bursts of requests with increasing ids. Fifteen send pings
/// and read each burst's replies. One stops reading for a while, and
/// its requests are queries with 16 KiB replies, which soon back up
/// past what the kernel buffers: the worker that owns it stops reading
/// it and releases it armed for writes, and it is served on from the
/// bytes it parked once its replies drain. Every connection gets
/// exactly one reply per request, in id order. The server's debug
/// build asserts that no connection is ever owned by two workers at
/// once; a worker that trips the assertion dies, and the replies it
/// owed never come.
#[test]
fn workers_answer_each_pipelined_request_once_in_order() {
    let _serial = serial();
    const CONNS: usize = 16;
    const BURSTS: u64 = 20;
    const BURST: u64 = 100;
    const STALLED_BURST: u64 = 50;
    const REPLY: usize = 16 * 1024;
    let server = server_with(ServerConfig {
        workers: 2,
        reactor_shards: 1,
        ..ServerConfig::default()
    });
    let db = server.db();
    db.run_top(|t| {
        let blob = AttrDef::new("s", ValueType::Str);
        db.store().create_class(t, "blob", None, vec![blob])?;
        db.store().insert(t, "blob", vec![Value::from("x".repeat(REPLY))])?;
        Ok(())
    })
    .unwrap();
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for who in 0..CONNS {
            s.spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
                let mut writer = conn.try_clone().unwrap();
                if who > 0 {
                    for b in 0..BURSTS {
                        let ids = b * BURST + 1..=(b + 1) * BURST;
                        writer.write_all(&pings(ids.clone())).unwrap();
                        expect_pongs(&mut conn, ids, who);
                    }
                } else {
                    let Reply::Txn(txn) = roundtrip(&mut conn, 1, RequestMeta::default(), Command::Begin)
                    else {
                        panic!("begin refused");
                    };
                    let last = 1 + BURSTS * STALLED_BURST;
                    let writes = std::thread::spawn(move || {
                        let query = |id| Frame::Request {
                            id,
                            meta: RequestMeta::default(),
                            command: Command::Query {
                                txn,
                                text: "from blob".into(),
                                params: Default::default(),
                            },
                        };
                        for b in 0..BURSTS {
                            let ids = 2 + b * STALLED_BURST..2 + (b + 1) * STALLED_BURST;
                            let burst: Vec<u8> = ids.flat_map(|id| query(id).encode()).collect();
                            writer.write_all(&burst).unwrap();
                        }
                    });
                    std::thread::sleep(Duration::from_millis(500));
                    for want in 2..=last {
                        match Frame::read_from(&mut conn) {
                            Ok(Some(Frame::Response {
                                id,
                                reply: Reply::Rows(rows),
                            })) => {
                                assert_eq!(id, want, "stalled connection: reply {id} where {want} was due");
                                assert_eq!(rows.len(), 1);
                            }
                            other => panic!("stalled connection: query {want} unanswered: {other:?}"),
                        }
                    }
                    writes.join().unwrap();
                }
                conn.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
                assert!(
                    Frame::read_from(&mut conn).is_err(),
                    "connection {who}: a reply beyond the last request"
                );
            });
        }
    });
    drop(server);
}

/// A request blocked on a lock holds up its own worker and no other
/// connection. Two workers, and `reactor_shards: 2` — ignored: were the
/// workers split over two epoll sets with connections dealt round-robin,
/// the holder (first connection) and the waiter (third) would share a
/// set whose one worker waits in the waiter's update, and the holder's
/// commit would run only once that wait timed out. With one shared set
/// the other worker runs the commit at once, which frees the lock.
#[test]
fn a_lock_wait_does_not_stall_the_holders_commit() {
    let _serial = serial();
    let server = server_with(ServerConfig {
        workers: 2,
        reactor_shards: 2,
        ..ServerConfig::default()
    });
    let db = server.db();
    let oid = db
        .run_top(|t| {
            db.store()
                .create_class(t, "t", None, vec![AttrDef::new("n", ValueType::Int)])?;
            db.store().insert(t, "t", vec![Value::from(0i64)])
        })
        .unwrap()
        .raw();
    let holder = HipacClient::connect(server.local_addr()).unwrap();
    let _filler = HipacClient::connect(server.local_addr()).unwrap();
    let waiter = HipacClient::connect(server.local_addr()).unwrap();
    let set = |n: i64| vec![("n".to_owned(), Value::from(n))];

    let held = holder.begin().unwrap();
    holder.update(held, oid, set(1)).unwrap();
    std::thread::scope(|s| {
        let waiting = s.spawn(|| {
            let txn = waiter.begin().unwrap();
            let start = Instant::now();
            waiter.update(txn, oid, set(2)).unwrap();
            waiter.commit(txn).unwrap();
            start.elapsed()
        });
        // Let the waiter's update reach the lock and block its worker.
        std::thread::sleep(Duration::from_millis(200));
        let start = Instant::now();
        holder.commit(held).unwrap();
        let commit = start.elapsed();
        // The lock timeout is 3 s.
        assert!(commit < Duration::from_secs(1), "the holder's commit took {commit:?}");
        let waited = waiting.join().unwrap();
        assert!(waited < Duration::from_secs(2), "the waiter's update took {waited:?}");
    });
    drop(holder);
    drop(waiter);
    drop(server);
}
