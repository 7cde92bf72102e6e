//! Reactor-server load coverage: connection scale is paid in file
//! descriptors, not threads or stacks; a slow subscriber cannot stall
//! the batched push fan-out; and the dedup window keeps exactly-once
//! across reactor shards when a client reconnects onto a different
//! shard.
//!
//! The thousands-of-subscribers test uses raw `TcpStream` frames
//! rather than `HipacClient` — the client spawns a reader thread per
//! connection, which would turn a server-scalability test into a
//! client-thread test.

use hipac::ActiveDatabase;
use hipac_common::{Value, ValueType};
use hipac_event::EventSpec;
use hipac_net::proto::{Command, Frame, Reply, RequestMeta};
use hipac_net::{HipacClient, HipacServer, ServerConfig};
use hipac_object::AttrDef;
use hipac_rules::{Action, ActionOp, RuleDef};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
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
    let db = server.db();
    db.run_top(|t| {
        db.store()
            .create_class(t, "p", None, vec![AttrDef::new("n", ValueType::Int)])?;
        db.rules().create_rule(
            t,
            RuleDef::new("push-insert")
                .on(EventSpec::db(
                    hipac_event::spec::DbEventKind::Insert,
                    Some("p"),
                ))
                .then(Action::single(ActionOp::AppRequest {
                    handler: handler.into(),
                    request: request.into(),
                    args: vec![],
                })),
        )?;
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
/// not threads: the reactor multiplexes them onto a fixed shard/worker
/// pool, and one committed insert still fans out to every socket.
///
/// Both connection ends live in this process, so each subscriber costs
/// three fds (client end, server end, and the server's cloned push
/// writer); the count targets 10k and degrades to what the rlimit
/// allows. `HORDE_N` overrides the target for quick local runs.
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
/// loose by the bounded phase-2 write, without stalling delivery to
/// healthy subscribers: the fast client sees every push, the slow one
/// misses the tail (writes to it stopped at the cull), and the burst
/// completes in a fraction of `pushes x push_write_timeout`.
#[test]
fn slow_subscriber_is_culled_without_stalling_fanout() {
    let _serial = serial();
    const PUSHES: usize = 64;
    let timeout = Duration::from_millis(150);
    let server = server_with(ServerConfig {
        push_write_timeout: timeout,
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
    // The slow subscriber stalls the burst at most ~once before the
    // cull; a fan-out serialized on it would need PUSHES x timeout.
    assert!(
        elapsed < timeout * (PUSHES as u32) / 4,
        "fan-out appears serialized on the slow subscriber: {elapsed:?}"
    );

    // The cull is real: drain what the socket buffered — it must be a
    // strict prefix of the burst, because deliveries to the slow
    // subscriber stopped when it was cut loose.
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

/// Exactly-once across reactor shards: a keyed commit acked on one
/// shard must dedup when the client reconnects — round-robin assigns
/// the new connection to the *other* shard — and retries the same
/// `(client_id, seq)`. The dedup window is striped by client id, not
/// owned by a shard, so the retry replays the cached reply instead of
/// re-executing.
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
    drop(conn); // the session dies with the shard-homed connection

    // Reconnect: round-robin homes this connection on the other shard.
    // Same idempotency key, same command — must replay, not re-run.
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let before = server.dedup_hits();
    assert_eq!(
        roundtrip(&mut conn, 9, meta(3), Command::Commit { txn }),
        Reply::Ok,
        "cross-shard retry must replay the cached reply"
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
