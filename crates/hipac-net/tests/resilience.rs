//! End-to-end failure resilience: exactly-once retries through a
//! deterministic chaos proxy, server-side idempotency replay, load
//! shedding and deadline propagation, graceful drain, and push-frame
//! behavior across reconnects.

use hipac::ActiveDatabase;
use hipac_check::{ChaosConfig, ChaosProxy};
use hipac_common::{TxnId, Value, ValueType};
use hipac_event::EventSpec;
use hipac_net::proto::{Command, Frame, Reply, RequestMeta, PROTOCOL_VERSION};
use hipac_net::{ClientConfig, HipacClient, HipacServer, ServerConfig, WireError};
use hipac_object::{AttrDef, Expr};
use hipac_rules::{Action, ActionOp, RuleDef};
use hipac_storage::{FaultPolicy, StoreOp, TailRead};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn server_with(config: ServerConfig) -> HipacServer {
    let db = Arc::new(
        ActiveDatabase::builder()
            .lock_timeout(Duration::from_secs(3))
            .build()
            .unwrap(),
    );
    HipacServer::bind_with(db, "127.0.0.1:0", config).unwrap()
}

fn server() -> HipacServer {
    server_with(ServerConfig::default())
}

/// Create class `t(n: Int)` directly on the served engine.
fn setup_int_class(server: &HipacServer) {
    let db = server.db();
    db.run_top(|t| {
        db.store()
            .create_class(t, "t", None, vec![AttrDef::new("n", ValueType::Int)])?;
        Ok(())
    })
    .unwrap();
}

/// Count committed rows of class `t` per value of `n`.
fn committed_counts(server: &HipacServer) -> HashMap<i64, usize> {
    let db = server.db();
    db.run_top(|t| {
        let rows = db
            .store()
            .query(t, &hipac_object::Query::all("t"), None)?;
        let mut counts = HashMap::new();
        for r in rows {
            if let Value::Int(n) = r.values[0] {
                *counts.entry(n).or_insert(0usize) += 1;
            }
        }
        Ok(counts)
    })
    .unwrap()
}

/// The tentpole torture test: a client performing sequential
/// begin/insert/commit transactions through a faulty network must end
/// with every *acked* commit applied exactly once and every unacked
/// one at most once, across multiple chaos seeds.
#[test]
fn exactly_once_commits_through_chaos_across_seeds() {
    for seed in [11u64, 22, 33] {
        let server = server();
        setup_int_class(&server);
        let proxy = ChaosProxy::spawn(server.local_addr(), ChaosConfig::percent(seed, 5)).unwrap();
        let client = HipacClient::connect_with(
            proxy.local_addr().to_string(),
            ClientConfig {
                max_retries: 8,
                backoff: Duration::from_millis(2),
                ..ClientConfig::default()
            },
        )
        .unwrap();

        let mut acked = Vec::new(); // commit returned Ok
        let mut indefinite = Vec::new(); // transport/timeout: at most once
        for i in 0..30i64 {
            let txn = match client.begin() {
                Ok(t) => t,
                Err(_) => continue, // no txn, nothing could commit
            };
            if client.insert(txn, "t", vec![Value::from(i)]).is_err() {
                let _ = client.abort(txn);
                continue;
            }
            match client.commit(txn) {
                Ok(()) => acked.push(i),
                Err(e) if e.is_indefinite() => indefinite.push(i),
                Err(_) => {} // definite rejection
            }
        }

        let counts = committed_counts(&server);
        for i in &acked {
            assert_eq!(
                counts.get(i),
                Some(&1),
                "seed {seed}: acked commit of {i} must be applied exactly once; counts: {counts:?}"
            );
        }
        for (n, c) in &counts {
            assert_eq!(*c, 1, "seed {seed}: value {n} applied {c} times");
            assert!(
                (0..30).contains(n),
                "seed {seed}: foreign value {n} appeared"
            );
        }
        for i in &indefinite {
            assert!(
                counts.get(i).copied().unwrap_or(0) <= 1,
                "seed {seed}: indefinite commit of {i} applied more than once"
            );
        }
        assert!(
            !acked.is_empty(),
            "seed {seed}: the client must make progress under 5% faults"
        );
        let chaos = proxy.stats();
        assert!(
            chaos.total() > 0,
            "seed {seed}: the proxy must actually have injected faults: {chaos:?}"
        );
    }
}

/// A forced partition mid-session must not poison the client: the next
/// request reconnects (with backoff) and succeeds on the same client
/// value.
#[test]
fn client_reusable_after_forced_partition() {
    let server = server();
    setup_int_class(&server);
    let proxy = ChaosProxy::spawn(server.local_addr(), ChaosConfig::clean()).unwrap();
    let client = HipacClient::connect_with(
        proxy.local_addr().to_string(),
        ClientConfig {
            max_retries: 5,
            backoff: Duration::from_millis(2),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let t = client.begin().unwrap();
    client.insert(t, "t", vec![Value::from(1)]).unwrap();
    client.commit(t).unwrap();

    proxy.break_connections();

    // Same client object, next transaction: transparently redials.
    let t = client.begin().unwrap();
    client.insert(t, "t", vec![Value::from(2)]).unwrap();
    client.commit(t).unwrap();

    let counts = committed_counts(&server);
    assert_eq!(counts.get(&1), Some(&1));
    assert_eq!(counts.get(&2), Some(&1));
}

/// Deterministic server-side idempotency: re-sending a committed
/// request's `(client_id, seq)` — even from a brand-new connection, as
/// a reconnecting client would — replays the cached reply instead of
/// re-executing.
#[test]
fn duplicate_request_id_replays_cached_reply() {
    let server = server();
    setup_int_class(&server);
    let addr = server.local_addr();

    let roundtrip = |stream: &mut TcpStream, id: u64, meta: RequestMeta, command: Command| {
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
    };
    let meta = |seq: u64| RequestMeta {
        client_id: 77,
        seq,
        deadline_ms: 0,
    };

    let mut conn1 = TcpStream::connect(addr).unwrap();
    let txn = match roundtrip(&mut conn1, 1, meta(1), Command::Begin) {
        Reply::Txn(t) => t,
        other => panic!("{other:?}"),
    };
    roundtrip(
        &mut conn1,
        2,
        meta(2),
        Command::Insert {
            txn,
            class: "t".into(),
            values: vec![Value::from(9)],
        },
    );
    assert_eq!(
        roundtrip(&mut conn1, 3, meta(3), Command::Commit { txn }),
        Reply::Ok
    );
    drop(conn1);

    // "Reconnect" and retry the commit with the same idempotency key:
    // the engine must not re-execute (the txn is long gone — a real
    // re-execution would error), and the row must exist exactly once.
    let mut conn2 = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut conn2, 50, meta(3), Command::Commit { txn }),
        Reply::Ok,
        "retried commit must replay the cached ack"
    );
    // An unkeyed duplicate (seq 0) is not deduplicated and surfaces
    // the real engine error, proving the replay above came from the
    // window.
    match roundtrip(&mut conn2, 51, RequestMeta::default(), Command::Commit { txn }) {
        Reply::Err { .. } => {}
        other => panic!("unkeyed duplicate commit produced {other:?}"),
    }
    assert_eq!(committed_counts(&server).get(&9), Some(&1));
    assert_eq!(server.dedup_hits(), 1);
}

/// Load shedding and deadline propagation, both typed: with an
/// admission budget of one, a second concurrent request is refused
/// with `Overloaded`; the request occupying the budget is cut short by
/// its own deadline inside the engine's lock wait, surfacing the
/// definite `DeadlineExceeded`.
#[test]
fn overload_sheds_and_deadlines_cut_lock_waits() {
    let server = server_with(ServerConfig {
        max_inflight: 1,
        ..ServerConfig::default()
    });
    setup_int_class(&server);
    let addr = server.local_addr().to_string();

    let a = HipacClient::connect(&*addr).unwrap();
    let ta = a.begin().unwrap();
    let oid = a.insert(ta, "t", vec![Value::from(1)]).unwrap();
    a.commit(ta).unwrap();

    // A holds the row's write lock in an open transaction.
    let ta = a.begin().unwrap();
    a.update(ta, oid, vec![("n".into(), Value::from(2))]).unwrap();

    // B and C connect while the admission budget is still free (the
    // connect handshake itself is a request and would be shed).
    let b = HipacClient::connect(&*addr).unwrap();
    let c = HipacClient::connect(&*addr).unwrap();
    let tb = b.begin().unwrap();
    let b_thread = std::thread::spawn(move || {
        let err = b
            .request_with_deadline(
                Command::Update {
                    txn: tb,
                    oid,
                    assignments: vec![("n".into(), Value::from(3))],
                },
                Some(Duration::from_millis(400)),
            )
            .unwrap_err();
        let _ = b.abort(tb);
        err
    });
    std::thread::sleep(Duration::from_millis(150));

    // C's request arrives while B occupies the whole admission budget.
    let c_err = c.begin().unwrap_err();
    match &c_err {
        WireError::Remote { kind, .. } => assert_eq!(kind, "Overloaded", "{c_err:?}"),
        other => panic!("expected typed Overloaded, got {other:?}"),
    }
    assert!(server.shed_requests() >= 1);

    let b_err = b_thread.join().unwrap();
    match &b_err {
        WireError::Remote { kind, .. } => {
            assert_eq!(kind, "DeadlineExceeded", "{b_err:?}");
            assert!(b_err.is_txn_fatal());
        }
        other => panic!("expected remote DeadlineExceeded, got {other:?}"),
    }
    a.abort(ta).unwrap();
}

/// Graceful drain under active traffic: every writer gets a definite
/// reply or a typed transport error, the server quiesces and joins,
/// and the store holds exactly the acked values — no duplicates, no
/// lost committed transactions.
#[test]
fn drain_keeps_store_consistent_under_traffic() {
    let mut server = server();
    setup_int_class(&server);
    let addr = server.local_addr().to_string();

    let acked = Arc::new(parking_lot::Mutex::new(Vec::<i64>::new()));
    let mut writers = Vec::new();
    for w in 0..3i64 {
        let addr = addr.clone();
        let acked = Arc::clone(&acked);
        writers.push(std::thread::spawn(move || {
            let client = match HipacClient::connect_with(
                &*addr,
                ClientConfig {
                    max_retries: 1,
                    backoff: Duration::from_millis(1),
                    ..ClientConfig::default()
                },
            ) {
                Ok(c) => c,
                Err(_) => return,
            };
            for i in 0..200i64 {
                let v = w * 1000 + i;
                let txn = match client.begin() {
                    Ok(t) => t,
                    Err(_) => return,
                };
                if client.insert(txn, "t", vec![Value::from(v)]).is_err() {
                    return;
                }
                match client.commit(txn) {
                    Ok(()) => acked.lock().push(v),
                    Err(_) => return,
                }
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(100));
    server.drain();
    for t in writers {
        t.join().unwrap();
    }

    let counts = committed_counts(&server);
    let acked = acked.lock();
    assert!(!acked.is_empty(), "writers made progress before the drain");
    for v in acked.iter() {
        assert_eq!(
            counts.get(v),
            Some(&1),
            "acked {v} must survive the drain exactly once"
        );
    }
    for (v, c) in &counts {
        assert_eq!(*c, 1, "value {v} committed {c} times");
    }
}

/// §4.1 push subscriptions must survive a reconnect: after a forced
/// partition, the next request re-subscribes every tracked handler and
/// later rule firings reach the same client again.
#[test]
fn push_subscription_survives_reconnect() {
    let server = server();
    let proxy = ChaosProxy::spawn(server.local_addr(), ChaosConfig::clean()).unwrap();

    let subscriber = HipacClient::connect_with(
        proxy.local_addr().to_string(),
        ClientConfig {
            max_retries: 5,
            backoff: Duration::from_millis(2),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let (tx, rx) = crossbeam::channel::unbounded();
    subscriber
        .subscribe("alert", move |push| {
            tx.send(push.request.clone()).unwrap();
        })
        .unwrap();

    // An ordinary client (direct, unaffected by the partition) sets up
    // schema + rule and triggers firings.
    let trigger = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let t = trigger.begin().unwrap();
    trigger
        .create_class(t, "item", None, vec![AttrDef::new("qty", ValueType::Int)])
        .unwrap();
    trigger
        .create_rule(
            t,
            &RuleDef::new("watch")
                .on(EventSpec::on_update("item"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "alert".into(),
                    request: "notify".into(),
                    args: vec![("sev".into(), Expr::lit(1))],
                })),
        )
        .unwrap();
    let oid = trigger.insert(t, "item", vec![Value::from(10)]).unwrap();
    trigger.commit(t).unwrap();

    let fire = |n: i64| {
        let t = trigger.begin().unwrap();
        trigger
            .update(t, oid, vec![("qty".into(), Value::from(n))])
            .unwrap();
        trigger.commit(t).unwrap();
    };
    fire(1);
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "notify");

    proxy.break_connections();
    // Any request forces the reconnect + re-subscription. The dead
    // session's teardown races this; poll until the new subscription
    // is live and receives a push.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        subscriber.stats().unwrap();
        fire(2);
        match rx.recv_timeout(Duration::from_millis(500)) {
            Ok(req) => {
                assert_eq!(req, "notify");
                break;
            }
            Err(_) if std::time::Instant::now() < deadline => continue,
            Err(e) => panic!("push never reached the resubscribed client: {e:?}"),
        }
    }
}

/// A rule action pushed to a handler nobody serves anymore must fail
/// the triggering request with the typed `NoApplicationHandler`
/// remote error (not hang, not silently drop).
#[test]
fn push_to_unsubscribed_handler_is_typed_remote_error() {
    let server = server();
    let client = HipacClient::connect(server.local_addr().to_string()).unwrap();

    let t = client.begin().unwrap();
    client
        .create_class(t, "item", None, vec![AttrDef::new("qty", ValueType::Int)])
        .unwrap();
    client
        .create_rule(
            t,
            &RuleDef::new("orphan")
                .on(EventSpec::on_update("item"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "nobody-home".into(),
                    request: "ping".into(),
                    args: vec![],
                })),
        )
        .unwrap();
    let oid = client.insert(t, "item", vec![Value::from(1)]).unwrap();
    client.commit(t).unwrap();

    // Subscribe then unsubscribe, so the server once knew the handler.
    client.subscribe("nobody-home", |_| {}).unwrap();
    client.unsubscribe("nobody-home").unwrap();

    let t = client.begin().unwrap();
    let err = client
        .update(t, oid, vec![("qty".into(), Value::from(2))])
        .unwrap_err();
    match &err {
        WireError::Remote { kind, .. } => {
            assert_eq!(kind, "NoApplicationHandler", "{err:?}")
        }
        other => panic!("expected typed remote error, got {other:?}"),
    }
    client.abort(t).ok();
}

/// An error response racing a push frame on the same connection: the
/// reader must route both — the push to its (slow) handler, the error
/// reply to its caller — without deadlock or cross-routing.
#[test]
fn error_reply_routes_while_push_handler_is_busy() {
    let server = server();
    let client = Arc::new(HipacClient::connect(server.local_addr().to_string()).unwrap());

    let t = client.begin().unwrap();
    client
        .create_class(t, "item", None, vec![AttrDef::new("qty", ValueType::Int)])
        .unwrap();
    client
        .create_rule(
            t,
            &RuleDef::new("slowpoke")
                .on(EventSpec::on_update("item"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "slow".into(),
                    request: "work".into(),
                    args: vec![],
                })),
        )
        .unwrap();
    let oid = client.insert(t, "item", vec![Value::from(1)]).unwrap();
    client.commit(t).unwrap();

    let (started_tx, started_rx) = crossbeam::channel::bounded::<()>(1);
    client
        .subscribe("slow", move |_| {
            let _ = started_tx.try_send(());
            std::thread::sleep(Duration::from_millis(300));
        })
        .unwrap();

    // Thread 1: triggers the rule; its dispatch blocks until the push
    // is delivered (immediate coupling writes the push synchronously).
    let c1 = Arc::clone(&client);
    let updater = std::thread::spawn(move || {
        let t = c1.begin().unwrap();
        c1.update(t, oid, vec![("qty".into(), Value::from(2))])
            .unwrap();
        c1.commit(t).unwrap();
    });

    // Thread 2: as soon as the slow handler is running on the reader
    // thread, issue a failing request. Its error frame queues behind
    // the handler but must still reach this caller.
    started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let err = client.commit(TxnId(999_999)).unwrap_err();
    assert!(
        matches!(err, WireError::Remote { .. }),
        "error reply must route through a busy reader: {err:?}"
    );
    updater.join().unwrap();
}

/// The reply journal keeps exactly-once across a full restart: a
/// committed keyed commit is re-sent — same `(client_id, seq)`, brand
/// new process, brand new connection — against a server rebooted on
/// the same data directory, and must come back `Ok` from the recovered
/// journal instead of re-executing (the transaction is long gone; a
/// real re-execution would be a definite error, as the unkeyed
/// duplicate proves).
#[test]
fn reply_journal_replays_across_restart() {
    let dir = std::env::temp_dir().join(format!(
        "hipac-net-journal-restart-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let durable_server = || {
        let db = Arc::new(
            ActiveDatabase::builder()
                .durable(&dir)
                .lock_timeout(Duration::from_secs(3))
                .build()
                .unwrap(),
        );
        HipacServer::bind(db, "127.0.0.1:0").unwrap()
    };
    let roundtrip = |stream: &mut TcpStream, id: u64, meta: RequestMeta, command: Command| {
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
    };
    let meta = |seq: u64| RequestMeta {
        client_id: 555,
        seq,
        deadline_ms: 0,
    };

    let mut server1 = durable_server();
    setup_int_class(&server1);
    let mut conn = TcpStream::connect(server1.local_addr()).unwrap();
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
            values: vec![Value::from(7)],
        },
    );
    assert_eq!(roundtrip(&mut conn, 3, meta(3), Command::Commit { txn }), Reply::Ok);
    drop(conn);
    server1.shutdown();
    drop(server1);

    let server2 = durable_server();
    assert_eq!(
        committed_counts(&server2).get(&7),
        Some(&1),
        "committed row recovered from the WAL"
    );
    let mut conn = TcpStream::connect(server2.local_addr()).unwrap();
    // Same idempotency key, dead session, long-gone transaction: only
    // the recovered journal can say Ok here.
    assert_eq!(
        roundtrip(&mut conn, 10, meta(3), Command::Commit { txn }),
        Reply::Ok,
        "pre-restart commit must replay from the durable journal"
    );
    assert_eq!(server2.journal_replays(), 1);
    // The unkeyed duplicate bypasses the journal and surfaces the
    // definite verdict: this session does not own that transaction.
    match roundtrip(&mut conn, 11, RequestMeta::default(), Command::Commit { txn }) {
        Reply::Err { kind, .. } => assert_eq!(kind, "UnknownTxn"),
        other => panic!("unkeyed duplicate produced {other:?}"),
    }
    assert_eq!(committed_counts(&server2).get(&7), Some(&1));
    drop(server2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client whose dedup entry aged out of the window must get the
/// typed `ReplyEvicted` refusal — outcome unknown, permanently — not a
/// silent re-execution and not a fake replay.
#[test]
fn evicted_dedup_entry_gets_typed_refusal() {
    let server = server_with(ServerConfig {
        dedup_window: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let roundtrip = |stream: &mut TcpStream, id: u64, meta: RequestMeta, command: Command| {
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
    };
    let meta = |seq: u64| RequestMeta {
        client_id: 88,
        seq,
        deadline_ms: 0,
    };
    let mut conn = TcpStream::connect(addr).unwrap();
    // Three keyed requests through a window of two: seq 1 ages out.
    for seq in 1..=3u64 {
        match roundtrip(&mut conn, seq, meta(seq), Command::Begin) {
            Reply::Txn(_) => {}
            other => panic!("begin produced {other:?}"),
        }
    }
    match roundtrip(&mut conn, 10, meta(1), Command::Begin) {
        Reply::Err { kind, message } => {
            assert_eq!(kind, "ReplyEvicted", "{message}");
        }
        other => panic!("evicted key must be refused, got {other:?}"),
    }
    // A still-windowed key replays instead.
    let replayed = roundtrip(&mut conn, 11, meta(3), Command::Begin);
    assert!(matches!(replayed, Reply::Txn(_)), "{replayed:?}");
    assert!(server.dedup_hits() >= 1);
}

/// Adaptive shedding, tenant-weighted: with a queueing-delay budget
/// configured, slow dispatches push the EWMA over it and a request
/// arriving while *its own tenant* already has one in flight is
/// refused `Overloaded` (counted separately in `shed_adaptive`) — but
/// a quiet tenant's lone request is still admitted through the same
/// overloaded window, so one noisy tenant cannot starve the rest. No
/// static `max_inflight` cap is set.
#[test]
fn adaptive_shed_refuses_when_queueing_delay_over_budget() {
    let server = server_with(ServerConfig {
        shed_queue_delay: Some(Duration::from_millis(40)),
        ..ServerConfig::default()
    });
    setup_int_class(&server);
    let addr = server.local_addr().to_string();

    let a = HipacClient::connect(&*addr).unwrap();
    let ta = a.begin().unwrap();
    let oid = a.insert(ta, "t", vec![Value::from(1)]).unwrap();
    a.commit(ta).unwrap();
    // A holds the row's write lock in an open transaction.
    let ta = a.begin().unwrap();
    a.update(ta, oid, vec![("n".into(), Value::from(2))]).unwrap();

    // B is the noisy tenant: a fixed client_id so a raw probe below
    // can arrive under the *same* tenant with a non-colliding seq.
    let b = HipacClient::connect_with(
        &*addr,
        ClientConfig {
            client_id: 0xB0B,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let c = HipacClient::connect(&*addr).unwrap();
    let tb = b.begin().unwrap();
    // B: two deadline-bound updates against the held lock. The first
    // (~400ms) drives the dispatch EWMA to ~50ms > 40ms; the second
    // keeps one of B's requests in flight while the probes arrive.
    let b_thread = std::thread::spawn(move || {
        for _ in 0..2 {
            let _ = b.request_with_deadline(
                Command::Update {
                    txn: tb,
                    oid,
                    assignments: vec![("n".into(), Value::from(3))],
                },
                Some(Duration::from_millis(400)),
            );
        }
        let _ = b.abort(tb);
    });
    std::thread::sleep(Duration::from_millis(550));

    // A second request from B's tenant (same client_id, fresh seq so
    // the dedup window stays out of the way) is shed.
    let probe = |stream: &mut TcpStream, id: u64, seq: u64| {
        let meta = RequestMeta {
            client_id: 0xB0B,
            seq,
            deadline_ms: 0,
        };
        stream
            .write_all(&Frame::Request { id, meta, command: Command::Begin }.encode())
            .unwrap();
        loop {
            match Frame::read_from(stream).unwrap().expect("reply") {
                Frame::Response { id: rid, reply } if rid == id => return reply,
                Frame::Response { .. } | Frame::Push(_) => continue,
                other => panic!("unexpected frame {other:?}"),
            }
        }
    };
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    match probe(&mut raw, 1, 5000) {
        Reply::Err { kind, message } => {
            assert_eq!(kind, "Overloaded", "{message}");
            assert!(message.contains("queueing delay"), "{message}");
        }
        other => panic!("expected adaptive Overloaded, got {other:?}"),
    }
    assert!(server.shed_adaptive() >= 1, "shed_adaptive gauge counted");

    // C is a different tenant with nothing in flight: admitted through
    // the very same overloaded window.
    let tc = c.begin().expect("quiet tenant starved by noisy tenant");
    c.abort(tc).unwrap();

    b_thread.join().unwrap();
    a.abort(ta).unwrap();
    // With the contention gone and traffic sparse, even the noisy
    // tenant's lone request is admitted again: the signal can decay
    // instead of latching shut.
    match probe(&mut raw, 2, 5001) {
        Reply::Txn(_) => {}
        other => panic!("lone request after drain produced {other:?}"),
    }
}

/// Raw request/response roundtrip helper for handshake tests: one
/// frame out, matching response back, pushes skipped.
fn raw_roundtrip(stream: &mut TcpStream, id: u64, meta: RequestMeta, command: Command) -> Reply {
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

/// The server speaks exactly one protocol version: any other offer is
/// refused with a typed `Unsupported` error, and the session stays
/// usable for a correct retry.
#[test]
fn ping_refuses_other_protocol_versions() {
    let server = server();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    for (id, offered) in [(1, 1u32), (2, 8), (3, 99)] {
        match raw_roundtrip(&mut conn, id, RequestMeta::default(), Command::Ping { version: offered }) {
            Reply::Err { kind, message } => assert_eq!(kind, "Unsupported", "{message}"),
            other => panic!("ping {offered} produced {other:?}"),
        }
    }
    let ping = Command::Ping {
        version: PROTOCOL_VERSION,
    };
    assert_eq!(
        raw_roundtrip(&mut conn, 4, RequestMeta::default(), ping),
        Reply::Pong {
            version: PROTOCOL_VERSION
        }
    );
}

/// A session that never sends `Ping` still gets the one Stats body,
/// every field present: here a failed `Auth` (also sent without a
/// `Ping`) and the reactor shard count both show up.
#[test]
fn stats_without_ping_carry_every_field() {
    let server = server_with(ServerConfig {
        auth_secret: Some(b"one-version-secret".to_vec()),
        ..ServerConfig::default()
    });
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    match raw_roundtrip(
        &mut conn,
        1,
        RequestMeta::default(),
        Command::Auth { client_id: 42, token: vec![0u8; 32] },
    ) {
        Reply::Err { kind, message } => assert_eq!(kind, "AuthFailed", "{message}"),
        other => panic!("bad token produced {other:?}"),
    }
    match raw_roundtrip(&mut conn, 2, RequestMeta::default(), Command::Stats) {
        Reply::Stats(s) => {
            assert!(s.auth_failures >= 1, "tenancy gauges present");
            assert!(s.reactor_shards >= 1, "hot-path gauges present");
        }
        other => panic!("stats produced {other:?}"),
    }
}

/// A session that skips `Auth` against an auth-enabled server: keyed
/// requests are refused `AuthFailed`, but unkeyed traffic still works —
/// the session is confined to the unauthenticated tenant class instead
/// of being cut off.
#[test]
fn unauthenticated_session_lands_in_unauthenticated_class() {
    let server = server_with(ServerConfig {
        auth_secret: Some(b"one-version-secret".to_vec()),
        ..ServerConfig::default()
    });
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    let ping = Command::Ping {
        version: PROTOCOL_VERSION,
    };
    match raw_roundtrip(&mut conn, 1, RequestMeta::default(), ping) {
        Reply::Pong { version } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("ping produced {other:?}"),
    }
    // No `Auth`: keyed requests are refused per the identity gate...
    let keyed = RequestMeta {
        client_id: 42,
        seq: 1,
        deadline_ms: 0,
    };
    match raw_roundtrip(&mut conn, 2, keyed, Command::Begin) {
        Reply::Err { kind, message } => assert_eq!(kind, "AuthFailed", "{message}"),
        other => panic!("keyed unauthenticated begin produced {other:?}"),
    }
    // ...but unkeyed traffic is served from the unauthenticated class.
    match raw_roundtrip(&mut conn, 3, RequestMeta::default(), Command::Begin) {
        Reply::Txn(t) => {
            assert_eq!(raw_roundtrip(&mut conn, 4, RequestMeta::default(), Command::Abort { txn: t }), Reply::Ok)
        }
        other => panic!("unkeyed unauthenticated begin produced {other:?}"),
    }
}

/// The shared per-address circuit breaker: repeated dial failures trip
/// it open (fast typed refusal instead of a connect timeout per call),
/// and after the cooldown a half-open probe against a revived server
/// closes it again, counting one trip and one reset.
#[test]
fn circuit_breaker_trips_and_recovers() {
    // Reserve a port that never accepted a connection, so it can be
    // rebound later without TIME_WAIT interference.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let config = ClientConfig {
        max_retries: 0,
        backoff: Duration::from_millis(1),
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_millis(100),
        ..ClientConfig::default()
    };

    // Nothing listens: the dial fails and trips the breaker...
    let e1 = match HipacClient::connect_with(&*addr, config.clone()) {
        Err(e) => e,
        Ok(_) => panic!("dial against an empty port succeeded"),
    };
    assert!(matches!(e1, WireError::Io(_) | WireError::Transport(_)), "{e1:?}");
    // ...so the next attempt inside the cooldown is refused fast.
    let e2 = match HipacClient::connect_with(&*addr, config.clone()) {
        Err(e) => e,
        Ok(_) => panic!("open breaker admitted a dial"),
    };
    match &e2 {
        WireError::Transport(msg) => assert!(msg.contains("circuit open"), "{msg}"),
        other => panic!("expected fast circuit-open refusal, got {other:?}"),
    }

    // Revive the address and let the cooldown lapse: the half-open
    // probe succeeds and the breaker closes.
    let db = Arc::new(ActiveDatabase::open_in_memory().unwrap());
    let _server = HipacServer::bind(db, &*addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let client = HipacClient::connect_with(&*addr, config).unwrap();
    client.stats().unwrap();
    assert!(client.breaker_trips() >= 1, "breaker tripped at least once");
    assert!(client.breaker_resets() >= 1, "breaker reset after the probe");
}

/// A durable server on `dir`, bound to `addr`, whose store runs under
/// `faults` when given.
fn durable_server_at(
    dir: &std::path::Path,
    addr: &str,
    faults: Option<Arc<FaultPolicy>>,
) -> HipacServer {
    let mut builder = ActiveDatabase::builder()
        .durable(dir)
        .lock_timeout(Duration::from_secs(3));
    if let Some(faults) = faults {
        builder = builder.storage_faults(faults);
    }
    HipacServer::bind(Arc::new(builder.build().unwrap()), addr).unwrap()
}

/// Class `item` plus a rule pushing `notify` to handler `alert` on
/// every update; returns the item to update.
fn install_alert_rule(client: &HipacClient) -> u64 {
    let t = client.begin().unwrap();
    client
        .create_class(t, "item", None, vec![AttrDef::new("qty", ValueType::Int)])
        .unwrap();
    client
        .create_rule(
            t,
            &RuleDef::new("watch")
                .on(EventSpec::on_update("item"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "alert".into(),
                    request: "notify".into(),
                    args: vec![],
                })),
        )
        .unwrap();
    let oid = client.insert(t, "item", vec![Value::from(0)]).unwrap();
    client.commit(t).unwrap();
    oid
}

/// One committed update of `oid`: one push to `alert`.
fn fire_alert(client: &HipacClient, oid: u64, n: i64) {
    let t = client.begin().unwrap();
    client
        .update(t, oid, vec![("qty".into(), Value::from(n))])
        .unwrap();
    client.commit(t).unwrap();
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting: {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn durable_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hipac-net-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `AckPush` does not commit on its own: a burst of acks leaves memory
/// at once and its outbox deletes land in a few shared WAL batches —
/// the housekeeper's flushes, with no push to carry them — rather than
/// one batch per ack.
#[test]
fn acks_commit_together_not_one_batch_each() {
    const N: u64 = 64;
    let dir = durable_dir("ack-burst");
    let server = durable_server_at(&dir, "127.0.0.1:0", None);
    let trigger = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let oid = install_alert_rule(&trigger);

    // A raw subscriber: it receives pushes but acks only when told to.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let subscribe = Command::Subscribe {
        handler: "alert".into(),
    };
    assert_eq!(
        raw_roundtrip(&mut raw, 1, RequestMeta::default(), subscribe),
        Reply::Ok
    );
    for n in 0..N {
        fire_alert(&trigger, oid, n as i64);
    }
    let mut seqs = Vec::new();
    while seqs.len() < N as usize {
        if let Some(Frame::Push(push)) = Frame::read_from(&mut raw).unwrap() {
            seqs.push(push.seq);
        }
    }
    assert_eq!(server.unacked_pushes(), N);

    let store = Arc::clone(server.db().durable_store().unwrap());
    let lsn = store.durable_lsn();
    let mut acks = Vec::new();
    for (id, seq) in (10..).zip(&seqs) {
        let command = Command::AckPush {
            handler: "alert".into(),
            seq: *seq,
        };
        acks.extend(
            Frame::Request {
                id,
                meta: RequestMeta::default(),
                command,
            }
            .encode(),
        );
    }
    raw.write_all(&acks).unwrap();
    for _ in 0..N {
        assert!(matches!(
            Frame::read_from(&mut raw).unwrap(),
            Some(Frame::Response {
                reply: Reply::Ok,
                ..
            })
        ));
    }
    assert_eq!(
        server.unacked_pushes(),
        0,
        "acked frames leave memory at once"
    );

    let acked_batches = || match store.read_batches_from(lsn, 1 << 24).unwrap() {
        TailRead::Batches { batches, .. } => batches,
        other => panic!("{other:?}"),
    };
    wait_until("every ack delete committed", || {
        acked_batches().iter().map(|b| b.ops.len()).sum::<usize>() == N as usize
    });
    let batches = acked_batches();
    assert!(batches
        .iter()
        .flat_map(|b| &b.ops)
        .all(|op| matches!(op, StoreOp::Delete { .. })));
    assert!(
        batches.len() < N as usize / 4,
        "{N} acks took {} WAL batches",
        batches.len()
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean shutdown commits the ack deletes still queued: reopened,
/// the outbox is empty and a fresh subscriber gets no redelivery.
#[test]
fn clean_shutdown_leaves_no_acked_push_on_disk() {
    const N: usize = 8;
    let dir = durable_dir("ack-shutdown");
    let mut server = durable_server_at(&dir, "127.0.0.1:0", None);
    let addr = server.local_addr().to_string();
    let trigger = HipacClient::connect(&*addr).unwrap();
    let oid = install_alert_rule(&trigger);
    let subscriber = HipacClient::connect(&*addr).unwrap();
    let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let count = Arc::clone(&seen);
    subscriber
        .subscribe("alert", move |_| {
            count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        })
        .unwrap();
    for n in 0..N {
        fire_alert(&trigger, oid, n as i64);
    }
    wait_until("every push handled and acked", || {
        seen.load(std::sync::atomic::Ordering::SeqCst) == N && server.unacked_pushes() == 0
    });
    drop((trigger, subscriber));
    server.shutdown();
    drop(server);

    let server = durable_server_at(&dir, "127.0.0.1:0", None);
    assert_eq!(server.unacked_pushes(), 0, "no acked row survived on disk");
    let late = HipacClient::connect(server.local_addr().to_string()).unwrap();
    late.subscribe("alert", |push| panic!("redelivered seq {}", push.seq))
        .unwrap();
    assert_eq!(server.pushes_redelivered(), 0);
    drop((late, server));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash after the acks but before their deletes commit: the restarted
/// server redelivers every acked frame, and `HipacClient` drops them by
/// sequence — the handler sees each push exactly once.
#[test]
fn acked_frames_lost_in_a_crash_are_redelivered_and_dropped() {
    const N: u64 = 6;
    let dir = durable_dir("ack-crash");
    // A port no connection has used, so the restart can rebind it.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let faults = FaultPolicy::count_only();
    let mut server = durable_server_at(&dir, &addr, Some(Arc::clone(&faults)));
    let trigger = HipacClient::connect(&*addr).unwrap();
    let oid = install_alert_rule(&trigger);

    // The handler records each push, then holds the client's reader
    // (and with it every ack) until the gate opens.
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let subscriber = HipacClient::connect_with(
        &*addr,
        ClientConfig {
            max_retries: 20,
            backoff: Duration::from_millis(5),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    {
        let (seen, gate) = (Arc::clone(&seen), Arc::clone(&gate));
        subscriber
            .subscribe("alert", move |push| {
                seen.lock().push(push.seq);
                while !gate.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .unwrap();
    }
    for n in 0..N {
        fire_alert(&trigger, oid, n as i64);
    }
    wait_until("every push persisted", || server.unacked_pushes() == N);

    // The disk dies here; the process keeps running, and the client
    // now handles and acks every push.
    faults.crash_now();
    gate.store(true, std::sync::atomic::Ordering::SeqCst);
    wait_until("every push handled and acked in memory", || {
        seen.lock().len() == N as usize && server.unacked_pushes() == 0
    });
    drop(trigger);
    server.shutdown();
    drop(server);

    let server = durable_server_at(&dir, &addr, None);
    assert_eq!(
        server.unacked_pushes(),
        N,
        "the deletes never reached the disk"
    );
    // Any request reconnects the subscriber, which re-subscribes and is
    // caught up from the recovered outbox.
    subscriber.stats().unwrap();
    wait_until("duplicates redelivered and acked", || {
        server.pushes_redelivered() == N && server.unacked_pushes() == 0
    });
    assert_eq!(
        *seen.lock(),
        (1..=N).collect::<Vec<_>>(),
        "each seq handled once"
    );
    drop((subscriber, server));
    let _ = std::fs::remove_dir_all(&dir);
}
