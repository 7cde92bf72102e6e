//! End-to-end tests for the network layer: concurrent sessions, the
//! §4.1 role reversal over the wire (rule-action application requests
//! pushed to a *different* subscribed client), disconnect semantics,
//! and the connection-limit/robustness knobs.

use hipac::{ActiveDatabase, EngineStats};
use hipac_common::{Value, ValueType};
use hipac_event::EventSpec;
use hipac_net::proto::{Command, Frame, Reply, RequestMeta, PROTOCOL_VERSION};
use hipac_net::{HipacClient, HipacServer, ServerConfig};
use hipac_object::{AttrDef, Expr};
use hipac_rules::{Action, ActionOp, RuleDef};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn server() -> HipacServer {
    let db = Arc::new(ActiveDatabase::open_in_memory().unwrap());
    HipacServer::bind(db, "127.0.0.1:0").unwrap()
}

fn addr(server: &HipacServer) -> String {
    server.local_addr().to_string()
}

#[test]
fn remote_dml_triggers_rule_pushed_to_other_client() {
    let server = server();

    // Client A is the application endpoint: it subscribes to the
    // "restocker" handler and forwards pushes into a channel.
    let a = HipacClient::connect(addr(&server)).unwrap();
    let (tx, rx) = crossbeam::channel::unbounded();
    a.subscribe("restocker", move |push| {
        tx.send((push.request.clone(), push.args.clone())).unwrap();
    })
    .unwrap();

    // Client B is an ordinary database client: schema, rule, data.
    let b = HipacClient::connect(addr(&server)).unwrap();
    let t = b.begin().unwrap();
    b.create_class(
        t,
        "item",
        None,
        vec![
            AttrDef::new("name", ValueType::Str),
            AttrDef::new("qty", ValueType::Int),
        ],
    )
    .unwrap();
    b.create_rule(
        t,
        &RuleDef::new("low_stock")
            .on(EventSpec::on_update("item"))
            .then(Action::single(ActionOp::AppRequest {
                handler: "restocker".into(),
                request: "reorder".into(),
                args: vec![("urgency".into(), Expr::lit("high"))],
            })),
    )
    .unwrap();
    let oid = b
        .insert(t, "item", vec![Value::from("bolt"), Value::from(40)])
        .unwrap();
    b.commit(t).unwrap();

    // B's update fires the rule; the action's application request must
    // arrive at A, the subscribed client.
    let t = b.begin().unwrap();
    b.update(t, oid, vec![("qty".into(), Value::from(2))]).unwrap();
    b.commit(t).unwrap();

    let (request, args) = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("push frame reached the other client");
    assert_eq!(request, "reorder");
    assert_eq!(args.get("urgency"), Some(&Value::Str("high".into())));

    // STATS over the wire reflects the firing.
    let stats = b.stats().unwrap();
    assert!(stats.rules_triggered >= 1, "stats: {stats:?}");
    assert!(stats.actions_executed >= 1, "stats: {stats:?}");

    // The facade snapshot agrees with the wire snapshot.
    let local: EngineStats = server.db().stats();
    assert_eq!(local.rules_triggered, stats.rules_triggered);
}

#[test]
fn disconnect_mid_transaction_aborts_open_transactions() {
    let server = server();

    // Set up schema first so the doomed writes have something to lock.
    let setup = HipacClient::connect(addr(&server)).unwrap();
    let t = setup.begin().unwrap();
    setup
        .create_class(t, "acct", None, vec![AttrDef::new("bal", ValueType::Int)])
        .unwrap();
    setup.commit(t).unwrap();

    // A client begins a transaction, writes, and vanishes without
    // committing.
    let doomed = HipacClient::connect(addr(&server)).unwrap();
    let t = doomed.begin().unwrap();
    doomed.insert(t, "acct", vec![Value::from(100)]).unwrap();
    drop(doomed); // connection drops with the transaction open

    // The server must abort the orphaned transaction, releasing its
    // locks and discarding the insert. Poll: teardown is asynchronous.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let t = setup.begin().unwrap();
        let rows = setup.query(t, "from acct", HashMap::new());
        setup.abort(t).ok();
        match rows {
            Ok(rows) if rows.is_empty() => break, // insert rolled back
            _ if std::time::Instant::now() > deadline => {
                panic!("orphaned transaction still holds its effects: {rows:?}")
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    // And the class is writable again (no stranded locks).
    let t = setup.begin().unwrap();
    setup.insert(t, "acct", vec![Value::from(1)]).unwrap();
    setup.commit(t).unwrap();
}

#[test]
fn many_concurrent_clients_serialize_correctly() {
    let server = server();
    let setup = HipacClient::connect(addr(&server)).unwrap();
    let t = setup.begin().unwrap();
    setup
        .create_class(t, "evt", None, vec![AttrDef::new("src", ValueType::Int)])
        .unwrap();
    setup.commit(t).unwrap();

    let address = addr(&server);
    let threads: Vec<_> = (0..6)
        .map(|n| {
            let address = address.clone();
            std::thread::spawn(move || {
                let c = HipacClient::connect(&address).unwrap();
                for _ in 0..5 {
                    let t = c.begin().unwrap();
                    c.insert(t, "evt", vec![Value::from(n as i64)]).unwrap();
                    c.commit(t).unwrap();
                }
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }

    let t = setup.begin().unwrap();
    let rows = setup.query(t, "from evt", HashMap::new()).unwrap();
    setup.commit(t).unwrap();
    assert_eq!(rows.len(), 30, "every committed insert visible");
}

#[test]
fn connection_limit_refuses_with_error_frame() {
    let db = Arc::new(ActiveDatabase::open_in_memory().unwrap());
    let server = HipacServer::bind_with(
        db,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            max_pending: 1,
            idle_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // First client occupies the single session worker (connect() pings,
    // so the session is live once it returns).
    let held = HipacClient::connect(addr(&server)).unwrap();
    // Second connection parks in the pending queue.
    let _queued = TcpStream::connect(addr(&server)).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let it enqueue
    // Third must be refused with a ServerBusy frame.
    let mut refused = TcpStream::connect(addr(&server)).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match Frame::read_from(&mut refused).unwrap() {
        Some(Frame::Response {
            reply: Reply::Err { kind, .. },
            ..
        }) => assert_eq!(kind, "ServerBusy"),
        other => panic!("expected refusal, got {other:?}"),
    }
    assert_eq!(server.refused_connections(), 1);
    drop(held);
}

#[test]
fn garbage_and_oversized_frames_drop_session_not_server() {
    let server = server();

    // Send a hostile length prefix: the session must close without
    // taking the server down.
    let mut evil = TcpStream::connect(addr(&server)).unwrap();
    evil.write_all(&u32::MAX.to_be_bytes()).unwrap();
    evil.write_all(&[0u8; 16]).unwrap();

    // And garbage that parses as a small frame with a bad opcode.
    let mut junk = TcpStream::connect(addr(&server)).unwrap();
    junk.write_all(&3u32.to_be_bytes()).unwrap();
    junk.write_all(&[0xff, 0xff, 0xff]).unwrap();

    // A well-behaved client still gets service.
    let c = HipacClient::connect(addr(&server)).unwrap();
    let t = c.begin().unwrap();
    c.create_class(t, "ok", None, vec![AttrDef::new("x", ValueType::Int)])
        .unwrap();
    c.commit(t).unwrap();

    // The hostile sessions were closed by the server (clean FIN, or
    // RST when the kernel still held unread bytes — both mean closed).
    for mut s in [evil, junk] {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        use std::io::Read;
        loop {
            match s.read(&mut buf) {
                Ok(0) => break, // EOF: session dropped
                Ok(_) => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::BrokenPipe
                    ) =>
                {
                    break
                }
                Err(e) => panic!("expected closed connection, got {e}"),
            }
        }
    }
}

#[test]
fn idle_sessions_are_reaped() {
    let db = Arc::new(ActiveDatabase::open_in_memory().unwrap());
    let server = HipacServer::bind_with(
        db,
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut idle = TcpStream::connect(addr(&server)).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1];
    use std::io::Read;
    match idle.read(&mut buf) {
        Ok(0) => {} // server closed the idle session
        other => panic!("expected idle reap (EOF), got {other:?}"),
    }
}

#[test]
fn remote_errors_carry_kind_and_message() {
    let server = server();
    let c = HipacClient::connect(addr(&server)).unwrap();
    let t = c.begin().unwrap();
    let err = c
        .insert(t, "no_such_class", vec![Value::from(1)])
        .unwrap_err();
    match err {
        hipac_net::WireError::Remote { ref kind, ref message } => {
            assert_eq!(kind, "UnknownClass");
            assert!(message.contains("no_such_class"), "{message}");
        }
        other => panic!("expected remote error, got {other:?}"),
    }
    assert!(!err.is_txn_fatal());
    c.abort(t).unwrap();
}

#[test]
fn graceful_shutdown_joins_and_closes_clients() {
    let mut server = server();
    let c = HipacClient::connect(addr(&server)).unwrap();
    let t = c.begin().unwrap();
    server.shutdown();
    // After shutdown the connection is gone; requests fail rather than
    // hang.
    let result = c.commit(t);
    assert!(result.is_err(), "request after shutdown: {result:?}");
}

/// `AckPush` and `ReplProgress` sent with frame id 0 are
/// fire-and-forget: the server runs them and sends no response, so the
/// next frame on the socket answers the request after them.
#[test]
fn fire_and_forget_requests_get_no_response() {
    let server = server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let request = |id, command| Frame::Request {
        id,
        meta: RequestMeta::default(),
        command,
    };
    let ack = Command::AckPush {
        handler: "nobody".into(),
        seq: 1,
    };
    let progress = Command::ReplProgress {
        applied_lsn: 0,
        epoch: 0,
        digest: 0,
    };
    let ping = Command::Ping {
        version: PROTOCOL_VERSION,
    };
    let frames = [
        request(0, ack).encode(),
        request(0, progress).encode(),
        request(1, ping).encode(),
    ];
    raw.write_all(&frames.concat()).unwrap();
    match Frame::read_from(&mut raw).unwrap() {
        Some(Frame::Response {
            id: 1,
            reply: Reply::Pong { .. },
        }) => {}
        other => panic!("expected the ping's Pong first, got {other:?}"),
    }
}
