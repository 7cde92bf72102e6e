//! Multi-tenant hardening (protocol v8): authenticated sessions,
//! per-tenant admission control, and the slow-subscriber eviction
//! policy — including the durable garbage collection of a
//! dead-lettered subscription's outbox state and its resurrection on
//! an authorized re-subscribe.

use hipac::ActiveDatabase;
use hipac_common::{Value, ValueType};
use hipac_event::EventSpec;
use hipac_net::proto::{Command, Frame, Reply, RequestMeta, PROTOCOL_VERSION};
use hipac_net::{ClientConfig, HipacClient, HipacServer, ServerConfig, WireError};
use hipac_object::{AttrDef, Expr, Query};
use hipac_rules::{Action, ActionOp, DbAction, RuleDef};
use hipac_storage::journal;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SECRET: &[u8] = b"tenant-test-secret";

fn fresh_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hipac-tenants-{tag}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn auth_server() -> HipacServer {
    let db = Arc::new(
        ActiveDatabase::builder()
            .lock_timeout(Duration::from_secs(3))
            .build()
            .unwrap(),
    );
    HipacServer::bind_with(
        db,
        "127.0.0.1:0",
        ServerConfig {
            auth_secret: Some(SECRET.to_vec()),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn setup_int_class(db: &Arc<ActiveDatabase>) {
    db.run_top(|t| {
        db.store()
            .create_class(t, "t", None, vec![AttrDef::new("n", ValueType::Int)])?;
        Ok(())
    })
    .unwrap();
}

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

/// The happy path: a client configured with the shared secret proves
/// its identity during the handshake and its keyed traffic round-trips
/// exactly as before — auth is additive for well-behaved tenants.
#[test]
fn authenticated_client_round_trips() {
    let server = auth_server();
    setup_int_class(server.db());
    let client = HipacClient::connect_with(
        server.local_addr().to_string(),
        ClientConfig {
            client_id: 7001,
            auth_secret: Some(SECRET.to_vec()),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let txn = client.begin().unwrap();
    client.insert(txn, "t", vec![Value::from(1)]).unwrap();
    client.commit(txn).unwrap();
    assert_eq!(server.auth_failures(), 0);
}

/// A wrong secret fails the handshake outright; a client with no
/// secret connects (the `Auth` step is skipped) but its keyed requests
/// are refused `AuthFailed` by the identity gate.
#[test]
fn wrong_or_missing_secret_is_refused() {
    let server = auth_server();
    setup_int_class(server.db());

    let wrong = HipacClient::connect_with(
        server.local_addr().to_string(),
        ClientConfig {
            client_id: 7002,
            auth_secret: Some(b"not-the-secret".to_vec()),
            max_retries: 1,
            backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        },
    );
    assert!(wrong.is_err(), "handshake with a bad token must fail");
    assert!(server.auth_failures() >= 1);

    let unauthed = HipacClient::connect_with(
        server.local_addr().to_string(),
        ClientConfig {
            client_id: 7003,
            max_retries: 1,
            backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    match unauthed.begin() {
        Err(WireError::Remote { kind, message }) => {
            assert_eq!(kind, "AuthFailed", "{message}")
        }
        other => panic!("unauthenticated keyed begin produced {other:?}"),
    }
}

/// The satellite-6 regression: a hostile session asserting a victim's
/// `client_id` must not poison the victim's dedup window. The hostile
/// keyed request is refused *before* the dedup probe or any window
/// insert, so when the victim later uses the same `(client_id, seq)`
/// the request actually executes instead of replaying the refusal.
#[test]
fn hostile_peer_cannot_poison_foreign_dedup_state() {
    let server = auth_server();
    setup_int_class(server.db());
    let victim_id = 7100u64;

    // Hostile: authenticates as itself, then asserts the victim's
    // client_id on a keyed request with a sequence the victim has not
    // used yet.
    let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
    let ping = Command::Ping {
        version: PROTOCOL_VERSION,
    };
    match raw_roundtrip(&mut hostile, 1, RequestMeta::default(), ping) {
        Reply::Pong { version } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("ping produced {other:?}"),
    }
    let token = hipac_net::auth::session_token(SECRET, 6666).to_vec();
    assert_eq!(
        raw_roundtrip(
            &mut hostile,
            2,
            RequestMeta::default(),
            Command::Auth { client_id: 6666, token }
        ),
        Reply::Ok
    );
    let spoofed = RequestMeta {
        client_id: victim_id,
        seq: 1,
        deadline_ms: 0,
    };
    match raw_roundtrip(&mut hostile, 3, spoofed, Command::Begin) {
        Reply::Err { kind, message } => assert_eq!(kind, "AuthFailed", "{message}"),
        other => panic!("spoofed keyed begin produced {other:?}"),
    }

    // Victim: the same (client_id, seq) now executes for real — a Txn
    // reply, not a cached AuthFailed refusal.
    let mut victim = TcpStream::connect(server.local_addr()).unwrap();
    let ping = Command::Ping {
        version: PROTOCOL_VERSION,
    };
    match raw_roundtrip(&mut victim, 1, RequestMeta::default(), ping) {
        Reply::Pong { version } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("ping produced {other:?}"),
    }
    let token = hipac_net::auth::session_token(SECRET, victim_id).to_vec();
    assert_eq!(
        raw_roundtrip(
            &mut victim,
            2,
            RequestMeta::default(),
            Command::Auth { client_id: victim_id, token }
        ),
        Reply::Ok
    );
    let meta = RequestMeta {
        client_id: victim_id,
        seq: 1,
        deadline_ms: 0,
    };
    match raw_roundtrip(&mut victim, 3, meta, Command::Begin) {
        Reply::Txn(_) => {}
        other => panic!("victim's first keyed request produced {other:?}"),
    }
}

/// Per-tenant inflight cap: with `tenant_max_inflight = 1`, a tenant
/// with one request stuck in dispatch has its next request shed — but
/// a different tenant's request is admitted through the same window.
#[test]
fn tenant_inflight_cap_sheds_only_the_noisy_tenant() {
    let db = Arc::new(
        ActiveDatabase::builder()
            .lock_timeout(Duration::from_secs(3))
            .build()
            .unwrap(),
    );
    let server = HipacServer::bind_with(
        db,
        "127.0.0.1:0",
        ServerConfig {
            tenant_max_inflight: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    setup_int_class(server.db());
    let addr = server.local_addr().to_string();

    // A holds a row lock; B's update blocks in dispatch.
    let a = HipacClient::connect(&*addr).unwrap();
    let ta = a.begin().unwrap();
    let oid = a.insert(ta, "t", vec![Value::from(1)]).unwrap();
    a.commit(ta).unwrap();
    let ta = a.begin().unwrap();
    a.update(ta, oid, vec![("n".into(), Value::from(2))]).unwrap();

    let b = HipacClient::connect_with(
        &*addr,
        ClientConfig {
            client_id: 0xB0B,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let tb = b.begin().unwrap();
    let b_thread = std::thread::spawn(move || {
        let _ = b.request_with_deadline(
            Command::Update {
                txn: tb,
                oid,
                assignments: vec![("n".into(), Value::from(3))],
            },
            Some(Duration::from_millis(600)),
        );
        let _ = b.abort(tb);
    });
    std::thread::sleep(Duration::from_millis(150));

    // Same tenant, second request: over the per-tenant cap.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let meta = RequestMeta {
        client_id: 0xB0B,
        seq: 5000,
        deadline_ms: 0,
    };
    match raw_roundtrip(&mut raw, 1, meta, Command::Begin) {
        Reply::Err { kind, message } => {
            assert_eq!(kind, "Overloaded", "{message}");
            assert!(message.contains("tenant admission"), "{message}");
        }
        other => panic!("expected tenant-cap Overloaded, got {other:?}"),
    }
    assert!(server.tenant_shed_requests() >= 1);

    // A different tenant is admitted while B is still stuck.
    let c = HipacClient::connect(&*addr).unwrap();
    let tc = c.begin().expect("quiet tenant starved by noisy tenant");
    c.abort(tc).unwrap();

    b_thread.join().unwrap();
    a.abort(ta).unwrap();
}

/// Count keys under a reserved journal prefix on the durable store.
fn prefix_count(db: &Arc<ActiveDatabase>, prefix: u8) -> usize {
    db.durable_store()
        .expect("durable store")
        .scan_prefix(&[prefix])
        .expect("scan")
        .len()
}

/// Schema + rules for the eviction tests: inserts into `p` push to
/// handler `slow`; the `SubscriberEvicted` engine event (defined by
/// the server at bind) fires a user rule inserting the evicted
/// handler's name into `evlog`.
fn setup_evict_schema(db: &Arc<ActiveDatabase>) {
    db.run_top(|t| {
        db.store()
            .create_class(t, "p", None, vec![AttrDef::new("n", ValueType::Int)])?;
        db.store()
            .create_class(t, "evlog", None, vec![AttrDef::new("h", ValueType::Str)])?;
        db.rules().create_rule(
            t,
            RuleDef::new("push-p")
                .on(EventSpec::db(hipac_event::spec::DbEventKind::Insert, Some("p")))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "slow".into(),
                    request: "audit".into(),
                    args: vec![("sev".into(), Expr::lit(1))],
                })),
        )?;
        db.rules().create_rule(
            t,
            RuleDef::new("log-eviction")
                .on(EventSpec::external("SubscriberEvicted"))
                .then(Action::single(ActionOp::Db(DbAction::Insert {
                    class: "evlog".into(),
                    values: vec![Expr::param("handler")],
                }))),
        )?;
        Ok(())
    })
    .expect("setup evict schema");
}

fn evlog_rows(db: &Arc<ActiveDatabase>) -> Vec<String> {
    db.run_top(|t| {
        let rows = db.store().query(t, &Query::all("evlog"), None)?;
        Ok(rows
            .iter()
            .filter_map(|r| match &r.values[0] {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect())
    })
    .expect("read evlog")
}

fn open_durable(dir: &PathBuf) -> Arc<ActiveDatabase> {
    Arc::new(
        ActiveDatabase::builder()
            .durable(dir)
            .lock_timeout(Duration::from_secs(3))
            .build()
            .unwrap(),
    )
}

fn evict_config() -> ServerConfig {
    ServerConfig {
        // A couple of push frames blow the budget.
        outbox_evict_bytes: 200,
        ..ServerConfig::default()
    }
}

/// Tolerant insert into `p`: the push rule makes inserts fail typed
/// errors once the handler is dead-lettered; callers count successes.
fn try_insert_p(client: &HipacClient, v: i64) -> bool {
    let Ok(txn) = client.begin() else {
        return false;
    };
    if client.insert(txn, "p", vec![Value::from(v)]).is_err() {
        let _ = client.abort(txn);
        return false;
    }
    client.commit(txn).is_ok()
}

/// The slow-subscriber policy end to end, with durable garbage
/// collection proven across a reopen:
///
/// 1. a subscriber that never acks blows the outbox byte budget —
///    the subscription is dead-lettered, its `'q'`/`'k'` state is
///    garbage-collected, a `'v'` tombstone appears, and the
///    `SubscriberEvicted` rule logs exactly one row;
/// 2. a reopen of the same directory keeps the space reclaimed and
///    does *not* re-fire the signal (the done-marker is durable);
/// 3. a fresh subscribe resurrects the handler: tombstone gone,
///    counter restored, pushes flow again without reusing sequences.
#[test]
fn eviction_garbage_collects_outbox_and_survives_reopen() {
    let dir = fresh_dir("evict");
    let db1 = open_durable(&dir);
    // Bind first: the server defines the `SubscriberEvicted` event the
    // user rule below fires on.
    let server1 =
        HipacServer::bind_with(Arc::clone(&db1), "127.0.0.1:0", evict_config()).unwrap();
    setup_evict_schema(&db1);

    // A subscriber that subscribes and then never acks anything.
    let mut lazy = TcpStream::connect(server1.local_addr()).unwrap();
    assert_eq!(
        raw_roundtrip(
            &mut lazy,
            1,
            RequestMeta::default(),
            Command::Subscribe { handler: "slow".into() }
        ),
        Reply::Ok
    );

    let writer = HipacClient::connect(server1.local_addr().to_string()).unwrap();
    let mut landed = 0u64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while server1.subscribers_evicted() == 0 && Instant::now() < deadline {
        if try_insert_p(&writer, landed as i64) {
            landed += 1;
        }
    }
    assert_eq!(server1.subscribers_evicted(), 1, "eviction never fired");
    assert!(landed >= 1, "no push ever enqueued");
    db1.quiesce();

    // Satellite 1: the dead-lettered subscription's durable state is
    // garbage-collected — outbox frames and counter gone, tombstone
    // present — and the rule saw the event exactly once.
    assert_eq!(prefix_count(&db1, journal::OUTBOX_PREFIX), 0, "'q' reclaimed");
    assert_eq!(prefix_count(&db1, journal::PUSH_SEQ_PREFIX), 0, "'k' reclaimed");
    assert_eq!(prefix_count(&db1, journal::EVICT_PREFIX), 1, "'v' tombstone");
    assert_eq!(evlog_rows(&db1), vec!["slow".to_string()]);

    // The detecting delivery itself was shed, and once the handler is
    // torn down further push-firing inserts fail typed errors.
    assert!(server1.pushes_shed() >= 1);
    assert!(!try_insert_p(&writer, 10_000), "push to a dead-lettered handler must fail");

    let mut server1 = server1;
    server1.shutdown();
    drop(server1);
    drop(writer);
    drop(lazy);
    drop(db1);

    // Reopen: space stays reclaimed, the signal does not re-fire.
    let db2 = open_durable(&dir);
    let server2 =
        HipacServer::bind_with(Arc::clone(&db2), "127.0.0.1:0", evict_config()).unwrap();
    db2.quiesce();
    assert_eq!(prefix_count(&db2, journal::OUTBOX_PREFIX), 0);
    assert_eq!(prefix_count(&db2, journal::PUSH_SEQ_PREFIX), 0);
    assert_eq!(prefix_count(&db2, journal::EVICT_PREFIX), 1);
    assert_eq!(evlog_rows(&db2), vec!["slow".to_string()], "eviction signal re-fired");

    // The eviction outlives the restart: pushes are still shed...
    let writer2 = HipacClient::connect(server2.local_addr().to_string()).unwrap();
    let mut lazy2 = TcpStream::connect(server2.local_addr()).unwrap();
    // (a live subscriber, so delivery reaches the outbox check at all)
    assert_eq!(
        raw_roundtrip(
            &mut lazy2,
            1,
            RequestMeta::default(),
            Command::Subscribe { handler: "slow".into() }
        ),
        Reply::Ok
    );
    // ...until the subscribe above resurrected it: tombstone cleared,
    // counter restored with the preserved next sequence.
    assert_eq!(prefix_count(&db2, journal::EVICT_PREFIX), 0, "tombstone cleared");
    assert_eq!(prefix_count(&db2, journal::PUSH_SEQ_PREFIX), 1, "'k' restored");
    assert!(try_insert_p(&writer2, 20_000), "resurrected handler must deliver");
    // The redelivered stream continues the preserved sequence: the
    // first post-resurrection push uses a sequence past every one the
    // evicted incarnation handed out.
    let pushed = loop {
        match Frame::read_from(&mut lazy2).unwrap().expect("push") {
            Frame::Push(p) => break p,
            _ => continue,
        }
    };
    assert_eq!(pushed.handler, "slow");
    assert!(
        pushed.seq > landed,
        "sequence reuse after resurrection: got {} after {} pre-eviction pushes",
        pushed.seq,
        landed
    );

    drop(server2);
    drop(db2);
    let _ = std::fs::remove_dir_all(&dir);
}
