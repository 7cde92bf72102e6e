//! Two-node integration tests for the replication subsystem: WAL
//! shipping, snapshot-read serving, fleet routing, snapshot fallback,
//! semi-sync commits, drain-ships-tail, replica-homed push fan-out,
//! and promotion.

use hipac::ActiveDatabase;
use hipac_common::{TxnId, Value, ValueType, ROLE_PRIMARY, ROLE_REPLICA};
use hipac_event::EventSpec;
use hipac_net::proto::{ping_reply, Command, Frame, ReplMsg, Reply};
use hipac_net::{ClientConfig, FleetClient, HipacClient, HipacServer, ServerConfig, WireError};
use hipac_object::{AttrDef, Expr, Query};
use hipac_repl::ReplicaNode;
use hipac_rules::{Action, ActionOp, RuleDef};
use hipac_storage::{batch_digest, fold_digest, DurableStore, StoreOp, TailRead};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hipac-repl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn primary(dir: &PathBuf, sync_repl: bool) -> HipacServer {
    let db = Arc::new(ActiveDatabase::builder().durable(dir).build().unwrap());
    let config = ServerConfig {
        sync_repl,
        ..ServerConfig::default()
    };
    HipacServer::bind_with(db, "127.0.0.1:0", config).unwrap()
}

/// Create the stock schema and `n` rows; returns the oids.
fn seed_stock(client: &HipacClient, n: i64) -> Vec<u64> {
    let t = client.begin().unwrap();
    client
        .create_class(
            t,
            "stock",
            None,
            vec![
                AttrDef::new("sym", ValueType::Str),
                AttrDef::new("price", ValueType::Float),
            ],
        )
        .unwrap();
    let mut oids = Vec::new();
    for i in 0..n {
        oids.push(
            client
                .insert(
                    t,
                    "stock",
                    vec![Value::from(format!("S{i}")), Value::from(10.0 + i as f64)],
                )
                .unwrap(),
        );
    }
    client.commit(t).unwrap();
    oids
}

#[test]
fn replica_follows_applies_and_serves_snapshot_reads() {
    let pdir = tdir("follow-p");
    let rdir = tdir("follow-r");
    let mut server = primary(&pdir, false);
    let client = HipacClient::connect(server.local_addr().to_string()).unwrap();
    seed_stock(&client, 8);

    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0").unwrap();
    assert!(node.wait_caught_up(Duration::from_secs(5)), "replica lag");

    // Snapshot reads on the replica, at its applied watermark.
    let reader = HipacClient::connect(node.local_addr().to_string()).unwrap();
    let rows = reader
        .query(TxnId(0), "from stock where price >= 14.0", HashMap::new())
        .unwrap();
    assert_eq!(rows.len(), 4, "filtered extent on the replica");
    let projected = reader
        .query(TxnId(0), "from stock select sym", HashMap::new())
        .unwrap();
    assert_eq!(projected.len(), 8);
    assert_eq!(projected[0].values.len(), 1, "projection applies");

    // Gauges: the replica reports its role and watermark over STATS...
    let rstats = reader.stats().unwrap();
    assert_eq!(rstats.repl_role, ROLE_REPLICA);
    assert!(rstats.last_applied_lsn > 0);
    assert_eq!(rstats.repl_lag_bytes, 0, "caught up means zero lag");
    // ...and the primary reports shipped/applied progress.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let pstats = client.stats().unwrap();
        if pstats.repl_role == ROLE_PRIMARY
            && pstats.last_shipped_lsn == rstats.last_applied_lsn
            && pstats.last_applied_lsn == rstats.last_applied_lsn
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "primary gauges never converged: {pstats:?} vs replica {rstats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // New commits keep flowing. Async mode acks before shipping, so
    // poll the replica for the row rather than trusting one wait.
    let t = client.begin().unwrap();
    client
        .insert(t, "stock", vec![Value::from("LATE"), Value::from(99.0)])
        .unwrap();
    client.commit(t).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let rows = reader
            .query(TxnId(0), "from stock where sym = \"LATE\"", HashMap::new())
            .unwrap();
        if rows.len() == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "post-subscribe commit never reached the replica"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    node.shutdown();
    server.shutdown();
}

/// Batches the primary committed before the replica subscribed reach
/// the follower as one burst: it applies them in runs — fewer replica
/// commits than batches — while the per-batch digest fold still agrees
/// with the primary's and the view ends up equal to the primary's rows.
#[test]
fn burst_of_batches_applies_in_fewer_commits() {
    let pdir = tdir("burst-p");
    let rdir = tdir("burst-r");
    let mut server = primary(&pdir, false);
    let client = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let oids = seed_stock(&client, 1);
    // One commit — one shipped batch — per update.
    for i in 0..32 {
        let t = client.begin().unwrap();
        client
            .update(
                t,
                oids[0],
                vec![("price".into(), Value::from(100.0 + i as f64))],
            )
            .unwrap();
        client
            .insert(
                t,
                "stock",
                vec![Value::from(format!("B{i}")), Value::from(i as f64)],
            )
            .unwrap();
        client.commit(t).unwrap();
    }
    let store = Arc::clone(server.db().durable_store().unwrap());
    let frontier = store.durable_lsn();
    let batches = match store.read_batches_from(0, 1 << 24).unwrap() {
        TailRead::Batches { batches, .. } => batches.len() as u64,
        other => panic!("{other:?}"),
    };
    assert!(batches >= 33, "one batch per commit: {batches}");

    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.applied_lsn() < frontier {
        assert!(Instant::now() < deadline, "replica never applied the burst");
        std::thread::sleep(Duration::from_millis(5));
    }
    let runs = node.counters().apply_runs.load(Ordering::Relaxed);
    assert!(
        runs < batches,
        "{batches} batches took {runs} replica commits"
    );

    // The primary compared the replica's fold at the run's last LSN.
    let pc = Arc::clone(server.db().repl_counters());
    let deadline = Instant::now() + Duration::from_secs(5);
    while pc.last_applied_lsn.load(Ordering::Relaxed) < frontier {
        assert!(
            Instant::now() < deadline,
            "progress never reached the primary"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(pc.digest_mismatches.load(Ordering::Relaxed), 0);
    assert_eq!(pc.digest_ok_peers.load(Ordering::Relaxed), 1);

    let mut on_primary = {
        let t = client.begin().unwrap();
        let rows = client.query(t, "from stock", HashMap::new()).unwrap();
        client.commit(t).unwrap();
        rows
    };
    on_primary.sort_by_key(|r| r.oid);
    let reader = HipacClient::connect(node.local_addr().to_string()).unwrap();
    let on_replica = reader
        .query(TxnId(0), "from stock", HashMap::new())
        .unwrap();
    assert_eq!(on_replica.len(), 33);
    assert_eq!(on_replica, on_primary, "view rows equal the primary's");

    node.shutdown();
    server.shutdown();
}

/// Read one request frame a follower sent, answering its handshake
/// (`Ping`, `ReplSubscribe`) the way a primary does. Returns the frame,
/// or `None` once the follower hung up.
fn fake_primary_read(conn: &mut std::net::TcpStream) -> Option<Command> {
    let Ok(Some(Frame::Request { id, command, .. })) = Frame::read_from(conn) else {
        return None;
    };
    let reply = match &command {
        Command::Ping { version } => ping_reply(*version),
        _ => Reply::Ok,
    };
    if id != 0 {
        conn.write_all(&Frame::Response { id, reply }.encode())
            .ok()?;
    }
    Some(command)
}

/// A gap in the middle of a run: a scripted primary ships sixteen
/// batches in one write, the ninth not chaining onto the eighth. The
/// follower commits nothing of that run — it reports no progress and
/// resubscribes from the very watermark it started from — and the
/// correctly chained re-ship then applies whole, with the reported
/// digest equal to the fold of all sixteen batch digests.
#[test]
fn mid_run_gap_commits_nothing_and_resubscribes() {
    const N: u64 = 16;
    let rdir = tdir("midgap-r");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let ops = |i: u64| {
        vec![StoreOp::Put {
            key: format!("k{i:02}").into_bytes(),
            value: vec![i as u8; 8],
        }]
    };
    let fake = std::thread::spawn(move || {
        let mut sessions = Vec::new();
        for attempt in 0..2 {
            let (mut conn, _) = listener.accept().unwrap();
            let start = loop {
                match fake_primary_read(&mut conn) {
                    Some(Command::ReplSubscribe { start_lsn, .. }) => break start_lsn,
                    Some(_) => {}
                    None => panic!("follower hung up during the handshake"),
                }
            };
            let mut burst = Vec::new();
            for i in 0..N {
                let prev_lsn = if attempt == 0 && i == 8 {
                    i * 100 + 1
                } else {
                    i * 100
                };
                let batch = ReplMsg::Batch {
                    prev_lsn,
                    start_lsn: prev_lsn,
                    next_lsn: (i + 1) * 100,
                    txn: TxnId(i + 1),
                    ops: ops(i),
                    epoch: 0,
                };
                burst.extend(Frame::Repl(batch).encode());
            }
            conn.write_all(&burst).unwrap();
            let mut progress = Vec::new();
            while let Some(command) = fake_primary_read(&mut conn) {
                if let Command::ReplProgress {
                    applied_lsn,
                    digest,
                    ..
                } = command
                {
                    progress.push((applied_lsn, digest));
                    if applied_lsn == N * 100 {
                        break;
                    }
                }
            }
            sessions.push((start, progress));
        }
        sessions
    });

    let node = ReplicaNode::start(&rdir, addr.to_string(), "127.0.0.1:0").unwrap();
    let sessions = fake.join().unwrap();
    let (first_start, first_progress) = &sessions[0];
    let (second_start, second_progress) = &sessions[1];
    assert_eq!(*first_start, 0);
    assert!(
        first_progress.is_empty(),
        "a refused run reports no progress"
    );
    assert_eq!(*second_start, 0, "resubscribed from the pre-run watermark");
    let fold = (0..N).fold(0, |acc, i| {
        fold_digest(acc, batch_digest((i + 1) * 100, TxnId(i + 1), &ops(i)))
    });
    assert_eq!(second_progress.last(), Some(&(N * 100, fold)));
    assert!(node.counters().apply_runs.load(Ordering::Relaxed) < N);
    node.shutdown();

    let store = DurableStore::open(&rdir).unwrap();
    assert_eq!(store.replicated_applied_lsn().unwrap(), Some(N * 100));
    let keys: Vec<Vec<u8>> = store
        .scan_prefix(b"k")
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(
        keys,
        (0..N)
            .map(|i| format!("k{i:02}").into_bytes())
            .collect::<Vec<_>>()
    );
}

#[test]
fn replica_refuses_writes_with_typed_error() {
    let pdir = tdir("refuse-p");
    let rdir = tdir("refuse-r");
    let mut server = primary(&pdir, false);
    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0").unwrap();

    let client = HipacClient::connect(node.local_addr().to_string()).unwrap();
    match client.begin() {
        Err(WireError::Remote { kind, .. }) => assert_eq!(kind, "NotPrimary"),
        other => panic!("replica accepted a write path: {other:?}"),
    }
    // Transactional reads are refused too (no lock manager here).
    match client.query(TxnId(7), "from stock", HashMap::new()) {
        Err(WireError::Remote { kind, .. }) => assert_eq!(kind, "NotPrimary"),
        other => panic!("replica served a transactional read: {other:?}"),
    }

    node.shutdown();
    server.shutdown();
}

#[test]
fn fleet_client_routes_writes_to_primary_and_reads_to_replica() {
    let pdir = tdir("fleet-p");
    let rdir = tdir("fleet-r");
    let mut server = primary(&pdir, true);
    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0").unwrap();

    // Replica listed first: probing must still find the primary.
    let fleet = FleetClient::connect(
        &[
            node.local_addr().to_string(),
            server.local_addr().to_string(),
        ],
        ClientConfig::default(),
    )
    .unwrap();
    assert!(fleet.has_replica());

    let t = fleet.begin().unwrap();
    fleet
        .create_class(t, "acct", None, vec![AttrDef::new("bal", ValueType::Int)])
        .unwrap();
    fleet.insert(t, "acct", vec![Value::from(100)]).unwrap();
    fleet.commit(t).unwrap();
    assert!(node.wait_caught_up(Duration::from_secs(5)));

    // The read path lands on the replica: its role says so, and its
    // served row agrees with the primary's committed state.
    let stats = fleet.stats().unwrap();
    assert_eq!(stats.repl_role, ROLE_REPLICA, "reads prefer the replica");
    let rows = fleet.snapshot_query("from acct", HashMap::new()).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].values[0], Value::from(100));
    assert_eq!(fleet.primary_stats().unwrap().repl_role, ROLE_PRIMARY);

    // Kill the replica: reads fail over to the primary transparently.
    node.shutdown();
    let rows = fleet.snapshot_query("from acct", HashMap::new()).unwrap();
    assert_eq!(rows.len(), 1, "read failover to primary");

    server.shutdown();
}

#[test]
fn checkpointed_away_watermark_falls_back_to_snapshot() {
    let pdir = tdir("snap-p");
    let rdir = tdir("snap-r");
    let mut server = primary(&pdir, false);
    let client = HipacClient::connect(server.local_addr().to_string()).unwrap();
    seed_stock(&client, 20);

    // Checkpoint the primary: the WAL resets, its base moves past 0,
    // and a fresh replica's resume LSN (0) falls out of range.
    let store = Arc::clone(server.db().durable_store().unwrap());
    store.checkpoint().unwrap();
    assert!(
        store.durable_lsn() > 0,
        "base survives the reset (monotonic LSN)"
    );

    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0").unwrap();
    assert!(
        node.wait_caught_up(Duration::from_secs(5)),
        "snapshot fallback never caught up"
    );
    assert_eq!(node.view().object_count(), 20, "full extent transferred");

    let reader = HipacClient::connect(node.local_addr().to_string()).unwrap();
    let rows = reader
        .query(TxnId(0), "from stock", HashMap::new())
        .unwrap();
    assert_eq!(rows.len(), 20);

    // The stream continues live past the snapshot (async ack: poll).
    let t = client.begin().unwrap();
    client
        .insert(t, "stock", vec![Value::from("NEW"), Value::from(1.0)])
        .unwrap();
    client.commit(t).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.view().object_count() != 21 {
        assert!(Instant::now() < deadline, "live stream stalled after snapshot");
        std::thread::sleep(Duration::from_millis(5));
    }

    node.shutdown();
    server.shutdown();
}

#[test]
fn semi_sync_commit_observes_replica_watermark() {
    let pdir = tdir("sync-p");
    let rdir = tdir("sync-r");
    let mut server = primary(&pdir, true);
    let client = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0").unwrap();
    assert!(node.wait_caught_up(Duration::from_secs(5)));

    // With sync_repl, a returned commit ack implies the replica has
    // durably applied the committing frontier — no wait needed here.
    seed_stock(&client, 5);
    let frontier = server.db().durable_store().unwrap().durable_lsn();
    assert!(
        node.applied_lsn() >= frontier,
        "semi-sync ack before replica apply: applied {} < durable {}",
        node.applied_lsn(),
        frontier
    );

    node.shutdown();
    server.shutdown();
}

#[test]
fn drain_ships_committed_tail_before_shutdown() {
    let pdir = tdir("drain-p");
    let rdir = tdir("drain-r");
    // Async mode: commits ack without waiting for the replica, so at
    // drain time a shipped-tail deficit is plausible.
    let mut server = primary(&pdir, false);
    let client = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0").unwrap();
    // The satellite contract covers *connected* followers: establish
    // the subscription before the burst.
    assert!(node.wait_caught_up(Duration::from_secs(5)));

    seed_stock(&client, 50);
    let frontier = server.db().durable_store().unwrap().durable_lsn();

    // Drain must finish shipping the committed tail before the
    // listener goes away (the satellite fix: a draining primary ships
    // its tail, then refuses).
    server.drain();
    assert!(
        node.applied_lsn() >= frontier,
        "drain returned with unshipped tail: applied {} < durable {}",
        node.applied_lsn(),
        frontier
    );
    node.shutdown();
}

#[test]
fn replica_homed_subscription_gets_pushes_exactly_once() {
    let pdir = tdir("push-p");
    let rdir = tdir("push-r");
    let mut server = primary(&pdir, true);
    let client = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0").unwrap();
    assert!(node.wait_caught_up(Duration::from_secs(5)));

    // The application server subscribes on the REPLICA.
    let subscriber = HipacClient::connect(node.local_addr().to_string()).unwrap();
    let deliveries = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&deliveries);
    subscriber
        .subscribe("trader", move |push| {
            assert_eq!(push.request, "sell");
            seen.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();

    // Rule on the primary pushes to that handler.
    let t = client.begin().unwrap();
    client
        .create_class(
            t,
            "stock",
            None,
            vec![
                AttrDef::new("sym", ValueType::Str),
                AttrDef::new("price", ValueType::Float),
            ],
        )
        .unwrap();
    client
        .create_rule(
            t,
            &RuleDef::new("sell_high")
                .on(EventSpec::on_update("stock"))
                .when(Query::parse("from stock where new.price > 50.0").unwrap())
                .then(Action::single(ActionOp::AppRequest {
                    handler: "trader".into(),
                    request: "sell".into(),
                    args: vec![("why".into(), Expr::lit("high"))],
                })),
        )
        .unwrap();
    let oid = client
        .insert(t, "stock", vec![Value::from("XRX"), Value::from(40.0)])
        .unwrap();
    client.commit(t).unwrap();

    let t = client.begin().unwrap();
    client
        .update(t, oid, vec![("price".into(), Value::from(55.0))])
        .unwrap();
    client.commit(t).unwrap();

    // The push crosses primary → follower connection → replica fan-out.
    let deadline = Instant::now() + Duration::from_secs(5);
    while deliveries.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "push never reached subscriber");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        node.counters().replica_pushes.load(Ordering::Relaxed) >= 1,
        "replica counted its fan-out"
    );

    // Exactly-once: the client's ack flowed back through the replica
    // to the primary's durable outbox, so a fresh subscriber on the
    // replica sees no redelivery — and the first one saw no duplicate.
    std::thread::sleep(Duration::from_millis(300));
    drop(subscriber);
    let resub = HipacClient::connect(node.local_addr().to_string()).unwrap();
    let late = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&late);
    resub
        .subscribe("trader", move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(deliveries.load(Ordering::SeqCst), 1, "duplicate delivery");
    assert_eq!(late.load(Ordering::SeqCst), 0, "acked push was redelivered");

    node.shutdown();
    server.shutdown();
}

#[test]
fn promotion_recovers_state_and_serves_writes_on_same_address() {
    let pdir = tdir("promote-p");
    let rdir = tdir("promote-r");
    let mut server = primary(&pdir, true);
    let client = HipacClient::connect(server.local_addr().to_string()).unwrap();
    let oids = seed_stock(&client, 6);
    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0").unwrap();
    assert!(node.wait_caught_up(Duration::from_secs(5)));
    let replica_addr = node.local_addr();

    // Primary dies mid-life; the replica takes over on its own address.
    drop(client);
    server.shutdown();
    let (db, mut promoted) = node.promote(ServerConfig::default()).unwrap();
    assert_eq!(promoted.local_addr(), replica_addr, "address continuity");
    assert_eq!(db.stats().promotions, 1);

    // The promoted node serves the full replicated state and takes
    // writes — the whole surface, not just snapshot reads.
    let c2 = HipacClient::connect(replica_addr.to_string()).unwrap();
    let stats = c2.stats().unwrap();
    assert_eq!(stats.repl_role, ROLE_PRIMARY, "promoted node is primary");
    assert_eq!(stats.promotions, 1);

    let t = c2.begin().unwrap();
    let rows = c2.query(t, "from stock", HashMap::new()).unwrap();
    assert_eq!(rows.len(), 6, "replicated extent survived promotion");
    c2.update(t, oids[0], vec![("price".into(), Value::from(77.0))])
        .unwrap();
    c2.commit(t).unwrap();
    let t = c2.begin().unwrap();
    let rows = c2
        .query(t, "from stock where price = 77.0", HashMap::new())
        .unwrap();
    assert_eq!(rows.len(), 1, "post-promotion write committed");
    c2.abort(t).unwrap();

    promoted.shutdown();
}
