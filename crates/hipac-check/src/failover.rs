//! Failover torture harness: kill a replicated primary mid-burst and
//! prove that promotion preserves every guarantee the single-node
//! tortures established — committed-state equality, exactly-once for
//! retried keys, and exactly-once push delivery — across a *node
//! change*, not just a restart.
//!
//! One run wires up the full two-node topology:
//!
//! * a **primary** serving writes with `sync_repl` on, so a commit ack
//!   implies the batch (including its reply-journal entry and outbox
//!   writes) is durably applied on the replica;
//! * a **replica** ([`hipac_repl::ReplicaNode`]) following the primary
//!   directly, serving snapshot reads, and hosting the subscriber's
//!   push subscription (forwarded upstream, fanned out locally);
//! * a **chaos proxy** in front of the primary, through which every
//!   write worker talks — delays, splits, resets and drops, seeded;
//! * a **kill + promotion** — mid-burst the primary is shut down
//!   abruptly (no drain), the replica promotes on its own listen
//!   address, and the proxy swings over to the promoted server,
//!   exactly like a VIP repointing at the surviving node.
//!
//! Workers run the same redo protocol as the restart torture: retry
//! ambiguity with the same idempotency key, redo definite
//! non-executions, give up only on permanent ambiguity. A retried key
//! whose commit was acked before the kill must be answered from the
//! *replicated* reply journal on the promoted node. The subscriber
//! keeps counting handler executions per push sequence across the
//! failover; the promoted node's recovered outbox redelivers unacked
//! pushes and the already-seen ones are acked without re-running.
//!
//! The report carries raw evidence; assertions live with the callers
//! (`tests/failover_torture.rs`).

use crate::netchaos::{ChaosConfig, ChaosProxy};
use crate::restart::{
    committed_counts, delivery_counts, fresh_dir, land_value, land_values, raw_replay_probe,
    setup_schema, tally, torture_client, AuditSubscriber,
};
use hipac::ActiveDatabase;
use hipac_net::{HipacServer, ServerConfig};
use hipac_repl::ReplicaNode;
use hipac_storage::journal;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for one failover run. Everything that influences the schedule
/// derives from `seed`, so a failure reproduces from its seed alone.
#[derive(Debug, Clone)]
pub struct FailoverTortureConfig {
    /// Master seed: chaos decisions, kill placement spread.
    pub seed: u64,
    /// Concurrent exactly-once write workers.
    pub workers: usize,
    /// Committed transactions each worker must land.
    pub txns_per_worker: i64,
    /// Chaos fault probability in percent per relayed chunk.
    pub chaos_percent: u32,
    /// Acked commits across all workers before the primary is killed.
    pub kill_after_acks: usize,
    /// Push-firing transactions before the kill window opens.
    pub pushes_before: i64,
    /// Push-firing transactions after the promotion.
    pub pushes_after: i64,
    /// Wall-clock budget for the whole run.
    pub budget: Duration,
}

impl FailoverTortureConfig {
    /// The fast CI shape: small burst, kill mid-burst, pushes on both
    /// sides of the failover.
    pub fn fast(seed: u64) -> FailoverTortureConfig {
        FailoverTortureConfig {
            seed,
            workers: 3,
            txns_per_worker: 8,
            chaos_percent: 3,
            kill_after_acks: 6 + (seed % 7) as usize,
            pushes_before: 4,
            pushes_after: 4,
            budget: Duration::from_secs(60),
        }
    }
}

/// Raw evidence from one failover run; assertions live with the caller.
#[derive(Debug)]
pub struct FailoverTortureReport {
    /// The seed the run used.
    pub seed: u64,
    /// Committed `t.n` counts read from the promoted node.
    pub counts: HashMap<i64, usize>,
    /// Committed counts from an uncontended single-node run of the
    /// same workload.
    pub expected: HashMap<i64, usize>,
    /// Values whose commit the workload acked (must appear once each).
    pub acked: Vec<i64>,
    /// Values whose outcome stayed permanently ambiguous (must be
    /// empty: the replicated journal resolves every retry).
    pub unknown: Vec<i64>,
    /// Reply-journal entries found on the promoted node's store.
    pub journal_entries: u64,
    /// Raw duplicate probes sent against the promoted server.
    pub replay_probes: u64,
    /// Probes answered `Ok` — from the replicated journal, without
    /// re-execution.
    pub replay_hits: u64,
    /// Handler executions per push sequence number (each must be 1).
    pub push_deliveries: HashMap<u64, u64>,
    /// Push sequence numbers in the order the handler ran them (must be
    /// contiguous and increasing: a gap is a push the client dropped).
    pub push_order: Vec<u64>,
    /// Pushes the replica fanned out before promotion (its gauge is
    /// carried into the promoted counters).
    pub replica_pushes: u64,
    /// The promoted node's promotion count (must be 1).
    pub promotions: u64,
    /// Unacked pushes still retained when the run ended (must be 0).
    pub unacked_after: u64,
}

/// The same workload with no chaos, no replica, no kill: the committed
/// state the failover run must converge to.
fn uncontended_counts(cfg: &FailoverTortureConfig) -> HashMap<i64, usize> {
    let db = Arc::new(
        ActiveDatabase::builder()
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open uncontended db"),
    );
    setup_schema(&db);
    let server =
        HipacServer::bind(Arc::clone(&db), "127.0.0.1:0").expect("bind uncontended server");
    let deadline = Instant::now() + cfg.budget;
    let client = torture_client(server.local_addr().to_string(), cfg.seed, 0xFA11)
        .expect("connect to the uncontended server");
    client.subscribe("audit", |_| {}).expect("subscribe");
    for w in 0..cfg.workers as i64 {
        for i in 0..cfg.txns_per_worker {
            assert!(
                land_value(&client, "t", w * 1000 + i, deadline),
                "uncontended run failed to land {w}/{i}"
            );
        }
    }
    for i in 0..cfg.pushes_before + cfg.pushes_after {
        assert!(
            land_value(&client, "p", 9000 + i, deadline),
            "uncontended run failed to land push txn {i}"
        );
    }
    committed_counts(&db)
}

/// Run the full failover torture. See the module docs for the phases;
/// the returned report carries raw evidence only.
pub fn run_failover_torture(cfg: &FailoverTortureConfig) -> FailoverTortureReport {
    let expected = uncontended_counts(cfg);
    let deadline = Instant::now() + cfg.budget;

    // Primary: durable, semi-sync — an acked commit is on the replica.
    let pdir = fresh_dir("failover-p", cfg.seed);
    let rdir = fresh_dir("failover-r", cfg.seed);
    let db1 = Arc::new(
        ActiveDatabase::builder()
            .durable(&pdir)
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open primary db"),
    );
    setup_schema(&db1);
    let mut server1 = HipacServer::bind_with(
        Arc::clone(&db1),
        "127.0.0.1:0",
        ServerConfig {
            sync_repl: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let proxy = Arc::new(
        ChaosProxy::spawn(
            server1.local_addr(),
            ChaosConfig::percent(cfg.seed, cfg.chaos_percent),
        )
        .expect("spawn chaos proxy"),
    );
    let proxy_addr = proxy.local_addr().to_string();

    // Replica: follows the primary directly (the data link is not the
    // chaotic client path), serves the subscriber.
    let node = ReplicaNode::start(&rdir, server1.local_addr().to_string(), "127.0.0.1:0")
        .expect("start replica");
    assert!(
        node.wait_caught_up(Duration::from_secs(5)),
        "replica never caught up before the burst"
    );

    // Subscriber homed on the replica — across the promotion the same
    // address answers.
    let subscriber = AuditSubscriber::start(node.local_addr().to_string(), cfg.seed, 0x5B5C);

    // Workers land values through the chaos proxy; a lag prober rides
    // along on the direct primary address sampling ack→applied time.
    let acked: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let unknown: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut threads = Vec::new();
    for w in 0..cfg.workers as i64 {
        let addr = proxy_addr.clone();
        let acked = Arc::clone(&acked);
        let unknown = Arc::clone(&unknown);
        let seed = cfg.seed;
        let values = w * 1000..w * 1000 + cfg.txns_per_worker;
        threads.push(std::thread::spawn(move || {
            land_values(
                addr,
                (seed, w as u64 + 1),
                "t",
                values,
                deadline,
                tally(Some(&acked), &unknown),
            )
        }));
    }
    // Pusher: fires the pre-kill pushes concurrently with the burst.
    {
        let addr = proxy_addr.clone();
        let unknown = Arc::clone(&unknown);
        let seed = cfg.seed;
        let values = 9000..9000 + cfg.pushes_before;
        threads.push(std::thread::spawn(move || {
            land_values(
                addr,
                (seed, 0x9059),
                "p",
                values,
                deadline,
                tally(None, &unknown),
            )
        }));
    }

    // Until the kill threshold is reached, let the replica catch up to
    // the primary's durable frontier at each newly acked commit.
    let store1 = Arc::clone(db1.durable_store().expect("primary is durable"));
    let kill_wait = Instant::now() + cfg.budget / 2;
    let mut seen_acks = 0usize;
    while Instant::now() < kill_wait {
        let now_acked = acked.lock().len();
        if now_acked > seen_acks {
            seen_acks = now_acked;
            let frontier = store1.durable_lsn();
            let t0 = Instant::now();
            while node.applied_lsn() < frontier && t0.elapsed() < Duration::from_secs(1) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        if now_acked >= cfg.kill_after_acks {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    // Kill the primary abruptly — no drain. Sever the client path
    // first and point it at a closed port: a kill -9 destroys
    // in-flight acks at this same instant, and until the promoted
    // node (holding the *replicated* reply journal) is accepting,
    // nothing may answer a keyed retry — a premature "not executed"
    // answer would make the client redo a commit the dead primary
    // already executed and shipped.
    let hole_addr = {
        let hole = std::net::TcpListener::bind("127.0.0.1:0").expect("bind hole");
        hole.local_addr().expect("hole addr")
    };
    proxy.retarget(hole_addr);
    proxy.break_connections();
    server1.shutdown();
    drop(server1);
    drop(store1);
    drop(db1);
    let replica_pushes = node
        .counters()
        .replica_pushes
        .load(Ordering::Relaxed);
    let (db2, server2) = node
        .promote(ServerConfig::default())
        .expect("promote replica");
    proxy.retarget(server2.local_addr());
    proxy.break_connections();

    // Post-failover pushes, then drain everything.
    {
        let addr = proxy_addr.clone();
        let unknown = Arc::clone(&unknown);
        let seed = cfg.seed;
        let values = 9000 + cfg.pushes_before..9000 + cfg.pushes_before + cfg.pushes_after;
        threads.push(std::thread::spawn(move || {
            // The proxy may still be swinging over: the client's connect
            // retry rides that out.
            land_values(
                addr,
                (seed, 0x905A),
                "p",
                values,
                deadline,
                tally(None, &unknown),
            )
        }));
    }
    for t in threads {
        t.join().expect("join failover thread");
    }

    // Drain the outbox: the subscriber's poll thread keeps reconnects
    // (and so redelivery + re-ack) flowing against the promoted node.
    while server2.unacked_pushes() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let push_order = subscriber.finish();

    // Journal evidence: the promoted node's journal was *replicated*,
    // never written by a local client session — raw keyed duplicates
    // answered `Ok` prove the journal crossed the node boundary.
    let mut journal_entries = 0u64;
    let mut replay_probes = 0u64;
    let mut replay_hits = 0u64;
    if let Some(d) = db2.durable_store() {
        if let Ok(entries) = d.scan_prefix(&[journal::REPLY_PREFIX]) {
            for (key, _) in &entries {
                journal_entries += 1;
                if replay_probes < 3 {
                    if let Some((client_id, seq)) = journal::parse_reply_key(key) {
                        replay_probes += 1;
                        if raw_replay_probe(server2.local_addr(), client_id, seq) {
                            replay_hits += 1;
                        }
                    }
                }
            }
        }
    }

    let counts = committed_counts(&db2);
    let report = FailoverTortureReport {
        seed: cfg.seed,
        counts,
        expected,
        acked: acked.lock().clone(),
        unknown: unknown.lock().clone(),
        journal_entries,
        replay_probes,
        replay_hits,
        push_deliveries: delivery_counts(&push_order),
        push_order,
        replica_pushes,
        promotions: db2.repl_counters().promotions.load(Ordering::Relaxed),
        unacked_after: server2.unacked_pushes(),
    };
    let mut server2 = server2;
    server2.shutdown();
    drop(server2);
    drop(db2);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
    report
}
