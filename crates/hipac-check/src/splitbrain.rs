//! Split-brain torture harness: partition a semi-sync primary away
//! from its replica mid-load, promote the replica, let the deposed
//! primary keep absorbing client writes, then heal — and prove the
//! epoch fence turns that scenario from silent divergence into typed
//! refusals plus automatic repair:
//!
//! * **no replicated ack is lost** — every value whose commit was
//!   acked while the replica was still connected (semi-sync held)
//!   exists exactly once on the new primary and on the rejoined node;
//! * **no write commits under a stale epoch** — once
//!   [`hipac_repl::fence_stale_primary`] delivers the new epoch to the
//!   deposed primary, every further write attempt is refused with a
//!   typed `NotPrimary` error and none of those values appear
//!   anywhere;
//! * **divergence repair** — writes the deposed primary acked *while
//!   partitioned* (its semi-sync gate degraded: no replica could
//!   confirm them) form a divergent WAL tail.
//!   [`hipac_repl::ReplicaNode::rejoin`] truncates that tail, adopts
//!   the new epoch, and re-enlists the node as a replica whose
//!   anti-entropy digest matches the new primary's fold.
//!
//! A second harness ([`run_quorum_torture`]) proves the fan-out side:
//! with three replicas the semi-sync gate needs ⌈(N+1)/2⌉ = 2 acks,
//! so one crashed replica does not degrade commits to asynchronous —
//! and losing all replicas degrades (typed in the `quorum_ok` gauge)
//! instead of blocking.
//!
//! Reports carry raw evidence; assertions live with the callers
//! (`tests/splitbrain_torture.rs`).

use crate::netchaos::{ChaosConfig, ChaosProxy};
use crate::restart::{
    committed_counts, fresh_dir, land_value, land_values, setup_schema, tally, torture_client,
};
use hipac::ActiveDatabase;
use hipac_common::{Value, ROLE_PRIMARY};
use hipac_net::proto::{Command, Frame, Reply, RequestMeta, WireError, PROTOCOL_VERSION};
use hipac_net::{HipacServer, ServerConfig};
use hipac_repl::{fence_stale_primary, ReplicaNode};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Knobs for one split-brain run. Everything that influences the
/// schedule derives from `seed`, so a failure reproduces from its seed
/// alone.
#[derive(Debug, Clone)]
pub struct SplitbrainTortureConfig {
    /// Master seed: chaos decisions, partition placement spread.
    pub seed: u64,
    /// Concurrent write workers in the pre-partition burst.
    pub workers: usize,
    /// Committed transactions each worker must land.
    pub txns_per_worker: i64,
    /// Chaos fault probability in percent on the client path.
    pub chaos_percent: u32,
    /// Acked commits across all workers before the replication link is
    /// severed.
    pub partition_after_acks: usize,
    /// Writes landed on the deposed primary while partitioned (the
    /// divergent tail rejoin must truncate).
    pub divergent_txns: i64,
    /// Write attempts against the deposed primary after the fence
    /// (each must be refused `NotPrimary`).
    pub adversarial_attempts: i64,
    /// Writes landed on the new primary after the rejoin (gated by the
    /// rejoined node's semi-sync ack).
    pub post_txns: i64,
    /// Wall-clock budget for the whole run.
    pub budget: Duration,
}

impl SplitbrainTortureConfig {
    /// The fast CI shape: small burst, partition mid-burst, a handful
    /// of divergent and adversarial writes, rejoin, post-traffic.
    pub fn fast(seed: u64) -> SplitbrainTortureConfig {
        SplitbrainTortureConfig {
            seed,
            workers: 3,
            txns_per_worker: 6,
            chaos_percent: 3,
            partition_after_acks: 5 + (seed % 5) as usize,
            divergent_txns: 5,
            adversarial_attempts: 4,
            post_txns: 5,
            budget: Duration::from_secs(60),
        }
    }
}

/// Raw evidence from one split-brain run; assertions live with the
/// caller.
#[derive(Debug)]
pub struct SplitbrainTortureReport {
    /// The seed the run used.
    pub seed: u64,
    /// Values acked *before* the replication link was severed: the
    /// semi-sync gate held for these, so each must survive on both the
    /// new primary and the rejoined node.
    pub acked_before: Vec<i64>,
    /// Values acked by the deposed primary while partitioned — the
    /// divergent tail. Rejoin must erase every one of them.
    pub divergent_acked: Vec<i64>,
    /// Values acked by the new primary after the rejoin.
    pub acked_after: Vec<i64>,
    /// Pre-partition values that never landed (must be empty).
    pub unknown: Vec<i64>,
    /// Post-fence write attempts refused with a typed `NotPrimary`
    /// (must equal `adversarial_attempts`).
    pub fence_refusals: i64,
    /// The new primary's replication epoch after promotion.
    pub new_epoch: u64,
    /// Epoch the deposed primary reports after the fence healed the
    /// partition (must have adopted `new_epoch`).
    pub old_primary_epoch: u64,
    /// Stale-epoch observations on the deposed primary (≥ 1: the
    /// fence frame itself).
    pub old_stale_epochs: u64,
    /// Whether the rejoined node caught up to the new primary.
    pub rejoined_caught_up: bool,
    /// Epoch the rejoined node operates under (must equal
    /// `new_epoch`).
    pub rejoined_epoch: u64,
    /// Committed `t.n` counts on the new primary at the end.
    pub counts_new_primary: HashMap<i64, usize>,
    /// Committed `t.n` counts served by the rejoined node's snapshot
    /// view at the end.
    pub counts_rejoined: HashMap<i64, usize>,
    /// Peers subscribed to the new primary at the end (the rejoined
    /// node: must be 1).
    pub peers: u64,
    /// Peers whose anti-entropy digest matches the primary's fold
    /// (must be 1).
    pub digest_ok_peers: u64,
    /// Digest comparisons that disagreed (must be 0).
    pub digest_mismatches: u64,
    /// Semi-sync quorum gauge on the new primary (1 with one peer).
    pub quorum: u64,
    /// 1 while the last semi-sync wait met its quorum.
    pub quorum_ok: u64,
}

/// Snapshot-read the committed `t.n` counts from a replica-role node.
fn replica_counts(addr: String, seed: u64) -> HashMap<i64, usize> {
    let client = torture_client(addr, seed, 0x5EAD).expect("connect to the rejoined node");
    let rows = client
        .query(hipac_common::TxnId(0), "from t", HashMap::new())
        .expect("snapshot query on rejoined node");
    let mut counts = HashMap::new();
    for r in rows {
        if let Value::Int(n) = r.values[0] {
            *counts.entry(n).or_insert(0usize) += 1;
        }
    }
    counts
}

/// Run the full split-brain torture. See the module docs for the
/// phases; the returned report carries raw evidence only.
pub fn run_splitbrain_torture(cfg: &SplitbrainTortureConfig) -> SplitbrainTortureReport {
    let deadline = Instant::now() + cfg.budget;

    // Old primary A: durable, semi-sync with a short degrade window so
    // partitioned commits ack (asynchronously) instead of stalling.
    let pdir = fresh_dir("splitbrain-p", cfg.seed);
    let rdir = fresh_dir("splitbrain-r", cfg.seed);
    let db1 = Arc::new(
        ActiveDatabase::builder()
            .durable(&pdir)
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open old primary db"),
    );
    setup_schema(&db1);
    let mut server1 = HipacServer::bind_with(
        Arc::clone(&db1),
        "127.0.0.1:0",
        ServerConfig {
            sync_repl: true,
            sync_repl_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("bind old primary");
    let a_addr = server1.local_addr().to_string();

    // Client path through chaos; replication path through its own
    // proxy so the partition can sever data shipping while clients
    // still reach the deposed primary — the split-brain shape.
    let client_proxy = Arc::new(
        ChaosProxy::spawn(
            server1.local_addr(),
            ChaosConfig::percent(cfg.seed, cfg.chaos_percent),
        )
        .expect("spawn client chaos proxy"),
    );
    let client_proxy_addr = client_proxy.local_addr().to_string();
    let repl_proxy = Arc::new(
        ChaosProxy::spawn(server1.local_addr(), ChaosConfig::percent(cfg.seed ^ 0xB0B, 0))
            .expect("spawn repl proxy"),
    );

    // Replica B follows A through the replication proxy.
    let node = ReplicaNode::start(&rdir, repl_proxy.local_addr().to_string(), "127.0.0.1:0")
        .expect("start replica");
    assert!(
        node.wait_caught_up(Duration::from_secs(5)),
        "replica never caught up before the burst"
    );

    // Pre-partition burst through the chaos proxy.
    let acked: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let unknown: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut threads = Vec::new();
    for w in 0..cfg.workers as i64 {
        let addr = client_proxy_addr.clone();
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

    // Sever replication mid-burst. Every ack observed *before* the cut
    // was semi-sync confirmed by the replica, so those values are the
    // durability contract the rest of the run must honor. Acks that
    // race the cut are excluded from both sides of the assertion.
    let cut_wait = Instant::now() + cfg.budget / 2;
    while Instant::now() < cut_wait && acked.lock().len() < cfg.partition_after_acks {
        std::thread::sleep(Duration::from_micros(200));
    }
    let acked_before = acked.lock().clone();
    let hole_addr = {
        let hole = std::net::TcpListener::bind("127.0.0.1:0").expect("bind hole");
        hole.local_addr().expect("hole addr")
    };
    repl_proxy.retarget(hole_addr);
    repl_proxy.break_connections();

    // Let the burst finish against the (now unreplicated) primary.
    for t in threads {
        t.join().expect("join splitbrain worker");
    }

    // Promote B: bumps the persistent epoch and records the fence
    // coordinates. A is still alive and still taking writes — this is
    // the split-brain window.
    let (db2, server2) = node
        .promote(ServerConfig {
            sync_repl: true,
            sync_repl_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        })
        .expect("promote replica");
    let new_epoch = db2.repl_counters().epoch.load(Ordering::Relaxed);
    let b_addr = server2.local_addr().to_string();

    // Divergent writes: the deposed primary acks them (its semi-sync
    // gate sees zero peers), but no replica ever confirms them — the
    // tail rejoin must truncate.
    let mut divergent_acked = Vec::new();
    {
        let values = 5000..5000 + cfg.divergent_txns;
        land_values(
            a_addr.clone(),
            (cfg.seed, 0xD1FF),
            "t",
            values,
            deadline,
            |v, landed| {
                if landed {
                    divergent_acked.push(v)
                }
            },
        );
    }

    // Heal: deliver the new epoch to the deposed primary. From this
    // frame on it is fenced — a demotion it discovers, not one it is
    // asked to perform.
    fence_stale_primary(&a_addr, new_epoch).expect("fence deposed primary");

    // Adversarial writes against the fenced node: every attempt must
    // come back as a typed `NotPrimary` refusal, never a commit.
    let mut fence_refusals = 0i64;
    {
        let client =
            torture_client(a_addr.clone(), cfg.seed, 0xAD5E).expect("connect to the fenced node");
        for i in 0..cfg.adversarial_attempts {
            let v = 6000 + i;
            let txn = match client.begin() {
                Ok(t) => t,
                Err(_) => continue,
            };
            match client.insert(txn, "t", vec![Value::from(v)]) {
                Err(WireError::Remote { ref kind, .. }) if kind == "NotPrimary" => {
                    fence_refusals += 1;
                }
                other => panic!("fenced node answered write with {other:?}"),
            }
            let _ = client.abort(txn);
        }
    }
    let (old_primary_epoch, old_stale_epochs) = {
        let c = db1.repl_counters();
        (
            c.epoch.load(Ordering::Relaxed),
            c.stale_epochs.load(Ordering::Relaxed),
        )
    };

    // Retire the deposed process and rejoin its directory as a replica
    // of the new primary: probe fence coordinates, truncate the
    // divergent tail, adopt the epoch, follow.
    client_proxy.retarget(hole_addr);
    client_proxy.break_connections();
    server1.shutdown();
    drop(server1);
    drop(db1);
    let rejoined = ReplicaNode::rejoin(&pdir, b_addr.clone(), "127.0.0.1:0")
        .expect("rejoin deposed primary as replica");
    let rejoined_caught_up = rejoined.wait_caught_up(Duration::from_secs(10));

    // Post-rejoin traffic on the new primary: semi-sync now gates on
    // the rejoined node's acks (quorum of one peer is one).
    let mut acked_after = Vec::new();
    {
        let values = 7000..7000 + cfg.post_txns;
        land_values(
            b_addr.clone(),
            (cfg.seed, 0xAF7E),
            "t",
            values,
            deadline,
            |v, landed| {
                if landed {
                    acked_after.push(v)
                }
            },
        );
    }
    assert!(
        rejoined.wait_caught_up(Duration::from_secs(10)),
        "rejoined node fell behind after post-rejoin traffic"
    );

    let c2 = db2.repl_counters();
    let report = SplitbrainTortureReport {
        seed: cfg.seed,
        acked_before,
        divergent_acked,
        acked_after,
        unknown: unknown.lock().clone(),
        fence_refusals,
        new_epoch,
        old_primary_epoch,
        old_stale_epochs,
        rejoined_caught_up,
        rejoined_epoch: rejoined.counters().epoch.load(Ordering::Relaxed),
        counts_new_primary: committed_counts(&db2),
        counts_rejoined: replica_counts(rejoined.local_addr().to_string(), cfg.seed),
        peers: c2.peers.load(Ordering::Relaxed),
        digest_ok_peers: c2.digest_ok_peers.load(Ordering::Relaxed),
        digest_mismatches: c2.digest_mismatches.load(Ordering::Relaxed),
        quorum: c2.quorum.load(Ordering::Relaxed),
        quorum_ok: c2.quorum_ok.load(Ordering::Relaxed),
    };

    rejoined.shutdown();
    let mut server2 = server2;
    server2.shutdown();
    drop(server2);
    drop(db2);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
    report
}

// ---------------------------------------------------------------------
// Quorum torture: three replicas, one crash, acks keep flowing.
// ---------------------------------------------------------------------

/// Knobs for one quorum run.
#[derive(Debug, Clone)]
pub struct QuorumTortureConfig {
    /// Master seed (client identity jitter).
    pub seed: u64,
    /// Committed transactions landed with all three replicas up.
    pub txns_before: i64,
    /// Committed transactions landed after one replica crashes — each
    /// must still ack within the semi-sync window.
    pub txns_after: i64,
    /// Wall-clock budget for the whole run.
    pub budget: Duration,
}

impl QuorumTortureConfig {
    /// The fast CI shape.
    pub fn fast(seed: u64) -> QuorumTortureConfig {
        QuorumTortureConfig {
            seed,
            txns_before: 6,
            txns_after: 6,
            budget: Duration::from_secs(60),
        }
    }
}

/// Raw evidence from one quorum run; assertions live with the caller.
#[derive(Debug)]
pub struct QuorumTortureReport {
    /// The seed the run used.
    pub seed: u64,
    /// Peers subscribed once all three replicas connected (must be 3).
    pub peers_at_start: u64,
    /// The semi-sync quorum gauge with three replicas (must be 2:
    /// ⌈(3+1)/2⌉).
    pub quorum_at_start: u64,
    /// Values acked with the full fleet (each exactly once below).
    pub acked_before: Vec<i64>,
    /// Values acked after one replica crashed (must be all of
    /// `txns_after`: a one-replica crash must not cost acks).
    pub acked_after_crash: Vec<i64>,
    /// `quorum_ok` after the post-crash traffic (must be 1: the gate
    /// kept meeting quorum without the dead peer).
    pub quorum_ok_after_crash: u64,
    /// `quorum_ok` after every healthy replica was lost — leaving only
    /// a registered-but-unresponsive subscriber — and one more write
    /// landed (must be 0: degraded to asynchronous, typed in the
    /// gauge, but the write still acked). Cleanly-disconnected dead
    /// peers are culled and leave the gate vacuously green (a primary
    /// with no subscribers has no semi-sync obligation), so the
    /// harness observes the degrade through a wedged peer that stays
    /// subscribed but never reports progress.
    pub quorum_ok_after_total_loss: u64,
    /// Whether the post-total-loss write acked (must be true —
    /// semi-sync degrades, never blocks).
    pub degraded_write_acked: bool,
    /// Committed `t.n` counts on the primary at the end.
    pub counts: HashMap<i64, usize>,
    /// Surviving replicas' applied watermarks caught up to the
    /// primary's durable frontier before they were shut down.
    pub survivors_caught_up: bool,
}

/// Run the quorum torture: 3 replicas, crash one mid-traffic, then
/// lose them all. See [`QuorumTortureReport`] for the contract.
pub fn run_quorum_torture(cfg: &QuorumTortureConfig) -> QuorumTortureReport {
    let deadline = Instant::now() + cfg.budget;
    let pdir = fresh_dir("quorum-p", cfg.seed);
    let rdirs: Vec<_> = (0..3)
        .map(|i| fresh_dir(&format!("quorum-r{i}"), cfg.seed))
        .collect();

    let db = Arc::new(
        ActiveDatabase::builder()
            .durable(&pdir)
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open quorum primary"),
    );
    setup_schema(&db);
    let mut server = HipacServer::bind_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            sync_repl: true,
            sync_repl_timeout: Duration::from_millis(250),
            ..ServerConfig::default()
        },
    )
    .expect("bind quorum primary");
    let addr = server.local_addr().to_string();
    assert_eq!(
        db.repl_counters().role.load(Ordering::Relaxed),
        ROLE_PRIMARY
    );

    let mut replicas: Vec<ReplicaNode> = (0..3)
        .map(|i| {
            let node = ReplicaNode::start(&rdirs[i], addr.clone(), "127.0.0.1:0")
                .expect("start quorum replica");
            assert!(
                node.wait_caught_up(Duration::from_secs(5)),
                "quorum replica {i} never caught up"
            );
            node
        })
        .collect();
    // All three must be registered before the gauges are sampled.
    let t0 = Instant::now();
    while db.repl_counters().peers.load(Ordering::Relaxed) < 3
        && t0.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let peers_at_start = db.repl_counters().peers.load(Ordering::Relaxed);
    let quorum_at_start = db.repl_counters().quorum.load(Ordering::Relaxed);

    let client =
        torture_client(addr.clone(), cfg.seed, 0x0E09).expect("connect to the quorum primary");
    let mut acked_before = Vec::new();
    for i in 0..cfg.txns_before {
        let v = 100 + i;
        assert!(
            land_value(&client, "t", v, deadline),
            "full-fleet write {v} failed"
        );
        acked_before.push(v);
    }

    // Crash one replica. The gate needs 2 of the (up to) 3 registered
    // peers; the two survivors keep acking, so commits stay
    // synchronous — no degrade, no stall.
    replicas.remove(0).shutdown();
    let mut acked_after_crash = Vec::new();
    for i in 0..cfg.txns_after {
        let v = 200 + i;
        assert!(
            land_value(&client, "t", v, deadline),
            "post-crash write {v} failed"
        );
        acked_after_crash.push(v);
    }
    let quorum_ok_after_crash = db.repl_counters().quorum_ok.load(Ordering::Relaxed);
    let survivors_caught_up = replicas
        .iter()
        .all(|r| r.wait_caught_up(Duration::from_secs(5)));

    // Lose the rest. Cleanly-dead peers are culled by the heartbeat,
    // and quorum over zero subscribers is vacuously met — so to *see*
    // the degrade we enlist a wedged subscriber: it completes the
    // replication handshake (so the hub counts it) and drains the
    // stream (so it is never culled) but never reports progress. The
    // next commit's semi-sync wait can only time out: the gauge drops
    // to 0 (degraded to asynchronous) while the ack still returns.
    for r in replicas.drain(..) {
        r.shutdown();
    }
    let t1 = Instant::now();
    while db.repl_counters().peers.load(Ordering::Relaxed) > 0
        && t1.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let wedge_lsn = db.durable_store().map(|s| s.durable_lsn()).unwrap_or(0);
    let wedge = wedged_subscriber(&addr, wedge_lsn).expect("enlist wedged subscriber");
    let t2 = Instant::now();
    while db.repl_counters().peers.load(Ordering::Relaxed) < 1
        && t2.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let degraded_write_acked = land_value(&client, "t", 300, deadline);
    let quorum_ok_after_total_loss = db.repl_counters().quorum_ok.load(Ordering::Relaxed);

    let report = QuorumTortureReport {
        seed: cfg.seed,
        peers_at_start,
        quorum_at_start,
        acked_before,
        acked_after_crash,
        quorum_ok_after_crash,
        quorum_ok_after_total_loss,
        degraded_write_acked,
        counts: committed_counts(&db),
        survivors_caught_up,
    };

    server.shutdown();
    drop(server);
    drop(db);
    // The server's shutdown closed the wedge's socket; its drain
    // thread exits on the read error.
    let _ = wedge.join();
    let _ = std::fs::remove_dir_all(&pdir);
    for d in &rdirs {
        let _ = std::fs::remove_dir_all(d);
    }
    report
}

/// Subscribe to `addr`'s replication stream from `start_lsn` and then
/// wedge: a background thread drains every shipped frame (so the hub's
/// writes keep succeeding and the peer is never culled) but never
/// sends a `ReplProgress`, so the peer's applied watermark stays
/// frozen at `start_lsn` forever. This is the deterministic stand-in
/// for a live-but-stalled replica — the only shape under which the
/// semi-sync gate's degrade is observable, because cleanly-dead peers
/// are culled out of the quorum denominator.
fn wedged_subscriber(addr: &str, start_lsn: u64) -> std::io::Result<std::thread::JoinHandle<()>> {
    use std::io::{Error, ErrorKind, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let wedge_err = |m: &str| Error::new(ErrorKind::InvalidData, m.to_string());

    let ping = Frame::Request {
        id: 1,
        meta: RequestMeta::default(),
        command: Command::Ping {
            version: PROTOCOL_VERSION,
        },
    };
    stream.write_all(&ping.encode())?;
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Some(Frame::Response {
                id: 1,
                reply: Reply::Pong { .. },
            })) => break,
            Ok(Some(_)) => continue,
            _ => return Err(wedge_err("handshake failed")),
        }
    }

    let sub = Frame::Request {
        id: 2,
        meta: RequestMeta::default(),
        command: Command::ReplSubscribe {
            start_lsn,
            epoch: 0,
        },
    };
    stream.write_all(&sub.encode())?;
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Some(Frame::Response { id: 2, reply })) => match reply {
                Reply::Ok => break,
                other => return Err(wedge_err(&format!("subscribe refused: {other:?}"))),
            },
            Ok(Some(_)) => continue,
            _ => return Err(wedge_err("subscribe failed")),
        }
    }

    Ok(std::thread::spawn(move || {
        while let Ok(Some(_)) = Frame::read_from(&mut stream) {}
    }))
}
