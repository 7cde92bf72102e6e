//! Crash-restart torture harness: the end-to-end proof that the
//! durable reply journal and the acked push outbox together give
//! exactly-once across a full server crash.
//!
//! One run composes every failure layer this workspace has:
//!
//! * a **storage crash** — the served database opens with
//!   [`FaultPolicy::crash_at`], so at a seeded fault-point index the
//!   WAL/apply path starts failing like a kill -9 (every later storage
//!   op errors too, and the server refuses traffic until "rebooted");
//! * a **chaos network** — all clients talk through a seeded
//!   [`ChaosProxy`] that delays, splits, resets and drops chunks;
//! * a **restart** — after the crash fires, the harness drops the
//!   server, reopens the *same data directory* with a clean fault
//!   policy, rebinds on a fresh port, retargets the proxy and tears
//!   down every live relay, exactly like a process restart behind a
//!   stable VIP.
//!
//! Clients run a redo protocol that is only sound if the server keeps
//! its side of the exactly-once contract:
//!
//! * ambiguous outcomes (`Io`, transport loss, `Draining`,
//!   `Overloaded`) are retried with the **same** idempotency key —
//!   never redone — until the server gives a definite answer;
//! * definite non-executions (`UnknownTxn` after reconnect, deadlock
//!   victims, refusals) are redone in a fresh transaction;
//! * a retried key whose original committed **before the crash** must
//!   be answered from the recovered reply journal, not re-executed.
//!
//! A subscriber rides along: committed inserts into a second class
//! fire a rule that pushes to its handler, and every push — including
//! ones retained in the durable outbox across the crash — must reach
//! the handler exactly once per sequence number, with the outbox
//! draining to empty once acks land.
//!
//! The report deliberately contains raw evidence (per-value counts,
//! per-seq delivery counts, journal probe results) so test assertions
//! stay outside the harness.

use crate::netchaos::{ChaosConfig, ChaosProxy};
use hipac::ActiveDatabase;
use hipac_common::{TxnId, Value, ValueType};
use hipac_event::EventSpec;
use hipac_net::proto::{Command, Frame, Reply, RequestMeta, WireError};
use hipac_net::{ClientConfig, HipacClient, HipacServer};
use hipac_object::{AttrDef, Expr, Query};
use hipac_rules::{Action, ActionOp, RuleDef};
use hipac_storage::fault::FaultPolicy;
use hipac_storage::journal;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for one torture run. Everything that influences the schedule
/// derives from `seed`, so a failure reproduces from its seed alone.
#[derive(Debug, Clone)]
pub struct RestartTortureConfig {
    /// Master seed: chaos decisions, crash placement spread.
    pub seed: u64,
    /// Concurrent exactly-once worker clients.
    pub workers: usize,
    /// Committed transactions each worker must land.
    pub txns_per_worker: i64,
    /// Chaos fault probability in percent per relayed chunk.
    pub chaos_percent: u32,
    /// Storage fault-point hits *after setup* before the crash fires.
    pub crash_offset: u64,
    /// Push-firing transactions before the crash window opens.
    pub pushes_before: i64,
    /// Push-firing transactions after the restart.
    pub pushes_after: i64,
    /// Wall-clock budget for the whole run.
    pub budget: Duration,
}

impl RestartTortureConfig {
    /// The fast CI shape: small burst, crash mid-burst, a few pushes
    /// on each side of the crash.
    pub fn fast(seed: u64) -> RestartTortureConfig {
        RestartTortureConfig {
            seed,
            workers: 3,
            txns_per_worker: 8,
            chaos_percent: 3,
            crash_offset: 20 + seed % 40,
            pushes_before: 4,
            pushes_after: 4,
            budget: Duration::from_secs(60),
        }
    }
}

/// Raw evidence from one torture run; assertions live with the caller.
#[derive(Debug)]
pub struct RestartTortureReport {
    /// The seed the run used.
    pub seed: u64,
    /// Absolute fault-point index the crash was armed at.
    pub crash_hit: u64,
    /// Did the armed crash actually fire?
    pub crashed: bool,
    /// Committed `t.n` counts read from the restarted store.
    pub counts: HashMap<i64, usize>,
    /// Committed counts from an uncontended run of the same workload.
    pub expected: HashMap<i64, usize>,
    /// Values whose commit the workload acked (must appear once each).
    pub acked: Vec<i64>,
    /// Values whose outcome stayed ambiguous (should be empty: the
    /// journal must resolve every retry to a definite answer).
    pub unknown: Vec<i64>,
    /// Reply-journal entries found on disk after the restart.
    pub journal_entries: u64,
    /// Raw duplicate probes sent against the restarted server.
    pub replay_probes: u64,
    /// Probes answered `Ok` — from the journal, without re-execution.
    pub replay_hits: u64,
    /// The restarted server's journal-replay gauge at the end.
    pub journal_replays: u64,
    /// Handler executions per push sequence number (each must be 1).
    pub push_deliveries: HashMap<u64, u64>,
    /// Push sequence numbers in the order the handler ran them (must be
    /// contiguous and increasing: a gap is a push the client dropped).
    pub push_order: Vec<u64>,
    /// Unacked pushes still retained when the run ended (must be 0).
    pub unacked_after: u64,
}

pub(crate) fn fresh_dir(tag: &str, seed: u64) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hipac-restart-{tag}-{}-{seed}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create torture dir");
    dir
}

/// Schema + rule shared by every phase: class `t(n)` for the
/// exactly-once workload, class `p(n)` whose inserts fire a push to
/// handler `audit`.
pub(crate) fn setup_schema(db: &Arc<ActiveDatabase>) {
    db.run_top(|t| {
        db.store()
            .create_class(t, "t", None, vec![AttrDef::new("n", ValueType::Int)])?;
        db.store()
            .create_class(t, "p", None, vec![AttrDef::new("n", ValueType::Int)])?;
        db.rules().create_rule(
            t,
            RuleDef::new("audit-insert")
                .on(EventSpec::db(hipac_event::spec::DbEventKind::Insert, Some("p")))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "audit".into(),
                    request: "audit".into(),
                    args: vec![("sev".into(), Expr::lit(1))],
                })),
        )?;
        Ok(())
    })
    .expect("setup schema");
}

/// Fault-point hits the schema setup costs on this build, measured on
/// a throwaway directory so the armed crash can be placed *after*
/// setup deterministically.
fn measure_setup_hits(seed: u64) -> u64 {
    let dir = fresh_dir("calib", seed);
    let faults = FaultPolicy::count_only();
    let db = Arc::new(
        ActiveDatabase::builder()
            .durable(&dir)
            .storage_faults(Arc::clone(&faults))
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open calibration db"),
    );
    setup_schema(&db);
    let hits = faults.hits();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    hits
}

pub(crate) fn committed_counts(db: &Arc<ActiveDatabase>) -> HashMap<i64, usize> {
    db.run_top(|t| {
        let rows = db.store().query(t, &Query::all("t"), None)?;
        let mut counts = HashMap::new();
        for r in rows {
            if let Value::Int(n) = r.values[0] {
                *counts.entry(n).or_insert(0usize) += 1;
            }
        }
        Ok(counts)
    })
    .expect("read committed counts")
}

/// One value's redo loop: retry ambiguity with the same key (the
/// client does that internally), redo definite non-executions in a
/// fresh transaction, and treat only `ReplyEvicted` / exhausted
/// budgets as permanently unknown.
pub(crate) fn land_value(client: &HipacClient, class: &str, v: i64, deadline: Instant) -> bool {
    while Instant::now() < deadline {
        let txn = match client.begin() {
            Ok(t) => t,
            Err(_) => continue,
        };
        if let Err(e) = client.insert(txn, class, vec![Value::from(v)]) {
            let _ = client.abort(txn);
            if matches!(&e, WireError::Remote { kind, .. } if kind == "ReplyEvicted") {
                return false;
            }
            continue;
        }
        match client.commit(txn) {
            Ok(()) => return true,
            // Definite non-executions: the transaction is gone (session
            // died before the commit executed), was a deadlock victim,
            // or was refused. Redo in a fresh transaction.
            Err(WireError::Remote { kind, .. })
                if matches!(
                    kind.as_str(),
                    "UnknownTxn"
                        | "Deadlock"
                        | "LockTimeout"
                        | "DeadlineExceeded"
                        | "NoApplicationHandler"
                        | "Overloaded"
                        | "Draining"
                        | "InUse"
                ) =>
            {
                continue
            }
            // Outcome-unknown-permanent, or anything else ambiguous the
            // retry budget could not resolve: redoing could double.
            Err(_) => return false,
        }
    }
    false
}

/// An exactly-once torture client. Its link may be a chaos proxy that
/// resets the very first handshake, so the first dial runs under the
/// same retry/backoff policy as every later request; a client that
/// still cannot connect is an outcome the caller reports, not a panic.
pub(crate) fn torture_client(
    addr: String,
    seed: u64,
    salt: u64,
) -> std::result::Result<HipacClient, WireError> {
    HipacClient::connect_with(
        addr,
        ClientConfig {
            max_retries: 64,
            backoff: Duration::from_millis(1),
            retry_ambiguous: true,
            connect_retry: true,
            client_id: 0xC0FFEE ^ (seed << 8) ^ salt,
            ..ClientConfig::default()
        },
    )
}

/// Connect a [`torture_client`] and land `values` one by one, telling
/// `outcome` whether each landed. A value does not land when its
/// outcome stayed ambiguous — or when the client never connected.
pub(crate) fn land_values(
    addr: String,
    (seed, salt): (u64, u64),
    class: &str,
    values: impl Iterator<Item = i64>,
    deadline: Instant,
    mut outcome: impl FnMut(i64, bool),
) {
    let client = torture_client(addr, seed, salt);
    for v in values {
        let landed = client
            .as_ref()
            .is_ok_and(|c| land_value(c, class, v, deadline));
        outcome(v, landed);
    }
}

/// The usual [`land_values`] outcome: landed values to `acked` (when the
/// caller tracks them), the rest to `unknown`.
pub(crate) fn tally<'a>(
    acked: Option<&'a Mutex<Vec<i64>>>,
    unknown: &'a Mutex<Vec<i64>>,
) -> impl FnMut(i64, bool) + 'a {
    move |v, landed| match (landed, acked) {
        (true, Some(acked)) => acked.lock().push(v),
        (true, None) => {}
        (false, _) => unknown.lock().push(v),
    }
}

/// A torture's push subscriber: records the `audit` handler's push seqs
/// in the order it runs them, and keeps a request flowing so that
/// reconnects re-subscribe (which is what triggers outbox redelivery).
/// If it cannot connect or subscribe it records nothing, and the report
/// shows every push undelivered.
pub(crate) struct AuditSubscriber {
    handled: Arc<Mutex<Vec<u64>>>,
    stop: Arc<AtomicBool>,
    poll: Option<std::thread::JoinHandle<()>>,
}

impl AuditSubscriber {
    pub(crate) fn start(addr: String, seed: u64, salt: u64) -> AuditSubscriber {
        let handled: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let recorded = Arc::clone(&handled);
        let subscribed = torture_client(addr, seed, salt).and_then(|client| {
            client.subscribe("audit", move |event| recorded.lock().push(event.seq))?;
            Ok(client)
        });
        let poll = subscribed.ok().map(|client| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = client.stats();
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        });
        AuditSubscriber {
            handled,
            stop,
            poll,
        }
    }

    /// Stop polling and return the push seqs in the order the handler
    /// ran them.
    pub(crate) fn finish(self) -> Vec<u64> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(poll) = self.poll {
            poll.join().expect("join subscriber poll");
        }
        let handled = self.handled.lock().clone();
        handled
    }
}

/// Handler executions per push seq, from the order they ran in.
pub(crate) fn delivery_counts(order: &[u64]) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for seq in order {
        *counts.entry(*seq).or_insert(0) += 1;
    }
    counts
}

/// Send a raw keyed duplicate straight at `addr` and report whether it
/// came back `Ok` — with the original session dead and the transaction
/// long gone, only a journal replay can say `Ok` here.
pub(crate) fn raw_replay_probe(addr: std::net::SocketAddr, client_id: u64, seq: u64) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let frame = Frame::Request {
        id: 1,
        meta: RequestMeta {
            client_id,
            seq,
            deadline_ms: 0,
        },
        command: Command::Commit {
            txn: TxnId(u64::MAX),
        },
    };
    if stream.write_all(&frame.encode()).is_err() {
        return false;
    }
    loop {
        match Frame::read_from(&mut stream) {
            Ok(Some(Frame::Response { id: 1, reply })) => return reply == Reply::Ok,
            Ok(Some(_)) => continue,
            _ => return false,
        }
    }
}

/// The same workload with no chaos, no crash, no restarts: the
/// committed state the torture run must converge to.
fn uncontended_counts(cfg: &RestartTortureConfig) -> HashMap<i64, usize> {
    let db = Arc::new(
        ActiveDatabase::builder()
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open uncontended db"),
    );
    setup_schema(&db);
    let server = HipacServer::bind(Arc::clone(&db), "127.0.0.1:0").expect("bind uncontended server");
    let deadline = Instant::now() + cfg.budget;
    let client = torture_client(server.local_addr().to_string(), cfg.seed, 0xBA5E)
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

/// Run the full crash-restart torture. See the module docs for the
/// phases; the returned report carries raw evidence only.
pub fn run_restart_torture(cfg: &RestartTortureConfig) -> RestartTortureReport {
    let expected = uncontended_counts(cfg);
    let deadline = Instant::now() + cfg.budget;

    let crash_hit = measure_setup_hits(cfg.seed) + cfg.crash_offset;
    let dir = fresh_dir("data", cfg.seed);
    let faults = FaultPolicy::crash_at(crash_hit, cfg.seed);
    let db1 = Arc::new(
        ActiveDatabase::builder()
            .durable(&dir)
            .storage_faults(Arc::clone(&faults))
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open torture db"),
    );
    setup_schema(&db1);
    let server1 = HipacServer::bind(Arc::clone(&db1), "127.0.0.1:0").expect("bind torture server");
    let proxy = Arc::new(
        ChaosProxy::spawn(
            server1.local_addr(),
            ChaosConfig::percent(cfg.seed, cfg.chaos_percent),
        )
        .expect("spawn chaos proxy"),
    );
    let proxy_addr = proxy.local_addr().to_string();

    let subscriber = AuditSubscriber::start(proxy_addr.clone(), cfg.seed, 0x5B5B);

    // Workers: each lands its values through the chaos + crash.
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
    // Pusher: fires the pre-crash pushes concurrently with the burst.
    {
        let addr = proxy_addr.clone();
        let unknown = Arc::clone(&unknown);
        let seed = cfg.seed;
        let values = 9000..9000 + cfg.pushes_before;
        threads.push(std::thread::spawn(move || {
            land_values(
                addr,
                (seed, 0x9057),
                "p",
                values,
                deadline,
                tally(None, &unknown),
            )
        }));
    }

    // Wait for the armed crash, then "reboot": drop the dead server,
    // reopen the same directory clean, rebind, swing the proxy over.
    let crash_wait = Instant::now() + cfg.budget / 2;
    while !faults.has_crashed() && Instant::now() < crash_wait {
        std::thread::sleep(Duration::from_millis(2));
    }
    let crashed = faults.has_crashed();
    let mut server1 = server1;
    server1.shutdown();
    drop(server1);
    drop(db1);
    let db2 = Arc::new(
        ActiveDatabase::builder()
            .durable(&dir)
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("reopen torture db"),
    );
    let server2 = HipacServer::bind(Arc::clone(&db2), "127.0.0.1:0").expect("rebind torture server");
    proxy.retarget(server2.local_addr());
    proxy.break_connections();

    // Post-restart pushes, then drain everything.
    {
        let addr = proxy_addr.clone();
        let unknown = Arc::clone(&unknown);
        let seed = cfg.seed;
        let values = 9000 + cfg.pushes_before..9000 + cfg.pushes_before + cfg.pushes_after;
        threads.push(std::thread::spawn(move || {
            land_values(
                addr,
                (seed, 0x9058),
                "p",
                values,
                deadline,
                tally(None, &unknown),
            )
        }));
    }
    for t in threads {
        t.join().expect("join torture thread");
    }

    // Drain the outbox: acks flow through chaos, so force periodic
    // reconnects (redelivery + re-ack) until nothing is retained.
    while server2.unacked_pushes() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        if server2.unacked_pushes() > 0 {
            proxy.break_connections();
        }
    }
    let push_order = subscriber.finish();

    // Journal evidence: enumerate surviving entries and fire raw keyed
    // duplicates at the restarted server — `Ok` without a live session
    // or transaction can only come from the recovered journal.
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
    let report = RestartTortureReport {
        seed: cfg.seed,
        crash_hit,
        crashed,
        counts,
        expected,
        acked: acked.lock().clone(),
        unknown: unknown.lock().clone(),
        journal_entries,
        replay_probes,
        replay_hits,
        journal_replays: server2.journal_replays(),
        push_deliveries: delivery_counts(&push_order),
        push_order,
        unacked_after: server2.unacked_pushes(),
    };
    drop(server2);
    drop(db2);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

// ---------------------------------------------------------------------------
// Group-commit crash matrix: crashes inside the cohort-flush window.
// ---------------------------------------------------------------------------

/// Evidence from one [`run_group_crash_matrix`] sweep.
#[derive(Debug)]
pub struct GroupCrashMatrixReport {
    /// Cohort size every phase formed (and the matrix requires).
    pub cohort: u64,
    /// Absolute fault-point index of the cohort's single `WalSync`.
    pub wal_sync_hit: u64,
    /// Absolute fault-point index of the cohort's `GroupWake` (the
    /// post-fsync, pre-wake "durable but unacked" window).
    pub group_wake_hit: u64,
    /// Members recovered after the leader died *before* the fsync.
    pub prefsync_recovered: usize,
    /// Members recovered after the leader died *after* the fsync but
    /// before waking the cohort (must equal `cohort`).
    pub postfsync_recovered: usize,
}

fn group_store_key(i: usize) -> Vec<u8> {
    format!("gk{i:04}").into_bytes()
}

fn open_group_store(
    dir: &std::path::Path,
    faults: Arc<FaultPolicy>,
) -> Arc<hipac_storage::DurableStore> {
    // Group commit is on, with no straggler window: `group_burst` queues
    // the whole cohort before any member can lead a flush.
    Arc::new(
        hipac_storage::DurableStore::open_with_faults(dir, u64::MAX, faults)
            .expect("open group store"),
    )
}

/// Commit `committers` single-Put batches from as many threads so
/// they land in **one** cohort, deterministically, even on one core.
///
/// A barrier alone cannot do that: the first thread released may run
/// its whole commit before any other is scheduled, and the
/// degenerate-to-immediate window (`queued >= committers`) then
/// flushes a cohort of one. So a *plug* commit goes first, and the
/// fault policy holds it at its `GroupWake` — past its fsync, with the
/// flush mutex held — while the members enter `commit`. The plug is
/// released only once the store reports every member queued, so
/// whichever member leads after it drains the whole cohort at once.
///
/// Returns `(plug_outcome, member_outcomes)`.
#[allow(clippy::type_complexity)]
fn group_burst(
    store: &Arc<hipac_storage::DurableStore>,
    faults: &Arc<FaultPolicy>,
    committers: usize,
    seed: u64,
) -> (
    std::result::Result<(), hipac_common::HipacError>,
    Vec<std::result::Result<(), hipac_common::HipacError>>,
) {
    use hipac_storage::fault::FaultPoint;

    let put = |key: Vec<u8>| {
        vec![hipac_storage::StoreOp::Put {
            key,
            value: seed.to_le_bytes().to_vec(),
        }]
    };
    faults.hold_next(FaultPoint::GroupWake);
    let plug = {
        let store = Arc::clone(store);
        let ops = put(b"gplug".to_vec());
        std::thread::spawn(move || store.commit(TxnId(999), ops))
    };
    while !faults.is_holding() && !plug.is_finished() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let joins: Vec<_> = (0..committers)
        .map(|i| {
            let store = Arc::clone(store);
            let ops = put(group_store_key(i));
            std::thread::spawn(move || store.commit(TxnId(1000 + i as u64), ops))
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while store.group_commit_queued() < committers && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = store.group_commit_queued();
    faults.release();
    assert_eq!(queued, committers, "the cohort never queued");
    let plug_result = plug.join().expect("plug committer panicked");
    let member_results = joins
        .into_iter()
        .map(|j| j.join().expect("committer panicked"))
        .collect();
    (plug_result, member_results)
}

/// Arm a crash at absolute fault-point `hit`, run the cohort burst,
/// then recover with a clean policy and count surviving members.
/// Structural invariants asserted here: the crash fired, the cohort
/// did not split, and **no member was acked** — the flush fails the
/// whole cohort, so an ack can never precede the cohort's fsync.
fn group_crash_phase(seed: u64, committers: usize, hit: u64, tag: &str) -> usize {
    let dir = fresh_dir(&format!("groupmatrix-{tag}"), seed);
    let faults = FaultPolicy::crash_at(hit, seed);
    {
        let store = open_group_store(&dir, Arc::clone(&faults));
        let (plug, members) = group_burst(&store, &faults, committers, seed);
        assert!(
            faults.has_crashed(),
            "{tag}: armed crash at hit {hit} never fired"
        );
        plug.expect("plug commit precedes the armed crash");
        let stats = store.group_commit_stats();
        assert_eq!(
            stats.largest_group, committers as u64,
            "{tag}: cohort split under the crash run"
        );
        for (i, r) in members.iter().enumerate() {
            assert!(
                r.is_err(),
                "{tag}: member {i} was acked although its cohort's flush crashed"
            );
        }
    }
    // "Reboot": reopen the same directory with a clean policy.
    let store = open_group_store(&dir, FaultPolicy::none());
    assert!(
        store.get(b"gplug").expect("recovered store must read").is_some(),
        "{tag}: the acked plug commit was lost"
    );
    let mut recovered = 0usize;
    for i in 0..committers {
        if store
            .get(&group_store_key(i))
            .expect("recovered store must read")
            .is_some()
        {
            recovered += 1;
        }
    }
    // Recovery equality: the cohort shares one WAL flush, so recovery
    // treats every member identically — all present or none.
    assert!(
        recovered == 0 || recovered == committers,
        "{tag}: recovery split the cohort ({recovered}/{committers} members)"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    recovered
}

/// Crash-matrix extension for the group-commit window: the leader dies
/// (a) *pre-fsync*, at the cohort's `WalSync`, and (b) *post-fsync
/// pre-wake*, at `GroupWake` — the cohort-wide "durable but unacked"
/// window. Phase (b) must recover **every** cohort member: the fsync
/// covered all of them, and none was acked.
///
/// Crash placement is calibrated, not guessed: a count-only run of the
/// identical burst logs the fault points the cohort crosses, and the
/// crash runs arm those exact indices.
pub fn run_group_crash_matrix(seed: u64, committers: usize) -> GroupCrashMatrixReport {
    use hipac_storage::fault::FaultPoint;

    // Calibration: find the cohort's WalSync and GroupWake indices.
    let (wal_sync_hit, group_wake_hit) = {
        let dir = fresh_dir("groupmatrix-calib", seed);
        let faults = FaultPolicy::count_only();
        let store = open_group_store(&dir, Arc::clone(&faults));
        let (plug, members) = group_burst(&store, &faults, committers, seed);
        plug.expect("calibration plug commit failed");
        assert!(members.iter().all(|r| r.is_ok()), "calibration burst failed");
        let stats = store.group_commit_stats();
        assert_eq!(
            stats.largest_group, committers as u64,
            "calibration cohort split"
        );
        let log = faults.log();
        let wake = log
            .iter()
            .rposition(|p| *p == FaultPoint::GroupWake)
            .expect("cohort never crossed GroupWake");
        let sync = log[..wake]
            .iter()
            .rposition(|p| *p == FaultPoint::WalSync)
            .expect("no WalSync before the cohort's GroupWake");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        (sync as u64, wake as u64)
    };

    let prefsync_recovered = group_crash_phase(seed, committers, wal_sync_hit, "prefsync");
    let postfsync_recovered = group_crash_phase(seed, committers, group_wake_hit, "postfsync");
    assert_eq!(
        postfsync_recovered, committers,
        "post-fsync pre-wake crash lost cohort members: the fsync made \
         the whole cohort durable before the crash"
    );

    GroupCrashMatrixReport {
        cohort: committers as u64,
        wal_sync_hit,
        group_wake_hit,
        prefsync_recovered,
        postfsync_recovered,
    }
}
