//! Tenant-isolation torture: the multi-tenant hardening layer under
//! hostile identities, noisy-neighbor floods, and crashes at the
//! slow-subscriber eviction point.
//!
//! Three phases, all driven from one seed:
//!
//! * **Hostile identity** — a peer that authenticates as itself and
//!   then asserts a *victim's* `client_id` on keyed requests, presents
//!   forged tokens, and tries to subscribe to / ack pushes for a
//!   handler the victim owns. Every attempt must be refused
//!   `AuthFailed`, the victim's own replay must still answer from the
//!   dedup window, and — the regression this phase pins — the victim's
//!   first *real* use of a sequence the hostile peer asserted must
//!   execute instead of replaying a poisoned refusal.
//! * **Noisy tenant** — worker connections flooding one tenant through
//!   a seeded [`ChaosProxy`] against per-tenant admission budgets,
//!   while a quiet tenant lands a sequential workload through the same
//!   proxy. The noisy tenant must absorb shedding; the quiet tenant's
//!   committed state must equal an uncontended run's.
//! * **Eviction under crash** — a calibrated sweep of storage crash
//!   points across the eviction finalization window (tombstone + GC
//!   batch, teardown, `SubscriberEvicted` signal). After every crash
//!   and restart the user rule on the eviction event must have logged
//!   **exactly one** row: the pending tombstone re-fires the signal if
//!   the crash beat the done-marker, the done-marker suppresses it if
//!   not, and a crash before the tombstone leaves the over-budget
//!   outbox in place for the next delivery to re-detect.

use crate::netchaos::{ChaosConfig, ChaosProxy};
use crate::restart::fresh_dir;
use hipac::ActiveDatabase;
use hipac_common::{Value, ValueType};
use hipac_event::EventSpec;
use hipac_net::proto::{Command, Frame, Reply, RequestMeta, PROTOCOL_VERSION};
use hipac_net::{ClientConfig, HipacClient, HipacServer, ServerConfig};
use hipac_object::{AttrDef, Expr, Query};
use hipac_rules::{Action, ActionOp, DbAction, RuleDef};
use hipac_storage::fault::FaultPolicy;
use hipac_storage::journal;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SECRET: &[u8] = b"tenant-torture-secret";

/// Knobs for one torture run; everything derives from `seed`.
#[derive(Debug, Clone)]
pub struct TenantTortureConfig {
    /// Master seed: chaos schedule, client ids.
    pub seed: u64,
    /// Spoofed keyed requests the hostile peer fires in phase A.
    pub spoof_attempts: u64,
    /// Noisy flood worker connections in phase B.
    pub noisy_workers: usize,
    /// Values the quiet tenant must land through the flood.
    pub quiet_txns: i64,
    /// Chaos fault probability percent for phase B.
    pub chaos_percent: u32,
    /// Cap on distinct crash points swept in phase C.
    pub max_crash_points: u64,
    /// Wall-clock budget for each phase.
    pub budget: Duration,
}

impl TenantTortureConfig {
    /// The fast CI shape.
    pub fn fast(seed: u64) -> TenantTortureConfig {
        TenantTortureConfig {
            seed,
            spoof_attempts: 8,
            noisy_workers: 6,
            quiet_txns: 24,
            chaos_percent: 3,
            max_crash_points: 10,
            budget: Duration::from_secs(30),
        }
    }
}

/// Raw evidence from one run; assertions live with the caller.
#[derive(Debug)]
pub struct TenantTortureReport {
    /// The seed the run used.
    pub seed: u64,
    /// Phase A: spoofed keyed requests refused `AuthFailed`.
    pub spoof_refusals: u64,
    /// Phase A: forged-token `Auth` attempts refused.
    pub forged_token_refusals: u64,
    /// Phase A: hostile subscribes to the victim's handler refused.
    pub foreign_subscribe_refusals: u64,
    /// Phase A: hostile acks against the victim's handler refused.
    pub foreign_ack_refusals: u64,
    /// Phase A: the victim's retried commit replayed `Ok`.
    pub victim_replay_ok: bool,
    /// Phase A: the victim's first real use of a spoofed-at sequence
    /// executed instead of replaying a poisoned refusal.
    pub dedup_poison_blocked: bool,
    /// Phase A: the server's `auth_failures` gauge at the end.
    pub auth_failures: u64,
    /// Phase B: values the quiet tenant landed (must equal the ask).
    pub quiet_landed: i64,
    /// Phase B: quiet-tenant committed counts (each must be 1).
    pub quiet_counts: HashMap<i64, usize>,
    /// Phase B: per-tenant shed decisions the noisy tenant absorbed.
    pub tenant_sheds: u64,
    /// Phase C: crash points actually swept (crash fired and the run
    /// restarted); bounded by the finalize window and the config cap.
    pub crash_points: u64,
    /// Phase C: sweep points where the post-restart evlog held exactly
    /// one row. Must equal `crash_points`.
    pub exactly_once_points: u64,
}

fn raw_roundtrip(stream: &mut TcpStream, id: u64, meta: RequestMeta, command: Command) -> Reply {
    stream
        .write_all(&Frame::Request { id, meta, command }.encode())
        .expect("raw write");
    loop {
        match Frame::read_from(stream).expect("raw read").expect("reply") {
            Frame::Response { id: rid, reply } if rid == id => return reply,
            Frame::Response { .. } | Frame::Push(_) => continue,
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// One flood request: `None` once chaos broke the connection.
fn flood_roundtrip(
    stream: &mut TcpStream,
    id: u64,
    meta: RequestMeta,
    command: Command,
) -> Option<Reply> {
    stream
        .write_all(&Frame::Request { id, meta, command }.encode())
        .ok()?;
    loop {
        match Frame::read_from(stream) {
            Ok(Some(Frame::Response { id: rid, reply })) if rid == id => return Some(reply),
            Ok(Some(_)) => continue,
            _ => return None,
        }
    }
}

/// Open an authenticated session: Ping, then a real token.
fn authed_session(addr: std::net::SocketAddr, client_id: u64) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    let ping = Command::Ping {
        version: PROTOCOL_VERSION,
    };
    match raw_roundtrip(&mut s, 1, RequestMeta::default(), ping) {
        Reply::Pong {
            version: PROTOCOL_VERSION,
        } => {}
        other => panic!("ping produced {other:?}"),
    }
    let token = hipac_net::auth::session_token(SECRET, client_id).to_vec();
    match raw_roundtrip(&mut s, 2, RequestMeta::default(), Command::Auth { client_id, token }) {
        Reply::Ok => s,
        other => panic!("auth produced {other:?}"),
    }
}

fn is_auth_failed(reply: &Reply) -> bool {
    matches!(reply, Reply::Err { kind, .. } if kind == "AuthFailed")
}

// ---------------------------------------------------------------------------
// Phase A: hostile identity.
// ---------------------------------------------------------------------------

struct HostilePhase {
    spoof_refusals: u64,
    forged_token_refusals: u64,
    foreign_subscribe_refusals: u64,
    foreign_ack_refusals: u64,
    victim_replay_ok: bool,
    dedup_poison_blocked: bool,
    auth_failures: u64,
}

fn run_hostile_phase(cfg: &TenantTortureConfig) -> HostilePhase {
    let db = Arc::new(
        ActiveDatabase::builder()
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open db"),
    );
    db.run_top(|t| {
        db.store()
            .create_class(t, "t", None, vec![AttrDef::new("n", ValueType::Int)])?;
        Ok(())
    })
    .expect("schema");
    let server = HipacServer::bind_with(
        db,
        "127.0.0.1:0",
        ServerConfig {
            auth_secret: Some(SECRET.to_vec()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let victim_id = 0x71C ^ (cfg.seed << 4);
    let hostile_id = victim_id ^ 0xFFFF;

    // Victim: one keyed committed transaction (seqs 1..=3) and an
    // owned push handler.
    let mut victim = authed_session(server.local_addr(), victim_id);
    let vmeta = |seq: u64| RequestMeta {
        client_id: victim_id,
        seq,
        deadline_ms: 0,
    };
    let txn = match raw_roundtrip(&mut victim, 10, vmeta(1), Command::Begin) {
        Reply::Txn(t) => t,
        other => panic!("victim begin produced {other:?}"),
    };
    match raw_roundtrip(
        &mut victim,
        11,
        vmeta(2),
        Command::Insert {
            txn,
            class: "t".into(),
            values: vec![Value::from(1)],
        },
    ) {
        Reply::Object(_) => {}
        other => panic!("victim insert produced {other:?}"),
    }
    assert_eq!(
        raw_roundtrip(&mut victim, 12, vmeta(3), Command::Commit { txn }),
        Reply::Ok
    );
    assert_eq!(
        raw_roundtrip(
            &mut victim,
            13,
            RequestMeta::default(),
            Command::Subscribe { handler: "victims-feed".into() }
        ),
        Reply::Ok
    );

    // Hostile: authenticated as itself, asserting the victim's id on
    // keyed requests at sequences the victim has not used yet.
    let mut hostile = authed_session(server.local_addr(), hostile_id);
    let mut spoof_refusals = 0u64;
    for i in 0..cfg.spoof_attempts {
        let meta = RequestMeta {
            client_id: victim_id,
            seq: 4 + i,
            deadline_ms: 0,
        };
        if is_auth_failed(&raw_roundtrip(&mut hostile, 20 + i, meta, Command::Begin)) {
            spoof_refusals += 1;
        }
    }
    // Forged tokens: the right client_id with the wrong MAC.
    let mut forged_token_refusals = 0u64;
    for i in 0..3u64 {
        let mut token = hipac_net::auth::session_token(SECRET, victim_id).to_vec();
        let at = (i as usize) % token.len();
        token[at] ^= 0x5a;
        let reply = raw_roundtrip(
            &mut hostile,
            40 + i,
            RequestMeta::default(),
            Command::Auth { client_id: victim_id, token },
        );
        if is_auth_failed(&reply) {
            forged_token_refusals += 1;
        }
    }
    // The victim's handler: neither subscribe nor ack crosses tenants.
    let mut foreign_subscribe_refusals = 0u64;
    if is_auth_failed(&raw_roundtrip(
        &mut hostile,
        50,
        RequestMeta::default(),
        Command::Subscribe { handler: "victims-feed".into() },
    )) {
        foreign_subscribe_refusals += 1;
    }
    let mut foreign_ack_refusals = 0u64;
    if is_auth_failed(&raw_roundtrip(
        &mut hostile,
        51,
        RequestMeta::default(),
        Command::AckPush { handler: "victims-feed".into(), seq: 1 },
    )) {
        foreign_ack_refusals += 1;
    }

    // The victim is unharmed: its retried commit still replays from
    // the dedup window...
    let victim_replay_ok =
        raw_roundtrip(&mut victim, 60, vmeta(3), Command::Commit { txn }) == Reply::Ok;
    // ...and its first real use of a sequence the hostile peer
    // asserted executes instead of replaying a poisoned refusal.
    let dedup_poison_blocked = matches!(
        raw_roundtrip(&mut victim, 61, vmeta(4), Command::Begin),
        Reply::Txn(_)
    );

    HostilePhase {
        spoof_refusals,
        forged_token_refusals,
        foreign_subscribe_refusals,
        foreign_ack_refusals,
        victim_replay_ok,
        dedup_poison_blocked,
        auth_failures: server.auth_failures(),
    }
}

// ---------------------------------------------------------------------------
// Phase B: noisy tenant flood through chaos.
// ---------------------------------------------------------------------------

struct NoisyPhase {
    quiet_landed: i64,
    quiet_counts: HashMap<i64, usize>,
    tenant_sheds: u64,
}

fn run_noisy_phase(cfg: &TenantTortureConfig) -> NoisyPhase {
    let db = Arc::new(
        ActiveDatabase::builder()
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open db"),
    );
    let hot = db
        .run_top(|t| {
            db.store()
                .create_class(t, "quiet", None, vec![AttrDef::new("n", ValueType::Int)])?;
            db.store()
                .create_class(t, "hot", None, vec![AttrDef::new("n", ValueType::Int)])?;
            db.store().insert(t, "hot", vec![Value::Int(0)])
        })
        .expect("schema");
    // The flood's overlap is lock-driven, not statistical: this
    // transaction holds the write lock on the one `hot` row, and every
    // flood transaction updates that row before its abort. Flood
    // requests therefore wait in the lock manager while they count
    // against the tenant's budget, so a third one is always shed.
    let holder = db.begin();
    db.store()
        .update(holder, hot, &[("n", Value::Int(1))])
        .expect("hold the hot row");
    let server = HipacServer::bind_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            // The tenant budget the noisy flood must absorb. No global
            // cap: only per-tenant isolation stands between the flood
            // and the quiet tenant.
            tenant_max_inflight: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let proxy = Arc::new(
        ChaosProxy::spawn(
            server.local_addr(),
            ChaosConfig::percent(cfg.seed, cfg.chaos_percent),
        )
        .expect("spawn proxy"),
    );
    let proxy_addr = proxy.local_addr().to_string();
    let noisy_id = 0xA01E ^ cfg.seed;

    // Noisy flood: raw connections all asserting the same tenant with
    // unkeyed requests (no dedup interference), reconnecting through
    // chaos resets until stopped. Each transaction waits on the held
    // `hot` row, then aborts.
    let stop = Arc::new(AtomicBool::new(false));
    let mut flood = Vec::new();
    for _ in 0..cfg.noisy_workers {
        let addr = proxy_addr.clone();
        let stop = Arc::clone(&stop);
        flood.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let Ok(mut s) = TcpStream::connect(&*addr) else {
                    continue;
                };
                let meta = RequestMeta {
                    client_id: noisy_id,
                    seq: 0,
                    deadline_ms: 0,
                };
                let mut id = 0u64;
                let mut request = |command: Command| {
                    id += 1;
                    flood_roundtrip(&mut s, id, meta, command)
                };
                while !stop.load(Ordering::Relaxed) {
                    let Some(reply) = request(Command::Begin) else {
                        break;
                    };
                    if let Reply::Txn(txn) = reply {
                        let update = Command::Update {
                            txn,
                            oid: hot.raw(),
                            assignments: vec![("n".into(), Value::Int(2))],
                        };
                        if request(update).is_none() || request(Command::Abort { txn }).is_none() {
                            break;
                        }
                    }
                }
            }
        }));
    }

    // Quiet tenant: a sequential exactly-once workload through the
    // same proxy.
    let quiet = HipacClient::connect_with(
        proxy_addr,
        ClientConfig {
            client_id: 0x0B5E ^ cfg.seed,
            max_retries: 64,
            backoff: Duration::from_millis(1),
            retry_ambiguous: true,
            connect_retry: true,
            ..ClientConfig::default()
        },
    );
    let deadline = Instant::now() + cfg.budget;
    // A quiet client that never got through the chaos lands nothing,
    // and the report says so.
    let mut quiet_landed = 0i64;
    for i in 0..cfg.quiet_txns {
        if quiet
            .as_ref()
            .is_ok_and(|q| crate::restart::land_value(q, "quiet", i, deadline))
        {
            quiet_landed += 1;
        }
    }
    // Let the flood keep hammering until the per-tenant budget has
    // demonstrably shed at least once (two flood requests parked on
    // the hot row fill the budget, so the next one is shed).
    while server.tenant_shed_requests() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Release the hot row before the flood stops, so no flood request
    // is left waiting out the lock timeout.
    db.abort(holder).expect("abort the hot-row holder");
    stop.store(true, Ordering::Relaxed);
    proxy.break_connections();
    for t in flood {
        t.join().expect("join flood worker");
    }
    let quiet_counts = db
        .run_top(|t| {
            let rows = db.store().query(t, &Query::all("quiet"), None)?;
            let mut counts = HashMap::new();
            for r in rows {
                if let Value::Int(n) = r.values[0] {
                    *counts.entry(n).or_insert(0usize) += 1;
                }
            }
            Ok(counts)
        })
        .expect("read quiet counts");

    NoisyPhase {
        quiet_landed,
        quiet_counts,
        tenant_sheds: server.tenant_shed_requests(),
    }
}

// ---------------------------------------------------------------------------
// Phase C: eviction under crash.
// ---------------------------------------------------------------------------

/// Schema + rules: inserts into `p` push to handler `slow`; the
/// `SubscriberEvicted` event (defined by the server at bind) fires a
/// rule logging the evicted handler into `evlog`.
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

fn evict_config() -> ServerConfig {
    ServerConfig {
        outbox_evict_bytes: 200,
        ..ServerConfig::default()
    }
}

fn evlog_count(db: &Arc<ActiveDatabase>) -> usize {
    db.run_top(|t| Ok(db.store().query(t, &Query::all("evlog"), None)?.len()))
        .expect("read evlog")
}

fn subscribe_slow(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect subscriber");
    assert_eq!(
        raw_roundtrip(
            &mut s,
            1,
            RequestMeta::default(),
            Command::Subscribe { handler: "slow".into() }
        ),
        Reply::Ok
    );
    s
}

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

/// Drive inserts into `p` until the eviction is detected (an insert
/// fails against the dead-lettered handler) or `deadline` passes.
fn flood_until_evicted(client: &HipacClient, deadline: Instant) {
    let mut v = 0i64;
    while Instant::now() < deadline {
        if !try_insert_p(client, v) {
            return;
        }
        v += 1;
    }
    panic!("eviction never detected before the deadline");
}

/// Calibration: run the full eviction flow on a count-only policy and
/// return `(detect_hits, settle_hits)` — the fault-point window inside
/// which the finalization (tombstone + GC, teardown, signal) runs.
fn measure_evict_window(seed: u64, budget: Duration) -> (u64, u64) {
    let dir = fresh_dir("tenantcalib", seed);
    let faults = FaultPolicy::count_only();
    let db = Arc::new(
        ActiveDatabase::builder()
            .durable(&dir)
            .storage_faults(Arc::clone(&faults))
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open calibration db"),
    );
    let server =
        HipacServer::bind_with(Arc::clone(&db), "127.0.0.1:0", evict_config()).expect("bind");
    setup_evict_schema(&db);
    let _lazy = subscribe_slow(server.local_addr());
    let writer = HipacClient::connect(server.local_addr().to_string()).expect("connect writer");
    let deadline = Instant::now() + budget;
    flood_until_evicted(&writer, deadline);
    let detect_hits = faults.hits();
    while server.subscribers_evicted() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.subscribers_evicted(), 1, "calibration eviction never finalized");
    db.quiesce();
    let settle_hits = faults.hits();
    drop(server);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    (detect_hits, settle_hits)
}

/// One armed run: crash at absolute fault-point `hit`, restart, and
/// return the final evlog row count (driving a fresh eviction if the
/// crash beat the tombstone entirely). Returns `None` when the armed
/// point was never reached (the run completed without crashing).
fn evict_crash_run(seed: u64, hit: u64, budget: Duration) -> Option<usize> {
    let dir = fresh_dir("tenantcrash", seed);
    let faults = FaultPolicy::crash_at(hit, seed);
    let db1 = Arc::new(
        ActiveDatabase::builder()
            .durable(&dir)
            .storage_faults(Arc::clone(&faults))
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("open torture db"),
    );
    let mut server1 =
        HipacServer::bind_with(Arc::clone(&db1), "127.0.0.1:0", evict_config()).expect("bind");
    setup_evict_schema(&db1);
    let lazy = subscribe_slow(server1.local_addr());
    let writer = HipacClient::connect(server1.local_addr().to_string()).expect("connect writer");
    let deadline = Instant::now() + budget;
    flood_until_evicted(&writer, deadline);
    let crash_wait = Instant::now() + Duration::from_secs(3);
    while !faults.has_crashed() && Instant::now() < crash_wait {
        std::thread::sleep(Duration::from_millis(2));
    }
    let crashed = faults.has_crashed();
    server1.shutdown();
    drop(server1);
    drop(writer);
    drop(lazy);
    drop(db1);
    if !crashed {
        let _ = std::fs::remove_dir_all(&dir);
        return None;
    }

    // Reboot onto the same directory with a clean policy.
    let db2 = Arc::new(
        ActiveDatabase::builder()
            .durable(&dir)
            .lock_timeout(Duration::from_secs(3))
            .build()
            .expect("reopen torture db"),
    );
    let server2 =
        HipacServer::bind_with(Arc::clone(&db2), "127.0.0.1:0", evict_config()).expect("rebind");
    // A restored pending tombstone re-fires through the housekeeper;
    // give it a moment.
    let refire_wait = Instant::now() + Duration::from_secs(2);
    while evlog_count(&db2) == 0 && Instant::now() < refire_wait {
        std::thread::sleep(Duration::from_millis(5));
    }
    if evlog_count(&db2) == 0 {
        // The crash beat the tombstone batch: the over-budget outbox
        // survived intact, so fresh traffic must re-detect and evict.
        let lazy2 = subscribe_slow(server2.local_addr());
        let writer2 =
            HipacClient::connect(server2.local_addr().to_string()).expect("connect writer2");
        flood_until_evicted(&writer2, deadline);
        let wait = Instant::now() + Duration::from_secs(2);
        while server2.subscribers_evicted() == 0 && Instant::now() < wait {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(writer2);
        drop(lazy2);
    }
    db2.quiesce();
    let rows = evlog_count(&db2);
    // Settled tombstone invariants: outbox space reclaimed, done-state
    // tombstone in place.
    let d = db2.durable_store().expect("durable store");
    let q = d.scan_prefix(&[journal::OUTBOX_PREFIX]).expect("scan q").len();
    let k = d.scan_prefix(&[journal::PUSH_SEQ_PREFIX]).expect("scan k").len();
    let v = d.scan_prefix(&[journal::EVICT_PREFIX]).expect("scan v").len();
    assert_eq!((q, k, v), (0, 0, 1), "hit {hit}: eviction GC state not settled");
    drop(server2);
    drop(db2);
    let _ = std::fs::remove_dir_all(&dir);
    Some(rows)
}

/// Run the full tenant-isolation torture. See the module docs for the
/// phases; the returned report carries raw evidence only.
pub fn run_tenant_torture(cfg: &TenantTortureConfig) -> TenantTortureReport {
    let hostile = run_hostile_phase(cfg);
    let noisy = run_noisy_phase(cfg);

    // The housekeeper can finish the whole finalization before the
    // failing insert's reply reaches a descheduled writer; that
    // calibration saw no window at all, so it is measured again.
    let (detect, settle) = (0..5)
        .map(|_| measure_evict_window(cfg.seed, cfg.budget))
        .find(|(detect, settle)| settle > detect)
        .unwrap_or((0, 0));
    let window = settle.saturating_sub(detect).min(cfg.max_crash_points);
    let mut crash_points = 0u64;
    let mut exactly_once_points = 0u64;
    for i in 0..window {
        let hit = detect + 1 + i;
        if let Some(rows) = evict_crash_run(cfg.seed, hit, cfg.budget) {
            crash_points += 1;
            if rows == 1 {
                exactly_once_points += 1;
            }
        }
    }

    TenantTortureReport {
        seed: cfg.seed,
        spoof_refusals: hostile.spoof_refusals,
        forged_token_refusals: hostile.forged_token_refusals,
        foreign_subscribe_refusals: hostile.foreign_subscribe_refusals,
        foreign_ack_refusals: hostile.foreign_ack_refusals,
        victim_replay_ok: hostile.victim_replay_ok,
        dedup_poison_blocked: hostile.dedup_poison_blocked,
        auth_failures: hostile.auth_failures,
        quiet_landed: noisy.quiet_landed,
        quiet_counts: noisy.quiet_counts,
        tenant_sheds: noisy.tenant_sheds,
        crash_points,
        exactly_once_points,
    }
}
