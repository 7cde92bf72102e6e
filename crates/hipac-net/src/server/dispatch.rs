//! One request's path through the server: the identity gate, the
//! dedup probe, drain and poison refusals, admission, the reply
//! journal, execution against the engine, and the semi-sync hold.

use super::admission::DedupProbe;
use super::shard::ConnShared;
use super::ServerCtx;
use crate::proto::{ping_reply, Command, Reply, RequestMeta, WireStats};
use hipac::EngineStats;
use hipac_common::{HipacError, ObjectId, Result as HipacResult, TxnId, Value};
use hipac_object::{AttrDef, Query};
use hipac_storage::journal;
use hipac_storage::StoreOp;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The resilience pipeline around [`dispatch`]: idempotency replay
/// (in-memory window, backed by the durable journal across restarts),
/// drain/poison refusal, admission control (static cap + adaptive
/// queueing-delay signal), then the reply is remembered for future
/// retries of the same `(client_id, seq)`. Refusals (`Draining`,
/// `Overloaded`, `ReplyEvicted`) return before the window insert, so a
/// retried `seq` re-executes once capacity is back; `Io` replies are
/// *never* remembered — their outcome is ambiguous in memory and only
/// the recovered journal can answer the retry truthfully.
pub(super) fn handle(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, meta: RequestMeta, command: Command) -> Reply {
    let keyed = meta.client_id != 0 && meta.seq != 0;
    // Identity gate: with auth enabled, a keyed request is honored
    // only for the session's proven identity. Refusing *before* the
    // dedup probe and before any window/journal insert is what stops a
    // hostile peer asserting a foreign `client_id` from reading that
    // tenant's cached replies — or poisoning its dedup state with
    // refusal entries under sequences the victim has yet to use.
    if keyed
        && ctx.cfg.auth_secret.is_some()
        && conn.core.lock().auth != Some(meta.client_id)
    {
        ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
        return Reply::Err {
            kind: "AuthFailed".to_owned(),
            message: "client_id not authenticated on this session".to_owned(),
        };
    }
    if keyed {
        let probed = ctx
            .shared
            .dedup_stripe(meta.client_id)
            .lock()
            .probe(meta.client_id, meta.seq);
        match probed {
            DedupProbe::Hit(cached) => {
                ctx.shared.dedup_hits.fetch_add(1, Ordering::Relaxed);
                if cached.restored {
                    ctx.shared.journal_replays.fetch_add(1, Ordering::Relaxed);
                }
                return cached.reply;
            }
            DedupProbe::Evicted => {
                return Reply::Err {
                    kind: "ReplyEvicted".to_owned(),
                    message: "idempotency entry evicted; outcome unknown".to_owned(),
                };
            }
            DedupProbe::Miss => {}
        }
    }
    if ctx.shared.storage_poisoned.load(Ordering::Acquire) {
        return Reply::Err {
            kind: "Draining".to_owned(),
            message: "storage failed; server requires restart".to_owned(),
        };
    }
    if ctx.shared.draining.load(Ordering::Acquire) {
        return Reply::Err {
            kind: "Draining".to_owned(),
            message: "server is draining; open transactions will abort".to_owned(),
        };
    }
    // Tenant identity for admission control: the *proven* identity
    // when auth is on (sessions that never sent `Auth` share class 0),
    // the asserted one otherwise.
    let tenant_id = if ctx.cfg.auth_secret.is_some() {
        conn.core.lock().auth.unwrap_or(0)
    } else {
        meta.client_id
    };
    let tenant = ctx.shared.tenant(tenant_id);
    let in_flight = ctx.shared.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
    let tenant_in_flight = tenant.fetch_add(1, Ordering::AcqRel) + 1;
    let release = || {
        ctx.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        tenant.fetch_sub(1, Ordering::AcqRel);
    };
    if ctx.cfg.max_inflight > 0 && in_flight > ctx.cfg.max_inflight as u64 {
        release();
        ctx.shared.shed_requests.fetch_add(1, Ordering::Relaxed);
        return Reply::Err {
            kind: "Overloaded".to_owned(),
            message: "admission budget exhausted; retry later".to_owned(),
        };
    }
    if ctx.cfg.tenant_max_inflight > 0 && tenant_in_flight > ctx.cfg.tenant_max_inflight as u64 {
        release();
        ctx.shared.tenant_shed_requests.fetch_add(1, Ordering::Relaxed);
        return Reply::Err {
            kind: "Overloaded".to_owned(),
            message: "tenant admission budget exhausted; retry later".to_owned(),
        };
    }
    if let Some(limit) = ctx.cfg.shed_queue_delay {
        // Adaptive signal, tenant-weighted: shed while dispatches are
        // slower than the target and the *requesting tenant* already
        // has work in flight. A noisy tenant (whose requests pile up)
        // absorbs the shedding its own load causes; a quiet tenant's
        // lone request still admits — and a lone request overall keeps
        // admitting, so the signal can decay.
        let ewma = Duration::from_micros(ctx.shared.ewma_us.load(Ordering::Relaxed));
        if tenant_in_flight >= 2 && ewma > limit {
            release();
            ctx.shared.shed_adaptive.fetch_add(1, Ordering::Relaxed);
            return Reply::Err {
                kind: "Overloaded".to_owned(),
                message: "queueing delay over budget; retry later".to_owned(),
            };
        }
    }

    // Arm the crash-atomic reply journal for keyed commits: the
    // predicted ack (a commit that succeeds always replies `Ok`)
    // rides the commit's own WAL batch, along with deletes for any
    // entries evicted from the window since the last journaled
    // commit.
    let is_commit = matches!(command, Command::Commit { .. });
    let durable = ctx.db.durable_store();
    let journaling = keyed && is_commit && durable.is_some();
    if journaling {
        let mut ops = vec![StoreOp::Put {
            key: journal::reply_key(meta.client_id, meta.seq),
            value: journal::seal(&Reply::Ok.to_bytes()),
        }];
        for (c, s) in ctx.shared.pending_evictions.lock().drain(..) {
            ops.push(StoreOp::Delete {
                key: journal::reply_key(c, s),
            });
        }
        journal::set_pending_ops(ops);
    }
    let started = Instant::now();
    let reply = dispatch(ctx, conn, meta, command);
    let spent = started.elapsed().as_micros() as u64;
    let prev = ctx.shared.ewma_us.load(Ordering::Relaxed);
    ctx.shared
        .ewma_us
        .store(prev - prev / 8 + spent / 8, Ordering::Relaxed);
    release();
    if journaling {
        if let Some(ops) = journal::take_pending_ops() {
            // The dispatch never flushed a transactional batch
            // (read-only commit). If it succeeded, the predicted
            // ack still holds — persist it as a standalone
            // metadata batch; a failed dispatch discards the
            // annotation (error outcomes are not journaled).
            if reply == Reply::Ok {
                if let Some(d) = durable {
                    let _ = d.commit(TxnId(0), ops);
                }
            }
        }
    }
    // Semi-sync replication: hold the commit ack until every
    // connected replica has durably applied up to the committing
    // frontier. A timeout degrades this commit to async rather
    // than stalling the session indefinitely.
    if ctx.cfg.sync_repl && is_commit && reply == Reply::Ok {
        ctx.repl.wait_caught_up(ctx.cfg.sync_repl_timeout);
    }
    let io_error = matches!(&reply, Reply::Err { kind, .. } if kind == "Io");
    if io_error && durable.is_some() {
        // The WAL and the in-memory engine may now disagree;
        // answering further requests from poisoned state could
        // break exactly-once. Fail definite-and-loud until the
        // operator restarts into recovery.
        ctx.shared.storage_poisoned.store(true, Ordering::Release);
    }
    if keyed && !io_error {
        let evicted = ctx.shared.dedup_stripe(meta.client_id).lock().remember(
            meta.client_id,
            meta.seq,
            &reply,
            journaling && reply == Reply::Ok,
            false,
        );
        if !evicted.is_empty() {
            ctx.shared.pending_evictions.lock().extend(evicted);
        }
    }
    reply
}

fn dispatch(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, meta: RequestMeta, command: Command) -> Reply {
    // Propagate the request deadline into the engine: the
    // transaction this command works under sees it in lock waits
    // for the duration of the dispatch.
    let deadline = (meta.deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(meta.deadline_ms));
    let txn = deadline.and_then(|_| command_txn(&command));
    if let (Some(d), Some(t)) = (deadline, txn) {
        let _ = ctx.db.set_txn_deadline(t, Some(d));
    }
    let reply = match execute(ctx, conn, command) {
        Ok(reply) => reply,
        Err(e) => Reply::from(e),
    };
    if let Some(t) = txn {
        // Best effort: commit/abort may already have retired it.
        let _ = ctx.db.set_txn_deadline(t, None);
    }
    reply
}

fn execute(ctx: &Arc<ServerCtx>, conn: &Arc<ConnShared>, command: Command) -> HipacResult<Reply> {
    // Sessions own the transactions they begin: a command naming a
    // transaction this session did not begin (or already retired)
    // is refused with the definite `UnknownTxn`. This is what
    // makes a post-restart retry of an uncommitted transaction
    // safe — the id cannot alias a transaction some other session
    // opened in the new process incarnation.
    if let Some(t) = command_txn(&command) {
        if !conn.core.lock().open_txns.contains(&t) {
            return Err(HipacError::UnknownTxn(t));
        }
    }
    // Split-brain fence: a deposed primary serves reads, session
    // management and replication plumbing, but refuses every mutation
    // — a write acked here could never survive rejoin (the divergent
    // tail is truncated), so it must not be acked at all.
    if ctx.repl.fenced.load(Ordering::Acquire) && is_write_command(&command) {
        return Ok(Reply::Err {
            kind: "NotPrimary".to_owned(),
            message: "node is fenced: a newer replication epoch exists; \
                      write to the current primary"
                .to_owned(),
        });
    }
    Ok(match command {
        Command::Ping { version } => ping_reply(version),
        Command::Auth { client_id, token } => {
            if client_id == 0 {
                ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                Reply::Err {
                    kind: "AuthFailed".to_owned(),
                    message: "client_id 0 cannot authenticate".to_owned(),
                }
            } else {
                match &ctx.cfg.auth_secret {
                    // No secret configured: authentication is vacuous
                    // but *accepted*, so a client fleet can start
                    // presenting tokens before the server enforces
                    // them (roll the secret on clients first).
                    None => {
                        conn.core.lock().auth = Some(client_id);
                        Reply::Ok
                    }
                    Some(secret) => {
                        let expect = crate::auth::session_token(secret, client_id);
                        if crate::auth::token_eq(&token, &expect) {
                            conn.core.lock().auth = Some(client_id);
                            Reply::Ok
                        } else {
                            ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                            Reply::Err {
                                kind: "AuthFailed".to_owned(),
                                message: "invalid session token".to_owned(),
                            }
                        }
                    }
                }
            }
        }
        Command::Begin => {
            let t = ctx.db.begin();
            conn.core.lock().open_txns.insert(t);
            Reply::Txn(t)
        }
        Command::BeginChild { parent } => {
            let t = ctx.db.begin_child(parent)?;
            conn.core.lock().open_txns.insert(t);
            Reply::Txn(t)
        }
        Command::Commit { txn } => {
            let result = ctx.db.commit(txn);
            conn.core.lock().open_txns.remove(&txn);
            match result {
                Ok(()) => Reply::Ok,
                Err(e) => {
                    // A failed commit leaves the transaction dead;
                    // make sure it is really gone before reporting.
                    let _ = ctx.db.abort(txn);
                    return Err(e);
                }
            }
        }
        Command::Abort { txn } => {
            conn.core.lock().open_txns.remove(&txn);
            ctx.db.abort(txn)?;
            Reply::Ok
        }
        Command::CreateClass {
            txn,
            name,
            superclass,
            attrs,
        } => {
            let defs = attrs
                .into_iter()
                .map(AttrDef::try_from)
                .collect::<Result<Vec<_>, _>>()?;
            let cid = ctx
                .db
                .store()
                .create_class(txn, &name, superclass.as_deref(), defs)?;
            Reply::Id(cid.raw())
        }
        Command::Insert { txn, class, values } => {
            let oid = ctx.db.store().insert(txn, &class, values)?;
            Reply::Object(oid)
        }
        Command::Update {
            txn,
            oid,
            assignments,
        } => {
            let borrowed: Vec<(&str, Value)> = assignments
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            ctx.db.store().update(txn, ObjectId(oid), &borrowed)?;
            Reply::Ok
        }
        Command::Delete { txn, oid } => {
            ctx.db.store().delete(txn, ObjectId(oid))?;
            Reply::Ok
        }
        Command::Query { txn, text, params } => {
            let query = Query::parse(&text)?;
            let params = if params.is_empty() { None } else { Some(&params) };
            let rows = ctx.db.store().query(txn, &query, params)?;
            Reply::Rows(
                rows.into_iter()
                    .map(|r| crate::proto::WireRow {
                        oid: r.oid.raw(),
                        class: r.class.raw(),
                        // The reply owns its values: the one copy of
                        // a shared row version a remote query makes.
                        values: r.values.to_vec(),
                    })
                    .collect(),
            )
        }
        Command::DefineEvent { name, params } => {
            let borrowed: Vec<&str> = params.iter().map(String::as_str).collect();
            let eid = ctx.db.define_event(&name, &borrowed)?;
            Reply::Id(eid.raw())
        }
        Command::SignalEvent { name, args, txn } => {
            ctx.db.signal_event(&name, args, txn)?;
            Reply::Ok
        }
        Command::CreateRule { txn, rule } => {
            let def = hipac_rules::codec::decode_rule(&rule)?;
            let rid = ctx.db.rules().create_rule(txn, def)?;
            Reply::Id(rid.raw())
        }
        Command::DropRule { txn, name } => {
            ctx.db.rules().drop_rule(txn, &name)?;
            Reply::Ok
        }
        Command::EnableRule { txn, name } => {
            ctx.db.rules().enable_rule(txn, &name)?;
            Reply::Ok
        }
        Command::DisableRule { txn, name } => {
            ctx.db.rules().disable_rule(txn, &name)?;
            Reply::Ok
        }
        Command::Subscribe { handler } => {
            if ctx.cfg.auth_secret.is_some() {
                // Subscriptions bind to their first authenticated
                // owner; a foreign identity may neither take over the
                // handler nor receive its (possibly sensitive) backlog.
                let authed = conn.core.lock().auth;
                if !ctx.subs.claim_owner(&handler, authed) {
                    ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                    return Ok(Reply::Err {
                        kind: "AuthFailed".to_owned(),
                        message: format!("handler {handler} is owned by another tenant"),
                    });
                }
            }
            // An authorized re-subscribe revives a dead-lettered
            // handler (its preserved sequence counter resumes).
            ctx.subs.resurrect(&handler);
            // Register and catch up on unacked pushes in one step; the
            // client dedups redeliveries by sequence.
            let n = ctx.subs.subscribe(&ctx.db, &handler, conn);
            if n > 0 {
                ctx.shared.pushes_redelivered.fetch_add(n, Ordering::Relaxed);
            }
            Reply::Ok
        }
        Command::Unsubscribe { handler } => {
            ctx.subs.unsubscribe(&ctx.db, &handler, conn.id);
            Reply::Ok
        }
        Command::AckPush { handler, seq } => {
            if ctx.cfg.auth_secret.is_some()
                && !ctx.subs.may_touch(&handler, conn.core.lock().auth)
            {
                // A foreign ack would delete another tenant's unacked
                // frame — exactly-once delivery silently broken.
                ctx.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                return Ok(Reply::Err {
                    kind: "AuthFailed".to_owned(),
                    message: format!("handler {handler} is owned by another tenant"),
                });
            }
            ctx.subs.ack(&handler, seq);
            Reply::Ok
        }
        Command::ReplSubscribe { start_lsn, epoch } => {
            if ctx.repl.durable.is_none() {
                Reply::Err {
                    kind: "Unsupported".to_owned(),
                    message: "in-memory databases cannot be replicated".to_owned(),
                }
            } else {
                let own = ctx.repl.epoch();
                if epoch > own {
                    // The subscriber lives in a newer epoch than this
                    // node has ever observed: a promotion happened
                    // while it thought itself primary. Fence first,
                    // refuse second — the caller learns it must rejoin.
                    ctx.repl.fence(epoch);
                    return Err(HipacError::StaleEpoch {
                        current: epoch,
                        got: own,
                    });
                }
                // Registered by `process_frame` only after the Ok frame
                // is on the wire — see the `pending_repl` field docs.
                // (A stale-epoch subscriber is accepted: the hub
                // bootstraps it with a snapshot instead of trusting
                // its dead-LSN-space watermark.)
                conn.core.lock().pending_repl = Some((start_lsn, epoch));
                Reply::Ok
            }
        }
        Command::ReplProgress {
            applied_lsn,
            epoch,
            digest,
        } => {
            let own = ctx.repl.epoch();
            if epoch > own {
                // Progress from the future: same deposition signal as
                // a newer-epoch subscribe. This is also the heal path
                // — `fence_stale_primary` sends exactly this frame.
                ctx.repl.fence(epoch);
                return Err(HipacError::StaleEpoch {
                    current: epoch,
                    got: own,
                });
            }
            if epoch != 0 && epoch < own {
                // A deposed-epoch replica's progress must never
                // satisfy this epoch's semi-sync quorum.
                ctx.repl
                    .counters
                    .stale_epochs
                    .fetch_add(1, Ordering::Relaxed);
                return Err(HipacError::StaleEpoch {
                    current: own,
                    got: epoch,
                });
            }
            ctx.repl.record_progress(conn.id, applied_lsn, digest);
            Reply::Ok
        }
        Command::Stats => {
            let shared = &ctx.shared;
            // breaker_trips/breaker_resets stay zero: they are client-
            // side gauges, overlaid by `HipacClient::stats`.
            Reply::Stats(Box::new(WireStats {
                active_connections: shared.active_connections.load(Ordering::Relaxed),
                shed_requests: shared.shed_requests.load(Ordering::Relaxed),
                dedup_hits: shared.dedup_hits.load(Ordering::Relaxed),
                shed_adaptive: shared.shed_adaptive.load(Ordering::Relaxed),
                journal_replays: shared.journal_replays.load(Ordering::Relaxed),
                pushes_redelivered: shared.pushes_redelivered.load(Ordering::Relaxed),
                reactor_shards: 1,
                auth_failures: shared.auth_failures.load(Ordering::Relaxed),
                tenants_active: shared.tenants_active(),
                tenant_shed_requests: shared.tenant_shed_requests.load(Ordering::Relaxed),
                pushes_shed: ctx.subs.pushes_shed.load(Ordering::Relaxed),
                subscribers_evicted: ctx.subs.subscribers_evicted.load(Ordering::Relaxed),
                ..stats_to_wire(ctx.db.stats())
            }))
        }
    })
}

/// Commands refused on a fenced (deposed) primary. Reads, transaction
/// bookkeeping (begin/abort), session management and replication
/// plumbing stay available — only state mutation is forbidden.
fn is_write_command(c: &Command) -> bool {
    matches!(
        c,
        Command::Commit { .. }
            | Command::CreateClass { .. }
            | Command::Insert { .. }
            | Command::Update { .. }
            | Command::Delete { .. }
            | Command::DefineEvent { .. }
            | Command::SignalEvent { .. }
            | Command::CreateRule { .. }
            | Command::DropRule { .. }
            | Command::EnableRule { .. }
            | Command::DisableRule { .. }
    )
}

/// The transaction a command works under, for deadline propagation.
/// Connection-scoped commands (ping, stats, subscriptions, event
/// definitions, begin) have none.
fn command_txn(c: &Command) -> Option<TxnId> {
    match c {
        Command::BeginChild { parent } => Some(*parent),
        Command::Commit { txn }
        | Command::Abort { txn }
        | Command::CreateClass { txn, .. }
        | Command::Insert { txn, .. }
        | Command::Update { txn, .. }
        | Command::Delete { txn, .. }
        | Command::Query { txn, .. }
        | Command::CreateRule { txn, .. }
        | Command::DropRule { txn, .. }
        | Command::EnableRule { txn, .. }
        | Command::DisableRule { txn, .. } => Some(*txn),
        Command::SignalEvent { txn, .. } => *txn,
        _ => None,
    }
}

/// Convert the facade snapshot into its wire representation. The
/// connection-layer gauges are zero here; the `Stats` command fills
/// them in from the server's admission state. The memo counters stay
/// zero.
fn stats_to_wire(s: EngineStats) -> WireStats {
    WireStats {
        signals_processed: s.signals_processed,
        rules_triggered: s.rules_triggered,
        conditions_satisfied: s.conditions_satisfied,
        actions_executed: s.actions_executed,
        store_evaluations: s.store_evaluations,
        delta_evaluations: s.delta_evaluations,
        cache_hits: s.cache_hits,
        deferred_txns: s.deferred_txns,
        deferred_firings: s.deferred_firings,
        pool_outstanding: s.pool_outstanding,
        separate_errors: s.separate_errors,
        firings_parallel: s.firings_parallel,
        pool_queue_depth: s.pool_queue_depth,
        separate_retries: s.separate_retries,
        separate_dead_letters: s.separate_dead_letters,
        repl_role: s.repl_role,
        last_shipped_lsn: s.last_shipped_lsn,
        last_applied_lsn: s.last_applied_lsn,
        repl_lag_bytes: s.repl_lag_bytes,
        replica_pushes: s.replica_pushes,
        promotions: s.promotions,
        match_index_nodes: s.match_index_nodes,
        match_probes: s.match_probes,
        match_pruned: s.match_pruned,
        group_commits: s.group_commits,
        group_commit_txns: s.group_commit_txns,
        group_commit_largest: s.group_commit_largest,
        repl_epoch: s.repl_epoch,
        repl_fence_prev: s.repl_fence_prev,
        repl_fence_start: s.repl_fence_start,
        repl_peers: s.repl_peers,
        repl_min_peer_applied: s.repl_min_peer_applied,
        repl_digest_ok_peers: s.repl_digest_ok_peers,
        repl_digest_mismatches: s.repl_digest_mismatches,
        repl_quorum: s.repl_quorum,
        repl_quorum_ok: s.repl_quorum_ok,
        ..WireStats::default()
    }
}
