//! `saa_wire` — the paper's §4.2 Securities Analyst's Assistant, over
//! loopback, with every layer crossed once per quote.
//!
//! A durable primary serves HMAC-authenticated tenants and ships its
//! WAL to one asynchronous replica. The *ticker* connection updates one
//! stock per transaction (begin / update / commit). A detached
//! `ticker-window` rule pushes every quote to the `display` handler;
//! 2 000 detached `buy-*` threshold rules push a buy request to the
//! `trader` handler when a watched stock crosses its threshold upwards.
//! The *workstation* connection serves both handlers and, as the
//! trader, signals `trade_executed` for every buy, which a third rule
//! turns into a portfolio update and a `display_trade` push.
//!
//! Why it exists: ROADMAP's standing end-to-end cell. The wire round
//! trips and the commit fsync dominate; every other layer contributes.

use crate::gen::SaaPlan;
use crate::harness::{
    self, drive, e, int_arg, not_exactly_once, timed_setup, wait_until, Cfg, Outcome, Res,
};
use crate::stats::bucket_by_ordinal;
use crate::sys::{now_ns, ScratchDir};
use crate::trace::Tracer;
use hipac::prelude::*;
use hipac_net::{ClientConfig, HipacClient, HipacServer, ServerConfig};
use hipac_repl::ReplicaNode;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

const STOCKS: usize = 5_000;
const WATCHED: usize = 2_000;
/// Quotes per measured segment (about a tenth of a run at the seed
/// commit).
const SEGMENT_OPS: u64 = 600;
/// Transactions per second at the seed commit on the reference runner,
/// frozen: it turns `--seconds` into a fixed amount of work.
const NOMINAL_TXN_PER_S: f64 = 880.0;
const WARM_OPS: u64 = 600;
/// Detached firings run on one engine worker here, not on
/// [`harness::ENGINE_WORKERS`]: two workers can write pushes for one
/// handler to the socket out of sequence order, and `HipacClient`
/// drops (and acks) any push below its high-water mark as a
/// redelivery — a lost quote, which this workload's audit counts as a
/// failed operation.
const FIRING_WORKERS: usize = 1;
const SHARES_PER_BUY: i64 = 100;
const SECRET: &[u8] = b"hipac-perf shared secret";
/// How long the audit waits for pushes and the replica after the last
/// commit.
const DRAIN: Duration = Duration::from_secs(20);
const TICKER_ID: u64 = 1;
const WORKSTATION_ID: u64 = 2;

/// What the workstation has seen so far.
#[derive(Default)]
struct Seen {
    /// `(quote ordinal, stamp → receipt µs)` per `display_quote`.
    quotes: Mutex<Vec<(u64, f64)>>,
    /// Signalled with `quotes` for each quote displayed: the ticker
    /// waits here for its own quote before it sends the next.
    displayed: Condvar,
    /// Push sequence numbers per handler, as delivered.
    display_seqs: Mutex<Vec<u64>>,
    trader_seqs: Mutex<Vec<u64>>,
    trades_shown: AtomicU64,
    signals_failed: AtomicU64,
}

struct World {
    plan: SaaPlan,
    oids: Vec<u64>,
    seen: Arc<Seen>,
    stop: Arc<AtomicBool>,
    trader: Option<std::thread::JoinHandle<()>>,
    ticker: HipacClient,
    replica: Option<ReplicaNode>,
    server: HipacServer,
    db: Arc<ActiveDatabase>,
    _primary_dir: ScratchDir,
    _replica_dir: ScratchDir,
}

impl Drop for World {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.trader.take() {
            let _ = t.join();
        }
        if let Some(r) = self.replica.take() {
            r.shutdown();
        }
        self.server.shutdown();
    }
}

fn client(addr: std::net::SocketAddr, id: u64) -> Res<HipacClient> {
    HipacClient::connect_with(
        addr,
        ClientConfig {
            client_id: id,
            auth_secret: Some(SECRET.to_vec()),
            ..ClientConfig::default()
        },
    )
    .map_err(e)
}

fn setup(cfg: &Cfg, tr: &Arc<Tracer>) -> Res<World> {
    let plan = SaaPlan::new(cfg.seed, cfg.scaled(STOCKS), cfg.scaled(WATCHED));
    let primary_dir = cfg.scratch("saa-primary")?;
    let replica_dir = cfg.scratch("saa-replica")?;
    let db = harness::engine(FIRING_WORKERS, Some(primary_dir.path()))?;
    let server = HipacServer::bind_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            auth_secret: Some(SECRET.to_vec()),
            ..harness::server_config()
        },
    )
    .map_err(e)?;
    let addr = server.local_addr();
    let replica =
        ReplicaNode::start(replica_dir.path(), addr.to_string(), "127.0.0.1:0").map_err(e)?;

    // Schema, rows and rules go in through the wire API, as a tenant's
    // own loader would.
    let ticker = client(addr, TICKER_ID)?;
    let t = ticker.begin().map_err(e)?;
    ticker
        .create_class(
            t,
            "stock",
            None,
            vec![
                AttrDef::new("symbol", ValueType::Str).indexed(),
                AttrDef::new("price", ValueType::Float),
                AttrDef::new("n", ValueType::Int),
                AttrDef::new("stamp", ValueType::Int),
            ],
        )
        .map_err(e)?;
    ticker
        .create_class(
            t,
            "position",
            None,
            vec![
                AttrDef::new("symbol", ValueType::Str).indexed(),
                AttrDef::new("shares", ValueType::Int),
            ],
        )
        .map_err(e)?;
    ticker.commit(t).map_err(e)?;
    ticker
        .define_event(
            "trade_executed",
            &["symbol", "shares", "price", "n", "stamp"],
        )
        .map_err(e)?;

    let mut oids = Vec::with_capacity(plan.symbols.len());
    for chunk in (0..plan.symbols.len()).collect::<Vec<_>>().chunks(500) {
        let t = ticker.begin().map_err(e)?;
        for &i in chunk {
            let sym = plan.symbols[i].as_str();
            oids.push(
                ticker
                    .insert(
                        t,
                        "stock",
                        vec![
                            sym.into(),
                            plan.initial_price(i).into(),
                            (-1i64).into(),
                            0i64.into(),
                        ],
                    )
                    .map_err(e)?,
            );
            if plan.threshold[i].is_some() {
                ticker
                    .insert(t, "position", vec![sym.into(), 0i64.into()])
                    .map_err(e)?;
            }
        }
        ticker.commit(t).map_err(e)?;
    }

    let quote_args = |request: &str, handler: &str| ActionOp::AppRequest {
        handler: handler.into(),
        request: request.into(),
        args: vec![
            ("symbol".into(), Expr::NewAttr("symbol".into())),
            ("price".into(), Expr::NewAttr("price".into())),
            ("n".into(), Expr::NewAttr("n".into())),
            ("stamp".into(), Expr::NewAttr("stamp".into())),
        ],
    };
    let t = ticker.begin().map_err(e)?;
    ticker
        .create_rule(
            t,
            &RuleDef::new("ticker-window")
                .on(EventSpec::on_update("stock"))
                .then(Action::single(quote_args("display_quote", "display")))
                .detached(),
        )
        .map_err(e)?;
    ticker
        .create_rule(
            t,
            &RuleDef::new("trade-display")
                .on(EventSpec::external("trade_executed"))
                .then(
                    Action::single(ActionOp::Db(DbAction::UpdateWhere {
                        query: Query::parse("from position where symbol = :symbol").map_err(e)?,
                        assignments: vec![(
                            "shares".into(),
                            Expr::attr("shares").bin(BinOp::Add, Expr::param("shares")),
                        )],
                    }))
                    .then(ActionOp::AppRequest {
                        handler: "display".into(),
                        request: "display_trade".into(),
                        args: ["symbol", "shares", "price", "n", "stamp"]
                            .iter()
                            .map(|k| (k.to_string(), Expr::param(*k)))
                            .collect(),
                    }),
                )
                .detached(),
        )
        .map_err(e)?;
    ticker.commit(t).map_err(e)?;
    let watched: Vec<usize> = (0..plan.symbols.len())
        .filter(|&i| plan.threshold[i].is_some())
        .collect();
    for chunk in watched.chunks(500) {
        let t = ticker.begin().map_err(e)?;
        for &i in chunk {
            let (sym, th) = (&plan.symbols[i], plan.threshold[i].expect("watched"));
            let cond = format!("from stock where new.symbol = \"{sym}\" and new.price >= {th:?} and old.price < {th:?}");
            ticker
                .create_rule(
                    t,
                    &RuleDef::new(format!("buy-{sym}"))
                        .on(EventSpec::on_update("stock"))
                        .when(Query::parse(&cond).map_err(e)?)
                        .then(Action::single(quote_args("buy", "trader")))
                        .detached(),
                )
                .map_err(e)?;
        }
        ticker.commit(t).map_err(e)?;
    }

    // The workstation: display and trader in one process, as in the
    // paper's Figure 4.2. Push handlers run on the client's reader
    // thread and must not issue requests, so buys cross a channel to
    // the trader thread, which signals `trade_executed`.
    let workstation = client(addr, WORKSTATION_ID)?;
    let seen = Arc::new(Seen::default());
    let (buy_tx, buy_rx) = mpsc::channel::<HashMap<String, Value>>();
    {
        let (seen, tr) = (Arc::clone(&seen), Arc::clone(tr));
        workstation
            .subscribe("display", move |push| {
                let now = now_ns();
                seen.display_seqs.lock().expect("seen").push(push.seq);
                let (n, stamp) = (int_arg(&push.args, "n"), int_arg(&push.args, "stamp"));
                if push.request == "display_quote" {
                    seen.quotes
                        .lock()
                        .expect("seen")
                        .push((n as u64, (now - stamp) as f64 / 1e3));
                    seen.displayed.notify_all();
                    tr.reaction(n as u64, "react.display_quote", stamp / 1_000, now / 1_000);
                } else {
                    seen.trades_shown.fetch_add(1, Ordering::Relaxed);
                    tr.reaction(n as u64, "react.display_trade", stamp / 1_000, now / 1_000);
                }
            })
            .map_err(e)?;
    }
    {
        let seen = Arc::clone(&seen);
        let buy_tx = Mutex::new(buy_tx);
        workstation
            .subscribe("trader", move |push| {
                seen.trader_seqs.lock().expect("seen").push(push.seq);
                let mut args = push.args.clone();
                args.insert("shares".into(), Value::from(SHARES_PER_BUY));
                let _ = buy_tx.lock().expect("buy channel").send(args);
            })
            .map_err(e)?;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let trader = {
        let (seen, stop) = (Arc::clone(&seen), Arc::clone(&stop));
        // The trader thread owns the workstation's connection: it lives
        // until the thread is stopped at teardown.
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let Ok(args) = buy_rx.recv_timeout(Duration::from_millis(20)) else {
                    continue;
                };
                if workstation
                    .signal_event("trade_executed", args, None)
                    .is_err()
                {
                    seen.signals_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    // Every run starts from a just-checkpointed primary, so the measured
    // phase sees the same stretch of the checkpoint cycle every time.
    db.durable_store()
        .expect("durable primary")
        .checkpoint()
        .map_err(e)?;
    if !replica.wait_caught_up(Duration::from_secs(30)) {
        return Err("replica did not catch up with the loaded primary".into());
    }
    let w = World {
        plan,
        oids,
        seen,
        stop,
        trader: Some(trader),
        ticker,
        replica: Some(replica),
        server,
        db,
        _primary_dir: primary_dir,
        _replica_dir: replica_dir,
    };
    for n in 0..cfg.scaled_ops(WARM_OPS) {
        quote(&w, tr, n)?;
        await_display(&w, n)?;
    }
    Ok(w)
}

/// One quote: the ticker updates one stock in a transaction of its own.
fn quote(w: &World, tr: &Tracer, n: u64) -> Res<()> {
    let q = w.plan.quote(n);
    let root = tr.open(n, 0, "saa_wire.txn");
    let t = {
        let _s = tr.open(n, root.id(), "net.begin");
        w.ticker.begin().map_err(e)?
    };
    let updated = {
        let _s = tr.open(n, root.id(), "net.update");
        w.ticker.update(
            t,
            w.oids[q.stock],
            vec![
                ("price".into(), q.price.into()),
                ("n".into(), (n as i64).into()),
                ("stamp".into(), now_ns().into()),
            ],
        )
    };
    if let Err(err) = updated {
        let _ = w.ticker.abort(t);
        return Err(e(err));
    }
    let _s = tr.open(n, root.id(), "net.commit");
    w.ticker.commit(t).map_err(e)
}

/// Wait until the workstation has displayed quote `n`: the ticker is a
/// closed loop over the whole reaction, so detached firings never queue
/// behind one another and the reaction time is not a backlog's length.
fn await_display(w: &World, n: u64) -> Res<()> {
    let quotes = w.seen.quotes.lock().expect("seen");
    let (_quotes, timed_out) = w
        .seen
        .displayed
        .wait_timeout_while(quotes, DRAIN, |q| q.len() as u64 <= n)
        .expect("seen");
    if timed_out.timed_out() {
        return Err(format!("quote {n} was not displayed within {DRAIN:?}"));
    }
    Ok(())
}

/// Each sequence number from 1 to the highest, exactly once.
fn seq_faults(seqs: &[u64]) -> u64 {
    let mut sorted = seqs.to_vec();
    sorted.sort_unstable();
    let dup = sorted.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    sorted.dedup();
    let missing = sorted.last().map_or(0, |&max| max - sorted.len() as u64);
    dup + missing
}

pub fn run(cfg: &Cfg, tr: &Arc<Tracer>) -> Res<Outcome> {
    let mut out = Outcome::default();
    let w = timed_setup(&mut out, || setup(cfg, tr))?;
    if cfg.setup_only {
        return Ok(out);
    }
    let warm_ops = cfg.scaled_ops(WARM_OPS);
    out.sizes = vec![
        ("stocks", w.plan.symbols.len() as u64),
        (
            "buy_rules",
            w.plan.threshold.iter().flatten().count() as u64,
        ),
        ("segment_ops", cfg.scaled_ops(SEGMENT_OPS)),
        ("warm_ops", warm_ops),
    ];
    let store = Arc::clone(w.db.durable_store().expect("durable primary"));
    let replica = w.replica.as_ref().expect("replica runs until teardown");
    let engine0 = w.db.stats();
    let (lsn0, gc0) = (store.durable_lsn(), store.group_commit_stats());
    let mut lag_bytes_max = 0u64;

    let driven = drive(
        cfg.seconds,
        NOMINAL_TXN_PER_S,
        warm_ops,
        cfg.scaled_ops(SEGMENT_OPS),
        |n| quote(&w, tr, n),
        |n| {
            if n % 64 == 0 {
                lag_bytes_max =
                    lag_bytes_max.max(store.durable_lsn().saturating_sub(replica.applied_lsn()));
            }
            await_display(&w, n)
        },
    );

    // Drain: every quote and every buy must reach the workstation.
    let total = driven.end();
    let buys: u64 = (0..total).filter(|&n| w.plan.quote(n).buys).count() as u64;
    wait_until(DRAIN, || {
        w.seen.quotes.lock().expect("seen").len() as u64 >= total
            && w.seen.trades_shown.load(Ordering::Relaxed) >= buys
    });
    w.db.quiesce();
    // `wait_caught_up` compares against the frontier of the replica's
    // latest batch; the audit needs the primary's own frontier.
    let caught_up = wait_until(DRAIN, || replica.applied_lsn() >= store.durable_lsn());

    out.txn = driven.segments.clone();
    let quotes = w.seen.quotes.lock().expect("seen").clone();
    out.observe = bucket_by_ordinal(&quotes, driven.first, &driven.bounds);
    out.wall_s = driven.wall_s;
    out.attempted = total + buys;
    out.failed = driven.failed + w.seen.signals_failed.load(Ordering::Relaxed);

    // ---- audit -------------------------------------------------------
    let lost_or_dup = not_exactly_once(quotes.iter().map(|&(n, _)| n), total);
    out.audit(lost_or_dup == 0, || {
        format!("{lost_or_dup} quotes not displayed exactly once")
    });
    let shown = w.seen.trades_shown.load(Ordering::Relaxed);
    out.audit(shown == buys, || {
        format!("{shown} trades displayed, model says {buys}")
    });
    let display_faults = seq_faults(&w.seen.display_seqs.lock().expect("seen"));
    let trader_faults = seq_faults(&w.seen.trader_seqs.lock().expect("seen"));
    out.audit(display_faults + trader_faults == 0, || {
        format!(
            "push sequences lost or duplicated: display {display_faults}, trader {trader_faults}"
        )
    });

    let mut model_price: Vec<f64> = (0..w.plan.symbols.len())
        .map(|i| w.plan.initial_price(i))
        .collect();
    let mut model_shares: HashMap<&str, i64> = HashMap::new();
    for n in 0..total {
        let q = w.plan.quote(n);
        model_price[q.stock] = q.price;
        if q.buys {
            *model_shares
                .entry(w.plan.symbols[q.stock].as_str())
                .or_default() += SHARES_PER_BUY;
        }
    }
    let primary_rows =
        w.db.run_top(|t| {
            let stock = w.db.store().query(t, &Query::all("stock"), None)?;
            let position = w.db.store().query(t, &Query::all("position"), None)?;
            Ok((stock, position))
        })
        .map_err(e)?;
    let by_symbol: HashMap<&str, usize> = w
        .plan
        .symbols
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();
    let wrong_prices = primary_rows
        .0
        .iter()
        .filter(|r| {
            let sym = r.values[0].as_str().unwrap_or("");
            by_symbol
                .get(sym)
                .is_none_or(|&i| r.values[1].as_float().ok() != Some(model_price[i]))
        })
        .count();
    out.audit(
        wrong_prices == 0 && primary_rows.0.len() == w.plan.symbols.len(),
        || format!("{wrong_prices} stock rows differ from the generator's model"),
    );
    let wrong_shares = primary_rows
        .1
        .iter()
        .filter(|r| {
            let sym = r.values[0].as_str().unwrap_or("");
            r.values[1].as_int().ok() != Some(model_shares.get(sym).copied().unwrap_or(0))
        })
        .count();
    out.audit(wrong_shares == 0, || {
        format!("{wrong_shares} positions differ from the generator's model")
    });

    out.audit(caught_up, || {
        "replica did not catch up after the run".into()
    });
    let view = replica.view();
    let mut diverged = 0;
    for (class, rows) in [("stock", &primary_rows.0), ("position", &primary_rows.1)] {
        let copy = view
            .query(&format!("from {class}"), &HashMap::new())
            .map_err(e)?;
        diverged += usize::from(copy.len() != rows.len());
        diverged += copy
            .iter()
            .zip(rows.iter())
            .filter(|(a, b)| a.oid != b.oid || a.values != b.values)
            .count();
    }
    out.audit(diverged == 0, || {
        format!("replica differs from the primary in {diverged} rows")
    });

    // ---- layer counters ---------------------------------------------
    let ops = ((total - driven.first) as f64).max(1.0);
    harness::rule_counters(&mut out, &engine0, &w.db.stats(), total - driven.first);
    let gc = store.group_commit_stats();
    out.layer.insert(
        "storage.mean_cohort",
        (gc.grouped_txns - gc0.grouped_txns) as f64 / (gc.groups - gc0.groups).max(1) as f64,
    );
    out.layer.insert(
        "storage.wal_bytes_per_txn",
        (store.durable_lsn() - lsn0) as f64 / ops,
    );
    out.layer.insert("repl.lag_bytes_max", lag_bytes_max as f64);
    harness::server_counters(&mut out, &w.server);
    Ok(out)
}
