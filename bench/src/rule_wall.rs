//! `rule_wall` — in process, in memory, one driver thread, and a wall
//! of 100 000 guarded rules on one class.
//!
//! Every symbol owns eight rules, `new.symbol = S and new.level = j`,
//! so the discrimination network leaves exactly eight candidates for an
//! update of `S` and exactly two of their conditions hold: one
//! immediate rule whose action is a database update in a
//! subtransaction, and one detached rule whose action is a request to
//! an in-process application handler (the reaction consumer).
//!
//! Why it exists: `hipac-rules`, `hipac-event` and `hipac-txn` do all
//! the work; the wire, the WAL and replication do none. A change to
//! those must show **no** movement here, and a change to matching or
//! condition evaluation shows here first. Set-up time is rule-base load
//! time.

use crate::gen::{WallPlan, WALL_LEVELS, WALL_RULES_PER_SYMBOL};
use crate::harness::{
    self, drive, e, not_exactly_once, timed_setup, wait_until, Cfg, Outcome, Res,
};
use crate::stats::bucket_by_ordinal;
use crate::sys::now_ns;
use crate::trace::Tracer;
use hipac::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const RULES: usize = 100_000;
const SEGMENT_OPS: u64 = 4_000;
/// Transactions per second at the seed commit on the reference runner,
/// frozen: it turns `--seconds` into a fixed amount of work.
const NOMINAL_TXN_PER_S: f64 = 8_000.0;
const WARM_OPS: u64 = 4_000;
/// Rule definitions per loading transaction: one transaction for the
/// whole wall would hold the catalog lock for the entire load.
const LOAD_CHUNK: usize = 10_000;

pub struct World {
    plan: WallPlan,
    pub oids: Vec<ObjectId>,
    /// `(update ordinal, stamp → handler µs)` per alert.
    alerts: Arc<Mutex<Vec<(u64, f64)>>>,
    /// The engine's counters once the wall stood, before any update.
    loaded: EngineStats,
    pub db: Arc<ActiveDatabase>,
}

/// A wall of `rules` rules (the layer probes build a small one).
pub fn setup_sized(cfg: &Cfg, tr: &Arc<Tracer>, rules: usize) -> Res<World> {
    let plan = WallPlan::new(cfg.seed, rules);
    let db = harness::engine(harness::ENGINE_WORKERS, None)?;
    let alerts = Arc::new(Mutex::new(Vec::new()));
    {
        let (alerts, tr) = (Arc::clone(&alerts), Arc::clone(tr));
        db.register_handler("desk", move |_request: &str, args: &Args| {
            let now = now_ns();
            let n = args["n"].as_int()? as u64;
            let stamp = args["stamp"].as_int()?;
            alerts
                .lock()
                .expect("alerts")
                .push((n, (now - stamp) as f64 / 1e3));
            tr.reaction(n, "react.alert", stamp / 1_000, now / 1_000);
            Ok(())
        });
    }
    let oids = db
        .run_top(|t| {
            db.store().create_class(
                t,
                "stock",
                None,
                vec![
                    AttrDef::new("symbol", ValueType::Str).indexed(),
                    AttrDef::new("level", ValueType::Int),
                    AttrDef::new("n", ValueType::Int),
                    AttrDef::new("stamp", ValueType::Int),
                ],
            )?;
            db.store().create_class(
                t,
                "tally",
                None,
                vec![
                    AttrDef::new("symbol", ValueType::Str).indexed(),
                    AttrDef::new("hits", ValueType::Int),
                    AttrDef::new("last", ValueType::Int),
                ],
            )?;
            let mut oids = Vec::with_capacity(plan.symbols.len());
            for sym in &plan.symbols {
                let s = sym.as_str();
                oids.push(db.store().insert(
                    t,
                    "stock",
                    vec![s.into(), (-1i64).into(), (-1i64).into(), 0i64.into()],
                )?);
                db.store()
                    .insert(t, "tally", vec![s.into(), 0i64.into(), (-1i64).into()])?;
            }
            Ok(oids)
        })
        .map_err(e)?;

    let mut defs = Vec::with_capacity(plan.symbols.len() * WALL_RULES_PER_SYMBOL);
    for sym in &plan.symbols {
        for j in 0..WALL_RULES_PER_SYMBOL {
            let level = j as i64 % WALL_LEVELS;
            let cond = Query::parse(&format!(
                "from stock where new.symbol = \"{sym}\" and new.level = {level}"
            ))
            .map_err(e)?;
            let rule = RuleDef::new(format!("{sym}-{j}"))
                .on(EventSpec::on_update("stock"))
                .when(cond);
            defs.push(if j < WALL_LEVELS as usize {
                rule.then(Action::single(ActionOp::Db(DbAction::UpdateWhere {
                    query: Query::parse(&format!("from tally where symbol = \"{sym}\""))
                        .map_err(e)?,
                    assignments: vec![
                        (
                            "hits".into(),
                            Expr::attr("hits").bin(BinOp::Add, Expr::lit(1)),
                        ),
                        ("last".into(), Expr::NewAttr("n".into())),
                    ],
                })))
            } else {
                rule.then(Action::single(ActionOp::AppRequest {
                    handler: "desk".into(),
                    request: "alert".into(),
                    args: vec![
                        ("n".into(), Expr::NewAttr("n".into())),
                        ("stamp".into(), Expr::NewAttr("stamp".into())),
                    ],
                }))
                .detached()
            });
        }
    }
    let mut defs = defs.into_iter();
    loop {
        let chunk: Vec<RuleDef> = defs.by_ref().take(LOAD_CHUNK).collect();
        if chunk.is_empty() {
            break;
        }
        db.run_top(|t| {
            for def in chunk {
                db.rules().create_rule(t, def)?;
            }
            Ok(())
        })
        .map_err(e)?;
    }
    Ok(World {
        plan,
        oids,
        alerts,
        loaded: db.stats(),
        db,
    })
}

/// One update of one stock row, committed: eight candidate rules, two
/// firings.
fn update(w: &World, tr: &Tracer, n: u64) -> Res<()> {
    let (row, level) = w.plan.update(n);
    let root = tr.open(n, 0, "rule_wall.txn");
    let t = {
        let _s = tr.open(n, root.id(), "txn.begin");
        w.db.begin()
    };
    let updated = {
        let _s = tr.open(n, root.id(), "object.update");
        w.db.store().update(
            t,
            w.oids[row],
            &[
                ("level", level.into()),
                ("n", (n as i64).into()),
                ("stamp", now_ns().into()),
            ],
        )
    };
    if let Err(err) = updated {
        let _ = w.db.abort(t);
        return Err(e(err));
    }
    let _s = tr.open(n, root.id(), "txn.commit");
    w.db.commit(t).map_err(e)
}

pub fn run(cfg: &Cfg, tr: &Arc<Tracer>) -> Res<Outcome> {
    let mut out = Outcome::default();
    let warm_ops = cfg.scaled_ops(WARM_OPS);
    let w = timed_setup(&mut out, || {
        let w = setup_sized(cfg, tr, cfg.scaled(RULES))?;
        (0..warm_ops).try_for_each(|n| update(&w, tr, n))?;
        Ok(w)
    })?;
    if cfg.setup_only {
        return Ok(out);
    }
    out.sizes = vec![
        (
            "rules",
            (w.plan.symbols.len() * WALL_RULES_PER_SYMBOL) as u64,
        ),
        ("symbols", w.plan.symbols.len() as u64),
        ("segment_ops", cfg.scaled_ops(SEGMENT_OPS)),
        ("warm_ops", warm_ops),
    ];

    let driven = drive(
        cfg.seconds,
        NOMINAL_TXN_PER_S,
        warm_ops,
        cfg.scaled_ops(SEGMENT_OPS),
        |n| update(&w, tr, n),
        |_| Ok(()),
    );
    let total = driven.end();
    wait_until(Duration::from_secs(20), || {
        w.alerts.lock().expect("alerts").len() as u64 >= total
    });
    w.db.quiesce();

    out.txn = driven.segments.clone();
    let alerts = w.alerts.lock().expect("alerts").clone();
    out.observe = bucket_by_ordinal(&alerts, driven.first, &driven.bounds);
    out.wall_s = driven.wall_s;
    out.attempted = total;
    out.failed = driven.failed;

    // ---- audit: firing counts equal the model's ------------------------
    let lost_or_dup = not_exactly_once(alerts.iter().map(|&(n, _)| n), total);
    out.audit(lost_or_dup == 0, || {
        format!("{lost_or_dup} updates did not alert the desk exactly once")
    });
    let mut model_hits = vec![0i64; w.plan.symbols.len()];
    let mut model_last = vec![-1i64; w.plan.symbols.len()];
    for n in 0..total {
        let (row, _) = w.plan.update(n);
        model_hits[row] += 1;
        model_last[row] = n as i64;
    }
    let tally =
        w.db.run_top(|t| w.db.store().query(t, &Query::all("tally"), None))
            .map_err(e)?;
    let by_symbol: std::collections::HashMap<&str, usize> = w
        .plan
        .symbols
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();
    let wrong = tally
        .iter()
        .filter(|r| {
            by_symbol
                .get(r.values[0].as_str().unwrap_or(""))
                .is_none_or(|&i| {
                    r.values[1].as_int().ok() != Some(model_hits[i])
                        || r.values[2].as_int().ok() != Some(model_last[i])
                })
        })
        .count();
    out.audit(wrong == 0 && tally.len() == w.plan.symbols.len(), || {
        format!("{wrong} tally rows differ from the generator's model")
    });
    let engine = w.db.stats();
    // From before the warm-up, whose detached firings may still have been
    // in flight when the measured phase began.
    harness::rule_counters(&mut out, &w.loaded, &engine, total);
    let (satisfied, actions) = (
        out.layer["rules.satisfied_per_txn"],
        out.layer["rules.actions_per_txn"],
    );
    out.audit(satisfied == 2.0 && actions == 2.0, || {
        format!(
            "per update: {satisfied} conditions held and {actions} actions ran, model says 2 and 2"
        )
    });
    out.audit(
        engine.separate_dead_letters == 0 && w.db.take_separate_errors().is_empty(),
        || "detached firings were dead-lettered".into(),
    );
    Ok(out)
}
