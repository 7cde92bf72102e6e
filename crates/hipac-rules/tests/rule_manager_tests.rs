//! Rule Manager behaviour: the §6 protocols (rule creation, event
//! signal processing per coupling mode, transaction commit processing),
//! rules-as-objects semantics (§2.2), cascading firings (§3.2) and the
//! application-request paradigm (§4).

use hipac_common::{HipacError, Result, Value, ValueType, VirtualClock};
use hipac_event::spec::{DbEventKind, TemporalSpec};
use hipac_event::{EventRegistry, EventSpec};
use hipac_object::expr::{BinOp, Expr};
use hipac_object::{AttrDef, ObjectStore, Query};
use hipac_rules::manager::FnHandler;
use hipac_rules::{Action, ActionOp, CouplingMode, DbAction, RuleDef, RuleManager};
use hipac_txn::TransactionManager;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

struct Engine {
    tm: Arc<TransactionManager>,
    store: Arc<ObjectStore>,
    events: Arc<EventRegistry>,
    rules: Arc<RuleManager>,
    clock: Arc<VirtualClock>,
    log: Arc<Mutex<Vec<String>>>,
}

fn engine() -> Engine {
    let tm = Arc::new(TransactionManager::new());
    let store = ObjectStore::with_lock_timeout(
        Arc::clone(&tm),
        None,
        std::time::Duration::from_millis(500),
    )
    .unwrap();
    let clock = Arc::new(VirtualClock::new());
    let events = Arc::new(EventRegistry::new(
        Arc::clone(&clock) as Arc<dyn hipac_common::Clock>
    ));
    let rules = RuleManager::new(
        Arc::clone(&tm),
        Arc::clone(&store),
        Arc::clone(&events),
        2,
    );
    let log = Arc::new(Mutex::new(Vec::new()));
    {
        let log = Arc::clone(&log);
        rules.register_handler(
            "logger",
            Arc::new(FnHandler(move |req: &str, args: &HashMap<String, Value>| {
                let mut sorted: Vec<String> =
                    args.iter().map(|(k, v)| format!("{k}={v}")).collect();
                sorted.sort();
                log.lock().push(format!("{req}({})", sorted.join(", ")));
                Ok(())
            })),
        );
    }
    tm.run_top(|t| {
        store.create_class(
            t,
            "stock",
            None,
            vec![
                AttrDef::new("symbol", ValueType::Str).indexed(),
                AttrDef::new("price", ValueType::Float),
            ],
        )?;
        store.insert(t, "stock", vec![Value::from("XRX"), Value::from(48.0)])?;
        store.insert(t, "stock", vec![Value::from("DEC"), Value::from(99.0)])?;
        Ok(())
    })
    .unwrap();
    Engine {
        tm,
        store,
        events,
        rules,
        clock,
        log,
    }
}

fn xrx_oid(e: &Engine) -> hipac_common::ObjectId {
    e.tm.run_top(|t| {
        Ok(e
            .store
            .query(
                t,
                &Query::filtered("stock", Expr::attr("symbol").bin(BinOp::Eq, Expr::lit("XRX"))),
                None,
            )?[0]
            .oid)
    })
    .unwrap()
}

/// The paper's flagship example: "buy 500 shares of Xerox for client A
/// when the price reaches 50" — threshold-crossing condition on the
/// update delta, request to a trading program in the action.
fn xerox_rule(ec: CouplingMode, ca: CouplingMode) -> RuleDef {
    RuleDef::new("buy-xerox")
        .on(EventSpec::on_update("stock"))
        .when(Query::filtered(
            "stock",
            Expr::NewAttr("price".into())
                .bin(BinOp::Ge, Expr::lit(50.0))
                .and(Expr::NewAttr("symbol".into()).bin(BinOp::Eq, Expr::lit("XRX"))),
        ))
        .then(Action::single(ActionOp::AppRequest {
            handler: "logger".into(),
            request: "buy".into(),
            args: vec![
                ("shares".into(), Expr::lit(500)),
                ("client".into(), Expr::lit("A")),
                ("price".into(), Expr::NewAttr("price".into())),
            ],
        }))
        .ec(ec)
        .ca(ca)
}

#[test]
fn immediate_rule_fires_during_the_operation() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules
            .create_rule(t, xerox_rule(CouplingMode::Immediate, CouplingMode::Immediate))
    })
    .unwrap();
    let oid = xrx_oid(&e);
    // Below threshold: no firing.
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(49.5))]))
        .unwrap();
    assert!(e.log.lock().is_empty());
    // Crossing the threshold fires synchronously, before the update
    // call returns (the log entry exists before commit).
    e.tm.run_top(|t| {
        e.store.update(t, oid, &[("price", Value::from(50.0))])?;
        assert_eq!(e.log.lock().len(), 1, "fired inside the operation");
        Ok(())
    })
    .unwrap();
    assert_eq!(
        e.log.lock()[0],
        "buy(client=\"A\", price=50.0, shares=500)"
    );
}

#[test]
fn deferred_rule_fires_at_commit() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules
            .create_rule(t, xerox_rule(CouplingMode::Deferred, CouplingMode::Immediate))
    })
    .unwrap();
    let oid = xrx_oid(&e);
    let t = e.tm.begin();
    e.store.update(t, oid, &[("price", Value::from(55.0))]).unwrap();
    assert!(e.log.lock().is_empty(), "not yet: deferred to commit");
    // Even several triggering updates accumulate.
    e.store.update(t, oid, &[("price", Value::from(60.0))]).unwrap();
    e.tm.commit(t).unwrap();
    assert_eq!(e.log.lock().len(), 2, "both deferred firings ran at commit");
}

#[test]
fn deferred_firings_die_with_an_aborted_transaction() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules
            .create_rule(t, xerox_rule(CouplingMode::Deferred, CouplingMode::Immediate))
    })
    .unwrap();
    let oid = xrx_oid(&e);
    let t = e.tm.begin();
    e.store.update(t, oid, &[("price", Value::from(55.0))]).unwrap();
    e.tm.abort(t).unwrap();
    assert!(e.log.lock().is_empty());
}

#[test]
fn separate_rule_fires_in_concurrent_top_level_txn() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules
            .create_rule(t, xerox_rule(CouplingMode::Separate, CouplingMode::Immediate))
    })
    .unwrap();
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(52.0))]))
        .unwrap();
    e.rules.quiesce();
    assert_eq!(e.log.lock().len(), 1);
    assert!(e.rules.take_separate_errors().is_empty());
}

#[test]
fn condition_checks_database_state_not_just_delta() {
    let e = engine();
    // Fire on any stock update, but only when some stock is over 90
    // (a store query, not a delta query).
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("overpriced-watch")
                .on(EventSpec::on_update("stock"))
                .when(Query::filtered(
                    "stock",
                    Expr::attr("price").bin(BinOp::Gt, Expr::lit(90.0)),
                ))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "alert".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    let oid = xrx_oid(&e);
    // DEC is at 99, so the condition holds regardless of which stock
    // was updated.
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(10.0))]))
        .unwrap();
    assert_eq!(e.log.lock().len(), 1);
}

#[test]
fn action_can_update_the_database_and_cascade() {
    let e = engine();
    e.tm.run_top(|t| {
        e.store.create_class(
            t,
            "audit",
            None,
            vec![
                AttrDef::new("symbol", ValueType::Str),
                AttrDef::new("price", ValueType::Float),
            ],
        )?;
        // Rule 1: on stock update, insert an audit row.
        e.rules.create_rule(
            t,
            RuleDef::new("audit-stock")
                .on(EventSpec::on_update("stock"))
                .then(Action::single(ActionOp::Db(DbAction::Insert {
                    class: "audit".into(),
                    values: vec![
                        Expr::NewAttr("symbol".into()),
                        Expr::NewAttr("price".into()),
                    ],
                }))),
        )?;
        // Rule 2: on audit insert, notify (a cascaded firing).
        e.rules.create_rule(
            t,
            RuleDef::new("audit-notify")
                .on(EventSpec::db(DbEventKind::Insert, Some("audit")))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "audited".into(),
                    args: vec![("symbol".into(), Expr::NewAttr("symbol".into()))],
                })),
        )?;
        Ok(())
    })
    .unwrap();
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(51.0))]))
        .unwrap();
    // The cascade ran: audit row exists and the notification fired.
    assert_eq!(e.log.lock().as_slice(), ["audited(symbol=\"XRX\")"]);
    e.tm.run_top(|t| {
        let rows = e.store.query(t, &Query::all("audit"), None)?;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[1], Value::from(51.0));
        Ok(())
    })
    .unwrap();
}

#[test]
fn immediate_constraint_rule_aborts_the_operation() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("no-negative-prices")
                .on(EventSpec::on_update("stock"))
                .when(Query::filtered(
                    "stock",
                    Expr::NewAttr("price".into()).bin(BinOp::Lt, Expr::lit(0.0)),
                ))
                .then(Action::single(ActionOp::AbortWith {
                    message: "negative price".into(),
                })),
        )
    })
    .unwrap();
    let oid = xrx_oid(&e);
    let err = e
        .tm
        .run_top(|t| e.store.update(t, oid, &[("price", Value::from(-1.0))]))
        .unwrap_err();
    assert!(matches!(err, HipacError::ConstraintViolation(_)));
    // The update was rolled back with the transaction.
    e.tm.run_top(|t| {
        assert_eq!(e.store.get_attr(t, oid, "price")?, Value::from(48.0));
        Ok(())
    })
    .unwrap();
}

#[test]
fn rule_abort_semantics_rule_creation_is_transactional() {
    let e = engine();
    let t = e.tm.begin();
    e.rules
        .create_rule(t, xerox_rule(CouplingMode::Immediate, CouplingMode::Immediate))
        .unwrap();
    // The creating transaction sees it; firing works inside t.
    assert_eq!(e.rules.rule_count(t), 1);
    e.tm.abort(t).unwrap();
    // Gone after abort; updates do not fire it.
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(99.0))]))
        .unwrap();
    assert!(e.log.lock().is_empty());
    e.tm.run_top(|t| {
        assert_eq!(e.rules.rule_count(t), 0);
        Ok(())
    })
    .unwrap();
}

#[test]
fn disable_enable_and_drop_rule() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules
            .create_rule(t, xerox_rule(CouplingMode::Immediate, CouplingMode::Immediate))
    })
    .unwrap();
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| e.rules.disable_rule(t, "buy-xerox")).unwrap();
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(50.0))]))
        .unwrap();
    assert!(e.log.lock().is_empty(), "disabled rule must not fire");
    e.tm.run_top(|t| e.rules.enable_rule(t, "buy-xerox")).unwrap();
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(51.0))]))
        .unwrap();
    assert_eq!(e.log.lock().len(), 1);
    e.tm.run_top(|t| e.rules.drop_rule(t, "buy-xerox")).unwrap();
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(52.0))]))
        .unwrap();
    assert_eq!(e.log.lock().len(), 1, "dropped rule must not fire");
    // Name is reusable after the drop commits.
    e.tm.run_top(|t| {
        e.rules
            .create_rule(t, xerox_rule(CouplingMode::Immediate, CouplingMode::Immediate))
    })
    .unwrap();
}

#[test]
fn manual_fire_ignores_disable_and_uses_params() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("greeter")
                .on(EventSpec::db(DbEventKind::Insert, Some("stock")))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "hello".into(),
                    args: vec![("who".into(), Expr::param("who"))],
                }))
                .disabled(),
        )
    })
    .unwrap();
    let mut params = HashMap::new();
    params.insert("who".to_string(), Value::from("world"));
    e.tm.run_top(|t| e.rules.fire_rule(t, "greeter", params.clone()))
        .unwrap();
    assert_eq!(e.log.lock().as_slice(), ["hello(who=\"world\")"]);
}

#[test]
fn derived_event_from_condition() {
    let e = engine();
    // No event given: derived from the condition's class (insert,
    // update and delete on stock).
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("derived")
                .when(Query::filtered(
                    "stock",
                    Expr::attr("price").bin(BinOp::Gt, Expr::lit(1000.0)),
                ))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "expensive".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    // Insert triggers evaluation; condition false → nothing.
    e.tm.run_top(|t| {
        e.store
            .insert(t, "stock", vec![Value::from("CHEAP"), Value::from(1.0)])
    })
    .unwrap();
    assert!(e.log.lock().is_empty());
    // Update pushing a price over 1000 satisfies it.
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(2000.0))]))
        .unwrap();
    assert_eq!(e.log.lock().len(), 1);
    // A rule with neither event nor condition is rejected.
    let err = e
        .tm
        .run_top(|t| e.rules.create_rule(t, RuleDef::new("nothing")))
        .unwrap_err();
    assert!(matches!(err, HipacError::NoDerivableEvent(_)));
}

#[test]
fn temporal_rule_fires_on_clock_advance() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("mark-to-market")
                .on(EventSpec::Temporal(TemporalSpec::Periodic {
                    period: 100,
                    start: Some(0),
                }))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "tick".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    e.clock.advance(250);
    e.events.poll_temporal().unwrap();
    e.rules.quiesce();
    assert_eq!(e.log.lock().len(), 2, "periods at t=100 and t=200");
    assert!(e.rules.take_separate_errors().is_empty());
}

#[test]
fn external_event_rule_with_parameter_flow() {
    let e = engine();
    e.events
        .define_external("trade_request", vec!["symbol".into(), "shares".into()])
        .unwrap();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("execute-trade")
                .on(EventSpec::external("trade_request"))
                .when(Query::filtered(
                    "stock",
                    Expr::attr("symbol").bin(BinOp::Eq, Expr::param("symbol")),
                ))
                .then(Action::single(ActionOp::ForEachRow {
                    query_index: 0,
                    ops: vec![ActionOp::AppRequest {
                        handler: "logger".into(),
                        request: "execute".into(),
                        args: vec![
                            ("symbol".into(), Expr::attr("symbol")),
                            ("shares".into(), Expr::param("shares")),
                            ("at".into(), Expr::attr("price")),
                        ],
                    }],
                })),
        )
    })
    .unwrap();
    let mut args = HashMap::new();
    args.insert("symbol".to_string(), Value::from("DEC"));
    args.insert("shares".to_string(), Value::from(100));
    e.events.signal_external("trade_request", args, None).unwrap();
    e.rules.quiesce();
    assert_eq!(
        e.log.lock().as_slice(),
        ["execute(at=99.0, shares=100, symbol=\"DEC\")"]
    );
}

#[test]
fn update_where_action_modifies_matching_rows() {
    let e = engine();
    e.events.define_external("haircut", vec!["pct".into()]).unwrap();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("haircut-all")
                .on(EventSpec::external("haircut"))
                .then(Action::single(ActionOp::Db(DbAction::UpdateWhere {
                    query: Query::all("stock"),
                    assignments: vec![(
                        "price".into(),
                        Expr::attr("price")
                            .bin(BinOp::Mul, Expr::param("pct")),
                    )],
                }))),
        )
    })
    .unwrap();
    let mut args = HashMap::new();
    args.insert("pct".to_string(), Value::from(0.5));
    e.events.signal_external("haircut", args, None).unwrap();
    e.rules.quiesce();
    assert!(e.rules.take_separate_errors().is_empty());
    e.tm.run_top(|t| {
        let rows = e.store.query(t, &Query::all("stock"), None)?;
        let prices: Vec<&Value> = rows.iter().map(|r| &r.values[1]).collect();
        assert_eq!(prices, vec![&Value::from(24.0), &Value::from(49.5)]);
        Ok(())
    })
    .unwrap();
}

#[test]
fn composite_event_rule() {
    let e = engine();
    e.events.define_external("open", vec![]).unwrap();
    e.events.define_external("close", vec![]).unwrap();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("session")
                .on(EventSpec::external("open").then(EventSpec::external("close")))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "session-complete".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    e.events.signal_external("close", HashMap::new(), None).unwrap();
    e.rules.quiesce();
    assert!(e.log.lock().is_empty());
    e.events.signal_external("open", HashMap::new(), None).unwrap();
    e.events.signal_external("close", HashMap::new(), None).unwrap();
    e.rules.quiesce();
    assert_eq!(e.log.lock().as_slice(), ["session-complete()"]);
}

#[test]
fn cascade_limit_stops_runaway_rules() {
    let e = engine();
    e.tm.run_top(|t| {
        e.store.create_class(
            t,
            "loop",
            None,
            vec![AttrDef::new("n", ValueType::Int)],
        )?;
        // Self-triggering rule: every insert into `loop` inserts again.
        e.rules.create_rule(
            t,
            RuleDef::new("runaway")
                .on(EventSpec::db(DbEventKind::Insert, Some("loop")))
                .then(Action::single(ActionOp::Db(DbAction::Insert {
                    class: "loop".into(),
                    values: vec![Expr::NewAttr("n".into()).bin(BinOp::Add, Expr::lit(1))],
                }))),
        )
    })
    .unwrap();
    let err = e
        .tm
        .run_top(|t| e.store.insert(t, "loop", vec![Value::from(0)]))
        .unwrap_err();
    assert!(
        matches!(err, HipacError::CascadeLimit { .. }),
        "got {err:?}"
    );
    // Everything rolled back.
    e.tm.run_top(|t| {
        assert!(e.store.query(t, &Query::all("loop"), None)?.is_empty());
        Ok(())
    })
    .unwrap();
}

#[test]
fn multiple_rules_on_one_event_all_fire() {
    let e = engine();
    e.tm.run_top(|t| {
        for i in 0..5 {
            e.rules.create_rule(
                t,
                RuleDef::new(format!("r{i}"))
                    .on(EventSpec::on_update("stock"))
                    .then(Action::single(ActionOp::AppRequest {
                        handler: "logger".into(),
                        request: format!("r{i}"),
                        args: vec![],
                    })),
            )?;
        }
        Ok(())
    })
    .unwrap();
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(1.0))]))
        .unwrap();
    let mut log = e.log.lock().clone();
    log.sort();
    assert_eq!(log, ["r0()", "r1()", "r2()", "r3()", "r4()"]);
    // Condition-graph sharing kicked in: identical (empty) conditions.
    assert!(e.rules.stats.rules_triggered.load(std::sync::atomic::Ordering::Relaxed) >= 5);
}

#[test]
fn rule_actions_signal_events_that_fire_other_rules() {
    let e = engine();
    e.events
        .define_external("relay", vec!["hop".into()])
        .unwrap();
    e.tm.run_top(|t| {
        // stock update -> signal relay -> second rule logs.
        e.rules.create_rule(
            t,
            RuleDef::new("first")
                .on(EventSpec::on_update("stock"))
                .then(Action::single(ActionOp::SignalEvent {
                    name: "relay".into(),
                    args: vec![("hop".into(), Expr::lit(1))],
                })),
        )?;
        e.rules.create_rule(
            t,
            RuleDef::new("second")
                .on(EventSpec::external("relay"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "relayed".into(),
                    args: vec![("hop".into(), Expr::param("hop"))],
                })),
        )?;
        Ok(())
    })
    .unwrap();
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(1.0))]))
        .unwrap();
    e.rules.quiesce();
    assert_eq!(e.log.lock().as_slice(), ["relayed(hop=1)"]);
}

#[test]
fn missing_handler_is_a_clean_error() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("bad-handler")
                .on(EventSpec::on_update("stock"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "nonexistent".into(),
                    request: "x".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    let oid = xrx_oid(&e);
    let err = e
        .tm
        .run_top(|t| e.store.update(t, oid, &[("price", Value::from(1.0))]))
        .unwrap_err();
    assert!(matches!(err, HipacError::NoApplicationHandler(_)));
}

#[test]
fn txn_commit_event_triggers_rules() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("commit-watch")
                .on(EventSpec::db(DbEventKind::TxnCommit, None))
                .ec(CouplingMode::Separate)
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "committed".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    let before = e.log.lock().len();
    e.tm.run_top(|_t| Ok(())).unwrap();
    e.rules.quiesce();
    assert!(e.log.lock().len() > before, "commit event fired the rule");
}

#[test]
fn stats_reflect_sharing_and_delta_evaluation() {
    let e = engine();
    let shared_cond = Query::filtered(
        "stock",
        Expr::NewAttr("price".into()).bin(BinOp::Ge, Expr::lit(50.0)),
    );
    e.tm.run_top(|t| {
        for i in 0..4 {
            e.rules.create_rule(
                t,
                RuleDef::new(format!("s{i}"))
                    .on(EventSpec::on_update("stock"))
                    .when(shared_cond.clone())
                    .then(Action::none()),
            )?;
        }
        Ok(())
    })
    .unwrap();
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(60.0))]))
        .unwrap();
    use std::sync::atomic::Ordering;
    assert_eq!(e.rules.stats.store_evaluations.load(Ordering::Relaxed), 0);
    assert!(e.rules.stats.delta_evaluations.load(Ordering::Relaxed) >= 1);
    assert!(e.rules.stats.conditions_satisfied.load(Ordering::Relaxed) >= 4);
}

#[test]
fn separate_firing_error_is_collected_not_propagated() {
    let e = engine();
    e.rules.register_handler(
        "failing",
        Arc::new(FnHandler(|_: &str, _: &HashMap<String, Value>| -> Result<()> {
            Err(HipacError::EvalError("handler exploded".into()))
        })),
    );
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("doomed")
                .on(EventSpec::on_update("stock"))
                .ec(CouplingMode::Separate)
                .then(Action::single(ActionOp::AppRequest {
                    handler: "failing".into(),
                    request: "x".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    let oid = xrx_oid(&e);
    // The triggering transaction succeeds regardless.
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(1.0))]))
        .unwrap();
    e.rules.quiesce();
    let errors = e.rules.take_separate_errors();
    assert_eq!(errors.len(), 1);
    assert!(matches!(errors[0].1, HipacError::EvalError(_)));
}

/// A triggering request's deadline propagates into separate-mode
/// firings: with the deadline already behind the trigger, the firing
/// aborts *definitely* — dead-lettered as `DeadlineExceeded`, handler
/// never run — instead of doing work its requester stopped waiting
/// for. Deadlines only clamp lock waits, so the uncontended trigger
/// itself still commits.
#[test]
fn near_deadline_separate_firing_aborts_definitely() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("deadline-bound")
                .on(EventSpec::on_update("stock"))
                .ec(CouplingMode::Separate)
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "too-late".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    let oid = xrx_oid(&e);
    let before = e.log.lock().len();
    e.tm.run_top(|t| {
        e.tm.tree()
            .set_deadline(t, Some(std::time::Instant::now()))?;
        e.store.update(t, oid, &[("price", Value::from(1.0))])
    })
    .unwrap();
    e.rules.quiesce();
    assert_eq!(e.log.lock().len(), before, "expired firing must not run");
    let errors = e.rules.take_separate_errors();
    assert_eq!(errors.len(), 1, "one dead-lettered firing: {errors:?}");
    assert!(
        matches!(errors[0].1, HipacError::DeadlineExceeded(_)),
        "definite deadline abort, got {:?}",
        errors[0].1
    );
    use std::sync::atomic::Ordering;
    assert!(
        e.rules.stats.separate_dead_letters.load(Ordering::Relaxed) >= 1,
        "dead-letter accounted"
    );
}

/// Without a deadline on the trigger, the same separate rule fires
/// normally — the propagation above is scoped to deadline-bearing
/// requests, not a general throttle.
#[test]
fn separate_firing_without_deadline_still_runs() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("unbounded")
                .on(EventSpec::on_update("stock"))
                .ec(CouplingMode::Separate)
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "in-time".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    let oid = xrx_oid(&e);
    let before = e.log.lock().len();
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(2.0))]))
        .unwrap();
    e.rules.quiesce();
    assert_eq!(e.log.lock().len(), before + 1);
    assert!(e.rules.take_separate_errors().is_empty());
}

#[test]
fn alter_rule_changes_behaviour_transactionally() {
    let e = engine();
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("mutable")
                .on(EventSpec::on_update("stock"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "v1".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(1.0))]))
        .unwrap();
    assert_eq!(e.log.lock().as_slice(), ["v1()"]);

    // Modify the action (same event): takes effect once committed.
    e.tm.run_top(|t| {
        e.rules.alter_rule(
            t,
            "mutable",
            RuleDef::new("ignored-name")
                .on(EventSpec::on_update("stock"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "v2".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(2.0))]))
        .unwrap();
    assert_eq!(e.log.lock().last().unwrap(), "v2()");

    // An aborted modification leaves the old behaviour.
    let t = e.tm.begin();
    e.rules
        .alter_rule(
            t,
            "mutable",
            RuleDef::new("x")
                .on(EventSpec::on_update("stock"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "v3".into(),
                    args: vec![],
                })),
        )
        .unwrap();
    e.tm.abort(t).unwrap();
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(3.0))]))
        .unwrap();
    assert_eq!(e.log.lock().last().unwrap(), "v2()", "abort reverted the alter");
}

#[test]
fn alter_rule_rewires_the_event_at_commit() {
    let e = engine();
    let oid = xrx_oid(&e);
    e.events.define_external("manual-kick", vec![]).unwrap();
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("rewire")
                .on(EventSpec::on_update("stock"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "fired".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    // Move the rule from stock updates to the external event.
    e.tm.run_top(|t| {
        e.rules.alter_rule(
            t,
            "rewire",
            RuleDef::new("rewire")
                .on(EventSpec::external("manual-kick"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "kicked".into(),
                    args: vec![],
                })),
        )
    })
    .unwrap();
    // Stock updates no longer fire it…
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(9.0))]))
        .unwrap();
    assert!(e.log.lock().is_empty());
    // …the external event does.
    e.events
        .signal_external("manual-kick", HashMap::new(), None)
        .unwrap();
    e.rules.quiesce();
    assert_eq!(e.log.lock().as_slice(), ["kicked()"]);
    // Altering to reference an undefined external event is rejected
    // eagerly.
    let err = e
        .tm
        .run_top(|t| {
            e.rules.alter_rule(
                t,
                "rewire",
                RuleDef::new("rewire").on(EventSpec::external("ghost-event")),
            )
        })
        .unwrap_err();
    assert!(matches!(err, HipacError::UnknownEvent(_)));
}

#[test]
fn times_event_rule_fires_every_nth_update() {
    let e = engine();
    let oid = xrx_oid(&e);
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("every-third")
                .on(EventSpec::on_update("stock").times(3))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "logger".into(),
                    request: "third".into(),
                    args: vec![("count".into(), Expr::param("count"))],
                })),
        )
    })
    .unwrap();
    for i in 0..7 {
        e.tm.run_top(|t| {
            e.store
                .update(t, oid, &[("price", Value::from(10.0 + i as f64))])
        })
        .unwrap();
    }
    // 7 updates → firings after the 3rd and 6th.
    assert_eq!(e.log.lock().as_slice(), ["third(count=3)", "third(count=3)"]);
}

/// Differential check of separate-mode firing recovery. A "transfer"
/// rule's worker transaction is forced to close a wait cycle with the
/// triggering application's transaction — the lock manager picks the
/// worker as deadlock victim — and the bounded retry must re-run it
/// until it commits, ending in exactly the state of the uncontended
/// run.
#[test]
fn separate_deadlock_victim_is_retried_until_it_commits() {
    // Returns (bal(a1), bal(a2), separate_retries).
    fn scenario(contended: bool) -> (Value, Value, u64) {
        let e = engine();
        e.rules.set_separate_retry_limit(5);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let gate_tx = Mutex::new(gate_tx);
        e.rules.register_handler(
            "gate",
            Arc::new(FnHandler(move |_req: &str, _args: &HashMap<String, Value>| {
                let _ = gate_tx.lock().send(());
                // Linger so the application transaction can block on a2
                // before this firing requests a1 — the firing then
                // closes the wait cycle and is chosen as victim.
                std::thread::sleep(std::time::Duration::from_millis(250));
                Ok(())
            })),
        );
        let acct = |name: &str| {
            Query::filtered("acct", Expr::attr("name").bin(BinOp::Eq, Expr::lit(name)))
        };
        e.tm.run_top(|t| {
            e.store.create_class(
                t,
                "acct",
                None,
                vec![
                    AttrDef::new("name", ValueType::Str).indexed(),
                    AttrDef::new("bal", ValueType::Float),
                ],
            )?;
            e.store
                .insert(t, "acct", vec![Value::from("a1"), Value::from(1.0)])?;
            e.store
                .insert(t, "acct", vec![Value::from("a2"), Value::from(2.0)])?;
            e.store
                .create_class(t, "trig", None, vec![AttrDef::new("n", ValueType::Int)])?;
            e.store.insert(t, "trig", vec![Value::from(0)])?;
            e.rules.create_rule(
                t,
                RuleDef::new("transfer")
                    .on(EventSpec::on_update("trig"))
                    .when(Query::filtered(
                        "trig",
                        Expr::NewAttr("n".into()).bin(BinOp::Ge, Expr::lit(0)),
                    ))
                    .then(Action {
                        ops: vec![
                            ActionOp::Db(DbAction::UpdateWhere {
                                query: acct("a2"),
                                assignments: vec![("bal".into(), Expr::lit(200.0))],
                            }),
                            ActionOp::AppRequest {
                                handler: "gate".into(),
                                request: "sync".into(),
                                args: vec![],
                            },
                            ActionOp::Db(DbAction::UpdateWhere {
                                query: acct("a1"),
                                assignments: vec![("bal".into(), Expr::lit(100.0))],
                            }),
                        ],
                    })
                    .ec(CouplingMode::Separate)
                    .ca(CouplingMode::Immediate),
            )?;
            Ok(())
        })
        .unwrap();
        let (a1_oid, a2_oid, trig_oid) = e
            .tm
            .run_top(|t| {
                Ok((
                    e.store.query(t, &acct("a1"), None)?[0].oid,
                    e.store.query(t, &acct("a2"), None)?[0].oid,
                    e.store.query(t, &Query::all("trig"), None)?[0].oid,
                ))
            })
            .unwrap();

        if contended {
            let t1 = e.tm.begin();
            e.store
                .update(t1, a1_oid, &[("bal", Value::from(10.0))])
                .unwrap();
            // Fire the separate rule from an independent, immediately
            // committed transaction so the worker runs concurrently
            // with t1.
            e.tm
                .run_top(|t| e.store.update(t, trig_oid, &[("n", Value::from(1))]))
                .unwrap();
            gate_rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("separate firing reached the gate");
            // Blocks on a2 (the firing holds it); unblocks when the
            // deadlock check kills the firing.
            e.store
                .update(t1, a2_oid, &[("bal", Value::from(2.5))])
                .unwrap();
            e.tm.commit(t1).unwrap();
        } else {
            e.tm
                .run_top(|t| {
                    e.store.update(t, a1_oid, &[("bal", Value::from(10.0))])?;
                    e.store.update(t, a2_oid, &[("bal", Value::from(2.5))])
                })
                .unwrap();
            e.tm
                .run_top(|t| e.store.update(t, trig_oid, &[("n", Value::from(1))]))
                .unwrap();
        }
        e.rules.quiesce();
        assert!(
            e.rules.take_separate_errors().is_empty(),
            "the firing must eventually commit (contended={contended})"
        );
        let (b1, b2) = e
            .tm
            .run_top(|t| {
                Ok((
                    e.store.query(t, &acct("a1"), None)?[0].values[1].clone(),
                    e.store.query(t, &acct("a2"), None)?[0].values[1].clone(),
                ))
            })
            .unwrap();
        let retries = e
            .rules
            .stats
            .separate_retries
            .load(std::sync::atomic::Ordering::Relaxed);
        (b1, b2, retries)
    }

    let clean = scenario(false);
    let contended = scenario(true);
    assert_eq!(
        (&clean.0, &clean.1),
        (&contended.0, &contended.1),
        "differential: contended run must converge to the uncontended state"
    );
    assert_eq!(
        (contended.0, contended.1),
        (Value::from(100.0), Value::from(200.0)),
        "the app-txn-then-firing serial outcome"
    );
    assert_eq!(clean.2, 0, "uncontended run never retries");
    assert!(
        contended.2 >= 1,
        "the deadlock victim must have been retried"
    );
}

/// When every retry of a separate firing keeps hitting the same
/// transient abort, the budget runs out and the firing is
/// dead-lettered: error surfaced via take_separate_errors, counters
/// bumped, and a dead-letter trace recorded.
#[test]
fn exhausted_separate_retries_dead_letter_with_accounting() {
    let e = engine();
    e.rules.set_separate_retry_limit(1);
    assert_eq!(e.rules.separate_retry_limit(), 1);
    e.rules.tracer.set_enabled(true);
    e.tm.run_top(|t| {
        e.rules.create_rule(
            t,
            RuleDef::new("poison")
                .on(EventSpec::on_update("stock"))
                .when(Query::filtered(
                    "stock",
                    Expr::NewAttr("symbol".into()).bin(BinOp::Eq, Expr::lit("XRX")),
                ))
                .then(Action::single(ActionOp::Db(DbAction::UpdateWhere {
                    query: Query::filtered(
                        "stock",
                        Expr::attr("symbol").bin(BinOp::Eq, Expr::lit("XRX")),
                    ),
                    assignments: vec![("price".into(), Expr::lit(1.0))],
                })))
                .ec(CouplingMode::Separate)
                .ca(CouplingMode::Immediate),
        )
    })
    .unwrap();
    let oid = xrx_oid(&e);
    // Hold the write lock on XRX across the firing's whole retry
    // budget: every attempt times out waiting for it.
    let t1 = e.tm.begin();
    e.store
        .update(t1, oid, &[("price", Value::from(55.0))])
        .unwrap();
    e.rules.quiesce(); // initial attempt + 1 retry, then dead-letter
    let errors = e.rules.take_separate_errors();
    assert_eq!(errors.len(), 1, "terminal error surfaced: {errors:?}");
    assert!(
        errors[0].1.is_txn_fatal(),
        "terminal error is the transient abort that exhausted the budget: {:?}",
        errors[0].1
    );
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(e.rules.stats.separate_retries.load(Relaxed), 1);
    assert_eq!(e.rules.stats.separate_dead_letters.load(Relaxed), 1);
    let traces = e.rules.tracer.take();
    let dead: Vec<_> = traces.iter().filter(|tr| tr.dead_letter).collect();
    assert_eq!(dead.len(), 1, "one dead-letter trace: {traces:?}");
    assert_eq!(dead[0].retries, 1);
    assert_eq!(dead[0].rule_name, "poison");
    assert!(!dead[0].action_executed);
    e.tm.commit(t1).unwrap();
    // The dead-lettered action never applied.
    let price = e
        .tm
        .run_top(|t| {
            Ok(e.store.query(
                t,
                &Query::filtered("stock", Expr::attr("symbol").bin(BinOp::Eq, Expr::lit("XRX"))),
                None,
            )?[0]
                .values[1]
                .clone())
        })
        .unwrap();
    assert_eq!(price, Value::from(55.0));
}

/// The replication firing gate: while closed, signals trigger nothing
/// (a replica applying a replicated stream must not re-fire rules the
/// primary already fired); re-opening it (promotion) restores normal
/// firing without recreating any rules.
#[test]
fn firing_gate_suppresses_and_restores_rule_firing() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules
            .create_rule(t, xerox_rule(CouplingMode::Immediate, CouplingMode::Immediate))
    })
    .unwrap();
    let oid = xrx_oid(&e);
    assert!(e.rules.firing_gate_open(), "gate starts open");
    e.rules.set_firing_gate(false);
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(55.0))]))
        .unwrap();
    assert!(
        e.log.lock().is_empty(),
        "closed gate must suppress the firing"
    );
    e.rules.set_firing_gate(true);
    e.tm.run_top(|t| e.store.update(t, oid, &[("price", Value::from(56.0))]))
        .unwrap();
    assert_eq!(e.log.lock().len(), 1, "reopened gate fires normally");
}

#[test]
fn empty_child_commit_leaves_rules_unchanged() {
    let e = engine();
    e.tm.run_top(|t| {
        e.rules
            .create_rule(
                t,
                xerox_rule(CouplingMode::Immediate, CouplingMode::Immediate),
            )
            .map(|_| ())
    })
    .unwrap();
    let t = e.tm.begin();
    let event = e.rules.rule_event(t, "buy-xerox").unwrap();
    let before = (e.rules.rule_count(t), e.rules.match_index_nodes());
    let child = e.tm.begin_child(t).unwrap();
    e.tm.commit(child).unwrap();
    let child = e.tm.begin_child(t).unwrap();
    e.tm.abort(child).unwrap();
    e.tm.commit(t).unwrap();
    let t = e.tm.begin();
    assert_eq!((e.rules.rule_count(t), e.rules.match_index_nodes()), before);
    assert_eq!(e.rules.rule_event(t, "buy-xerox").unwrap(), event);
    e.tm.abort(t).unwrap();
}
