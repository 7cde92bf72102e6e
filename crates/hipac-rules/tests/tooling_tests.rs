//! Tests for the §7 rule-base development tools: firing traces and
//! rule explanation.

use hipac_common::{Clock, TxnId, Value, ValueType, VirtualClock};
use hipac_event::{EventRegistry, EventSpec};
use hipac_object::expr::{BinOp, Expr};
use hipac_object::{AttrDef, ObjectStore, Query};
use hipac_rules::trace::QueryStrategy;
use hipac_rules::{Action, ActionOp, CouplingMode, DbAction, RuleDef, RuleManager};
use hipac_txn::TransactionManager;
use std::sync::Arc;

fn engine() -> (
    Arc<TransactionManager>,
    Arc<ObjectStore>,
    Arc<RuleManager>,
) {
    let tm = Arc::new(TransactionManager::new());
    let store = ObjectStore::new(Arc::clone(&tm), None).unwrap();
    let clock = Arc::new(VirtualClock::new());
    let events = Arc::new(EventRegistry::new(clock as Arc<dyn Clock>));
    let rules = RuleManager::new(Arc::clone(&tm), Arc::clone(&store), events, 2);
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
        Ok(())
    })
    .unwrap();
    (tm, store, rules)
}

fn xrx(store: &ObjectStore, tm: &TransactionManager) -> hipac_common::ObjectId {
    tm.run_top(|t| Ok(store.query(t, &Query::all("stock"), None)?[0].oid))
        .unwrap()
}

#[test]
fn tracer_records_satisfied_and_unsatisfied_firings() {
    let (tm, store, rules) = engine();
    tm.run_top(|t| {
        rules.create_rule(
            t,
            RuleDef::new("hit")
                .on(EventSpec::on_update("stock"))
                .when(Query::filtered(
                    "stock",
                    Expr::NewAttr("price".into()).bin(BinOp::Ge, Expr::lit(50.0)),
                ))
                .then(Action::single(ActionOp::Db(DbAction::UpdateWhere {
                    // No-op action: update nothing.
                    query: Query::filtered(
                        "stock",
                        Expr::attr("symbol").bin(BinOp::Eq, Expr::lit("NONE")),
                    ),
                    assignments: vec![("price".into(), Expr::lit(0.0))],
                }))),
        )?;
        rules.create_rule(
            t,
            RuleDef::new("miss")
                .on(EventSpec::on_update("stock"))
                .when(Query::filtered(
                    "stock",
                    Expr::NewAttr("price".into()).bin(BinOp::Ge, Expr::lit(1e9)),
                ))
                .then(Action::none()),
        )?;
        Ok(())
    })
    .unwrap();
    let oid = xrx(&store, &tm);

    // Nothing recorded while disabled.
    tm.run_top(|t| store.update(t, oid, &[("price", Value::from(55.0))]))
        .unwrap();
    assert!(rules.tracer.snapshot().is_empty());

    rules.tracer.set_enabled(true);
    tm.run_top(|t| store.update(t, oid, &[("price", Value::from(60.0))]))
        .unwrap();
    let traces = rules.tracer.take();
    let hit = traces.iter().find(|t| t.rule_name == "hit").unwrap();
    assert!(hit.satisfied && hit.action_executed);
    assert_eq!(hit.ec_coupling, CouplingMode::Immediate);
    assert!(hit.event.is_some());
    match rules.matching() {
        hipac_rules::Matching::Naive => {
            // Naive dispatch triggers every rule on the event, so the
            // unsatisfied one leaves an unsatisfied trace record.
            assert_eq!(traces.len(), 2, "one record per triggered rule");
            let miss = traces.iter().find(|t| t.rule_name == "miss").unwrap();
            assert!(!miss.satisfied && !miss.action_executed);
            // Condition evaluation took real time even though the rule
            // did not fire; the trace records it rather than a
            // hardwired zero.
            assert!(miss.duration_us > 0);
            assert!(
                hit.duration_us >= miss.duration_us,
                "hit adds action time on top of the shared condition phase"
            );
        }
        hipac_rules::Matching::Network => {
            // The discrimination network prunes "miss" (guard at 1e9
            // can never match a 60.0 update) before it triggers, so no
            // trace record exists for it.
            assert_eq!(traces.len(), 1, "pruned rule never reaches the tracer");
            assert!(rules.match_pruned() >= 1, "the miss rule was pruned");
        }
    }
}

#[test]
fn tracer_shows_cascade_depths() {
    let (tm, store, rules) = engine();
    tm.run_top(|t| {
        store.create_class(t, "echo", None, vec![AttrDef::new("n", ValueType::Int)])?;
        rules.create_rule(
            t,
            RuleDef::new("level0")
                .on(EventSpec::on_update("stock"))
                .then(Action::single(ActionOp::Db(DbAction::Insert {
                    class: "echo".into(),
                    values: vec![Expr::lit(1)],
                }))),
        )?;
        rules.create_rule(
            t,
            RuleDef::new("level1")
                .on(EventSpec::db(
                    hipac_event::spec::DbEventKind::Insert,
                    Some("echo"),
                ))
                .then(Action::none()),
        )?;
        Ok(())
    })
    .unwrap();
    let oid = xrx(&store, &tm);
    rules.tracer.set_enabled(true);
    tm.run_top(|t| store.update(t, oid, &[("price", Value::from(1.0))]))
        .unwrap();
    let traces = rules.tracer.take();
    let d0 = traces.iter().find(|t| t.rule_name == "level0").unwrap();
    let d1 = traces.iter().find(|t| t.rule_name == "level1").unwrap();
    assert!(
        d1.cascade_depth > d0.cascade_depth,
        "cascaded firing at greater depth: {} vs {}",
        d1.cascade_depth,
        d0.cascade_depth
    );
}

#[test]
fn explain_reports_strategies_and_derivation() {
    let (tm, _store, rules) = engine();
    tm.run_top(|t| {
        rules.create_rule(
            t,
            RuleDef::new("mixed")
                .on(EventSpec::on_update("stock"))
                .when(Query::parse("from stock where new.price >= 50.0").unwrap())
                .when(Query::parse("from stock where symbol = \"XRX\"").unwrap())
                .when(Query::parse("from stock where price > 10.0").unwrap())
                .then(Action::none())
                .ec(CouplingMode::Deferred)
                .ca(CouplingMode::Separate),
        )?;
        rules.create_rule(
            t,
            RuleDef::new("derived")
                .when(Query::parse("from stock where price > 0.0").unwrap())
                .then(Action::none()),
        )?;
        Ok(())
    })
    .unwrap();
    tm.run_top(|t| {
        let ex = rules.explain_rule(t, "mixed")?;
        assert!(!ex.event_derived);
        assert_eq!(
            ex.condition_strategies,
            vec![
                QueryStrategy::Delta,
                QueryStrategy::IndexEq {
                    attr: "symbol".into()
                },
                QueryStrategy::Scan,
            ]
        );
        assert_eq!(ex.ec_coupling, CouplingMode::Deferred);
        assert_eq!(ex.ca_coupling, CouplingMode::Separate);
        assert_eq!(ex.action_ops, 0);
        let text = ex.to_string();
        assert!(text.contains("IndexEq"));

        let ex = rules.explain_rule(t, "derived")?;
        assert!(ex.event_derived, "event was derived from the condition");
        assert!(rules.explain_rule(t, "ghost").is_err());
        Ok(())
    })
    .unwrap();
}

#[test]
fn manual_fire_respects_rule_locking(){
    // fire_rule takes the rule read lock inside the caller's
    // transaction: verify via trace that the firing attributes to it.
    let (tm, _store, rules) = engine();
    tm.run_top(|t| {
        rules.create_rule(
            t,
            RuleDef::new("manual")
                .on(EventSpec::on_update("stock"))
                .then(Action::none()),
        )
    })
    .unwrap();
    rules.tracer.set_enabled(true);
    let t = tm.begin();
    rules
        .fire_rule(t, "manual", std::collections::HashMap::new())
        .unwrap();
    tm.commit(t).unwrap();
    let traces = rules.tracer.take();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].txn, Some(TxnId(t.raw())));
    assert!(traces[0].satisfied, "empty condition is always satisfied");
}

#[test]
fn explain_reports_network_placement() {
    let (tm, _store, rules) = engine();
    let rule = |name: &str, text: &str| {
        RuleDef::new(name)
            .on(EventSpec::on_update("stock"))
            .when(Query::parse(text).unwrap())
            .then(Action::none())
    };
    tm.run_top(|t| {
        rules.create_rule(
            t,
            rule(
                "chain",
                "from stock where new.symbol = \"XRX\" and 50.0 <= new.price and old.price < 50.0 and new.price != old.price",
            ),
        )?;
        rules.create_rule(t, rule("single", "from stock where new.price > 10.0"))?;
        rules.create_rule(t, rule("either", "from stock where new.price > 10.0 or new.symbol = \"IBM\""))?;
        Ok(())
    })
    .unwrap();
    tm.run_top(|t| {
        let ex = rules.explain_rule(t, "chain")?;
        assert_eq!(
            ex.placement,
            "stock: indexed on new.symbol = \"XRX\"; checks new.price >= 50.0 and old.price < 50.0"
        );
        assert!(ex.to_string().contains("  placement: stock: indexed on new.symbol"));
        assert_eq!(
            rules.explain_rule(t, "single")?.placement,
            "stock: indexed on new.price > 10.0"
        );
        assert_eq!(
            rules.explain_rule(t, "either")?.placement,
            "residual (a candidate for every signal)"
        );
        Ok(())
    })
    .unwrap();
}
