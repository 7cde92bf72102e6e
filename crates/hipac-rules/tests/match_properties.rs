//! Property suite for the discrimination network (`network.rs`).
//!
//! The core soundness claim: the network's candidate set for a signal
//! is a *superset* of the rules the naive oracle would find satisfied
//! (or error on), and every pruned rule — by its indexed first link or
//! by a later link of its guard chain — is one the naive Condition
//! Evaluator provably rejects: pruning changes cost, never outcome.
//! Counterexamples print the offending rule in its DSL rendering.

use hipac_common::{EventId, ObjectId, RuleId, Value, ValueType};
use hipac_event::spec::DbEventKind;
use hipac_event::{DbEventData, EventSignal};
use hipac_object::expr::{BinOp, Expr};
use hipac_object::{AttrDef, ObjectStore, Query};
use hipac_rules::{
    derive_guard, ConditionEvaluator, DefLookup, GuardSpec, MatchNetwork, MemoTable, RuleDef,
};
use hipac_txn::TransactionManager;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Fixture: one class, a few committed rows.
// ---------------------------------------------------------------------------

struct Fixture {
    tm: Arc<TransactionManager>,
    store: Arc<ObjectStore>,
    oid: ObjectId,
}

fn fixture() -> Fixture {
    let tm = Arc::new(TransactionManager::new());
    let store = ObjectStore::with_lock_timeout(
        Arc::clone(&tm),
        None,
        std::time::Duration::from_millis(500),
    )
    .unwrap();
    let oid = tm
        .run_top(|t| {
            store.create_class(
                t,
                "stock",
                None,
                vec![
                    AttrDef::new("sym", ValueType::Str).indexed(),
                    AttrDef::new("price", ValueType::Float),
                    AttrDef::new("qty", ValueType::Int).nullable(),
                ],
            )?;
            store.insert(
                t,
                "stock",
                vec![Value::from("a"), Value::from(1.0), Value::from(1i64)],
            )?;
            store.insert(
                t,
                "stock",
                vec![Value::from("b"), Value::from(7.0), Value::Null],
            )
        })
        .unwrap();
    Fixture { tm, store, oid }
}

// ---------------------------------------------------------------------------
// Strategies: delta-shaped predicates over (sym, price, qty).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum AttrPick {
    Price,
    Qty,
    Sym,
}

fn arb_attr() -> impl Strategy<Value = AttrPick> {
    prop_oneof![
        Just(AttrPick::Price),
        Just(AttrPick::Qty),
        Just(AttrPick::Sym),
    ]
}

fn arb_cmp() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

fn arb_value(attr: AttrPick) -> BoxedStrategy<Value> {
    match attr {
        AttrPick::Price => prop_oneof![
            (0u64..12).prop_map(|k| Value::Float(k as f64)),
            (0i64..12).prop_map(Value::Int),
            Just(Value::Null),
        ]
        .boxed(),
        AttrPick::Qty => prop_oneof![
            (0i64..12).prop_map(Value::Int),
            (0u64..12).prop_map(|k| Value::Float(k as f64 + 0.5)),
            Just(Value::Null),
        ]
        .boxed(),
        AttrPick::Sym => prop_oneof![
            Just(Value::Str("a".into())),
            Just(Value::Str("b".into())),
            Just(Value::Str("zz".into())),
        ]
        .boxed(),
    }
}

fn attr_name(a: AttrPick) -> &'static str {
    match a {
        AttrPick::Price => "price",
        AttrPick::Qty => "qty",
        AttrPick::Sym => "sym",
    }
}

/// The comparisons a guard-chain link may use (`!=` is not one).
fn arb_link_cmp() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

/// One comparison leaf: `new.X op lit`, `old.X op lit`, or the
/// flipped literal-first form (exercises guard-side normalization).
fn arb_leaf() -> impl Strategy<Value = Expr> {
    arb_comparison(arb_cmp())
}

fn arb_comparison(cmp: impl Strategy<Value = BinOp>) -> impl Strategy<Value = Expr> {
    (arb_attr(), cmp, any::<bool>(), any::<bool>()).prop_flat_map(|(attr, op, use_new, flip)| {
        arb_value(attr).prop_map(move |v| {
            let name = attr_name(attr).to_owned();
            let image = if use_new {
                Expr::NewAttr(name)
            } else {
                Expr::OldAttr(name)
            };
            if flip {
                Expr::Binary(op, Box::new(Expr::Literal(v)), Box::new(image))
            } else {
                Expr::Binary(op, Box::new(image), Box::new(Expr::Literal(v)))
            }
        })
    })
}

/// A conjunct that is not a literal link and so ends a guard chain:
/// `!=`, an arithmetic side (which errors on a null `qty`), or an
/// image-against-image comparison.
fn arb_chain_break() -> impl Strategy<Value = Expr> {
    prop_oneof![
        arb_comparison(Just(BinOp::Ne)),
        (0i64..12).prop_map(|k| Expr::Binary(
            BinOp::Gt,
            Box::new(Expr::Binary(
                BinOp::Add,
                Box::new(Expr::NewAttr("qty".into())),
                Box::new(Expr::Literal(Value::Int(1))),
            )),
            Box::new(Expr::Literal(Value::Int(k))),
        )),
        Just(Expr::Binary(
            BinOp::Ge,
            Box::new(Expr::NewAttr("price".into())),
            Box::new(Expr::OldAttr("price".into())),
        )),
    ]
}

/// A guard chain of 2–4 literal links over both images, the nullable
/// `qty` and Int/Float cross comparisons, sometimes interrupted by a
/// non-literal conjunct, nested either way round.
fn arb_chain() -> impl Strategy<Value = Expr> {
    (
        proptest::collection::vec(arb_comparison(arb_link_cmp()), 2..5),
        any::<bool>(),
        0usize..4,
        arb_chain_break(),
        any::<bool>(),
    )
        .prop_map(|(mut conjuncts, interrupt, at, brk, right_nested)| {
            if interrupt {
                let at = 1 + at % (conjuncts.len() - 1);
                conjuncts.insert(at, brk);
            }
            let and = |a: Expr, b: Expr| Expr::Binary(BinOp::And, Box::new(a), Box::new(b));
            if right_nested {
                let mut rev = conjuncts.into_iter().rev();
                let last = rev.next().expect("two links at least");
                rev.fold(last, |acc, c| and(c, acc))
            } else {
                let mut it = conjuncts.into_iter();
                let first = it.next().expect("two links at least");
                it.fold(first, and)
            }
        })
}

/// Predicates: single leaves and guard chains, conjunctions (guardable
/// when the first conjunct qualifies) and disjunctions (always
/// residual).
fn arb_predicate() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![arb_leaf(), arb_chain()];
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Binary(BinOp::And, Box::new(a), Box::new(b))),
            (inner.clone(), inner)
                .prop_map(|(a, b)| Expr::Binary(BinOp::Or, Box::new(a), Box::new(b))),
        ]
    })
}

/// An update's old and new images; one signal in four carries no old
/// image, so a chain link on `old.*` is one naive evaluation errors on.
fn arb_delta() -> impl Strategy<Value = (Option<Vec<Value>>, Vec<Value>)> {
    let row = |sym: &'static str| {
        (
            prop_oneof![Just(sym)],
            0u64..12,
            prop_oneof![(0i64..12).prop_map(Value::Int), Just(Value::Null)],
        )
            .prop_map(|(s, p, q)| vec![Value::Str(s.into()), Value::Float(p as f64), q])
    };
    (row("a"), row("a"), 0u8..4).prop_map(|(old, new, k)| ((k > 0).then_some(old), new))
}

// ---------------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Soundness: a rule the network prunes — on its indexed link or a
    /// later link of its guard chain — is one the naive oracle
    /// evaluates to *unsatisfied without error*. Equivalently the
    /// candidate set contains every true match and every would-error
    /// rule, so routing only candidates through the unchanged per-rule
    /// path cannot change observable behavior.
    #[test]
    fn pruned_rules_are_naive_rejections(
        preds in proptest::collection::vec(arb_predicate(), 1..12),
        (old_row, new_row) in arb_delta(),
    ) {
        let fx = fixture();
        let event = EventId(1);
        let network = MatchNetwork::new();
        let rules: Vec<RuleDef> = preds
            .iter()
            .enumerate()
            .map(|(i, p)| {
                RuleDef::new(format!("p{i}"))
                    .on(hipac_event::EventSpec::on_update("stock"))
                    .when(Query::filtered("stock", p.clone()))
            })
            .collect();
        for (i, def) in rules.iter().enumerate() {
            network.place_committed(event, RuleId(i as u64), derive_guard(def));
        }

        let t = fx.tm.begin();
        let schema = fx.store.schema(t);
        let class = schema.class_by_name("stock").unwrap().id;
        let signal = EventSignal {
            txn: Some(t),
            db: Some(DbEventData {
                kind: DbEventKind::Update,
                class,
                class_lineage: vec!["stock".into()],
                oid: Some(fx.oid),
                old: old_row.clone(),
                new: Some(new_row.clone()),
            }),
            ..EventSignal::at(0)
        };

        let candidates = network
            .probe(event, &fx.store, &signal, &|rid, f| {
                rules.get(rid.0 as usize).map(f)
            })
            .expect("rules are wired");
        let evaluator = ConditionEvaluator::new(Arc::clone(&fx.store));
        for (i, def) in rules.iter().enumerate() {
            let rid = RuleId(i as u64);
            if candidates.binary_search(&rid).is_ok() {
                continue; // kept: the per-rule path decides, as naive would
            }
            let conds: Vec<&[Query]> = vec![&def.condition];
            match evaluator.evaluate_batch(t, &conds, &signal) {
                Ok((outcomes, _)) => prop_assert!(
                    !outcomes[0].satisfied,
                    "network pruned a satisfied rule\n  rule: {def}\n  old: {old_row:?}\n  new: {new_row:?}"
                ),
                Err(e) => prop_assert!(
                    false,
                    "network pruned a rule whose naive evaluation errors ({e})\n  rule: {def}\n  old: {old_row:?}\n  new: {new_row:?}"
                ),
            }
        }
        fx.tm.abort(t).unwrap();
    }

    /// Without a delta payload (or a transaction to resolve schema
    /// under), the network cannot discriminate and must return every
    /// wired rule.
    #[test]
    fn probe_without_delta_keeps_everything(
        preds in proptest::collection::vec(arb_predicate(), 1..8),
    ) {
        let fx = fixture();
        let event = EventId(1);
        let network = MatchNetwork::new();
        for (i, p) in preds.iter().enumerate() {
            let def = RuleDef::new(format!("p{i}"))
                .on(hipac_event::EventSpec::on_update("stock"))
                .when(Query::filtered("stock", p.clone()));
            network.place_committed(event, RuleId(i as u64), derive_guard(&def));
        }
        let bare = EventSignal::at(0);
        let all = network.probe(event, &fx.store, &bare, &|_, _| None).unwrap();
        prop_assert_eq!(all.len(), preds.len());
        prop_assert!(all.windows(2).all(|w| w[0] < w[1]), "candidates sorted by rid");
    }

    /// Guard derivation is stable and structural: residual guards stay
    /// residual under re-derivation, guarded specs reference only
    /// attributes the predicate mentions, and a guard chain is indexed
    /// on its first link.
    #[test]
    fn derived_guards_are_consistent(pred in arb_predicate(), chain in arb_chain()) {
        let chained = RuleDef::new("c")
            .on(hipac_event::EventSpec::on_update("stock"))
            .when(Query::filtered("stock", chain.clone()));
        let g = derive_guard(&chained);
        prop_assert_eq!(&g, &derive_guard(&chained), "derivation must be deterministic for {}", chained);
        let first = chain.conjuncts()[0].clone();
        let alone = RuleDef::new("c")
            .on(hipac_event::EventSpec::on_update("stock"))
            .when(Query::filtered("stock", first));
        match (&g, derive_guard(&alone)) {
            (
                GuardSpec::Guarded { class, image, attr, op, value, .. },
                GuardSpec::Guarded { class: c1, image: i1, attr: a1, op: o1, value: v1, .. },
            ) => prop_assert!(
                (class, image, attr, op, value) == (&c1, &i1, &a1, &o1, &v1),
                "chain {} is not indexed on its first link",
                chained
            ),
            (g, alone) => prop_assert!(false, "chain {chained} derived {g:?} / {alone:?}"),
        }
        let def = RuleDef::new("g")
            .on(hipac_event::EventSpec::on_update("stock"))
            .when(Query::filtered("stock", pred));
        let g1 = derive_guard(&def);
        let g2 = derive_guard(&def);
        prop_assert_eq!(&g1, &g2, "derivation must be deterministic for {}", def);
        if let GuardSpec::Guarded { attr, ref_attrs, .. } = &g1 {
            prop_assert!(
                ref_attrs.contains(attr),
                "guard attr {} missing from ref union of {}",
                attr,
                def
            );
            prop_assert!(ref_attrs.windows(2).all(|w| w[0] < w[1]), "ref_attrs sorted");
        }
    }
}

// ---------------------------------------------------------------------------
// Memo: hits must be indistinguishable from re-running the query.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleave committed writes with memoized queries: every lookup
    /// that hits must return exactly what the store would.
    #[test]
    fn memo_never_serves_stale_rows(
        script in proptest::collection::vec((0u8..4, 0u64..12), 1..24),
    ) {
        let fx = fixture();
        fx.store.set_write_tracking(true);
        let memo = MemoTable::new(16);
        let queries: Vec<Query> = (0..4)
            .map(|k| Query::parse(&format!("from stock where price >= {k}.0")).unwrap())
            .collect();
        for (kind, arg) in script {
            match kind {
                // Committed write: must invalidate affected entries.
                0 => {
                    fx.tm
                        .run_top(|t| {
                            fx.store
                                .update(t, fx.oid, &[("price", Value::Float(arg as f64))])
                                .map(|_| ())
                        })
                        .unwrap();
                }
                // Aborted write: must NOT poison future lookups with
                // uncommitted rows (nothing to assert beyond the
                // comparisons below).
                1 => {
                    let t = fx.tm.begin();
                    let _ = fx.store.update(t, fx.oid, &[("price", Value::Float(99.0))]);
                    fx.tm.abort(t).unwrap();
                }
                // Memoized read: lookup-or-fill, then compare to a
                // fresh store query in the same transaction.
                _ => {
                    let q = &queries[(arg % 4) as usize];
                    fx.tm
                        .run_top(|t| {
                            let memoed = match memo.lookup(&fx.store, t, q)? {
                                Some(rows) => rows,
                                None => {
                                    let stamp = fx.store.data_stamp(&q.class);
                                    let rows = fx.store.query(t, q, None)?;
                                    memo.fill(&fx.store, t, q, stamp, &rows);
                                    rows
                                }
                            };
                            let fresh = fx.store.query(t, q, None)?;
                            assert_eq!(memoed, fresh, "memo diverged from store for {q:?}");
                            Ok(())
                        })
                        .unwrap();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite: signal dispatch must not copy the rule list per signal.
// ---------------------------------------------------------------------------

/// Regression for the per-signal `Vec` clone under the manager lock:
/// repeated candidate handles for an event are the *same* `Arc`
/// allocation (dispatch clones the handle, O(1)); the allocation only
/// changes when the rule list itself changes.
#[test]
fn candidate_handle_is_shared_not_copied() {
    use hipac_event::EventRegistry;
    use hipac_rules::RuleManager;

    let fx = fixture();
    let clock = Arc::new(hipac_common::VirtualClock::new());
    let events = Arc::new(EventRegistry::new(clock as Arc<dyn hipac_common::Clock>));
    let rules = RuleManager::new(
        Arc::clone(&fx.tm),
        Arc::clone(&fx.store),
        Arc::clone(&events),
        1,
    );
    let event = fx
        .tm
        .run_top(|t| {
            for i in 0..64 {
                rules.create_rule(
                    t,
                    RuleDef::new(format!("r{i}"))
                        .on(hipac_event::EventSpec::on_update("stock"))
                        .when(Query::parse("from stock where new.price >= 1000000.0").unwrap()),
                )?;
            }
            rules.rule_event(t, "r0")
        })
        .unwrap();

    let h1 = rules.candidate_handle(event).expect("rules wired");
    assert_eq!(h1.len(), 64);
    // Signals in between must not rebuild the list.
    fx.tm
        .run_top(|t| {
            fx.store
                .update(t, fx.oid, &[("price", Value::Float(2.0))])
                .map(|_| ())
        })
        .unwrap();
    let h2 = rules.candidate_handle(event).expect("rules wired");
    assert!(
        Arc::ptr_eq(&h1, &h2),
        "signal dispatch copied the rule list instead of sharing the Arc"
    );
    // A definition change legitimately replaces the allocation.
    fx.tm.run_top(|t| rules.drop_rule(t, "r63")).unwrap();
    let h3 = rules.candidate_handle(event).expect("rules wired");
    assert_eq!(h3.len(), 63);
}

// ---------------------------------------------------------------------------
// Unstable-rule windows: uncommitted definition changes stay candidates.
// ---------------------------------------------------------------------------

#[test]
fn uncommitted_changes_stay_candidates() {
    let fx = fixture();
    let event = EventId(9);
    let network = MatchNetwork::new();
    let def = RuleDef::new("r")
        .on(hipac_event::EventSpec::on_update("stock"))
        .when(Query::parse("from stock where new.price >= 1000000.0").unwrap());
    network.place_committed(event, RuleId(1), derive_guard(&def));
    let defs: DefLookup<'_> = &|_, f| Some(f(&def));

    let t = fx.tm.begin();
    let schema = fx.store.schema(t);
    let class = schema.class_by_name("stock").unwrap().id;
    let signal = EventSignal {
        txn: Some(t),
        db: Some(DbEventData {
            kind: DbEventKind::Update,
            class,
            class_lineage: vec!["stock".into()],
            oid: Some(fx.oid),
            old: Some(vec![Value::Str("a".into()), Value::Float(1.0), Value::Int(1)]),
            new: Some(vec![Value::Str("a".into()), Value::Float(2.0), Value::Int(1)]),
        }),
        ..EventSignal::at(0)
    };
    // Guarded at 1e6, the update to 2.0 prunes the rule…
    assert!(network
        .probe(event, &fx.store, &signal, defs)
        .unwrap()
        .is_empty());
    // …but once a transaction marks it changed, it must stay a
    // candidate until that top resolves.
    network.mark_pending(event, RuleId(1), t);
    assert_eq!(
        network.probe(event, &fx.store, &signal, defs).unwrap(),
        vec![RuleId(1)]
    );
    // Abort clears the mark and re-placement resumes pruning.
    network.clear_top(t);
    assert!(network
        .probe(event, &fx.store, &signal, defs)
        .unwrap()
        .is_empty());
    fx.tm.abort(t).unwrap();
}
