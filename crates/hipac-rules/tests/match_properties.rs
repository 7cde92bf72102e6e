//! Property suite for the discrimination network (`network.rs`).
//!
//! The core soundness claim: the network's candidate set for a signal
//! is a *superset* of the rules the naive oracle would find satisfied
//! (or error on), and every pruned rule — by its indexed first link or
//! by a later link of its guard chain — is one the naive Condition
//! Evaluator provably rejects: pruning changes cost, never outcome.
//! The network checks later links compiled into its buckets; a second
//! oracle walks each rule's chain from its definition instead, and the
//! two must agree exactly. Counterexamples print the offending rule in
//! its DSL rendering.

use hipac_common::{EventId, ObjectId, RuleId, TxnId, Value, ValueType};
use hipac_event::spec::DbEventKind;
use hipac_event::{DbEventData, EventSignal};
use hipac_object::expr::{BinOp, Expr};
use hipac_object::{AttrDef, ObjectStore, Query, Schema};
use hipac_rules::{
    placement, ConditionEvaluator, ImageRef, Link, MatchNetwork, Placement, RuleDef,
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

/// An update signal on the fixture's one `stock` row, in `txn`.
fn update_signal(
    fx: &Fixture,
    txn: TxnId,
    old: Option<Vec<Value>>,
    new: Vec<Value>,
) -> EventSignal {
    let class = fx.store.schema(txn).class_by_name("stock").unwrap().id;
    EventSignal {
        txn: Some(txn),
        db: Some(Arc::new(DbEventData {
            kind: DbEventKind::Update,
            class,
            class_lineage: vec!["stock".into()],
            oid: Some(fx.oid),
            old: old.map(Into::into),
            new: Some(new.into()),
        })),
        ..EventSignal::at(0)
    }
}

fn rule_on_update(name: &str, predicate: Expr) -> RuleDef {
    RuleDef::new(name)
        .on(hipac_event::EventSpec::on_update("stock"))
        .when(Query::filtered("stock", predicate))
}

// ---------------------------------------------------------------------------
// The definition-walking oracle.
// ---------------------------------------------------------------------------

/// Would the network keep `def` as a candidate for this delta? Residual
/// rules are kept; a guarded rule is kept when its query's class is
/// outside the event's lineage or a referenced attribute does not
/// resolve, and otherwise unless its whole guard chain — the indexed
/// link first, then the later ones — provably fails. The network
/// decides the first two per attribute group rather than per rule, which
/// agrees with this per-rule reading whenever every rule's attributes
/// resolve, as they do on the fixture's one class.
fn oracle_keeps(def: &RuleDef, schema: &Schema, db: &DbEventData) -> bool {
    let Placement::Guarded {
        class,
        indexed,
        checked,
        ref_attrs,
    } = placement(def)
    else {
        return true;
    };
    if !db.class_lineage.iter().any(|c| c == class) {
        return true;
    }
    if ref_attrs
        .iter()
        .any(|a| schema.resolve_attr(db.class, a).is_err())
    {
        return true;
    }
    !chain_fails(std::iter::once(indexed).chain(checked), schema, db)
}

/// Does naive evaluation provably find the chain false, without error?
/// Walk the links in the evaluator's left-to-right order, resolving
/// each attribute by name: a false link decides it; a link whose image,
/// attribute or slot is missing is one the evaluator would error on.
fn chain_fails<'a>(
    links: impl IntoIterator<Item = Link<'a>>,
    schema: &Schema,
    db: &DbEventData,
) -> bool {
    for link in links {
        let img = match link.image {
            ImageRef::Old => db.old.as_deref(),
            ImageRef::New => db.new.as_deref(),
        };
        let Some(img) = img else { return false };
        let Ok((slot, _)) = schema.resolve_attr(db.class, link.attr) else {
            return false;
        };
        let Some(v) = img.get(slot) else { return false };
        if !link.holds(v) {
            return true;
        }
    }
    false
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
            network.place_committed(event, RuleId(i as u64), def);
        }

        let t = fx.tm.begin();
        let signal = update_signal(&fx, t, old_row.clone(), new_row.clone());
        let candidates = network
            .probe(event, &fx.store, &signal)
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
            let def = rule_on_update(&format!("p{i}"), p.clone());
            network.place_committed(event, RuleId(i as u64), &def);
        }
        let bare = EventSignal::at(0);
        let all = network.probe(event, &fx.store, &bare).unwrap();
        prop_assert_eq!(all.len(), preds.len());
        prop_assert!(all.windows(2).all(|w| w[0] < w[1]), "candidates sorted by rid");
    }

    /// The compiled probe agrees with the definition-walking oracle:
    /// for random rule sets and deltas, the candidate set is exactly the
    /// rules the oracle keeps, and it contains every rule the Condition
    /// Evaluator finds satisfied.
    #[test]
    fn compiled_probe_matches_the_definition_oracle(
        preds in proptest::collection::vec(arb_predicate(), 1..16),
        (old_row, new_row) in arb_delta(),
    ) {
        let fx = fixture();
        let event = EventId(1);
        let network = MatchNetwork::new();
        let rules: Vec<RuleDef> = preds
            .iter()
            .enumerate()
            .map(|(i, p)| rule_on_update(&format!("p{i}"), p.clone()))
            .collect();
        for (i, def) in rules.iter().enumerate() {
            network.place_committed(event, RuleId(i as u64), def);
        }

        let t = fx.tm.begin();
        let signal = update_signal(&fx, t, old_row.clone(), new_row.clone());
        let db = signal.db.as_ref().unwrap();
        let schema = fx.store.schema(t);
        let candidates = network.probe(event, &fx.store, &signal).expect("rules are wired");
        let oracle: Vec<RuleId> = (0..rules.len())
            .filter(|&i| oracle_keeps(&rules[i], &schema, db))
            .map(|i| RuleId(i as u64))
            .collect();
        prop_assert_eq!(
            &candidates,
            &oracle,
            "compiled probe and oracle disagree\n  rules: {:?}\n  old: {:?}\n  new: {:?}",
            rules.iter().map(ToString::to_string).collect::<Vec<_>>(),
            old_row,
            new_row
        );
        let evaluator = ConditionEvaluator::new(Arc::clone(&fx.store));
        for (i, def) in rules.iter().enumerate() {
            let conds: Vec<&[Query]> = vec![&def.condition];
            if let Ok((outcomes, _)) = evaluator.evaluate_batch(t, &conds, &signal) {
                prop_assert!(
                    !outcomes[0].satisfied || candidates.contains(&RuleId(i as u64)),
                    "satisfied rule missing from candidates: {}", def
                );
            }
        }
        fx.tm.abort(t).unwrap();
    }

    /// Placement is stable and structural: derivation is deterministic,
    /// a guard chain is indexed on its first link and checks the rest in
    /// order, and a guarded placement's referenced attributes cover
    /// every link.
    #[test]
    fn derived_guards_are_consistent(pred in arb_predicate(), chain in arb_chain()) {
        let chained = rule_on_update("c", chain.clone());
        let p = placement(&chained);
        prop_assert_eq!(&p, &placement(&chained), "derivation must be deterministic for {}", chained);
        let first = chain.conjuncts()[0].clone();
        let alone = rule_on_update("c", first);
        match (&p, placement(&alone)) {
            (
                Placement::Guarded { class, indexed, checked, .. },
                Placement::Guarded { class: c1, indexed: i1, checked: k1, .. },
            ) => {
                prop_assert!(
                    (class, indexed) == (&c1, &i1),
                    "chain {} is not indexed on its first link",
                    chained
                );
                prop_assert!(k1.is_empty(), "a lone link checks nothing");
                prop_assert!(
                    checked.len() < chain.conjuncts().len(),
                    "chain {} checks more links than it has",
                    chained
                );
            }
            (p, alone) => prop_assert!(false, "chain {chained} placed {p:?} / {alone:?}"),
        }
        let def = rule_on_update("g", pred);
        let p = placement(&def);
        prop_assert_eq!(&p, &placement(&def), "derivation must be deterministic for {}", def);
        if let Placement::Guarded { indexed, checked, ref_attrs, .. } = &p {
            for link in std::iter::once(indexed).chain(checked) {
                prop_assert!(
                    ref_attrs.contains(&link.attr),
                    "link attr {} missing from ref union of {}",
                    link.attr,
                    def
                );
            }
            prop_assert!(ref_attrs.windows(2).all(|w| w[0] < w[1]), "ref_attrs sorted");
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
    network.place_committed(event, RuleId(1), &def);

    let t = fx.tm.begin();
    let signal = update_signal(
        &fx,
        t,
        Some(vec![Value::Str("a".into()), Value::Float(1.0), Value::Int(1)]),
        vec![Value::Str("a".into()), Value::Float(2.0), Value::Int(1)],
    );
    // Guarded at 1e6, the update to 2.0 prunes the rule…
    assert!(network
        .probe(event, &fx.store, &signal)
        .unwrap()
        .is_empty());
    // …but once a transaction marks it changed, it must stay a
    // candidate until that top resolves.
    network.mark_pending(event, RuleId(1), t);
    assert_eq!(
        network.probe(event, &fx.store, &signal).unwrap(),
        vec![RuleId(1)]
    );
    // Abort clears the mark and re-placement resumes pruning.
    network.clear_top(t);
    assert!(network
        .probe(event, &fx.store, &signal)
        .unwrap()
        .is_empty());
    fx.tm.abort(t).unwrap();
}

// ---------------------------------------------------------------------------
// Removal by derivation: the network re-derives a rule's old placement
// from its old committed definition.
// ---------------------------------------------------------------------------

/// Drive a rule set through every kind of definition change, in plain,
/// aborted and child transactions. After each, the manager's network
/// must equal one built fresh from the committed definitions: the same
/// node count and the same candidates for a fixed set of probes. A
/// removal that derived the placement from the *new* definition would
/// leave the old bucket behind on the first indexed-literal alter.
#[test]
fn removal_derives_from_the_old_definition() {
    use hipac_event::{EventRegistry, EventSpec};
    use hipac_rules::RuleManager;
    use std::collections::{BTreeMap, BTreeSet};

    let fx = fixture();
    let clock = Arc::new(hipac_common::VirtualClock::new());
    let events = Arc::new(EventRegistry::new(clock as Arc<dyn hipac_common::Clock>));
    let rules = RuleManager::new(Arc::clone(&fx.tm), Arc::clone(&fx.store), events, 1);
    let q = |text: &str| Query::parse(text).unwrap();
    let on_update = |name: &str, text: &str| {
        RuleDef::new(name)
            .on(EventSpec::on_update("stock"))
            .when(q(text))
    };
    let on_insert = |name: &str, text: &str| {
        RuleDef::new(name)
            .on(EventSpec::db(DbEventKind::Insert, Some("stock")))
            .when(q(text))
    };
    let row = |sym: &str, price: f64, qty: Option<i64>| {
        vec![
            Value::from(sym),
            Value::from(price),
            qty.map_or(Value::Null, Value::Int),
        ]
    };
    let probes = [
        (Some(row("a", 1.0, Some(1))), row("a", 4.0, Some(3))),
        (Some(row("a", 7.0, None)), row("b", 2.0, Some(4))),
        (None, row("b", 6.5, Some(2))),
        (Some(row("zz", 0.0, Some(0))), row("zz", 10.0, None)),
        (Some(row("b", 3.0, Some(9))), row("a", 3.0, Some(5))),
    ];

    // The committed definitions, as the test expects them.
    let mut committed: BTreeMap<String, RuleDef> = BTreeMap::new();
    let mut wired: BTreeSet<EventId> = BTreeSet::new();
    let check = |committed: &BTreeMap<String, RuleDef>, wired: &mut BTreeSet<EventId>, step: &str| {
        let fresh = MatchNetwork::new();
        fx.tm
            .run_top(|t| {
                for (name, def) in committed {
                    let rid = rules.rule_id(t, name)?;
                    let event = rules.rule_event(t, name)?;
                    wired.insert(event);
                    fresh.place_committed(event, rid, def);
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(
            rules.match_index_nodes(),
            fresh.stats().index_nodes.load(std::sync::atomic::Ordering::Relaxed),
            "{step}: node count differs from a freshly built network"
        );
        let t = fx.tm.begin();
        for &event in wired.iter() {
            for (old, new) in &probes {
                let signal = update_signal(&fx, t, old.clone(), new.clone());
                assert_eq!(
                    rules.match_candidates(event, &signal),
                    fresh.probe(event, &fx.store, &signal),
                    "{step}: candidates differ for {event:?} on {old:?} -> {new:?}"
                );
            }
        }
        fx.tm.abort(t).unwrap();
    };
    let commit_all = |committed: &mut BTreeMap<String, RuleDef>, defs: Vec<RuleDef>| {
        fx.tm
            .run_top(|t| {
                for def in &defs {
                    if committed.contains_key(&def.name) {
                        rules.alter_rule(t, &def.name.clone(), def.clone())?;
                    } else {
                        rules.create_rule(t, def.clone())?;
                    }
                }
                Ok(())
            })
            .unwrap();
        for def in defs {
            committed.insert(def.name.clone(), def);
        }
    };

    commit_all(
        &mut committed,
        vec![
            on_update("eq", "from stock where new.sym = \"a\" and new.price >= 3.0"),
            on_update("chain", "from stock where new.price >= 2.0 and new.qty < 5 and old.sym = \"a\""),
            on_update("res", "from stock where new.price > 1.0 or new.qty = 2"),
            on_update("left", "from stock where 4.0 <= new.price and new.qty = 3"),
            on_update("null", "from stock where new.qty >= null and new.price > 1.0"),
            on_insert("ins", "from stock where new.price < 5.0 and new.sym = \"b\""),
        ],
    );
    check(&committed, &mut wired, "create");
    let steps: Vec<(&str, Vec<RuleDef>)> = vec![
        ("indexed literal", vec![on_update("eq", "from stock where new.sym = \"b\" and new.price >= 3.0")]),
        ("later literal", vec![on_update("eq", "from stock where new.sym = \"b\" and new.price >= 6.0")]),
        (
            "longer and shorter chains",
            vec![
                on_update(
                    "chain",
                    "from stock where new.price >= 2.0 and new.qty < 5 and old.sym = \"a\" and new.sym = \"a\"",
                ),
                on_update("left", "from stock where 4.0 <= new.price"),
            ],
        ),
        ("guarded to residual", vec![on_update("chain", "from stock where new.price >= 2.0 or new.qty < 5")]),
        ("event moved", vec![on_insert("null", "from stock where new.qty > 1 and new.price > 1.0")]),
    ];
    for (step, defs) in steps {
        commit_all(&mut committed, defs);
        check(&committed, &mut wired, step);
    }

    let set_enabled = |committed: &mut BTreeMap<String, RuleDef>, name: &str, on: bool| {
        fx.tm
            .run_top(|t| {
                if on {
                    rules.enable_rule(t, name)
                } else {
                    rules.disable_rule(t, name)
                }
            })
            .unwrap();
        committed.get_mut(name).unwrap().enabled = on;
    };
    set_enabled(&mut committed, "eq", false);
    check(&committed, &mut wired, "disable");
    set_enabled(&mut committed, "eq", true);
    check(&committed, &mut wired, "enable");
    fx.tm.run_top(|t| rules.drop_rule(t, "ins")).unwrap();
    committed.remove("ins");
    check(&committed, &mut wired, "drop");

    // Aborted: nothing the transaction did may stick.
    let t = fx.tm.begin();
    rules
        .alter_rule(t, "eq", on_update("eq", "from stock where new.sym = \"zz\" and new.qty = 1"))
        .unwrap();
    rules
        .create_rule(t, on_update("ghost", "from stock where new.sym = \"a\" and new.qty = 1"))
        .unwrap();
    rules.drop_rule(t, "left").unwrap();
    fx.tm.abort(t).unwrap();
    check(&committed, &mut wired, "aborted top");

    // Children: one commits an alter and a create, one aborts its drop;
    // the top commits both survivors.
    let t = fx.tm.begin();
    let c1 = fx.tm.begin_child(t).unwrap();
    let zz = on_update("eq", "from stock where new.sym = \"zz\" and new.price > 1.0 and new.qty = 3");
    rules.alter_rule(c1, "eq", zz.clone()).unwrap();
    let kid = on_update("kid", "from stock where new.qty <= 4 and new.sym = \"a\"");
    rules.create_rule(c1, kid.clone()).unwrap();
    fx.tm.commit(c1).unwrap();
    let c2 = fx.tm.begin_child(t).unwrap();
    rules.drop_rule(c2, "res").unwrap();
    rules
        .alter_rule(c2, "left", on_update("left", "from stock where new.price = 9.0"))
        .unwrap();
    fx.tm.abort(c2).unwrap();
    fx.tm.commit(t).unwrap();
    committed.insert("eq".into(), zz);
    committed.insert("kid".into(), kid);
    check(&committed, &mut wired, "child commit and child abort");

    // A rule created and dropped by one top, and a child-aborted alter
    // under a committed one.
    let t = fx.tm.begin();
    rules
        .create_rule(t, on_update("brief", "from stock where new.sym = \"a\" and new.qty = 2"))
        .unwrap();
    rules.drop_rule(t, "brief").unwrap();
    let c = fx.tm.begin_child(t).unwrap();
    rules
        .alter_rule(c, "kid", on_update("kid", "from stock where new.qty >= 8"))
        .unwrap();
    fx.tm.abort(c).unwrap();
    fx.tm.commit(t).unwrap();
    check(&committed, &mut wired, "create and drop in one top");

    for name in committed.keys().cloned().collect::<Vec<_>>() {
        fx.tm.run_top(|t| rules.drop_rule(t, &name)).unwrap();
        committed.remove(&name);
        check(&committed, &mut wired, &format!("drop {name}"));
    }
    assert_eq!(rules.match_index_nodes(), 0, "an empty rule base leaves no node");
}
