//! The Condition Evaluator (§5.5).
//!
//! "After an event has been detected, the Condition Evaluator is
//! responsible for efficiently determining which rule conditions are
//! satisfied (among the rules triggered by the particular event)." Two
//! of the paper's techniques are implemented:
//!
//! * **Condition graph / multiple-query optimization**: the queries of
//!   all rules triggered by one event form a graph whose nodes are
//!   structurally hashed queries; each distinct query is evaluated once
//!   per event and its (non-)emptiness and rows shared by every rule
//!   that contains it.
//! * **Incremental (delta) evaluation**: a query whose predicate only
//!   references the event's `old.*` / `new.*` images and parameters —
//!   the dominant shape for update-triggered rules like "new.price >=
//!   50" — is evaluated directly against the delta carried by the
//!   event signal, without touching the object store at all.
//!
//! The evaluator is stateless across events (the graph is rebuilt per
//! batch); the sharing matters because one event commonly triggers many
//! rules with overlapping conditions (benchmark E5 quantifies this).

use hipac_common::{Result, TxnId, Value};
use hipac_event::EventSignal;
use hipac_object::expr::{Bindings, Expr};
use hipac_object::query::{Query, QueryResult, Row};
use hipac_object::ObjectStore;
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of evaluating one rule's condition.
#[derive(Debug, Clone)]
pub struct ConditionOutcome {
    pub satisfied: bool,
    /// Result rows of each condition query, in rule order (empty when
    /// unsatisfied — later queries are not evaluated needlessly, but
    /// shared earlier results are kept).
    pub rows: Vec<QueryResult>,
}

/// Statistics from one evaluation batch (benchmarks and tests inspect
/// these to demonstrate sharing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Queries appearing in the batch, counted with multiplicity.
    pub queries_seen: usize,
    /// Queries actually executed against the store.
    pub store_evaluations: usize,
    /// Queries answered purely from the event's delta.
    pub delta_evaluations: usize,
    /// Queries answered from the shared cache.
    pub cache_hits: usize,
}

/// The Condition Evaluator.
pub struct ConditionEvaluator {
    store: Arc<ObjectStore>,
}

impl ConditionEvaluator {
    /// Create an evaluator over the Object Manager.
    pub fn new(store: Arc<ObjectStore>) -> Self {
        ConditionEvaluator { store }
    }

    /// Does `query`'s predicate reference only `old.*`/`new.*` images,
    /// parameters and literals (the shape that can be answered from an
    /// event delta without touching the store)?
    pub fn delta_answerable_shape(query: &Query) -> bool {
        // Projections need a row from the store only if they project
        // plain attributes — with a delta row available we can project
        // from the new (or old) image, so projection is fine.
        fn only_delta_refs(e: &Expr) -> bool {
            match e {
                Expr::Attr(_) | Expr::Slot(..) => false,
                Expr::Literal(_) | Expr::Param(_) => true,
                Expr::OldAttr(_) | Expr::OldSlot(..) | Expr::NewAttr(_) | Expr::NewSlot(..) => {
                    true
                }
                Expr::Unary(_, e) => only_delta_refs(e),
                Expr::Binary(_, l, r) => only_delta_refs(l) && only_delta_refs(r),
                Expr::Call(_, args) => args.iter().all(only_delta_refs),
            }
        }
        only_delta_refs(&query.predicate)
    }

    /// Can `query` be answered from the event delta alone? True when
    /// the event carries a db payload whose class is (a subclass of)
    /// the query's class and the predicate has the delta-answerable
    /// shape.
    fn delta_answerable(query: &Query, signal: &EventSignal) -> bool {
        let Some(db) = &signal.db else {
            return false;
        };
        if !db.class_lineage.contains(&query.class) {
            return false;
        }
        Self::delta_answerable_shape(query)
    }

    /// Evaluate `query` against the delta only.
    fn eval_delta(
        &self,
        txn: TxnId,
        query: &Query,
        signal: &EventSignal,
    ) -> Result<QueryResult> {
        let db = signal.db.as_ref().expect("checked by delta_answerable");
        let schema = self.store.schema(txn);
        let resolved = query
            .predicate
            .resolve(&|name| schema.resolve_attr(db.class, name).map(|(s, _)| s))?;
        let ctx = Bindings {
            row: None,
            old: db.old.as_deref(),
            new: db.new.as_deref(),
            params: Some(&signal.params),
        };
        if resolved.eval_bool(&ctx)? {
            // Produce the affected instance as the single result row,
            // projecting from the newest image available.
            let image = db
                .new
                .clone()
                .or_else(|| db.old.clone())
                .unwrap_or_else(|| Arc::from([]));
            let values = match &query.projection {
                None => image,
                Some(attrs) => {
                    // Sized up front, so the row is one allocation.
                    let mut out: Arc<[Value]> =
                        std::iter::repeat(Value::Null).take(attrs.len()).collect();
                    let slots = Arc::get_mut(&mut out).expect("not shared yet");
                    for (to, a) in slots.iter_mut().zip(attrs) {
                        let (slot, _) = schema.resolve_attr(db.class, a)?;
                        *to = image.get(slot).cloned().unwrap_or(Value::Null);
                    }
                    out
                }
            };
            Ok(vec![Row {
                oid: db.oid.unwrap_or(hipac_common::ObjectId(0)),
                class: db.class,
                values,
            }])
        } else {
            Ok(Vec::new())
        }
    }

    /// Replace `old.x` / `new.x` references in `query`'s predicate with
    /// literal values from the event's delta, so the store's executor
    /// (which has no delta context) can evaluate it. Errors if the
    /// predicate references an image the event does not carry. Also
    /// used by the Rule Manager for action queries (`UpdateWhere`,
    /// `DeleteWhere`) whose predicates mention the delta.
    pub fn fold_delta(&self, txn: TxnId, query: &Query, signal: &EventSignal) -> Result<Query> {
        fn has_delta_refs(e: &Expr) -> bool {
            match e {
                Expr::OldAttr(_) | Expr::OldSlot(..) | Expr::NewAttr(_) | Expr::NewSlot(..) => {
                    true
                }
                Expr::Unary(_, e) => has_delta_refs(e),
                Expr::Binary(_, l, r) => has_delta_refs(l) || has_delta_refs(r),
                Expr::Call(_, args) => args.iter().any(has_delta_refs),
                _ => false,
            }
        }
        if !has_delta_refs(&query.predicate) {
            return Ok(query.clone());
        }
        let db = signal.db.as_ref().ok_or_else(|| {
            hipac_common::HipacError::EvalError(
                "condition references old/new but the event carries no delta".into(),
            )
        })?;
        let schema = self.store.schema(txn);
        fn fold(
            e: &Expr,
            schema: &hipac_object::Schema,
            class: hipac_common::ClassId,
            old: Option<&[Value]>,
            new: Option<&[Value]>,
        ) -> Result<Expr> {
            let image = |img: Option<&[Value]>, which: &str, name: &str| -> Result<Expr> {
                let img = img.ok_or_else(|| {
                    hipac_common::HipacError::EvalError(format!(
                        "no {which} image for {which}.{name}"
                    ))
                })?;
                let (slot, _) = schema.resolve_attr(class, name)?;
                Ok(Expr::Literal(img.get(slot).cloned().unwrap_or(Value::Null)))
            };
            Ok(match e {
                Expr::OldAttr(n) | Expr::OldSlot(_, n) => image(old, "old", n)?,
                Expr::NewAttr(n) | Expr::NewSlot(_, n) => image(new, "new", n)?,
                Expr::Unary(op, x) => {
                    Expr::Unary(*op, Box::new(fold(x, schema, class, old, new)?))
                }
                Expr::Binary(op, l, r) => Expr::Binary(
                    *op,
                    Box::new(fold(l, schema, class, old, new)?),
                    Box::new(fold(r, schema, class, old, new)?),
                ),
                Expr::Call(f, args) => Expr::Call(
                    f.clone(),
                    args.iter()
                        .map(|a| fold(a, schema, class, old, new))
                        .collect::<Result<_>>()?,
                ),
                other => other.clone(),
            })
        }
        Ok(Query {
            class: query.class.clone(),
            predicate: fold(
                &query.predicate,
                &schema,
                db.class,
                db.old.as_deref(),
                db.new.as_deref(),
            )?,
            projection: query.projection.clone(),
        })
    }

    /// Evaluate the conditions of a batch of rules triggered by one
    /// event. `conditions[i]` is the i-th rule's query collection.
    /// Returns one outcome per rule plus batch statistics.
    pub fn evaluate_batch(
        &self,
        txn: TxnId,
        conditions: &[&[Query]],
        signal: &EventSignal,
    ) -> Result<(Vec<ConditionOutcome>, EvalStats)> {
        let mut stats = EvalStats::default();
        // The condition graph: structurally identical queries share one
        // node, evaluated at most once.
        let mut cache: HashMap<&Query, QueryResult> = HashMap::new();
        let mut outcomes = Vec::with_capacity(conditions.len());
        for queries in conditions {
            let mut satisfied = true;
            let mut rows = Vec::with_capacity(queries.len());
            for q in *queries {
                stats.queries_seen += 1;
                let result: QueryResult = if let Some(hit) = cache.get(q) {
                    stats.cache_hits += 1;
                    hit.clone()
                } else {
                    let r = if Self::delta_answerable(q, signal) {
                        stats.delta_evaluations += 1;
                        self.eval_delta(txn, q, signal)?
                    } else {
                        // Mixed predicates (plain attributes AND delta
                        // references) run against the store with the
                        // delta constant-folded into the predicate.
                        let folded = self.fold_delta(txn, q, signal)?;
                        stats.store_evaluations += 1;
                        self.store.query(txn, &folded, Some(&signal.params))?
                    };
                    cache.insert(q, r.clone());
                    r
                };
                let empty = result.is_empty();
                rows.push(result);
                if empty {
                    satisfied = false;
                    // Remaining queries still evaluated only if another
                    // rule needs them (lazily, via the cache); for this
                    // rule we can stop.
                    break;
                }
            }
            outcomes.push(ConditionOutcome {
                satisfied,
                rows: if satisfied { rows } else { Vec::new() },
            });
        }
        Ok((outcomes, stats))
    }

    /// Evaluate a single rule's condition (manual `fire`, §2.2).
    pub fn evaluate_one(
        &self,
        txn: TxnId,
        condition: &[Query],
        signal: &EventSignal,
    ) -> Result<ConditionOutcome> {
        let (mut outcomes, _) = self.evaluate_batch(txn, &[condition], signal)?;
        Ok(outcomes.pop().expect("one condition in, one outcome out"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipac_common::{ClassId, ObjectId, ValueType};
    use hipac_event::spec::DbEventKind;
    use hipac_event::DbEventData;
    use hipac_object::expr::BinOp;
    use hipac_object::AttrDef;
    use hipac_txn::TransactionManager;

    fn setup() -> (Arc<TransactionManager>, Arc<ObjectStore>, ConditionEvaluator) {
        let tm = Arc::new(TransactionManager::new());
        let store = ObjectStore::new(Arc::clone(&tm), None).unwrap();
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
            store.insert(t, "stock", vec![Value::from("XRX"), Value::from(49.0)])?;
            store.insert(t, "stock", vec![Value::from("DEC"), Value::from(99.0)])?;
            Ok(())
        })
        .unwrap();
        let ce = ConditionEvaluator::new(Arc::clone(&store));
        (tm, store, ce)
    }

    fn update_signal(tm: &TransactionManager) -> (TxnId, EventSignal) {
        let txn = tm.begin();
        let signal = EventSignal {
            time: 1,
            txn: Some(txn),
            params: HashMap::new(),
            db: Some(Arc::new(DbEventData {
                kind: DbEventKind::Update,
                class: ClassId(1),
                class_lineage: vec!["stock".into()],
                oid: Some(ObjectId(1)),
                old: Some(vec![Value::from("XRX"), Value::from(49.0)].into()),
                new: Some(vec![Value::from("XRX"), Value::from(50.0)].into()),
            })),
        };
        (txn, signal)
    }

    #[test]
    fn store_query_condition() {
        let (tm, _store, ce) = setup();
        let (txn, signal) = update_signal(&tm);
        let sat = [Query::filtered(
            "stock",
            Expr::attr("price").bin(BinOp::Ge, Expr::lit(90.0)),
        )];
        let unsat = [Query::filtered(
            "stock",
            Expr::attr("price").bin(BinOp::Ge, Expr::lit(1000.0)),
        )];
        let (outs, stats) = ce
            .evaluate_batch(txn, &[&sat, &unsat], &signal)
            .unwrap();
        assert!(outs[0].satisfied);
        assert_eq!(outs[0].rows[0].len(), 1);
        assert!(!outs[1].satisfied);
        assert_eq!(stats.store_evaluations, 2);
        assert_eq!(stats.delta_evaluations, 0);
        tm.abort(txn).unwrap();
    }

    #[test]
    fn shared_queries_evaluate_once() {
        let (tm, _store, ce) = setup();
        let (txn, signal) = update_signal(&tm);
        let q = Query::filtered(
            "stock",
            Expr::attr("price").bin(BinOp::Ge, Expr::lit(90.0)),
        );
        // Five rules with the same condition query.
        let conds: Vec<Vec<Query>> = (0..5).map(|_| vec![q.clone()]).collect();
        let cond_refs: Vec<&[Query]> = conds.iter().map(|c| c.as_slice()).collect();
        let (outs, stats) = ce.evaluate_batch(txn, &cond_refs, &signal).unwrap();
        assert!(outs.iter().all(|o| o.satisfied));
        assert_eq!(stats.queries_seen, 5);
        assert_eq!(stats.store_evaluations, 1, "condition graph sharing");
        assert_eq!(stats.cache_hits, 4);
        tm.abort(txn).unwrap();
    }

    #[test]
    fn delta_conditions_skip_the_store() {
        let (tm, _store, ce) = setup();
        let (txn, signal) = update_signal(&tm);
        let crossing = [Query::filtered(
            "stock",
            Expr::NewAttr("price".into())
                .bin(BinOp::Ge, Expr::lit(50.0))
                .and(Expr::OldAttr("price".into()).bin(BinOp::Lt, Expr::lit(50.0))),
        )];
        let (outs, stats) = ce.evaluate_batch(txn, &[&crossing], &signal).unwrap();
        assert!(outs[0].satisfied, "49 -> 50 crosses the threshold");
        assert_eq!(stats.delta_evaluations, 1);
        assert_eq!(stats.store_evaluations, 0, "no store access needed");
        // The produced row is the new image.
        assert_eq!(outs[0].rows[0][0].values[1], Value::from(50.0));
        tm.abort(txn).unwrap();
    }

    #[test]
    fn delta_not_applicable_for_other_classes_or_plain_attrs() {
        let (tm, _store, ce) = setup();
        let (txn, signal) = update_signal(&tm);
        // Plain attribute reference forces a store query.
        let plain = [Query::filtered(
            "stock",
            Expr::attr("price").bin(BinOp::Ge, Expr::NewAttr("price".into())),
        )];
        let (_outs, stats) = ce.evaluate_batch(txn, &[&plain], &signal).unwrap();
        assert_eq!(stats.delta_evaluations, 0);
        tm.abort(txn).unwrap();
    }

    #[test]
    fn multi_query_condition_requires_all_nonempty() {
        let (tm, _store, ce) = setup();
        let (txn, signal) = update_signal(&tm);
        let cond = [
            Query::filtered(
                "stock",
                Expr::attr("symbol").bin(BinOp::Eq, Expr::lit("XRX")),
            ),
            Query::filtered(
                "stock",
                Expr::attr("symbol").bin(BinOp::Eq, Expr::lit("NOPE")),
            ),
        ];
        let out = ce.evaluate_one(txn, &cond, &signal).unwrap();
        assert!(!out.satisfied);
        // Empty condition is the always-true condition.
        let out = ce.evaluate_one(txn, &[], &signal).unwrap();
        assert!(out.satisfied);
        tm.abort(txn).unwrap();
    }

    #[test]
    fn params_flow_into_queries() {
        let (tm, _store, ce) = setup();
        let txn = tm.begin();
        let mut params = HashMap::new();
        params.insert("sym".to_string(), Value::from("DEC"));
        let signal = EventSignal {
            time: 0,
            txn: Some(txn),
            params,
            db: None,
        };
        let cond = [Query::filtered(
            "stock",
            Expr::attr("symbol").bin(BinOp::Eq, Expr::param("sym")),
        )];
        let out = ce.evaluate_one(txn, &cond, &signal).unwrap();
        assert!(out.satisfied);
        assert_eq!(out.rows[0][0].values[1], Value::from(99.0));
        tm.abort(txn).unwrap();
    }
}
