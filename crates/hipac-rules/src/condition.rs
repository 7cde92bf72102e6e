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
//! Queries arrive compiled (the crate's `compile` module): a delta-shaped
//! predicate is already resolved against its class, and any other query
//! is prepared for the store, so evaluation resolves and plans nothing.
//! The evaluator is stateless across events (the graph is rebuilt per
//! batch, keyed by compiled-query identity); the sharing matters because
//! one event commonly triggers many rules with overlapping conditions
//! (benchmark E5 quantifies this).

use crate::compile::{self, CompiledQuery};
use hipac_common::{HipacError, IdMap, Result, TxnId, Value};
use hipac_event::{DbEventData, EventSignal};
use hipac_object::expr::{Bindings, RefKind};
use hipac_object::query::{Query, QueryResult, Row};
use hipac_object::ObjectStore;
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
    /// event delta without touching the store)? Projections are fine:
    /// with a delta row available they project from the new (or old)
    /// image.
    pub fn delta_answerable_shape(query: &Query) -> bool {
        let mut only_delta = true;
        query
            .predicate
            .for_each_ref(&mut |kind, _, _| only_delta &= kind != RefKind::Attr);
        only_delta
    }

    /// Can `query` be answered from the event delta alone? True when
    /// the event carries a db payload whose class is (a subclass of)
    /// the query's class and the predicate has the delta-answerable
    /// shape.
    fn delta_answerable<'s>(
        query: &CompiledQuery,
        signal: &'s EventSignal,
    ) -> Option<&'s DbEventData> {
        let db = signal.db.as_deref()?;
        (query.delta_shape && db.class_lineage.contains(&query.query().class)).then_some(db)
    }

    /// Evaluate `query` against the delta only.
    fn eval_delta(
        &self,
        txn: TxnId,
        query: &CompiledQuery,
        db: &DbEventData,
        signal: &EventSignal,
    ) -> Result<QueryResult> {
        let ctx = Bindings {
            row: None,
            old: db.old.as_deref(),
            new: db.new.as_deref(),
            params: Some(&signal.params),
        };
        // The compiled form; or, when it could not be resolved, the
        // query resolved against the event's class now.
        let fresh;
        let (predicate, projection) = match query.delta_form_parts() {
            Some(parts) => parts,
            None => {
                fresh = compile::resolve_for_event(query, &self.store.schema(txn), db.class)?;
                (&fresh, None)
            }
        };
        if !predicate.eval_bool(&ctx)? {
            return Ok(Vec::new());
        }
        // Produce the affected instance as the single result row,
        // projecting from the newest image available.
        let image = db
            .new
            .clone()
            .or_else(|| db.old.clone())
            .unwrap_or_else(|| Arc::from([]));
        let pick = |slot: usize| image.get(slot).cloned().unwrap_or(Value::Null);
        let values = match (&query.query().projection, projection) {
            (None, _) => image.clone(),
            // Collected from an exact-size iterator: one allocation.
            (Some(_), Some(slots)) => slots.iter().map(|&s| pick(s)).collect(),
            (Some(attrs), None) => {
                let schema = self.store.schema(txn);
                attrs
                    .iter()
                    .map(|a| schema.resolve_attr(db.class, a).map(|(s, _)| pick(s)))
                    .collect::<Result<_>>()?
            }
        };
        Ok(vec![Row {
            oid: db.oid.unwrap_or(hipac_common::ObjectId(0)),
            class: db.class,
            values,
        }])
    }

    /// Run `query` against the store, its `old.x`/`new.x` references
    /// bound to the event's images. The Rule Manager runs its action
    /// queries (`UpdateWhere`, `DeleteWhere`) through this too.
    ///
    /// A query that reads an image fails, before it runs, when the event
    /// carries no delta or not that image, or when the event's class
    /// lacks a referenced attribute: the first such reference in the
    /// predicate names the error.
    pub(crate) fn run_query(
        &self,
        txn: TxnId,
        query: &CompiledQuery,
        signal: &EventSignal,
    ) -> Result<QueryResult> {
        let db = signal.db.as_deref();
        let bindings = Bindings {
            row: None,
            old: db.and_then(|d| d.old.as_deref()),
            new: db.and_then(|d| d.new.as_deref()),
            params: Some(&signal.params),
        };
        if !query.reads_delta() {
            return match query.prepared() {
                Some(prepared) => self.store.execute(txn, prepared, bindings),
                None => self.store.query(txn, query.query(), Some(&signal.params)),
            };
        }
        let db = db.ok_or_else(|| {
            HipacError::EvalError(
                "condition references old/new but the event carries no delta".into(),
            )
        })?;
        if let Some(prepared) = query.prepared() {
            let covered = || {
                let class = prepared.delta_class().expect("prepared for an event class");
                class == db.class || self.store.schema(txn).is_subclass_or_self(db.class, class)
            };
            if query.images_present(db) && covered() {
                return self.store.execute(txn, prepared, bindings);
            }
        }
        self.check_delta(txn, query.query(), db)?;
        let prepared = self.store.prepare_for_event(txn, query.query(), db.class)?;
        self.store.execute(txn, &prepared, bindings)
    }

    /// The event must carry every image `query` reads, and its class
    /// every attribute the predicate reads of them: check each
    /// reference in predicate order.
    fn check_delta(&self, txn: TxnId, query: &Query, db: &DbEventData) -> Result<()> {
        let schema = self.store.schema(txn);
        let mut result = Ok(());
        query.predicate.for_each_ref(&mut |kind, name, _| {
            let (present, which) = match kind {
                RefKind::Attr => return,
                RefKind::Old => (db.old.is_some(), "old"),
                RefKind::New => (db.new.is_some(), "new"),
            };
            if result.is_ok() {
                result = if present {
                    schema.resolve_attr(db.class, name).map(|_| ())
                } else {
                    Err(HipacError::EvalError(format!(
                        "no {which} image for {which}.{name}"
                    )))
                };
            }
        });
        result
    }

    /// Evaluate the conditions of a batch of rules triggered by one
    /// event. `conditions[i]` is the i-th rule's query collection,
    /// compiled for the catalog `txn` sees.
    pub(crate) fn evaluate(
        &self,
        txn: TxnId,
        conditions: &[&[Arc<CompiledQuery>]],
        signal: &EventSignal,
    ) -> Result<(Vec<ConditionOutcome>, EvalStats)> {
        let mut stats = EvalStats::default();
        // The condition graph: structurally identical queries are one
        // compiled query, keyed by its address, evaluated at most once.
        let mut cache: IdMap<usize, QueryResult> = IdMap::default();
        let mut outcomes = Vec::with_capacity(conditions.len());
        for queries in conditions {
            let mut satisfied = true;
            let mut rows = Vec::with_capacity(queries.len());
            for q in *queries {
                stats.queries_seen += 1;
                let id = Arc::as_ptr(q) as usize;
                let result: QueryResult = if let Some(hit) = cache.get(&id) {
                    stats.cache_hits += 1;
                    hit.clone()
                } else {
                    let r = match Self::delta_answerable(q, signal) {
                        Some(db) => {
                            stats.delta_evaluations += 1;
                            self.eval_delta(txn, q, db, signal)?
                        }
                        None => {
                            stats.store_evaluations += 1;
                            self.run_query(txn, q, signal)?
                        }
                    };
                    cache.insert(id, r.clone());
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

    /// Evaluate the conditions of a batch of rules given as queries:
    /// they are compiled for the catalog `txn` sees (structurally
    /// identical ones to one node), then evaluated as a firing's
    /// compiled conditions are.
    pub fn evaluate_batch(
        &self,
        txn: TxnId,
        conditions: &[&[Query]],
        signal: &EventSignal,
    ) -> Result<(Vec<ConditionOutcome>, EvalStats)> {
        let (generation, schema) = self.store.catalog(txn);
        let event_class = signal.db.as_ref().map(|d| d.class);
        let compiled = compile::compile_conditions(conditions, &schema, generation, event_class);
        let refs: Vec<&[Arc<CompiledQuery>]> = compiled.iter().map(Vec::as_slice).collect();
        self.evaluate(txn, &refs, signal)
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
    use hipac_object::expr::{BinOp, Expr};
    use hipac_object::AttrDef;
    use hipac_txn::TransactionManager;
    use std::collections::HashMap;

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
