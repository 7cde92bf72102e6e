//! Compiled rules (§5.5): a rule's conditions and actions resolved once,
//! when the rule is stored, against one catalog generation.
//!
//! The rule store keeps a [`CompiledRule`], not the definition it came
//! from. Its condition queries and the queries of its `UpdateWhere` and
//! `DeleteWhere` actions are [`CompiledQuery`]s: a delta-shaped
//! condition keeps its predicate resolved against its class (an event
//! of a subclass shares that layout's prefix); any other query is a
//! [`PreparedQuery`], its `old.x`/`new.x` references resolved against
//! the rule's event class. Its action expressions are resolved against
//! the row they will see (the matched row of an `UpdateWhere`, the row
//! of a `ForEachRow`) and the event class. Resolved nodes keep their
//! names, so the compiled rule reads back, encodes and places exactly as
//! its definition did.
//!
//! Structurally identical queries of one generation share one
//! `Arc<CompiledQuery>` through the [`QueryTable`]; the pointer is the
//! query's id in the condition graph's per-batch cache.
//!
//! A rule is compiled for the catalog generation its transaction saw. A
//! firing that sees another generation, or DDL pending on its chain,
//! compiles the rule again first. What cannot be resolved at compile
//! time (an unknown class or attribute, a reference to an image of an
//! event class the rule does not name) stays named and is resolved at
//! each firing, against the classes the firing sees: a reference that
//! resolves nowhere fails at the firing, in order with the rest.

use crate::condition::ConditionEvaluator;
use crate::rule::{Action, ActionOp, CouplingMode, DbAction, RuleDef};
use hipac_common::idhash::IdBuildHasher;
use hipac_common::{ClassId, HipacError, Result, Value};
use hipac_event::{DbEventData, EventSpec};
use hipac_object::expr::{Bindings, Expr, RefKind};
use hipac_object::query::Row;
use hipac_object::{PreparedQuery, Query, Schema};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Weak};

/// How a compiled query runs.
#[derive(Debug)]
enum Form {
    /// A delta-shaped condition: its predicate and projection resolved
    /// against the query's class.
    Delta {
        query: Query,
        projection: Option<Box<[usize]>>,
    },
    /// Prepared for the store (boxed: most compiled queries are
    /// delta-shaped conditions, and the rule wall holds one per rule
    /// pair).
    Store(Box<PreparedQuery>),
    /// Not resolvable at its generation: resolved at each firing.
    Named(Query),
}

/// A rule's query, compiled for one catalog generation.
#[derive(Debug)]
pub struct CompiledQuery {
    form: Form,
    generation: Option<u64>,
    /// The event class its delta references were resolved against.
    delta: Option<ClassId>,
    /// A condition whose predicate reads only the event's images,
    /// parameters and literals.
    pub(crate) delta_shape: bool,
    pub(crate) reads_old: bool,
    pub(crate) reads_new: bool,
}

impl CompiledQuery {
    fn compile(
        query: &Query,
        schema: &Schema,
        generation: Option<u64>,
        delta: Option<ClassId>,
        condition: bool,
    ) -> CompiledQuery {
        let (mut reads_old, mut reads_new) = (false, false);
        query.predicate.for_each_ref(&mut |kind, _, _| match kind {
            RefKind::Old => reads_old = true,
            RefKind::New => reads_new = true,
            RefKind::Attr => {}
        });
        let delta_shape = condition && ConditionEvaluator::delta_answerable_shape(query);
        let delta = delta.filter(|_| reads_old || reads_new);
        let form = if delta_shape {
            Self::delta_form(query, schema).unwrap_or_else(|| Form::Named(query.clone()))
        } else if (reads_old || reads_new) && delta.is_none() {
            Form::Named(query.clone())
        } else {
            match PreparedQuery::new(schema, generation, query, delta) {
                Ok(prepared) => Form::Store(Box::new(prepared)),
                Err(_) => Form::Named(query.clone()),
            }
        };
        CompiledQuery {
            form,
            generation,
            delta,
            delta_shape,
            reads_old,
            reads_new,
        }
    }

    fn delta_form(query: &Query, schema: &Schema) -> Option<Form> {
        let class = schema.class_by_name(&query.class).ok()?.id;
        let slot = |name: &str| schema.resolve_attr(class, name).map(|(s, _)| s);
        let predicate = query.predicate.resolve(&slot).ok()?;
        let projection = match &query.projection {
            None => None,
            Some(attrs) => Some(attrs.iter().map(|a| slot(a)).collect::<Result<_>>().ok()?),
        };
        Some(Form::Delta {
            query: Query {
                class: query.class.clone(),
                predicate,
                projection: query.projection.clone(),
            },
            projection,
        })
    }

    /// The query, as defined (resolved nodes read as their names).
    pub fn query(&self) -> &Query {
        match &self.form {
            Form::Delta { query, .. } | Form::Named(query) => query,
            Form::Store(prepared) => prepared.query(),
        }
    }

    pub(crate) fn reads_delta(&self) -> bool {
        self.reads_old || self.reads_new
    }

    /// Does `db` carry every image the predicate reads?
    pub(crate) fn images_present(&self, db: &DbEventData) -> bool {
        (!self.reads_old || db.old.is_some()) && (!self.reads_new || db.new.is_some())
    }

    /// The store form, when it was prepared; with delta references, for
    /// the event class it was prepared for.
    pub(crate) fn prepared(&self) -> Option<&PreparedQuery> {
        match &self.form {
            Form::Store(prepared) => Some(prepared),
            _ => None,
        }
    }

    /// The resolved delta predicate and projection slots.
    pub(crate) fn delta_form_parts(&self) -> Option<(&Expr, Option<&[usize]>)> {
        match &self.form {
            Form::Delta { query, projection } => Some((&query.predicate, projection.as_deref())),
            _ => None,
        }
    }

    fn same_as(
        &self,
        query: &Query,
        generation: Option<u64>,
        delta: Option<ClassId>,
        condition: bool,
    ) -> bool {
        self.generation == generation
            && self.delta == delta.filter(|_| self.reads_delta())
            && self.delta_shape == (condition && ConditionEvaluator::delta_answerable_shape(query))
            && self.query() == query
    }
}

/// Structurally identical compiled queries, shared. Entries are weak:
/// a query lives as long as a rule holds it, and dead entries are swept
/// once as many inserts as there were entries have gone by. An entry
/// is keyed by the query's hash on the process-keyed id hasher, one
/// query per key: a different query whose hash collides with a live
/// entry's is compiled but not shared, so a collision a tenant crafts
/// costs sharing, never a longer probe.
pub(crate) struct QueryTable {
    inner: Mutex<TableInner>,
}

#[derive(Default)]
struct TableInner {
    entries: HashMap<u64, Weak<CompiledQuery>, IdBuildHasher>,
    inserts: usize,
}

impl QueryTable {
    pub(crate) fn new() -> QueryTable {
        QueryTable {
            inner: Mutex::new(TableInner::default()),
        }
    }

    /// The shared compiled form of `query` for `generation`.
    fn intern(
        &self,
        query: &Query,
        schema: &Schema,
        generation: Option<u64>,
        delta: Option<ClassId>,
        condition: bool,
    ) -> Arc<CompiledQuery> {
        let key = IdBuildHasher::default().hash_one((query, generation, delta, condition));
        let mut inner = self.inner.lock();
        let live = inner.entries.get(&key).and_then(Weak::upgrade);
        if let Some(found) = &live {
            if found.same_as(query, generation, delta, condition) {
                return Arc::clone(found);
            }
        }
        let compiled = Arc::new(CompiledQuery::compile(
            query, schema, generation, delta, condition,
        ));
        if live.is_none() {
            inner.inserts += 1;
            if inner.inserts > inner.entries.len() {
                inner.inserts = 0;
                inner.entries.retain(|_, q| q.strong_count() > 0);
            }
            inner.entries.insert(key, Arc::downgrade(&compiled));
        }
        compiled
    }
}

/// One step of a compiled action; mirrors [`ActionOp`].
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Insert {
        class: String,
        values: Box<[Expr]>,
    },
    UpdateWhere {
        query: Arc<CompiledQuery>,
        assignments: Box<[(String, Expr)]>,
    },
    DeleteWhere {
        query: Arc<CompiledQuery>,
    },
    AppRequest {
        handler: String,
        request: String,
        args: Box<[(String, Expr)]>,
    },
    SignalEvent {
        name: String,
        args: Box<[(String, Expr)]>,
    },
    ForEachRow {
        query_index: usize,
        ops: Box<[Op]>,
    },
    AbortWith {
        message: String,
    },
}

/// A rule as the rule store keeps it; mirrors [`RuleDef`].
#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    pub name: String,
    pub event: Option<EventSpec>,
    pub condition: Box<[Arc<CompiledQuery>]>,
    pub action: Box<[Op]>,
    pub ec_coupling: CouplingMode,
    pub ca_coupling: CouplingMode,
    pub enabled: bool,
    /// The catalog generation it was compiled for (`None`: under DDL
    /// pending on the compiling transaction's chain).
    generation: Option<u64>,
    /// The class the action expressions' delta references resolve
    /// against: the one class the rule's event names.
    delta: Option<ClassId>,
    /// Every action expression is resolved.
    exprs_resolved: bool,
    /// Some action expression reads an old or new image.
    exprs_read_delta: bool,
}

/// Compile-time context of one rule.
struct Compiler<'a> {
    schema: &'a Schema,
    generation: Option<u64>,
    delta: Option<ClassId>,
    table: &'a QueryTable,
    conditions: &'a [Query],
    resolved: bool,
    read_delta: bool,
}

impl Compiler<'_> {
    fn class(&self, name: &str) -> Option<ClassId> {
        self.schema.class_by_name(name).ok().map(|c| c.id)
    }

    fn query(&self, query: &Query, condition: bool) -> Arc<CompiledQuery> {
        self.table
            .intern(query, self.schema, self.generation, self.delta, condition)
    }

    /// Resolve what `row` (the class of the row in scope) and the event
    /// class resolve; leave the rest named.
    fn expr(&mut self, e: &Expr, row: Option<ClassId>) -> Expr {
        let (schema, delta) = (self.schema, self.delta);
        let resolved = e
            .resolve_refs(&mut |kind, name, _| {
                let class = if kind == RefKind::Attr { row } else { delta };
                Ok(class.and_then(|c| schema.resolve_attr(c, name).ok().map(|(s, _)| s)))
            })
            .expect("a lenient resolver never fails");
        self.resolved &= resolved.is_resolved();
        self.read_delta |= resolved.reads_delta();
        resolved
    }

    fn args(&mut self, args: &[(String, Expr)], row: Option<ClassId>) -> Box<[(String, Expr)]> {
        args.iter()
            .map(|(name, e)| (name.clone(), self.expr(e, row)))
            .collect()
    }

    fn ops(&mut self, ops: &[ActionOp], row: Option<ClassId>) -> Box<[Op]> {
        ops.iter()
            .map(|op| match op {
                ActionOp::Db(DbAction::Insert { class, values }) => Op::Insert {
                    class: class.clone(),
                    values: values.iter().map(|v| self.expr(v, row)).collect(),
                },
                ActionOp::Db(DbAction::UpdateWhere { query, assignments }) => {
                    let matched = self.class(&query.class);
                    Op::UpdateWhere {
                        query: self.query(query, false),
                        assignments: self.args(assignments, matched),
                    }
                }
                ActionOp::Db(DbAction::DeleteWhere { query }) => Op::DeleteWhere {
                    query: self.query(query, false),
                },
                ActionOp::AppRequest {
                    handler,
                    request,
                    args,
                } => Op::AppRequest {
                    handler: handler.clone(),
                    request: request.clone(),
                    args: self.args(args, row),
                },
                ActionOp::SignalEvent { name, args } => Op::SignalEvent {
                    name: name.clone(),
                    args: self.args(args, row),
                },
                ActionOp::ForEachRow { query_index, ops } => {
                    let each = self
                        .conditions
                        .get(*query_index)
                        .and_then(|q| self.class(&q.class));
                    Op::ForEachRow {
                        query_index: *query_index,
                        ops: self.ops(ops, each),
                    }
                }
                ActionOp::AbortWith { message } => Op::AbortWith {
                    message: message.clone(),
                },
            })
            .collect()
    }
}

/// The one class a rule's database event names, if it names one: every
/// database leaf of its event (or, without one, of the event derived
/// from its condition) filters on the same class.
fn event_class(def: &RuleDef, schema: &Schema) -> Option<ClassId> {
    let classes: Vec<Option<&str>> = match &def.event {
        Some(spec) => {
            let mut out = Vec::new();
            collect_db_classes(spec, &mut out);
            out
        }
        None => def
            .condition
            .iter()
            .map(|q| Some(q.class.as_str()))
            .collect(),
    };
    let (first, rest) = classes.split_first()?;
    let name = (*first)?;
    if rest.iter().any(|c| *c != Some(name)) {
        return None;
    }
    schema.class_by_name(name).ok().map(|c| c.id)
}

fn collect_db_classes<'a>(spec: &'a EventSpec, out: &mut Vec<Option<&'a str>>) {
    match spec {
        EventSpec::Database { class, .. } => out.push(class.as_deref()),
        EventSpec::Temporal(_) | EventSpec::External { .. } => {}
        EventSpec::Disjunction(l, r) | EventSpec::Sequence(l, r) | EventSpec::Conjunction(l, r) => {
            collect_db_classes(l, out);
            collect_db_classes(r, out);
        }
        EventSpec::Times(_, inner) => collect_db_classes(inner, out),
    }
}

impl CompiledRule {
    /// Compile `def` against `schema`, the catalog of `generation`.
    /// Every part is built at its length, so the spare capacity a
    /// builder leaves is not held for the rule's life.
    pub(crate) fn compile(
        def: &RuleDef,
        schema: &Schema,
        generation: Option<u64>,
        table: &QueryTable,
    ) -> CompiledRule {
        let mut c = Compiler {
            schema,
            generation,
            delta: event_class(def, schema),
            table,
            conditions: &def.condition,
            resolved: true,
            read_delta: false,
        };
        let condition = def.condition.iter().map(|q| c.query(q, true)).collect();
        let action = c.ops(&def.action.ops, None);
        CompiledRule {
            name: def.name.as_str().to_owned(),
            event: def.event.clone(),
            condition,
            action,
            ec_coupling: def.ec_coupling,
            ca_coupling: def.ca_coupling,
            enabled: def.enabled,
            generation,
            delta: c.delta,
            exprs_resolved: c.resolved,
            exprs_read_delta: c.read_delta,
        }
    }

    /// Compiled for `generation`, which a transaction sees when no DDL
    /// is pending on its chain?
    pub(crate) fn is_current(&self, generation: Option<u64>) -> bool {
        generation.is_some() && self.generation == generation
    }

    /// The definition it was compiled from.
    pub(crate) fn def(&self) -> RuleDef {
        fn ops(list: &[Op]) -> Vec<ActionOp> {
            list.iter()
                .map(|op| match op {
                    Op::Insert { class, values } => ActionOp::Db(DbAction::Insert {
                        class: class.clone(),
                        values: values.to_vec(),
                    }),
                    Op::UpdateWhere { query, assignments } => ActionOp::Db(DbAction::UpdateWhere {
                        query: query.query().clone(),
                        assignments: assignments.to_vec(),
                    }),
                    Op::DeleteWhere { query } => ActionOp::Db(DbAction::DeleteWhere {
                        query: query.query().clone(),
                    }),
                    Op::AppRequest {
                        handler,
                        request,
                        args,
                    } => ActionOp::AppRequest {
                        handler: handler.clone(),
                        request: request.clone(),
                        args: args.to_vec(),
                    },
                    Op::SignalEvent { name, args } => ActionOp::SignalEvent {
                        name: name.clone(),
                        args: args.to_vec(),
                    },
                    Op::ForEachRow {
                        query_index,
                        ops: inner,
                    } => ActionOp::ForEachRow {
                        query_index: *query_index,
                        ops: ops(inner),
                    },
                    Op::AbortWith { message } => ActionOp::AbortWith {
                        message: message.clone(),
                    },
                })
                .collect()
        }
        RuleDef {
            name: self.name.clone(),
            event: self.event.clone(),
            condition: self.condition.iter().map(|q| q.query().clone()).collect(),
            action: Action {
                ops: ops(&self.action),
            },
            ec_coupling: self.ec_coupling,
            ca_coupling: self.ca_coupling,
            enabled: self.enabled,
        }
    }

    /// The first condition query (the discrimination network places a
    /// rule by it).
    pub(crate) fn first_condition(&self) -> Option<&Query> {
        self.condition.first().map(|q| q.query())
    }

    /// Can the action expressions be evaluated as compiled for an event
    /// carrying `db`? They must all be resolved, and when they read an
    /// image, the event's class must be the rule's event class or a
    /// subclass of it (which shares its layout's prefix).
    pub(crate) fn exprs_ready(
        &self,
        db: Option<&DbEventData>,
        schema: impl FnOnce() -> Arc<Schema>,
    ) -> bool {
        if !self.exprs_resolved {
            return false;
        }
        if !self.exprs_read_delta {
            return true;
        }
        match (self.delta, db) {
            (Some(class), Some(db)) => {
                db.class == class || schema().is_subclass_or_self(db.class, class)
            }
            _ => false,
        }
    }
}

/// Evaluate an action expression in the firing context. `compiled`
/// says the expression was resolved for this context; otherwise it is
/// resolved here against `schema`, the row's class and the event's
/// class, and fails here if a reference resolves against neither.
pub(crate) fn eval_expr(
    expr: &Expr,
    compiled: bool,
    schema: &dyn Fn() -> Arc<Schema>,
    db: Option<&DbEventData>,
    params: &HashMap<String, Value>,
    row: Option<&Row>,
) -> Result<Value> {
    let ctx = Bindings {
        row: row.map(|r| &r.values[..]),
        old: db.and_then(|d| d.old.as_deref()),
        new: db.and_then(|d| d.new.as_deref()),
        params: Some(params),
    };
    if compiled {
        return expr.eval(&ctx);
    }
    let schema = schema();
    let row_class = row.map(|r| r.class);
    let delta_class = db.map(|d| d.class);
    let resolved = expr.resolve_split(
        &|name| match row_class {
            Some(c) => schema.resolve_attr(c, name).map(|(s, _)| s),
            None => Err(HipacError::EvalError(format!(
                "attribute {name} referenced outside a row context"
            ))),
        },
        &|name| match delta_class {
            Some(c) => schema.resolve_attr(c, name).map(|(s, _)| s),
            None => Err(HipacError::EvalError(format!(
                "old/new.{name} referenced but the event carries no delta"
            ))),
        },
    )?;
    resolved.eval(&ctx)
}

/// A delta-shaped condition's predicate resolved against the event's
/// own class at the firing: for a condition whose compiled form could
/// not be resolved against the query's class.
pub(crate) fn resolve_for_event(
    query: &CompiledQuery,
    schema: &Schema,
    class: ClassId,
) -> Result<Expr> {
    query
        .query()
        .predicate
        .resolve(&|name| schema.resolve_attr(class, name).map(|(s, _)| s))
}

/// Compile queries outside any rule (the Condition Evaluator's
/// query-level entry points): one table per batch, so structurally
/// identical queries still share a node.
pub(crate) fn compile_conditions(
    conditions: &[&[Query]],
    schema: &Schema,
    generation: Option<u64>,
    delta: Option<ClassId>,
) -> Vec<Vec<Arc<CompiledQuery>>> {
    let table = QueryTable::new();
    conditions
        .iter()
        .map(|qs| {
            qs.iter()
                .map(|q| table.intern(q, schema, generation, delta, true))
                .collect()
        })
        .collect()
}
