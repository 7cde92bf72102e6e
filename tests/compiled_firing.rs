//! Compiled firing against freshly resolved firing.
//!
//! The engine compiles a rule once: its conditions and actions are
//! resolved against the catalog generation the defining transaction
//! saw, and recompiled when a firing sees another. The oracle here
//! resolves everything afresh at every firing, in test code only: a
//! second engine with no rules whose operation listener interprets the
//! same definitions the way every firing once did — delta-shaped
//! conditions resolved against the event's class, any other query with
//! the event's images folded in as literals and run through
//! `ObjectStore::query`, and action expressions resolved against the
//! matched row and the event class.
//!
//! Both engines run one seeded sequence of operations. The sequence
//! drops and recreates a class with its attributes reordered, updates
//! subclass instances under superclass rules, creates a class and fires
//! a rule on it in one transaction before it commits, probes an index
//! with a `:param` and with `new.x`, and fires a rule that fails. After
//! every operation the results (errors included, by their text) must be
//! equal; at the end the database states and the committed lock
//! histories (`hipac-check`'s `History`, object and class keys) too.

use hipac::prelude::*;
use hipac_check::{AccessKind, ScheduleRecorder};
use hipac_object::store::{DbOperation, OpListener};
use hipac_object::{Bindings, LockKey, Schema};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// The rule shapes the sequence uses: an update event on one class,
/// condition queries, and at most one `UpdateWhere`.
#[derive(Clone)]
struct Rule {
    name: &'static str,
    on: &'static str,
    condition: Vec<&'static str>,
    update: Option<(&'static str, Vec<(&'static str, Expr)>)>,
    enabled: bool,
}

impl Rule {
    fn def(&self) -> RuleDef {
        let mut def = RuleDef::new(self.name).on(EventSpec::on_update(self.on));
        for q in &self.condition {
            def = def.when(Query::parse(q).unwrap());
        }
        if let Some((q, assignments)) = &self.update {
            def = def.then(Action::single(ActionOp::Db(DbAction::UpdateWhere {
                query: Query::parse(q).unwrap(),
                assignments: assignments
                    .iter()
                    .map(|(a, e)| (a.to_string(), e.clone()))
                    .collect(),
            })));
        }
        if self.enabled {
            def
        } else {
            def.disabled()
        }
    }
}

fn rules() -> Vec<Rule> {
    let bump = |n: i64| Expr::attr("hits").bin(BinOp::Add, Expr::lit(n));
    vec![
        // Delta-shaped: answered from the images.
        Rule {
            name: "rising",
            on: "item",
            condition: vec!["from item where new.qty > old.qty"],
            update: None,
            enabled: true,
        },
        // An index probe by `new.sym`, in the condition and the action.
        Rule {
            name: "tally",
            on: "item",
            condition: vec!["from tally where sym = new.sym"],
            update: Some((
                "from tally where sym = new.sym",
                vec![("hits", bump(1)), ("last", Expr::NewAttr("qty".into()))],
            )),
            enabled: true,
        },
        // An index probe by `:sym`; fired by hand only.
        Rule {
            name: "by_param",
            on: "item",
            condition: vec!["from tally where sym = :sym"],
            update: Some(("from tally where sym = :sym", vec![("hits", bump(10))])),
            enabled: false,
        },
        // A subclass attribute read through a superclass query.
        Rule {
            name: "graded",
            on: "special",
            condition: vec!["from item where new.grade > 2 and new.qty > 0"],
            update: Some((
                "from tally where sym = new.sym",
                vec![("last", Expr::NewAttr("grade".into()))],
            )),
            enabled: true,
        },
        // Always fails: `gadget` has no `missing`.
        Rule {
            name: "broken",
            on: "gadget",
            condition: vec!["from tally where sym = new.sym and hits > new.missing"],
            update: None,
            enabled: true,
        },
    ]
}

/// Created inside the transaction that creates its class.
fn fresh_rule() -> Rule {
    Rule {
        name: "fresh",
        on: "fresh",
        condition: vec!["from fresh where k = new.k"],
        update: Some((
            "from tally where sym = new.k",
            vec![("hits", Expr::attr("hits").bin(BinOp::Add, Expr::lit(100)))],
        )),
        enabled: true,
    }
}

// ----------------------------------------------------------------------
// The oracle: resolve at every firing.
// ----------------------------------------------------------------------

struct Event {
    class: ClassId,
    lineage: Vec<String>,
    old: Arc<[Value]>,
    new: Arc<[Value]>,
}

struct Oracle {
    store: Arc<ObjectStore>,
    tm: Arc<TransactionManager>,
    rules: Mutex<Vec<Rule>>,
}

/// `query` with its `old.x`/`new.x` references replaced by the event's
/// values, resolved against the event's class.
fn fold(query: &Query, schema: &Schema, ev: Option<&Event>) -> hipac::Result<Query> {
    fn walk(e: &Expr, schema: &Schema, ev: &Event) -> hipac::Result<Expr> {
        let image = |img: &[Value], n: &str| -> hipac::Result<Expr> {
            let (slot, _) = schema.resolve_attr(ev.class, n)?;
            Ok(Expr::Literal(img.get(slot).cloned().unwrap_or(Value::Null)))
        };
        Ok(match e {
            Expr::OldAttr(n) => image(&ev.old, n)?,
            Expr::NewAttr(n) => image(&ev.new, n)?,
            Expr::Unary(op, x) => Expr::Unary(*op, Box::new(walk(x, schema, ev)?)),
            Expr::Binary(op, l, r) => Expr::Binary(
                *op,
                Box::new(walk(l, schema, ev)?),
                Box::new(walk(r, schema, ev)?),
            ),
            other => other.clone(),
        })
    }
    let mut reads_delta = false;
    query
        .predicate
        .for_each_ref(&mut |kind, _, _| reads_delta |= kind != hipac_object::RefKind::Attr);
    if !reads_delta {
        return Ok(query.clone());
    }
    let ev = ev.ok_or_else(|| {
        HipacError::EvalError("condition references old/new but the event carries no delta".into())
    })?;
    Ok(Query {
        class: query.class.clone(),
        predicate: walk(&query.predicate, schema, ev)?,
        projection: None,
    })
}

impl Oracle {
    fn holds(
        &self,
        txn: TxnId,
        query: &Query,
        ev: Option<&Event>,
        params: &HashMap<String, Value>,
    ) -> hipac::Result<bool> {
        let schema = self.store.schema(txn);
        let mut delta_shape = true;
        query
            .predicate
            .for_each_ref(&mut |kind, _, _| delta_shape &= kind != hipac_object::RefKind::Attr);
        if let Some(ev) = ev.filter(|ev| delta_shape && ev.lineage.contains(&query.class)) {
            let predicate = query
                .predicate
                .resolve(&|n| schema.resolve_attr(ev.class, n).map(|(s, _)| s))?;
            let ctx = Bindings {
                row: None,
                old: Some(&ev.old),
                new: Some(&ev.new),
                params: Some(params),
            };
            return predicate.eval_bool(&ctx);
        }
        let folded = fold(query, &schema, ev)?;
        Ok(!self.store.query(txn, &folded, Some(params))?.is_empty())
    }

    fn act(
        &self,
        txn: TxnId,
        rule: &Rule,
        ev: Option<&Event>,
        params: &HashMap<String, Value>,
    ) -> hipac::Result<()> {
        let Some((q, assignments)) = &rule.update else {
            return Ok(());
        };
        let schema = self.store.schema(txn);
        let folded = fold(&Query::parse(q).unwrap(), &schema, ev)?;
        for row in self.store.query(txn, &folded, Some(params))? {
            let mut assigned = Vec::new();
            for (attr, e) in assignments {
                let resolved = e.resolve_split(
                    &|n| schema.resolve_attr(row.class, n).map(|(s, _)| s),
                    &|n| match ev {
                        Some(ev) => schema.resolve_attr(ev.class, n).map(|(s, _)| s),
                        None => Err(HipacError::EvalError(format!(
                            "old/new.{n} referenced but the event carries no delta"
                        ))),
                    },
                )?;
                let ctx = Bindings {
                    row: Some(&row.values),
                    old: ev.map(|e| &e.old[..]),
                    new: ev.map(|e| &e.new[..]),
                    params: Some(params),
                };
                assigned.push((*attr, resolved.eval(&ctx)?));
            }
            self.store.update(txn, row.oid, &assigned)?;
        }
        Ok(())
    }

    /// The engine's protocol: one condition subtransaction for the
    /// batch, then one action subtransaction per satisfied rule.
    fn fire(
        &self,
        txn: TxnId,
        rules: &[Rule],
        ev: Option<&Event>,
        params: &HashMap<String, Value>,
    ) -> hipac::Result<()> {
        let cond = self.tm.begin_child(txn)?;
        let mut satisfied = Vec::new();
        for rule in rules {
            let mut all = true;
            for q in &rule.condition {
                match self.holds(cond, &Query::parse(q).unwrap(), ev, params) {
                    Ok(true) => {}
                    Ok(false) => {
                        all = false;
                        break;
                    }
                    Err(e) => {
                        let _ = self.tm.abort(cond);
                        return Err(e);
                    }
                }
            }
            satisfied.push(all);
        }
        self.tm.commit(cond)?;
        for (rule, _) in rules.iter().zip(satisfied).filter(|(_, s)| *s) {
            let act = self.tm.begin_child(txn)?;
            match self.act(act, rule, ev, params) {
                Ok(()) => self.tm.commit(act)?,
                Err(e) => {
                    let _ = self.tm.abort(act);
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

impl OpListener for Oracle {
    fn on_operation(&self, txn: TxnId, op: &DbOperation) -> hipac::Result<()> {
        let DbOperation::Update {
            class,
            oid,
            old,
            new,
        } = op
        else {
            return Ok(());
        };
        let schema = self.store.schema(txn);
        let mut lineage = Vec::new();
        let mut cur = Some(*class);
        while let Some(c) = cur.and_then(|c| schema.class(c).ok()) {
            lineage.push(c.name.clone());
            cur = c.superclass;
        }
        let triggered: Vec<Rule> = self
            .rules
            .lock()
            .unwrap()
            .iter()
            .filter(|r| r.enabled && lineage.iter().any(|l| l == r.on))
            .cloned()
            .collect();
        if triggered.is_empty() {
            return Ok(());
        }
        let params = HashMap::from([
            ("class".to_string(), Value::Str(lineage[0].clone())),
            ("oid".to_string(), Value::Ref(*oid)),
        ]);
        let ev = Event {
            class: *class,
            lineage,
            old: Arc::clone(old),
            new: Arc::clone(new),
        };
        self.fire(txn, &triggered, Some(&ev), &params)
    }
}

// ----------------------------------------------------------------------
// The two engines, driven alike.
// ----------------------------------------------------------------------

struct Side {
    db: Arc<ActiveDatabase>,
    rec: Arc<ScheduleRecorder<LockKey>>,
    oracle: Option<Arc<Oracle>>,
}

impl Side {
    fn new(oracle: bool) -> Side {
        let db = Arc::new(
            ActiveDatabase::builder()
                .workers(1)
                .firing_parallelism(1)
                .build()
                .unwrap(),
        );
        let rec: Arc<ScheduleRecorder<LockKey>> = ScheduleRecorder::new();
        rec.attach(db.store().locks());
        db.txn()
            .register_resource(Arc::clone(&rec) as Arc<dyn hipac_txn::ResourceManager>);
        let oracle = oracle.then(|| {
            let o = Arc::new(Oracle {
                store: Arc::clone(db.store()),
                tm: Arc::clone(db.txn()),
                rules: Mutex::new(Vec::new()),
            });
            db.store()
                .register_listener(Arc::clone(&o) as Arc<dyn OpListener>);
            o
        });
        Side { db, rec, oracle }
    }

    fn add_rule(&self, txn: TxnId, rule: &Rule) -> hipac::Result<()> {
        match &self.oracle {
            Some(o) => {
                o.rules.lock().unwrap().push(rule.clone());
                Ok(())
            }
            None => self.db.rules().create_rule(txn, rule.def()).map(|_| ()),
        }
    }

    fn fire_by_hand(
        &self,
        txn: TxnId,
        name: &str,
        params: HashMap<String, Value>,
    ) -> hipac::Result<()> {
        match &self.oracle {
            Some(o) => {
                let rule = o
                    .rules
                    .lock()
                    .unwrap()
                    .iter()
                    .find(|r| r.name == name)
                    .cloned()
                    .expect("a defined rule");
                o.fire(txn, &[rule], None, &params)
            }
            None => self.db.rules().fire_rule(txn, name, params),
        }
    }

    /// Run `f` in a top-level transaction; the outcome as text.
    fn run(&self, f: impl FnOnce(&Side, TxnId) -> hipac::Result<()>) -> String {
        match self.db.run_top(|t| f(self, t)) {
            Ok(()) => "ok".into(),
            Err(e) => format!("error: {e}"),
        }
    }

    fn state(&self, classes: &[&str]) -> BTreeMap<String, Vec<String>> {
        let mut out = BTreeMap::new();
        self.db
            .run_top(|t| {
                let schema = self.db.store().schema(t);
                for class in classes {
                    if schema.class_by_name(class).is_err() {
                        continue;
                    }
                    let rows = self.db.store().query(t, &Query::all(*class), None)?;
                    out.insert(
                        class.to_string(),
                        rows.iter()
                            .map(|r| format!("{}:{:?}", r.oid, r.values))
                            .collect(),
                    );
                }
                Ok(())
            })
            .unwrap();
        out
    }

    /// Each committed top-level transaction's object and class locks.
    fn history(&self) -> Vec<BTreeSet<String>> {
        self.rec
            .history()
            .committed
            .iter()
            .map(|t| {
                t.accesses
                    .iter()
                    .filter(|a| matches!(a.key, LockKey::Object(_) | LockKey::Class(_)))
                    .map(|a| format!("{:?} {}", a.key, a.kind == AccessKind::Write))
                    .collect::<BTreeSet<_>>()
            })
            .filter(|set| !set.is_empty())
            .collect()
    }
}

const SYMS: [&str; 4] = ["A", "B", "C", "D"];

fn tally_attrs(reordered: bool) -> Vec<AttrDef> {
    let sym = AttrDef::new("sym", ValueType::Str).indexed();
    let hits = AttrDef::new("hits", ValueType::Int);
    let last = AttrDef::new("last", ValueType::Int);
    if reordered {
        vec![hits, last, sym]
    } else {
        vec![sym, hits, last]
    }
}

fn setup(side: &Side) -> Vec<ObjectId> {
    let store = side.db.store();
    let mut items = Vec::new();
    let out = side.run(|s, t| {
        store.create_class(
            t,
            "item",
            None,
            vec![
                AttrDef::new("sym", ValueType::Str).indexed(),
                AttrDef::new("qty", ValueType::Int),
            ],
        )?;
        store.create_class(
            t,
            "special",
            Some("item"),
            vec![AttrDef::new("grade", ValueType::Int)],
        )?;
        store.create_class(t, "gadget", Some("item"), vec![])?;
        store.create_class(t, "tally", None, tally_attrs(false))?;
        for (i, sym) in SYMS.iter().enumerate() {
            items.push(store.insert(t, "item", vec![(*sym).into(), 0i64.into()])?);
            items.push(store.insert(
                t,
                "special",
                vec![(*sym).into(), 0i64.into(), (i as i64).into()],
            )?);
            store.insert(t, "tally", vec![(*sym).into(), 0i64.into(), 0i64.into()])?;
        }
        items.push(store.insert(t, "gadget", vec!["A".into(), 0i64.into()])?);
        for rule in rules() {
            s.add_rule(t, &rule)?;
        }
        Ok(())
    });
    assert_eq!(out, "ok");
    items
}

/// Drop `tally` and create it again with its attributes reordered (or
/// back), keeping its rows' values.
fn recreate_tally(side: &Side, t: TxnId, reordered: bool) -> hipac::Result<()> {
    let store = side.db.store();
    let schema = store.schema(t);
    let layout: Vec<String> = schema
        .layout(schema.class_by_name("tally")?.id)?
        .map(|a| a.name.clone())
        .collect();
    let rows = store.query(t, &Query::all("tally"), None)?;
    for row in &rows {
        store.delete(t, row.oid)?;
    }
    store.drop_class(t, "tally")?;
    store.create_class(t, "tally", None, tally_attrs(reordered))?;
    let order: Vec<String> = tally_attrs(reordered).into_iter().map(|a| a.name).collect();
    for row in rows {
        let values = order
            .iter()
            .map(|name| row.values[layout.iter().position(|l| l == name).unwrap()].clone())
            .collect();
        store.insert(t, "tally", values)?;
    }
    Ok(())
}

/// SplitMix64, so each seed replays exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn run_seed(seed: u64) {
    let (engine, oracle) = (Side::new(false), Side::new(true));
    let items = setup(&engine);
    assert_eq!(setup(&oracle), items);
    let mut rng = Rng(seed);
    let mut reordered = false;
    let mut fresh: Option<ObjectId> = None;
    for step in 0..40 {
        let roll = rng.below(100);
        let qty = rng.below(20) as i64 - 5;
        let grade = rng.below(6) as i64;
        let pick = rng.below(items.len() as u64) as usize;
        let sym = SYMS[rng.below(SYMS.len() as u64) as usize];
        let op = |side: &Side| -> String {
            let store = side.db.store();
            side.run(|s, t| match roll {
                0..=54 => {
                    let oid = items[pick];
                    let class = store.get(t, oid)?.class;
                    if store.schema(t).class(class)?.name == "special" {
                        store.update(t, oid, &[("qty", qty.into()), ("grade", grade.into())])
                    } else {
                        store.update(t, oid, &[("qty", qty.into())])
                    }
                }
                55..=69 => s.fire_by_hand(
                    t,
                    "by_param",
                    HashMap::from([("sym".to_string(), sym.into())]),
                ),
                70..=77 => recreate_tally(s, t, !reordered),
                78..=85 => match fresh {
                    None => {
                        store.create_class(
                            t,
                            "fresh",
                            None,
                            vec![
                                AttrDef::new("k", ValueType::Str).indexed(),
                                AttrDef::new("v", ValueType::Int),
                            ],
                        )?;
                        let oid = store.insert(t, "fresh", vec![sym.into(), 0i64.into()])?;
                        s.add_rule(t, &fresh_rule())?;
                        // Fires before the class's creation commits.
                        store.update(t, oid, &[("v", qty.into())])
                    }
                    Some(oid) => store.update(t, oid, &[("v", qty.into())]),
                },
                86..=91 => store.update(t, *items.last().unwrap(), &[("qty", qty.into())]),
                _ => {
                    // A manual fire with the parameter unbound.
                    s.fire_by_hand(t, "by_param", HashMap::new())
                }
            })
        };
        let (got, want) = (op(&engine), op(&oracle));
        assert_eq!(got, want, "seed {seed}, step {step}, roll {roll}");
        if (70..=77).contains(&roll) && got == "ok" {
            reordered = !reordered;
        }
        if (78..=85).contains(&roll) && fresh.is_none() && got == "ok" {
            // Read on both sides, so the histories stay alike.
            let oid = |side: &Side| {
                let store = side.db.store();
                side.db
                    .run_top(|t| Ok(store.query(t, &Query::all("fresh"), None)?[0].oid))
                    .unwrap()
            };
            fresh = Some(oid(&engine));
            assert_eq!(fresh, Some(oid(&oracle)));
        }
    }
    let classes = ["item", "special", "gadget", "tally", "fresh"];
    assert_eq!(
        engine.state(&classes),
        oracle.state(&classes),
        "seed {seed}"
    );
    assert_eq!(engine.history(), oracle.history(), "seed {seed}");
}

#[test]
fn compiled_firing_matches_fresh_resolution() {
    for seed in 0..24 {
        run_seed(seed);
    }
}
