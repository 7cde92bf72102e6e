//! Differential harness: the discrimination network
//! ([`Matching::Network`]) must be observationally equivalent to the
//! naive full-list oracle ([`Matching::Naive`]) — the same multiset of
//! fired rules in every transaction, same satisfied-condition counts,
//! same committed state — across randomized rule sets (equality / range
//! / compound / guard-chain / residual conditions; immediate, deferred
//! and separate coupling), data churn, rule churn (create / alter /
//! drop / enable / disable), abort-heavy schedules, durable restarts
//! (in either mode) and injected storage crashes.
//!
//! Firings are compared per transaction as multisets, not as one
//! ordered log: the rules a transaction triggers fire as concurrent
//! sibling subtransactions (paper §3), serializability is the only
//! criterion, and which sibling's action reaches the handler first is
//! the scheduler's business — an ordered comparison fails whenever the
//! cores are busy.

use hipac::prelude::*;
use hipac::Matching;
use hipac_storage::FaultPolicy;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Deterministic RNG (SplitMix64): the whole schedule derives from a seed.
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

// ---------------------------------------------------------------------------
// Schedule: generated once per seed, replayed verbatim against each engine.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    UpdatePrice { slot: usize, price: f64 },
    UpdateQty { slot: usize, qty: Option<i64> },
    Insert { sym: String, price: f64 },
    CreateRule { def_id: u64 },
    AlterRule { name: String, def_id: u64 },
    DropRule { name: String },
    SetEnabled { name: String, enabled: bool },
}

#[derive(Debug, Clone)]
struct Step {
    ops: Vec<Op>,
    abort: bool,
}

/// Build a rule definition from a compact id: `(kind, k)` packed. The
/// same id always produces the same definition, so generator and
/// replayer agree without shipping `RuleDef` through the schedule.
fn make_rule(name: &str, def_id: u64) -> RuleDef {
    let kind = def_id % KINDS;
    let k = (def_id / KINDS) % 20; // threshold drawn from the price domain
    let j = (def_id / 7) % 20; // a chain's second literal
    let q = |s: String| Query::parse(&s).unwrap();
    let base = RuleDef::new(name).then(Action::single(ActionOp::AppRequest {
        handler: "audit".into(),
        request: name.to_owned(),
        args: vec![],
    }));
    let base = if def_id % 2 == 0 {
        base.ec(CouplingMode::Immediate)
    } else {
        base.ec(CouplingMode::Deferred)
    };
    match kind {
        // Equality guard on the new image.
        0 => base
            .on(EventSpec::on_update("stock"))
            .when(q(format!("from stock where new.price = {k}.0"))),
        // Range guards (>=, <, compound two-sided).
        1 => base
            .on(EventSpec::on_update("stock"))
            .when(q(format!("from stock where new.price >= {k}.0"))),
        2 => base
            .on(EventSpec::on_update("stock"))
            .when(q(format!("from stock where new.price < {k}.0"))),
        3 => base.on(EventSpec::on_update("stock")).when(q(format!(
            "from stock where new.price >= {k}.0 and new.price < {}.0",
            k + 5
        ))),
        // Guard on the old image.
        4 => base
            .on(EventSpec::on_update("stock"))
            .when(q(format!("from stock where old.price <= {k}.0"))),
        // Guard on a nullable attribute (null news prune the group).
        5 => base
            .on(EventSpec::on_update("stock"))
            .when(q(format!("from stock where new.qty >= {k}"))),
        // Residual: not guardable (Or at the top), falls in the
        // residual bucket and is always a candidate.
        6 => base.on(EventSpec::on_update("stock")).when(q(format!(
            "from stock where new.price = {k}.0 or old.price = {k}.0"
        ))),
        // Store-path condition with a derived event
        // (insert|update|delete on the class).
        STORE_KIND => base.when(q(format!("from stock where price > {k}.0"))),
        // Insert-triggered equality guard.
        8 => base
            .on(EventSpec::db(DbEventKind::Insert, Some("stock")))
            .when(q(format!("from stock where new.price = {k}.0"))),
        // Guard chain over two attributes, the second nullable.
        9 => base.on(EventSpec::on_update("stock")).when(q(format!(
            "from stock where new.price >= {k}.0 and new.qty < {j}"
        ))),
        // Chain interrupted by a non-literal conjunct (which errors on
        // a null qty): only the first link may prune.
        10 => base.on(EventSpec::on_update("stock")).when(q(format!(
            "from stock where new.price = {k}.0 and new.qty + 1 > {j}"
        ))),
        // Literal-on-the-left second link on the other image.
        _ => base.on(EventSpec::on_update("stock")).when(q(format!(
            "from stock where new.price >= {k}.0 and {}.0 > old.price",
            k + 1 + j % 5
        ))),
    }
}

/// Rule shapes [`make_rule`] draws from.
const KINDS: u64 = 12;
/// The one shape whose condition reads the store, not the event delta.
const STORE_KIND: u64 = 7;

/// Standing separate-coupled rules, one per delta-answerable shape,
/// committed before a schedule runs and never changed by it: a
/// detached firing reads its rule in a new top-level transaction, so
/// only a rule no schedule step touches fires deterministically. The
/// network prunes these before a pool job exists; the naive oracle
/// spawns one per triggered rule.
fn standing_rules(seed: u64) -> Vec<RuleDef> {
    (0..KINDS)
        .filter(|&kind| kind != STORE_KIND)
        .map(|kind| {
            let def_id = kind + KINDS * ((seed * 7 + kind * 3) % 80);
            make_rule(&format!("s{kind}"), def_id).detached()
        })
        .collect()
}

/// Generate a schedule. The generator tracks which rules survive
/// committed steps so later ops reference live names only.
fn make_schedule(seed: u64, steps: usize, abort_pct: u64) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    let mut live: Vec<String> = Vec::new();
    let mut next_rule = 0u64;
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let abort = rng.chance(abort_pct);
        let mut ops = Vec::new();
        let mut created: Vec<String> = Vec::new();
        let mut dropped: Vec<String> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            match rng.below(10) {
                0..=3 => ops.push(Op::UpdatePrice {
                    slot: rng.below(4) as usize,
                    price: rng.below(20) as f64,
                }),
                4 => ops.push(Op::UpdateQty {
                    slot: rng.below(4) as usize,
                    qty: if rng.chance(25) {
                        None
                    } else {
                        Some(rng.below(20) as i64)
                    },
                }),
                5 => ops.push(Op::Insert {
                    sym: format!("n{}", rng.below(1000)),
                    price: rng.below(20) as f64,
                }),
                6..=7 => {
                    let name = format!("r{next_rule}");
                    next_rule += 1;
                    created.push(name.clone());
                    ops.push(Op::CreateRule { def_id: rng.next() % 1000 });
                    // The def_id op carries no name; the replayer names
                    // rules by creation order, mirrored below.
                }
                8 if live.iter().any(|n| !dropped.contains(n)) => {
                    let pool: Vec<&String> =
                        live.iter().filter(|n| !dropped.contains(n)).collect();
                    let name = pool[rng.below(pool.len() as u64) as usize].clone();
                    if rng.chance(40) {
                        dropped.push(name.clone());
                        ops.push(Op::DropRule { name });
                    } else {
                        ops.push(Op::AlterRule {
                            name,
                            def_id: rng.next() % 1000,
                        });
                    }
                }
                _ if live.iter().any(|n| !dropped.contains(n)) => {
                    let pool: Vec<&String> =
                        live.iter().filter(|n| !dropped.contains(n)).collect();
                    let name = pool[rng.below(pool.len() as u64) as usize].clone();
                    ops.push(Op::SetEnabled {
                        name,
                        enabled: rng.chance(50),
                    });
                }
                _ => ops.push(Op::UpdatePrice {
                    slot: rng.below(4) as usize,
                    price: rng.below(20) as f64,
                }),
            }
        }
        // Rule names are assigned per creation *attempt* in both the
        // generator and the replayer, so aborted creations need no
        // counter rollback — the name is simply burned on both sides.
        if !abort {
            live.extend(created);
            live.retain(|n| !dropped.contains(n));
        }
        out.push(Step { ops, abort });
    }
    out
}

// ---------------------------------------------------------------------------
// Engine harness.
// ---------------------------------------------------------------------------

struct Harness {
    db: ActiveDatabase,
    log: Arc<Mutex<Vec<String>>>,
    oids: Vec<ObjectId>,
    next_rule: u64,
}

fn build(mode: Matching, dir: Option<&PathBuf>, faults: Option<Arc<FaultPolicy>>) -> Result<Harness> {
    let mut b = ActiveDatabase::builder().matching(mode).workers(1);
    if let Some(dir) = dir {
        b = b.durable(dir);
    }
    if let Some(f) = faults {
        b = b.storage_faults(f);
    }
    let db = b.build()?;
    let log = Arc::new(Mutex::new(Vec::new()));
    {
        let log = Arc::clone(&log);
        db.register_handler("audit", move |req: &str, _args: &Args| {
            log.lock().unwrap().push(req.to_owned());
            Ok(())
        });
    }
    let mut h = Harness {
        db,
        log,
        oids: Vec::new(),
        next_rule: 0,
    };
    h.refresh_oids();
    Ok(h)
}

impl Harness {
    fn seed_data(&mut self) -> Result<()> {
        let oids = self.db.run_top(|t| {
            self.db.store().create_class(
                t,
                "stock",
                None,
                vec![
                    AttrDef::new("sym", ValueType::Str).indexed(),
                    AttrDef::new("price", ValueType::Float),
                    AttrDef::new("qty", ValueType::Int).nullable(),
                ],
            )?;
            let mut oids = Vec::new();
            for (i, sym) in ["a", "b", "c", "d"].iter().enumerate() {
                oids.push(self.db.store().insert(
                    t,
                    "stock",
                    vec![
                        Value::from(*sym),
                        Value::from(i as f64),
                        Value::from(i as i64),
                    ],
                )?);
            }
            Ok(oids)
        })?;
        self.oids = oids;
        Ok(())
    }

    fn refresh_oids(&mut self) {
        let oids = self
            .db
            .run_top(|t| {
                Ok(self
                    .db
                    .store()
                    .query(t, &Query::parse("from stock").unwrap(), None)
                    .map(|rows| {
                        let mut ids: Vec<ObjectId> = rows.iter().map(|r| r.oid).collect();
                        ids.sort();
                        ids
                    })
                    .unwrap_or_default())
            })
            .unwrap_or_default();
        if !oids.is_empty() {
            self.oids = oids;
        }
    }

    /// Replay one step. Returns `Err` only on an injected storage
    /// fault (the crash tests stop there).
    fn apply(&mut self, step: &Step) -> Result<()> {
        let t = self.db.begin();
        let mut failed = None;
        for op in &step.ops {
            let r: Result<()> = match op {
                Op::UpdatePrice { slot, price } => {
                    let oid = self.oids[slot % self.oids.len()];
                    self.db
                        .store()
                        .update(t, oid, &[("price", Value::from(*price))])
                        .map(|_| ())
                }
                Op::UpdateQty { slot, qty } => {
                    let oid = self.oids[slot % self.oids.len()];
                    let v = qty.map(Value::from).unwrap_or(Value::Null);
                    self.db.store().update(t, oid, &[("qty", v)]).map(|_| ())
                }
                Op::Insert { sym, price } => self
                    .db
                    .store()
                    .insert(
                        t,
                        "stock",
                        vec![
                            Value::from(sym.as_str()),
                            Value::from(*price),
                            Value::Null,
                        ],
                    )
                    .map(|_| ()),
                Op::CreateRule { def_id } => {
                    let name = format!("r{}", self.next_rule);
                    self.next_rule += 1;
                    self.db
                        .rules()
                        .create_rule(t, make_rule(&name, *def_id))
                        .map(|_| ())
                }
                Op::AlterRule { name, def_id } => self
                    .db
                    .rules()
                    .alter_rule(t, name, make_rule(name, *def_id))
                    .map(|_| ()),
                Op::DropRule { name } => self.db.rules().drop_rule(t, name),
                Op::SetEnabled { name, enabled } => {
                    if *enabled {
                        self.db.rules().enable_rule(t, name)
                    } else {
                        self.db.rules().disable_rule(t, name)
                    }
                }
            };
            if let Err(e) = r {
                failed = Some(e);
                break;
            }
        }
        if let Some(e) = failed {
            let _ = self.db.abort(t);
            return Err(e);
        }
        if step.abort {
            self.db.abort(t)?;
        } else if let Err(e) = self.db.commit(t) {
            let _ = self.db.abort(t);
            return Err(e);
        }
        self.refresh_oids();
        Ok(())
    }

    /// Committed rows of `stock`, rendered stably (empty when the
    /// class never survived — crash-test recovery states).
    fn state(&self) -> Vec<String> {
        self.db
            .run_top(|t| {
                let mut rows: Vec<String> = self
                    .db
                    .store()
                    .query(t, &Query::parse("from stock").unwrap(), None)
                    .unwrap_or_default()
                    .iter()
                    .map(|r| format!("{:?}:{:?}", r.oid, r.values))
                    .collect();
                rows.sort();
                Ok(rows)
            })
            .unwrap_or_default()
    }

    /// The rules fired since the last call — one schedule step's worth
    /// when called after every [`Harness::apply`] — as a sorted multiset,
    /// once every separate firing the step spawned has run.
    fn fired(&self) -> Vec<String> {
        self.db.quiesce();
        let mut fired = std::mem::take(&mut *self.log.lock().unwrap());
        fired.sort();
        fired
    }

    fn satisfied(&self) -> u64 {
        self.db
            .rules()
            .stats
            .conditions_satisfied
            .load(Ordering::Relaxed)
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hipac-matching-diff/{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Replay `schedule` against a fresh engine per mode and demand
/// identical observable behavior.
fn run_diff(seed: u64, steps: usize, abort_pct: u64) {
    let schedule = make_schedule(seed, steps, abort_pct);
    let mut naive = build(Matching::Naive, None, None).unwrap();
    let mut network = build(Matching::Network, None, None).unwrap();
    for h in [&mut naive, &mut network] {
        h.seed_data().unwrap();
        h.db.run_top(|t| {
            for rule in standing_rules(seed) {
                h.db.rules().create_rule(t, rule)?;
            }
            Ok(())
        })
        .unwrap();
    }
    for (i, step) in schedule.iter().enumerate() {
        naive.apply(step).unwrap();
        network.apply(step).unwrap();
        assert_eq!(
            naive.fired(),
            network.fired(),
            "seed {seed}: fired-rule multisets diverged in step {i}: {step:?}"
        );
    }
    assert_eq!(naive.state(), network.state(), "seed {seed}: committed state diverged");
    assert_eq!(
        naive.satisfied(),
        network.satisfied(),
        "seed {seed}: satisfied-condition counts diverged"
    );
    // The network must have done *some* discriminating on non-trivial
    // schedules — otherwise this test proves nothing about pruning.
    assert!(network.db.stats().match_probes > 0, "seed {seed}: network never probed");
}

#[test]
fn randomized_schedules_match() {
    for seed in [1, 2, 3, 4, 5] {
        run_diff(seed, 40, 15);
    }
}

#[test]
fn abort_heavy_schedules_match() {
    for seed in [11, 12, 13] {
        run_diff(seed, 40, 60);
    }
}

/// Guarded rules whose threshold no update reaches: the naive oracle
/// triggers (and rejects) every one, the network prunes every one
/// before it triggers, and neither satisfies a condition.
#[test]
fn unreachable_thresholds_are_pruned_before_triggering() {
    const RULES: u64 = 16;
    for mode in [Matching::Naive, Matching::Network] {
        let mut h = build(mode, None, None).unwrap();
        h.seed_data().unwrap();
        h.db.run_top(|t| {
            for i in 0..RULES {
                let rule = RuleDef::new(format!("threshold-{i}"))
                    .on(EventSpec::on_update("stock"))
                    .when(Query::parse(&format!("from stock where new.price >= {}.0", 1_000_000 + i))?)
                    .then(Action::none());
                h.db.rules().create_rule(t, rule)?;
            }
            Ok(())
        })
        .unwrap();
        h.db.run_top(|t| h.db.store().update(t, h.oids[0], &[("price", Value::from(50.0))]))
            .unwrap();
        let rules = h.db.rules();
        match mode {
            Matching::Naive => assert!(rules.stats.rules_triggered.load(Ordering::Relaxed) >= RULES),
            Matching::Network => assert!(rules.match_pruned() >= RULES, "pruned {}", rules.match_pruned()),
        }
        assert_eq!(h.satisfied(), 0, "{mode:?}: an unreachable threshold was satisfied");
    }
}

/// The `rule_wall` shape on one symbol: eight rules `new.symbol = "S"
/// and new.level = j % 4`, four immediate and four detached. An update
/// to level 1 satisfies rules 1 and 5. The network indexes the symbol
/// link and checks the level link in place, so only those two trigger;
/// the other six are pruned before any condition transaction or
/// separate firing exists. The naive oracle still triggers all eight.
#[test]
fn guard_chain_prunes_rules_whose_later_link_fails() {
    use std::sync::atomic::AtomicU64;
    for mode in [Matching::Naive, Matching::Network] {
        let db = ActiveDatabase::builder()
            .matching(mode)
            .workers(1)
            .build()
            .unwrap();
        let handled = Arc::new(AtomicU64::new(0));
        {
            let handled = Arc::clone(&handled);
            db.register_handler("desk", move |_req: &str, _args: &Args| {
                handled.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
        }
        let oid = db
            .run_top(|t| {
                db.store().create_class(
                    t,
                    "wall",
                    None,
                    vec![
                        AttrDef::new("symbol", ValueType::Str).indexed(),
                        AttrDef::new("level", ValueType::Int),
                    ],
                )?;
                db.store()
                    .insert(t, "wall", vec![Value::from("S"), Value::from(-1i64)])
            })
            .unwrap();
        db.run_top(|t| {
            for j in 0..8 {
                let rule = RuleDef::new(format!("S-{j}"))
                    .on(EventSpec::on_update("wall"))
                    .when(Query::parse(&format!(
                        "from wall where new.symbol = \"S\" and new.level = {}",
                        j % 4
                    ))?)
                    .then(Action::single(ActionOp::AppRequest {
                        handler: "desk".into(),
                        request: format!("S-{j}"),
                        args: vec![],
                    }));
                db.rules()
                    .create_rule(t, if j < 4 { rule } else { rule.detached() })?;
            }
            Ok(())
        })
        .unwrap();
        let rules = db.rules();
        let counts = || {
            let s = &rules.stats;
            [
                s.rules_triggered.load(Ordering::Relaxed),
                s.conditions_satisfied.load(Ordering::Relaxed),
                s.actions_executed.load(Ordering::Relaxed),
                rules.match_pruned(),
            ]
        };
        let before = counts();
        rules.tracer.set_enabled(true);
        db.run_top(|t| db.store().update(t, oid, &[("level", Value::from(1i64))]))
            .unwrap();
        db.quiesce();
        let after = counts();
        let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let separate_runs = rules
            .tracer
            .take()
            .iter()
            .filter(|f| f.ec_coupling == CouplingMode::Separate)
            .count();
        assert_eq!(
            handled.load(Ordering::Relaxed),
            2,
            "{mode:?}: actions handled"
        );
        match mode {
            // triggered, satisfied, actions, pruned
            Matching::Network => {
                assert_eq!(delta, [2, 2, 2, 6], "{mode:?}");
                assert_eq!(separate_runs, 1, "{mode:?}: separate firing runs");
            }
            Matching::Naive => {
                assert_eq!(delta, [8, 2, 2, 0], "{mode:?}");
                assert_eq!(separate_runs, 4, "{mode:?}: separate firing runs");
            }
        }
    }
}

/// Persisted rules reload into either mode: run half
/// the schedule durably, reopen each directory under the *opposite*
/// mode, run the rest, and compare everything.
#[test]
fn durable_restart_crosses_modes() {
    let seed = 77;
    let schedule = make_schedule(seed, 30, 15);
    let (first, second) = schedule.split_at(15);
    let dir_a = tmpdir("restart-a");
    let dir_b = tmpdir("restart-b");

    let mut a = build(Matching::Naive, Some(&dir_a), None).unwrap();
    let mut b = build(Matching::Network, Some(&dir_b), None).unwrap();
    a.seed_data().unwrap();
    b.seed_data().unwrap();
    let mut next_rule = 0;
    for step in first {
        a.apply(step).unwrap();
        b.apply(step).unwrap();
        next_rule = a.next_rule;
        assert_eq!(
            a.fired(),
            b.fired(),
            "pre-restart firings diverged in {step:?}"
        );
    }
    drop(a);
    drop(b);

    // Swap modes on reopen: the naive store loads into a network
    // engine (which places each rule from its definition) and vice
    // versa.
    let mut a = build(Matching::Network, Some(&dir_a), None).unwrap();
    let mut b = build(Matching::Naive, Some(&dir_b), None).unwrap();
    a.next_rule = next_rule;
    b.next_rule = next_rule;
    for step in second {
        a.apply(step).unwrap();
        b.apply(step).unwrap();
        assert_eq!(
            a.fired(),
            b.fired(),
            "post-restart firings diverged in {step:?}"
        );
    }
    assert_eq!(a.state(), b.state(), "post-restart states diverged");
}

/// The network's node count and, for every live rule's event, its
/// candidates under a fixed set of update probes.
#[allow(clippy::type_complexity)]
fn network_snapshot(h: &Harness) -> (u64, Vec<(RuleId, Vec<Option<Vec<RuleId>>>)>) {
    let rules = h.db.rules();
    let t = h.db.begin();
    let class = h.db.store().schema(t).class_by_name("stock").unwrap().id;
    let row = |sym: &str, price: f64, qty: Option<i64>| {
        vec![
            Value::from(sym),
            Value::from(price),
            qty.map_or(Value::Null, Value::Int),
        ]
    };
    let probes = [
        (Some(row("a", 0.0, Some(0))), row("a", 3.0, Some(3))),
        (Some(row("b", 9.0, Some(2))), row("b", 12.0, None)),
        (None, row("c", 17.0, Some(7))),
        (Some(row("d", 5.0, None)), row("d", 5.0, Some(11))),
    ];
    let mut per_rule = Vec::new();
    for i in 0..h.next_rule {
        let name = format!("r{i}");
        let (Ok(rid), Ok(event)) = (rules.rule_id(t, &name), rules.rule_event(t, &name)) else {
            continue; // dropped
        };
        let candidates = probes
            .iter()
            .map(|(old, new)| {
                let signal = EventSignal {
                    txn: Some(t),
                    db: Some(Arc::new(hipac_event::DbEventData {
                        kind: DbEventKind::Update,
                        class,
                        class_lineage: vec!["stock".into()],
                        oid: None,
                        old: old.clone().map(Into::into),
                        new: Some(new.clone().into()),
                    })),
                    ..EventSignal::at(0)
                };
                rules.match_candidates(event, &signal)
            })
            .collect();
        per_rule.push((rid, candidates));
    }
    h.db.abort(t).unwrap();
    (rules.match_index_nodes(), per_rule)
}

/// Placement derives from each rule's definition when a durable
/// database opens, so a network-mode reopen rebuilds the network the
/// store was written with — whichever mode wrote it — and `'g'` rows
/// (the guard records older builds persisted next to each rule) are
/// ignored: rows claiming every rule is residual change nothing.
#[test]
fn durable_reopen_rebuilds_the_same_network() {
    let schedule = make_schedule(61, 30, 15);
    let mut reference = None;
    for (writer, stray) in [
        (Matching::Network, false),
        (Matching::Naive, false),
        (Matching::Network, true),
    ] {
        let dir = tmpdir(&format!("reopen-{writer:?}-{stray}"));
        let mut h = build(writer, Some(&dir), None).unwrap();
        h.seed_data().unwrap();
        for step in &schedule {
            h.apply(step).unwrap();
        }
        let next_rule = h.next_rule;
        if writer == Matching::Network {
            let before = network_snapshot(&h);
            assert!(
                before.1.iter().any(|(rid, candidates)| candidates
                    .iter()
                    .any(|c| !c.as_ref().unwrap().contains(rid))),
                "some probe prunes a rule, so residual placements would show"
            );
            let reference = reference.get_or_insert(before);
            assert_eq!(&network_snapshot(&h), reference);
        }
        if stray {
            let residual_in_old_format = (0..next_rule)
                .map(|rid| hipac_storage::StoreOp::Put {
                    key: [&[b'g'][..], &rid.to_be_bytes()].concat(),
                    value: vec![0],
                })
                .collect::<Vec<_>>();
            h.db.durable_store()
                .unwrap()
                .commit(TxnId(0), residual_in_old_format)
                .unwrap();
        }
        drop(h);
        let mut h = build(Matching::Network, Some(&dir), None).unwrap();
        h.next_rule = next_rule;
        assert_eq!(
            Some(network_snapshot(&h)),
            reference,
            "reopen of a store written in {writer:?} mode (stray 'g' rows: {stray})"
        );
    }
}

/// Crash the durable layer at the same fault point under each mode:
/// both engines must fail at the same step and recover to identical
/// committed states. (Both modes write identical durable batches — the
/// rule records alone — so fault points line up across modes.)
#[test]
fn storage_faults_match() {
    let seed = 99;
    let schedule = make_schedule(seed, 25, 10);
    for crash_at in [5u64, 17, 41] {
        let mut results = Vec::new();
        for mode in [Matching::Naive, Matching::Network] {
            let dir = tmpdir(&format!("crash-{crash_at}-{mode:?}"));
            let faults = FaultPolicy::crash_at(crash_at, seed ^ crash_at);
            // The crash may fire while the engine itself opens (catalog
            // page writes), while seeding, or mid-schedule; record which.
            // Crashes are sticky, so the run stops at the first hit.
            let failed_at = match build(mode, Some(&dir), Some(faults)) {
                Err(_) => -2i64,
                Ok(mut h) => {
                    if h.seed_data().is_err() {
                        -1
                    } else {
                        let mut at = i64::MAX;
                        for (i, step) in schedule.iter().enumerate() {
                            if h.apply(step).is_err() {
                                at = i as i64;
                                break;
                            }
                        }
                        at
                    }
                }
            };
            // Recover with a clean policy and dump the state.
            let h = build(mode, Some(&dir), None).unwrap();
            results.push((failed_at, h.state()));
        }
        assert_eq!(
            results[0], results[1],
            "crash point {crash_at}: modes diverged after recovery"
        );
    }
}
