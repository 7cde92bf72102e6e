//! The Rule Manager (§5.4) and the rule-processing protocols of §6.
//!
//! Responsibilities, per the paper:
//!
//! * map events to rule firings and rule firings to transactions;
//! * schedule condition evaluation and action execution according to
//!   the coupling modes (§3.2):
//!   - *immediate* firings run in subtransactions at the event point,
//!     with the triggering operation suspended (§6.2);
//!   - *deferred* firings accumulate per transaction and run when that
//!     transaction commits (§6.3), via the Transaction Manager hook;
//!   - *separate* firings run in concurrent top-level transactions on a
//!     worker pool;
//! * manage rules as database objects (§2.2): create / delete / enable
//!   / disable are transactional (the catalog is a version store) and
//!   take write locks; firing takes a read lock, so a rule update
//!   serializes against firings of that rule;
//! * derive the event specification from the condition when a rule is
//!   defined without one (§2.1);
//! * forward requests to application programs (§4.1 role reversal)
//!   through registered [`ApplicationHandler`]s.
//!
//! Faithfulness note: the paper creates one condition-evaluation
//! subtransaction *per rule* and lets siblings run concurrently. This
//! implementation evaluates the conditions of all rules triggered by
//! one event in a single condition-evaluation subtransaction (which is
//! exactly the batch interface the paper gives the Condition Evaluator
//! in §5.5, and a legal serial schedule of the paper's siblings), then
//! runs each satisfied rule's action in its own subtransaction.

use crate::compile::{CompiledQuery, CompiledRule, Op, QueryTable};
use crate::condition::{ConditionEvaluator, EvalStats};
use crate::network::{MatchNetwork, Matching};
use crate::pool::{FiringPool, WorkerPool};
use crate::rule::{CouplingMode, RuleDef};
use hipac_common::id::IdAllocator;
use hipac_common::idhash::IdBuildHasher;
use hipac_common::{EventId, HipacError, IdMap, IdSet, Result, RuleId, TxnId, Value};
use hipac_event::spec::DbEventKind;
use hipac_event::{DbEventData, EventRegistry, EventSignal, EventSpec, SignalSink};
use hipac_object::query::{Query, QueryResult, Row};
use hipac_object::store::{DbOperation, LockKey, OpListener};
use hipac_object::ObjectStore;
use hipac_txn::{LockMode, ResourceManager, TransactionManager, TxnHook, VersionStore};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// An application program registered to receive rule-action requests
/// (§4.1: "HiPAC becomes the client and the application becomes the
/// server").
pub trait ApplicationHandler: Send + Sync {
    fn handle(&self, request: &str, args: &HashMap<String, Value>) -> Result<()>;
}

/// Aggregate counters (benchmarks and EXPERIMENTS.md read these).
#[derive(Debug, Default)]
pub struct RuleStats {
    pub signals_processed: AtomicU64,
    pub rules_triggered: AtomicU64,
    pub conditions_satisfied: AtomicU64,
    pub actions_executed: AtomicU64,
    pub store_evaluations: AtomicU64,
    pub delta_evaluations: AtomicU64,
    pub cache_hits: AtomicU64,
    /// Action firings dispatched through the parallel sibling pool
    /// (a subset of `actions_executed`).
    pub firings_parallel: AtomicU64,
    /// Separate-mode firing attempts retried after a transaction-fatal
    /// abort (deadlock / lock timeout / deadline).
    pub separate_retries: AtomicU64,
    /// Separate-mode firings abandoned after exhausting the retry
    /// budget (or failing with a non-retryable error); each leaves a
    /// dead-letter trace entry and an entry in the separate-error
    /// buffer.
    pub separate_dead_letters: AtomicU64,
}

impl RuleStats {
    fn absorb(&self, s: EvalStats) {
        self.store_evaluations
            .fetch_add(s.store_evaluations as u64, Ordering::Relaxed);
        self.delta_evaluations
            .fetch_add(s.delta_evaluations as u64, Ordering::Relaxed);
        self.cache_hits.fetch_add(s.cache_hits as u64, Ordering::Relaxed);
    }
}

struct CatalogEntry {
    event: EventId,
    /// Transaction whose abort should retract this entry (rule creation
    /// not yet committed to the top level); `None` once fully
    /// committed.
    created_by: Option<TxnId>,
}

/// The Rule Manager.
pub struct RuleManager {
    tm: Arc<TransactionManager>,
    store: Arc<ObjectStore>,
    events: Arc<EventRegistry>,
    evaluator: ConditionEvaluator,
    pool: WorkerPool,
    /// Scoped pool firing immediate/deferred sibling subtransactions
    /// concurrently (§3's execution model).
    firing: FiringPool,
    /// Rules, compiled and shared: a firing carries the stored `Arc`,
    /// and a change installs a new compiled rule rather than editing
    /// one.
    rules: VersionStore<RuleId, Arc<CompiledRule>, IdBuildHasher>,
    /// The compiled queries of the stored rules, one per structurally
    /// distinct query and catalog generation.
    queries: QueryTable,
    /// Keyed by names a tenant picks, so on `RandomState`.
    rule_names: VersionStore<String, RuleId, RandomState>,
    ids: IdAllocator,
    catalog: RwLock<IdMap<RuleId, CatalogEntry>>,
    /// Rules created by each still-uncommitted transaction — the
    /// inverse of `CatalogEntry::created_by`. Child commits and aborts
    /// re-attribute or retract only their own creations through this
    /// index instead of scanning the whole catalog, which would be
    /// O(total rules) on every immediate-coupled firing (each fires in
    /// a child transaction).
    created_index: Mutex<IdMap<TxnId, Vec<RuleId>>>,
    /// Event → rules, ascending by rule id. The rule lists are shared
    /// (`Arc`) so signal dispatch clones a handle, not the list — the
    /// per-signal work under this lock is O(1) regardless of how many
    /// rules an event has.
    event_map: RwLock<IdMap<EventId, Arc<Vec<RuleId>>>>,
    /// How signals resolve their candidate rules (fixed at
    /// construction): walk the full event list, or probe the
    /// discrimination network.
    matching: Matching,
    /// The discrimination network (maintained only under
    /// [`Matching::Network`]; naive mode keeps the oracle path pure).
    network: MatchNetwork,
    /// Structurally identical event specifications share one event
    /// definition (and one detection automaton): this is what makes the
    /// event→rules mapping of §5.4 many-to-one and lets one signal
    /// carry a whole batch of rules into the Condition Evaluator.
    spec_index: RwLock<HashMap<EventSpec, EventId>>,
    deferred: Mutex<IdMap<TxnId, Vec<Deferred>>>,
    /// Top-level transactions spawned by the Rule Manager itself
    /// (separate-mode firings). These do not emit transaction-control
    /// events, or commit-triggered rules would re-trigger themselves
    /// forever — the rule-interaction hazard the paper's §7 flags as
    /// future work; we close this one structurally.
    internal_txns: Mutex<IdSet<TxnId>>,
    handlers: RwLock<HashMap<String, Arc<dyn ApplicationHandler>>>,
    separate_errors: Mutex<Vec<(RuleId, HipacError)>>,
    /// Retry budget for separate-mode firings aborted by a
    /// transaction-fatal error (attempts beyond the first).
    separate_retry_limit: std::sync::atomic::AtomicUsize,
    /// Rule firing gate. Open (the default) on a primary; closed on a
    /// node applying a replicated stream, where every signal reflects
    /// state the primary already fired rules for — firing again here
    /// would double-execute actions. Promotion opens the gate.
    firing_gate: std::sync::atomic::AtomicBool,
    /// Maximum transaction-tree depth for cascading firings.
    cascade_limit: usize,
    /// Statistics.
    pub stats: RuleStats,
    /// Firing tracer (§7 tooling); disabled by default.
    pub tracer: crate::trace::RuleTracer,
    /// Durable store for rule persistence (rules are database objects,
    /// §2.2). Shares the store with the Object Manager, under the `r`
    /// key prefix.
    durable: Option<Arc<hipac_storage::DurableStore>>,
    self_weak: RwLock<Weak<RuleManager>>,
}

const RULE_KEY_PREFIX: u8 = b'r';

fn rule_key(rid: RuleId) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(RULE_KEY_PREFIX);
    k.extend_from_slice(&rid.raw().to_be_bytes());
    k
}

/// A rule fired with its signal, shared by every rule the signal
/// triggered.
type Firing = (RuleId, Arc<CompiledRule>, Arc<EventSignal>);

/// A deferred firing: the rule and its shared signal.
type Deferred = (RuleId, Arc<EventSignal>);

/// Bridges Object Manager operations into event signals (the database
/// event detector half that lives in the Object Manager, §5.1).
struct DbEventBridge {
    mgr: Weak<RuleManager>,
}

impl OpListener for DbEventBridge {
    fn on_operation(&self, txn: TxnId, op: &DbOperation) -> Result<()> {
        let Some(mgr) = self.mgr.upgrade() else {
            return Ok(());
        };
        let schema = mgr.store.schema(txn);
        // The class names from the operation's class up.
        let names = || {
            std::iter::successors(schema.class(op.class()).ok(), |def| {
                def.superclass.and_then(|sup| schema.class(sup).ok())
            })
            .map(|def| def.name.as_str())
        };
        if !mgr.events.watches_db(db_kind(op), |c| names().any(|n| n == c)) {
            return Ok(());
        }
        let lineage = names().map(str::to_owned).collect();
        let (oid, old, new) = match op {
            DbOperation::CreateClass { .. } | DbOperation::DropClass { .. } => (None, None, None),
            DbOperation::Insert { oid, new, .. } => (Some(*oid), None, Some(new.clone())),
            DbOperation::Update { oid, old, new, .. } => {
                (Some(*oid), Some(old.clone()), Some(new.clone()))
            }
            DbOperation::Delete { oid, old, .. } => (Some(*oid), Some(old.clone()), None),
        };
        mgr.events.report_db(
            Some(txn),
            DbEventData {
                kind: db_kind(op),
                class: op.class(),
                class_lineage: lineage,
                oid,
                old,
                new,
            },
        )
    }
}

/// The event kind a database operation reports.
fn db_kind(op: &DbOperation) -> DbEventKind {
    match op {
        DbOperation::CreateClass { .. } => DbEventKind::CreateClass,
        DbOperation::DropClass { .. } => DbEventKind::DropClass,
        DbOperation::Insert { .. } => DbEventKind::Insert,
        DbOperation::Update { .. } => DbEventKind::Update,
        DbOperation::Delete { .. } => DbEventKind::Delete,
    }
}

/// Adapter: the Rule Manager's single *signal event* operation (§5.4).
struct RuleSink {
    mgr: Weak<RuleManager>,
}

impl SignalSink for RuleSink {
    fn signal(&self, event: EventId, signal: &EventSignal) -> Result<()> {
        self.signal_shared(event, &Arc::new(signal.clone()))
    }

    fn signal_shared(&self, event: EventId, signal: &Arc<EventSignal>) -> Result<()> {
        match self.mgr.upgrade() {
            Some(mgr) => mgr.signal_event(event, signal),
            None => Ok(()),
        }
    }
}

/// Adapter: transaction lifecycle participation (§6.3 commit protocol,
/// abort cleanup, transaction events).
struct RuleTxnHook {
    mgr: Weak<RuleManager>,
}

impl TxnHook for RuleTxnHook {
    fn before_commit(&self, txn: TxnId) -> Result<()> {
        match self.mgr.upgrade() {
            Some(mgr) => mgr.process_deferred(txn),
            None => Ok(()),
        }
    }

    fn after_commit(&self, txn: TxnId, top: bool) {
        if let Some(mgr) = self.mgr.upgrade() {
            if top && mgr.internal_txns.lock().remove(&txn) {
                return;
            }
            if top {
                mgr.report_txn_end(DbEventKind::TxnCommit, txn);
            }
        }
    }

    fn after_abort(&self, txn: TxnId, top: bool) {
        if let Some(mgr) = self.mgr.upgrade() {
            mgr.deferred.lock().remove(&txn);
            mgr.retract_created_by(txn);
            if top && mgr.matching == Matching::Network {
                // Pending definition changes died with the top: the
                // committed placements were never touched, so dropping
                // the unstable marks restores steady state.
                mgr.network.clear_top(txn);
            }
            if top && mgr.internal_txns.lock().remove(&txn) {
                return;
            }
            if top {
                mgr.report_txn_end(DbEventKind::TxnAbort, txn);
            }
        }
    }
}

impl ResourceManager for RuleManager {
    fn on_commit_child(&self, txn: TxnId, parent: TxnId) -> Result<()> {
        self.rules.commit_into_parent(txn, parent);
        self.rule_names.commit_into_parent(txn, parent);
        // Creation attribution moves up with the layer — only the
        // child's own creations, via the inverse index.
        let moved = self.created_index.lock().remove(&txn);
        if let Some(rids) = moved {
            {
                let mut catalog = self.catalog.write();
                for rid in &rids {
                    if let Some(entry) = catalog.get_mut(rid) {
                        if entry.created_by == Some(txn) {
                            entry.created_by = Some(parent);
                        }
                    }
                }
            }
            self.created_index
                .lock()
                .entry(parent)
                .or_default()
                .extend(rids);
            // The network's creation marks follow the same index: a
            // child that created no rule leaves them alone.
            if self.matching == Matching::Network {
                self.network.promote_created(txn, parent);
            }
        }
        // Deferred firings registered under the child move to the
        // parent? No: they were processed at the child's commit
        // (process_deferred ran in before_commit). Nothing to move.
        Ok(())
    }

    fn on_commit_top(&self, txn: TxnId) -> Result<()> {
        let changes = self.rules.commit_top(txn);
        self.rule_names.commit_top(txn);
        if changes.is_empty()
            && !self.created_index.lock().contains_key(&txn)
            && !(self.matching == Matching::Network && self.network.owns_marks(txn))
        {
            // The transaction changed no rule: nothing to persist,
            // rewire or unmark.
            return Ok(());
        }
        if let Some(d) = &self.durable {
            let ops: Vec<_> = changes
                .iter()
                .map(|(rid, _, new)| match new {
                    Some(rule) => hipac_storage::StoreOp::Put {
                        key: rule_key(*rid),
                        value: crate::codec::encode_rule(&rule.def()),
                    },
                    None => hipac_storage::StoreOp::Delete {
                        key: rule_key(*rid),
                    },
                })
                .collect();
            if !ops.is_empty() {
                d.commit(txn, ops)?;
            }
        }
        let mut catalog = self.catalog.write();
        for (rid, old, new) in &changes {
            match new {
                Some(def) => {
                    // Rewire a modified rule's event mapping (the spec
                    // was validated at alter time).
                    let condition = def.condition.iter().map(|q| q.query());
                    let spec = Self::effective_spec(def.event.as_ref(), condition);
                    let new_event = spec.and_then(|spec| {
                        let existing = self.spec_index.read().get(&spec).copied();
                        match existing {
                            Some(id) => Some(id),
                            None => match self.events.define_event(spec.clone()) {
                                Ok(id) => {
                                    self.spec_index.write().insert(spec, id);
                                    Some(id)
                                }
                                Err(_) => None,
                            },
                        }
                    });
                    let old_event = catalog.get(rid).map(|e| e.event);
                    if let (Some(new_event), Some(old_event)) = (new_event, old_event) {
                        if new_event != old_event {
                            self.link_rule_event(new_event, *rid);
                            if let Some(e) = catalog.get_mut(rid) {
                                e.event = new_event;
                            }
                            self.unlink_rule_event(old_event, *rid);
                        }
                    }
                    if let Some(e) = catalog.get_mut(rid) {
                        e.created_by = None;
                    }
                    if self.matching == Matching::Network {
                        if let Some(old_event) = old_event {
                            // Re-place per the committed definition
                            // (clears the rule's unstable mark).
                            let placed_event = new_event.unwrap_or(old_event);
                            self.network.commit_change(
                                old_event,
                                placed_event,
                                *rid,
                                old.as_ref().map(|r| r.first_condition()),
                                Some(def.first_condition()),
                            );
                        }
                    }
                }
                None => {
                    // Rule deletion committed: drop the mapping, and
                    // retire the (shared) event def once unreferenced.
                    if let Some(entry) = catalog.remove(rid) {
                        self.unlink_rule_event(entry.event, *rid);
                        if self.matching == Matching::Network {
                            self.network.commit_change(
                                entry.event,
                                entry.event,
                                *rid,
                                old.as_ref().map(|r| r.first_condition()),
                                None,
                            );
                        }
                    }
                }
            }
        }
        drop(catalog);
        // Everything this top created is now fully committed
        // (`created_by: None` above) — drop the attribution index.
        self.created_index.lock().remove(&txn);
        if self.matching == Matching::Network {
            // Marks owned by this top whose rules were NOT in the
            // change set (a child made the change, then aborted; or the
            // top created the rule and dropped it again): the committed
            // placement is already right — just unmark.
            self.network.clear_top(txn);
        }
        Ok(())
    }

    fn on_abort(&self, txn: TxnId) -> Result<()> {
        self.rules.abort(txn);
        self.rule_names.abort(txn);
        Ok(())
    }
}

impl RuleManager {
    /// Wire a Rule Manager into the engine (in-memory rules). See
    /// [`RuleManager::with_durability`] for persistent rules.
    pub fn new(
        tm: Arc<TransactionManager>,
        store: Arc<ObjectStore>,
        events: Arc<EventRegistry>,
        workers: usize,
    ) -> Arc<RuleManager> {
        Self::with_durability(tm, store, events, workers, None)
            .expect("in-memory construction cannot fail")
    }

    /// Wire a Rule Manager into the engine. Registers itself with the
    /// Transaction Manager (resource + hook), the Object Manager
    /// (operation listener) and the Event Registry (signal sink). With
    /// a durable store, committed rules persist under the `r` key
    /// prefix and are reloaded here; external events referenced by
    /// persisted rules must already be defined in `events` (the facade
    /// replays them first).
    pub fn with_durability(
        tm: Arc<TransactionManager>,
        store: Arc<ObjectStore>,
        events: Arc<EventRegistry>,
        workers: usize,
        durable: Option<Arc<hipac_storage::DurableStore>>,
    ) -> Result<Arc<RuleManager>> {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_config(tm, store, events, workers, parallelism, durable)
    }

    /// [`RuleManager::with_durability`] with an explicit firing
    /// parallelism: the number of immediate/deferred sibling action
    /// subtransactions of one group that may execute concurrently
    /// (`1` = sequential, the pre-pool behavior), matching through the
    /// discrimination network; see [`RuleManager::with_matching`] for
    /// an explicit choice.
    pub fn with_config(
        tm: Arc<TransactionManager>,
        store: Arc<ObjectStore>,
        events: Arc<EventRegistry>,
        workers: usize,
        firing_parallelism: usize,
        durable: Option<Arc<hipac_storage::DurableStore>>,
    ) -> Result<Arc<RuleManager>> {
        Self::with_matching(
            tm,
            store,
            events,
            workers,
            firing_parallelism,
            Matching::Network,
            durable,
        )
    }

    /// [`RuleManager::with_config`] with an explicit candidate-matching
    /// mode: [`Matching::Network`] probes the discrimination network
    /// (O(matches) per signal); [`Matching::Naive`] walks the full
    /// event→rules list (the differential oracle).
    pub fn with_matching(
        tm: Arc<TransactionManager>,
        store: Arc<ObjectStore>,
        events: Arc<EventRegistry>,
        workers: usize,
        firing_parallelism: usize,
        matching: Matching,
        durable: Option<Arc<hipac_storage::DurableStore>>,
    ) -> Result<Arc<RuleManager>> {
        let tree = Arc::clone(tm.tree());
        let mgr = Arc::new(RuleManager {
            evaluator: ConditionEvaluator::new(Arc::clone(&store)),
            matching,
            network: MatchNetwork::new(),
            pool: WorkerPool::new(workers),
            firing: FiringPool::new(firing_parallelism),
            rules: VersionStore::new(Arc::clone(&tree)),
            queries: QueryTable::new(),
            rule_names: VersionStore::new(tree),
            ids: IdAllocator::new(1),
            catalog: RwLock::new(IdMap::default()),
            created_index: Mutex::new(IdMap::default()),
            event_map: RwLock::new(IdMap::default()),
            spec_index: RwLock::new(HashMap::new()),
            deferred: Mutex::new(IdMap::default()),
            internal_txns: Mutex::new(IdSet::default()),
            handlers: RwLock::new(HashMap::new()),
            separate_errors: Mutex::new(Vec::new()),
            separate_retry_limit: std::sync::atomic::AtomicUsize::new(3),
            firing_gate: std::sync::atomic::AtomicBool::new(true),
            cascade_limit: 32,
            stats: RuleStats::default(),
            tracer: crate::trace::RuleTracer::new(4096),
            durable,
            self_weak: RwLock::new(Weak::new()),
            tm: Arc::clone(&tm),
            store: Arc::clone(&store),
            events: Arc::clone(&events),
        });
        *mgr.self_weak.write() = Arc::downgrade(&mgr);
        mgr.load_durable()?;
        tm.register_resource(Arc::clone(&mgr) as Arc<dyn ResourceManager>);
        tm.register_hook(Arc::new(RuleTxnHook {
            mgr: Arc::downgrade(&mgr),
        }));
        store.register_listener(Arc::new(DbEventBridge {
            mgr: Arc::downgrade(&mgr),
        }));
        events.register_sink(Arc::new(RuleSink {
            mgr: Arc::downgrade(&mgr),
        }));
        Ok(mgr)
    }

    /// Reload persisted rules into the committed state, placing each in
    /// the discrimination network from its decoded definition. Stores
    /// written by older builds may also hold `g`-prefixed guard rows;
    /// nothing reads them.
    fn load_durable(&self) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        for (key, bytes) in d.scan_prefix(&[RULE_KEY_PREFIX])? {
            if key.len() != 9 {
                return Err(HipacError::Corruption("bad rule key length".into()));
            }
            let rid = RuleId(u64::from_be_bytes(key[1..9].try_into().unwrap()));
            let def = crate::codec::decode_rule(&bytes)?;
            self.ids.bump_to(rid.raw());
            let spec = Self::effective_spec(def.event.as_ref(), def.condition.iter())
                .ok_or(HipacError::NoDerivableEvent(rid))?;
            let event = {
                let existing = self.spec_index.read().get(&spec).copied();
                match existing {
                    Some(id) => id,
                    None => {
                        let id = self.events.define_event(spec.clone())?;
                        self.spec_index.write().insert(spec, id);
                        id
                    }
                }
            };
            self.catalog.write().insert(
                rid,
                CatalogEntry {
                    event,
                    created_by: None,
                },
            );
            self.link_rule_event(event, rid);
            if self.matching == Matching::Network {
                self.network.place_committed(event, rid, &def);
            }
            self.rule_names.put_committed(def.name.clone(), rid);
            let (generation, schema) = self.store.committed_catalog();
            let rule = CompiledRule::compile(&def, &schema, Some(generation), &self.queries);
            self.rules.put_committed(rid, Arc::new(rule));
        }
        Ok(())
    }

    /// Report a top-level transaction's end (§2.1 transaction-control
    /// events) when some event watches for it. Reported without a
    /// transaction context: the transaction is gone, so immediate
    /// coupling degrades to separate.
    fn report_txn_end(&self, kind: DbEventKind, txn: TxnId) {
        if !self.events.watches_db(kind, |_| false) {
            return;
        }
        let _ = self.events.report_db(
            None,
            DbEventData {
                kind,
                class: hipac_common::ClassId(0),
                class_lineage: Vec::new(),
                oid: None,
                old: None,
                new: Some(Arc::from([Value::Int(txn.raw() as i64)])),
            },
        );
    }

    /// The event registry (define/signal external events through it).
    pub fn events(&self) -> &Arc<EventRegistry> {
        &self.events
    }

    /// Register an application handler reachable from rule actions.
    pub fn register_handler(&self, name: &str, h: Arc<dyn ApplicationHandler>) {
        self.handlers.write().insert(name.to_owned(), h);
    }

    /// Remove an application handler. Rules addressing it afterwards
    /// fail with `NoApplicationHandler`. Returns whether it existed.
    pub fn unregister_handler(&self, name: &str) -> bool {
        self.handlers.write().remove(name).is_some()
    }

    /// Size of the deferred-firing table: `(transactions with queued
    /// firings, total queued firings)`.
    pub fn deferred_sizes(&self) -> (usize, usize) {
        let deferred = self.deferred.lock();
        let entries = deferred.values().map(Vec::len).sum();
        (deferred.len(), entries)
    }

    /// Separate-mode firings submitted but not yet finished.
    pub fn pool_outstanding(&self) -> usize {
        self.pool.outstanding()
    }

    /// Configured sibling-firing parallelism (1 = sequential).
    pub fn firing_parallelism(&self) -> usize {
        self.firing.parallelism()
    }

    /// Sibling action jobs enqueued on the firing pool and not yet
    /// claimed by any thread.
    pub fn firing_queue_depth(&self) -> usize {
        self.firing.queue_depth()
    }

    /// Errors buffered from separate-mode firings (without draining;
    /// see [`RuleManager::take_separate_errors`]).
    pub fn separate_error_count(&self) -> usize {
        self.separate_errors.lock().len()
    }

    /// Set the retry budget for separate-mode firings: how many times a
    /// firing aborted by a transaction-fatal error (deadlock, lock
    /// timeout, deadline) is re-run before being dead-lettered. `0`
    /// disables retries (the pre-retry behavior).
    pub fn set_separate_retry_limit(&self, limit: usize) {
        self.separate_retry_limit.store(limit, Ordering::Relaxed);
    }

    /// Current separate-firing retry budget.
    pub fn separate_retry_limit(&self) -> usize {
        self.separate_retry_limit.load(Ordering::Relaxed)
    }

    /// Wait until all separate-mode firings submitted so far have
    /// finished.
    pub fn quiesce(&self) {
        self.pool.quiesce();
    }

    /// Open or close the rule firing gate. While closed, signals are
    /// counted but trigger nothing — the stance of a replica applying
    /// a replicated stream (the primary already fired these rules).
    /// Promotion re-opens the gate before the node serves writes.
    pub fn set_firing_gate(&self, open: bool) {
        self.firing_gate.store(open, Ordering::Relaxed);
    }

    /// Whether automatic rule firing is currently enabled.
    pub fn firing_gate_open(&self) -> bool {
        self.firing_gate.load(Ordering::Relaxed)
    }

    /// Errors from separate-mode firings since the last call (separate
    /// transactions cannot report errors to the triggering transaction;
    /// the paper leaves their disposition open — we collect them).
    pub fn take_separate_errors(&self) -> Vec<(RuleId, HipacError)> {
        std::mem::take(&mut self.separate_errors.lock())
    }

    fn me(&self) -> Arc<RuleManager> {
        self.self_weak
            .read()
            .upgrade()
            .expect("RuleManager outlives its uses")
    }

    // ------------------------------------------------------------------
    // Rule operations (§2.2)
    // ------------------------------------------------------------------

    /// Create a rule (transactional; takes write locks on the rule and
    /// its name). If the rule has no event, one is derived from the
    /// condition (§2.1).
    pub fn create_rule(&self, txn: TxnId, def: RuleDef) -> Result<RuleId> {
        self.tm.check_operable(txn)?;
        self.store.locks().acquire(
            txn,
            LockKey::RuleName(def.name.clone()),
            LockMode::Write,
        )?;
        if self.rule_names.get(txn, &def.name).is_some() {
            return Err(HipacError::DuplicateRule(def.name));
        }
        let rid = RuleId(self.ids.alloc());
        self.store
            .locks()
            .acquire(txn, LockKey::Rule(rid.raw()), LockMode::Write)?;
        let spec = Self::effective_spec(def.event.as_ref(), def.condition.iter())
            .ok_or(HipacError::NoDerivableEvent(rid))?;
        // Reuse the event definition of a structurally identical spec.
        let event = {
            let existing = self.spec_index.read().get(&spec).copied();
            match existing {
                Some(id) => id,
                None => {
                    let id = self.events.define_event(spec.clone())?;
                    self.spec_index.write().insert(spec, id);
                    id
                }
            }
        };
        self.catalog.write().insert(
            rid,
            CatalogEntry {
                event,
                created_by: Some(txn),
            },
        );
        self.created_index.lock().entry(txn).or_default().push(rid);
        self.link_rule_event(event, rid);
        if self.matching == Matching::Network {
            // Wired eagerly so the creating transaction's own signals
            // see the rule; held unstable (always a candidate) until
            // the top-level commit places it under its guard.
            self.network.link_created(event, rid, txn);
        }
        self.rule_names.put(txn, def.name.clone(), rid);
        self.rules.put(txn, rid, self.compile(txn, &def));
        Ok(rid)
    }

    /// Compile `def` for the catalog `txn` sees: the form the rule
    /// store keeps.
    fn compile(&self, txn: TxnId, def: &RuleDef) -> Arc<CompiledRule> {
        let (generation, schema) = self.store.catalog(txn);
        let rule = CompiledRule::compile(def, &schema, generation, &self.queries);
        Arc::new(rule)
    }

    /// §2.1: "the event specification can also be omitted … HiPAC
    /// derives the event specification from the condition": subscribe
    /// to every operation that can change the result of any condition
    /// query.
    fn derive_event<'a>(condition: impl Iterator<Item = &'a Query>) -> Option<EventSpec> {
        let mut spec: Option<EventSpec> = None;
        for q in condition {
            for kind in [DbEventKind::Insert, DbEventKind::Update, DbEventKind::Delete] {
                let leaf = EventSpec::db(kind, Some(&q.class));
                spec = Some(match spec {
                    None => leaf,
                    Some(s) => s.or(leaf),
                });
            }
        }
        spec
    }

    /// Resolve a rule name as seen by `txn`.
    pub fn rule_id(&self, txn: TxnId, name: &str) -> Result<RuleId> {
        self.rule_names
            .get(txn, &name.to_owned())
            .ok_or_else(|| HipacError::UnknownRule(name.to_owned()))
    }

    /// Modify a rule in place (§2.2 lists *modification* among the
    /// operations on rule objects). Takes the rule's write lock; the
    /// rule keeps its id and name. A changed (or re-derived) event
    /// specification takes effect when the modification commits at top
    /// level — the same boundary at which deletion retires event
    /// definitions — so an aborted modification leaves the old event
    /// wiring untouched.
    pub fn alter_rule(&self, txn: TxnId, name: &str, mut def: RuleDef) -> Result<RuleId> {
        self.tm.check_operable(txn)?;
        let rid = self.rule_id(txn, name)?;
        self.store
            .locks()
            .acquire(txn, LockKey::Rule(rid.raw()), LockMode::Write)?;
        def.name = name.to_owned();
        // Validate eagerly what commit-time rewiring will need: the
        // event must be specifiable and external references defined.
        let spec = Self::effective_spec(def.event.as_ref(), def.condition.iter())
            .ok_or(HipacError::NoDerivableEvent(rid))?;
        for ext in spec.external_refs() {
            self.events.external_id(&ext)?;
        }
        self.rules.put(txn, rid, self.compile(txn, &def));
        self.note_rule_change(txn, rid);
        Ok(rid)
    }

    /// Mark a rule whose definition changed uncommitted as *unstable*
    /// in the discrimination network: it stays a candidate for every
    /// probe of its event until the owning top-level transaction
    /// commits (re-placing it under the new guard) or aborts (clearing
    /// the mark). The rule's write lock guarantees a single top-level
    /// owner at a time.
    fn note_rule_change(&self, txn: TxnId, rid: RuleId) {
        if self.matching != Matching::Network {
            return;
        }
        let event = match self.catalog.read().get(&rid) {
            Some(entry) => entry.event,
            None => return,
        };
        let top = self.tm.tree().top_ancestor(txn);
        self.network.mark_pending(event, rid, top);
    }

    /// Effective event spec of a rule (declared, or derived from its
    /// condition).
    fn effective_spec<'a>(
        event: Option<&EventSpec>,
        condition: impl Iterator<Item = &'a Query>,
    ) -> Option<EventSpec> {
        match event {
            Some(spec) => Some(spec.clone()),
            None => Self::derive_event(condition),
        }
    }

    /// Delete a rule (write lock; the event definition is retired when
    /// the deletion commits at top level).
    pub fn drop_rule(&self, txn: TxnId, name: &str) -> Result<()> {
        self.tm.check_operable(txn)?;
        let rid = self.rule_id(txn, name)?;
        self.store
            .locks()
            .acquire(txn, LockKey::Rule(rid.raw()), LockMode::Write)?;
        self.rules.delete(txn, rid);
        self.rule_names.delete(txn, name.to_owned());
        self.note_rule_change(txn, rid);
        Ok(())
    }

    /// Disable automatic firing (§2.2 *disable*; write lock — "we think
    /// of enable and disable as modifying a rule").
    pub fn disable_rule(&self, txn: TxnId, name: &str) -> Result<()> {
        self.set_enabled(txn, name, false)
    }

    /// Re-enable automatic firing (§2.2 *enable*).
    pub fn enable_rule(&self, txn: TxnId, name: &str) -> Result<()> {
        self.set_enabled(txn, name, true)
    }

    fn set_enabled(&self, txn: TxnId, name: &str, enabled: bool) -> Result<()> {
        self.tm.check_operable(txn)?;
        let rid = self.rule_id(txn, name)?;
        self.store
            .locks()
            .acquire(txn, LockKey::Rule(rid.raw()), LockMode::Write)?;
        let mut def = self
            .rules
            .get(txn, &rid)
            .ok_or_else(|| HipacError::UnknownRule(name.to_owned()))?;
        Arc::make_mut(&mut def).enabled = enabled;
        self.rules.put(txn, rid, def);
        self.note_rule_change(txn, rid);
        Ok(())
    }

    /// Manually fire a rule (§2.2 *fire*; read lock), with explicit
    /// parameter bindings, in a subtransaction of `txn`.
    pub fn fire_rule(
        &self,
        txn: TxnId,
        name: &str,
        params: HashMap<String, Value>,
    ) -> Result<()> {
        self.tm.check_operable(txn)?;
        let rid = self.rule_id(txn, name)?;
        let def = self
            .rules
            .get(txn, &rid)
            .ok_or_else(|| HipacError::UnknownRule(name.to_owned()))?;
        let signal = Arc::new(EventSignal {
            time: self.events.clock().now(),
            txn: Some(txn),
            params,
            db: None,
        });
        // Manual fire ignores `enabled` (the paper distinguishes
        // automatic firing, which disable suppresses, from the fire
        // operation).
        self.fire_group(txn, vec![(rid, def, signal)])
    }

    // ------------------------------------------------------------------
    // Signal processing (§6.2)
    // ------------------------------------------------------------------

    /// The Rule Manager's single interface operation: *signal event*.
    fn signal_event(&self, event: EventId, signal: &Arc<EventSignal>) -> Result<()> {
        self.stats.signals_processed.fetch_add(1, Ordering::Relaxed);
        if !self.firing_gate.load(Ordering::Relaxed) {
            return Ok(());
        }
        let probed;
        let listed;
        let rule_ids: &[RuleId] = match self.matching {
            // O(matches) candidates from the discrimination network;
            // the per-rule visibility/enabled/condition checks below
            // are unchanged, so extra candidates are harmless.
            Matching::Network => match self.network.probe(event, &self.store, signal) {
                Some(ids) => {
                    probed = ids;
                    &probed
                }
                None => return Ok(()), // event defined but no rules attached
            },
            Matching::Naive => {
                let arc = {
                    let map = self.event_map.read();
                    match map.get(&event) {
                        // Clone the Arc, not the list: dispatch cost
                        // under the map lock stays O(1) regardless of
                        // how many rules the event has.
                        Some(ids) => Arc::clone(ids),
                        None => return Ok(()), // event defined but no rules attached
                    }
                };
                listed = arc;
                &listed
            }
        };
        let mut immediate = Vec::new();
        for &rid in rule_ids {
            // Rules are database objects: visibility follows the
            // triggering transaction's view; committed view otherwise.
            let def = match signal.txn {
                Some(t) => self.rules.get(t, &rid),
                None => self.rules.get_committed(&rid),
            };
            let Some(def) = def else { continue };
            if !def.enabled {
                continue;
            }
            self.stats.rules_triggered.fetch_add(1, Ordering::Relaxed);
            match (def.ec_coupling, signal.txn) {
                (CouplingMode::Immediate, Some(t)) => {
                    immediate.push((t, rid, def));
                }
                (CouplingMode::Deferred, Some(t)) => {
                    let signal = Arc::clone(signal);
                    self.deferred
                        .lock()
                        .entry(t)
                        .or_default()
                        .push((rid, signal));
                }
                // No triggering transaction (temporal/external events
                // outside any transaction): every mode degrades to a
                // separate top-level firing.
                _ => self.submit_separate(rid, Arc::clone(signal)),
            }
        }
        if !immediate.is_empty() {
            // All immediate firings share the triggering transaction.
            let parent = immediate[0].0;
            let group: Vec<Firing> = immediate
                .into_iter()
                .map(|(_, rid, def)| (rid, def, Arc::clone(signal)))
                .collect();
            self.fire_group(parent, group)?;
        }
        Ok(())
    }

    /// Fire a group of rules as subtransactions of `parent`: one
    /// condition-evaluation subtransaction for the batch (§5.5), then
    /// one action subtransaction per satisfied rule.
    fn fire_group(&self, parent: TxnId, mut group: Vec<Firing>) -> Result<()> {
        if group.is_empty() {
            return Ok(());
        }
        let depth = self.tm.tree().depth(parent).unwrap_or(0);
        if depth >= self.cascade_limit {
            return Err(HipacError::CascadeLimit {
                rule: group[0].0,
                depth,
            });
        }
        self.compile_stale(parent, &mut group);
        let tracing = self.tracer.is_enabled();
        let cond_start = tracing.then(std::time::Instant::now);
        // Condition evaluation subtransaction. Rules triggered by the
        // same signal are evaluated as ONE batch so the condition graph
        // can share structurally identical queries across rules (§5.5).
        let cond_txn = self.tm.begin_child(parent)?;
        let outcomes = (|| -> Result<Vec<crate::condition::ConditionOutcome>> {
            for (rid, _, _) in &group {
                // Firing requires a read lock on the rule (§2.2).
                self.store
                    .locks()
                    .acquire(cond_txn, LockKey::Rule(rid.raw()), LockMode::Read)?;
            }
            let mut all: Vec<Option<crate::condition::ConditionOutcome>> =
                (0..group.len()).map(|_| None).collect();
            for i in 0..group.len() {
                if all[i].is_some() {
                    continue;
                }
                // Collect every not-yet-evaluated firing of the same
                // signal (deferred batches can mix signals; immediate
                // groups share one).
                let signal = &group[i].2;
                let indices: Vec<usize> = (i..group.len())
                    .filter(|&j| all[j].is_none() && Arc::ptr_eq(&group[j].2, signal))
                    .collect();
                let conds: Vec<&[Arc<CompiledQuery>]> =
                    indices.iter().map(|&j| &group[j].1.condition[..]).collect();
                let (outs, stats) = self.evaluator.evaluate(cond_txn, &conds, signal)?;
                self.stats.absorb(stats);
                for (&j, out) in indices.iter().zip(outs) {
                    all[j] = Some(out);
                }
            }
            Ok(all
                .into_iter()
                .map(|o| o.expect("every firing evaluated"))
                .collect())
        })();
        let outcomes = match outcomes {
            Ok(o) => {
                self.tm.commit(cond_txn)?;
                o
            }
            Err(e) => {
                let _ = self.tm.abort(cond_txn);
                return Err(e);
            }
        };
        // Ceiling to a whole microsecond so even a sub-µs condition
        // phase is distinguishable from "not measured".
        let cond_us = cond_start
            .map(|s| (s.elapsed().as_nanos() as u64).div_ceil(1000))
            .unwrap_or(0);
        self.dispatch_actions(parent, depth, group, outcomes, cond_us, tracing)
    }

    /// Compile again, for the catalog `txn` sees, every rule of `group`
    /// compiled for another. A committed rule recompiled for the
    /// committed catalog replaces its stored form; under DDL pending on
    /// `txn`'s chain the recompiled rule serves this firing only.
    fn compile_stale(&self, txn: TxnId, group: &mut [Firing]) {
        let generation = self.store.catalog_generation_for(txn);
        if group.iter().all(|(_, rule, _)| rule.is_current(generation)) {
            return;
        }
        let (generation, schema) = self.store.catalog(txn);
        let mut local = None;
        for (rid, rule, _) in group.iter_mut() {
            if rule.is_current(generation) {
                continue;
            }
            // Under pending DDL the compiled queries are this firing's
            // own: they are not shared with other transactions.
            let table = match generation {
                Some(_) => &self.queries,
                None => local.get_or_insert_with(QueryTable::new),
            };
            let def = rule.def();
            let fresh = Arc::new(CompiledRule::compile(&def, &schema, generation, table));
            if generation.is_some() {
                self.rules.refresh_committed(rid, |stored| {
                    if Arc::ptr_eq(stored, rule) {
                        *stored = Arc::clone(&fresh);
                    }
                });
            }
            *rule = fresh;
        }
    }

    /// Run the action phase of a fired group: satisfied rules with a
    /// synchronous C-A coupling (immediate/deferred) execute as sibling
    /// subtransactions of `parent` — concurrently, on the firing pool,
    /// when more than one is runnable and parallelism allows — while
    /// separate-coupled actions go to the detached worker pool.
    ///
    /// Error semantics are first-error-wins and deterministic: the
    /// first failing sibling raises a shared cancel flag so siblings
    /// that have not begun never do, and of the errors that did occur
    /// the one with the lowest group index is reported (the same error
    /// the sequential path would surface for a commuting group).
    /// Already-running siblings finish normally; their effects are
    /// discarded when the caller aborts `parent` in response.
    fn dispatch_actions(
        &self,
        parent: TxnId,
        depth: usize,
        group: Vec<Firing>,
        outcomes: Vec<crate::condition::ConditionOutcome>,
        cond_us: u64,
        tracing: bool,
    ) -> Result<()> {
        let mut sync = Vec::new();
        for (idx, ((rid, def, signal), outcome)) in
            group.into_iter().zip(outcomes).enumerate()
        {
            if !outcome.satisfied {
                if tracing {
                    self.tracer.record(crate::trace::FiringTrace {
                        rule: rid,
                        rule_name: def.name.clone(),
                        event: self.catalog.read().get(&rid).map(|e| e.event),
                        txn: Some(parent),
                        ec_coupling: def.ec_coupling,
                        satisfied: false,
                        action_executed: false,
                        cascade_depth: depth,
                        event_time: signal.time,
                        duration_us: cond_us,
                        retries: 0,
                        dead_letter: false,
                    });
                }
                continue;
            }
            self.stats
                .conditions_satisfied
                .fetch_add(1, Ordering::Relaxed);
            match def.ca_coupling {
                // Both run before the parent resumes; "deferred"
                // relative to the (already committed) condition
                // transaction coincides with immediate here.
                CouplingMode::Immediate | CouplingMode::Deferred => {
                    sync.push((idx, rid, def, signal, outcome.rows));
                }
                CouplingMode::Separate => {
                    if tracing {
                        self.tracer.record(crate::trace::FiringTrace {
                            rule: rid,
                            rule_name: def.name.clone(),
                            event: self.catalog.read().get(&rid).map(|e| e.event),
                            txn: Some(parent),
                            ec_coupling: def.ec_coupling,
                            satisfied: true,
                            action_executed: true, // scheduled on the pool
                            cascade_depth: depth,
                            event_time: signal.time,
                            duration_us: cond_us,
                            retries: 0,
                            dead_letter: false,
                        });
                    }
                    self.submit_separate_action(rid, def, signal, outcome.rows);
                }
            }
        }
        if sync.len() <= 1 || self.firing.parallelism() <= 1 {
            for (_, rid, def, signal, rows) in sync {
                self.run_one_action(parent, depth, rid, def, signal, rows, cond_us, tracing)?;
            }
            return Ok(());
        }
        let mgr = self.me();
        let cancel = Arc::new(AtomicBool::new(false));
        let errors: Arc<Mutex<Vec<(usize, HipacError)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let count = sync.len() as u64;
        let jobs: Vec<crate::pool::Job> = sync
            .into_iter()
            .map(|(idx, rid, def, signal, rows)| {
                let mgr = Arc::clone(&mgr);
                let cancel = Arc::clone(&cancel);
                let errors = Arc::clone(&errors);
                Box::new(move || {
                    if cancel.load(Ordering::SeqCst) {
                        return; // a sibling already failed; never begin
                    }
                    if let Err(e) = mgr.run_one_action(
                        parent, depth, rid, def, signal, rows, cond_us, tracing,
                    ) {
                        cancel.store(true, Ordering::SeqCst);
                        errors.lock().push((idx, e));
                    }
                }) as crate::pool::Job
            })
            .collect();
        if self.firing.run_batch(jobs) {
            self.stats
                .firings_parallel
                .fetch_add(count, Ordering::Relaxed);
        }
        let errs = std::mem::take(&mut *errors.lock());
        match errs.into_iter().min_by_key(|(idx, _)| *idx) {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// One satisfied rule's action, in its own subtransaction of
    /// `parent`. Safe to call from firing-pool workers: it touches only
    /// thread-safe state (transaction manager, stores, atomics, the
    /// tracer ring).
    #[allow(clippy::too_many_arguments)]
    fn run_one_action(
        &self,
        parent: TxnId,
        depth: usize,
        rid: RuleId,
        def: Arc<CompiledRule>,
        signal: Arc<EventSignal>,
        rows: Vec<QueryResult>,
        cond_us: u64,
        tracing: bool,
    ) -> Result<()> {
        let action_start = tracing.then(std::time::Instant::now);
        let act_txn = self.tm.begin_child(parent)?;
        match self.execute_action(act_txn, &def, &signal, &rows) {
            Ok(()) => self.tm.commit(act_txn)?,
            Err(e) => {
                let _ = self.tm.abort(act_txn);
                return Err(e);
            }
        }
        if tracing {
            self.tracer.record(crate::trace::FiringTrace {
                rule: rid,
                rule_name: def.name.clone(),
                event: self.catalog.read().get(&rid).map(|e| e.event),
                txn: Some(parent),
                ec_coupling: def.ec_coupling,
                satisfied: true,
                action_executed: true,
                cascade_depth: depth,
                event_time: signal.time,
                duration_us: cond_us
                    + action_start
                        .map(|s| s.elapsed().as_micros() as u64)
                        .unwrap_or(0),
                retries: 0,
                dead_letter: false,
            });
        }
        Ok(())
    }

    /// §6.2: separate firings run in their own top-level transactions
    /// on the worker pool; failures are collected, not propagated to
    /// the trigger.
    ///
    /// The job holds the shared signal as it was reported: the firing
    /// reads its time, parameters and images, never its transaction.
    fn submit_separate(&self, rid: RuleId, signal: Arc<EventSignal>) {
        let time = signal.time;
        let deadline = signal.txn.and_then(|t| self.tm.tree().effective_deadline(t));
        self.submit_separate_job(rid, time, deadline, move |mgr, txn| {
            let Some(def) = mgr.rules.get(txn, &rid) else {
                return Ok(()); // deleted meanwhile
            };
            if !def.enabled {
                return Ok(());
            }
            mgr.fire_group(txn, vec![(rid, def, Arc::clone(&signal))])
        });
    }

    /// C-A separate: the condition was satisfied in the triggering
    /// context; the action runs in its own top-level transaction.
    fn submit_separate_action(
        &self,
        rid: RuleId,
        def: Arc<CompiledRule>,
        signal: Arc<EventSignal>,
        rows: Vec<QueryResult>,
    ) {
        let time = signal.time;
        let deadline = signal.txn.and_then(|t| self.tm.tree().effective_deadline(t));
        self.submit_separate_job(rid, time, deadline, move |mgr, txn| {
            // The catalog may have moved since the condition ran.
            let mut firing = [(rid, Arc::clone(&def), Arc::clone(&signal))];
            mgr.compile_stale(txn, &mut firing);
            mgr.execute_action(txn, &firing[0].1, &signal, &rows)
        });
    }

    /// Run a separate firing body on the worker pool with bounded
    /// retry: an attempt aborted by a transaction-fatal error
    /// (deadlock victim, lock timeout, deadline) is re-run — each
    /// attempt in a fresh top-level transaction, after an exponential
    /// backoff with deterministic per-rule jitter — until it commits
    /// or the retry budget is exhausted. Non-retryable errors and
    /// exhausted budgets dead-letter the firing: a trace entry, a
    /// stat, and an entry in the separate-error buffer.
    ///
    /// The triggering request's `deadline` (if any) propagates into
    /// every attempt: each fresh top-level transaction inherits it via
    /// [`hipac_txn::TxnTree::set_deadline`], an attempt whose deadline
    /// already passed aborts definitely instead of running, and the
    /// retry loop stops backing off once the deadline is behind us —
    /// a separate firing must not outlive the request that asked for
    /// it by more than one attempt.
    fn submit_separate_job<F>(
        &self,
        rid: RuleId,
        event_time: hipac_common::Timestamp,
        deadline: Option<std::time::Instant>,
        body: F,
    ) where
        F: Fn(&RuleManager, TxnId) -> Result<()> + Send + 'static,
    {
        let mgr = self.me();
        self.pool.submit(move || {
            let limit = mgr.separate_retry_limit.load(Ordering::Relaxed) as u64;
            let mut attempt: u64 = 0;
            loop {
                let result = if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    // Definite abort: the work never starts, so there is
                    // nothing ambiguous to recover later.
                    Err(HipacError::DeadlineExceeded(TxnId(0)))
                } else {
                    mgr.tm.run_top(|txn| {
                        mgr.internal_txns.lock().insert(txn);
                        if deadline.is_some() {
                            mgr.tm.tree().set_deadline(txn, deadline)?;
                        }
                        body(&mgr, txn)
                    })
                };
                match result {
                    Ok(()) => return,
                    Err(e)
                        if e.is_txn_fatal()
                            && attempt < limit
                            && !deadline.is_some_and(|d| std::time::Instant::now() >= d) =>
                    {
                        attempt += 1;
                        mgr.stats.separate_retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(separate_backoff(rid, attempt));
                    }
                    Err(e) => {
                        mgr.separate_dead_letter(rid, attempt, event_time, e);
                        return;
                    }
                }
            }
        });
    }

    /// Terminal failure of a separate firing: account for it and keep a
    /// dead-letter record (the separate transaction has no caller to
    /// report to — the paper leaves disposition open, we keep the
    /// evidence).
    fn separate_dead_letter(
        &self,
        rid: RuleId,
        retries: u64,
        event_time: hipac_common::Timestamp,
        err: HipacError,
    ) {
        self.stats
            .separate_dead_letters
            .fetch_add(1, Ordering::Relaxed);
        let name = self
            .rules
            .get_committed(&rid)
            .map(|d| d.name.clone())
            .unwrap_or_default();
        self.tracer.record(crate::trace::FiringTrace {
            rule: rid,
            rule_name: name,
            event: self.catalog.read().get(&rid).map(|e| e.event),
            txn: None,
            ec_coupling: CouplingMode::Separate,
            satisfied: true,
            action_executed: false,
            cascade_depth: 0,
            event_time,
            duration_us: 0,
            retries,
            dead_letter: true,
        });
        self.separate_errors.lock().push((rid, err));
    }

    // ------------------------------------------------------------------
    // Deferred processing (§6.3)
    // ------------------------------------------------------------------

    /// Run the deferred firings accumulated for `txn` (called by the
    /// Transaction Manager during commit processing, while `txn` is in
    /// the `Committing` state). Loops until the set is empty so that
    /// deferred firings scheduled by deferred firings (in `txn` itself)
    /// also run in this commit.
    fn process_deferred(&self, txn: TxnId) -> Result<()> {
        loop {
            let batch = self.deferred.lock().remove(&txn).unwrap_or_default();
            if batch.is_empty() {
                return Ok(());
            }
            let mut group: Vec<Firing> = Vec::with_capacity(batch.len());
            for (rid, signal) in batch {
                // Re-check visibility and enablement at commit time.
                let Some(def) = self.rules.get(txn, &rid) else {
                    continue;
                };
                if !def.enabled {
                    continue;
                }
                group.push((rid, def, signal));
            }
            self.fire_group(txn, group)?;
        }
    }

    // ------------------------------------------------------------------
    // Action execution
    // ------------------------------------------------------------------

    fn execute_action(
        &self,
        txn: TxnId,
        rule: &CompiledRule,
        signal: &EventSignal,
        cond_rows: &[QueryResult],
    ) -> Result<()> {
        self.stats.actions_executed.fetch_add(1, Ordering::Relaxed);
        let db = signal.db.as_deref();
        let compiled = rule.exprs_ready(db, || self.store.schema(txn));
        let ctx = ActionCtx {
            txn,
            signal,
            compiled,
            cond_rows,
        };
        self.exec_ops(&ctx, &rule.action, None)
    }

    fn exec_ops(&self, ctx: &ActionCtx<'_>, ops: &[Op], row_ctx: Option<&Row>) -> Result<()> {
        for op in ops {
            match op {
                Op::AppRequest {
                    handler,
                    request,
                    args,
                } => {
                    let handler_arc = self
                        .handlers
                        .read()
                        .get(handler)
                        .cloned()
                        .ok_or_else(|| HipacError::NoApplicationHandler(handler.clone()))?;
                    let bound = self.eval_args(ctx, args, row_ctx)?;
                    handler_arc.handle(request, &bound)?;
                }
                Op::SignalEvent { name, args } => {
                    let bound = self.eval_args(ctx, args, row_ctx)?;
                    self.events.signal_external(name, bound, Some(ctx.txn))?;
                }
                Op::ForEachRow { query_index, ops } => {
                    let rows = ctx.cond_rows.get(*query_index).ok_or_else(|| {
                        HipacError::EvalError(format!(
                            "action references condition query {query_index}, \
                             but only {} result sets are available",
                            ctx.cond_rows.len()
                        ))
                    })?;
                    for row in rows {
                        self.exec_ops(ctx, ops, Some(row))?;
                    }
                }
                Op::AbortWith { message } => {
                    return Err(HipacError::ConstraintViolation(message.clone()));
                }
                Op::Insert { class, values } => {
                    let vals: Vec<Value> = values
                        .iter()
                        .map(|e| self.eval_expr(ctx, e, row_ctx))
                        .collect::<Result<_>>()?;
                    self.store.insert(ctx.txn, class, vals)?;
                }
                Op::UpdateWhere { query, assignments } => {
                    let rows = self.evaluator.run_query(ctx.txn, query, ctx.signal)?;
                    for row in rows {
                        let mut assigned: Vec<(&str, Value)> =
                            Vec::with_capacity(assignments.len());
                        for (attr, expr) in assignments.iter() {
                            // Assignments see the matched row's attributes.
                            let v = self.eval_expr(ctx, expr, Some(&row))?;
                            assigned.push((attr.as_str(), v));
                        }
                        self.store.update(ctx.txn, row.oid, &assigned)?;
                    }
                }
                Op::DeleteWhere { query } => {
                    let rows = self.evaluator.run_query(ctx.txn, query, ctx.signal)?;
                    for row in rows {
                        self.store.delete(ctx.txn, row.oid)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluate an action expression in the firing context: event
    /// parameters, the event's old/new images, and (inside
    /// `ForEachRow` and `UpdateWhere`) the current row.
    fn eval_expr(
        &self,
        ctx: &ActionCtx<'_>,
        expr: &hipac_object::expr::Expr,
        row_ctx: Option<&Row>,
    ) -> Result<Value> {
        crate::compile::eval_expr(
            expr,
            ctx.compiled,
            &|| self.store.schema(ctx.txn),
            ctx.signal.db.as_deref(),
            &ctx.signal.params,
            row_ctx,
        )
    }

    fn eval_args(
        &self,
        ctx: &ActionCtx<'_>,
        args: &[(String, hipac_object::expr::Expr)],
        row_ctx: Option<&Row>,
    ) -> Result<HashMap<String, Value>> {
        let mut out = HashMap::with_capacity(args.len());
        for (name, expr) in args {
            out.insert(name.clone(), self.eval_expr(ctx, expr, row_ctx)?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Abort cleanup
    // ------------------------------------------------------------------

    /// Retract catalog entries created by `txn` (its creation never
    /// committed).
    fn retract_created_by(&self, txn: TxnId) {
        let Some(dead) = self.created_index.lock().remove(&txn) else {
            return; // created nothing: nothing to retract, here or in the network
        };
        let mut catalog = self.catalog.write();
        for rid in dead {
            // Only entries still attributed to this transaction: a
            // child commit may have moved attribution to the parent,
            // in which case the index entry moved with it.
            if catalog.get(&rid).is_some_and(|e| e.created_by == Some(txn)) {
                if let Some(entry) = catalog.remove(&rid) {
                    self.unlink_rule_event(entry.event, rid);
                }
            }
        }
        drop(catalog);
        if self.matching == Matching::Network {
            self.network.retract_created(txn);
        }
    }

    /// Add `rid` to the event→rules mapping, keeping the list sorted by
    /// rule id (firing order is rid-ascending in both matching modes).
    fn link_rule_event(&self, event: EventId, rid: RuleId) {
        let mut map = self.event_map.write();
        let rids = map.entry(event).or_default();
        let list = Arc::make_mut(rids);
        if let Err(pos) = list.binary_search(&rid) {
            list.insert(pos, rid);
        }
    }

    /// Remove `rid` from the event→rules mapping; when the event def is
    /// no longer referenced by any rule, delete it and its spec-index
    /// entry.
    fn unlink_rule_event(&self, event: EventId, rid: RuleId) {
        let mut map = self.event_map.write();
        if let Some(rids) = map.get_mut(&event) {
            Arc::make_mut(rids).retain(|r| *r != rid);
            if rids.is_empty() {
                map.remove(&event);
                let _ = self.events.delete_event(event);
                self.spec_index.write().retain(|_, id| *id != event);
            }
        }
    }

    /// Number of rules visible to `txn` (diagnostics).
    pub fn rule_count(&self, txn: TxnId) -> usize {
        self.rules.len_visible(txn)
    }

    /// The candidate-matching mode fixed at construction.
    pub fn matching(&self) -> Matching {
        self.matching
    }

    /// Shared handle to an event's rule list. Repeated calls return
    /// the *same* allocation (`Arc::ptr_eq`) until the list changes —
    /// the dispatch path clones this handle, never the list, so signal
    /// cost under the map lock is independent of rule count.
    pub fn candidate_handle(&self, event: EventId) -> Option<Arc<Vec<RuleId>>> {
        self.event_map.read().get(&event).map(Arc::clone)
    }

    /// The event a rule is wired to.
    pub fn rule_event(&self, txn: TxnId, name: &str) -> Result<EventId> {
        let rid = self.rule_id(txn, name)?;
        self.catalog
            .read()
            .get(&rid)
            .map(|e| e.event)
            .ok_or_else(|| HipacError::UnknownRule(name.to_owned()))
    }

    /// The candidates the discrimination network resolves for `signal`
    /// on `event` (diagnostics and tests; counts as a probe). `None` in
    /// naive mode or when no rule is wired to the event.
    pub fn match_candidates(&self, event: EventId, signal: &EventSignal) -> Option<Vec<RuleId>> {
        if self.matching != Matching::Network {
            return None;
        }
        self.network.probe(event, &self.store, signal)
    }

    /// Live discrimination-network node count (0 in naive mode).
    pub fn match_index_nodes(&self) -> u64 {
        self.network.stats().index_nodes.load(Ordering::Relaxed)
    }

    /// Signals resolved through the discrimination network.
    pub fn match_probes(&self) -> u64 {
        self.network.stats().probes.load(Ordering::Relaxed)
    }

    /// Rules excluded from candidate sets across all probes.
    pub fn match_pruned(&self) -> u64 {
        self.network.stats().candidates_pruned.load(Ordering::Relaxed)
    }

    /// Static analysis of a rule (§7 tooling): its effective event,
    /// where the discrimination network places it, how each condition
    /// query will be evaluated, and its couplings.
    pub fn explain_rule(&self, txn: TxnId, name: &str) -> Result<crate::trace::RuleExplanation> {
        let rid = self.rule_id(txn, name)?;
        let def = self
            .rules
            .get(txn, &rid)
            .ok_or_else(|| HipacError::UnknownRule(name.to_owned()))?;
        let (event, event_derived) = match &def.event {
            Some(spec) => (spec.clone(), false),
            None => (
                Self::derive_event(def.condition.iter().map(|q| q.query()))
                    .ok_or(HipacError::NoDerivableEvent(rid))?,
                true,
            ),
        };
        let schema = self.store.schema(txn);
        let mut condition_strategies = Vec::with_capacity(def.condition.len());
        for q in def.condition.iter().map(|q| q.query()) {
            let strategy = if ConditionEvaluator::delta_answerable_shape(q) {
                crate::trace::QueryStrategy::Delta
            } else {
                match self.store.plan(&schema, q)? {
                    hipac_object::query::Plan::IndexEq { attr } => {
                        crate::trace::QueryStrategy::IndexEq { attr }
                    }
                    hipac_object::query::Plan::Scan => crate::trace::QueryStrategy::Scan,
                }
            };
            condition_strategies.push(strategy);
        }
        Ok(crate::trace::RuleExplanation {
            rule: rid,
            name: def.name.clone(),
            enabled: def.enabled,
            event,
            event_derived,
            placement: crate::network::placement_of(def.first_condition()).to_string(),
            condition_strategies,
            ec_coupling: def.ec_coupling,
            ca_coupling: def.ca_coupling,
            action_ops: def.action.len(),
        })
    }
}

/// Exponential backoff with deterministic per-(rule, attempt) jitter
/// for separate-firing retries. Deterministic so torture runs replay
/// identically from their seeds; jittered so two victims of the same
/// deadlock do not re-collide in lockstep.
fn separate_backoff(rid: RuleId, attempt: u64) -> std::time::Duration {
    const BASE_US: u64 = 500;
    const CAP_US: u64 = 50_000;
    let exp = BASE_US.saturating_mul(1u64 << attempt.min(6));
    let mut h = rid
        .raw()
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(attempt);
    h ^= h >> 33;
    let jitter = h % BASE_US;
    std::time::Duration::from_micros((exp + jitter).min(CAP_US))
}

/// An [`ApplicationHandler`] backed by a plain closure — convenient for
/// tests, examples and simple applications.
pub struct FnHandler<F>(pub F);

impl<F> ApplicationHandler for FnHandler<F>
where
    F: Fn(&str, &HashMap<String, Value>) -> Result<()> + Send + Sync,
{
    fn handle(&self, request: &str, args: &HashMap<String, Value>) -> Result<()> {
        self.0(request, args)
    }
}

/// What an action's operations evaluate against.
struct ActionCtx<'a> {
    txn: TxnId,
    signal: &'a EventSignal,
    /// The rule's expressions were compiled for this firing's context.
    compiled: bool,
    cond_rows: &'a [QueryResult],
}
