//! The Object Manager (§5.1): transactional object storage with
//! database-operation event reporting.
//!
//! Responsibilities, per the paper:
//!
//! * execute database operations (DDL and DML) on behalf of
//!   applications, the Rule Manager and the Condition Evaluator;
//! * call on the Transaction Manager to obtain locks (here: the Moss
//!   lock manager over [`LockKey`]s);
//! * act as an event detector, reporting database operations (with the
//!   modified instances and their old and new attribute values) to the
//!   Rule Manager — via the [`OpListener`] registration.
//!
//! Locking protocol:
//!
//! * reads take a `Read` lock on the object;
//! * updates take a `Write` lock on the object;
//! * creates/deletes take a `Write` lock on the class (extent change —
//!   this is the phantom guard) plus the object;
//! * queries take a `Read` lock on the class and on every result row;
//!   an index probe locks each candidate *before* reading it (one
//!   version read per row), a scan only the rows a pre-check selects;
//! * DDL takes a `Write` lock on the class (and on the class name for
//!   creation, to serialize concurrent same-name creation).
//!
//! Both the object population and the schema catalog live in
//! nested-transaction [`VersionStore`]s, so DDL is transactional too.
//! Secondary indexes cover committed data only; queries union index
//! hits with the transaction chain's pending writes and re-check
//! predicates on the visible version.

use crate::expr::Bindings;
use crate::object::ObjectRecord;
use crate::query::{Plan, Query, QueryResult, Row};
use crate::schema::{AttrDef, ClassDef, Schema};
use hipac_common::id::IdAllocator;
use hipac_common::{ClassId, HipacError, ObjectId, Result, TxnId, Value};
use hipac_storage::{DurableStore, StoreOp};
use hipac_txn::{LockManager, LockMode, ResourceManager, TransactionManager, VersionStore};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Everything the lock manager can lock.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockKey {
    Object(ObjectId),
    Class(ClassId),
    /// Serializes concurrent creation of a class with the same name.
    ClassName(String),
    /// Rules are database objects too (§2.2); the rules crate locks
    /// them through the same manager.
    Rule(u64),
    /// Serializes concurrent creation of a rule with the same name.
    RuleName(String),
}

/// A database operation, as reported to event listeners. Carries the
/// paper-specified signal payload: the instances being modified and the
/// old and new values of their attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum DbOperation {
    CreateClass {
        class: ClassId,
        name: String,
    },
    DropClass {
        class: ClassId,
        name: String,
    },
    Insert {
        class: ClassId,
        oid: ObjectId,
        new: Vec<Value>,
    },
    Update {
        class: ClassId,
        oid: ObjectId,
        old: Vec<Value>,
        new: Vec<Value>,
    },
    Delete {
        class: ClassId,
        oid: ObjectId,
        old: Vec<Value>,
    },
}

impl DbOperation {
    /// The class this operation is about.
    pub fn class(&self) -> ClassId {
        match self {
            DbOperation::CreateClass { class, .. }
            | DbOperation::DropClass { class, .. }
            | DbOperation::Insert { class, .. }
            | DbOperation::Update { class, .. }
            | DbOperation::Delete { class, .. } => *class,
        }
    }
}

/// Synchronous observer of database operations. The Rule Manager
/// registers one; the triggering operation is suspended until the
/// listener returns (§6.2: immediate rule firings run inside this
/// call).
pub trait OpListener: Send + Sync {
    fn on_operation(&self, txn: TxnId, op: &DbOperation) -> Result<()>;
}

type SecondaryIndex = BTreeMap<Value, HashSet<ObjectId>>;

/// The Object Manager.
pub struct ObjectStore {
    tm: Arc<TransactionManager>,
    locks: Arc<LockManager<LockKey>>,
    objects: VersionStore<ObjectId, ObjectRecord>,
    classes: VersionStore<ClassId, ClassDef>,
    oid_alloc: IdAllocator,
    class_alloc: IdAllocator,
    listeners: RwLock<Vec<Arc<dyn OpListener>>>,
    /// Committed-data secondary indexes, keyed by (concrete class,
    /// layout slot).
    indexes: RwLock<HashMap<(ClassId, usize), SecondaryIndex>>,
    durable: Option<Arc<DurableStore>>,
    /// Committed-data version counters, one per class *name* (the
    /// schema epoch disambiguates name reuse across drop/recreate). A
    /// top-level commit bumps the counter of every class it wrote —
    /// including superclasses of written classes, so a reader keyed on
    /// a query's root class observes subclass writes. Consumers (the
    /// rules layer's match memo) validate cached committed-data results
    /// against these stamps.
    data_gens: Mutex<HashMap<String, u64>>,
    /// Bumped whenever a top-level commit publishes schema changes.
    schema_epoch: AtomicU64,
    /// Count of top-level commits currently publishing (between the
    /// in-memory publish and the data-gen bump). While non-zero,
    /// [`ObjectStore::data_stamp`] refuses to hand out stamps: a reader
    /// could otherwise validate a cache entry against a not-yet-bumped
    /// counter after the data already changed.
    publish_in_flight: AtomicU64,
    /// Whether the stamp/family-write machinery is live. Off (the
    /// default) it costs one relaxed atomic load per operation.
    track_writes: AtomicBool,
    /// Class names written by each in-flight top-level transaction
    /// family (ancestors included), plus a schema-dirty flag. Cached
    /// committed-data results must not serve a family that has pending
    /// writes on the cached query's class tree.
    family_writes: Mutex<HashMap<TxnId, FamilyWrites>>,
}

#[derive(Default)]
struct FamilyWrites {
    classes: HashSet<String>,
    schema_dirty: bool,
}

/// RAII window around a top-level commit's publish: opened before the
/// version stores publish, closed (bumping the data-version counters)
/// after — on every path out, including durability errors, so a failed
/// publish can never leave stale stamps behind.
struct PublishWindow<'a> {
    store: &'a ObjectStore,
    touched: HashSet<String>,
    schema_changed: bool,
}

impl<'a> PublishWindow<'a> {
    fn open(store: &'a ObjectStore) -> PublishWindow<'a> {
        store.publish_in_flight.fetch_add(1, Ordering::SeqCst);
        PublishWindow {
            store,
            touched: HashSet::new(),
            schema_changed: false,
        }
    }
}

impl Drop for PublishWindow<'_> {
    fn drop(&mut self) {
        if !self.touched.is_empty() {
            let mut gens = self.store.data_gens.lock();
            for name in &self.touched {
                *gens.entry(name.clone()).or_insert(0) += 1;
            }
        }
        if self.schema_changed {
            self.store.schema_epoch.fetch_add(1, Ordering::SeqCst);
        }
        self.store.publish_in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

const KEY_OBJECT: u8 = b'o';
const KEY_CLASS: u8 = b'c';

fn object_key(oid: ObjectId) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(KEY_OBJECT);
    k.extend_from_slice(&oid.raw().to_be_bytes());
    k
}

fn class_key(id: ClassId) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    k.push(KEY_CLASS);
    k.extend_from_slice(&id.raw().to_be_bytes());
    k
}

impl ObjectStore {
    /// Create an Object Manager over `tm`, optionally persisting into
    /// `durable`. Registers itself as a resource manager; existing
    /// durable contents are loaded into the committed state.
    pub fn new(
        tm: Arc<TransactionManager>,
        durable: Option<Arc<DurableStore>>,
    ) -> Result<Arc<ObjectStore>> {
        Self::with_lock_timeout(tm, durable, std::time::Duration::from_secs(10))
    }

    /// As [`ObjectStore::new`] with an explicit lock-wait timeout
    /// (tests and latency-sensitive deployments).
    pub fn with_lock_timeout(
        tm: Arc<TransactionManager>,
        durable: Option<Arc<DurableStore>>,
        lock_timeout: std::time::Duration,
    ) -> Result<Arc<ObjectStore>> {
        let tree = Arc::clone(tm.tree());
        let store = Arc::new(ObjectStore {
            locks: Arc::new(LockManager::with_timeout(Arc::clone(&tree), lock_timeout)),
            objects: VersionStore::new(Arc::clone(&tree)),
            classes: VersionStore::new(tree),
            oid_alloc: IdAllocator::new(1),
            class_alloc: IdAllocator::new(1),
            listeners: RwLock::new(Vec::new()),
            indexes: RwLock::new(HashMap::new()),
            durable,
            data_gens: Mutex::new(HashMap::new()),
            schema_epoch: AtomicU64::new(0),
            publish_in_flight: AtomicU64::new(0),
            track_writes: AtomicBool::new(false),
            family_writes: Mutex::new(HashMap::new()),
            tm: Arc::clone(&tm),
        });
        store.load_durable()?;
        tm.register_resource(Arc::clone(&store) as Arc<dyn ResourceManager>);
        Ok(store)
    }

    fn load_durable(&self) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        for (_key, bytes) in d.scan_prefix(&[KEY_CLASS])? {
            let def = ClassDef::decode(&bytes)?;
            self.class_alloc.bump_to(def.id.raw());
            self.classes.put_committed(def.id, def);
        }
        for (key, bytes) in d.scan_prefix(&[KEY_OBJECT])? {
            if key.len() != 9 {
                return Err(HipacError::Corruption("bad object key length".into()));
            }
            let oid = ObjectId(u64::from_be_bytes(key[1..9].try_into().unwrap()));
            let rec = ObjectRecord::decode(&bytes)?;
            self.oid_alloc.bump_to(oid.raw());
            self.reindex(oid, None, Some(&rec))?;
            self.objects.put_committed(oid, rec);
        }
        Ok(())
    }

    /// The lock manager (shared with the rules layer, which locks rule
    /// objects through it).
    pub fn locks(&self) -> &Arc<LockManager<LockKey>> {
        &self.locks
    }

    /// The transaction manager this store is attached to.
    pub fn txn_manager(&self) -> &Arc<TransactionManager> {
        &self.tm
    }

    /// Register a database-operation listener (the Rule Manager's event
    /// detector hook, §5.1).
    pub fn register_listener(&self, l: Arc<dyn OpListener>) {
        self.listeners.write().push(l);
    }

    fn emit(&self, txn: TxnId, op: &DbOperation) -> Result<()> {
        let listeners = self.listeners.read().clone();
        for l in &listeners {
            l.on_operation(txn, op)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Committed-data version stamps (match-memo support)
    // ------------------------------------------------------------------

    /// Turn the committed-data stamp and family-write tracking on or
    /// off. Off (the default), [`ObjectStore::data_stamp`] always
    /// returns `None` and write paths pay one atomic load.
    pub fn set_write_tracking(&self, on: bool) {
        self.track_writes.store(on, Ordering::SeqCst);
    }

    /// The committed-data version stamp of `class`:
    /// `(schema_epoch, data_gen)`. Returns `None` while any top-level
    /// commit is publishing (its counters may not be bumped yet), or
    /// when tracking is off. Two equal stamps for the same class name
    /// bracket a window in which no commit changed the class's extent
    /// (including subclass extents) or the schema.
    pub fn data_stamp(&self, class: &str) -> Option<(u64, u64)> {
        if !self.track_writes.load(Ordering::Relaxed) {
            return None;
        }
        if self.publish_in_flight.load(Ordering::SeqCst) > 0 {
            return None;
        }
        let gen = self.data_gens.lock().get(class).copied().unwrap_or(0);
        let epoch = self.schema_epoch.load(Ordering::SeqCst);
        // Re-check: a publish that started after the gen read would
        // otherwise slip between the loads.
        if self.publish_in_flight.load(Ordering::SeqCst) > 0 {
            return None;
        }
        Some((epoch, gen))
    }

    /// Does `txn`'s transaction family have pending (uncommitted)
    /// writes touching `class` (or a subclass), or pending schema
    /// changes? Conservative: unknown means `true`. Committed-data
    /// caches must not answer queries for such a family — the family
    /// sees its own pending writes.
    pub fn family_dirty(&self, txn: TxnId, class: &str) -> bool {
        if !self.track_writes.load(Ordering::Relaxed) {
            return true;
        }
        let top = self.tm.tree().top_ancestor(txn);
        match self.family_writes.lock().get(&top) {
            Some(fw) => fw.schema_dirty || fw.classes.contains(class),
            None => false,
        }
    }

    /// Record a family write of `class` (and its superclasses, so a
    /// reader keyed on any ancestor observes it). No-op while tracking
    /// is off.
    fn note_family_write(&self, txn: TxnId, class: ClassId) {
        if !self.track_writes.load(Ordering::Relaxed) {
            return;
        }
        let top = self.tm.tree().top_ancestor(txn);
        let mut names = Vec::new();
        let mut cur = Some(class);
        while let Some(cid) = cur {
            match self.classes.get(txn, &cid) {
                Some(def) => {
                    names.push(def.name.clone());
                    cur = def.superclass;
                }
                None => break,
            }
        }
        let mut fams = self.family_writes.lock();
        let fw = fams.entry(top).or_default();
        fw.classes.extend(names);
    }

    /// Record a family schema change (create/drop class). No-op while
    /// tracking is off.
    fn note_family_schema_write(&self, txn: TxnId) {
        if !self.track_writes.load(Ordering::Relaxed) {
            return;
        }
        let top = self.tm.tree().top_ancestor(txn);
        self.family_writes.lock().entry(top).or_default().schema_dirty = true;
    }

    /// Acquire the same read locks a [`ObjectStore::query`] on `class`
    /// returning exactly `oids` would hold: a read lock on the class
    /// and one on each row. Used by committed-data caches so a cache
    /// hit has the query's locking footprint (repeatable reads).
    pub fn lock_rows_read(&self, txn: TxnId, class: &str, oids: &[ObjectId]) -> Result<()> {
        self.tm.check_operable(txn)?;
        let schema = self.schema(txn);
        let def = schema.class_by_name(class)?;
        self.locks
            .acquire(txn, LockKey::Class(def.id), LockMode::Read)?;
        for oid in oids {
            self.locks
                .acquire(txn, LockKey::Object(*oid), LockMode::Read)?;
        }
        Ok(())
    }

    /// Snapshot of the schema as `txn` sees it.
    pub fn schema(&self, txn: TxnId) -> Schema {
        let mut classes = Vec::new();
        self.classes.for_each_visible(txn, |_, def| {
            classes.push(def.clone());
        });
        classes.sort_by_key(|c| c.id);
        Schema::new(classes)
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a class (§5.1 data definition). Returns its id.
    pub fn create_class(
        &self,
        txn: TxnId,
        name: &str,
        superclass: Option<&str>,
        attrs: Vec<AttrDef>,
    ) -> Result<ClassId> {
        self.create_class_impl(txn, name, superclass, attrs, false)
    }

    /// Create a system class (used by the rules layer for the rule
    /// class itself).
    pub fn create_system_class(
        &self,
        txn: TxnId,
        name: &str,
        attrs: Vec<AttrDef>,
    ) -> Result<ClassId> {
        self.create_class_impl(txn, name, None, attrs, true)
    }

    fn create_class_impl(
        &self,
        txn: TxnId,
        name: &str,
        superclass: Option<&str>,
        attrs: Vec<AttrDef>,
        system: bool,
    ) -> Result<ClassId> {
        self.tm.check_operable(txn)?;
        self.locks
            .acquire(txn, LockKey::ClassName(name.to_owned()), LockMode::Write)?;
        let schema = self.schema(txn);
        if schema.class_by_name(name).is_ok() {
            return Err(HipacError::DuplicateName(name.to_owned()));
        }
        let superclass = match superclass {
            Some(s) => Some(schema.class_by_name(s)?.id),
            None => None,
        };
        // Attribute names must be unique across the whole layout.
        let mut seen: HashSet<&str> = HashSet::new();
        if let Some(sup) = superclass {
            for a in schema.layout(sup)? {
                seen.insert(&a.name);
            }
        }
        for a in &attrs {
            if !seen.insert(&a.name) {
                return Err(HipacError::DuplicateName(format!(
                    "attribute {} in class {name}",
                    a.name
                )));
            }
        }
        let id = ClassId(self.class_alloc.alloc());
        self.locks.acquire(txn, LockKey::Class(id), LockMode::Write)?;
        let def = ClassDef {
            id,
            name: name.to_owned(),
            superclass,
            attrs,
            system,
        };
        self.classes.put(txn, id, def);
        self.note_family_schema_write(txn);
        self.emit(
            txn,
            &DbOperation::CreateClass {
                class: id,
                name: name.to_owned(),
            },
        )?;
        Ok(id)
    }

    /// Drop a class. Fails if it has visible instances or subclasses.
    pub fn drop_class(&self, txn: TxnId, name: &str) -> Result<()> {
        self.tm.check_operable(txn)?;
        let schema = self.schema(txn);
        let def = schema.class_by_name(name)?.clone();
        if def.system {
            return Err(HipacError::InUse(format!("{name} is a system class")));
        }
        self.locks
            .acquire(txn, LockKey::Class(def.id), LockMode::Write)?;
        if schema
            .classes()
            .iter()
            .any(|c| c.superclass == Some(def.id))
        {
            return Err(HipacError::InUse(format!("{name} has subclasses")));
        }
        let mut in_use = false;
        self.objects.for_each_visible(txn, |_, rec| {
            if rec.class == def.id {
                in_use = true;
            }
        });
        if in_use {
            return Err(HipacError::InUse(format!("{name} has instances")));
        }
        self.classes.delete(txn, def.id);
        self.note_family_schema_write(txn);
        self.emit(
            txn,
            &DbOperation::DropClass {
                class: def.id,
                name: name.to_owned(),
            },
        )?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Create an object instance.
    pub fn insert(&self, txn: TxnId, class: &str, values: Vec<Value>) -> Result<ObjectId> {
        self.tm.check_operable(txn)?;
        let schema = self.schema(txn);
        let def = schema.class_by_name(class)?;
        schema.check_row(def.id, &values)?;
        // Class write lock guards the extent (phantom protection).
        self.locks
            .acquire(txn, LockKey::Class(def.id), LockMode::Write)?;
        let oid = ObjectId(self.oid_alloc.alloc());
        self.locks
            .acquire(txn, LockKey::Object(oid), LockMode::Write)?;
        let class_id = def.id;
        self.objects
            .put(txn, oid, ObjectRecord::new(class_id, values.clone()));
        self.note_family_write(txn, class_id);
        self.emit(
            txn,
            &DbOperation::Insert {
                class: class_id,
                oid,
                new: values,
            },
        )?;
        Ok(oid)
    }

    /// Read an object as `txn` sees it (takes a read lock).
    pub fn get(&self, txn: TxnId, oid: ObjectId) -> Result<ObjectRecord> {
        self.tm.check_operable(txn)?;
        self.locks
            .acquire(txn, LockKey::Object(oid), LockMode::Read)?;
        self.objects
            .get(txn, &oid)
            .ok_or(HipacError::UnknownObject(oid))
    }

    /// Read a single attribute by name.
    pub fn get_attr(&self, txn: TxnId, oid: ObjectId, attr: &str) -> Result<Value> {
        let rec = self.get(txn, oid)?;
        let schema = self.schema(txn);
        let (slot, _) = schema.resolve_attr(rec.class, attr)?;
        Ok(rec.values[slot].clone())
    }

    /// Update attributes of an object.
    pub fn update(
        &self,
        txn: TxnId,
        oid: ObjectId,
        assignments: &[(&str, Value)],
    ) -> Result<()> {
        self.tm.check_operable(txn)?;
        self.locks
            .acquire(txn, LockKey::Object(oid), LockMode::Write)?;
        let rec = self
            .objects
            .get(txn, &oid)
            .ok_or(HipacError::UnknownObject(oid))?;
        let schema = self.schema(txn);
        let mut new_values = rec.values.clone();
        for (name, value) in assignments {
            let (slot, def) = schema.resolve_attr(rec.class, name)?;
            if value.is_null() {
                if !def.nullable {
                    return Err(HipacError::ConstraintViolation(format!(
                        "attribute {name} is not nullable"
                    )));
                }
            } else if !value.conforms_to(def.ty) {
                return Err(HipacError::TypeError(format!(
                    "attribute {name} expects {}, got {}",
                    def.ty,
                    value.value_type()
                )));
            }
            new_values[slot] = value.clone();
        }
        self.objects
            .put(txn, oid, ObjectRecord::new(rec.class, new_values.clone()));
        self.note_family_write(txn, rec.class);
        self.emit(
            txn,
            &DbOperation::Update {
                class: rec.class,
                oid,
                old: rec.values,
                new: new_values,
            },
        )?;
        Ok(())
    }

    /// Delete an object.
    pub fn delete(&self, txn: TxnId, oid: ObjectId) -> Result<()> {
        self.tm.check_operable(txn)?;
        self.locks
            .acquire(txn, LockKey::Object(oid), LockMode::Write)?;
        let rec = self
            .objects
            .get(txn, &oid)
            .ok_or(HipacError::UnknownObject(oid))?;
        self.locks
            .acquire(txn, LockKey::Class(rec.class), LockMode::Write)?;
        self.objects.delete(txn, oid);
        self.note_family_write(txn, rec.class);
        self.emit(
            txn,
            &DbOperation::Delete {
                class: rec.class,
                oid,
                old: rec.values,
            },
        )?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Choose the execution plan for `query` under `schema`.
    pub fn plan(&self, schema: &Schema, query: &Query) -> Result<Plan> {
        let def = schema.class_by_name(&query.class)?;
        // Look for an `attr = <literal|param>` conjunct over an indexed
        // attribute.
        for conjunct in query.predicate.conjuncts() {
            if let crate::expr::Expr::Binary(crate::expr::BinOp::Eq, l, r) = conjunct {
                for (a, b) in [(l, r), (r, l)] {
                    if let crate::expr::Expr::Attr(name) = a.as_ref() {
                        let is_probe_value = matches!(
                            b.as_ref(),
                            crate::expr::Expr::Literal(_) | crate::expr::Expr::Param(_)
                        );
                        if is_probe_value {
                            if let Ok((_, attr)) = schema.resolve_attr(def.id, name) {
                                if attr.indexed {
                                    return Ok(Plan::IndexEq { attr: name.clone() });
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(Plan::Scan)
    }

    /// Execute a query as `txn` (§5.1: used by applications and by the
    /// Condition Evaluator).
    pub fn query(
        &self,
        txn: TxnId,
        query: &Query,
        params: Option<&HashMap<String, Value>>,
    ) -> Result<QueryResult> {
        self.tm.check_operable(txn)?;
        let schema = self.schema(txn);
        let def = schema.class_by_name(&query.class)?;
        let root = def.id;
        self.locks
            .acquire(txn, LockKey::Class(root), LockMode::Read)?;
        let member_classes: HashSet<ClassId> =
            schema.subclasses_inclusive(root).into_iter().collect();

        // Per-concrete-class resolved predicate cache.
        let mut resolved: HashMap<ClassId, crate::expr::Expr> = HashMap::new();
        let plan = self.plan(&schema, query)?;

        let candidates: Vec<ObjectId> = match &plan {
            Plan::IndexEq { attr } => {
                let probe = self.index_probe_value(query, attr, params)?;
                let (slot, _) = schema.resolve_attr(root, attr)?;
                let mut set: Vec<ObjectId> = Vec::new();
                let mut dedup = HashSet::new();
                {
                    let indexes = self.indexes.read();
                    for cid in &member_classes {
                        if let Some(idx) = indexes.get(&(*cid, slot)) {
                            if let Some(oids) = idx.get(&probe) {
                                for oid in oids {
                                    if dedup.insert(*oid) {
                                        set.push(*oid);
                                    }
                                }
                            }
                        }
                    }
                }
                // Pending writes are not indexed: add them as candidates.
                for oid in self.objects.pending_keys_for(txn) {
                    if dedup.insert(oid) {
                        set.push(oid);
                    }
                }
                set
            }
            Plan::Scan => self.objects.visible_keys(txn),
        };

        // The visible version of `oid`, if it belongs to the queried
        // classes and satisfies the predicate.
        let mut matching = |oid: ObjectId| -> Result<Option<ObjectRecord>> {
            // Candidate sets may include deleted or invisible objects.
            let Some(rec) = self.objects.get(txn, &oid) else {
                return Ok(None);
            };
            if !member_classes.contains(&rec.class) {
                return Ok(None);
            }
            let pred = match resolved.get(&rec.class) {
                Some(p) => p,
                None => {
                    let class = rec.class;
                    let p = query.predicate.resolve(&|name| {
                        schema.resolve_attr(class, name).map(|(slot, _)| slot)
                    })?;
                    resolved.entry(class).or_insert(p)
                }
            };
            let ctx = Bindings {
                row: Some(&rec.values),
                params,
                ..Default::default()
            };
            Ok(pred.eval_bool(&ctx)?.then_some(rec))
        };

        // Result rows are read-locked for repeatable reads. An index
        // probe's candidates are (nearly all) result rows, so each is
        // locked first and its version read once; a scan examines the
        // whole extent, so it locks only the rows a pre-check selects and
        // then reads them again, because the unlocked read may have
        // raced a concurrent committer.
        let lock_first = matches!(plan, Plan::IndexEq { .. });
        let mut rows = Vec::new();
        for oid in candidates {
            if lock_first {
                self.locks
                    .acquire(txn, LockKey::Object(oid), LockMode::Read)?;
            }
            let Some(mut rec) = matching(oid)? else {
                continue;
            };
            if !lock_first {
                self.locks
                    .acquire(txn, LockKey::Object(oid), LockMode::Read)?;
                match matching(oid)? {
                    Some(locked) => rec = locked,
                    None => continue,
                }
            }
            let values = match &query.projection {
                None => rec.values,
                Some(attrs) => {
                    let mut out = Vec::with_capacity(attrs.len());
                    for a in attrs {
                        let (slot, _) = schema.resolve_attr(rec.class, a)?;
                        out.push(rec.values[slot].clone());
                    }
                    out
                }
            };
            rows.push(Row {
                oid,
                class: rec.class,
                values,
            });
        }
        rows.sort_by_key(|r| r.oid);
        Ok(rows)
    }

    fn index_probe_value(
        &self,
        query: &Query,
        attr: &str,
        params: Option<&HashMap<String, Value>>,
    ) -> Result<Value> {
        for conjunct in query.predicate.conjuncts() {
            if let crate::expr::Expr::Binary(crate::expr::BinOp::Eq, l, r) = conjunct {
                for (a, b) in [(l, r), (r, l)] {
                    if matches!(a.as_ref(), crate::expr::Expr::Attr(n) if n == attr) {
                        match b.as_ref() {
                            crate::expr::Expr::Literal(v) => return Ok(v.clone()),
                            crate::expr::Expr::Param(p) => {
                                return params
                                    .and_then(|m| m.get(p))
                                    .cloned()
                                    .ok_or_else(|| HipacError::UnboundParameter(p.clone()))
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        Err(HipacError::internal(format!(
            "no probe value for indexed attribute {attr}"
        )))
    }

    /// Number of objects visible to `txn` (diagnostics/tests).
    pub fn count_visible(&self, txn: TxnId) -> usize {
        self.objects.len_visible(txn)
    }

    // ------------------------------------------------------------------
    // Index maintenance (committed data only)
    // ------------------------------------------------------------------

    fn indexed_slots(&self, class: ClassId) -> Result<Vec<usize>> {
        // Committed schema: index maintenance happens at top-level
        // commit, when the class definitions involved are committed.
        let mut chain = Vec::new();
        let mut cur = Some(class);
        while let Some(cid) = cur {
            match self.classes.get_committed(&cid) {
                Some(def) => {
                    cur = def.superclass;
                    chain.push(def);
                }
                None => return Ok(Vec::new()), // class dropped
            }
        }
        chain.reverse();
        let mut slots = Vec::new();
        let mut pos = 0;
        for def in chain {
            for a in &def.attrs {
                if a.indexed {
                    slots.push(pos);
                }
                pos += 1;
            }
        }
        Ok(slots)
    }

    /// The `((class, slot), value)` index entries `rec` occupies.
    fn index_entries<'a>(
        &self,
        rec: Option<&'a ObjectRecord>,
    ) -> Result<Vec<((ClassId, usize), &'a Value)>> {
        let Some(rec) = rec else {
            return Ok(Vec::new());
        };
        Ok(self
            .indexed_slots(rec.class)?
            .into_iter()
            .filter_map(|slot| Some(((rec.class, slot), rec.values.get(slot)?)))
            .collect())
    }

    /// Move `oid` from the index entries of its `old` committed version
    /// to those of its `new` one. An entry both versions share is left
    /// alone, and the rest change under one guard: a concurrent index
    /// probe finds the row under its old value or its new one, never
    /// under neither.
    fn reindex(
        &self,
        oid: ObjectId,
        old: Option<&ObjectRecord>,
        new: Option<&ObjectRecord>,
    ) -> Result<()> {
        let mut stale = self.index_entries(old)?;
        let mut fresh = self.index_entries(new)?;
        stale.retain(|entry| match fresh.iter().position(|f| f == entry) {
            Some(kept) => {
                fresh.swap_remove(kept);
                false
            }
            None => true,
        });
        if stale.is_empty() && fresh.is_empty() {
            return Ok(());
        }
        let mut indexes = self.indexes.write();
        for (key, value) in stale {
            if let Some(idx) = indexes.get_mut(&key) {
                if let Some(set) = idx.get_mut(value) {
                    set.remove(&oid);
                    if set.is_empty() {
                        idx.remove(value);
                    }
                }
            }
        }
        for (key, value) in fresh {
            indexes
                .entry(key)
                .or_default()
                .entry(value.clone())
                .or_default()
                .insert(oid);
        }
        Ok(())
    }
}

impl ResourceManager for ObjectStore {
    fn on_commit_child(&self, txn: TxnId, parent: TxnId) -> Result<()> {
        self.objects.commit_into_parent(txn, parent);
        self.classes.commit_into_parent(txn, parent);
        self.locks.inherit_to_parent(txn, parent);
        Ok(())
    }

    fn on_commit_top(&self, txn: TxnId) -> Result<()> {
        // Open the publish window *before* the version stores publish:
        // while it is open, data_stamp refuses to validate cached
        // committed-data results, and its close (on every exit path)
        // bumps the data-version counters of the touched classes. Both
        // happen before the locks release below, so no reader can see
        // the new data under an old stamp.
        let mut publish = (self.track_writes.load(Ordering::Relaxed))
            .then(|| PublishWindow::open(self));
        let class_changes = self.classes.commit_top(txn);
        let object_changes = self.objects.commit_top(txn);
        if let Some(publish) = publish.as_mut() {
            publish.schema_changed = !class_changes.is_empty();
            for (_, old, new) in &object_changes {
                for rec in [old, new].into_iter().flatten() {
                    // Expand to superclass ancestors: a query rooted at
                    // any ancestor sees this row.
                    let mut cur = Some(rec.class);
                    while let Some(cid) = cur {
                        match self.classes.get_committed(&cid) {
                            Some(def) => {
                                cur = def.superclass;
                                publish.touched.insert(def.name);
                            }
                            None => break,
                        }
                    }
                }
            }
        }
        // Index maintenance.
        for (oid, old, new) in &object_changes {
            self.reindex(*oid, old.as_ref(), new.as_ref())?;
        }
        // Durability: one atomic batch per top-level commit.
        if let Some(d) = &self.durable {
            let mut ops = Vec::with_capacity(class_changes.len() + object_changes.len());
            for (cid, _, new) in &class_changes {
                ops.push(match new {
                    Some(def) => StoreOp::Put {
                        key: class_key(*cid),
                        value: def.encode(),
                    },
                    None => StoreOp::Delete {
                        key: class_key(*cid),
                    },
                });
            }
            for (oid, _, new) in &object_changes {
                ops.push(match new {
                    Some(rec) => StoreOp::Put {
                        key: object_key(*oid),
                        value: rec.encode(),
                    },
                    None => StoreOp::Delete {
                        key: object_key(*oid),
                    },
                });
            }
            if !ops.is_empty() {
                d.commit(txn, &ops)?;
            }
        }
        // Close the window (bumping the counters) before the locks go:
        // a reader that only wakes once our write locks release must
        // already see the bumped stamps.
        drop(publish);
        self.family_writes.lock().remove(&txn);
        self.locks.release_all(txn);
        Ok(())
    }

    fn on_abort(&self, txn: TxnId) -> Result<()> {
        self.objects.abort(txn);
        self.classes.abort(txn);
        // Aborted *top* transactions drop their family-write record
        // (child aborts leave it: conservative, cleaned at top end).
        if self.tm.tree().top_ancestor(txn) == txn {
            self.family_writes.lock().remove(&txn);
        }
        self.locks.release_all(txn);
        Ok(())
    }
}
