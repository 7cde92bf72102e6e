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
//! Readers get the catalog as an `Arc<Schema>`: one snapshot per
//! committed catalog generation, shared by every transaction with no
//! DDL pending on its chain and rebuilt only when a commit changed the
//! catalog. A transaction with pending DDL builds its own.
//! Secondary indexes cover committed data only; queries union index
//! hits with the transaction chain's pending writes and re-check
//! predicates on the visible version.

use crate::expr::Bindings;
use crate::object::ObjectRecord;
use crate::prepared::{Access, PreparedQuery};
use crate::query::{Plan, Query, QueryResult, Row};
use crate::schema::{AttrDef, ClassDef, Schema};
use hipac_common::id::IdAllocator;
use hipac_common::idhash::{name_digest, IdBuildHasher};
use hipac_common::{ClassId, HipacError, IdMap, IdSet, ObjectId, Result, TxnId, Value};
use hipac_storage::{DurableStore, StoreOp};
use hipac_txn::{LockManager, LockMode, ResourceManager, TransactionManager, VersionStore};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Everything the lock manager can lock.
///
/// The lock table hashes keys with the keyed id hasher
/// ([`hipac_common::idhash`]), so `Hash` is written by hand: an id
/// variant writes its tag and its id; a name variant writes its tag and
/// the keyed [`name_digest`] of the name, never the name's bytes. A
/// client picks some of these keys: the wire's `Update` and `Delete`
/// carry a raw object id whose lock is taken before the object is
/// looked up. Each key is one fixed tag and one client-chosen word, so
/// the hasher's per-process key decides which keys share a bucket.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
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

impl Hash for LockKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (tag, word) = match self {
            LockKey::Object(oid) => (0u8, oid.raw()),
            LockKey::Class(cid) => (1, cid.raw()),
            LockKey::ClassName(name) => (2, name_digest(name)),
            LockKey::Rule(rid) => (3, *rid),
            LockKey::RuleName(name) => (4, name_digest(name)),
        };
        state.write_u8(tag);
        state.write_u64(word);
    }
}

/// A database operation, as reported to event listeners. Carries the
/// paper-specified signal payload: the instances being modified and the
/// old and new values of their attributes. The images are the row
/// versions themselves, shared with the version store.
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
        new: Arc<[Value]>,
    },
    Update {
        class: ClassId,
        oid: ObjectId,
        old: Arc<[Value]>,
        new: Arc<[Value]>,
    },
    Delete {
        class: ClassId,
        oid: ObjectId,
        old: Arc<[Value]>,
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

type SecondaryIndex = BTreeMap<Value, IdSet<ObjectId>>;

/// The Object Manager.
pub struct ObjectStore {
    tm: Arc<TransactionManager>,
    locks: Arc<LockManager<LockKey>>,
    objects: VersionStore<ObjectId, ObjectRecord, IdBuildHasher>,
    classes: VersionStore<ClassId, ClassDef, IdBuildHasher>,
    oid_alloc: IdAllocator,
    class_alloc: IdAllocator,
    /// Replaced, not edited, on registration: an operation holds the
    /// list by reference count, not under the lock.
    listeners: RwLock<Arc<[Arc<dyn OpListener>]>>,
    /// Committed-data secondary indexes, keyed by (concrete class,
    /// layout slot).
    indexes: RwLock<IdMap<(ClassId, usize), SecondaryIndex>>,
    durable: Option<Arc<DurableStore>>,
    /// The committed catalog's snapshot and the catalog generation it
    /// was built from.
    catalog: RwLock<(u64, Arc<Schema>)>,
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
            listeners: RwLock::new(Arc::new([])),
            indexes: RwLock::new(IdMap::default()),
            durable,
            catalog: RwLock::new((0, Arc::new(Schema::default()))),
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
        let catalog = self.committed_catalog().1;
        for (key, bytes) in d.scan_prefix(&[KEY_OBJECT])? {
            if key.len() != 9 {
                return Err(HipacError::Corruption("bad object key length".into()));
            }
            let oid = ObjectId(u64::from_be_bytes(key[1..9].try_into().unwrap()));
            let rec = ObjectRecord::decode(&bytes)?;
            self.oid_alloc.bump_to(oid.raw());
            self.reindex(&catalog, oid, None, Some(&rec));
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
        let mut listeners = self.listeners.write();
        *listeners = listeners.iter().cloned().chain([l]).collect();
    }

    fn emit(&self, txn: TxnId, op: &DbOperation) -> Result<()> {
        let listeners = Arc::clone(&self.listeners.read());
        for l in listeners.iter() {
            l.on_operation(txn, op)?;
        }
        Ok(())
    }

    /// The schema as `txn` sees it. With no DDL pending on `txn`'s
    /// chain this is the shared committed snapshot, and reading it
    /// allocates nothing; otherwise `txn` gets a schema of its own.
    pub fn schema(&self, txn: TxnId) -> Arc<Schema> {
        self.catalog(txn).1
    }

    /// The catalog as `txn` sees it, with its committed generation when
    /// no DDL is pending on `txn`'s chain (`None` otherwise: the schema
    /// is then `txn`'s own). Prepared queries and compiled rules are
    /// stamped with the generation and rebuilt when it moves.
    pub fn catalog(&self, txn: TxnId) -> (Option<u64>, Arc<Schema>) {
        match self.classes.committed_generation(txn) {
            Some(generation) => {
                let (generation, schema) = self.snapshot(generation);
                (Some(generation), schema)
            }
            None => {
                let mut classes = Vec::new();
                self.classes
                    .for_each_visible(txn, |_, def| classes.push(def.clone()));
                (None, Arc::new(Schema::new(classes)))
            }
        }
    }

    /// The catalog generation `txn` sees: the committed one when no DDL
    /// is pending on its chain, `None` otherwise.
    pub fn catalog_generation_for(&self, txn: TxnId) -> Option<u64> {
        self.classes.committed_generation(txn)
    }

    /// The committed catalog and its generation, whatever any
    /// transaction has pending.
    pub fn committed_catalog(&self) -> (u64, Arc<Schema>) {
        self.snapshot(self.classes.generation())
    }

    /// The committed catalog's generation: it moves with every commit
    /// that changes a class definition.
    pub fn catalog_generation(&self) -> u64 {
        self.classes.generation()
    }

    /// The committed snapshot of `generation` or a later one, with the
    /// generation it is: the cached one when it is current, else one
    /// built from the committed catalog (and cached, unless a newer one
    /// got there first).
    fn snapshot(&self, generation: u64) -> (u64, Arc<Schema>) {
        {
            let (cached, schema) = &*self.catalog.read();
            if *cached == generation {
                return (generation, Arc::clone(schema));
            }
        }
        let (generation, classes) = self.classes.committed_values();
        let schema = Arc::new(Schema::new(classes));
        let mut catalog = self.catalog.write();
        if generation > catalog.0 {
            *catalog = (generation, Arc::clone(&schema));
        }
        (generation, schema)
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
        let rec = ObjectRecord::new(class_id, values);
        let new = Arc::clone(&rec.values);
        self.objects.put(txn, oid, rec);
        self.emit(
            txn,
            &DbOperation::Insert {
                class: class_id,
                oid,
                new,
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
        let mut slots = Vec::with_capacity(assignments.len());
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
            slots.push((slot, value));
        }
        // The one copy an update makes, built straight into the new
        // version (a later assignment to a slot wins); the old version
        // stays intact for every reader that holds it.
        let new_values: Arc<[Value]> = rec
            .values
            .iter()
            .enumerate()
            .map(
                |(i, old)| match slots.iter().rev().find(|(slot, _)| *slot == i) {
                    Some((_, value)) => (*value).clone(),
                    None => old.clone(),
                },
            )
            .collect();
        self.objects.put(
            txn,
            oid,
            ObjectRecord::new(rec.class, Arc::clone(&new_values)),
        );
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
        Ok(PreparedQuery::new(schema, None, query, None)?.plan(schema))
    }

    /// Prepare `query` as `txn` sees the catalog (§5.1: the same
    /// prepared form serves applications and the Condition Evaluator).
    pub fn prepare(&self, txn: TxnId, query: &Query) -> Result<PreparedQuery> {
        let (generation, schema) = self.catalog(txn);
        PreparedQuery::new(&schema, generation, query, None)
    }

    /// Prepare `query` for a rule fired by events on `event_class` (or
    /// its subclasses, which share its layout's prefix): its `old.x` and
    /// `new.x` references read that class's images.
    pub fn prepare_for_event(
        &self,
        txn: TxnId,
        query: &Query,
        event_class: ClassId,
    ) -> Result<PreparedQuery> {
        let (generation, schema) = self.catalog(txn);
        PreparedQuery::new(&schema, generation, query, Some(event_class))
    }

    /// Execute a prepared query as `txn`, with `bindings` supplying the
    /// parameters and the event's old and new images (its `row` is
    /// ignored). A query prepared for another catalog generation than
    /// the one `txn` sees, or under DDL pending on a chain, is prepared
    /// again first.
    pub fn execute(
        &self,
        txn: TxnId,
        prepared: &PreparedQuery,
        bindings: Bindings<'_>,
    ) -> Result<QueryResult> {
        self.tm.check_operable(txn)?;
        let (generation, schema) = self.catalog(txn);
        if generation.is_some() && generation == prepared.generation() {
            return self.run(txn, &schema, prepared, bindings);
        }
        let fresh = PreparedQuery::new(
            &schema,
            generation,
            prepared.query(),
            prepared.delta_class(),
        )?;
        self.run(txn, &schema, &fresh, bindings)
    }

    /// Execute a query as `txn` (§5.1: used by applications and by the
    /// Condition Evaluator): prepare it, then execute it.
    pub fn query(
        &self,
        txn: TxnId,
        query: &Query,
        params: Option<&HashMap<String, Value>>,
    ) -> Result<QueryResult> {
        self.tm.check_operable(txn)?;
        let (generation, schema) = self.catalog(txn);
        let prepared = PreparedQuery::new(&schema, generation, query, None)?;
        let bindings = Bindings {
            params,
            ..Default::default()
        };
        self.run(txn, &schema, &prepared, bindings)
    }

    /// Run `prepared`, which was prepared against `schema`.
    fn run(
        &self,
        txn: TxnId,
        schema: &Schema,
        prepared: &PreparedQuery,
        bindings: Bindings<'_>,
    ) -> Result<QueryResult> {
        let root = prepared.class();
        self.locks
            .acquire(txn, LockKey::Class(root), LockMode::Read)?;
        let members = schema.members(root)?;

        let candidates: Vec<ObjectId> = match prepared.access {
            Access::IndexEq { slot, .. } => {
                let probe = prepared
                    .probe()
                    .ok_or_else(|| HipacError::internal("index plan without a probe"))?
                    .eval(&bindings)?;
                let mut set: Vec<ObjectId> = Vec::new();
                let mut dedup = IdSet::default();
                {
                    let indexes = self.indexes.read();
                    for cid in members {
                        if let Some(idx) = indexes.get(&(*cid, slot as usize)) {
                            if let Some(oids) = idx.get(&probe) {
                                set.reserve(oids.len());
                                dedup.reserve(oids.len());
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
            Access::Scan => self.objects.visible_keys(txn),
        };

        // The visible version of `oid`, if it belongs to the queried
        // classes and satisfies the predicate.
        let matching = |oid: ObjectId| -> Result<Option<ObjectRecord>> {
            // Candidate sets may include deleted or invisible objects.
            let Some(rec) = self.objects.get(txn, &oid) else {
                return Ok(None);
            };
            if members.binary_search(&rec.class).is_err() {
                return Ok(None);
            }
            let ctx = Bindings {
                row: Some(&rec.values),
                ..bindings
            };
            Ok(prepared
                .predicate_for(rec.class)?
                .eval_bool(&ctx)?
                .then_some(rec))
        };

        // Result rows are read-locked for repeatable reads. An index
        // probe's candidates are (nearly all) result rows, so each is
        // locked first and its version read once; a scan examines the
        // whole extent, so it locks only the rows a pre-check selects and
        // then reads them again, because the unlocked read may have
        // raced a concurrent committer.
        let lock_first = matches!(prepared.access, Access::IndexEq { .. });
        let mut rows = Vec::with_capacity(if lock_first { candidates.len() } else { 0 });
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
            let values = match prepared.projection_for(rec.class)? {
                None => rec.values,
                // Collected from an exact-size iterator, so the row is
                // one allocation.
                Some(slots) => slots.iter().map(|&slot| rec.values[slot].clone()).collect(),
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

    /// Number of objects visible to `txn` (diagnostics/tests).
    pub fn count_visible(&self, txn: TxnId) -> usize {
        self.objects.len_visible(txn)
    }

    // ------------------------------------------------------------------
    // Index maintenance (committed data only)
    // ------------------------------------------------------------------

    /// The `((class, slot), value)` index entries `rec` occupies under
    /// the committed `catalog` (index maintenance happens at top-level
    /// commit, when the class definitions involved are committed). A
    /// dropped class has none.
    fn index_entries<'a>(
        catalog: &Schema,
        rec: Option<&'a ObjectRecord>,
    ) -> Vec<((ClassId, usize), &'a Value)> {
        let Some(rec) = rec else {
            return Vec::new();
        };
        let Ok(slots) = catalog.layout(rec.class) else {
            return Vec::new();
        };
        slots
            .enumerate()
            .filter(|(_, attr)| attr.indexed)
            .filter_map(|(slot, _)| Some(((rec.class, slot), rec.values.get(slot)?)))
            .collect()
    }

    /// Move `oid` from the index entries of its `old` committed version
    /// to those of its `new` one. An entry both versions share is left
    /// alone, and the rest change under one guard: a concurrent index
    /// probe finds the row under its old value or its new one, never
    /// under neither.
    fn reindex(
        &self,
        catalog: &Schema,
        oid: ObjectId,
        old: Option<&ObjectRecord>,
        new: Option<&ObjectRecord>,
    ) {
        let mut stale = Self::index_entries(catalog, old);
        let mut fresh = Self::index_entries(catalog, new);
        stale.retain(|entry| match fresh.iter().position(|f| f == entry) {
            Some(kept) => {
                fresh.swap_remove(kept);
                false
            }
            None => true,
        });
        if stale.is_empty() && fresh.is_empty() {
            return;
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
        let class_changes = self.classes.commit_top(txn);
        let object_changes = self.objects.commit_top(txn);
        let catalog = self.committed_catalog().1;
        // Index maintenance.
        for (oid, old, new) in &object_changes {
            self.reindex(&catalog, *oid, old.as_ref(), new.as_ref());
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
                d.commit(txn, ops)?;
            }
        }
        self.locks.release_all(txn);
        Ok(())
    }

    fn on_abort(&self, txn: TxnId) -> Result<()> {
        self.objects.abort(txn);
        self.classes.abort(txn);
        self.locks.release_all(txn);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipac_common::idhash::IdBuildHasher;
    use std::hash::BuildHasher;

    fn hash_of(key: &LockKey) -> u64 {
        IdBuildHasher::default().hash_one(key)
    }

    /// What the id hasher makes of a tag and a word.
    fn tagged(tag: u8, word: u64) -> u64 {
        let mut h = IdBuildHasher::default().build_hasher();
        h.write_u8(tag);
        h.write_u64(word);
        h.finish()
    }

    #[test]
    fn lock_key_equal_keys_hash_equal() {
        let pairs = [
            (LockKey::Object(ObjectId(9)), LockKey::Object(ObjectId(9))),
            (LockKey::Class(ClassId(3)), LockKey::Class(ClassId(3))),
            (LockKey::Rule(4), LockKey::Rule(4)),
            (
                LockKey::ClassName("stock".into()),
                LockKey::ClassName(String::from("stock")),
            ),
            (
                LockKey::RuleName("alert".into()),
                LockKey::RuleName(String::from("alert")),
            ),
        ];
        for (a, b) in &pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(a), hash_of(b), "{a:?}");
        }
        // The tag keeps variants over the same id apart.
        assert_ne!(
            hash_of(&LockKey::Object(ObjectId(4))),
            hash_of(&LockKey::Rule(4))
        );
        assert_ne!(
            hash_of(&LockKey::ClassName("x".into())),
            hash_of(&LockKey::RuleName("x".into()))
        );
    }

    #[test]
    fn lock_key_id_variants_write_tag_and_id() {
        assert_eq!(hash_of(&LockKey::Object(ObjectId(77))), tagged(0, 77));
        assert_eq!(hash_of(&LockKey::Class(ClassId(77))), tagged(1, 77));
        assert_eq!(hash_of(&LockKey::Rule(77)), tagged(3, 77));
    }

    #[test]
    fn lock_key_client_chosen_object_ids_spread_over_low_bucket_bits() {
        // Object ids a client sends that differ only in bits >= 32 (or
        // >= 52): they must not share hashbrown's start bucket.
        for shift in [32, 52] {
            let buckets: HashSet<u64> = (0..4096u64)
                .map(|i| hash_of(&LockKey::Object(ObjectId(i << shift | 5))) & 4095)
                .collect();
            // Random placement reaches about 2 589 of 4 096 buckets.
            assert!(buckets.len() >= 2400, "<< {shift}: {} buckets", buckets.len());
        }
    }

    #[test]
    fn lock_key_names_hash_through_the_keyed_digest() {
        for name in ["", "stock", "a name longer than one word"] {
            let class = hash_of(&LockKey::ClassName(name.into()));
            let rule = hash_of(&LockKey::RuleName(name.into()));
            assert_eq!(class, tagged(2, name_digest(name)));
            assert_eq!(rule, tagged(4, name_digest(name)));
            // Not the id hasher over the name's bytes.
            let mut raw = IdBuildHasher::default().build_hasher();
            raw.write_u8(2);
            name.hash(&mut raw);
            assert_ne!(class, raw.finish(), "{name:?}");
        }
    }
}
