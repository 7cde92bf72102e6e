//! The replica's queryable view of replicated state.
//!
//! A replica applies the primary's WAL batches into its own
//! [`hipac_storage::DurableStore`] for durability, but snapshot reads
//! must not pay a disk walk per query. [`ReplicaView`] keeps the
//! catalog ('c'-prefixed keys) and object extents ('o'-prefixed keys)
//! decoded in memory, updated atomically per applied run of batches
//! under a write lock — so every read observes a batch-consistent
//! snapshot at the view's applied LSN, never a half-applied
//! transaction.
//!
//! Non-object keys on the stream (rules, events, reply journal, push
//! outbox, push sequences) are durably applied by the store but
//! deliberately absent here: they only become live state at promotion,
//! when full recovery rebuilds the engine from the store.

use std::collections::HashMap;

use hipac_common::{ClassId, HipacError, ObjectId, Result, Value};
use hipac_object::{Bindings, ClassDef, ObjectRecord, Query, Row};
use hipac_storage::StoreOp;
use parking_lot::RwLock;

/// Key prefixes owned by the Object Manager (see
/// `hipac-object::store`): one tag byte followed by the 8-byte
/// big-endian id.
const KEY_CLASS: u8 = b'c';
const KEY_OBJECT: u8 = b'o';

#[derive(Default)]
struct ViewState {
    classes: HashMap<ClassId, ClassDef>,
    by_name: HashMap<String, ClassId>,
    objects: HashMap<ObjectId, ObjectRecord>,
    /// Primary-stream LSN this view reflects.
    applied_lsn: u64,
}

impl ViewState {
    fn absorb_put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        match key.first() {
            Some(&KEY_CLASS) => {
                let def = ClassDef::decode(value)?;
                self.by_name.insert(def.name.clone(), def.id);
                self.classes.insert(def.id, def);
            }
            Some(&KEY_OBJECT) if key.len() == 9 => {
                let oid = ObjectId(u64::from_be_bytes(key[1..9].try_into().unwrap()));
                self.objects.insert(oid, ObjectRecord::decode(value)?);
            }
            // Journal / outbox / rule / event keys: durable but not
            // part of the queryable view.
            _ => {}
        }
        Ok(())
    }

    fn absorb_delete(&mut self, key: &[u8]) {
        match key.first() {
            Some(&KEY_CLASS) if key.len() == 9 => {
                let cid = ClassId(u64::from_be_bytes(key[1..9].try_into().unwrap()));
                if let Some(def) = self.classes.remove(&cid) {
                    self.by_name.remove(&def.name);
                }
            }
            Some(&KEY_OBJECT) if key.len() == 9 => {
                let oid = ObjectId(u64::from_be_bytes(key[1..9].try_into().unwrap()));
                self.objects.remove(&oid);
            }
            _ => {}
        }
    }

    /// Full attribute layout of `cid`: ancestors' attributes root-first,
    /// then its own (mirrors `hipac_object::Schema::layout`).
    fn layout(&self, cid: ClassId) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = Some(cid);
        while let Some(c) = cur {
            let Some(def) = self.classes.get(&c) else { break };
            cur = def.superclass;
            chain.push(def);
        }
        chain.reverse();
        chain
            .iter()
            .flat_map(|d| d.attrs.iter().map(|a| a.name.clone()))
            .collect()
    }

    fn is_subclass_or_self(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        let mut steps = 0usize;
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes.get(&c).and_then(|d| d.superclass);
            steps += 1;
            if steps > 1024 {
                return false; // defensive: corrupted superclass cycle
            }
        }
        false
    }
}

/// Batch-consistent in-memory snapshot of the replicated catalog and
/// object extents, queryable with the `hipac-object` surface syntax.
pub struct ReplicaView {
    inner: RwLock<ViewState>,
}

impl Default for ReplicaView {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicaView {
    /// An empty view at LSN 0.
    pub fn new() -> ReplicaView {
        ReplicaView {
            inner: RwLock::new(ViewState::default()),
        }
    }

    /// Replace the view wholesale (replica bootstrap from a local store
    /// scan, or a snapshot install after falling off the primary's
    /// retained log).
    pub fn install(&self, pairs: &[(Vec<u8>, Vec<u8>)], applied_lsn: u64) -> Result<()> {
        let mut fresh = ViewState {
            applied_lsn,
            ..ViewState::default()
        };
        for (key, value) in pairs {
            fresh.absorb_put(key, value)?;
        }
        *self.inner.write() = fresh;
        Ok(())
    }

    /// Apply committed operations — one batch, or a whole run of them —
    /// under one write lock and advance the watermark, so a reader sees
    /// the view before the run or after it, never in between.
    pub fn apply_ops<'a>(
        &self,
        ops: impl IntoIterator<Item = &'a StoreOp>,
        applied_lsn: u64,
    ) -> Result<()> {
        let mut state = self.inner.write();
        for op in ops {
            match op {
                StoreOp::Put { key, value } => state.absorb_put(key, value)?,
                StoreOp::Delete { key } => state.absorb_delete(key),
            }
        }
        state.applied_lsn = applied_lsn;
        Ok(())
    }

    /// Primary-stream LSN the view currently reflects.
    pub fn applied_lsn(&self) -> u64 {
        self.inner.read().applied_lsn
    }

    /// Number of live objects (tests and gauges).
    pub fn object_count(&self) -> usize {
        self.inner.read().objects.len()
    }

    /// Evaluate a `from <class> [where <expr>] [select a, b]` query over
    /// the polymorphic extent (the class and its descendants), exactly
    /// as the primary's Object Manager would, at this view's LSN. Rows
    /// come back oid-ordered for determinism.
    pub fn query(&self, text: &str, params: &HashMap<String, Value>) -> Result<Vec<Row>> {
        let q = Query::parse(text)?;
        let state = self.inner.read();
        let &cid = state
            .by_name
            .get(&q.class)
            .ok_or_else(|| HipacError::UnknownClass(q.class.clone()))?;
        // Resolving against the queried class's layout stays valid for
        // subclass rows: a subclass layout extends its ancestor's as a
        // prefix.
        let layout = state.layout(cid);
        let resolver = |name: &str| -> Result<usize> {
            layout
                .iter()
                .position(|a| a == name)
                .ok_or_else(|| HipacError::UnknownAttribute(format!("{name} (in {})", q.class)))
        };
        let predicate = q.predicate.resolve(&resolver)?;
        let projection: Option<Vec<usize>> = match &q.projection {
            Some(names) => Some(
                names
                    .iter()
                    .map(|n| resolver(n))
                    .collect::<Result<Vec<usize>>>()?,
            ),
            None => None,
        };
        let mut rows = Vec::new();
        for (&oid, rec) in &state.objects {
            if !state.is_subclass_or_self(rec.class, cid) {
                continue;
            }
            let ctx = Bindings {
                row: Some(&rec.values),
                params: Some(params),
                ..Bindings::default()
            };
            if predicate.eval_bool(&ctx)? {
                let values = match &projection {
                    Some(slots) => slots
                        .iter()
                        .map(|&s| rec.values.get(s).cloned().unwrap_or(Value::Null))
                        .collect(),
                    None => rec.values.clone(),
                };
                rows.push(Row {
                    oid,
                    class: rec.class,
                    values,
                });
            }
        }
        rows.sort_by_key(|r| r.oid);
        Ok(rows)
    }
}
