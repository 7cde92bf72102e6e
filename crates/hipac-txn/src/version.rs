//! Layered version store for nested transactions.
//!
//! Each key has one committed version plus, per live transaction, at
//! most one pending version (a put or a delete tombstone). A reader
//! resolves a key by walking its own ancestor chain — nearest pending
//! version wins — and falling back to the committed version.
//!
//! This is sound *given the lock protocol*: Moss write-lock rules
//! guarantee that all transactions holding pending writes for a key lie
//! on a single ancestor chain, so "nearest ancestor" is well-defined,
//! and readers hold read locks that exclude non-ancestor writers.
//!
//! Commit of a subtransaction folds its pending layer into the parent's
//! (child entries overwrite the parent's — the child's writes are newer
//! by the suspension rule); top-level commit publishes into the
//! committed map and reports the change set so the caller can make it
//! durable and signal events. Abort simply drops the layer.
//!
//! The committed map carries a generation: a counter bumped by every
//! change to it (a top-level commit of a non-empty layer, or a
//! bootstrap `put_committed`). A caller that derives something from
//! the committed state — the object store's catalog snapshot — keys it
//! on the generation and rebuilds only when the generation moved.
//! [`VersionStore::committed_generation`] hands the generation to a
//! transaction only when nothing on its ancestor chain is pending, so
//! the committed state is exactly what that transaction sees.
//!
//! The pending layers are found by transaction id, on the id hasher
//! ([`hipac_common::idhash`]). The key maps (the committed map and each
//! layer) take their hasher as the type parameter `S`, which has no
//! default: a store keyed by ids names `IdBuildHasher`, one keyed by
//! names or values `RandomState`.

use crate::tree::TxnTree;
use hipac_common::{IdMap, Result, TxnId};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// A pending (uncommitted) version.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pending<V> {
    Put(V),
    Delete,
}

struct Inner<K, V, S> {
    committed: HashMap<K, V, S>,
    /// Bumped by every change to `committed`.
    generation: u64,
    pending: IdMap<TxnId, HashMap<K, Pending<V>, S>>,
}

/// The store. `K` is the object key, `V` the object payload, `S` the
/// hasher of the key maps.
pub struct VersionStore<K: Eq + Hash + Clone, V: Clone, S> {
    tree: Arc<TxnTree>,
    inner: RwLock<Inner<K, V, S>>,
}

impl<K: Eq + Hash + Clone, V: Clone, S: BuildHasher + Default> VersionStore<K, V, S> {
    /// Create an empty store over the given transaction tree.
    pub fn new(tree: Arc<TxnTree>) -> Self {
        VersionStore {
            tree,
            inner: RwLock::new(Inner {
                committed: HashMap::default(),
                generation: 0,
                pending: IdMap::default(),
            }),
        }
    }

    /// The transaction tree this store resolves visibility against.
    pub fn tree(&self) -> &Arc<TxnTree> {
        &self.tree
    }

    /// Read `key` as seen by `txn`.
    pub fn get(&self, txn: TxnId, key: &K) -> Option<V> {
        let inner = self.inner.read();
        // No transaction has written anything: skip the chain walk.
        let pending = if inner.pending.is_empty() {
            None
        } else {
            self.tree.find_in_chain(txn, |t| {
                inner.pending.get(&t).and_then(|layer| layer.get(key))
            })
        };
        match pending {
            Some(Pending::Put(v)) => Some(v.clone()),
            Some(Pending::Delete) => None,
            None => inner.committed.get(key).cloned(),
        }
    }

    /// The committed map's generation: equal generations bracket a
    /// window in which no commit changed it.
    pub fn generation(&self) -> u64 {
        self.inner.read().generation
    }

    /// The committed generation, when no transaction on `txn`'s
    /// ancestor chain has a pending version: `txn` then sees exactly
    /// the committed state of that generation. `None` otherwise.
    pub fn committed_generation(&self, txn: TxnId) -> Option<u64> {
        let inner = self.inner.read();
        if !inner.pending.is_empty()
            && self
                .tree
                .find_in_chain(txn, |t| inner.pending.contains_key(&t).then_some(()))
                .is_some()
        {
            return None;
        }
        Some(inner.generation)
    }

    /// Every committed value, with the generation they belong to (read
    /// under one lock, so the pair is consistent).
    pub fn committed_values(&self) -> (u64, Vec<V>) {
        let inner = self.inner.read();
        (
            inner.generation,
            inner.committed.values().cloned().collect(),
        )
    }

    /// Read the committed version of `key`, ignoring all transactions.
    pub fn get_committed(&self, key: &K) -> Option<V> {
        self.inner.read().committed.get(key).cloned()
    }

    /// Record a pending put for `txn`. The caller must hold the write
    /// lock on `key`.
    pub fn put(&self, txn: TxnId, key: K, value: V) {
        self.inner
            .write()
            .pending
            .entry(txn)
            .or_default()
            .insert(key, Pending::Put(value));
    }

    /// Record a pending delete for `txn`. The caller must hold the
    /// write lock on `key`.
    pub fn delete(&self, txn: TxnId, key: K) {
        self.inner
            .write()
            .pending
            .entry(txn)
            .or_default()
            .insert(key, Pending::Delete);
    }

    /// Install a committed version directly (bootstrap/recovery only).
    pub fn put_committed(&self, key: K, value: V) {
        let mut inner = self.inner.write();
        inner.committed.insert(key, value);
        inner.generation += 1;
    }

    /// Replace the committed version of `key` with an equivalent one —
    /// the same value in a form derived from a later state of another
    /// store (a rule recompiled for a newer catalog). `f` sees the
    /// committed value and may swap it; the generation does not move,
    /// since the committed state means the same.
    pub fn refresh_committed(&self, key: &K, f: impl FnOnce(&mut V)) {
        if let Some(v) = self.inner.write().committed.get_mut(key) {
            f(v);
        }
    }

    /// Does `txn` have a pending layer? Only `txn`'s own commit or
    /// abort removes its layer, and only `txn` (or, once it committed,
    /// a child folding into it) adds one, so the answer holds for the
    /// caller committing or aborting `txn`.
    fn has_layer(&self, txn: TxnId) -> bool {
        let inner = self.inner.read();
        !inner.pending.is_empty() && inner.pending.contains_key(&txn)
    }

    /// Fold `txn`'s pending layer into `parent`'s (subtransaction
    /// commit). A transaction that wrote nothing here takes no write
    /// lock.
    pub fn commit_into_parent(&self, txn: TxnId, parent: TxnId) {
        if !self.has_layer(txn) {
            return;
        }
        let mut inner = self.inner.write();
        if let Some(layer) = inner.pending.remove(&txn) {
            let parent_layer = inner.pending.entry(parent).or_default();
            for (k, v) in layer {
                parent_layer.insert(k, v);
            }
        }
    }

    /// Publish `txn`'s pending layer into the committed map (top-level
    /// commit). Returns the change set: `(key, old, new)` where `new`
    /// is `None` for deletes. Keys whose pending write equals a delete
    /// of an absent key are omitted.
    #[allow(clippy::type_complexity)]
    pub fn commit_top(&self, txn: TxnId) -> Vec<(K, Option<V>, Option<V>)> {
        let mut changes = Vec::new();
        if !self.has_layer(txn) {
            return changes;
        }
        let mut inner = self.inner.write();
        if let Some(layer) = inner.pending.remove(&txn) {
            inner.generation += 1;
            for (k, v) in layer {
                match v {
                    Pending::Put(v) => {
                        let old = inner.committed.insert(k.clone(), v.clone());
                        changes.push((k, old, Some(v)));
                    }
                    Pending::Delete => {
                        if let Some(old) = inner.committed.remove(&k) {
                            changes.push((k, Some(old), None));
                        }
                    }
                }
            }
        }
        changes
    }

    /// Discard `txn`'s pending layer (abort). Descendant layers must be
    /// discarded by their own aborts, which the transaction manager
    /// drives top-down.
    pub fn abort(&self, txn: TxnId) {
        if self.has_layer(txn) {
            self.inner.write().pending.remove(&txn);
        }
    }

    /// Visit every key/value pair visible to `txn`. Order unspecified.
    pub fn for_each_visible(&self, txn: TxnId, mut f: impl FnMut(&K, &V)) {
        let inner = self.inner.read();
        // Nearest-ancestor-wins overlay.
        let mut overlay: HashMap<&K, &Pending<V>, S> = HashMap::default();
        for t in self.tree.ancestors_inclusive(txn) {
            if let Some(layer) = inner.pending.get(&t) {
                for (k, v) in layer {
                    overlay.entry(k).or_insert(v);
                }
            }
        }
        for (k, v) in &overlay {
            if let Pending::Put(v) = v {
                f(k, v);
            }
        }
        for (k, v) in &inner.committed {
            if !overlay.contains_key(k) {
                f(k, v);
            }
        }
    }

    /// Count of entries visible to `txn`.
    pub fn len_visible(&self, txn: TxnId) -> usize {
        let mut n = 0;
        self.for_each_visible(txn, |_, _| n += 1);
        n
    }

    /// Count of committed entries.
    pub fn len_committed(&self) -> usize {
        self.inner.read().committed.len()
    }

    /// Does `txn` itself (not an ancestor) have a pending version of
    /// `key`?
    pub fn has_own_pending(&self, txn: TxnId, key: &K) -> bool {
        self.inner
            .read()
            .pending
            .get(&txn)
            .is_some_and(|l| l.contains_key(key))
    }

    /// Snapshot of all keys visible to `txn` (for scans that then fetch
    /// values individually under locks).
    pub fn visible_keys(&self, txn: TxnId) -> Vec<K> {
        let mut keys = Vec::new();
        self.for_each_visible(txn, |k, _| keys.push(k.clone()));
        keys
    }

    /// Keys with a pending entry (put or delete) anywhere on `txn`'s
    /// ancestor chain. Index probes union these candidates with
    /// committed index hits, because pending writes are not yet in the
    /// committed secondary indexes.
    pub fn pending_keys_for(&self, txn: TxnId) -> Vec<K> {
        let inner = self.inner.read();
        let mut out = Vec::new();
        let mut seen: HashSet<K, S> = HashSet::default();
        for t in self.tree.ancestors_inclusive(txn) {
            if let Some(layer) = inner.pending.get(&t) {
                for k in layer.keys() {
                    if seen.insert(k.clone()) {
                        out.push(k.clone());
                    }
                }
            }
        }
        out
    }
}

/// Result alias kept for symmetry with the other modules.
pub type VersionResult<T> = Result<T>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;

    fn setup() -> (Arc<TxnTree>, VersionStore<&'static str, i64, RandomState>) {
        let tree = Arc::new(TxnTree::new());
        let vs = VersionStore::new(Arc::clone(&tree));
        (tree, vs)
    }

    #[test]
    fn own_writes_are_visible_others_are_not() {
        let (tree, vs) = setup();
        let a = tree.begin_top();
        let b = tree.begin_top();
        vs.put(a, "x", 1);
        assert_eq!(vs.get(a, &"x"), Some(1));
        assert_eq!(vs.get(b, &"x"), None);
        assert_eq!(vs.get_committed(&"x"), None);
    }

    #[test]
    fn child_sees_parent_pending_and_overrides_it() {
        let (tree, vs) = setup();
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        vs.put(t, "x", 1);
        assert_eq!(vs.get(c, &"x"), Some(1), "child reads parent's pending");
        vs.put(c, "x", 2);
        assert_eq!(vs.get(c, &"x"), Some(2), "child's own write wins");
        assert_eq!(vs.get(t, &"x"), Some(1), "parent unaffected until child commits");
        vs.commit_into_parent(c, t);
        assert_eq!(vs.get(t, &"x"), Some(2));
    }

    #[test]
    fn delete_tombstones_shadow_committed() {
        let (tree, vs) = setup();
        vs.put_committed("x", 10);
        let t = tree.begin_top();
        vs.delete(t, "x");
        assert_eq!(vs.get(t, &"x"), None);
        assert_eq!(vs.get_committed(&"x"), Some(10));
        assert_eq!(vs.get_committed(&"y"), None);
        let changes = vs.commit_top(t);
        assert_eq!(changes, vec![("x", Some(10), None)]);
        assert_eq!(vs.get_committed(&"x"), None);
    }

    #[test]
    fn abort_discards_layer() {
        let (tree, vs) = setup();
        vs.put_committed("x", 1);
        let t = tree.begin_top();
        vs.put(t, "x", 99);
        vs.put(t, "y", 5);
        vs.abort(t);
        assert_eq!(vs.get_committed(&"x"), Some(1));
        assert_eq!(vs.get(tree.begin_top(), &"y"), None);
    }

    #[test]
    fn commit_top_reports_change_set() {
        let (tree, vs) = setup();
        vs.put_committed("old", 1);
        vs.put_committed("gone", 2);
        let t = tree.begin_top();
        vs.put(t, "old", 10);
        vs.put(t, "new", 20);
        vs.delete(t, "gone");
        vs.delete(t, "never-there");
        let mut changes = vs.commit_top(t);
        changes.sort_by_key(|(k, _, _)| *k);
        assert_eq!(
            changes,
            vec![
                ("gone", Some(2), None),
                ("new", None, Some(20)),
                ("old", Some(1), Some(10)),
            ]
        );
    }

    #[test]
    fn deep_nesting_resolves_nearest_ancestor() {
        let (tree, vs) = setup();
        vs.put_committed("x", 0);
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        let g = tree.begin_child(c).unwrap();
        vs.put(t, "x", 1);
        assert_eq!(vs.get(g, &"x"), Some(1));
        vs.put(c, "x", 2);
        assert_eq!(vs.get(g, &"x"), Some(2));
        vs.put(g, "x", 3);
        assert_eq!(vs.get(g, &"x"), Some(3));
        assert_eq!(vs.get(c, &"x"), Some(2));
        assert_eq!(vs.get(t, &"x"), Some(1));
        // Cascade of commits folds versions upward, innermost winning.
        vs.commit_into_parent(g, c);
        vs.commit_into_parent(c, t);
        assert_eq!(vs.get(t, &"x"), Some(3));
        vs.commit_top(t);
        assert_eq!(vs.get_committed(&"x"), Some(3));
    }

    #[test]
    fn visibility_scan_merges_layers() {
        let (tree, vs) = setup();
        vs.put_committed("a", 1);
        vs.put_committed("b", 2);
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        vs.delete(t, "a");
        vs.put(t, "c", 3);
        vs.put(c, "d", 4);
        vs.put(c, "b", 22);
        let mut seen: Vec<(&str, i64)> = Vec::new();
        vs.for_each_visible(c, |k, v| seen.push((k, *v)));
        seen.sort();
        assert_eq!(seen, vec![("b", 22), ("c", 3), ("d", 4)]);
        assert_eq!(vs.len_visible(c), 3);
        // A stranger sees only committed state.
        let s = tree.begin_top();
        assert_eq!(vs.len_visible(s), 2);
        assert_eq!(vs.len_committed(), 2);
    }

    #[test]
    fn generation_moves_with_the_committed_map_only() {
        let (tree, vs) = setup();
        let g0 = vs.generation();
        vs.put_committed("x", 1);
        let g1 = vs.generation();
        assert!(g1 > g0);
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        let stranger = tree.begin_top();
        assert_eq!(vs.committed_generation(c), Some(g1));
        vs.put(t, "x", 2);
        assert_eq!(vs.committed_generation(t), None, "own pending layer");
        assert_eq!(vs.committed_generation(c), None, "ancestor's pending layer");
        assert_eq!(vs.committed_generation(stranger), Some(g1));
        assert_eq!(vs.generation(), g1, "pending writes leave it alone");
        vs.commit_top(t);
        let g2 = vs.generation();
        assert!(g2 > g1);
        assert_eq!(vs.committed_generation(stranger), Some(g2));
        assert_eq!(vs.committed_values(), (g2, vec![2]));
        let u = tree.begin_top();
        vs.put(u, "y", 3);
        vs.abort(u);
        assert_eq!(vs.generation(), g2, "an abort changes nothing committed");
        vs.commit_top(tree.begin_top());
        assert_eq!(vs.generation(), g2, "an empty commit changes nothing");
    }

    #[test]
    fn empty_child_commit_leaves_state_and_generation_unchanged() {
        let (tree, vs) = setup();
        vs.put_committed("x", 1);
        let t = tree.begin_top();
        vs.put(t, "y", 2);
        let g = vs.generation();
        let c = tree.begin_child(t).unwrap();
        vs.commit_into_parent(c, t);
        assert_eq!(vs.generation(), g);
        assert_eq!(vs.get(t, &"y"), Some(2), "the parent's layer is untouched");
        assert_eq!(vs.committed_generation(t), None);
        let empty = tree.begin_child(t).unwrap();
        vs.abort(empty);
        assert_eq!(vs.get(t, &"y"), Some(2));
        assert!(vs.commit_top(tree.begin_top()).is_empty());
        assert_eq!(vs.generation(), g);
        assert_eq!(vs.get_committed(&"x"), Some(1));
    }

    #[test]
    fn refresh_committed_keeps_the_generation() {
        let (_tree, vs) = setup();
        vs.put_committed("x", 1);
        let g = vs.generation();
        vs.refresh_committed(&"x", |v| *v = 10);
        vs.refresh_committed(&"absent", |v| *v = 99);
        assert_eq!(vs.get_committed(&"x"), Some(10));
        assert_eq!(vs.get_committed(&"absent"), None);
        assert_eq!(vs.generation(), g);
    }

    #[test]
    fn has_own_pending_ignores_ancestors() {
        let (tree, vs) = setup();
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        vs.put(t, "x", 1);
        assert!(vs.has_own_pending(t, &"x"));
        assert!(!vs.has_own_pending(c, &"x"));
    }
}
