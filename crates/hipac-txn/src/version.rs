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

use crate::tree::TxnTree;
use hipac_common::{Result, TxnId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A pending (uncommitted) version.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pending<V> {
    Put(V),
    Delete,
}

struct Inner<K, V> {
    committed: HashMap<K, V>,
    pending: HashMap<TxnId, HashMap<K, Pending<V>>>,
}

/// The store. `K` is the object key, `V` the object payload.
pub struct VersionStore<K: Eq + Hash + Clone, V: Clone> {
    tree: Arc<TxnTree>,
    inner: RwLock<Inner<K, V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> VersionStore<K, V> {
    /// Create an empty store over the given transaction tree.
    pub fn new(tree: Arc<TxnTree>) -> Self {
        VersionStore {
            tree,
            inner: RwLock::new(Inner {
                committed: HashMap::new(),
                pending: HashMap::new(),
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
        self.inner.write().committed.insert(key, value);
    }

    /// Fold `txn`'s pending layer into `parent`'s (subtransaction
    /// commit).
    pub fn commit_into_parent(&self, txn: TxnId, parent: TxnId) {
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
        let mut inner = self.inner.write();
        let mut changes = Vec::new();
        if let Some(layer) = inner.pending.remove(&txn) {
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
        self.inner.write().pending.remove(&txn);
    }

    /// Visit every key/value pair visible to `txn`. Order unspecified.
    pub fn for_each_visible(&self, txn: TxnId, mut f: impl FnMut(&K, &V)) {
        let inner = self.inner.read();
        // Nearest-ancestor-wins overlay.
        let mut overlay: HashMap<&K, &Pending<V>> = HashMap::new();
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
        let mut seen = std::collections::HashSet::new();
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

    fn setup() -> (Arc<TxnTree>, VersionStore<&'static str, i64>) {
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
    fn has_own_pending_ignores_ancestors() {
        let (tree, vs) = setup();
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        vs.put(t, "x", 1);
        assert!(vs.has_own_pending(t, &"x"));
        assert!(!vs.has_own_pending(c, &"x"));
    }
}
