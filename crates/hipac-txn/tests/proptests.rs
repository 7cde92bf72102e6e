//! Property tests for the transaction substrate.
//!
//! * The lock table maintains Moss's invariant under random operation
//!   sequences: all simultaneous holders of conflicting modes on one
//!   key lie on a single ancestor chain.
//! * The flat lock table agrees with a model that keeps the map-of-maps
//!   representation (holders per key in a map, holdings per transaction
//!   in a set) under random acquire / try_acquire / inherit / release
//!   schedules over a random transaction forest.
//! * The version store agrees with a naive model database under random
//!   nested schedules of put/delete/commit/abort.

use hipac_common::TxnId;
use hipac_txn::{LockManager, LockMode, TxnState, TxnTree, VersionStore};
use proptest::prelude::*;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
enum Op {
    BeginTop,
    /// Child of the i-th live transaction.
    BeginChild(usize),
    /// (txn selector, key, write?)
    Lock(usize, u8, bool),
    /// Commit the i-th live transaction (children first are not
    /// guaranteed by the generator; ineligible commits are skipped).
    Commit(usize),
    Abort(usize),
    Put(usize, u8, i64),
    Delete(usize, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::BeginTop),
        (0usize..8).prop_map(Op::BeginChild),
        (0usize..8, 0u8..4, any::<bool>()).prop_map(|(t, k, w)| Op::Lock(t, k, w)),
        (0usize..8).prop_map(Op::Commit),
        (0usize..8).prop_map(Op::Abort),
        (0usize..8, 0u8..4, any::<i64>()).prop_map(|(t, k, v)| Op::Put(t, k, v)),
        (0usize..8, 0u8..4).prop_map(|(t, k)| Op::Delete(t, k)),
    ]
}

/// The lock table as a map of maps plus holder sets: the
/// representation the flat table replaced, kept as the oracle.
#[derive(Default)]
struct LockModel {
    locks: HashMap<u8, HashMap<TxnId, LockMode>>,
    holdings: HashMap<TxnId, HashSet<u8>>,
}

impl LockModel {
    /// Would `txn` be granted `mode` on `key` without waiting?
    fn grantable(&self, tree: &TxnTree, txn: TxnId, key: u8, mode: LockMode) -> bool {
        self.locks.get(&key).map_or(true, |holders| {
            holders.iter().all(|(h, m)| {
                *h == txn
                    || (mode == LockMode::Read && *m == LockMode::Read)
                    || tree.is_ancestor_or_self(*h, txn)
            })
        })
    }

    fn grant(&mut self, txn: TxnId, key: u8, mode: LockMode) {
        let held = self
            .locks
            .entry(key)
            .or_default()
            .entry(txn)
            .or_insert(mode);
        if mode == LockMode::Write {
            *held = LockMode::Write;
        }
        self.holdings.entry(txn).or_default().insert(key);
    }

    fn release_all(&mut self, txn: TxnId) {
        for key in self.holdings.remove(&txn).unwrap_or_default() {
            let holders = self.locks.get_mut(&key).unwrap();
            holders.remove(&txn);
            if holders.is_empty() {
                self.locks.remove(&key);
            }
        }
    }

    fn inherit_to_parent(&mut self, txn: TxnId, parent: TxnId) {
        for key in self.holdings.remove(&txn).unwrap_or_default() {
            let holders = self.locks.get_mut(&key).unwrap();
            let mode = holders.remove(&txn).unwrap();
            let held = holders.entry(parent).or_insert(mode);
            if mode == LockMode::Write {
                *held = LockMode::Write;
            }
            self.holdings.entry(parent).or_default().insert(key);
        }
    }

    fn held(&self, txn: TxnId, key: u8) -> Option<LockMode> {
        self.locks.get(&key).and_then(|h| h.get(&txn)).copied()
    }
}

#[derive(Debug, Clone)]
enum LockOp {
    BeginTop,
    /// Child of the i-th live transaction.
    BeginChild(usize),
    /// Blocking acquire, issued only when the model says it is granted
    /// at once.
    Acquire(usize, u8, bool),
    TryAcquire(usize, u8, bool),
    /// Commit into the parent (top-level transactions release instead).
    Inherit(usize),
    Release(usize),
}

fn arb_lock_op() -> impl Strategy<Value = LockOp> {
    // `kind` weights the operations: lock requests outnumber the
    // forest changes, releases are rarest.
    (0u8..12, 0usize..16, 0u8..5, any::<bool>()).prop_map(|(kind, t, k, w)| match kind {
        0 => LockOp::BeginTop,
        1 | 2 => LockOp::BeginChild(t),
        3..=5 => LockOp::Acquire(t, k, w),
        6..=8 => LockOp::TryAcquire(t, k, w),
        9 | 10 => LockOp::Inherit(t),
        _ => LockOp::Release(t),
    })
}

fn mode_of(write: bool) -> LockMode {
    if write {
        LockMode::Write
    } else {
        LockMode::Read
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-threaded random schedules: every granted lock state keeps
    /// Moss's invariant, and try_acquire never grants a conflicting
    /// lock.
    #[test]
    fn lock_table_upholds_moss_invariant(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let tree = Arc::new(TxnTree::new());
        let locks: LockManager<u8> =
            LockManager::with_timeout(Arc::clone(&tree), Duration::from_millis(1));
        // live transactions, plus a mirror of who holds what.
        let mut live: Vec<TxnId> = Vec::new();
        let mut holders: HashMap<(TxnId, u8), LockMode> = HashMap::new();
        for op in ops {
            match op {
                Op::BeginTop => live.push(tree.begin_top()),
                Op::BeginChild(i) if !live.is_empty() => {
                    let parent = live[i % live.len()];
                    if let Ok(c) = tree.begin_child(parent) {
                        live.push(c);
                    }
                }
                Op::Lock(i, key, write) if !live.is_empty() => {
                    let txn = live[i % live.len()];
                    let mode = if write { LockMode::Write } else { LockMode::Read };
                    if let Ok(true) = locks.try_acquire(txn, key, mode) {
                        let e = holders.entry((txn, key)).or_insert(mode);
                        if mode == LockMode::Write {
                            *e = LockMode::Write;
                        }
                        // Invariant: every other holder of a
                        // conflicting mode is an ancestor (or self).
                        for ((other, k), omode) in &holders {
                            if *k != key || *other == txn {
                                continue;
                            }
                            let conflict = mode == LockMode::Write
                                || *omode == LockMode::Write;
                            if conflict {
                                prop_assert!(
                                    tree.is_ancestor_or_self(*other, txn),
                                    "conflicting non-ancestor holder {other} vs {txn} on {key}"
                                );
                            }
                        }
                    }
                }
                Op::Commit(i) if !live.is_empty() => {
                    let txn = live[i % live.len()];
                    // Only commit transactions whose children are done.
                    if tree.active_children(txn).map(|c| c.is_empty()).unwrap_or(false)
                        && tree.state(txn).map(|s| s == TxnState::Active).unwrap_or(false)
                    {
                        match tree.parent(txn).unwrap() {
                            Some(p) => {
                                locks.inherit_to_parent(txn, p);
                                // Mirror: move holdings to the parent.
                                let keys: Vec<u8> = holders
                                    .keys()
                                    .filter(|(t, _)| *t == txn)
                                    .map(|(_, k)| *k)
                                    .collect();
                                for k in keys {
                                    let m = holders.remove(&(txn, k)).unwrap();
                                    let e = holders.entry((p, k)).or_insert(m);
                                    if m == LockMode::Write {
                                        *e = LockMode::Write;
                                    }
                                }
                            }
                            None => {
                                locks.release_all(txn);
                                holders.retain(|(t, _), _| *t != txn);
                            }
                        }
                        tree.set_state(txn, TxnState::Committed).unwrap();
                        live.retain(|t| *t != txn);
                    }
                }
                Op::Abort(i) if !live.is_empty() => {
                    let txn = live[i % live.len()];
                    if tree.state(txn).map(|s| s == TxnState::Active).unwrap_or(false)
                        && tree.active_children(txn).map(|c| c.is_empty()).unwrap_or(false)
                    {
                        locks.release_all(txn);
                        holders.retain(|(t, _), _| *t != txn);
                        tree.set_state(txn, TxnState::Aborted).unwrap();
                        live.retain(|t| *t != txn);
                    }
                }
                _ => {}
            }
        }
    }

    /// The flat lock table against the map-of-maps model: after every
    /// step, `held` agrees for every transaction ever begun and every
    /// key, `try_acquire` gives the model's answer, and
    /// `locked_key_count` matches.
    #[test]
    fn lock_table_matches_map_of_maps_model(
        ops in proptest::collection::vec(arb_lock_op(), 1..120)
    ) {
        let tree = Arc::new(TxnTree::new());
        let locks: LockManager<u8> =
            LockManager::with_timeout(Arc::clone(&tree), Duration::from_millis(1));
        let mut model = LockModel::default();
        let mut live: Vec<TxnId> = Vec::new();
        let mut all: Vec<TxnId> = Vec::new();
        for op in ops {
            let pick = |i: usize| live[i % live.len()];
            match op {
                LockOp::BeginTop => {
                    let t = tree.begin_top();
                    live.push(t);
                    all.push(t);
                }
                LockOp::BeginChild(i) if !live.is_empty() => {
                    let c = tree.begin_child(pick(i)).unwrap();
                    live.push(c);
                    all.push(c);
                }
                LockOp::Acquire(i, key, write) if !live.is_empty() => {
                    let (txn, mode) = (pick(i), mode_of(write));
                    if model.grantable(&tree, txn, key, mode) {
                        prop_assert_eq!(locks.acquire(txn, key, mode), Ok(()));
                        model.grant(txn, key, mode);
                    }
                }
                LockOp::TryAcquire(i, key, write) if !live.is_empty() => {
                    let (txn, mode) = (pick(i), mode_of(write));
                    let expect = model.grantable(&tree, txn, key, mode);
                    prop_assert_eq!(
                        locks.try_acquire(txn, key, mode),
                        Ok(expect),
                        "{} {:?} on {}", txn, mode, key
                    );
                    if expect {
                        model.grant(txn, key, mode);
                    }
                }
                LockOp::Inherit(i) if !live.is_empty() => {
                    let txn = pick(i);
                    match tree.parent(txn).unwrap() {
                        Some(p) => {
                            locks.inherit_to_parent(txn, p);
                            model.inherit_to_parent(txn, p);
                        }
                        None => {
                            locks.release_all(txn);
                            model.release_all(txn);
                        }
                    }
                    tree.set_state(txn, TxnState::Committed).unwrap();
                    live.retain(|t| *t != txn);
                }
                LockOp::Release(i) if !live.is_empty() => {
                    let txn = pick(i);
                    locks.release_all(txn);
                    model.release_all(txn);
                    tree.set_state(txn, TxnState::Aborted).unwrap();
                    live.retain(|t| *t != txn);
                }
                _ => {}
            }
            for txn in &all {
                for key in 0u8..5 {
                    prop_assert_eq!(
                        locks.held(*txn, &key),
                        model.held(*txn, key),
                        "{} on {}", txn, key
                    );
                }
            }
            prop_assert_eq!(locks.locked_key_count(), model.locks.len());
        }
    }

    /// The version store matches a model that tracks per-transaction
    /// overlay maps explicitly.
    #[test]
    fn version_store_matches_model(ops in proptest::collection::vec(arb_op(), 1..100)) {
        let tree = Arc::new(TxnTree::new());
        let vs: VersionStore<u8, i64, RandomState> = VersionStore::new(Arc::clone(&tree));
        let mut committed: HashMap<u8, i64> = HashMap::new();
        // model: per live txn, overlay of key -> Option<i64> (None =
        // tombstone)
        let mut overlays: HashMap<TxnId, HashMap<u8, Option<i64>>> = HashMap::new();
        let mut live: Vec<TxnId> = Vec::new();

        // Model read: walk ancestors, fall back to committed.
        fn model_get(
            tree: &TxnTree,
            overlays: &HashMap<TxnId, HashMap<u8, Option<i64>>>,
            committed: &HashMap<u8, i64>,
            txn: TxnId,
            key: u8,
        ) -> Option<i64> {
            for t in tree.ancestors_inclusive(txn) {
                if let Some(layer) = overlays.get(&t) {
                    if let Some(v) = layer.get(&key) {
                        return *v;
                    }
                }
            }
            committed.get(&key).copied()
        }

        for op in ops {
            match op {
                Op::BeginTop => {
                    let t = tree.begin_top();
                    live.push(t);
                    overlays.insert(t, HashMap::new());
                }
                Op::BeginChild(i) if !live.is_empty() => {
                    let parent = live[i % live.len()];
                    if let Ok(c) = tree.begin_child(parent) {
                        live.push(c);
                        overlays.insert(c, HashMap::new());
                    }
                }
                Op::Put(i, key, value) if !live.is_empty() => {
                    let txn = live[i % live.len()];
                    vs.put(txn, key, value);
                    overlays.get_mut(&txn).unwrap().insert(key, Some(value));
                }
                Op::Delete(i, key) if !live.is_empty() => {
                    let txn = live[i % live.len()];
                    vs.delete(txn, key);
                    overlays.get_mut(&txn).unwrap().insert(key, None);
                }
                Op::Commit(i) if !live.is_empty() => {
                    let txn = live[i % live.len()];
                    if !tree.active_children(txn).map(|c| c.is_empty()).unwrap_or(false) {
                        continue;
                    }
                    if tree.state(txn) != Ok(TxnState::Active) {
                        continue;
                    }
                    match tree.parent(txn).unwrap() {
                        Some(p) => {
                            vs.commit_into_parent(txn, p);
                            let layer = overlays.remove(&txn).unwrap();
                            let parent_layer = overlays.get_mut(&p).unwrap();
                            for (k, v) in layer {
                                parent_layer.insert(k, v);
                            }
                        }
                        None => {
                            vs.commit_top(txn);
                            let layer = overlays.remove(&txn).unwrap();
                            for (k, v) in layer {
                                match v {
                                    Some(v) => {
                                        committed.insert(k, v);
                                    }
                                    None => {
                                        committed.remove(&k);
                                    }
                                }
                            }
                        }
                    }
                    tree.set_state(txn, TxnState::Committed).unwrap();
                    live.retain(|t| *t != txn);
                }
                Op::Abort(i) if !live.is_empty() => {
                    let txn = live[i % live.len()];
                    if !tree.active_children(txn).map(|c| c.is_empty()).unwrap_or(false) {
                        continue;
                    }
                    if tree.state(txn) != Ok(TxnState::Active) {
                        continue;
                    }
                    vs.abort(txn);
                    overlays.remove(&txn);
                    tree.set_state(txn, TxnState::Aborted).unwrap();
                    live.retain(|t| *t != txn);
                }
                _ => {}
            }
            // Full equivalence check: every live txn sees the model's
            // view; committed state matches.
            for txn in &live {
                for key in 0u8..4 {
                    prop_assert_eq!(
                        vs.get(*txn, &key),
                        model_get(&tree, &overlays, &committed, *txn, key),
                        "txn {} key {}", txn, key
                    );
                }
                prop_assert_eq!(vs.len_visible(*txn), {
                    let mut n = 0;
                    for key in 0u8..4 {
                        if model_get(&tree, &overlays, &committed, *txn, key).is_some() {
                            n += 1;
                        }
                    }
                    n
                });
            }
            for key in 0u8..4 {
                prop_assert_eq!(vs.get_committed(&key), committed.get(&key).copied());
            }
        }
    }
}
