//! The Transaction Manager component (§5.2 of the paper).
//!
//! Its interface is exactly the paper's three operations — *create*,
//! *commit*, *abort* — plus two registration points:
//!
//! * [`ResourceManager`]s (the Object Manager's version store, the lock
//!   manager, the rule catalog) are told to fold, publish or discard a
//!   transaction's effects;
//! * [`TxnHook`]s observe the transaction lifecycle. The Rule Manager
//!   registers a hook whose `before_commit` runs deferred rule firings
//!   while the transaction is in the `Committing` state — the §6.3
//!   protocol: "the Transaction Manager issues an event signal to the
//!   Rule Manager … when all deferred rule firings have completed, the
//!   Rule Manager replies … and the Transaction Manager resumes commit
//!   processing."

use crate::tree::{Transition, TxnState, TxnTree};
use hipac_common::{HipacError, Result, TxnId};
use parking_lot::RwLock;
use std::sync::Arc;

/// A participant in commit/abort processing (version stores, lock
/// managers, catalogs).
pub trait ResourceManager: Send + Sync {
    /// Fold `txn`'s effects into `parent` (subtransaction commit).
    fn on_commit_child(&self, txn: TxnId, parent: TxnId) -> Result<()>;
    /// Publish `txn`'s effects (top-level commit).
    fn on_commit_top(&self, txn: TxnId) -> Result<()>;
    /// Discard `txn`'s effects.
    fn on_abort(&self, txn: TxnId) -> Result<()>;
}

/// Lifecycle observer. The Rule Manager's deferred processing and the
/// transaction-event detector plug in here.
pub trait TxnHook: Send + Sync {
    /// A transaction began.
    fn after_begin(&self, _txn: TxnId) {}

    /// Called with the transaction in `Committing` state, before any
    /// resource manager runs. May create and run subtransactions of
    /// `txn` (deferred rule firings). An error aborts the transaction.
    fn before_commit(&self, _txn: TxnId) -> Result<()> {
        Ok(())
    }

    /// The transaction committed. `top` is true for top-level commits.
    fn after_commit(&self, _txn: TxnId, _top: bool) {}

    /// The transaction aborted (after its effects were discarded).
    fn after_abort(&self, _txn: TxnId, _top: bool) {}
}

/// The Transaction Manager.
pub struct TransactionManager {
    tree: Arc<TxnTree>,
    /// Copied on write by registration, so commit and abort take the
    /// list with one refcount bump instead of copying it.
    resources: RwLock<Arc<Vec<Arc<dyn ResourceManager>>>>,
    hooks: RwLock<Vec<Arc<dyn TxnHook>>>,
}

impl TransactionManager {
    /// Create a manager over a fresh transaction tree.
    pub fn new() -> Self {
        TransactionManager {
            tree: Arc::new(TxnTree::new()),
            resources: RwLock::new(Arc::new(Vec::new())),
            hooks: RwLock::new(Vec::new()),
        }
    }

    /// The shared transaction tree (lock managers and version stores
    /// are built over it).
    pub fn tree(&self) -> &Arc<TxnTree> {
        &self.tree
    }

    /// Register a resource manager. Registration order is the commit
    /// processing order.
    pub fn register_resource(&self, rm: Arc<dyn ResourceManager>) {
        Arc::make_mut(&mut *self.resources.write()).push(rm);
    }

    /// Register a lifecycle hook.
    pub fn register_hook(&self, hook: Arc<dyn TxnHook>) {
        self.hooks.write().push(hook);
    }

    /// Create a top-level transaction (§5.2 *Create Transaction*).
    pub fn begin(&self) -> TxnId {
        let txn = self.tree.begin_top();
        for h in self.hooks.read().iter() {
            h.after_begin(txn);
        }
        txn
    }

    /// Create a subtransaction of `parent`.
    pub fn begin_child(&self, parent: TxnId) -> Result<TxnId> {
        let txn = self.tree.begin_child(parent)?;
        for h in self.hooks.read().iter() {
            h.after_begin(txn);
        }
        Ok(txn)
    }

    /// May `txn` issue operations right now? Enforces the
    /// parent-suspended rule: a transaction with active children cannot
    /// operate.
    pub fn check_operable(&self, txn: TxnId) -> Result<()> {
        let (state, suspended) = self.tree.state_and_suspended(txn)?;
        match state {
            TxnState::Active => {}
            TxnState::Committing => {
                return Err(HipacError::InvalidTxnState {
                    txn,
                    state: "committing",
                })
            }
            TxnState::Committed => {
                return Err(HipacError::InvalidTxnState {
                    txn,
                    state: "committed",
                })
            }
            TxnState::Aborted => return Err(HipacError::TxnAborted(txn)),
        }
        if suspended {
            return Err(HipacError::InvalidTxnState {
                txn,
                state: "suspended (has active subtransactions)",
            });
        }
        Ok(())
    }

    /// Commit `txn` (§5.2 *Commit Transaction*, protocol of §6.3).
    ///
    /// Fails with `InvalidTxnState` if the transaction has active
    /// children. If a `before_commit` hook (deferred rule processing)
    /// fails, the transaction is aborted and the hook's error returned.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        if self.tree.has_live_child(txn)? {
            return Err(HipacError::InvalidTxnState {
                txn,
                state: "has active subtransactions",
            });
        }
        // Claim the transaction for commit. Exactly one of a racing
        // commit/abort pair wins this CAS; a concurrent abort that got
        // there first surfaces as `TxnAborted`.
        match self
            .tree
            .try_transition(txn, &[TxnState::Active], TxnState::Committing)?
        {
            Transition::Applied(_) => {}
            Transition::Refused(TxnState::Aborted) => {
                return Err(HipacError::TxnAborted(txn))
            }
            Transition::Refused(_) => {
                return Err(HipacError::InvalidTxnState {
                    txn,
                    state: "not active",
                })
            }
        }
        // §6.3: signal the commit event; deferred rule firings run now,
        // in subtransactions of `txn`.
        for h in self.hooks.read().iter() {
            if let Err(e) = h.before_commit(txn) {
                // The transaction cannot commit; unwind it.
                self.tree.set_state(txn, TxnState::Active)?;
                self.abort(txn)?;
                return Err(e);
            }
        }
        // Hook-created subtransactions must have terminated.
        if self.tree.has_live_child(txn)? {
            self.tree.set_state(txn, TxnState::Active)?;
            self.abort(txn)?;
            return Err(HipacError::internal(
                "before_commit hook left active subtransactions behind",
            ));
        }
        let parent = self.tree.parent(txn)?;
        let resources = Arc::clone(&self.resources.read());
        let result: Result<()> = (|| {
            match parent {
                Some(p) => {
                    for rm in resources.iter() {
                        rm.on_commit_child(txn, p)?;
                    }
                }
                None => {
                    for rm in resources.iter() {
                        rm.on_commit_top(txn)?;
                    }
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            self.tree.set_state(txn, TxnState::Active)?;
            self.abort(txn)?;
            return Err(e);
        }
        self.tree.set_state(txn, TxnState::Committed)?;
        for h in self.hooks.read().iter() {
            h.after_commit(txn, parent.is_none());
        }
        if parent.is_none() {
            self.tree.prune(txn)?;
        }
        Ok(())
    }

    /// Abort `txn` (§5.2 *Abort Transaction*): active descendants are
    /// aborted first (deepest first), then the transaction's own
    /// effects are discarded.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        self.abort_impl(txn, false)
    }

    /// `tolerate_committed` is set when recursing into children: a
    /// child that committed concurrently is already resolved (its
    /// effects were folded into us and are discarded by our own
    /// `on_abort`), so it is skipped rather than an error.
    fn abort_impl(&self, txn: TxnId, tolerate_committed: bool) -> Result<()> {
        loop {
            // Claim the transaction for abort. Claiming the state first
            // (before touching children or resources) closes the door
            // on new subtransactions: `begin_child` requires an
            // Active/Committing parent.
            match self
                .tree
                .try_transition(txn, &[TxnState::Active], TxnState::Aborted)?
            {
                Transition::Applied(_) => break,
                Transition::Refused(TxnState::Aborted) => return Ok(()), // idempotent
                Transition::Refused(TxnState::Committed) => {
                    if tolerate_committed {
                        return Ok(());
                    }
                    return Err(HipacError::InvalidTxnState {
                        txn,
                        state: "committed",
                    });
                }
                // An in-flight commit owns the transaction; wait for it
                // to resolve (to Committed, or back to Active on a hook
                // failure). Lock waits inside commit processing are
                // bounded by the lock timeout, so this terminates.
                Transition::Refused(TxnState::Committing) => std::thread::yield_now(),
                Transition::Refused(TxnState::Active) => {
                    unreachable!("Active is an expected state")
                }
            }
        }
        for child in self.tree.active_children(txn)? {
            self.abort_impl(child, true)?;
        }
        let resources = Arc::clone(&self.resources.read());
        for rm in resources.iter() {
            rm.on_abort(txn)?;
        }
        let top = self.tree.parent(txn)?.is_none();
        for h in self.hooks.read().iter() {
            h.after_abort(txn, top);
        }
        if top {
            self.tree.prune(txn)?;
        }
        Ok(())
    }

    /// Run `f` in a new top-level transaction, committing on `Ok` and
    /// aborting on `Err`.
    pub fn run_top<T>(&self, f: impl FnOnce(TxnId) -> Result<T>) -> Result<T> {
        let txn = self.begin();
        match f(txn) {
            Ok(v) => {
                self.commit(txn)?;
                Ok(v)
            }
            Err(e) => {
                let _ = self.abort(txn);
                Err(e)
            }
        }
    }

    /// Run `f` in a new subtransaction of `parent`, committing on `Ok`
    /// and aborting on `Err`.
    pub fn run_child<T>(
        &self,
        parent: TxnId,
        f: impl FnOnce(TxnId) -> Result<T>,
    ) -> Result<T> {
        let txn = self.begin_child(parent)?;
        match f(txn) {
            Ok(v) => {
                self.commit(txn)?;
                Ok(v)
            }
            Err(e) => {
                let _ = self.abort(txn);
                Err(e)
            }
        }
    }
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// Records lifecycle callbacks for assertions.
    #[derive(Default)]
    struct Probe {
        log: Mutex<Vec<String>>,
        fail_before_commit: Mutex<Option<TxnId>>,
    }

    impl TxnHook for Probe {
        fn after_begin(&self, txn: TxnId) {
            self.log.lock().push(format!("begin {txn}"));
        }
        fn before_commit(&self, txn: TxnId) -> Result<()> {
            self.log.lock().push(format!("before-commit {txn}"));
            if *self.fail_before_commit.lock() == Some(txn) {
                return Err(HipacError::EvalError("hook veto".into()));
            }
            Ok(())
        }
        fn after_commit(&self, txn: TxnId, top: bool) {
            self.log.lock().push(format!("commit {txn} top={top}"));
        }
        fn after_abort(&self, txn: TxnId, top: bool) {
            self.log.lock().push(format!("abort {txn} top={top}"));
        }
    }

    struct Probe2(Mutex<Vec<String>>);
    impl ResourceManager for Probe2 {
        fn on_commit_child(&self, txn: TxnId, parent: TxnId) -> Result<()> {
            self.0.lock().push(format!("child {txn}->{parent}"));
            Ok(())
        }
        fn on_commit_top(&self, txn: TxnId) -> Result<()> {
            self.0.lock().push(format!("top {txn}"));
            Ok(())
        }
        fn on_abort(&self, txn: TxnId) -> Result<()> {
            self.0.lock().push(format!("abort {txn}"));
            Ok(())
        }
    }

    #[test]
    fn commit_child_then_top_drives_resources() {
        let tm = TransactionManager::new();
        let rm = Arc::new(Probe2(Mutex::new(vec![])));
        tm.register_resource(rm.clone());
        let t = tm.begin();
        let c = tm.begin_child(t).unwrap();
        tm.commit(c).unwrap();
        tm.commit(t).unwrap();
        assert_eq!(
            *rm.0.lock(),
            vec![format!("child {c}->{t}"), format!("top {t}")]
        );
    }

    #[test]
    fn commit_with_active_children_is_rejected() {
        let tm = TransactionManager::new();
        let t = tm.begin();
        let _c = tm.begin_child(t).unwrap();
        assert!(matches!(
            tm.commit(t),
            Err(HipacError::InvalidTxnState { .. })
        ));
    }

    #[test]
    fn parent_suspended_while_child_active() {
        let tm = TransactionManager::new();
        let t = tm.begin();
        tm.check_operable(t).unwrap();
        let c = tm.begin_child(t).unwrap();
        assert!(tm.check_operable(t).is_err(), "parent suspended");
        tm.check_operable(c).unwrap();
        tm.commit(c).unwrap();
        tm.check_operable(t).unwrap();
    }

    #[test]
    fn abort_cascades_to_descendants() {
        let tm = TransactionManager::new();
        let rm = Arc::new(Probe2(Mutex::new(vec![])));
        tm.register_resource(rm.clone());
        let t = tm.begin();
        let c = tm.begin_child(t).unwrap();
        let g = tm.begin_child(c).unwrap();
        tm.abort(t).unwrap();
        // Deepest first.
        assert_eq!(
            *rm.0.lock(),
            vec![format!("abort {g}"), format!("abort {c}"), format!("abort {t}")]
        );
        // The whole tree is pruned.
        assert!(tm.tree().state(t).is_err());
    }

    #[test]
    fn before_commit_failure_aborts() {
        let tm = TransactionManager::new();
        let probe = Arc::new(Probe::default());
        tm.register_hook(probe.clone());
        let t = tm.begin();
        *probe.fail_before_commit.lock() = Some(t);
        let err = tm.commit(t).unwrap_err();
        assert_eq!(err, HipacError::EvalError("hook veto".into()));
        let log = probe.log.lock().clone();
        assert!(log.iter().any(|l| l.starts_with(&format!("abort {t}"))));
        assert!(!log.iter().any(|l| l.starts_with(&format!("commit {t}"))));
    }

    #[test]
    fn hooks_observe_lifecycle_in_order() {
        let tm = TransactionManager::new();
        let probe = Arc::new(Probe::default());
        tm.register_hook(probe.clone());
        let t = tm.begin();
        let c = tm.begin_child(t).unwrap();
        tm.commit(c).unwrap();
        tm.commit(t).unwrap();
        let log = probe.log.lock().clone();
        assert_eq!(
            log,
            vec![
                format!("begin {t}"),
                format!("begin {c}"),
                format!("before-commit {c}"),
                format!("commit {c} top=false"),
                format!("before-commit {t}"),
                format!("commit {t} top=true"),
            ]
        );
    }

    #[test]
    fn run_top_and_run_child_commit_or_abort() {
        let tm = TransactionManager::new();
        let rm = Arc::new(Probe2(Mutex::new(vec![])));
        tm.register_resource(rm.clone());
        let v = tm.run_top(|t| tm.run_child(t, |_c| Ok(42))).unwrap();
        assert_eq!(v, 42);
        let err = tm
            .run_top(|_t| -> Result<()> { Err(HipacError::EvalError("boom".into())) })
            .unwrap_err();
        assert_eq!(err, HipacError::EvalError("boom".into()));
        let log = rm.0.lock().clone();
        assert_eq!(log.len(), 3); // child commit, top commit, abort
        assert!(log[2].starts_with("abort"));
    }

    #[test]
    fn double_abort_is_idempotent_commit_after_abort_fails() {
        let tm = TransactionManager::new();
        let t = tm.begin();
        let c = tm.begin_child(t).unwrap();
        tm.abort(c).unwrap();
        tm.abort(c).unwrap(); // idempotent on a known (unpruned) txn
        assert!(matches!(tm.commit(c), Err(HipacError::TxnAborted(_))));
        tm.commit(t).unwrap();
    }

    #[test]
    fn concurrent_sibling_commits() {
        let tm = Arc::new(TransactionManager::new());
        let t = tm.begin();
        let children: Vec<TxnId> =
            (0..8).map(|_| tm.begin_child(t).unwrap()).collect();
        let mut handles = Vec::new();
        for c in children {
            let tm = Arc::clone(&tm);
            handles.push(std::thread::spawn(move || tm.commit(c)));
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
        tm.commit(t).unwrap();
    }
}
