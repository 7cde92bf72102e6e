//! The transaction forest: parent/child structure and state tracking.

use hipac_common::id::IdAllocator;
use hipac_common::{HipacError, Result, TxnId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::time::Instant;

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// May perform operations (unless it has active children — the
    /// parent-suspended rule).
    Active,
    /// Commit processing has begun (deferred rule firings run here, in
    /// subtransactions of the committing transaction).
    Committing,
    Committed,
    Aborted,
}

/// Outcome of [`TxnTree::try_transition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The transition applied; carries the previous state.
    Applied(TxnState),
    /// The transaction was in none of the expected states; carries the
    /// (unchanged) state that was observed.
    Refused(TxnState),
}

#[derive(Debug, Clone)]
struct TxnMeta {
    parent: Option<TxnId>,
    children: Vec<TxnId>,
    state: TxnState,
    /// Root-distance, 0 for top-level transactions.
    depth: usize,
    /// Global begin sequence number; used to pick deadlock victims
    /// ("youngest dies") and exposed for diagnostics.
    seq: u64,
    /// Absolute deadline after which waits on behalf of this
    /// transaction should give up (request deadline propagation).
    deadline: Option<Instant>,
}

/// The shared registry of all transactions.
///
/// Terminated transactions are retained until their whole tree
/// terminates, then pruned, so memory does not grow with history.
#[derive(Default)]
pub struct TxnTree {
    txns: RwLock<HashMap<TxnId, TxnMeta>>,
    ids: IdAllocator,
    seqs: IdAllocator,
}

impl TxnTree {
    /// An empty forest.
    pub fn new() -> Self {
        TxnTree {
            txns: RwLock::new(HashMap::new()),
            ids: IdAllocator::new(1),
            seqs: IdAllocator::new(1),
        }
    }

    /// Begin a top-level transaction.
    pub fn begin_top(&self) -> TxnId {
        let id = TxnId(self.ids.alloc());
        self.txns.write().insert(
            id,
            TxnMeta {
                parent: None,
                children: Vec::new(),
                state: TxnState::Active,
                depth: 0,
                seq: self.seqs.alloc(),
                deadline: None,
            },
        );
        id
    }

    /// Begin a subtransaction of `parent`.
    ///
    /// The parent must be `Active` or `Committing` (deferred rule
    /// firings run in subtransactions created during commit processing,
    /// §6.3).
    pub fn begin_child(&self, parent: TxnId) -> Result<TxnId> {
        let mut txns = self.txns.write();
        let (depth, ok) = match txns.get(&parent) {
            Some(meta) => (
                meta.depth + 1,
                matches!(meta.state, TxnState::Active | TxnState::Committing),
            ),
            None => return Err(HipacError::UnknownTxn(parent)),
        };
        if !ok {
            return Err(HipacError::ParentNotActive(parent));
        }
        let id = TxnId(self.ids.alloc());
        txns.insert(
            id,
            TxnMeta {
                parent: Some(parent),
                children: Vec::new(),
                state: TxnState::Active,
                depth,
                seq: self.seqs.alloc(),
                deadline: None,
            },
        );
        txns.get_mut(&parent)
            .expect("checked above")
            .children
            .push(id);
        Ok(id)
    }

    /// Current state, or error if unknown.
    pub fn state(&self, txn: TxnId) -> Result<TxnState> {
        self.txns
            .read()
            .get(&txn)
            .map(|m| m.state)
            .ok_or(HipacError::UnknownTxn(txn))
    }

    /// Atomically transition `txn` to `to` iff its current state is one
    /// of `from`.
    ///
    /// This is the compare-and-swap that lets concurrent commit and
    /// abort race safely: exactly one claimant wins (sees `Applied`),
    /// every loser observes the state that beat it (`Refused`) and can
    /// decide — e.g. an abort that loses to an in-flight commit spins
    /// until the commit resolves.
    pub fn try_transition(
        &self,
        txn: TxnId,
        from: &[TxnState],
        to: TxnState,
    ) -> Result<Transition> {
        let mut txns = self.txns.write();
        let meta = txns.get_mut(&txn).ok_or(HipacError::UnknownTxn(txn))?;
        if from.contains(&meta.state) {
            let prev = meta.state;
            meta.state = to;
            Ok(Transition::Applied(prev))
        } else {
            Ok(Transition::Refused(meta.state))
        }
    }

    /// Transition `txn` to `state`.
    pub fn set_state(&self, txn: TxnId, state: TxnState) -> Result<()> {
        let mut txns = self.txns.write();
        match txns.get_mut(&txn) {
            Some(meta) => {
                meta.state = state;
                Ok(())
            }
            None => Err(HipacError::UnknownTxn(txn)),
        }
    }

    /// Parent of `txn` (None for top-level).
    pub fn parent(&self, txn: TxnId) -> Result<Option<TxnId>> {
        self.txns
            .read()
            .get(&txn)
            .map(|m| m.parent)
            .ok_or(HipacError::UnknownTxn(txn))
    }

    /// Direct children of `txn` in creation order.
    pub fn children(&self, txn: TxnId) -> Result<Vec<TxnId>> {
        self.txns
            .read()
            .get(&txn)
            .map(|m| m.children.clone())
            .ok_or(HipacError::UnknownTxn(txn))
    }

    /// Children of `txn` that are still `Active` or `Committing`.
    pub fn active_children(&self, txn: TxnId) -> Result<Vec<TxnId>> {
        let txns = self.txns.read();
        let meta = txns.get(&txn).ok_or(HipacError::UnknownTxn(txn))?;
        Ok(meta
            .children
            .iter()
            .copied()
            .filter(|c| {
                matches!(
                    txns.get(c).map(|m| m.state),
                    Some(TxnState::Active) | Some(TxnState::Committing)
                )
            })
            .collect())
    }

    /// Nesting depth (0 = top-level).
    pub fn depth(&self, txn: TxnId) -> Result<usize> {
        self.txns
            .read()
            .get(&txn)
            .map(|m| m.depth)
            .ok_or(HipacError::UnknownTxn(txn))
    }

    /// Begin sequence number (smaller = older).
    pub fn seq(&self, txn: TxnId) -> Result<u64> {
        self.txns
            .read()
            .get(&txn)
            .map(|m| m.seq)
            .ok_or(HipacError::UnknownTxn(txn))
    }

    /// Attach (or clear) an absolute deadline to `txn`.
    ///
    /// The network layer sets this on the top-level transaction a
    /// deadlined request runs in; lock waits performed by the
    /// transaction or any descendant observe it via
    /// [`TxnTree::effective_deadline`] and give up with
    /// [`HipacError::DeadlineExceeded`] once it passes.
    pub fn set_deadline(&self, txn: TxnId, deadline: Option<Instant>) -> Result<()> {
        let mut txns = self.txns.write();
        match txns.get_mut(&txn) {
            Some(meta) => {
                meta.deadline = deadline;
                Ok(())
            }
            None => Err(HipacError::UnknownTxn(txn)),
        }
    }

    /// The tightest deadline along `txn`'s ancestor chain (inclusive),
    /// or `None` when no ancestor carries one.
    pub fn effective_deadline(&self, txn: TxnId) -> Option<Instant> {
        let txns = self.txns.read();
        let mut best: Option<Instant> = None;
        let mut cur = Some(txn);
        while let Some(id) = cur {
            let Some(meta) = txns.get(&id) else { break };
            best = match (best, meta.deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            cur = meta.parent;
        }
        best
    }

    /// Is `a` equal to or an ancestor of `b`?
    ///
    /// Unknown transactions are treated as "no" rather than an error so
    /// lock-table checks can race with termination safely.
    pub fn is_ancestor_or_self(&self, a: TxnId, b: TxnId) -> bool {
        if a == b {
            return true;
        }
        let txns = self.txns.read();
        let mut cur = b;
        loop {
            match txns.get(&cur).and_then(|m| m.parent) {
                Some(p) if p == a => return true,
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// The first `Some` that `f` returns along the chain from `txn` up
    /// to its top-level ancestor — [`TxnTree::ancestors_inclusive`]
    /// without the allocation, for per-row paths.
    pub fn find_in_chain<T>(&self, txn: TxnId, mut f: impl FnMut(TxnId) -> Option<T>) -> Option<T> {
        let txns = self.txns.read();
        let mut cur = Some(txn);
        while let Some(id) = cur {
            if let Some(found) = f(id) {
                return Some(found);
            }
            cur = txns.get(&id).and_then(|m| m.parent);
        }
        None
    }

    /// Chain from `txn` up to (and including) its top-level ancestor.
    pub fn ancestors_inclusive(&self, txn: TxnId) -> Vec<TxnId> {
        let txns = self.txns.read();
        let mut out = Vec::new();
        let mut cur = Some(txn);
        while let Some(id) = cur {
            out.push(id);
            cur = txns.get(&id).and_then(|m| m.parent);
        }
        out
    }

    /// Top-level ancestor of `txn` (itself if top-level).
    pub fn top_ancestor(&self, txn: TxnId) -> TxnId {
        *self
            .ancestors_inclusive(txn)
            .last()
            .expect("chain contains at least txn itself")
    }

    /// Remove the whole terminated tree rooted at top-level `top`.
    ///
    /// Call after a top-level transaction commits or aborts; frees the
    /// metadata of the entire tree. No-op (error) if any member is
    /// still active.
    pub fn prune(&self, top: TxnId) -> Result<()> {
        let mut txns = self.txns.write();
        if txns.get(&top).map(|m| m.parent).ok_or(HipacError::UnknownTxn(top))?.is_some() {
            return Err(HipacError::internal("prune called on non-top transaction"));
        }
        // Collect the subtree, verifying it is fully terminated.
        let mut stack = vec![top];
        let mut subtree = Vec::new();
        while let Some(id) = stack.pop() {
            let meta = txns.get(&id).ok_or(HipacError::UnknownTxn(id))?;
            if matches!(meta.state, TxnState::Active | TxnState::Committing) {
                return Err(HipacError::InvalidTxnState {
                    txn: id,
                    state: "active",
                });
            }
            stack.extend(meta.children.iter().copied());
            subtree.push(id);
        }
        for id in subtree {
            txns.remove(&id);
        }
        Ok(())
    }

    /// Number of known (unpruned) transactions; diagnostics only.
    pub fn len(&self) -> usize {
        self.txns.read().len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.txns.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_and_children() {
        let tree = TxnTree::new();
        let t1 = tree.begin_top();
        let t2 = tree.begin_top();
        assert_ne!(t1, t2);
        assert_eq!(tree.depth(t1).unwrap(), 0);
        let c1 = tree.begin_child(t1).unwrap();
        let c2 = tree.begin_child(t1).unwrap();
        let g = tree.begin_child(c1).unwrap();
        assert_eq!(tree.depth(g).unwrap(), 2);
        assert_eq!(tree.children(t1).unwrap(), vec![c1, c2]);
        assert_eq!(tree.parent(g).unwrap(), Some(c1));
        assert_eq!(tree.parent(t1).unwrap(), None);
    }

    #[test]
    fn ancestor_relation() {
        let tree = TxnTree::new();
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        let g = tree.begin_child(c).unwrap();
        let other = tree.begin_top();
        assert!(tree.is_ancestor_or_self(t, g));
        assert!(tree.is_ancestor_or_self(c, g));
        assert!(tree.is_ancestor_or_self(g, g));
        assert!(!tree.is_ancestor_or_self(g, t));
        assert!(!tree.is_ancestor_or_self(other, g));
        assert_eq!(tree.ancestors_inclusive(g), vec![g, c, t]);
        assert_eq!(tree.top_ancestor(g), t);
        assert_eq!(tree.top_ancestor(t), t);
    }

    #[test]
    fn child_of_terminated_parent_rejected() {
        let tree = TxnTree::new();
        let t = tree.begin_top();
        tree.set_state(t, TxnState::Committed).unwrap();
        assert!(matches!(
            tree.begin_child(t),
            Err(HipacError::ParentNotActive(_))
        ));
        // Committing parents may still spawn children (deferred rules).
        let t2 = tree.begin_top();
        tree.set_state(t2, TxnState::Committing).unwrap();
        assert!(tree.begin_child(t2).is_ok());
    }

    #[test]
    fn active_children_tracks_state() {
        let tree = TxnTree::new();
        let t = tree.begin_top();
        let a = tree.begin_child(t).unwrap();
        let b = tree.begin_child(t).unwrap();
        assert_eq!(tree.active_children(t).unwrap().len(), 2);
        tree.set_state(a, TxnState::Committed).unwrap();
        assert_eq!(tree.active_children(t).unwrap(), vec![b]);
        tree.set_state(b, TxnState::Aborted).unwrap();
        assert!(tree.active_children(t).unwrap().is_empty());
    }

    #[test]
    fn prune_removes_terminated_tree() {
        let tree = TxnTree::new();
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        let g = tree.begin_child(c).unwrap();
        for id in [g, c, t] {
            tree.set_state(id, TxnState::Committed).unwrap();
        }
        assert_eq!(tree.len(), 3);
        tree.prune(t).unwrap();
        assert!(tree.is_empty());
        assert!(matches!(tree.state(t), Err(HipacError::UnknownTxn(_))));
    }

    #[test]
    fn prune_refuses_active_members() {
        let tree = TxnTree::new();
        let t = tree.begin_top();
        let _c = tree.begin_child(t).unwrap();
        tree.set_state(t, TxnState::Committed).unwrap();
        // child still active
        assert!(tree.prune(t).is_err());
    }

    #[test]
    fn seq_orders_by_begin_time() {
        let tree = TxnTree::new();
        let a = tree.begin_top();
        let b = tree.begin_top();
        assert!(tree.seq(a).unwrap() < tree.seq(b).unwrap());
    }

    #[test]
    fn try_transition_is_a_state_cas() {
        let tree = TxnTree::new();
        let t = tree.begin_top();
        assert_eq!(
            tree.try_transition(t, &[TxnState::Active], TxnState::Committing)
                .unwrap(),
            Transition::Applied(TxnState::Active)
        );
        // A second claim from Active is refused and leaves the state alone.
        assert_eq!(
            tree.try_transition(t, &[TxnState::Active], TxnState::Aborted)
                .unwrap(),
            Transition::Refused(TxnState::Committing)
        );
        assert_eq!(tree.state(t).unwrap(), TxnState::Committing);
        // Multiple expected states are accepted.
        assert_eq!(
            tree.try_transition(
                t,
                &[TxnState::Active, TxnState::Committing],
                TxnState::Committed
            )
            .unwrap(),
            Transition::Applied(TxnState::Committing)
        );
        assert!(tree.try_transition(TxnId(999), &[TxnState::Active], TxnState::Aborted).is_err());
    }

    #[test]
    fn deadlines_propagate_down_and_take_the_minimum() {
        let tree = TxnTree::new();
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        let g = tree.begin_child(c).unwrap();
        assert_eq!(tree.effective_deadline(g), None);
        let soon = Instant::now() + std::time::Duration::from_secs(5);
        let later = soon + std::time::Duration::from_secs(5);
        tree.set_deadline(t, Some(later)).unwrap();
        assert_eq!(tree.effective_deadline(g), Some(later));
        // A tighter deadline on an intermediate node wins.
        tree.set_deadline(c, Some(soon)).unwrap();
        assert_eq!(tree.effective_deadline(g), Some(soon));
        assert_eq!(tree.effective_deadline(t), Some(later));
        tree.set_deadline(t, None).unwrap();
        tree.set_deadline(c, None).unwrap();
        assert_eq!(tree.effective_deadline(g), None);
        assert!(tree.set_deadline(TxnId(999), Some(soon)).is_err());
    }

    #[test]
    fn unknown_txn_errors() {
        let tree = TxnTree::new();
        let ghost = TxnId(999);
        assert!(tree.state(ghost).is_err());
        assert!(tree.begin_child(ghost).is_err());
        // Self counts even for unknown ids (a == b short-circuits).
        assert!(tree.is_ancestor_or_self(ghost, ghost));
    }
}
