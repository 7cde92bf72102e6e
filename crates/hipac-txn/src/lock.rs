//! Lock manager implementing Moss's nested-transaction locking rules.
//!
//! Grant rules (§3 of the paper, after Moss 1985):
//!
//! * a transaction may acquire a **read** lock iff every *write* holder
//!   is itself or an ancestor;
//! * a transaction may acquire a **write** lock iff every holder (read
//!   or write) is itself or an ancestor;
//! * on commit, a subtransaction's locks are **inherited** by its
//!   parent; a top-level commit (or any abort) releases them.
//!
//! Blocked requests park on a condition variable, which is notified
//! only while some request is parked on it (`LockState::parked`), so a
//! commit that nobody waits for makes no wake syscall. Every blocked
//! request maintains its edges in a wait-for graph; if adding them closes a
//! cycle the *requester* is chosen as the deadlock victim and receives
//! [`HipacError::Deadlock`] (aborting a transaction running on another
//! thread would race with its work; having the closer of the cycle die
//! is the classic textbook resolution and guarantees progress). A wait
//! timeout bounds worst-case blocking.
//!
//! # Representation
//!
//! The table is flat. A key's holders are a short list of
//! `(TxnId, LockMode)`, not a map, and `grant`, `release_all` and
//! `inherit_to_parent` scan it linearly, as `blockers` always has. Most
//! keys have one holder (a row is locked by the one transaction that
//! touched it), which [`Holders`] keeps inline, so a query that locks
//! every row it returns allocates nothing per row; a second holder (an
//! ancestor that inherited the lock, or another reader) moves them into
//! a `Vec`. The object layer's class keys have more: every query
//! read-locks its class until the top-level commit, so a popular
//! class's list holds one entry per open transaction that read it, and
//! the scans grow with the number of concurrent readers.
//!
//! The reverse index `holdings` lists each transaction's keys in a
//! `Vec`; a key is pushed exactly once, when the transaction first
//! becomes one of its holders (by a grant, or by inheriting it from a
//! committed child), so the two indexes always describe the same pairs.
//!
//! Every map in the table is keyed on the keyed id hasher
//! ([`hipac_common::idhash`]); `K` must hash cheaply, write at most one
//! client-chosen word, and hash any name it carries through a keyed
//! digest (the object layer's lock key does all three: clients pick
//! object ids through the wire's `Update` and `Delete`).

use crate::tree::{TxnState, TxnTree};
use hipac_common::{HipacError, IdMap, IdSet, Result, TxnId};
use parking_lot::{Condvar, Mutex};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Lock modes. `Write` subsumes `Read`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Read,
    Write,
}

impl LockMode {
    fn max(self, other: LockMode) -> LockMode {
        if self == LockMode::Write || other == LockMode::Write {
            LockMode::Write
        } else {
            LockMode::Read
        }
    }
}

/// A key's holders, each transaction at most once: one inline, more in
/// a list. An emptied list is empty, never `One`.
enum Holders {
    One([(TxnId, LockMode); 1]),
    Many(Vec<(TxnId, LockMode)>),
}

impl Holders {
    fn as_slice(&self) -> &[(TxnId, LockMode)] {
        match self {
            Holders::One(one) => one,
            Holders::Many(many) => many,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(TxnId, LockMode)] {
        match self {
            Holders::One(one) => one,
            Holders::Many(many) => many,
        }
    }

    fn push(&mut self, holder: (TxnId, LockMode)) {
        match self {
            Holders::One([first]) => *self = Holders::Many(vec![*first, holder]),
            Holders::Many(many) if many.is_empty() => *self = Holders::One([holder]),
            Holders::Many(many) => many.push(holder),
        }
    }

    /// Drop `txn`, returning the mode it held.
    fn remove(&mut self, txn: TxnId) -> Option<LockMode> {
        let at = self.as_slice().iter().position(|(t, _)| *t == txn)?;
        match self {
            Holders::One([(_, mode)]) => {
                let mode = *mode;
                *self = Holders::Many(Vec::new());
                Some(mode)
            }
            Holders::Many(many) => Some(many.swap_remove(at).1),
        }
    }
}

struct LockState<K> {
    /// Per-key holders, each transaction at most once.
    locks: IdMap<K, Holders>,
    /// Reverse index: keys held by each transaction, each key once.
    holdings: IdMap<TxnId, Vec<K>>,
    /// Wait-for graph: blocked requester → current blockers.
    waits_for: IdMap<TxnId, IdSet<TxnId>>,
    /// Requests parked on the condition variable: one more just before
    /// a request waits, one fewer once its wait returns, both under the
    /// table mutex. A change to the table notifies only when it is
    /// non-zero.
    parked: usize,
}

impl<K: Eq + Hash + Clone> LockState<K> {
    /// Record `txn` as a holder of `key` in at least `mode`.
    fn grant(&mut self, txn: TxnId, key: &K, mode: LockMode) {
        if let Some(holders) = self.locks.get_mut(key) {
            let mine = holders.as_mut_slice().iter_mut().find(|(t, _)| *t == txn);
            if let Some((_, held)) = mine {
                *held = held.max(mode);
                return;
            }
            holders.push((txn, mode));
        } else {
            self.locks.insert(key.clone(), Holders::One([(txn, mode)]));
        }
        self.holdings.entry(txn).or_default().push(key.clone());
    }
}

/// Observer invoked after every successful lock grant with the
/// requesting transaction, the key, and the *requested* mode (the held
/// mode may be stronger if the transaction already had a write lock).
///
/// The tracer runs outside the lock-state mutex, after the grant is
/// visible, so strict two-phase locking guarantees that the order in
/// which a tracer observes two *conflicting* grants is the order in
/// which the transactions actually accessed the key. The serializability
/// checker in `hipac-check` builds its schedules from this seam.
pub type LockTracer<K> = Arc<dyn Fn(TxnId, &K, LockMode) + Send + Sync>;

/// The lock manager, generic over the lockable key type (the Object
/// Manager locks objects, classes and rules).
pub struct LockManager<K: Eq + Hash + Clone> {
    tree: Arc<TxnTree>,
    state: Mutex<LockState<K>>,
    cv: Condvar,
    timeout: Duration,
    tracer: Mutex<Option<LockTracer<K>>>,
    /// Whether `tracer` is set: grants skip the tracer mutex when not.
    /// Stored (`Release`) under the tracer mutex; a grant that loads it
    /// set (`Acquire`) still reads the tracer through the mutex.
    tracing: AtomicBool,
}

impl<K: Eq + Hash + Clone> LockManager<K> {
    /// Create a lock manager over the given transaction tree with the
    /// default 10 s wait timeout.
    pub fn new(tree: Arc<TxnTree>) -> Self {
        Self::with_timeout(tree, Duration::from_secs(10))
    }

    /// Create with an explicit wait timeout.
    pub fn with_timeout(tree: Arc<TxnTree>, timeout: Duration) -> Self {
        LockManager {
            tree,
            state: Mutex::new(LockState {
                locks: IdMap::default(),
                holdings: IdMap::default(),
                waits_for: IdMap::default(),
                parked: 0,
            }),
            cv: Condvar::new(),
            timeout,
            tracer: Mutex::new(None),
            tracing: AtomicBool::new(false),
        }
    }

    /// Install (or clear) the grant tracer. See [`LockTracer`].
    pub fn set_tracer(&self, tracer: Option<LockTracer<K>>) {
        let mut slot = self.tracer.lock();
        self.tracing.store(tracer.is_some(), Ordering::Release);
        *slot = tracer;
    }

    fn trace_grant(&self, txn: TxnId, key: &K, mode: LockMode) {
        if !self.tracing.load(Ordering::Acquire) {
            return;
        }
        let tracer = self.tracer.lock().clone();
        if let Some(t) = tracer {
            t(txn, key, mode);
        }
    }

    /// Transactions (other than `txn` and its ancestors) whose holds on
    /// `key` conflict with `mode`.
    fn blockers(
        &self,
        state: &LockState<K>,
        txn: TxnId,
        key: &K,
        mode: LockMode,
    ) -> IdSet<TxnId> {
        let Some(holders) = state.locks.get(key) else {
            return IdSet::default();
        };
        holders
            .as_slice()
            .iter()
            .filter(|(h, m)| {
                *h != txn
                    && match mode {
                        LockMode::Read => *m == LockMode::Write,
                        LockMode::Write => true,
                    }
                    && !self.tree.is_ancestor_or_self(*h, txn)
            })
            .map(|(h, _)| *h)
            .collect()
    }

    /// Does the requester `from` reach itself through the wait-for
    /// graph extended with `from → seeds`?
    fn closes_cycle(
        state: &LockState<K>,
        from: TxnId,
        seeds: &IdSet<TxnId>,
    ) -> bool {
        let mut stack: Vec<TxnId> = seeds.iter().copied().collect();
        let mut seen = IdSet::default();
        while let Some(t) = stack.pop() {
            if t == from {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = state.waits_for.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Acquire `mode` on `key` for `txn`, blocking as needed.
    ///
    /// Errors: [`HipacError::Deadlock`] if waiting would close a cycle,
    /// [`HipacError::LockTimeout`] after the configured timeout,
    /// [`HipacError::DeadlineExceeded`] when the transaction's
    /// effective request deadline (see [`TxnTree::effective_deadline`])
    /// passes while waiting, [`HipacError::TxnAborted`] if the
    /// transaction was aborted while waiting.
    pub fn acquire(&self, txn: TxnId, key: K, mode: LockMode) -> Result<()> {
        let mut state = self.state.lock();
        loop {
            // The transaction may have been aborted by someone else
            // (e.g. a parent abort) while we were waiting.
            match self.tree.state(txn) {
                Ok(TxnState::Active) | Ok(TxnState::Committing) => {}
                Ok(_) | Err(_) => {
                    state.waits_for.remove(&txn);
                    return Err(HipacError::TxnAborted(txn));
                }
            }
            let blockers = self.blockers(&state, txn, &key, mode);
            if blockers.is_empty() {
                state.grant(txn, &key, mode);
                state.waits_for.remove(&txn);
                drop(state);
                self.trace_grant(txn, &key, mode);
                return Ok(());
            }
            if Self::closes_cycle(&state, txn, &blockers) {
                state.waits_for.remove(&txn);
                self.wake_parked(&state);
                return Err(HipacError::Deadlock(txn));
            }
            // A request deadline (inherited from any ancestor) clamps
            // the wait: a transaction past its deadline stops waiting
            // rather than hold its place in the queue.
            let deadline = self.tree.effective_deadline(txn);
            let wait = match deadline {
                Some(d) => {
                    let now = std::time::Instant::now();
                    if now >= d {
                        state.waits_for.remove(&txn);
                        self.wake_parked(&state);
                        return Err(HipacError::DeadlineExceeded(txn));
                    }
                    self.timeout.min(d - now)
                }
                None => self.timeout,
            };
            state.waits_for.insert(txn, blockers);
            state.parked += 1;
            let timed_out = self.cv.wait_for(&mut state, wait).timed_out();
            state.parked -= 1;
            if timed_out {
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    state.waits_for.remove(&txn);
                    self.wake_parked(&state);
                    return Err(HipacError::DeadlineExceeded(txn));
                }
                if wait >= self.timeout {
                    state.waits_for.remove(&txn);
                    return Err(HipacError::LockTimeout(txn));
                }
                // Deadline-clamped wait elapsed but the clock has not
                // quite reached the deadline: loop and re-check.
            }
        }
    }

    /// Wake every parked request to re-check the table, if any is
    /// parked. The caller holds the table mutex, so a request that is
    /// about to park has either counted itself already or will see
    /// the change before it parks.
    fn wake_parked(&self, state: &LockState<K>) {
        if state.parked > 0 {
            self.cv.notify_all();
        }
    }

    /// Non-blocking acquire; `Ok(false)` when it would block.
    pub fn try_acquire(&self, txn: TxnId, key: K, mode: LockMode) -> Result<bool> {
        let mut state = self.state.lock();
        let blockers = self.blockers(&state, txn, &key, mode);
        if !blockers.is_empty() {
            return Ok(false);
        }
        state.grant(txn, &key, mode);
        drop(state);
        self.trace_grant(txn, &key, mode);
        Ok(true)
    }

    /// Mode `txn` currently holds on `key`, if any (ancestor holds do
    /// not count).
    pub fn held(&self, txn: TxnId, key: &K) -> Option<LockMode> {
        self.state
            .lock()
            .locks
            .get(key)
            .and_then(|h| h.as_slice().iter().find(|(t, _)| *t == txn))
            .map(|(_, m)| *m)
    }

    /// Release everything `txn` holds (abort path, or top-level
    /// commit).
    pub fn release_all(&self, txn: TxnId) {
        let mut state = self.state.lock();
        if let Some(keys) = state.holdings.remove(&txn) {
            for key in keys {
                if let Some(holders) = state.locks.get_mut(&key) {
                    holders.remove(txn);
                    if holders.as_slice().is_empty() {
                        state.locks.remove(&key);
                    }
                }
            }
        }
        state.waits_for.remove(&txn);
        self.wake_parked(&state);
    }

    /// Transfer all of `txn`'s locks to `parent` (subtransaction
    /// commit). The parent retains the stronger mode where both held.
    pub fn inherit_to_parent(&self, txn: TxnId, parent: TxnId) {
        let mut state = self.state.lock();
        let LockState {
            locks, holdings, ..
        } = &mut *state;
        if let Some(keys) = holdings.remove(&txn) {
            for key in keys {
                let Some(holders) = locks.get_mut(&key) else {
                    continue;
                };
                let Some(mode) = holders.remove(txn) else {
                    continue;
                };
                match holders
                    .as_mut_slice()
                    .iter_mut()
                    .find(|(t, _)| *t == parent)
                {
                    Some((_, held)) => *held = held.max(mode),
                    None => {
                        holders.push((parent, mode));
                        holdings.entry(parent).or_default().push(key);
                    }
                }
            }
        }
        state.waits_for.remove(&txn);
        self.wake_parked(&state);
    }

    /// Number of keys currently locked (diagnostics).
    pub fn locked_key_count(&self) -> usize {
        self.state.lock().locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    type Lm = LockManager<&'static str>;

    fn setup() -> (Arc<TxnTree>, Lm) {
        let tree = Arc::new(TxnTree::new());
        let lm = LockManager::with_timeout(Arc::clone(&tree), Duration::from_millis(400));
        (tree, lm)
    }

    #[test]
    fn shared_reads_and_exclusive_writes() {
        let (tree, lm) = setup();
        let a = tree.begin_top();
        let b = tree.begin_top();
        lm.acquire(a, "x", LockMode::Read).unwrap();
        lm.acquire(b, "x", LockMode::Read).unwrap();
        assert!(!lm.try_acquire(b, "x", LockMode::Write).unwrap());
        lm.release_all(a);
        assert!(lm.try_acquire(b, "x", LockMode::Write).unwrap());
        assert_eq!(lm.held(b, &"x"), Some(LockMode::Write));
    }

    #[test]
    fn holders_move_between_inline_and_list() {
        let (tree, lm) = setup();
        let a = tree.begin_top();
        let b = tree.begin_top();
        let c = tree.begin_child(a).unwrap();
        // One holder, then two, then one, then none.
        lm.acquire(a, "x", LockMode::Read).unwrap();
        lm.acquire(b, "x", LockMode::Read).unwrap();
        lm.release_all(a);
        assert_eq!(lm.held(b, &"x"), Some(LockMode::Read));
        lm.release_all(b);
        assert_eq!(lm.locked_key_count(), 0);
        // A child's only hold passes to its parent; a hold both share
        // keeps the stronger mode.
        lm.acquire(c, "y", LockMode::Write).unwrap();
        lm.acquire(a, "z", LockMode::Read).unwrap();
        lm.acquire(c, "z", LockMode::Write).unwrap();
        lm.inherit_to_parent(c, a);
        assert_eq!(lm.held(a, &"y"), Some(LockMode::Write));
        assert_eq!(lm.held(a, &"z"), Some(LockMode::Write));
        assert_eq!((lm.held(c, &"y"), lm.held(c, &"z")), (None, None));
        assert!(!lm.try_acquire(b, "y", LockMode::Read).unwrap());
        lm.release_all(a);
        assert_eq!(lm.locked_key_count(), 0);
        assert!(lm.try_acquire(b, "z", LockMode::Write).unwrap());
    }

    #[test]
    fn write_excludes_read_from_strangers_but_not_descendants() {
        let (tree, lm) = setup();
        let t = tree.begin_top();
        let child = tree.begin_child(t).unwrap();
        let stranger = tree.begin_top();
        lm.acquire(t, "x", LockMode::Write).unwrap();
        // Moss rule: descendant may read (and write) through an
        // ancestor's write lock.
        assert!(lm.try_acquire(child, "x", LockMode::Read).unwrap());
        assert!(lm.try_acquire(child, "x", LockMode::Write).unwrap());
        assert!(!lm.try_acquire(stranger, "x", LockMode::Read).unwrap());
    }

    #[test]
    fn sibling_write_conflicts() {
        let (tree, lm) = setup();
        let t = tree.begin_top();
        let c1 = tree.begin_child(t).unwrap();
        let c2 = tree.begin_child(t).unwrap();
        lm.acquire(c1, "x", LockMode::Write).unwrap();
        assert!(
            !lm.try_acquire(c2, "x", LockMode::Write).unwrap(),
            "siblings are not ancestors of each other"
        );
        assert!(!lm.try_acquire(c2, "x", LockMode::Read).unwrap());
        // Parent cannot bypass its own child's lock either (the child
        // is not an ancestor of the parent).
        assert!(!lm.try_acquire(t, "x", LockMode::Write).unwrap());
    }

    #[test]
    fn commit_inheritance_moves_locks_upward() {
        let (tree, lm) = setup();
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        let sibling = tree.begin_child(t).unwrap();
        lm.acquire(c, "x", LockMode::Write).unwrap();
        assert!(!lm.try_acquire(sibling, "x", LockMode::Read).unwrap());
        // Child commits: parent inherits the write lock, so the other
        // child can now read through it.
        lm.inherit_to_parent(c, t);
        assert_eq!(lm.held(t, &"x"), Some(LockMode::Write));
        assert_eq!(lm.held(c, &"x"), None);
        assert!(lm.try_acquire(sibling, "x", LockMode::Read).unwrap());
    }

    #[test]
    fn inheritance_keeps_stronger_mode() {
        let (tree, lm) = setup();
        let t = tree.begin_top();
        let c = tree.begin_child(t).unwrap();
        lm.acquire(t, "x", LockMode::Read).unwrap();
        lm.acquire(c, "x", LockMode::Write).unwrap();
        lm.inherit_to_parent(c, t);
        assert_eq!(lm.held(t, &"x"), Some(LockMode::Write));
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let (tree, lm) = setup();
        let lm = Arc::new(lm);
        let a = tree.begin_top();
        let b = tree.begin_top();
        lm.acquire(a, "x", LockMode::Write).unwrap();
        let lm2 = Arc::clone(&lm);
        let handle = thread::spawn(move || lm2.acquire(b, "x", LockMode::Write));
        thread::sleep(Duration::from_millis(50));
        lm.release_all(a);
        handle.join().unwrap().unwrap();
        assert_eq!(lm.held(b, &"x"), Some(LockMode::Write));
    }

    #[test]
    fn deadlock_is_detected_and_victim_errors() {
        let (tree, lm) = setup();
        let lm = Arc::new(lm);
        let a = tree.begin_top();
        let b = tree.begin_top();
        lm.acquire(a, "x", LockMode::Write).unwrap();
        lm.acquire(b, "y", LockMode::Write).unwrap();
        let lm2 = Arc::clone(&lm);
        // a blocks on y (held by b)…
        let ha = thread::spawn(move || lm2.acquire(a, "y", LockMode::Write));
        thread::sleep(Duration::from_millis(50));
        // …then b requests x (held by a): cycle, b must die.
        let err = lm.acquire(b, "x", LockMode::Write).unwrap_err();
        assert_eq!(err, HipacError::Deadlock(b));
        // Unblock a by releasing b's locks (as its abort handler would).
        lm.release_all(b);
        ha.join().unwrap().unwrap();
    }

    #[test]
    fn upgrade_deadlock_between_two_readers() {
        let (tree, lm) = setup();
        let lm = Arc::new(lm);
        let a = tree.begin_top();
        let b = tree.begin_top();
        lm.acquire(a, "x", LockMode::Read).unwrap();
        lm.acquire(b, "x", LockMode::Read).unwrap();
        let lm2 = Arc::clone(&lm);
        let ha = thread::spawn(move || lm2.acquire(a, "x", LockMode::Write));
        thread::sleep(Duration::from_millis(50));
        let err = lm.acquire(b, "x", LockMode::Write).unwrap_err();
        assert_eq!(err, HipacError::Deadlock(b));
        lm.release_all(b);
        ha.join().unwrap().unwrap();
        assert_eq!(lm.held(a, &"x"), Some(LockMode::Write));
    }

    #[test]
    fn lock_wait_times_out() {
        let (tree, lm) = setup();
        let a = tree.begin_top();
        let b = tree.begin_top();
        lm.acquire(a, "x", LockMode::Write).unwrap();
        let err = lm.acquire(b, "x", LockMode::Read).unwrap_err();
        assert_eq!(err, HipacError::LockTimeout(b));
    }

    #[test]
    fn deadline_cuts_lock_wait_short() {
        let (tree, lm) = setup(); // 400 ms lock timeout
        let a = tree.begin_top();
        let b = tree.begin_top();
        lm.acquire(a, "x", LockMode::Write).unwrap();
        tree.set_deadline(b, Some(std::time::Instant::now() + Duration::from_millis(60)))
            .unwrap();
        let started = std::time::Instant::now();
        let err = lm.acquire(b, "x", LockMode::Read).unwrap_err();
        assert_eq!(err, HipacError::DeadlineExceeded(b));
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "deadline pre-empted the 400 ms lock timeout: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn deadline_inherited_from_parent_applies_to_child_waits() {
        let (tree, lm) = setup();
        let holder = tree.begin_top();
        lm.acquire(holder, "x", LockMode::Write).unwrap();
        let top = tree.begin_top();
        let child = tree.begin_child(top).unwrap();
        tree.set_deadline(top, Some(std::time::Instant::now() + Duration::from_millis(60)))
            .unwrap();
        let err = lm.acquire(child, "x", LockMode::Write).unwrap_err();
        assert_eq!(err, HipacError::DeadlineExceeded(child));
    }

    #[test]
    fn expired_deadline_fails_only_when_blocked() {
        let (tree, lm) = setup();
        let a = tree.begin_top();
        tree.set_deadline(a, Some(std::time::Instant::now() - Duration::from_millis(1)))
            .unwrap();
        // Uncontended acquires still succeed: the deadline only stops
        // *waiting*, it does not poison the transaction by itself.
        lm.acquire(a, "x", LockMode::Write).unwrap();
        let b = tree.begin_top();
        tree.set_deadline(b, Some(std::time::Instant::now() - Duration::from_millis(1)))
            .unwrap();
        let err = lm.acquire(b, "x", LockMode::Read).unwrap_err();
        assert_eq!(err, HipacError::DeadlineExceeded(b));
    }

    #[test]
    fn aborted_waiter_errors_out() {
        let (tree, lm) = setup();
        let lm = Arc::new(lm);
        let a = tree.begin_top();
        let b = tree.begin_top();
        lm.acquire(a, "x", LockMode::Write).unwrap();
        let lm2 = Arc::clone(&lm);
        let tree2 = Arc::clone(&tree);
        let hb = thread::spawn(move || {
            let r = lm2.acquire(b, "x", LockMode::Write);
            (r, tree2)
        });
        thread::sleep(Duration::from_millis(50));
        tree.set_state(b, TxnState::Aborted).unwrap();
        // Any notify re-checks the waiter's state.
        lm.release_all(TxnId(999_999)); // no-op release still notifies
        let (r, _) = hb.join().unwrap();
        assert_eq!(r.unwrap_err(), HipacError::TxnAborted(b));
    }

    /// Start `txn`'s request for `key` on a thread of its own, and
    /// return once it is parked.
    fn park(
        lm: &Arc<Lm>,
        txn: TxnId,
        key: &'static str,
        mode: LockMode,
    ) -> thread::JoinHandle<Result<()>> {
        let before = lm.state.lock().parked;
        let lm2 = Arc::clone(lm);
        let handle = thread::spawn(move || lm2.acquire(txn, key, mode));
        let start = std::time::Instant::now();
        while lm.state.lock().parked == before {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "{txn:?} never parked"
            );
            thread::yield_now();
        }
        handle
    }

    #[test]
    fn parked_count_returns_to_zero_on_every_exit() {
        let (tree, lm) = setup(); // 400 ms lock timeout
        let lm = Arc::new(lm);
        let parked = || lm.state.lock().parked;
        let a = tree.begin_top();
        let b = tree.begin_top();
        lm.acquire(a, "x", LockMode::Write).unwrap();

        // Grant: the holder's release wakes the parked request.
        let waiter = park(&lm, b, "x", LockMode::Write);
        lm.release_all(a);
        waiter.join().unwrap().unwrap();
        assert_eq!(parked(), 0, "after a grant");

        // Timeout: the wait runs out.
        let c = tree.begin_top();
        let waiter = park(&lm, c, "x", LockMode::Read);
        assert_eq!(waiter.join().unwrap(), Err(HipacError::LockTimeout(c)));
        assert_eq!(parked(), 0, "after a timeout");

        // Deadline: the wait is clamped to it and ends there.
        let d = tree.begin_top();
        tree.set_deadline(
            d,
            Some(std::time::Instant::now() + Duration::from_millis(300)),
        )
        .unwrap();
        let waiter = park(&lm, d, "x", LockMode::Read);
        assert_eq!(waiter.join().unwrap(), Err(HipacError::DeadlineExceeded(d)));
        assert_eq!(parked(), 0, "after a deadline");

        // Deadlock: e parks on y, held by b; b's request for z, held by
        // e, closes the cycle. The victim never parks, and e parks
        // again after the victim's wake until b's locks go.
        let e = tree.begin_top();
        lm.acquire(b, "y", LockMode::Write).unwrap();
        lm.acquire(e, "z", LockMode::Write).unwrap();
        let waiter = park(&lm, e, "y", LockMode::Write);
        assert_eq!(
            lm.acquire(b, "z", LockMode::Write),
            Err(HipacError::Deadlock(b))
        );
        assert_eq!(parked(), 1, "only e is parked");
        lm.release_all(b);
        waiter.join().unwrap().unwrap();
        assert_eq!(parked(), 0, "after a deadlock");

        // Abort while parked: any notify makes the waiter re-check.
        let f = tree.begin_top();
        let waiter = park(&lm, f, "y", LockMode::Read);
        tree.set_state(f, TxnState::Aborted).unwrap();
        lm.release_all(TxnId(999_999));
        assert_eq!(waiter.join().unwrap(), Err(HipacError::TxnAborted(f)));
        assert_eq!(parked(), 0, "after an abort");
    }

    #[test]
    fn release_cleans_empty_entries() {
        let (tree, lm) = setup();
        let a = tree.begin_top();
        lm.acquire(a, "x", LockMode::Read).unwrap();
        lm.acquire(a, "y", LockMode::Write).unwrap();
        assert_eq!(lm.locked_key_count(), 2);
        lm.release_all(a);
        assert_eq!(lm.locked_key_count(), 0);
    }

    #[test]
    fn tracer_observes_grants_with_requested_mode() {
        let (tree, lm) = setup();
        type GrantLog = Vec<(TxnId, &'static str, LockMode)>;
        let log: Arc<Mutex<GrantLog>> = Arc::new(Mutex::new(vec![]));
        let log2 = Arc::clone(&log);
        lm.set_tracer(Some(Arc::new(move |txn, key: &&'static str, mode| {
            log2.lock().push((txn, key, mode));
        })));
        let a = tree.begin_top();
        lm.acquire(a, "x", LockMode::Write).unwrap();
        // Re-read under a held write lock: tracer sees the *requested*
        // Read even though the held mode stays Write.
        lm.acquire(a, "x", LockMode::Read).unwrap();
        assert!(lm.try_acquire(a, "y", LockMode::Read).unwrap());
        lm.set_tracer(None);
        lm.acquire(a, "z", LockMode::Write).unwrap(); // not traced
        assert_eq!(
            *log.lock(),
            vec![
                (a, "x", LockMode::Write),
                (a, "x", LockMode::Read),
                (a, "y", LockMode::Read),
            ]
        );
    }

    #[test]
    fn reacquire_held_lock_is_idempotent() {
        let (tree, lm) = setup();
        let a = tree.begin_top();
        lm.acquire(a, "x", LockMode::Read).unwrap();
        lm.acquire(a, "x", LockMode::Read).unwrap();
        lm.acquire(a, "x", LockMode::Write).unwrap(); // self-upgrade
        assert_eq!(lm.held(a, &"x"), Some(LockMode::Write));
        lm.acquire(a, "x", LockMode::Read).unwrap(); // does not downgrade
        assert_eq!(lm.held(a, &"x"), Some(LockMode::Write));
    }
}
