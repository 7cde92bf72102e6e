//! [`ActiveDatabase`]: the assembled engine and the application
//! interface of Figure 4.1.

use hipac_common::{
    Clock, HipacError, ReplCounters, Result, SystemClock, Timestamp, TxnId, Value, VirtualClock,
};
use hipac_event::EventRegistry;
use hipac_object::ObjectStore;
use hipac_rules::manager::FnHandler;
use hipac_rules::{Matching, RuleManager};
use hipac_storage::{DurableStore, FaultPolicy};
use hipac_txn::TransactionManager;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Which clock drives temporal events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// A manually advanced clock ([`ActiveDatabase::advance_clock`]);
    /// deterministic, the default for tests, simulations and
    /// benchmarks.
    #[default]
    Virtual,
    /// Wall-clock time; call [`ActiveDatabase::poll_temporal`]
    /// periodically (e.g. from a timer thread) to fire due events.
    System,
}

/// Configuration builder for [`ActiveDatabase`].
pub struct Builder {
    durable_dir: Option<PathBuf>,
    workers: usize,
    firing_parallelism: usize,
    lock_timeout: Duration,
    clock: ClockMode,
    storage_faults: Option<Arc<FaultPolicy>>,
    separate_retry_limit: usize,
    matching: Matching,
    group_commit: bool,
    group_commit_window: Duration,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            durable_dir: None,
            workers: 4,
            firing_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            lock_timeout: Duration::from_secs(10),
            clock: ClockMode::Virtual,
            storage_faults: None,
            separate_retry_limit: 3,
            matching: Matching::Network,
            group_commit: true,
            group_commit_window: Duration::ZERO,
        }
    }
}

impl Builder {
    /// Persist committed data under `dir` (WAL + checkpointed data
    /// file); reopening the same directory recovers the database.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Worker threads for separate-coupled rule firings.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// How many sibling action subtransactions of one immediate or
    /// deferred rule group may execute concurrently (§3's concurrent
    /// sibling firing). Defaults to the number of available cores;
    /// `1` is the sequential in-order behavior.
    pub fn firing_parallelism(mut self, n: usize) -> Self {
        self.firing_parallelism = n;
        self
    }

    /// Lock-wait timeout (bounds blocking under contention).
    pub fn lock_timeout(mut self, d: Duration) -> Self {
        self.lock_timeout = d;
        self
    }

    /// Clock mode for temporal events.
    pub fn clock(mut self, mode: ClockMode) -> Self {
        self.clock = mode;
        self
    }

    /// How many times a separate-coupled firing whose worker
    /// transaction aborts transiently (deadlock, lock timeout,
    /// deadline) is retried before being dead-lettered. `0` disables
    /// retries.
    pub fn separate_retry_limit(mut self, n: usize) -> Self {
        self.separate_retry_limit = n;
        self
    }

    /// Inject a storage fault policy (crash testing; see
    /// `hipac_storage::fault`). Only meaningful together with
    /// [`Builder::durable`]; the policy crosses every WAL append/sync,
    /// page write/allocation, file/directory sync and checkpoint step
    /// the durable store performs.
    pub fn storage_faults(mut self, faults: Arc<FaultPolicy>) -> Self {
        self.storage_faults = Some(faults);
        self
    }

    /// Turn WAL group commit on (the default) or off for the durable
    /// store; off is the one-fsync-per-commit differential baseline.
    /// Only meaningful together with [`Builder::durable`].
    pub fn group_commit(mut self, enabled: bool) -> Self {
        self.group_commit = enabled;
        self
    }

    /// Straggler window a group-commit flush leader waits for late
    /// committers before fsyncing the cohort. `Duration::ZERO` (the
    /// default) is pure piggyback batching: commits that arrive while
    /// the previous fsync runs form the next cohort, and a lone
    /// committer pays no added latency (degenerate-to-immediate).
    pub fn group_commit_window(mut self, window: Duration) -> Self {
        self.group_commit_window = window;
        self
    }

    /// How signals resolve candidate rules: [`Matching::Network`] (the
    /// default) probes the discrimination network, O(matches) per
    /// signal; [`Matching::Naive`] walks the full event→rules list —
    /// the differential-testing oracle.
    pub fn matching(mut self, mode: Matching) -> Self {
        self.matching = mode;
        self
    }

    /// Assemble the engine.
    pub fn build(self) -> Result<ActiveDatabase> {
        let tm = Arc::new(TransactionManager::new());
        let durable = match &self.durable_dir {
            Some(dir) => {
                let faults = self.storage_faults.unwrap_or_else(FaultPolicy::none);
                let d = Arc::new(DurableStore::open_with_faults(
                    dir,
                    hipac_storage::store::DEFAULT_CHECKPOINT_THRESHOLD,
                    faults,
                )?);
                d.set_group_commit(self.group_commit, self.group_commit_window);
                Some(d)
            }
            None => None,
        };
        let store =
            ObjectStore::with_lock_timeout(Arc::clone(&tm), durable.clone(), self.lock_timeout)?;
        let virtual_clock = match self.clock {
            ClockMode::Virtual => Some(Arc::new(VirtualClock::new())),
            ClockMode::System => None,
        };
        let clock: Arc<dyn Clock> = match &virtual_clock {
            Some(vc) => Arc::clone(vc) as Arc<dyn Clock>,
            None => Arc::new(SystemClock),
        };
        let events = Arc::new(EventRegistry::new(clock));
        // Replay persisted external event definitions before the Rule
        // Manager loads persisted rules that reference them.
        if let Some(d) = &durable {
            for (key, bytes) in d.scan_prefix(b"e")? {
                let name = std::str::from_utf8(&key[1..])
                    .map_err(|_| HipacError::Corruption("bad event name".into()))?;
                let row = hipac_common::codec::decode_row(&bytes)?;
                let formals = row
                    .into_iter()
                    .map(|v| match v {
                        Value::Str(s) => Ok(s),
                        _ => Err(HipacError::Corruption("bad event formals".into())),
                    })
                    .collect::<Result<Vec<_>>>()?;
                events.define_external(name, formals)?;
            }
        }
        let rules = RuleManager::with_matching(
            Arc::clone(&tm),
            Arc::clone(&store),
            Arc::clone(&events),
            self.workers,
            self.firing_parallelism,
            self.matching,
            durable.clone(),
        )?;
        rules.set_separate_retry_limit(self.separate_retry_limit);
        Ok(ActiveDatabase {
            tm,
            store,
            events,
            rules,
            virtual_clock,
            durable,
            repl: Arc::new(ReplCounters::new(hipac_common::ROLE_PRIMARY)),
        })
    }
}

/// A point-in-time snapshot of engine activity, cheap to take (atomic
/// counter reads plus two short lock holds). Served remotely by
/// `hipac-net`'s STATS command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Event signals run through the Rule Manager.
    pub signals_processed: u64,
    /// Rule firings triggered (all coupling modes).
    pub rules_triggered: u64,
    /// Condition evaluations that came back true.
    pub conditions_satisfied: u64,
    /// Rule actions executed.
    pub actions_executed: u64,
    /// Conditions evaluated against the full store.
    pub store_evaluations: u64,
    /// Conditions evaluated against operation deltas.
    pub delta_evaluations: u64,
    /// Condition-evaluation cache hits.
    pub cache_hits: u64,
    /// Transactions currently holding deferred firings.
    pub deferred_txns: u64,
    /// Total deferred firings queued across those transactions.
    pub deferred_firings: u64,
    /// Separate-mode firings submitted to the worker pool and not yet
    /// finished.
    pub pool_outstanding: u64,
    /// Errors buffered from separate-mode firings, not yet drained via
    /// [`ActiveDatabase::take_separate_errors`].
    pub separate_errors: u64,
    /// Immediate/deferred action firings dispatched through the
    /// parallel sibling pool (a subset of `actions_executed`).
    pub firings_parallel: u64,
    /// Sibling action jobs enqueued on the firing pool and not yet
    /// claimed by any thread.
    pub pool_queue_depth: u64,
    /// Separate-mode firing attempts retried after a transient
    /// (txn-fatal) abort such as a deadlock or lock timeout.
    pub separate_retries: u64,
    /// Separate-mode firings that exhausted their retry budget (or hit
    /// a non-retryable error) and were dead-lettered.
    pub separate_dead_letters: u64,
    /// Replication role: 0 primary, 1 replica
    /// (`hipac_common::repl::ROLE_*`).
    pub repl_role: u64,
    /// Highest LSN shipped to any replica (primary side).
    pub last_shipped_lsn: u64,
    /// Highest primary LSN durably applied (replica side; on the
    /// primary, the highest progress any replica reported).
    pub last_applied_lsn: u64,
    /// Durable frontier minus applied watermark, in bytes.
    pub repl_lag_bytes: u64,
    /// Push frames fanned out to subscribers homed on a replica.
    pub replica_pushes: u64,
    /// Replica → primary promotions in this node's lineage.
    pub promotions: u64,
    /// Live discrimination-network nodes (type nodes, attribute
    /// groups, equality buckets, bound keys); 0 in naive matching.
    pub match_index_nodes: u64,
    /// Signals resolved through the discrimination network.
    pub match_probes: u64,
    /// Rules excluded from candidate sets across all network probes.
    pub match_pruned: u64,
    /// Always 0: no match memo counts it. Kept for readers that still
    /// report it.
    pub memo_hits: u64,
    /// WAL group-commit cohort flushes (each is one fsync); 0 when the
    /// store is in-memory or group commit is off.
    pub group_commits: u64,
    /// Transactions committed through group-commit cohorts.
    pub group_commit_txns: u64,
    /// Largest cohort a single fsync has covered.
    pub group_commit_largest: u64,
    /// Replication epoch this node operates under (v9): bumped by
    /// promotion, adopted from the wire when fenced, 0 in a
    /// never-promoted fleet.
    pub repl_epoch: u64,
    /// Divergence LSN (previous epoch's space) recorded at this node's
    /// last promotion — the truncate point for a rejoining ex-primary.
    pub repl_fence_prev: u64,
    /// This node's durable LSN at its last promotion — the watermark a
    /// rejoining ex-primary resubscribes from.
    pub repl_fence_start: u64,
    /// Replication messages refused (or refusals received) for
    /// carrying a stale epoch.
    pub repl_stale_epochs: u64,
    /// Replicas currently subscribed to this primary's hub.
    pub repl_peers: u64,
    /// Lowest progress watermark across subscribed replicas.
    pub repl_min_peer_applied: u64,
    /// Peers whose anti-entropy stream digest matches the primary's.
    pub repl_digest_ok_peers: u64,
    /// Digest comparisons that disagreed (cumulative).
    pub repl_digest_mismatches: u64,
    /// Replica acks required to release a semi-sync commit (0 when
    /// semi-sync is off).
    pub repl_quorum: u64,
    /// 1 while the latest semi-sync wait met its quorum.
    pub repl_quorum_ok: u64,
}

/// The assembled active DBMS.
///
/// The accessors expose the paper's components directly — applications
/// use [`ActiveDatabase::store`] for data operations,
/// [`ActiveDatabase::begin`]/[`ActiveDatabase::commit`]/
/// [`ActiveDatabase::abort`] for transaction operations,
/// [`ActiveDatabase::define_event`]/[`ActiveDatabase::signal_event`]
/// for event operations, and [`ActiveDatabase::register_handler`] for
/// application operations (the four modules of Figure 4.1).
pub struct ActiveDatabase {
    tm: Arc<TransactionManager>,
    store: Arc<ObjectStore>,
    events: Arc<EventRegistry>,
    rules: Arc<RuleManager>,
    virtual_clock: Option<Arc<VirtualClock>>,
    durable: Option<Arc<DurableStore>>,
    repl: Arc<ReplCounters>,
}

impl ActiveDatabase {
    /// Start configuring a database.
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// In-memory database with defaults.
    pub fn open_in_memory() -> Result<ActiveDatabase> {
        Builder::default().build()
    }

    // ---- component access ------------------------------------------------

    /// The Object Manager (§5.1): DDL, DML, queries.
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// The Transaction Manager (§5.2).
    pub fn txn(&self) -> &Arc<TransactionManager> {
        &self.tm
    }

    /// The Event Detectors (§5.3).
    pub fn events(&self) -> &Arc<EventRegistry> {
        &self.events
    }

    /// The Rule Manager (§5.4).
    pub fn rules(&self) -> &Arc<RuleManager> {
        &self.rules
    }

    /// The durable store, when built with [`Builder::durable`]. The
    /// network layer uses it to persist the reply journal and push
    /// outbox alongside the data they acknowledge.
    pub fn durable_store(&self) -> Option<&Arc<DurableStore>> {
        self.durable.as_ref()
    }

    /// Replication gauges shared with the network layer (primary
    /// shipper) and `hipac-repl` (replica apply loop, promotion).
    pub fn repl_counters(&self) -> &Arc<ReplCounters> {
        &self.repl
    }

    // ---- transaction operations (Figure 4.1) -----------------------------

    /// Create a top-level transaction.
    pub fn begin(&self) -> TxnId {
        self.tm.begin()
    }

    /// Create a subtransaction.
    pub fn begin_child(&self, parent: TxnId) -> Result<TxnId> {
        self.tm.begin_child(parent)
    }

    /// Commit (runs deferred rule firings first, §6.3).
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.tm.commit(txn)
    }

    /// Abort (cascades to descendants).
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        self.tm.abort(txn)
    }

    /// Run `f` in a new top-level transaction; commit on `Ok`, abort on
    /// `Err`.
    pub fn run_top<T>(&self, f: impl FnOnce(TxnId) -> Result<T>) -> Result<T> {
        self.tm.run_top(f)
    }

    /// Run `f` in a subtransaction of `parent`.
    pub fn run_child<T>(&self, parent: TxnId, f: impl FnOnce(TxnId) -> Result<T>) -> Result<T> {
        self.tm.run_child(parent, f)
    }

    /// Attach (or clear, with `None`) a wall-clock deadline to a
    /// transaction. Lock waits by the transaction or its descendants
    /// return `DeadlineExceeded` once the deadline passes; used by
    /// `hipac-net` to propagate per-request deadlines into the engine.
    pub fn set_txn_deadline(&self, txn: TxnId, deadline: Option<std::time::Instant>) -> Result<()> {
        self.tm.tree().set_deadline(txn, deadline)
    }

    // ---- event operations (Figure 4.1) ------------------------------------

    /// Define an application-specific event with named parameters
    /// (§4.1 *define*). In durable mode, the definition persists and is
    /// replayed on reopen.
    pub fn define_event(&self, name: &str, params: &[&str]) -> Result<hipac_common::EventId> {
        let id = self
            .events
            .define_external(name, params.iter().map(|s| s.to_string()).collect())?;
        if let Some(d) = &self.durable {
            let mut key = Vec::with_capacity(1 + name.len());
            key.push(b'e');
            key.extend_from_slice(name.as_bytes());
            let row: Vec<Value> = params.iter().map(|p| Value::from(*p)).collect();
            d.commit(
                // TxnId(0) labels non-transactional metadata writes.
                TxnId(0),
                [hipac_storage::StoreOp::Put {
                    key,
                    value: hipac_common::codec::encode_row(&row),
                }],
            )?;
        }
        Ok(id)
    }

    /// Raise an application-specific event (§4.1 *signal*). Pass the
    /// transaction when the signal is part of one; immediate/deferred
    /// rules then couple to it.
    pub fn signal_event(
        &self,
        name: &str,
        args: HashMap<String, Value>,
        txn: Option<TxnId>,
    ) -> Result<()> {
        self.events.signal_external(name, args, txn)
    }

    // ---- application operations (Figure 4.1) ------------------------------

    /// Register an application handler callable from rule actions
    /// (§4.1: HiPAC as client, application as server).
    pub fn register_handler<F>(&self, name: &str, f: F)
    where
        F: Fn(&str, &HashMap<String, Value>) -> Result<()> + Send + Sync + 'static,
    {
        self.rules.register_handler(name, Arc::new(FnHandler(f)));
    }

    /// Remove a previously registered handler (e.g. when the
    /// application endpoint disconnects). Returns whether it existed.
    pub fn unregister_handler(&self, name: &str) -> bool {
        self.rules.unregister_handler(name)
    }

    // ---- observability -----------------------------------------------------

    /// Snapshot engine activity counters.
    pub fn stats(&self) -> EngineStats {
        use std::sync::atomic::Ordering::Relaxed;
        let s = &self.rules.stats;
        let (deferred_txns, deferred_firings) = self.rules.deferred_sizes();
        let gc = self.durable.as_ref().map(|d| d.group_commit_stats());
        EngineStats {
            signals_processed: s.signals_processed.load(Relaxed),
            rules_triggered: s.rules_triggered.load(Relaxed),
            conditions_satisfied: s.conditions_satisfied.load(Relaxed),
            actions_executed: s.actions_executed.load(Relaxed),
            store_evaluations: s.store_evaluations.load(Relaxed),
            delta_evaluations: s.delta_evaluations.load(Relaxed),
            cache_hits: s.cache_hits.load(Relaxed),
            deferred_txns: deferred_txns as u64,
            deferred_firings: deferred_firings as u64,
            pool_outstanding: self.rules.pool_outstanding() as u64,
            separate_errors: self.rules.separate_error_count() as u64,
            firings_parallel: s.firings_parallel.load(Relaxed),
            pool_queue_depth: self.rules.firing_queue_depth() as u64,
            separate_retries: s.separate_retries.load(Relaxed),
            separate_dead_letters: s.separate_dead_letters.load(Relaxed),
            repl_role: self.repl.role.load(Relaxed),
            last_shipped_lsn: self.repl.last_shipped_lsn.load(Relaxed),
            last_applied_lsn: self.repl.last_applied_lsn.load(Relaxed),
            repl_lag_bytes: self.repl.lag_bytes.load(Relaxed),
            replica_pushes: self.repl.replica_pushes.load(Relaxed),
            promotions: self.repl.promotions.load(Relaxed),
            match_index_nodes: self.rules.match_index_nodes(),
            match_probes: self.rules.match_probes(),
            match_pruned: self.rules.match_pruned(),
            memo_hits: 0,
            group_commits: gc.map(|g| g.groups).unwrap_or(0),
            group_commit_txns: gc.map(|g| g.grouped_txns).unwrap_or(0),
            group_commit_largest: gc.map(|g| g.largest_group).unwrap_or(0),
            repl_epoch: self.repl.epoch.load(Relaxed),
            repl_fence_prev: self.repl.fence_prev.load(Relaxed),
            repl_fence_start: self.repl.fence_start.load(Relaxed),
            repl_stale_epochs: self.repl.stale_epochs.load(Relaxed),
            repl_peers: self.repl.peers.load(Relaxed),
            repl_min_peer_applied: self.repl.min_peer_applied.load(Relaxed),
            repl_digest_ok_peers: self.repl.digest_ok_peers.load(Relaxed),
            repl_digest_mismatches: self.repl.digest_mismatches.load(Relaxed),
            repl_quorum: self.repl.quorum.load(Relaxed),
            repl_quorum_ok: self.repl.quorum_ok.load(Relaxed),
        }
    }

    // ---- clock / temporal --------------------------------------------------

    /// Advance the virtual clock by `delta` microseconds and fire due
    /// temporal events. Errors under [`ClockMode::System`].
    pub fn advance_clock(&self, delta: u64) -> Result<Timestamp> {
        let vc = self.virtual_clock.as_ref().ok_or_else(|| {
            HipacError::internal("advance_clock requires ClockMode::Virtual")
        })?;
        let t = vc.advance(delta);
        self.events.poll_temporal()?;
        Ok(t)
    }

    /// Fire due temporal events against the current clock.
    pub fn poll_temporal(&self) -> Result<()> {
        self.events.poll_temporal()
    }

    /// Current database time.
    pub fn now(&self) -> Timestamp {
        self.events.clock().now()
    }

    // ---- lifecycle ----------------------------------------------------------

    /// Wait for all separate-coupled firings submitted so far.
    pub fn quiesce(&self) {
        self.rules.quiesce();
    }

    /// Drain errors from separate-coupled firings.
    pub fn take_separate_errors(&self) -> Vec<(hipac_common::RuleId, HipacError)> {
        self.rules.take_separate_errors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipac_common::ValueType;
    use hipac_object::{AttrDef, Query};

    #[test]
    fn builder_defaults_and_components() {
        let db = ActiveDatabase::open_in_memory().unwrap();
        assert_eq!(db.now(), 0, "virtual clock starts at zero");
        let t = db.begin();
        db.store()
            .create_class(t, "c", None, vec![AttrDef::new("x", ValueType::Int)])
            .unwrap();
        db.store().insert(t, "c", vec![Value::from(1)]).unwrap();
        db.commit(t).unwrap();
        db.run_top(|t| {
            assert_eq!(db.store().query(t, &Query::all("c"), None)?.len(), 1);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn advance_clock_requires_virtual_mode() {
        let db = ActiveDatabase::builder()
            .clock(ClockMode::System)
            .build()
            .unwrap();
        assert!(db.advance_clock(1).is_err());
        assert!(db.now() > 0, "system clock is wall time");
        db.poll_temporal().unwrap();
    }

    #[test]
    fn storage_faults_thread_through_the_builder() {
        let dir = std::env::temp_dir().join(format!("hipac-db-faults-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let faults = hipac_storage::FaultPolicy::count_only();
        let db = ActiveDatabase::builder()
            .durable(&dir)
            .storage_faults(Arc::clone(&faults))
            .build()
            .unwrap();
        db.run_top(|t| {
            db.store()
                .create_class(t, "c", None, vec![AttrDef::new("x", ValueType::Int)])?;
            db.store().insert(t, "c", vec![Value::from(1)])?;
            Ok(())
        })
        .unwrap();
        assert!(
            faults.hits() > 0,
            "durable commits must cross the injected fault points"
        );
    }

    #[test]
    fn event_define_and_signal_roundtrip() {
        let db = ActiveDatabase::open_in_memory().unwrap();
        db.define_event("ping", &["n"]).unwrap();
        let mut args = HashMap::new();
        args.insert("n".to_string(), Value::from(1));
        db.signal_event("ping", args, None).unwrap();
        db.quiesce();
        assert!(db.take_separate_errors().is_empty());
    }
}
