//! Serializability checking for the HiPAC active DBMS reproduction.
//!
//! The paper's correctness requirement (§3) is that a top-level
//! transaction together with all of its rule-firing subtransactions —
//! immediate and deferred — behaves as **one serializable unit**, and
//! that separate-mode firings are ordinary top-level transactions that
//! serialize with everything else. This crate checks that requirement on
//! *actual executions* instead of trusting the lock manager:
//!
//! * [`ScheduleRecorder`] plugs into the transaction manager's existing
//!   seams — it is a [`hipac_txn::ResourceManager`] for lifecycle
//!   (subtransaction commits fold read/write sets into the parent, so a
//!   cascade of rule firings collapses into its top-level ancestor;
//!   aborts discard) and a [`hipac_txn::LockTracer`] for data accesses
//!   (every granted read/write lock is an access).
//! * [`check_serializable`] builds the conflict graph over the committed
//!   history — an edge `T1 → T2` for every pair of accesses to the same
//!   key, at least one a write, with `T1`'s access first — and searches
//!   it for a cycle. Acyclic ⇒ the history is conflict-serializable in
//!   the commit order induced by the edges; a cycle is returned as a
//!   concrete witness ([`Violation`]) naming the transactions, keys and
//!   access sequence numbers involved.
//!
//! Why lock grants are a faithful access log: the lock manager is
//! strict two-phase (locks release only at top-level commit or abort),
//! so for two *conflicting* accesses the later grant can only happen
//! after the earlier transaction completed — the global grant sequence
//! number therefore orders conflicting accesses exactly as the data
//! manager executed them. Non-conflicting grants may interleave
//! arbitrarily; the checker never draws edges from them.
//!
//! [`ChaosProxy`] extends the same discipline across the wire: a
//! deterministic seeded TCP relay that injects delays, partial writes,
//! mid-frame resets and drops between a `hipac-net` client and server,
//! so exactly-once and drain guarantees can be checked under failure.

//! [`restart`] composes both with the storage layer's crash-injecting
//! `FaultPolicy` into a full crash-restart torture: a seeded storage
//! crash mid-burst, a reboot onto the same data directory, and clients
//! retrying through the partition — proving the durable reply journal
//! and push outbox keep exactly-once across the restart. [`failover`]
//! raises the stakes to a node change: kill a replicated primary
//! mid-burst, promote its replica, and prove the same guarantees held
//! by the *replicated* journal and outbox.

//! [`tenants`] tortures the multi-tenant hardening layer: hostile
//! peers asserting foreign identities, a noisy tenant flooding
//! per-tenant admission budgets through chaos, and a calibrated crash
//! sweep across the slow-subscriber eviction window
//! proving the `SubscriberEvicted` signal fires user rules exactly
//! once per eviction.

pub mod conflict;
pub mod failover;
pub mod netchaos;
pub mod restart;
pub mod schedule;
pub mod splitbrain;
pub mod tenants;

pub use conflict::{check_serializable, ConflictEdge, Report, Violation};
pub use failover::{run_failover_torture, FailoverTortureConfig, FailoverTortureReport};
pub use netchaos::{ChaosConfig, ChaosFault, ChaosHit, ChaosProxy, ChaosStats};
pub use restart::{
    run_group_crash_matrix, run_restart_torture, GroupCrashMatrixReport, RestartTortureConfig,
    RestartTortureReport,
};
pub use schedule::{Access, AccessKind, CommittedTxn, History, ScheduleRecorder};
pub use splitbrain::{
    run_quorum_torture, run_splitbrain_torture, QuorumTortureConfig, QuorumTortureReport,
    SplitbrainTortureConfig, SplitbrainTortureReport,
};
pub use tenants::{run_tenant_torture, TenantTortureConfig, TenantTortureReport};
