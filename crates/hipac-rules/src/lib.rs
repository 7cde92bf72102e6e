//! ECA rules for the HiPAC active DBMS: the knowledge model (§2), the
//! execution model (§3) and the Rule Manager / Condition Evaluator
//! components (§5.4, §5.5).
//!
//! A rule has an *event*, a *condition* (a collection of queries — all
//! must return non-empty results), an *action* (a sequence of database
//! operations and requests to application programs) and two *coupling
//! modes*:
//!
//! * **E-C coupling** — when the condition is evaluated relative to the
//!   transaction signalling the event: `Immediate` (subtransaction at
//!   the event point, the triggering operation suspended), `Deferred`
//!   (subtransaction just before the triggering transaction commits) or
//!   `Separate` (concurrent top-level transaction);
//! * **C-A coupling** — ditto for action execution relative to the
//!   condition-evaluation transaction.
//!
//! Rules are first-class database objects: firing takes a read lock on
//! the rule; create / delete / enable / disable take write locks, so
//! rule updates serialize against rule firings (§2.2). Multiple rules
//! triggered by one event fire concurrently as siblings — the paper is
//! explicit that there is *no* conflict-resolution policy; correctness
//! is serializability.
//!
//! Modules:
//!
//! * [`rule`] — rule definitions, actions, coupling modes;
//! * `compile` — rules compiled once against a catalog generation: the
//!   form the rule store keeps;
//! * [`condition`] — the Condition Evaluator: per-event condition graph
//!   with common-subexpression sharing and delta-based incremental
//!   evaluation;
//! * [`pool`] — the worker pool running separate-mode firings in
//!   concurrent top-level transactions;
//! * [`manager`] — the Rule Manager: event→rule mapping, coupling-mode
//!   scheduling, deferred sets, cascading firings, rule operations.

pub mod codec;
mod compile;
pub mod condition;
pub mod manager;
pub mod network;
pub mod pool;
pub mod rule;
pub mod trace;

pub use condition::ConditionEvaluator;
pub use manager::{ApplicationHandler, RuleManager};
pub use network::{placement, GuardOp, ImageRef, Link, MatchNetwork, Matching, Placement};
pub use pool::FiringPool;
pub use rule::{Action, ActionOp, CouplingMode, DbAction, RuleDef};
pub use trace::{FiringTrace, QueryStrategy, RuleExplanation, RuleTracer};
