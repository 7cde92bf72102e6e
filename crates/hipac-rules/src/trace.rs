//! Rule-base development tools (§7).
//!
//! The paper closes with: "As the rule base for an application grows,
//! problems due to unexpected interactions among rules become more
//! likely. … Future research will produce the tools and techniques
//! needed to develop large, complex rule bases." This module provides
//! the two foundational tools:
//!
//! * a **firing tracer** — a bounded ring of [`FiringTrace`] records
//!   (what fired, triggered by what, in which transaction at which
//!   cascade depth, was the condition satisfied, how long it took);
//! * **rule explanation** — [`RuleExplanation`], a static analysis of
//!   one rule: its (possibly derived) event, how each condition query
//!   would be evaluated (delta / index / scan), and its couplings.

use crate::rule::CouplingMode;
use hipac_common::{EventId, RuleId, Timestamp, TxnId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// One recorded rule firing (or non-firing, when the condition failed).
#[derive(Debug, Clone, PartialEq)]
pub struct FiringTrace {
    pub rule: RuleId,
    pub rule_name: String,
    pub event: Option<EventId>,
    /// The transaction the firing coupled to (the triggering
    /// transaction for immediate/deferred, the worker transaction for
    /// separate firings).
    pub txn: Option<TxnId>,
    pub ec_coupling: CouplingMode,
    pub satisfied: bool,
    pub action_executed: bool,
    /// Transaction-tree depth of the firing's parent — cascades show up
    /// as increasing depths.
    pub cascade_depth: usize,
    /// Database time of the triggering signal.
    pub event_time: Timestamp,
    /// Wall-clock cost of this firing, rounded up to a whole
    /// microsecond: the condition-evaluation phase (shared across the
    /// batch, so every firing of one group reports the same condition
    /// component) plus, for satisfied rules with a synchronous C-A
    /// coupling, the action subtransaction.
    pub duration_us: u64,
    /// Retry attempts consumed beyond the first execution (separate
    /// firings only; synchronous firings never retry).
    pub retries: u64,
    /// True for the dead-letter record of a separate firing that
    /// failed terminally (retry budget exhausted, or a non-retryable
    /// error).
    pub dead_letter: bool,
}

/// Bounded in-memory trace buffer. Disabled by default (zero cost:
/// one relaxed atomic load per firing).
pub struct RuleTracer {
    enabled: AtomicBool,
    capacity: usize,
    ring: Mutex<VecDeque<FiringTrace>>,
}

impl RuleTracer {
    /// A disabled tracer holding at most `capacity` records.
    pub fn new(capacity: usize) -> RuleTracer {
        RuleTracer {
            enabled: AtomicBool::new(false),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Turn tracing on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is tracing currently on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one firing (no-op while disabled).
    pub fn record(&self, trace: FiringTrace) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Snapshot the buffer without clearing it.
    pub fn snapshot(&self) -> Vec<FiringTrace> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Drain the buffer.
    pub fn take(&self) -> Vec<FiringTrace> {
        self.ring.lock().drain(..).collect()
    }
}

/// How one condition query will be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryStrategy {
    /// Answerable from the event's old/new images alone.
    Delta,
    /// Secondary-index equality probe on the named attribute.
    IndexEq { attr: String },
    /// Polymorphic extent scan.
    Scan,
}

/// Static analysis of one rule (see `RuleManager::explain_rule`).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleExplanation {
    pub rule: RuleId,
    pub name: String,
    pub enabled: bool,
    /// The effective event specification (derived from the condition
    /// when the rule declared none).
    pub event: hipac_event::EventSpec,
    /// True when the event was derived rather than declared.
    pub event_derived: bool,
    /// Where the discrimination network places the rule, as
    /// `Placement` renders it: residual, or the indexed link plus the
    /// links checked against the event's images.
    pub placement: String,
    /// Evaluation strategy per condition query, in order. `Delta`
    /// assumes the triggering event carries images of the query's
    /// class; mixed triggers fall back to the index/scan strategy.
    pub condition_strategies: Vec<QueryStrategy>,
    pub ec_coupling: CouplingMode,
    pub ca_coupling: CouplingMode,
    pub action_ops: usize,
}

impl std::fmt::Display for RuleExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "rule {} ({}) [{}]",
            self.name,
            self.rule,
            if self.enabled { "enabled" } else { "disabled" }
        )?;
        writeln!(
            f,
            "  event{}: {:?}",
            if self.event_derived { " (derived)" } else { "" },
            self.event
        )?;
        writeln!(f, "  placement: {}", self.placement)?;
        for (i, s) in self.condition_strategies.iter().enumerate() {
            writeln!(f, "  condition[{i}]: {s:?}")?;
        }
        writeln!(
            f,
            "  coupling: E-C {:?}, C-A {:?}; action: {} op(s)",
            self.ec_coupling, self.ca_coupling, self.action_ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rule: u64) -> FiringTrace {
        FiringTrace {
            rule: RuleId(rule),
            rule_name: format!("r{rule}"),
            event: Some(EventId(1)),
            txn: Some(TxnId(1)),
            ec_coupling: CouplingMode::Immediate,
            satisfied: true,
            action_executed: true,
            cascade_depth: 0,
            event_time: 0,
            duration_us: 1,
            retries: 0,
            dead_letter: false,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = RuleTracer::new(4);
        tracer.record(t(1));
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn ring_keeps_the_newest_capacity_records() {
        let tracer = RuleTracer::new(3);
        tracer.set_enabled(true);
        for i in 0..10 {
            tracer.record(t(i));
        }
        let snap = tracer.snapshot();
        assert_eq!(
            snap.iter().map(|x| x.rule.raw()).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(tracer.take().len(), 3);
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn explanation_displays() {
        let ex = RuleExplanation {
            rule: RuleId(3),
            name: "watch".into(),
            enabled: true,
            event: hipac_event::EventSpec::on_update("stock"),
            event_derived: true,
            placement: "residual (a candidate for every signal)".into(),
            condition_strategies: vec![QueryStrategy::Delta, QueryStrategy::Scan],
            ec_coupling: CouplingMode::Deferred,
            ca_coupling: CouplingMode::Immediate,
            action_ops: 2,
        };
        let text = ex.to_string();
        assert!(text.contains("derived"));
        assert!(text.contains("placement: residual"));
        assert!(text.contains("condition[1]: Scan"));
        assert!(text.contains("Deferred"));
    }
}
