//! Event specifications: how rule events are described (§2.1).

use hipac_common::{wire_enum, Timestamp};

/// Kinds of database operations that can be subscribed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbEventKind {
    Insert,
    Update,
    Delete,
    CreateClass,
    DropClass,
    /// Transaction control events (§2.1 lists transaction control among
    /// database operations; §5.2 makes the Transaction Manager an event
    /// detector for termination).
    TxnBegin,
    TxnCommit,
    TxnAbort,
}

wire_enum! {
    DbEventKind {
        0 => Insert,
        1 => Update,
        2 => Delete,
        3 => CreateClass,
        4 => DropClass,
        5 => TxnBegin,
        6 => TxnCommit,
        7 => TxnAbort,
    }
}

/// Temporal event descriptions (§2.1: absolute, relative, periodic).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TemporalSpec {
    /// At an absolute time.
    Absolute { at: Timestamp },
    /// `offset` after each firing of the baseline event.
    Relative {
        baseline: Box<EventSpec>,
        offset: u64,
    },
    /// Every `period`, starting one period after `start` (or after the
    /// event is defined, when `start` is `None`).
    Periodic {
        period: u64,
        start: Option<Timestamp>,
    },
}

wire_enum! {
    TemporalSpec {
        0 => Absolute { at },
        1 => Relative { baseline, offset },
        2 => Periodic { period, start },
    }
}

/// An event specification: a primitive event or a composition.
///
/// ```
/// use hipac_event::EventSpec;
/// use hipac_event::spec::DbEventKind;
/// // "price updated, or a trade executed, and then any deletion"
/// let spec = EventSpec::on_update("stock")
///     .or(EventSpec::external("trade_executed"))
///     .then(EventSpec::db(DbEventKind::Delete, None));
/// assert_eq!(spec.external_refs(), vec!["trade_executed"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventSpec {
    /// A database operation. `class` filters by class name (matched
    /// against the operation's class lineage, so an event on a
    /// superclass fires for subclass instances); `None` matches any
    /// class.
    Database {
        kind: DbEventKind,
        class: Option<String>,
    },
    /// A temporal event.
    Temporal(TemporalSpec),
    /// An application-defined event, referenced by name. Formal
    /// parameters are declared when the external event is defined (see
    /// `EventRegistry::define_external`).
    External { name: String },
    /// Either operand (paper operator).
    Disjunction(Box<EventSpec>, Box<EventSpec>),
    /// Left then later right (paper operator). Consumption policy:
    /// "recent" — a newer left occurrence replaces the pending one.
    Sequence(Box<EventSpec>, Box<EventSpec>),
    /// Both operands in any order. **Extension** beyond the paper's
    /// disjunction/sequence pair.
    Conjunction(Box<EventSpec>, Box<EventSpec>),
    /// The inner event has occurred `n` times since the last firing
    /// (the closure/count operator of later active-database event
    /// algebras). **Extension** beyond the paper's operators.
    Times(u32, Box<EventSpec>),
}

wire_enum! {
    EventSpec {
        0 => Database { kind, class },
        1 => Temporal(spec),
        2 => External { name },
        3 => Disjunction(left, right),
        4 => Sequence(left, right),
        5 => Conjunction(left, right),
        6 => Times(n, inner),
    }
}

impl EventSpec {
    /// Convenience: database event constructor.
    pub fn db(kind: DbEventKind, class: Option<&str>) -> EventSpec {
        EventSpec::Database {
            kind,
            class: class.map(str::to_owned),
        }
    }

    /// Convenience: `update <class>` — the most common rule event.
    pub fn on_update(class: &str) -> EventSpec {
        EventSpec::db(DbEventKind::Update, Some(class))
    }

    /// Convenience: external event reference.
    pub fn external(name: &str) -> EventSpec {
        EventSpec::External {
            name: name.to_owned(),
        }
    }

    /// `self | other`.
    pub fn or(self, other: EventSpec) -> EventSpec {
        EventSpec::Disjunction(Box::new(self), Box::new(other))
    }

    /// `self ; other`.
    pub fn then(self, other: EventSpec) -> EventSpec {
        EventSpec::Sequence(Box::new(self), Box::new(other))
    }

    /// `self & other` (extension).
    pub fn and(self, other: EventSpec) -> EventSpec {
        EventSpec::Conjunction(Box::new(self), Box::new(other))
    }

    /// `n × self` (extension): fire on every n-th occurrence.
    pub fn times(self, n: u32) -> EventSpec {
        EventSpec::Times(n.max(1), Box::new(self))
    }

    /// Database-operation (kind, class filter) pairs referenced
    /// anywhere in the spec — what the Object Manager's detector must
    /// watch for.
    pub fn db_subscriptions(&self) -> Vec<(DbEventKind, Option<String>)> {
        let mut out = Vec::new();
        self.walk(&mut |s| {
            if let EventSpec::Database { kind, class } = s {
                out.push((*kind, class.clone()));
            }
        });
        out
    }

    /// External event names referenced anywhere in the spec.
    pub fn external_refs(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |s| {
            if let EventSpec::External { name } = s {
                out.push(name.clone());
            }
        });
        out
    }

    /// Does the spec contain any temporal leaf?
    pub fn has_temporal(&self) -> bool {
        let mut found = false;
        self.walk(&mut |s| {
            if matches!(s, EventSpec::Temporal(_)) {
                found = true;
            }
        });
        found
    }

    fn walk(&self, f: &mut impl FnMut(&EventSpec)) {
        f(self);
        match self {
            EventSpec::Disjunction(l, r)
            | EventSpec::Sequence(l, r)
            | EventSpec::Conjunction(l, r) => {
                l.walk(f);
                r.walk(f);
            }
            EventSpec::Temporal(TemporalSpec::Relative { baseline, .. }) => {
                baseline.walk(f);
            }
            EventSpec::Times(_, inner) => inner.walk(f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let e = EventSpec::on_update("stock")
            .or(EventSpec::external("trade_executed"))
            .then(EventSpec::db(DbEventKind::Delete, None));
        assert!(matches!(e, EventSpec::Sequence(_, _)));
        assert_eq!(
            e.db_subscriptions(),
            vec![
                (DbEventKind::Update, Some("stock".to_string())),
                (DbEventKind::Delete, None),
            ]
        );
        assert_eq!(e.external_refs(), vec!["trade_executed"]);
        assert!(!e.has_temporal());
    }

    #[test]
    fn relative_baseline_is_traversed() {
        let e = EventSpec::Temporal(TemporalSpec::Relative {
            baseline: Box::new(EventSpec::external("market_open")),
            offset: 1000,
        });
        assert!(e.has_temporal());
        assert_eq!(e.external_refs(), vec!["market_open"]);
    }
}
