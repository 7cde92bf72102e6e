//! Event signals: what is reported when an event occurs (§2.1).

use crate::spec::DbEventKind;
use hipac_common::{ClassId, ObjectId, Timestamp, TxnId, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Payload of a database-operation event: "the operation and its actual
/// arguments (e.g., the object instances being modified, and the old
/// and new values of the modified objects' attributes)".
#[derive(Debug, Clone, PartialEq)]
pub struct DbEventData {
    pub kind: DbEventKind,
    pub class: ClassId,
    /// Class names from the concrete class up the inheritance chain;
    /// event class filters match against any entry, so an event defined
    /// on a superclass fires for subclass instances.
    pub class_lineage: Vec<String>,
    pub oid: Option<ObjectId>,
    /// The old and new row images: the versions the Object Manager
    /// reported, shared, not copies.
    pub old: Option<Arc<[Value]>>,
    pub new: Option<Arc<[Value]>>,
}

/// An event occurrence as delivered to the Rule Manager.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventSignal {
    /// Absolute time of the occurrence (database clock).
    pub time: Timestamp,
    /// The transaction in which the event occurred, if any (database
    /// events always have one; temporal and external events may not).
    pub txn: Option<TxnId>,
    /// Named argument bindings: the formal parameters of external
    /// events bound to actual arguments, plus convenience bindings for
    /// database events.
    pub params: HashMap<String, Value>,
    /// Database-operation payload, when applicable. Shared: the
    /// automaton's inject, every triggered rule's signal and a detached
    /// firing's job hold the one payload the operation reported.
    pub db: Option<Arc<DbEventData>>,
}

impl EventSignal {
    /// An empty signal at `time`.
    pub fn at(time: Timestamp) -> EventSignal {
        EventSignal {
            time,
            ..Default::default()
        }
    }

    /// Add a parameter binding.
    pub fn with_param(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.params.insert(name.into(), value.into());
        self
    }

    /// Merge `later` into `self` for composite events: parameters union
    /// (later wins on collision), time of the later constituent, and
    /// the later constituent's database payload when it has one.
    pub fn merge(mut self, later: EventSignal) -> EventSignal {
        for (k, v) in later.params {
            self.params.insert(k, v);
        }
        self.time = self.time.max(later.time);
        if later.db.is_some() {
            self.db = later.db;
        }
        self.txn = match (self.txn, later.txn) {
            (Some(a), Some(b)) if a == b => Some(a),
            (None, b) => b,
            (a, None) => a,
            // Constituents from different transactions: the composite
            // occurrence is not attributable to a single transaction.
            _ => None,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefers_later() {
        let a = EventSignal::at(10)
            .with_param("x", 1)
            .with_param("shared", "a");
        let b = EventSignal::at(20)
            .with_param("y", 2)
            .with_param("shared", "b");
        let m = a.merge(b);
        assert_eq!(m.time, 20);
        assert_eq!(m.params["x"], Value::Int(1));
        assert_eq!(m.params["y"], Value::Int(2));
        assert_eq!(m.params["shared"], Value::from("b"));
    }

    #[test]
    fn merge_txn_attribution() {
        let mk = |txn| EventSignal {
            txn,
            ..EventSignal::at(0)
        };
        assert_eq!(
            mk(Some(TxnId(1))).merge(mk(Some(TxnId(1)))).txn,
            Some(TxnId(1))
        );
        assert_eq!(mk(Some(TxnId(1))).merge(mk(Some(TxnId(2)))).txn, None);
        assert_eq!(mk(None).merge(mk(Some(TxnId(2)))).txn, Some(TxnId(2)));
        assert_eq!(mk(Some(TxnId(1))).merge(mk(None)).txn, Some(TxnId(1)));
    }

    #[test]
    fn merge_keeps_later_db_payload() {
        let with_db = EventSignal {
            db: Some(Arc::new(DbEventData {
                kind: DbEventKind::Update,
                class: ClassId(1),
                class_lineage: vec!["stock".into(), "security".into()],
                oid: Some(ObjectId(5)),
                old: Some(vec![Value::Int(1)].into()),
                new: Some(vec![Value::Int(2)].into()),
            })),
            ..EventSignal::at(5)
        };
        let without = EventSignal::at(9);
        let m = with_db.clone().merge(without);
        assert!(m.db.is_some(), "absent later payload keeps earlier");
        let m2 = EventSignal::at(1).merge(with_db);
        assert_eq!(m2.db.as_ref().unwrap().oid, Some(ObjectId(5)));
    }
}
