//! The workspace-wide error type.
//!
//! A single error enum keeps cross-crate `Result` plumbing simple; the
//! variants are grouped by the component that raises them.

use crate::id::{ObjectId, RuleId, TxnId};
use std::fmt;

/// Convenient alias used across the workspace.
pub type Result<T> = std::result::Result<T, HipacError>;

/// All errors raised by the HiPAC engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HipacError {
    // ---- schema / object manager ----
    /// A class name or id did not resolve.
    UnknownClass(String),
    /// An attribute name did not resolve within its class.
    UnknownAttribute(String),
    /// An object id did not resolve (or is not visible to the reader).
    UnknownObject(ObjectId),
    /// A name is already taken in the catalog.
    DuplicateName(String),
    /// A value did not conform to the declared attribute type, or an
    /// expression was ill-typed.
    TypeError(String),
    /// A schema constraint (non-null, class arity, ...) was violated.
    ConstraintViolation(String),
    /// A class cannot be dropped / object deleted because something
    /// still references it.
    InUse(String),

    // ---- transactions ----
    /// The transaction id is unknown or already terminated.
    UnknownTxn(TxnId),
    /// Operation attempted on a transaction in the wrong state
    /// (e.g. commit of an aborted transaction).
    InvalidTxnState { txn: TxnId, state: &'static str },
    /// The transaction was chosen as a deadlock victim and aborted.
    Deadlock(TxnId),
    /// A lock could not be acquired within the configured timeout.
    LockTimeout(TxnId),
    /// The transaction was aborted (by the user, by the engine, or as a
    /// consequence of a parent abort).
    TxnAborted(TxnId),
    /// A subtransaction operation referenced a parent that is not active.
    ParentNotActive(TxnId),
    /// The request's deadline passed while the transaction was waiting
    /// (e.g. in a lock queue); the transaction aborted cleanly rather
    /// than keep the caller hanging.
    DeadlineExceeded(TxnId),

    // ---- events & rules ----
    /// An event name or id did not resolve.
    UnknownEvent(String),
    /// A rule name or id did not resolve.
    UnknownRule(String),
    /// A rule with this name already exists.
    DuplicateRule(String),
    /// Event definition/signal arity or parameter mismatch.
    EventParamMismatch(String),
    /// A rule has no event and none could be derived from its condition.
    NoDerivableEvent(RuleId),
    /// Cascading rule firings exceeded the configured depth limit.
    CascadeLimit { rule: RuleId, depth: usize },
    /// An application request action had no registered handler.
    NoApplicationHandler(String),
    /// The rule/condition/action referenced an event parameter that the
    /// triggering signal did not bind.
    UnboundParameter(String),

    // ---- expression language ----
    /// Lexical or syntax error in the condition/query text.
    ParseError { position: usize, message: String },
    /// Runtime evaluation failure (division by zero, ...).
    EvalError(String),

    // ---- storage ----
    /// Underlying I/O failure (message carries `std::io::Error` text).
    Io(String),
    /// Stored data that fails its checksum or format, or an invariant
    /// violation detected.
    Corruption(String),
    /// A record, page or key was not found in the storage layer.
    StorageNotFound(String),
    /// A record is too large for a page.
    RecordTooLarge { size: usize, max: usize },
    /// The write-ahead log is malformed.
    WalCorrupt(String),
    /// A replicated batch does not chain onto the follower's applied
    /// watermark: the stream skipped (or replayed) data. The follower
    /// must resubscribe from its durable watermark rather than absorb
    /// the batch and silently diverge.
    ReplGap { expected: u64, got: u64 },
    /// A replication message carries an epoch older than the one this
    /// node has durably observed: it was sent by a deposed primary.
    /// The sender must stop writing (it has been fenced) and rejoin as
    /// a replica of the current epoch's primary.
    StaleEpoch { current: u64, got: u64 },

    // ---- misc ----
    /// Internal invariant violation: indicates a bug in the engine.
    Internal(String),
}

impl HipacError {
    /// True when the error means the enclosing transaction is dead and
    /// must not be used further (deadlock victim, explicit abort, ...).
    pub fn is_txn_fatal(&self) -> bool {
        matches!(
            self,
            HipacError::Deadlock(_)
                | HipacError::TxnAborted(_)
                | HipacError::LockTimeout(_)
                | HipacError::DeadlineExceeded(_)
        )
    }

    /// Helper constructing an [`HipacError::Internal`].
    pub fn internal(msg: impl Into<String>) -> Self {
        HipacError::Internal(msg.into())
    }
}

impl fmt::Display for HipacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use HipacError::*;
        match self {
            UnknownClass(name) => write!(f, "unknown class: {name}"),
            UnknownAttribute(name) => write!(f, "unknown attribute: {name}"),
            UnknownObject(id) => write!(f, "unknown object: {id}"),
            DuplicateName(name) => write!(f, "name already defined: {name}"),
            TypeError(msg) => write!(f, "type error: {msg}"),
            ConstraintViolation(msg) => write!(f, "constraint violation: {msg}"),
            InUse(msg) => write!(f, "entity in use: {msg}"),
            UnknownTxn(id) => write!(f, "unknown transaction: {id}"),
            InvalidTxnState { txn, state } => {
                write!(f, "transaction {txn} is {state}; operation not permitted")
            }
            Deadlock(id) => write!(f, "transaction {id} aborted: deadlock victim"),
            LockTimeout(id) => write!(f, "transaction {id}: lock wait timed out"),
            TxnAborted(id) => write!(f, "transaction {id} is aborted"),
            ParentNotActive(id) => write!(f, "parent transaction {id} is not active"),
            DeadlineExceeded(id) => {
                write!(f, "transaction {id} aborted: request deadline exceeded")
            }
            UnknownEvent(name) => write!(f, "unknown event: {name}"),
            UnknownRule(name) => write!(f, "unknown rule: {name}"),
            DuplicateRule(name) => write!(f, "rule already defined: {name}"),
            EventParamMismatch(msg) => write!(f, "event parameter mismatch: {msg}"),
            NoDerivableEvent(rule) => write!(
                f,
                "rule {rule} has no event and none can be derived from its condition"
            ),
            CascadeLimit { rule, depth } => write!(
                f,
                "cascading rule firings exceeded depth limit {depth} at rule {rule}"
            ),
            NoApplicationHandler(name) => {
                write!(f, "no application handler registered for: {name}")
            }
            UnboundParameter(name) => write!(f, "unbound event parameter: {name}"),
            ParseError { position, message } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            EvalError(msg) => write!(f, "evaluation error: {msg}"),
            Io(msg) => write!(f, "i/o error: {msg}"),
            Corruption(msg) => write!(f, "storage corruption: {msg}"),
            StorageNotFound(msg) => write!(f, "not found in storage: {msg}"),
            RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity {max}")
            }
            WalCorrupt(msg) => write!(f, "write-ahead log corrupt: {msg}"),
            ReplGap { expected, got } => write!(
                f,
                "replication stream gap: batch chains from lsn {got}, follower watermark is {expected}"
            ),
            StaleEpoch { current, got } => write!(
                f,
                "stale replication epoch {got}: this node has observed epoch {current}"
            ),
            Internal(msg) => write!(f, "internal error (bug): {msg}"),
        }
    }
}

impl std::error::Error for HipacError {}

impl From<std::io::Error> for HipacError {
    fn from(e: std::io::Error) -> Self {
        HipacError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ClassId;

    #[test]
    fn display_is_informative() {
        let e = HipacError::UnknownObject(ObjectId(4));
        assert_eq!(e.to_string(), "unknown object: obj#4");
        let e = HipacError::ParseError {
            position: 12,
            message: "unexpected token".into(),
        };
        assert!(e.to_string().contains("byte 12"));
    }

    #[test]
    fn txn_fatal_classification() {
        assert!(HipacError::Deadlock(TxnId(1)).is_txn_fatal());
        assert!(HipacError::TxnAborted(TxnId(1)).is_txn_fatal());
        assert!(HipacError::LockTimeout(TxnId(1)).is_txn_fatal());
        assert!(HipacError::DeadlineExceeded(TxnId(1)).is_txn_fatal());
        assert!(!HipacError::UnknownClass("x".into()).is_txn_fatal());
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: HipacError = io.into();
        assert!(matches!(e, HipacError::Io(_)));
    }

    #[test]
    fn unknown_class_mentions_classid_formatting() {
        // ClassId participates in error text via callers formatting it.
        let msg = format!("{}", ClassId(3));
        assert_eq!(msg, "class#3");
    }
}
