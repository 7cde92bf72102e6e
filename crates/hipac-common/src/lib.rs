//! Shared substrate for the HiPAC active DBMS reproduction.
//!
//! This crate contains the vocabulary types used by every other crate in
//! the workspace: strongly typed identifiers, the dynamic [`Value`] type
//! that object attributes and event arguments are made of, the error
//! type, logical/virtual clocks used by the temporal event detector, a
//! compact binary codec used by the storage engine, and the fast hasher
//! that maps keyed by ids use ([`idhash`]).
//!
//! Nothing in this crate knows about rules, events, transactions or
//! objects; it is the bottom of the dependency graph.

pub mod clock;
pub mod codec;
pub mod error;
pub mod id;
pub mod idhash;
pub mod repl;
pub mod sortkey;
pub mod value;

pub use clock::{Clock, SystemClock, Timestamp, VirtualClock};
pub use error::{HipacError, Result};
pub use id::{AttrId, ClassId, EventId, ObjectId, RuleId, TxnId};
pub use idhash::{IdMap, IdSet};
pub use repl::{ReplCounters, ROLE_PRIMARY, ROLE_REPLICA};
pub use value::{Value, ValueType};
