//! The Object Manager (§5.1 of the paper): object-oriented data
//! management for the HiPAC active DBMS.
//!
//! The paper specifies a single interface operation — *Execute
//! Operation* — covering DDL and DML, used by applications, the Rule
//! Manager and the Condition Evaluator. This crate provides:
//!
//! * [`schema`] — classes with typed attributes and single inheritance;
//! * [`object`] — object records and their durable serialization;
//! * [`expr`] — the condition/query expression language (typed AST with
//!   event-parameter and old/new delta references);
//! * [`parser`] — a small text syntax for expressions, so rules can be
//!   written as strings;
//! * [`query`] — select-project queries with an index-vs-scan planner;
//! * [`prepared`] — a query prepared once against a catalog generation:
//!   its plan, index slot, probe source and slot-resolved predicate;
//! * [`store`] — [`store::ObjectStore`], the Object Manager proper:
//!   transactional DML/DDL over the nested-transaction version store,
//!   Moss locking, secondary indexes, database-operation event
//!   reporting, and optional durability via `hipac-storage`.
//!
//! In the HiPAC prototype the Object Manager was to implement the Probe
//! data model (PDM); per DESIGN.md we substitute a class/attribute
//! model with the query fragment the rule system consumes.

pub mod expr;
pub mod object;
pub mod parser;
pub mod prepared;
pub mod query;
pub mod schema;
pub mod store;

pub use expr::{BinOp, Bindings, Expr, RefKind, UnOp};
pub use object::ObjectRecord;
pub use prepared::PreparedQuery;
pub use query::{Query, QueryResult, Row};
pub use schema::{AttrDef, ClassDef, Schema};
pub use store::{DbOperation, LockKey, ObjectStore, OpListener};
