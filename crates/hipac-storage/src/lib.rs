//! Storage substrate for the HiPAC active DBMS reproduction.
//!
//! The 1989 HiPAC prototype ran over Smalltalk's in-memory object space;
//! any credible DBMS needs a durability substrate, so this crate builds
//! one from scratch:
//!
//! * [`wal`] — a checksummed append-only write-ahead log;
//! * `image` — the data file: one immutable, checksummed file of the
//!   pairs in key order, with a key directory read into memory at open,
//!   written whole by each checkpoint and never in place;
//! * [`store`] — [`store::DurableStore`], the logical key→bytes store
//!   the Object Manager persists into, with redo-only commit logging,
//!   committed changes kept in a memtable until the streaming shadow
//!   checkpoint writes them into a new image, and crash recovery;
//! * [`journal`] — the crash-safe reply journal and push-outbox key
//!   space that keeps the network layer's exactly-once window durable
//!   across restarts.
//!
//! Concurrency note: the durable store sits *behind* the transaction
//! manager — only committed top-level transactions reach it (the paper's
//! execution model makes subtransaction effects permanent only when the
//! whole ancestor chain commits), so the WAL is redo-only and recovery
//! never needs to undo anything.

pub mod crc;
pub mod fault;
mod image;
pub mod journal;
mod memtable;
pub mod store;
pub mod wal;

pub use fault::{FaultPoint, FaultPolicy};
pub use store::{
    batch_digest, fold_digest, DurableStore, ReplBatch, StoreOp, REPL_APPLIED_KEY,
    REPL_SNAPSHOT_SENTINEL,
};
pub use wal::{TailRead, TailTruncate, Wal, WalBatch, WalRecord};
