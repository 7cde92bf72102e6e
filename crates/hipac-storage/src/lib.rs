//! Storage substrate for the HiPAC active DBMS reproduction.
//!
//! The 1989 HiPAC prototype ran over Smalltalk's in-memory object space;
//! any credible DBMS needs a durability substrate, so this crate builds
//! one from scratch:
//!
//! * [`page`] / [`disk`] — 4 KiB pages over a single database file;
//! * [`buffer`] — a pinning buffer pool with second-chance replacement;
//! * [`slotted`] — slotted-page record layout;
//! * [`heap`] — heap files of variable-length records;
//! * [`btree`] — a disk-backed B+tree mapping byte keys to records;
//! * [`wal`] — a checksummed append-only write-ahead log;
//! * [`store`] — [`store::DurableStore`], the logical key→bytes store
//!   the Object Manager persists into, with redo-only commit logging,
//!   streaming shadow checkpoints and crash recovery;
//! * [`journal`] — the crash-safe reply journal and push-outbox key
//!   space that keeps the network layer's exactly-once window durable
//!   across restarts.
//!
//! Concurrency note: the durable store sits *behind* the transaction
//! manager — only committed top-level transactions reach it (the paper's
//! execution model makes subtransaction effects permanent only when the
//! whole ancestor chain commits), so the WAL is redo-only and recovery
//! never needs to undo anything.

pub mod btree;
pub mod buffer;
pub mod crc;
pub mod disk;
pub mod fault;
pub mod heap;
pub mod journal;
pub mod page;
pub mod slotted;
pub mod store;
pub mod wal;

pub use buffer::BufferPool;
pub use disk::DiskManager;
pub use fault::{FaultPoint, FaultPolicy};
pub use heap::{HeapFile, RecordId};
pub use page::{Page, PageId, PAGE_SIZE};
pub use store::{
    batch_digest, fold_digest, DurableStore, StoreOp, REPL_APPLIED_KEY, REPL_SNAPSHOT_SENTINEL,
};
pub use wal::{TailRead, TailTruncate, Wal, WalBatch, WalRecord};
