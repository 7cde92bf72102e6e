//! hipac-repl: primary/replica replication for the HiPAC active DBMS.
//!
//! HiPAC's architecture centralizes rule firing and transaction
//! management on one node, but nothing in the model requires *reads*
//! or the §4.1 role-reversal push channel to originate there. This
//! crate adds a WAL-shipping replication subsystem on top of the
//! storage layer's batch-iterator API and the wire protocol's `Repl` frames:
//!
//! * The **primary** (an ordinary `hipac-net` server on a durable
//!   store) tails its own WAL and streams committed batches to any
//!   follower that sends `ReplSubscribe` — resuming from the
//!   follower's watermark, or falling back to a chunked full snapshot
//!   when that watermark has been checkpointed away. With
//!   `ServerConfig::sync_repl` it holds commit acks until connected
//!   replicas confirm the committing frontier (semi-sync, degrading to
//!   async on timeout), and a draining primary finishes shipping its
//!   committed tail before refusing.
//! * The **replica** ([`ReplicaNode`]) applies the batches that arrive
//!   together as one run through the recovery-equivalent
//!   [`hipac_storage::DurableStore::apply_replicated_run`] path — the
//!   run and its watermark are one atomic WAL commit, so a crash
//!   mid-stream resumes exactly where it stopped. Reads are served
//!   from a batch-consistent in-memory [`ReplicaView`] at the applied
//!   LSN; writes are refused with a typed `NotPrimary` error.
//!   Subscriptions homed on the replica are re-homed upstream, pushes
//!   fan out locally, and acks flow back to the primary's durable
//!   outbox, preserving per-subscription exactly-once across the hop.
//! * **Promotion** ([`ReplicaNode::promote`]) seals the applied
//!   prefix, recovers a full engine from the replica's own store —
//!   reply journal and push outbox included, so client retries from
//!   before the failover replay rather than re-execute — and binds a
//!   real server on the address the replica was already serving. It
//!   also bumps the persistent **replication epoch** and records the
//!   fence coordinates (divergence point in the old primary's LSN
//!   space, resubscribe watermark in the new one): every replication
//!   frame is stamped with the shipper's epoch, a deposed primary
//!   fences itself read-only on first contact with a newer one
//!   ([`fence_stale_primary`] delivers that contact on partition
//!   heal), and [`ReplicaNode::rejoin`] truncates the deposed node's
//!   divergent WAL tail and re-enlists it as a replica of the new
//!   primary — falling back to a snapshot bootstrap when the tail can
//!   no longer be cut precisely.
//!
//! `hipac-net`'s `FleetClient` is the client-side counterpart: writes
//! route to whichever node answers as primary, snapshot reads and
//! subscriptions prefer replicas, and typed refusals trigger re-probe
//! and failover. The failover torture in `hipac-check` kills a primary
//! mid-burst under network chaos and proves committed-state equality
//! and per-push exactly-once across promotion.

pub mod replica;
pub mod view;

pub use replica::{fence_stale_primary, ReplicaNode};
pub use view::ReplicaView;
