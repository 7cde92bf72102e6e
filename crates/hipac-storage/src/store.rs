//! The durable store: a crash-safe logical key→bytes map.
//!
//! This is the persistence boundary the Object Manager sits on. The
//! design (see crate docs for why it fits HiPAC's execution model):
//!
//! * **Redo-only commit logging.** Only committed top-level transactions
//!   reach the store, as an atomic batch of [`StoreOp`]s. A batch is
//!   appended to the WAL (`Begin … Commit`) and fsynced *before* being
//!   applied to the heap/index, so a crash at any point loses nothing
//!   committed and applies nothing uncommitted.
//! * **No-steal buffering.** The buffer pool never evicts dirty pages
//!   ([`EvictionPolicy::CleanOnly`]), so the data file always holds
//!   exactly the last checkpoint's state.
//! * **Shadow checkpoints.** A checkpoint rewrites all live data into a
//!   fresh file, fsyncs it, atomically renames it over the old file and
//!   only then truncates the WAL. A crash anywhere in that sequence
//!   leaves either (old file + full WAL) or (new file + replayable WAL),
//!   both of which recover to the same state because replay is
//!   idempotent (last-writer-wins upserts). The rewrite is one streaming
//!   pass in key order: values are appended to a fresh heap and the
//!   index is bulk-loaded behind them. The shadow file means nothing
//!   until the rename, so its (small, [`EvictionPolicy::WriteBack`])
//!   pool steals freely — stolen pages in a `data.db.tmp` that a crash
//!   leaves behind are discarded with it at the next open.
//!
//! Values of any size are supported by chunking across heap records.

use crate::btree::BTree;
use crate::buffer::{BufferPool, EvictionPolicy};
use crate::disk::{sync_dir, DiskManager};
use crate::fault::{FaultPoint, FaultPolicy};
use crate::heap::{HeapFile, RecordId};
use crate::page::PageId;
use crate::wal::{TailRead, TailTruncate, Wal, WalRecord};
use hipac_common::{HipacError, Result, TxnId};
use parking_lot::Mutex;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Reserved key under which a replica persists the primary LSN its
/// store reflects (`'z'`, disjoint from every engine and journal
/// prefix). The key rides the same WAL batch as the replicated data it
/// describes, so a replica crash can never separate the two; it is
/// excluded from snapshots and from applied batches so a promoted
/// primary's own watermark never leaks downstream.
pub const REPL_APPLIED_KEY: &[u8] = b"z";

/// Watermark sentinel a rejoining ex-primary writes when its divergent
/// WAL tail is no longer truncatable (a checkpoint baked it into the
/// data file): subscribing from `u64::MAX` is always
/// [`TailRead::OutOfRange`], forcing a full snapshot resync instead of
/// silently chaining onto unrelated LSNs.
pub const REPL_SNAPSHOT_SENTINEL: u64 = u64::MAX;

/// Checksum of one replicated batch, for the anti-entropy digest: a
/// 64-bit FNV-1a over the batch's resume LSN, committing transaction
/// and every operation in log order. Both ends of a replication stream
/// hash the batches they ship/apply and fold them with
/// [`fold_digest`]; equal folds mean byte-equivalent histories.
pub fn batch_digest(next_lsn: u64, txn: TxnId, ops: &[StoreOp]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&next_lsn.to_le_bytes());
    eat(&txn.raw().to_le_bytes());
    for op in ops {
        match op {
            StoreOp::Put { key, value } => {
                eat(&[1]);
                eat(&(key.len() as u64).to_le_bytes());
                eat(key);
                eat(&(value.len() as u64).to_le_bytes());
                eat(value);
            }
            StoreOp::Delete { key } => {
                eat(&[2]);
                eat(&(key.len() as u64).to_le_bytes());
                eat(key);
            }
        }
    }
    h
}

/// Fold one [`batch_digest`] into a running stream digest. The rotate
/// keeps the fold order-sensitive (swapped batches change the result)
/// while staying a single-word accumulator that is cheap to exchange
/// on every heartbeat.
pub fn fold_digest(acc: u64, batch: u64) -> u64 {
    acc.rotate_left(7) ^ batch
}

/// The `(key, value)` pairs of a [`DurableStore::snapshot_for_repl`]
/// bootstrap snapshot.
pub type SnapshotPairs = Vec<(Vec<u8>, Vec<u8>)>;

const MAGIC: u64 = 0x4849_5041_4344_4231; // "HIPACDB1"
const META_MAGIC_OFF: usize = 0;
const META_HEAP_OFF: usize = 8;
const META_INDEX_OFF: usize = 16;

/// Default WAL size (bytes) that triggers an automatic checkpoint.
pub const DEFAULT_CHECKPOINT_THRESHOLD: u64 = 4 * 1024 * 1024;

/// Pages the checkpoint's shadow pool may hold. The copy appends to one
/// heap page and one B+tree node per level at a time, so this is ample
/// at any store size.
const SHADOW_POOL_PAGES: usize = 64;

/// One logical operation in a committed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    /// Insert or replace `key`.
    Put { key: Vec<u8>, value: Vec<u8> },
    /// Remove `key` (removing an absent key is a no-op).
    Delete { key: Vec<u8> },
}

struct Engine {
    heap: HeapFile,
    index: BTree,
    /// The [`REPL_APPLIED_KEY`] watermark as last applied, so the
    /// replica's per-batch chaining check reads no tree.
    repl_applied: Option<u64>,
}

impl Engine {
    /// Open or initialize the engine over `data_path`.
    fn open(data_path: &Path, pool_capacity: usize, faults: Arc<FaultPolicy>) -> Result<Engine> {
        let disk = Arc::new(DiskManager::open_with_faults(data_path, faults)?);
        let pool = Arc::new(BufferPool::with_policy(
            disk,
            pool_capacity,
            EvictionPolicy::CleanOnly,
        ));
        let meta = pool.fetch(PageId(0))?;
        let magic = meta.read().get_u64(META_MAGIC_OFF);
        if magic == MAGIC {
            let heap_first = PageId(meta.read().get_u64(META_HEAP_OFF));
            let index_root = PageId(meta.read().get_u64(META_INDEX_OFF));
            let heap = HeapFile::open(Arc::clone(&pool), heap_first)?;
            let index = BTree::open(pool, index_root)?;
            let mut engine = Engine {
                heap,
                index,
                repl_applied: None,
            };
            engine.repl_applied = engine.get(REPL_APPLIED_KEY)?.as_deref().and_then(watermark);
            Ok(engine)
        } else if magic == 0 {
            let heap = HeapFile::create(Arc::clone(&pool))?;
            let index = BTree::create(Arc::clone(&pool))?;
            {
                let mut guard = meta.write();
                guard.put_u64(META_HEAP_OFF, heap.first_page().0);
                guard.put_u64(META_INDEX_OFF, index.root_page().0);
            }
            // The magic goes to disk *last*, in its own flush: a crash
            // at any earlier point leaves magic 0 and a reopen simply
            // re-initializes. Writing everything in one flush could
            // persist the magic before the heap/index pages it points
            // at (flush order is unspecified).
            pool.flush_and_sync()?;
            meta.write().put_u64(META_MAGIC_OFF, MAGIC);
            pool.flush_and_sync()?;
            Ok(Engine {
                heap,
                index,
                repl_applied: None,
            })
        } else {
            Err(HipacError::Corruption(format!(
                "bad database magic {magic:#x} in {}",
                data_path.display()
            )))
        }
    }

    fn apply(&mut self, op: &StoreOp) -> Result<()> {
        let old = match op {
            StoreOp::Put { key, value } => {
                let head = write_value(&self.heap, value)?;
                let old = self.index.insert(key, &head.to_u64().to_le_bytes())?;
                if key == REPL_APPLIED_KEY {
                    self.repl_applied = watermark(value);
                }
                old
            }
            StoreOp::Delete { key } => {
                let old = self.index.delete(key)?;
                if key == REPL_APPLIED_KEY {
                    self.repl_applied = None;
                }
                old
            }
        };
        match old {
            Some(old) => self.delete_value(rid_of(&old)?),
            None => Ok(()),
        }
    }

    /// Read a chunk chain starting at `head`.
    fn read_value(&self, head: RecordId) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut cur = Some(head);
        while let Some(rid) = cur {
            let rec = self.heap.get(rid)?;
            cur = next_chunk(&rec)?;
            out.extend_from_slice(&rec[8..]);
        }
        Ok(out)
    }

    /// Delete a chunk chain starting at `head`.
    fn delete_value(&self, head: RecordId) -> Result<()> {
        let mut cur = Some(head);
        while let Some(rid) = cur {
            let rec = self.heap.get(rid)?;
            self.heap.delete(rid)?;
            cur = next_chunk(&rec)?;
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.index.get(key)? {
            Some(ridb) => Ok(Some(self.read_value(rid_of(&ridb)?)?)),
            None => Ok(None),
        }
    }
}

/// Store `value` in `heap` as a chunk chain; returns the head record id.
fn write_value(heap: &HeapFile, value: &[u8]) -> Result<RecordId> {
    let chunk_payload = HeapFile::max_record_len() - 8;
    // Write chunks back-to-front so each holds its successor's rid.
    let mut next: u64 = 0;
    let mut chunks: Vec<&[u8]> = value.chunks(chunk_payload).collect();
    if chunks.is_empty() {
        chunks.push(&[]);
    }
    for chunk in chunks.iter().rev() {
        let mut rec = Vec::with_capacity(8 + chunk.len());
        rec.extend_from_slice(&next.to_le_bytes());
        rec.extend_from_slice(chunk);
        let rid = heap.insert(&rec)?;
        next = rid.to_u64() + 1; // +1 so 0 can mean "no next"
    }
    Ok(RecordId::from_u64(next - 1))
}

/// The successor link in a chunk record's first eight bytes.
fn next_chunk(rec: &[u8]) -> Result<Option<RecordId>> {
    let link = rec
        .get(..8)
        .ok_or_else(|| HipacError::Corruption("value chunk too short".into()))?;
    let next = u64::from_le_bytes(link.try_into().expect("eight bytes"));
    Ok((next != 0).then(|| RecordId::from_u64(next - 1)))
}

/// The LSN a [`REPL_APPLIED_KEY`] value records.
fn watermark(value: &[u8]) -> Option<u64> {
    let lsn = value.get(..8)?;
    Some(u64::from_le_bytes(lsn.try_into().expect("eight bytes")))
}

/// The least key above every key that starts with `prefix` — the prefix
/// with its trailing `0xFF` bytes dropped and its last byte incremented
/// — or `None` when no key is (an empty or all-`0xFF` prefix).
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let last = prefix.iter().rposition(|&b| b != 0xFF)?;
    let mut end = prefix[..=last].to_vec();
    end[last] += 1;
    Some(end)
}

/// Decode the record id an index leaf stores for a key.
fn rid_of(bytes: &[u8]) -> Result<RecordId> {
    let raw = bytes
        .try_into()
        .map_err(|_| HipacError::Corruption("bad rid in index".into()))?;
    Ok(RecordId::from_u64(u64::from_le_bytes(raw)))
}

struct Inner {
    engine: Engine,
    wal: Wal,
    pool_capacity: usize,
    checkpoint_threshold: u64,
    faults: Arc<FaultPolicy>,
}

/// Snapshot of the group-commit counters (diagnostics / wire stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCommitStats {
    /// Whether commits currently funnel through the group path.
    pub enabled: bool,
    /// Straggler window a leader waits for late committers (µs).
    pub window_us: u64,
    /// Cohort flushes performed (each is one WAL fsync).
    pub groups: u64,
    /// Transactions committed through cohorts. `grouped_txns / groups`
    /// is the mean batching factor the fsync amortizes over.
    pub grouped_txns: u64,
    /// Largest cohort a single fsync has covered.
    pub largest_group: u64,
}

/// One committer's parked batch, waiting for a leader's fsync. The
/// slot's condvar is signaled only after the cohort's durability point.
struct GroupReq {
    txn: TxnId,
    ops: Vec<StoreOp>,
    slot: Arc<(StdMutex<Option<Result<()>>>, Condvar)>,
}

/// WAL group commit: the committer that pushes onto an *empty* queue is
/// that cohort's leader; everyone who piles on behind it is a follower.
/// The leader serializes against other leaders on `flush`, appends
/// every queued batch and pays **one** `fsync` for the whole cohort,
/// then fills each follower's slot and signals its condvar. Followers
/// never touch `flush` at all — crucially, collecting a result cannot
/// convoy behind the *next* leader's fsync, so a drained follower is
/// immediately free to commit again (that re-enqueue is what builds the
/// next cohort while the current fsync runs). A waiter is *never* woken
/// before its group's fsync by construction: slots are filled only
/// after `flush_cohort` returns.
struct GroupCommit {
    enabled: AtomicBool,
    window_us: AtomicU64,
    queue: StdMutex<Vec<GroupReq>>,
    flush: StdMutex<()>,
    /// Committers currently inside `commit` (the degenerate-to-immediate
    /// check: a lone committer never waits out the window).
    committers: AtomicUsize,
    groups: AtomicU64,
    grouped_txns: AtomicU64,
    largest_group: AtomicU64,
}

impl GroupCommit {
    fn from_env() -> GroupCommit {
        let enabled = !matches!(
            std::env::var("HIPAC_GROUP_COMMIT").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        );
        let window_us = std::env::var("HIPAC_GROUP_COMMIT_WINDOW_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        GroupCommit {
            enabled: AtomicBool::new(enabled),
            window_us: AtomicU64::new(window_us),
            queue: StdMutex::new(Vec::new()),
            flush: StdMutex::new(()),
            committers: AtomicUsize::new(0),
            groups: AtomicU64::new(0),
            grouped_txns: AtomicU64::new(0),
            largest_group: AtomicU64::new(0),
        }
    }
}

/// Decrements the active-committer gauge even on panic/early return.
struct CommitterGuard<'a>(&'a AtomicUsize);
impl Drop for CommitterGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The durable store. All methods are safe to call concurrently; writes
/// serialize internally.
///
/// ```
/// use hipac_storage::{DurableStore, StoreOp};
/// use hipac_common::TxnId;
/// let dir = std::env::temp_dir().join(format!("hipac-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let store = DurableStore::open(&dir).unwrap();
/// store.commit(TxnId(1), &[StoreOp::Put { key: b"k".to_vec(), value: b"v".to_vec() }]).unwrap();
/// assert_eq!(store.get(b"k").unwrap(), Some(b"v".to_vec()));
/// ```
pub struct DurableStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    group: GroupCommit,
    /// Cached view of the `repl.epoch` sidecar (see
    /// [`DurableStore::set_repl_epoch`]); the file is authoritative,
    /// these atomics only mirror it for lock-free reads on the
    /// replication hot path.
    repl_epoch: AtomicU64,
    repl_fence_prev: AtomicU64,
    repl_fence_start: AtomicU64,
    repl_fenced: AtomicU64,
    /// Serializes epoch-sidecar rewrites (rare: promotion / fencing).
    epoch_write: StdMutex<()>,
}

impl DurableStore {
    /// Open (creating or recovering as needed) the store in `dir`.
    pub fn open(dir: &Path) -> Result<DurableStore> {
        Self::open_with(dir, 1024, DEFAULT_CHECKPOINT_THRESHOLD)
    }

    /// Open with an explicit buffer-pool capacity (pages) and WAL
    /// checkpoint threshold (bytes).
    pub fn open_with(
        dir: &Path,
        pool_capacity: usize,
        checkpoint_threshold: u64,
    ) -> Result<DurableStore> {
        Self::open_with_faults(dir, pool_capacity, checkpoint_threshold, FaultPolicy::none())
    }

    /// As [`DurableStore::open_with`], threading a fault-injection
    /// policy through every mutating step of the store, its disk
    /// manager and its WAL (crash testing; see [`crate::fault`]).
    pub fn open_with_faults(
        dir: &Path,
        pool_capacity: usize,
        checkpoint_threshold: u64,
        faults: Arc<FaultPolicy>,
    ) -> Result<DurableStore> {
        std::fs::create_dir_all(dir)?;
        // A crash during checkpoint may leave a stale tmp file; it is
        // never authoritative, so discard it.
        let _ = std::fs::remove_file(dir.join("data.db.tmp"));
        let mut engine = Engine::open(&dir.join("data.db"), pool_capacity, Arc::clone(&faults))?;
        let (wal, records) = Wal::open_with_faults(&dir.join("wal.log"), Arc::clone(&faults))?;
        // The data and WAL files may have just been created: make their
        // directory entries durable before anything is logged against
        // them.
        faults.hit(FaultPoint::DirSync)?;
        sync_dir(dir)?;
        // Recovery: apply every committed batch in log order.
        let mut current: Option<(TxnId, Vec<StoreOp>)> = None;
        for rec in records {
            match rec {
                WalRecord::Begin { txn } => current = Some((txn, Vec::new())),
                WalRecord::Put { txn, key, value } => {
                    if let Some((t, ops)) = &mut current {
                        if *t == txn {
                            ops.push(StoreOp::Put { key, value });
                        }
                    }
                }
                WalRecord::Delete { txn, key } => {
                    if let Some((t, ops)) = &mut current {
                        if *t == txn {
                            ops.push(StoreOp::Delete { key });
                        }
                    }
                }
                WalRecord::Commit { txn } => {
                    if let Some((t, ops)) = current.take() {
                        if t == txn {
                            for op in &ops {
                                engine.apply(op)?;
                            }
                        }
                    }
                }
                WalRecord::Abort { .. } => current = None,
                WalRecord::Checkpoint => current = None,
            }
        }
        let (epoch, fence_prev, fence_start, fenced) =
            Self::read_epoch_file(&Self::epoch_path(dir));
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner {
                engine,
                wal,
                pool_capacity,
                checkpoint_threshold,
                faults,
            }),
            group: GroupCommit::from_env(),
            repl_epoch: AtomicU64::new(epoch),
            repl_fence_prev: AtomicU64::new(fence_prev),
            repl_fence_start: AtomicU64::new(fence_start),
            repl_fenced: AtomicU64::new(fenced),
            epoch_write: StdMutex::new(()),
        })
    }

    /// Override the group-commit mode set from the environment at open
    /// (`HIPAC_GROUP_COMMIT=on|off`, `HIPAC_GROUP_COMMIT_WINDOW_US`).
    /// `window` bounds how long a flush leader waits for stragglers;
    /// `Duration::ZERO` means pure piggyback batching (whoever queued
    /// while the previous fsync ran forms the next cohort).
    pub fn set_group_commit(&self, enabled: bool, window: Duration) {
        self.group.enabled.store(enabled, Ordering::Relaxed);
        self.group
            .window_us
            .store(window.as_micros() as u64, Ordering::Relaxed);
    }

    /// Current group-commit configuration and counters.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            enabled: self.group.enabled.load(Ordering::Relaxed),
            window_us: self.group.window_us.load(Ordering::Relaxed),
            groups: self.group.groups.load(Ordering::Relaxed),
            grouped_txns: self.group.grouped_txns.load(Ordering::Relaxed),
            largest_group: self.group.largest_group.load(Ordering::Relaxed),
        }
    }

    /// Atomically and durably commit a batch of operations on behalf of
    /// top-level transaction `txn`.
    ///
    /// Transactional batches (`txn != TxnId(0)`) absorb any reply
    /// journal ops the network layer annotated onto this thread
    /// ([`crate::journal::set_pending_ops`]): the cached ack becomes
    /// durable in the same WAL flush as the commit it acknowledges, so
    /// no crash point can separate the two. Metadata batches
    /// (`TxnId(0)`) leave the annotation alone — they can be flushed
    /// mid-dispatch (push outbox writes) before the data batch exists.
    pub fn commit(&self, txn: TxnId, ops: &[StoreOp]) -> Result<()> {
        // The journal annotation is a *thread-local*: it must be
        // consumed here, on the caller's thread, before the batch can
        // be handed to a group leader running on some other thread.
        let merged: Vec<StoreOp>;
        let batch: &[StoreOp] = match txn {
            TxnId(0) => ops,
            _ => match crate::journal::take_pending_ops() {
                Some(extra) if !extra.is_empty() => {
                    merged = ops.iter().cloned().chain(extra).collect();
                    &merged
                }
                _ => ops,
            },
        };
        if !self.group.enabled.load(Ordering::Relaxed) {
            return self.commit_immediate(txn, batch);
        }
        self.commit_grouped(txn, batch.to_vec())
    }

    /// The pre-group path: one WAL append + fsync per commit, under the
    /// store lock. Kept verbatim as the differential baseline
    /// (`HIPAC_GROUP_COMMIT=off`).
    fn commit_immediate(&self, txn: TxnId, batch: &[StoreOp]) -> Result<()> {
        let mut inner = self.inner.lock();
        Self::log_batch(&inner.wal, txn, batch)?;
        for op in batch {
            // Failpoint between the durable log and each in-memory
            // apply: a crash here must recover the batch from the WAL.
            inner.faults.hit(FaultPoint::StoreApply)?;
            inner.engine.apply(op)?;
        }
        if inner.wal.size()? >= inner.checkpoint_threshold {
            Self::checkpoint_locked(&self.dir, &mut inner)?;
        }
        Ok(())
    }

    /// Group path: park the batch on the queue, then race for the
    /// `flush` mutex. Whoever wins is leader for everything queued at
    /// that moment; everyone else blocks on the mutex, which the leader
    /// only releases *after* the cohort's single fsync (and applies),
    /// so no committer can observe success before durability.
    fn commit_grouped(&self, txn: TxnId, ops: Vec<StoreOp>) -> Result<()> {
        self.group.committers.fetch_add(1, Ordering::Relaxed);
        let gauge = CommitterGuard(&self.group.committers);
        let slot: Arc<(StdMutex<Option<Result<()>>>, Condvar)> =
            Arc::new((StdMutex::new(None), Condvar::new()));
        let leader = {
            let mut q = self.group.queue.lock().unwrap();
            let leader = q.is_empty();
            q.push(GroupReq {
                txn,
                ops,
                slot: Arc::clone(&slot),
            });
            leader
        };
        if !leader {
            // Follower: a leader's request is already queued ahead of
            // ours (only a drain empties the queue, and only leaders
            // drain), so its flush will cover us. Park on the slot.
            let (lock, cvar) = &*slot;
            let mut filled = lock.lock().unwrap();
            while filled.is_none() {
                filled = cvar.wait(filled).unwrap();
            }
            // The leader released our committer-gauge entry when it
            // filled the slot (were drained-but-unscheduled followers
            // still counted, the next leader's "everyone committing is
            // already queued" early-break could never fire and every
            // cohort would sit out the full straggler window).
            std::mem::forget(gauge);
            return filled.take().unwrap();
        }
        // Leader: serialize against the previous cohort's flush.
        let _flush = self.group.flush.lock().unwrap();
        // Optionally wait out the straggler window — but never when
        // everyone currently committing is already queued
        // (degenerate-to-immediate: a lone committer at low concurrency
        // pays no added latency).
        let window_us = self.group.window_us.load(Ordering::Relaxed);
        if window_us > 0 {
            let deadline = Instant::now() + Duration::from_micros(window_us);
            loop {
                let queued = self.group.queue.lock().unwrap().len();
                if queued >= self.group.committers.load(Ordering::Relaxed)
                    || Instant::now() >= deadline
                {
                    break;
                }
                std::thread::sleep(Duration::from_micros(10));
            }
        }
        let cohort = std::mem::take(&mut *self.group.queue.lock().unwrap());
        self.group.groups.fetch_add(1, Ordering::Relaxed);
        self.group
            .grouped_txns
            .fetch_add(cohort.len() as u64, Ordering::Relaxed);
        self.group
            .largest_group
            .fetch_max(cohort.len() as u64, Ordering::Relaxed);
        let results = self.flush_cohort(&cohort);
        let mut mine = Err(HipacError::Internal(
            "group leader missing from own cohort".into(),
        ));
        for (req, res) in cohort.iter().zip(results) {
            if Arc::ptr_eq(&req.slot, &slot) {
                mine = res;
            } else {
                let (lock, cvar) = &*req.slot;
                *lock.lock().unwrap() = Some(res);
                cvar.notify_one();
                // The follower is no longer a straggler the next leader
                // should wait for; it skips its own decrement when it
                // finds the slot filled.
                self.group.committers.fetch_sub(1, Ordering::Relaxed);
            }
        }
        mine
    }

    /// Append every cohort batch (each batch contiguous, in queue
    /// order), fsync once, then apply. Any failure fails the *whole*
    /// cohort: a batch appended before the failure is unsynced (or, for
    /// post-fsync failures, durable-but-unacked) and in either case the
    /// committer must not be told it succeeded — recovery and the
    /// reply-journal dedup absorb the ambiguity exactly as they do for
    /// single-commit fsync failures.
    fn flush_cohort(&self, cohort: &[GroupReq]) -> Vec<Result<()>> {
        let mut inner = self.inner.lock();
        let all_err = |e: HipacError| -> Vec<Result<()>> {
            cohort.iter().map(|_| Err(e.clone())).collect()
        };
        for req in cohort {
            if let Err(e) = Self::append_batch(&inner.wal, req.txn, &req.ops) {
                return all_err(e);
            }
        }
        if let Err(e) = inner.wal.sync() {
            return all_err(e);
        }
        // Durability point. A crash between here and the waiters being
        // woken (slot writes / mutex release) is the cohort-wide
        // "durable but unacked" window the crash matrix probes.
        if let Err(e) = inner.faults.hit(FaultPoint::GroupWake) {
            return all_err(e);
        }
        let mut results = Vec::with_capacity(cohort.len());
        for req in cohort {
            let mut ok = Ok(());
            for op in &req.ops {
                if let Err(e) = inner
                    .faults
                    .hit(FaultPoint::StoreApply)
                    .and_then(|()| inner.engine.apply(op))
                {
                    ok = Err(e);
                    break;
                }
            }
            results.push(ok);
        }
        if results.iter().all(|r| r.is_ok()) {
            match inner.wal.size() {
                Ok(size) if size >= inner.checkpoint_threshold => {
                    if let Err(e) = Self::checkpoint_locked(&self.dir, &mut inner) {
                        return all_err(e);
                    }
                }
                Ok(_) => {}
                Err(e) => return all_err(e),
            }
        }
        results
    }

    fn append_batch(wal: &Wal, txn: TxnId, ops: &[StoreOp]) -> Result<()> {
        let mut records = Vec::with_capacity(ops.len() + 2);
        records.push(WalRecord::Begin { txn });
        for op in ops {
            records.push(match op {
                StoreOp::Put { key, value } => WalRecord::Put {
                    txn,
                    key: key.clone(),
                    value: value.clone(),
                },
                StoreOp::Delete { key } => WalRecord::Delete {
                    txn,
                    key: key.clone(),
                },
            });
        }
        records.push(WalRecord::Commit { txn });
        wal.append_all(&records)
    }

    /// Failpoint for crash testing: durably log the batch but "crash"
    /// before applying it to the data structures. A subsequent
    /// [`DurableStore::open`] must recover the batch from the WAL.
    pub fn commit_log_only_for_crash_test(&self, txn: TxnId, ops: &[StoreOp]) -> Result<()> {
        let inner = self.inner.lock();
        Self::log_batch(&inner.wal, txn, ops)
    }

    fn log_batch(wal: &Wal, txn: TxnId, ops: &[StoreOp]) -> Result<()> {
        Self::append_batch(wal, txn, ops)?;
        wal.sync()
    }

    /// Read the value for `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.lock().engine.get(key)
    }

    /// All `(key, value)` pairs with `key` in the given range, in key
    /// order.
    pub fn range(
        &self,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let inner = self.inner.lock();
        let keys = inner.engine.index.range(start, end)?;
        let mut out = Vec::with_capacity(keys.len());
        for (key, ridb) in keys {
            let value = inner.engine.read_value(rid_of(&ridb)?)?;
            out.push((key, value));
        }
        Ok(out)
    }

    /// All `(key, value)` pairs whose key starts with `prefix`.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match prefix_successor(prefix) {
            Some(end) => self.range(Bound::Included(prefix), Bound::Excluded(&end)),
            None => self.range(Bound::Included(prefix), Bound::Unbounded),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> Result<usize> {
        self.inner.lock().engine.index.len()
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Force a checkpoint now (rewrite the data file compactly and
    /// truncate the WAL).
    pub fn checkpoint(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        Self::checkpoint_locked(&self.dir, &mut inner)
    }

    fn checkpoint_locked(dir: &Path, inner: &mut Inner) -> Result<()> {
        let tmp_path = dir.join("data.db.tmp");
        let data_path = dir.join("data.db");
        let _ = std::fs::remove_file(&tmp_path);
        // Build the shadow copy: one pass over the index in key order,
        // appending each value to the new heap and handing its new
        // address to the bulk loader. Every page is written once, as
        // the small write-back pool steals it or at the final flush.
        {
            let disk = DiskManager::open_with_faults(&tmp_path, Arc::clone(&inner.faults))?;
            let pool = Arc::new(BufferPool::new(Arc::new(disk), SHADOW_POOL_PAGES));
            let meta = pool.fetch(PageId(0))?;
            let heap = HeapFile::create(Arc::clone(&pool))?;
            let live = &inner.engine;
            let copied = live.index.entries()?.map(|entry| {
                let (key, ridb) = entry?;
                let value = live.read_value(rid_of(&ridb)?)?;
                let head = write_value(&heap, &value)?;
                Ok((key, head.to_u64().to_le_bytes().to_vec()))
            });
            let index = BTree::bulk_load(Arc::clone(&pool), copied)?;
            {
                let mut guard = meta.write();
                guard.put_u64(META_MAGIC_OFF, MAGIC);
                guard.put_u64(META_HEAP_OFF, heap.first_page().0);
                guard.put_u64(META_INDEX_OFF, index.root_page().0);
            }
            pool.flush_and_sync()?;
        }
        // Atomic switch; the rename itself needs a directory fsync to
        // be durable.
        inner.faults.hit(FaultPoint::CheckpointRename)?;
        std::fs::rename(&tmp_path, &data_path)?;
        inner.faults.hit(FaultPoint::DirSync)?;
        sync_dir(dir)?;
        // Reopen over the new file, then retire the WAL.
        inner.engine = Engine::open(&data_path, inner.pool_capacity, Arc::clone(&inner.faults))?;
        inner.wal.append(&WalRecord::Checkpoint)?;
        inner.wal.sync()?;
        inner.wal.reset()?;
        Ok(())
    }

    /// Current WAL size in bytes (diagnostics).
    pub fn wal_size(&self) -> Result<u64> {
        self.inner.lock().wal.size()
    }

    // ---- replication producer/consumer ------------------------------------

    /// LSN of the durable (synced) WAL frontier; every committed batch
    /// at or below this LSN is crash-safe and shippable.
    pub fn durable_lsn(&self) -> u64 {
        self.inner.lock().wal.durable_lsn()
    }

    /// Poll the replication tail: committed batches starting at
    /// `from_lsn`, or [`TailRead::OutOfRange`] when the resume point
    /// predates the retained log (snapshot required). See
    /// [`Wal::read_batches_from`].
    pub fn read_batches_from(&self, from_lsn: u64, max_bytes: u64) -> Result<TailRead> {
        self.inner.lock().wal.read_batches_from(from_lsn, max_bytes)
    }

    /// A consistent full snapshot for replica bootstrap: the durable
    /// LSN and every `(key, value)` pair the store holds at that LSN
    /// (excluding the replica watermark key). Taken under the store
    /// lock, so no commit can interleave between the LSN read and the
    /// scan.
    pub fn snapshot_for_repl(&self) -> Result<(u64, SnapshotPairs)> {
        let inner = self.inner.lock();
        let lsn = inner.wal.durable_lsn();
        let mut out = Vec::new();
        for entry in inner.engine.index.entries()? {
            let (key, ridb) = entry?;
            if key == REPL_APPLIED_KEY {
                continue;
            }
            let value = inner.engine.read_value(rid_of(&ridb)?)?;
            out.push((key, value));
        }
        Ok((lsn, out))
    }

    /// Replica side: apply one shipped batch and atomically record that
    /// the store now reflects the primary's log up to `applied_lsn`.
    /// Ops targeting the watermark key itself are dropped (a promoted
    /// primary that was once a replica must not replay its old
    /// watermark into followers).
    ///
    /// `prev_lsn` is the stream-chain position the batch ships from
    /// (the shipper's view of what this follower already holds). It
    /// must equal the store's current watermark exactly — otherwise a
    /// batch was dropped or replayed between the two, and absorbing
    /// this one would advance the watermark over a gap. That case
    /// returns [`HipacError::ReplGap`] without touching the store; the
    /// caller disconnects and resubscribes from its durable watermark,
    /// turning silent divergence into automatic recovery.
    pub fn apply_replicated(
        &self,
        ops: &[StoreOp],
        prev_lsn: u64,
        applied_lsn: u64,
    ) -> Result<()> {
        let expected = self.replicated_applied_lsn()?.unwrap_or(0);
        if prev_lsn != expected || applied_lsn <= expected {
            return Err(HipacError::ReplGap {
                expected,
                got: prev_lsn,
            });
        }
        let mut batch: Vec<StoreOp> = ops
            .iter()
            .filter(|op| {
                let key = match op {
                    StoreOp::Put { key, .. } => key,
                    StoreOp::Delete { key } => key,
                };
                key != REPL_APPLIED_KEY
            })
            .cloned()
            .collect();
        batch.push(StoreOp::Put {
            key: REPL_APPLIED_KEY.to_vec(),
            value: applied_lsn.to_le_bytes().to_vec(),
        });
        // TxnId(0): metadata-style batch — never merges a reply-journal
        // annotation from this thread.
        self.commit(TxnId(0), &batch)
    }

    /// Replica side: replace the whole store contents with a primary
    /// snapshot taken at `snapshot_lsn`. The deletes, puts and the
    /// watermark ride one WAL batch, so a crash mid-install recovers
    /// either the old state (old watermark) or the new one.
    pub fn install_snapshot(
        &self,
        pairs: &[(Vec<u8>, Vec<u8>)],
        snapshot_lsn: u64,
    ) -> Result<()> {
        let existing = self.range(Bound::Unbounded, Bound::Unbounded)?;
        let mut batch = Vec::with_capacity(existing.len() + pairs.len() + 1);
        let incoming: std::collections::HashSet<&[u8]> =
            pairs.iter().map(|(k, _)| k.as_slice()).collect();
        for (key, _) in &existing {
            if !incoming.contains(key.as_slice()) && key != REPL_APPLIED_KEY {
                batch.push(StoreOp::Delete { key: key.clone() });
            }
        }
        for (key, value) in pairs {
            if key.as_slice() == REPL_APPLIED_KEY {
                continue;
            }
            batch.push(StoreOp::Put {
                key: key.clone(),
                value: value.clone(),
            });
        }
        batch.push(StoreOp::Put {
            key: REPL_APPLIED_KEY.to_vec(),
            value: snapshot_lsn.to_le_bytes().to_vec(),
        });
        self.commit(TxnId(0), &batch)
    }

    /// The primary LSN this (replica) store reflects, if it has ever
    /// applied replicated state.
    pub fn replicated_applied_lsn(&self) -> Result<Option<u64>> {
        Ok(self.inner.lock().engine.repl_applied)
    }

    /// Overwrite the replica watermark directly (rejoin repair only —
    /// normal application always rides [`DurableStore::apply_replicated`]).
    /// A fenced ex-primary's stale watermark lives in the *old*
    /// primary's LSN space; chaining the new primary's stream onto it
    /// would either refuse forever or, worse, silently line up with an
    /// unrelated LSN. Rejoin therefore rewrites it to the new primary's
    /// fence LSN (tail truncated) or [`REPL_SNAPSHOT_SENTINEL`] (tail
    /// gone, snapshot forced) before subscribing.
    pub fn set_replicated_watermark(&self, lsn: u64) -> Result<()> {
        self.commit(
            TxnId(0),
            &[StoreOp::Put {
                key: REPL_APPLIED_KEY.to_vec(),
                value: lsn.to_le_bytes().to_vec(),
            }],
        )
    }

    // ---- replication epoch (split-brain fencing) ---------------------------

    fn epoch_path(dir: &Path) -> PathBuf {
        dir.join("repl.epoch")
    }

    /// Read the `repl.epoch` sidecar: `(epoch, fence_prev,
    /// fence_start)`. Missing or torn reads as all-zero — epoch 0 is
    /// the pre-failover world where fencing never triggers, exactly the
    /// pre-v9 behavior.
    fn read_epoch_file(path: &Path) -> (u64, u64, u64, u64) {
        match std::fs::read(path) {
            Ok(b) if b.len() >= 24 => (
                u64::from_le_bytes(b[..8].try_into().unwrap()),
                u64::from_le_bytes(b[8..16].try_into().unwrap()),
                u64::from_le_bytes(b[16..24].try_into().unwrap()),
                // A fourth word marks a fence adoption awaiting
                // divergence repair; 24-byte files predate it = clean.
                if b.len() >= 32 {
                    u64::from_le_bytes(b[24..32].try_into().unwrap())
                } else {
                    0
                },
            ),
            _ => (0, 0, 0, 0),
        }
    }

    /// Atomically replace the `repl.epoch` sidecar (tmp + fsync +
    /// rename + directory fsync — the `.base` sidecar's pattern).
    fn write_epoch_file(
        path: &Path,
        epoch: u64,
        fence_prev: u64,
        fence_start: u64,
        fenced: u64,
    ) -> Result<()> {
        let tmp = path.with_extension("epoch.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            use std::io::Write as _;
            f.write_all(&epoch.to_le_bytes())?;
            f.write_all(&fence_prev.to_le_bytes())?;
            f.write_all(&fence_start.to_le_bytes())?;
            f.write_all(&fenced.to_le_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            sync_dir(dir)?;
        }
        Ok(())
    }

    /// The replication epoch this store last durably observed. Epochs
    /// are bumped by promotion and only ever move forward; a batch
    /// stamped with an older epoch comes from a deposed primary.
    pub fn repl_epoch(&self) -> u64 {
        self.repl_epoch.load(Ordering::SeqCst)
    }

    /// The fence recorded with the current epoch: `(fence_prev,
    /// fence_start)`. `fence_prev` is the *old* primary's LSN the
    /// promoting replica had applied (the truncate point for the
    /// deposed node's divergent tail); `fence_start` is the *new*
    /// primary's own durable LSN at promotion (where the new stream
    /// begins). Zero/zero until the first promotion.
    pub fn repl_fence(&self) -> (u64, u64) {
        (
            self.repl_fence_prev.load(Ordering::SeqCst),
            self.repl_fence_start.load(Ordering::SeqCst),
        )
    }

    /// Durably advance the replication epoch (promotion bumps it;
    /// fencing adopts a newer one observed on the wire). Regressions
    /// are refused as no-ops so a delayed stale writer can never move
    /// the store backwards; same-epoch calls may refresh the fence.
    /// Returns the epoch now in force.
    pub fn set_repl_epoch(&self, epoch: u64, fence_prev: u64, fence_start: u64) -> Result<u64> {
        let _guard = self.epoch_write.lock().unwrap();
        let current = self.repl_epoch.load(Ordering::SeqCst);
        if epoch < current {
            return Ok(current);
        }
        Self::write_epoch_file(&Self::epoch_path(&self.dir), epoch, fence_prev, fence_start, 0)?;
        self.repl_fence_prev.store(fence_prev, Ordering::SeqCst);
        self.repl_fence_start.store(fence_start, Ordering::SeqCst);
        self.repl_fenced.store(0, Ordering::SeqCst);
        self.repl_epoch.store(epoch, Ordering::SeqCst);
        Ok(epoch)
    }

    /// Durably adopt a newer epoch observed *under duress* — a primary
    /// discovering on the wire that it was deposed. Unlike
    /// [`DurableStore::set_repl_epoch`] this leaves the fenced marker
    /// set: the local WAL may still carry a divergent tail written
    /// under the old epoch, so the store is not yet safe to resume as
    /// a replica by raw LSN. `ReplicaNode::rejoin` repairs the tail
    /// and clears the marker via `set_repl_epoch`. Regressions are
    /// refused as no-ops; the existing fence coordinates are kept.
    pub fn fence_epoch(&self, epoch: u64) -> Result<u64> {
        let _guard = self.epoch_write.lock().unwrap();
        let current = self.repl_epoch.load(Ordering::SeqCst);
        if epoch < current {
            return Ok(current);
        }
        let (prev, start) = (
            self.repl_fence_prev.load(Ordering::SeqCst),
            self.repl_fence_start.load(Ordering::SeqCst),
        );
        Self::write_epoch_file(&Self::epoch_path(&self.dir), epoch, prev, start, 1)?;
        self.repl_fenced.store(1, Ordering::SeqCst);
        self.repl_epoch.store(epoch, Ordering::SeqCst);
        Ok(epoch)
    }

    /// Whether the current epoch was adopted by fencing (see
    /// [`DurableStore::fence_epoch`]) and divergence repair has not
    /// yet run. While set, the store's WAL tail is suspect.
    pub fn repl_fenced(&self) -> bool {
        self.repl_fenced.load(Ordering::SeqCst) != 0
    }

    /// Discard this store's WAL suffix past `to_lsn` *while the store
    /// is closed* — divergent-tail repair before rejoining as a
    /// replica. The subsequent [`DurableStore::open`] replays exactly
    /// checkpoint + retained prefix, i.e. the state at the fence.
    /// [`TailTruncate::Gone`] means a checkpoint already baked the
    /// divergent suffix into the data file and the caller must resync
    /// from a snapshot (see [`REPL_SNAPSHOT_SENTINEL`]).
    pub fn truncate_wal_tail(dir: &Path, to_lsn: u64) -> Result<TailTruncate> {
        let (wal, _records) = Wal::open(&dir.join("wal.log"))?;
        wal.truncate_tail(to_lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hipac-store-tests/{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn put(key: &[u8], value: &[u8]) -> StoreOp {
        StoreOp::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    fn del(key: &[u8]) -> StoreOp {
        StoreOp::Delete { key: key.to_vec() }
    }

    #[test]
    fn basic_commit_and_get() {
        let dir = tmpdir("basic");
        let store = DurableStore::open(&dir).unwrap();
        store
            .commit(TxnId(1), &[put(b"a", b"1"), put(b"b", b"2")])
            .unwrap();
        assert_eq!(store.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(store.get(b"c").unwrap(), None);
        store.commit(TxnId(2), &[del(b"a"), put(b"b", b"22")]).unwrap();
        assert_eq!(store.get(b"a").unwrap(), None);
        assert_eq!(store.get(b"b").unwrap(), Some(b"22".to_vec()));
        assert_eq!(store.len().unwrap(), 1);
    }

    #[test]
    fn survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let store = DurableStore::open(&dir).unwrap();
            store
                .commit(TxnId(1), &[put(b"k", b"persisted")])
                .unwrap();
        }
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.get(b"k").unwrap(), Some(b"persisted".to_vec()));
    }

    #[test]
    fn crash_before_apply_recovers_from_wal() {
        let dir = tmpdir("crash");
        {
            let store = DurableStore::open(&dir).unwrap();
            store.commit(TxnId(1), &[put(b"a", b"1")]).unwrap();
            // Simulated crash: batch reaches the WAL but not the data
            // structures, and nothing is flushed.
            store
                .commit_log_only_for_crash_test(TxnId(2), &[put(b"b", b"2"), del(b"a")])
                .unwrap();
        }
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(store.get(b"a").unwrap(), None, "delete recovered too");
    }

    #[test]
    fn torn_uncommitted_batch_is_ignored() {
        let dir = tmpdir("torn");
        {
            let store = DurableStore::open(&dir).unwrap();
            store.commit(TxnId(1), &[put(b"keep", b"me")]).unwrap();
        }
        // Hand-append an unterminated batch directly to the WAL.
        {
            let (wal, _) = Wal::open(&dir.join("wal.log")).unwrap();
            wal.append(&WalRecord::Begin { txn: TxnId(9) }).unwrap();
            wal.append(&WalRecord::Put {
                txn: TxnId(9),
                key: b"phantom".to_vec(),
                value: b"x".to_vec(),
            })
            .unwrap();
            wal.sync().unwrap();
        }
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.get(b"keep").unwrap(), Some(b"me".to_vec()));
        assert_eq!(store.get(b"phantom").unwrap(), None);
    }

    #[test]
    fn checkpoint_truncates_wal_and_preserves_data() {
        let dir = tmpdir("ckpt");
        let store = DurableStore::open(&dir).unwrap();
        for i in 0..100u64 {
            store
                .commit(TxnId(i), &[put(&i.to_be_bytes(), &[i as u8; 64])])
                .unwrap();
        }
        assert!(store.wal_size().unwrap() > 0);
        store.checkpoint().unwrap();
        assert_eq!(store.wal_size().unwrap(), 0);
        for i in 0..100u64 {
            assert_eq!(
                store.get(&i.to_be_bytes()).unwrap(),
                Some(vec![i as u8; 64])
            );
        }
        // Post-checkpoint commits + reopen still work.
        store.commit(TxnId(1000), &[put(b"post", b"ckpt")]).unwrap();
        drop(store);
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.get(b"post").unwrap(), Some(b"ckpt".to_vec()));
        assert_eq!(store.len().unwrap(), 101);
    }

    #[test]
    fn automatic_checkpoint_by_threshold() {
        let dir = tmpdir("auto-ckpt");
        let store = DurableStore::open_with(&dir, 256, 4096).unwrap();
        for i in 0..200u64 {
            store
                .commit(TxnId(i), &[put(&i.to_be_bytes(), &[7u8; 100])])
                .unwrap();
        }
        // The 4 KiB threshold must have tripped at least once.
        assert!(store.wal_size().unwrap() < 8192);
        assert_eq!(store.len().unwrap(), 200);
    }

    #[test]
    fn large_values_chunk_across_records() {
        let dir = tmpdir("large");
        let store = DurableStore::open(&dir).unwrap();
        let big = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect::<Vec<u8>>();
        store.commit(TxnId(1), &[put(b"big", &big)]).unwrap();
        assert_eq!(store.get(b"big").unwrap(), Some(big.clone()));
        // Overwrite with a small value and make sure the chain is gone
        // (checkpoint rewrites compactly; size should be small).
        store.commit(TxnId(2), &[put(b"big", b"small")]).unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.get(b"big").unwrap(), Some(b"small".to_vec()));
        let data_len = std::fs::metadata(dir.join("data.db")).unwrap().len();
        assert!(data_len < 64 * 1024, "compacted file is small, got {data_len}");
        // And the big value still readable after reopen.
        drop(store);
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.get(b"big").unwrap(), Some(b"small".to_vec()));
    }

    #[test]
    fn range_and_prefix_scans() {
        let dir = tmpdir("scan");
        let store = DurableStore::open(&dir).unwrap();
        store
            .commit(
                TxnId(1),
                &[
                    put(b"a/1", b"v1"),
                    put(b"a/2", b"v2"),
                    put(b"b/1", b"v3"),
                ],
            )
            .unwrap();
        let a = store.scan_prefix(b"a/").unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].0, b"a/1");
        let all = store.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all.len(), 3);
    }

    /// A prefix scan stops at the prefix's successor: it returns exactly
    /// the prefixed keys (trailing `0xFF` bytes included) and reads no
    /// value past them — here, a later entry whose record id is garbage
    /// fails any read that reaches it.
    #[test]
    fn scan_prefix_reads_nothing_past_the_prefix() {
        let dir = tmpdir("prefix-bound");
        let store = DurableStore::open(&dir).unwrap();
        store
            .commit(
                TxnId(1),
                &[
                    put(b"b", b"before"),
                    put(b"c1", b"one"),
                    put(b"c\xff", b"two"),
                    put(b"c\xff\xff", b"three"),
                    put(b"d1", b"after"),
                ],
            )
            .unwrap();
        store.inner.lock().engine.index.insert(b"d2", b"no rid").unwrap();
        let pairs = |pairs: &[(&[u8], &[u8])]| -> Vec<(Vec<u8>, Vec<u8>)> {
            pairs.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
        };
        let (one, two, three): (&[u8], &[u8], &[u8]) = (b"c1", b"c\xff", b"c\xff\xff");
        assert_eq!(
            store.scan_prefix(b"c").unwrap(),
            pairs(&[(one, b"one"), (two, b"two"), (three, b"three")])
        );
        assert_eq!(
            store.scan_prefix(two).unwrap(),
            pairs(&[(two, b"two"), (three, b"three")])
        );
        assert_eq!(store.scan_prefix(b"\xff").unwrap(), pairs(&[]));
        assert!(
            store.scan_prefix(b"d").is_err(),
            "a scan that reaches the garbage entry reads it"
        );
    }

    /// The in-memory watermark follows every way the durable key moves:
    /// commit, reopen (recovery), checkpoint (engine reopen), snapshot.
    #[test]
    fn replicated_watermark_mirror_tracks_the_key() {
        let dir = tmpdir("watermark");
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.replicated_applied_lsn().unwrap(), None);
        store.set_replicated_watermark(7).unwrap();
        drop(store);
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.replicated_applied_lsn().unwrap(), Some(7));
        store.checkpoint().unwrap();
        assert_eq!(store.replicated_applied_lsn().unwrap(), Some(7));
        store.install_snapshot(&[], 40).unwrap();
        assert_eq!(store.replicated_applied_lsn().unwrap(), Some(40));
        store.checkpoint().unwrap();
        drop(store);
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.replicated_applied_lsn().unwrap(), Some(40));
        store.commit(TxnId(1), &[del(REPL_APPLIED_KEY)]).unwrap();
        assert_eq!(store.replicated_applied_lsn().unwrap(), None);
    }

    #[test]
    fn empty_value_roundtrips() {
        let dir = tmpdir("empty");
        let store = DurableStore::open(&dir).unwrap();
        store.commit(TxnId(1), &[put(b"e", b"")]).unwrap();
        assert_eq!(store.get(b"e").unwrap(), Some(vec![]));
        drop(store);
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.get(b"e").unwrap(), Some(vec![]));
    }

    #[test]
    fn directory_fsync_points_are_exercised() {
        let dir = tmpdir("dirsync");
        let faults = FaultPolicy::count_only();
        let store = DurableStore::open_with_faults(
            &dir,
            1024,
            DEFAULT_CHECKPOINT_THRESHOLD,
            Arc::clone(&faults),
        )
        .unwrap();
        let dirsyncs = |log: &[FaultPoint]| {
            log.iter().filter(|p| **p == FaultPoint::DirSync).count()
        };
        assert!(
            dirsyncs(&faults.log()) >= 1,
            "creating data/wal files must fsync the parent directory"
        );
        let before = dirsyncs(&faults.log());
        store.commit(TxnId(1), &[put(b"k", b"v")]).unwrap();
        store.checkpoint().unwrap();
        assert!(
            dirsyncs(&faults.log()) > before,
            "the checkpoint rename must fsync the parent directory"
        );
        // And the injectable crash right before the rename leaves the
        // store recoverable to the pre-checkpoint (same logical) state.
        let log = faults.log();
        let rename_idx = log
            .iter()
            .position(|p| *p == FaultPoint::CheckpointRename)
            .expect("checkpoint crossed its rename fault point") as u64;
        drop(store);
        let dir2 = tmpdir("dirsync2");
        let faults2 = FaultPolicy::crash_at(rename_idx, 42);
        let store2 = DurableStore::open_with_faults(
            &dir2,
            1024,
            DEFAULT_CHECKPOINT_THRESHOLD,
            faults2,
        )
        .unwrap();
        store2.commit(TxnId(1), &[put(b"k", b"v")]).unwrap();
        let err = store2.checkpoint().unwrap_err();
        assert!(FaultPolicy::is_injected(&err));
        drop(store2);
        let recovered = DurableStore::open(&dir2).unwrap();
        assert_eq!(recovered.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn repl_epoch_persists_and_never_regresses() {
        let dir = tmpdir("epoch");
        {
            let store = DurableStore::open(&dir).unwrap();
            assert_eq!(store.repl_epoch(), 0);
            assert_eq!(store.set_repl_epoch(3, 100, 200).unwrap(), 3);
            assert_eq!(store.repl_epoch(), 3);
            assert_eq!(store.repl_fence(), (100, 200));
            // A stale epoch cannot move the store backwards.
            assert_eq!(store.set_repl_epoch(1, 0, 0).unwrap(), 3);
            assert_eq!(store.repl_fence(), (100, 200));
        }
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.repl_epoch(), 3);
        assert_eq!(store.repl_fence(), (100, 200));
    }

    #[test]
    fn fence_epoch_marks_store_dirty_until_repair() {
        let dir = tmpdir("epoch-fence");
        {
            let store = DurableStore::open(&dir).unwrap();
            assert!(!store.repl_fenced());
            // Fencing adopts the epoch but keeps the repair marker set
            // and the old fence coordinates intact.
            assert_eq!(store.set_repl_epoch(1, 10, 20).unwrap(), 1);
            assert_eq!(store.fence_epoch(2).unwrap(), 2);
            assert!(store.repl_fenced());
            assert_eq!(store.repl_fence(), (10, 20));
            // Stale fence attempts are no-ops.
            assert_eq!(store.fence_epoch(1).unwrap(), 2);
        }
        // The marker survives restart; clean adoption clears it.
        let store = DurableStore::open(&dir).unwrap();
        assert!(store.repl_fenced());
        assert_eq!(store.set_repl_epoch(2, 30, 40).unwrap(), 2);
        assert!(!store.repl_fenced());
        drop(store);
        assert!(!DurableStore::open(&dir).unwrap().repl_fenced());
    }

    #[test]
    fn truncate_wal_tail_repairs_closed_store() {
        let dir = tmpdir("tail-repair");
        let fence;
        {
            let store = DurableStore::open(&dir).unwrap();
            store.commit(TxnId(1), &[put(b"kept", b"1")]).unwrap();
            fence = store.durable_lsn();
            store.commit(TxnId(2), &[put(b"divergent", b"2")]).unwrap();
        }
        assert_eq!(
            DurableStore::truncate_wal_tail(&dir, fence).unwrap(),
            TailTruncate::Done
        );
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.get(b"kept").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.get(b"divergent").unwrap(), None);
        assert_eq!(store.durable_lsn(), fence);
    }

    #[test]
    fn truncate_wal_tail_gone_after_checkpoint() {
        let dir = tmpdir("tail-gone");
        let fence;
        {
            let store = DurableStore::open(&dir).unwrap();
            store.commit(TxnId(1), &[put(b"a", b"1")]).unwrap();
            fence = store.durable_lsn();
            store.commit(TxnId(2), &[put(b"b", b"2")]).unwrap();
            // The checkpoint bakes the divergent batch into data.db:
            // WAL truncation can no longer undo it.
            store.checkpoint().unwrap();
        }
        assert_eq!(
            DurableStore::truncate_wal_tail(&dir, fence).unwrap(),
            TailTruncate::Gone
        );
    }

    #[test]
    fn snapshot_sentinel_watermark_forces_out_of_range() {
        let dir = tmpdir("sentinel");
        let store = DurableStore::open(&dir).unwrap();
        store
            .set_replicated_watermark(REPL_SNAPSHOT_SENTINEL)
            .unwrap();
        assert_eq!(
            store.replicated_applied_lsn().unwrap(),
            Some(REPL_SNAPSHOT_SENTINEL)
        );
        match store.read_batches_from(REPL_SNAPSHOT_SENTINEL, 1 << 20).unwrap() {
            TailRead::OutOfRange { .. } => {}
            other => panic!("sentinel must force a snapshot, got {other:?}"),
        }
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let b1 = batch_digest(100, TxnId(1), &[put(b"a", b"1")]);
        let b2 = batch_digest(200, TxnId(2), &[put(b"b", b"2")]);
        assert_ne!(b1, b2);
        assert_ne!(
            b1,
            batch_digest(100, TxnId(1), &[put(b"a", b"x")]),
            "value change must change the digest"
        );
        assert_ne!(
            fold_digest(fold_digest(0, b1), b2),
            fold_digest(fold_digest(0, b2), b1),
            "fold must be order-sensitive"
        );
        assert_ne!(
            batch_digest(100, TxnId(1), &[put(b"a", b"1")]),
            batch_digest(100, TxnId(1), &[del(b"a")]),
        );
    }

    #[test]
    fn many_batches_with_reopen_each_time() {
        let dir = tmpdir("churn");
        for round in 0..5u64 {
            let store = DurableStore::open(&dir).unwrap();
            store
                .commit(
                    TxnId(round),
                    &[put(format!("k{round}").as_bytes(), b"v")],
                )
                .unwrap();
            drop(store);
        }
        let store = DurableStore::open(&dir).unwrap();
        assert_eq!(store.len().unwrap(), 5);
    }
}
