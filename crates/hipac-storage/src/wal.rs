//! Write-ahead log: a checksummed record stream written in place into
//! a zero-filled region kept ahead of its logical end.
//!
//! The durable store logs *committed top-level transactions only* (see
//! the crate docs), so the record vocabulary is logical and redo-only:
//! `Begin / Put / Delete / Commit / Abort` plus `Checkpoint` markers.
//!
//! Each frame on disk is `[len: u32][crc32: u32][payload: len bytes]`.
//! Every record has a tag byte, so a real frame never has `len == 0`.
//!
//! ## The fill
//!
//! Frames are not appended to the file. The log keeps a region of
//! zeros ahead of its logical end that are already written and
//! allocated, and each append overwrites the next bytes of it in place.
//! A commit's `fdatasync` then writes back data blocks only. It does not
//! also have to write the file's size, extents and allocation
//! metadata, which an appending write dirties. When a batch does not
//! fit, the region is extended to the next multiple of [`FILL_STEP`]
//! by writing zeros, with a sync of its own, so one commit per step
//! pays the metadata flush instead of every commit. The zeros are
//! written, not `fallocate`d: an unwritten extent would turn the first
//! write into a metadata update again.
//!
//! The logical end (`len`, `synced_len`) is the only length the log
//! uses: sizes, LSNs, the tail and the checkpoint threshold never look
//! at the file length. On open, the scan stops at the first frame
//! header with `len == 0` (the start of the fill) or at the first torn
//! or corrupt frame; everything before it is the recoverable prefix,
//! which is exactly the crash-consistency contract fsync gives us, and
//! the file is cut back to that prefix. A clean close trims the fill,
//! so a cleanly closed log ends at its last frame. A crashed process
//! trims nothing, so the next open sees the zero tail a real crash
//! leaves.
//!
//! ## LSNs and the replication tail
//!
//! Every byte ever appended gets a **log sequence number**: the LSN of
//! a position is the cumulative number of bytes appended to the log
//! over its whole lifetime, *including* bytes retired by checkpoint
//! truncation. [`Wal::reset`] folds the truncated length into a base
//! offset persisted in a `.base` sidecar file. The sidecar is written
//! atomically (tmp + rename + directory fsync) in two phases: first
//! with a *pending-truncate* flag set, then — after the file truncate
//! is durable — with the flag cleared. A crash between the phases is
//! detected on reopen, which completes the truncate before serving, so
//! the retained old bytes are never re-addressed at fresh LSNs. LSNs
//! are therefore monotonic and never reused across checkpoints and
//! restarts, which is what lets a replica name a resume point that
//! survives the primary's log being truncated under it: a resume LSN
//! below [`Wal::start_lsn`] simply reports [`TailRead::OutOfRange`]
//! and the replica falls back to a snapshot.
//!
//! [`Wal::read_batches_from`] is the replication producer: it reads
//! the *synced* region of the log from a batch-aligned LSN and groups
//! records into committed batches with exactly the semantics of crash
//! recovery (`Begin` opens, a matching `Commit` emits, `Abort` and
//! `Checkpoint` discard, a trailing partial batch is withheld), so
//! applying shipped batches in order is byte-for-byte equivalent to
//! replaying the log.

use crate::crc::crc32;
use crate::fault::{FaultPoint, FaultPolicy};
use crate::store::StoreOp;
use hipac_common::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};
use hipac_common::{HipacError, Result, TxnId};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The fill's granularity: the zero-filled region grows to the next
/// multiple of this many bytes. One fill writes and syncs a step of
/// zeros, about 1 ms (at most 5 ms) on a virtio ext4 disk. At
/// `store_rw`'s ~1 KiB per commit, one commit in about 750 pays it, so
/// the stall shows at the commit latency's p99.9, not at its p99. A
/// smaller step stalls more often; a larger one holds more zeros on a
/// quiet log, and every checkpoint empties the log and starts over.
pub const FILL_STEP: u64 = 1 << 20;

/// A chunk of zeros the fill writes from.
static ZEROS: [u8; 64 * 1024] = [0; 64 * 1024];

/// One logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A committed batch for `txn` starts.
    Begin { txn: TxnId },
    /// Upsert of `key` to `value`.
    Put {
        txn: TxnId,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// Removal of `key`.
    Delete { txn: TxnId, key: Vec<u8> },
    /// The batch for `txn` is complete; recovery applies it.
    Commit { txn: TxnId },
    /// The batch for `txn` must be ignored (written only by tests and
    /// kept for completeness — the store never logs uncommitted work).
    Abort { txn: TxnId },
    /// All preceding records are reflected in the data file.
    Checkpoint,
}

const T_BEGIN: u8 = 1;
const T_PUT: u8 = 2;
const T_DELETE: u8 = 3;
const T_COMMIT: u8 = 4;
const T_ABORT: u8 = 5;
const T_CHECKPOINT: u8 = 6;

/// The payload of a record that carries only its transaction.
fn encode_txn(buf: &mut Vec<u8>, tag: u8, txn: TxnId) {
    buf.push(tag);
    put_uvarint(buf, txn.raw());
}

/// The payload of a `Put` or `Delete` record: the one encoding of an
/// operation, whether it arrives as a [`WalRecord`] or a [`StoreOp`].
fn encode_op(buf: &mut Vec<u8>, txn: TxnId, op: &StoreOp) {
    match op {
        StoreOp::Put { key, value } => encode_put(buf, txn, key, value),
        StoreOp::Delete { key } => encode_delete(buf, txn, key),
    }
}

fn encode_put(buf: &mut Vec<u8>, txn: TxnId, key: &[u8], value: &[u8]) {
    encode_txn(buf, T_PUT, txn);
    put_bytes(buf, key);
    put_bytes(buf, value);
}

fn encode_delete(buf: &mut Vec<u8>, txn: TxnId, key: &[u8]) {
    encode_txn(buf, T_DELETE, txn);
    put_bytes(buf, key);
}

/// Append one frame to `buf`: reserve its header, let `payload` write
/// the payload behind it, then patch in the length and the CRC.
fn push_frame(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    payload(buf);
    let len = (buf.len() - start - 8) as u32;
    let crc = crc32(&buf[start + 8..]);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

impl WalRecord {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Begin { txn } => encode_txn(buf, T_BEGIN, *txn),
            WalRecord::Put { txn, key, value } => encode_put(buf, *txn, key, value),
            WalRecord::Delete { txn, key } => encode_delete(buf, *txn, key),
            WalRecord::Commit { txn } => encode_txn(buf, T_COMMIT, *txn),
            WalRecord::Abort { txn } => encode_txn(buf, T_ABORT, *txn),
            WalRecord::Checkpoint => buf.push(T_CHECKPOINT),
        }
    }

    fn decode(buf: &[u8]) -> Result<WalRecord> {
        let mut pos = 0usize;
        let tag = *buf
            .first()
            .ok_or_else(|| HipacError::WalCorrupt("empty record".into()))?;
        pos += 1;
        let rec = match tag {
            T_BEGIN => WalRecord::Begin {
                txn: TxnId(get_uvarint(buf, &mut pos)?),
            },
            T_PUT => {
                let txn = TxnId(get_uvarint(buf, &mut pos)?);
                let key = get_bytes(buf, &mut pos)?.to_vec();
                let value = get_bytes(buf, &mut pos)?.to_vec();
                WalRecord::Put { txn, key, value }
            }
            T_DELETE => {
                let txn = TxnId(get_uvarint(buf, &mut pos)?);
                let key = get_bytes(buf, &mut pos)?.to_vec();
                WalRecord::Delete { txn, key }
            }
            T_COMMIT => WalRecord::Commit {
                txn: TxnId(get_uvarint(buf, &mut pos)?),
            },
            T_ABORT => WalRecord::Abort {
                txn: TxnId(get_uvarint(buf, &mut pos)?),
            },
            T_CHECKPOINT => WalRecord::Checkpoint,
            other => {
                return Err(HipacError::WalCorrupt(format!(
                    "unknown record tag {other}"
                )))
            }
        };
        if pos != buf.len() {
            return Err(HipacError::WalCorrupt("trailing bytes in record".into()));
        }
        Ok(rec)
    }
}

/// One committed batch decoded from the log, as seen by the
/// replication tail. `next_lsn` is the LSN just past this batch's
/// `Commit` frame — the resume point after applying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// LSN of the first byte of the batch's `Begin` frame.
    pub start_lsn: u64,
    /// LSN one past the batch's `Commit` frame.
    pub next_lsn: u64,
    /// The committing top-level transaction.
    pub txn: TxnId,
    /// The batch's operations, in log order.
    pub ops: Vec<StoreOp>,
}

/// Result of one [`Wal::read_batches_from`] poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailRead {
    /// Zero or more complete committed batches starting at the
    /// requested LSN. `next_lsn` is where the next poll should resume
    /// (it advances past `Checkpoint`/`Abort` markers but never into a
    /// partial trailing batch); `durable_lsn` is the log's current
    /// synced frontier, so `durable_lsn - next_lsn` is the remaining
    /// byte lag.
    Batches {
        batches: Vec<WalBatch>,
        next_lsn: u64,
        durable_lsn: u64,
    },
    /// The requested LSN is no longer (or not yet) readable — it
    /// precedes the log's retained [`Wal::start_lsn`], lies past the
    /// durable frontier, or does not fall on a frame boundary. The
    /// caller must fall back to a full snapshot transfer.
    OutOfRange { start_lsn: u64, durable_lsn: u64 },
}

/// Result of one [`Wal::truncate_tail`] call (divergent-tail repair
/// when a fenced ex-primary rejoins as a replica).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailTruncate {
    /// The suffix past `to_lsn` was discarded; the log now ends exactly
    /// at the fence point.
    Done,
    /// The log already ends at or before `to_lsn` — nothing diverged.
    NothingToDo,
    /// `to_lsn` is no longer addressable in this log: it predates the
    /// retained [`Wal::start_lsn`] (a checkpoint baked the divergent
    /// suffix into the data file) or does not fall on a frame boundary.
    /// Truncation cannot repair the divergence; the caller must discard
    /// local state and resync from a snapshot.
    Gone,
}

struct WalInner {
    file: File,
    /// LSN of byte 0 of the current log file.
    base: u64,
    /// The log's logical end: bytes of frames written (possibly
    /// unsynced). Every size, LSN and scan bound uses this, never the
    /// file length.
    len: u64,
    /// Bytes known durable; only this region is served to the tail.
    synced_len: u64,
    /// End of the file's written bytes: frames up to `len`, zeros from
    /// there on (see the module docs).
    filled: u64,
}

/// The write-ahead log file.
pub struct Wal {
    inner: Mutex<WalInner>,
    base_path: PathBuf,
    faults: Arc<FaultPolicy>,
}

impl Wal {
    /// Open (or create) the log at `path`, scan it, truncate any torn
    /// tail, and return the log handle plus the valid records.
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalRecord>)> {
        Self::open_with_faults(path, FaultPolicy::none())
    }

    /// As [`Wal::open`], with a fault-injection policy crossed before
    /// every append, sync and reset. The recovery scan itself is not
    /// faulted: crash testing reopens with a no-op policy.
    pub fn open_with_faults(
        path: &Path,
        faults: Arc<FaultPolicy>,
    ) -> Result<(Wal, Vec<WalRecord>)> {
        let base_path = Self::base_sidecar(path);
        let (base, pending_truncate, pending_tail) = Self::read_sidecar(&base_path);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if pending_truncate {
            // A crash interrupted [`Wal::reset`] after the new base was
            // persisted but before the file was truncated: the retained
            // bytes all predate `base` and must not be re-addressed at
            // fresh LSNs. Complete the truncate, then clear the flag.
            file.set_len(0)?;
            file.sync_all()?;
            Self::write_sidecar(&base_path, base, false, None)?;
        } else if let Some(target) = pending_tail {
            // A crash interrupted [`Wal::truncate_tail`] after the
            // intent was persisted but before the file was cut: the
            // bytes past `target` are a divergent suffix that must not
            // survive. Complete the cut, then clear the flag.
            file.set_len(target)?;
            file.sync_all()?;
            Self::write_sidecar(&base_path, base, false, None)?;
        }
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let (records, valid_len) = Self::scan(&raw);
        if valid_len != raw.len() {
            // A torn frame, a crash's unused fill, or both: cut back to
            // the valid prefix; the next append fills again.
            file.set_len(valid_len as u64)?;
            file.sync_all()?;
        }
        let valid_len = valid_len as u64;
        Ok((
            Wal {
                inner: Mutex::new(WalInner {
                    file,
                    base,
                    len: valid_len,
                    synced_len: valid_len,
                    filled: valid_len,
                }),
                base_path,
                faults,
            },
            records.into_iter().map(|(rec, _)| rec).collect(),
        ))
    }

    fn base_sidecar(path: &Path) -> PathBuf {
        let mut p = path.as_os_str().to_os_string();
        p.push(".base");
        PathBuf::from(p)
    }

    /// Read the `.base` sidecar: `(base, pending_truncate,
    /// pending_tail_target)`. The v1 format was 8 bytes of base; v2
    /// appends 8 flag bytes (bit 0 = a reset's truncate-to-zero may not
    /// have reached the log file yet); v3 appends an 8-byte tail target
    /// length consulted when flag bit 1 is set (a
    /// [`Wal::truncate_tail`] cut may not have reached the file yet). A
    /// missing or torn sidecar reads as base 0 — safe because the
    /// sidecar is only ever replaced atomically via rename.
    fn read_sidecar(path: &Path) -> (u64, bool, Option<u64>) {
        match std::fs::read(path) {
            Ok(b) if b.len() >= 16 => {
                let base = u64::from_le_bytes(b[..8].try_into().unwrap());
                let flags = u64::from_le_bytes(b[8..16].try_into().unwrap());
                let tail = if flags & 2 != 0 && b.len() >= 24 {
                    Some(u64::from_le_bytes(b[16..24].try_into().unwrap()))
                } else {
                    None
                };
                (base, flags & 1 != 0, tail)
            }
            Ok(b) if b.len() >= 8 => (u64::from_le_bytes(b[..8].try_into().unwrap()), false, None),
            _ => (0, false, None),
        }
    }

    /// Atomically replace the `.base` sidecar (tmp + fsync + rename +
    /// directory fsync), so no crash point can leave it torn.
    fn write_sidecar(
        path: &Path,
        base: u64,
        pending_truncate: bool,
        pending_tail: Option<u64>,
    ) -> Result<()> {
        let tmp = {
            let mut p = path.as_os_str().to_os_string();
            p.push(".tmp");
            PathBuf::from(p)
        };
        {
            let flags =
                u64::from(pending_truncate) | if pending_tail.is_some() { 2 } else { 0 };
            let mut f = File::create(&tmp)?;
            f.write_all(&base.to_le_bytes())?;
            f.write_all(&flags.to_le_bytes())?;
            f.write_all(&pending_tail.unwrap_or(0).to_le_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            crate::image::sync_dir(dir)?;
        }
        Ok(())
    }

    /// Parse frames from `raw`, stopping at the first zero header (the
    /// fill) or torn/corrupt frame. Returns the records (each with the
    /// byte offset just past its frame) and the byte length of the
    /// valid prefix.
    fn scan(raw: &[u8]) -> (Vec<(WalRecord, usize)>, usize) {
        let mut records = Vec::new();
        let mut pos = 0usize;
        loop {
            if pos + 8 > raw.len() {
                break;
            }
            let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
            if len == 0 {
                break;
            }
            let crc = u32::from_le_bytes(raw[pos + 4..pos + 8].try_into().unwrap());
            let start = pos + 8;
            let Some(end) = start.checked_add(len) else {
                break;
            };
            if end > raw.len() {
                break;
            }
            let payload = &raw[start..end];
            if crc32(payload) != crc {
                break;
            }
            match WalRecord::decode(payload) {
                Ok(rec) => records.push((rec, end)),
                Err(_) => break,
            }
            pos = end;
        }
        (records, pos)
    }

    /// Append a record (buffered by the OS; call [`Wal::sync`] to make
    /// it durable).
    pub fn append(&self, rec: &WalRecord) -> Result<()> {
        self.append_all(std::slice::from_ref(rec))
    }

    /// Append several records under one lock acquisition, keeping the
    /// batch contiguous in the file. The frames overwrite the fill at
    /// the logical end, extending it first when they do not fit.
    pub fn append_all(&self, recs: &[WalRecord]) -> Result<()> {
        let mut frames = Vec::new();
        for rec in recs {
            push_frame(&mut frames, |buf| rec.encode_into(buf));
        }
        self.write_frames(&frames)
    }

    /// Append `txn`'s committed batch: `Begin`, one `Put` or `Delete`
    /// per operation, `Commit`. Each operation is encoded straight
    /// into the one frame buffer, which is sized for the batch up
    /// front; the same bytes as [`Wal::append_all`] of the records.
    pub fn append_batch(&self, txn: TxnId, ops: &[StoreOp]) -> Result<()> {
        // Per frame: an 8-byte header, a tag and a txn varint; per
        // operation also two length varints.
        const FRAME: usize = 8 + 1 + 10;
        let bytes: usize = ops
            .iter()
            .map(|op| match op {
                StoreOp::Put { key, value } => FRAME + 10 + key.len() + value.len(),
                StoreOp::Delete { key } => FRAME + 5 + key.len(),
            })
            .sum();
        let mut frames = Vec::with_capacity(bytes + 2 * FRAME);
        push_frame(&mut frames, |buf| encode_txn(buf, T_BEGIN, txn));
        for op in ops {
            push_frame(&mut frames, |buf| encode_op(buf, txn, op));
        }
        push_frame(&mut frames, |buf| encode_txn(buf, T_COMMIT, txn));
        self.write_frames(&frames)
    }

    /// Write encoded frames at the logical end, overwriting the fill
    /// (extended first when they do not fit), under one lock
    /// acquisition, so a batch stays contiguous in the file.
    fn write_frames(&self, frame: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let end = inner.len + frame.len() as u64;
        if end > inner.filled {
            self.fill(&mut inner, end)?;
        }
        let at = inner.len;
        match self.faults.on_write(FaultPoint::WalAppend, frame.len())? {
            None => {
                inner.file.write_all_at(frame, at)?;
                inner.len = end;
            }
            Some(torn) => {
                // Injected crash mid-append: a prefix of the frame
                // reaches the file, then the "process dies".
                inner.file.write_all_at(&frame[..torn], at)?;
                inner.len += torn as u64;
                let _ = inner.file.sync_data();
                return Err(FaultPolicy::crash_error(FaultPoint::WalAppend));
            }
        }
        Ok(())
    }

    /// Extend the fill to the first multiple of [`FILL_STEP`] at or
    /// past `end`: write zeros from the current end of the file, then
    /// sync, so the size and allocation change is durable before the
    /// commits that write into it. Their own syncs would flush it
    /// anyway; this sync only keeps it off them.
    fn fill(&self, inner: &mut WalInner, end: u64) -> Result<()> {
        let target = end.div_ceil(FILL_STEP) * FILL_STEP;
        let n = (target - inner.filled) as usize;
        let torn = self.faults.on_write(FaultPoint::WalFill, n)?;
        let mut at = inner.filled;
        let mut left = torn.unwrap_or(n);
        while left > 0 {
            let chunk = left.min(ZEROS.len());
            inner.file.write_all_at(&ZEROS[..chunk], at)?;
            at += chunk as u64;
            left -= chunk;
        }
        if torn.is_some() {
            // Injected crash mid-fill: a prefix of the zeros reaches
            // the file, then the "process dies".
            let _ = inner.file.sync_data();
            return Err(FaultPolicy::crash_error(FaultPoint::WalFill));
        }
        self.faults.hit(FaultPoint::WalFill)?;
        inner.file.sync_data()?;
        inner.filled = target;
        Ok(())
    }

    /// Force the log to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.faults.hit(FaultPoint::WalSync)?;
        let mut inner = self.inner.lock();
        inner.file.sync_data()?;
        inner.synced_len = inner.len;
        Ok(())
    }

    /// Truncate the log to zero length (after a checkpoint has made its
    /// contents redundant). The truncated bytes are folded into the LSN
    /// base, persisted in the `.base` sidecar *before* the truncate
    /// with a pending-truncate flag that reopen uses to complete an
    /// interrupted reset (see the module docs) — so no crash point can
    /// re-address retained old bytes at fresh LSNs, and LSNs can only
    /// skip forward, never be reused (a replication tail resuming in a
    /// skipped range reports [`TailRead::OutOfRange`] and
    /// re-snapshots).
    pub fn reset(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.faults.hit(FaultPoint::WalReset)?;
        let new_base = inner.base + inner.len;
        Self::write_sidecar(&self.base_path, new_base, true, None)?;
        inner.file.set_len(0)?;
        inner.file.sync_all()?;
        Self::write_sidecar(&self.base_path, new_base, false, None)?;
        inner.base = new_base;
        inner.len = 0;
        inner.synced_len = 0;
        inner.filled = 0;
        Ok(())
    }

    /// Discard every byte past `to_lsn` — divergent-tail repair for a
    /// fenced ex-primary rejoining as a replica. `to_lsn` must be a
    /// batch resume point previously handed out by this log
    /// ([`TailRead::Batches::next_lsn`]); anything else — including a
    /// fence point that a later checkpoint already folded into the data
    /// file — reports [`TailTruncate::Gone`] and the caller resyncs
    /// from a snapshot instead. The cut uses the same two-phase sidecar
    /// protocol as [`Wal::reset`]: intent (flag bit 1 + target length)
    /// is durable before the file shrinks, so a crash at any point
    /// either keeps the full tail or completes the cut on reopen —
    /// never leaves a half-addressed suffix.
    pub fn truncate_tail(&self, to_lsn: u64) -> Result<TailTruncate> {
        let mut inner = self.inner.lock();
        let end_lsn = inner.base + inner.len;
        if to_lsn >= end_lsn {
            return Ok(TailTruncate::NothingToDo);
        }
        if to_lsn < inner.base {
            return Ok(TailTruncate::Gone);
        }
        let target = to_lsn - inner.base;
        if target > 0 {
            // The cut must land on a frame boundary: a mid-frame target
            // would leave a torn head that the next open silently scans
            // away, losing an arbitrary extra suffix. Verify against
            // the actual frame layout before committing the intent.
            let mut raw = vec![0u8; inner.len as usize];
            inner.file.read_exact_at(&mut raw, 0)?;
            let (records, _) = Self::scan(&raw);
            if !records.iter().any(|(_, end)| *end as u64 == target) {
                return Ok(TailTruncate::Gone);
            }
        }
        let base = inner.base;
        Self::write_sidecar(&self.base_path, base, false, Some(target))?;
        inner.file.set_len(target)?;
        inner.file.sync_all()?;
        Self::write_sidecar(&self.base_path, base, false, None)?;
        inner.len = target;
        inner.synced_len = target;
        inner.filled = target;
        Ok(TailTruncate::Done)
    }

    /// Current log size in bytes.
    pub fn size(&self) -> Result<u64> {
        Ok(self.inner.lock().len)
    }

    /// LSN of the oldest byte still retained in the log file.
    pub fn start_lsn(&self) -> u64 {
        self.inner.lock().base
    }

    /// LSN of the durable (synced) frontier. Everything below this is
    /// crash-safe and servable to a replication tail.
    pub fn durable_lsn(&self) -> u64 {
        let inner = self.inner.lock();
        inner.base + inner.synced_len
    }

    /// Read committed batches from the synced region starting at
    /// `from_lsn` (which must be a resume point previously handed out
    /// by this API, or [`Wal::start_lsn`]). Emits whole batches only,
    /// up to roughly `max_bytes` of log, mirroring crash recovery's
    /// grouping exactly; see the module docs.
    pub fn read_batches_from(&self, from_lsn: u64, max_bytes: u64) -> Result<TailRead> {
        let inner = self.inner.lock();
        let durable_lsn = inner.base + inner.synced_len;
        if from_lsn < inner.base || from_lsn > durable_lsn {
            return Ok(TailRead::OutOfRange {
                start_lsn: inner.base,
                durable_lsn,
            });
        }
        let off = from_lsn - inner.base;
        let remaining = inner.synced_len - off;
        let mut want = remaining.min(max_bytes.max(64 * 1024));
        let read_at = |inner: &WalInner, off: u64, want: u64| -> Result<Vec<u8>> {
            let mut raw = vec![0u8; want as usize];
            inner.file.read_exact_at(&mut raw, off)?;
            Ok(raw)
        };
        let mut raw = read_at(&inner, off, want)?;
        let (mut batches, mut resume) = Self::group(&raw, from_lsn);
        if batches.is_empty() && resume == 0 && want < remaining {
            // The read window cut the only pending batch short (one
            // batch larger than `max_bytes`): re-read the whole synced
            // remainder so the tail always makes progress.
            want = remaining;
            raw = read_at(&inner, off, want)?;
            (batches, resume) = Self::group(&raw, from_lsn);
        }
        let base = inner.base;
        drop(inner);

        if batches.is_empty() && resume == 0 && want == remaining && !raw.is_empty() {
            let (records, valid_len) = Self::scan(&raw);
            if records.is_empty() && valid_len == 0 {
                // The full synced region starts with an unparsable
                // frame — even a sub-header-sized sliver of one: the
                // resume point is not a frame boundary (e.g. LSNs
                // skipped by a crash during reset, or a mid-frame
                // offset). Force a snapshot so the tail cannot spin
                // forever without progress.
                return Ok(TailRead::OutOfRange {
                    start_lsn: base,
                    durable_lsn,
                });
            }
        }
        Ok(TailRead::Batches {
            batches,
            next_lsn: from_lsn + resume as u64,
            durable_lsn,
        })
    }

    /// Group scanned frames into committed batches with recovery's
    /// exact semantics. Returns the batches plus the resume offset: it
    /// advances past every record while no batch is open (markers and
    /// foreign records are not re-read) but never into a partial
    /// trailing batch.
    fn group(raw: &[u8], from_lsn: u64) -> (Vec<WalBatch>, usize) {
        let (records, _) = Self::scan(raw);
        let mut batches = Vec::new();
        let mut open: Option<(usize, TxnId, Vec<StoreOp>)> = None;
        let mut resume = 0usize;
        let mut prev_end = 0usize;
        for (rec, end) in records {
            let frame_start = prev_end;
            prev_end = end;
            match rec {
                WalRecord::Begin { txn } => {
                    open = Some((frame_start, txn, Vec::new()));
                }
                WalRecord::Put { txn, key, value } => {
                    if let Some((_, t, ops)) = &mut open {
                        if *t == txn {
                            ops.push(StoreOp::Put { key, value });
                        }
                    }
                }
                WalRecord::Delete { txn, key } => {
                    if let Some((_, t, ops)) = &mut open {
                        if *t == txn {
                            ops.push(StoreOp::Delete { key });
                        }
                    }
                }
                WalRecord::Commit { txn } => {
                    if let Some((start, t, ops)) = open.take() {
                        if t == txn {
                            batches.push(WalBatch {
                                start_lsn: from_lsn + start as u64,
                                next_lsn: from_lsn + end as u64,
                                txn,
                                ops,
                            });
                        }
                    }
                }
                WalRecord::Abort { .. } | WalRecord::Checkpoint => open = None,
            }
            if open.is_none() {
                resume = end;
            }
        }
        (batches, resume)
    }
}

impl Drop for Wal {
    /// A clean close trims the fill, so a closed log ends at its last
    /// frame. After a simulated crash it trims nothing, as a dead
    /// process would not, and the next open sees the zero tail.
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        if inner.filled > inner.len && !self.faults.has_crashed() {
            let _ = inner.file.set_len(inner.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hipac-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn encode(rec: &WalRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        buf
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: TxnId(1) },
            WalRecord::Put {
                txn: TxnId(1),
                key: b"k1".to_vec(),
                value: b"v1".to_vec(),
            },
            WalRecord::Delete {
                txn: TxnId(1),
                key: b"k0".to_vec(),
            },
            WalRecord::Commit { txn: TxnId(1) },
            WalRecord::Checkpoint,
            WalRecord::Abort { txn: TxnId(2) },
        ]
    }

    #[test]
    fn append_reopen_replay() {
        let path = tmp("replay");
        {
            let (wal, existing) = Wal::open(&path).unwrap();
            assert!(existing.is_empty());
            for rec in sample_records() {
                wal.append(&rec).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, sample_records());
    }

    #[test]
    fn append_all_equals_individual_appends() {
        let path = tmp("batch");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            wal.append_all(&sample_records()).unwrap();
            wal.sync().unwrap();
        }
        let (_w, records) = Wal::open(&path).unwrap();
        assert_eq!(records, sample_records());
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            wal.append_all(&sample_records()).unwrap();
            wal.sync().unwrap();
        }
        // Append garbage simulating a torn frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        }
        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, sample_records());
        // The log was truncated back to the valid prefix, so further
        // appends produce a clean log.
        wal.append(&WalRecord::Checkpoint).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_w, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), sample_records().len() + 1);
    }

    #[test]
    fn corrupt_middle_frame_cuts_the_suffix() {
        let path = tmp("corrupt");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            wal.append_all(&sample_records()).unwrap();
            wal.sync().unwrap();
        }
        // Flip one byte in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_w, records) = Wal::open(&path).unwrap();
        assert!(records.len() < sample_records().len());
        // Whatever survived must be a prefix of the original sequence.
        assert_eq!(records[..], sample_records()[..records.len()]);
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset");
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append_all(&sample_records()).unwrap();
        wal.sync().unwrap();
        assert!(wal.size().unwrap() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.size().unwrap(), 0);
        wal.append(&WalRecord::Checkpoint).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_w, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![WalRecord::Checkpoint]);
    }

    #[test]
    fn a_crashed_log_keeps_its_fill_and_reopen_cuts_it() {
        let path = tmp("crashed-fill");
        let faults = FaultPolicy::count_only();
        let (wal, _) = Wal::open_with_faults(&path, Arc::clone(&faults)).unwrap();
        wal.append_all(&sample_records()).unwrap();
        wal.sync().unwrap();
        let size = wal.size().unwrap();
        faults.crash_now();
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), FILL_STEP);
        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(wal.size().unwrap(), size);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
    }

    #[test]
    fn empty_keys_and_values_roundtrip() {
        let rec = WalRecord::Put {
            txn: TxnId(0),
            key: vec![],
            value: vec![],
        };
        let enc = encode(&rec);
        assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut enc = encode(&WalRecord::Checkpoint);
        enc.push(0);
        assert!(WalRecord::decode(&enc).is_err());
    }

    fn commit_batch(wal: &Wal, txn: u64, key: &[u8]) {
        wal.append_all(&[
            WalRecord::Begin { txn: TxnId(txn) },
            WalRecord::Put {
                txn: TxnId(txn),
                key: key.to_vec(),
                value: b"v".to_vec(),
            },
            WalRecord::Commit { txn: TxnId(txn) },
        ])
        .unwrap();
        wal.sync().unwrap();
    }

    #[test]
    fn truncate_tail_discards_divergent_suffix() {
        let path = tmp("trunc-tail");
        let (wal, _) = Wal::open(&path).unwrap();
        commit_batch(&wal, 1, b"a");
        let fence = wal.durable_lsn();
        commit_batch(&wal, 2, b"b");
        commit_batch(&wal, 3, b"c");
        assert_eq!(wal.truncate_tail(fence).unwrap(), TailTruncate::Done);
        assert_eq!(wal.durable_lsn(), fence);
        // Idempotent: the log already ends at the fence.
        assert_eq!(wal.truncate_tail(fence).unwrap(), TailTruncate::NothingToDo);
        drop(wal);
        let (_w, records) = Wal::open(&path).unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::Begin { txn: TxnId(1) },
                WalRecord::Put {
                    txn: TxnId(1),
                    key: b"a".to_vec(),
                    value: b"v".to_vec(),
                },
                WalRecord::Commit { txn: TxnId(1) },
            ]
        );
    }

    #[test]
    fn truncate_tail_rejects_non_boundary_and_retired_points() {
        let path = tmp("trunc-gone");
        let (wal, _) = Wal::open(&path).unwrap();
        commit_batch(&wal, 1, b"a");
        let fence = wal.durable_lsn();
        commit_batch(&wal, 2, b"b");
        // Mid-frame: not a frame boundary.
        assert_eq!(wal.truncate_tail(fence + 3).unwrap(), TailTruncate::Gone);
        // Checkpoint retires everything; an old fence predates the base.
        wal.reset().unwrap();
        commit_batch(&wal, 3, b"c");
        assert_eq!(wal.truncate_tail(fence).unwrap(), TailTruncate::Gone);
    }

    #[test]
    fn pending_tail_truncate_completes_on_reopen() {
        let path = tmp("trunc-pending");
        let (wal, _) = Wal::open(&path).unwrap();
        commit_batch(&wal, 1, b"a");
        let fence = wal.durable_lsn();
        commit_batch(&wal, 2, b"b");
        drop(wal);
        // Simulate a crash after the intent reached the sidecar but
        // before the file was cut.
        Wal::write_sidecar(&Wal::base_sidecar(&path), 0, false, Some(fence)).unwrap();
        let (wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 3, "only the first batch survives");
        assert_eq!(wal.durable_lsn(), fence);
    }
}
