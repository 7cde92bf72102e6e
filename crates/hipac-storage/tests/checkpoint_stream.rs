//! The checkpoint is one linear, streaming pass — checked by counting,
//! not by timing. It writes each new image whole, through one fixed
//! buffer, in one sorted pass: a bulk load.
//!
//! * the bulk load's edge cases (nothing, one key, exactly one write
//!   buffer, entries far past the buffer) against `get`/`range`, before
//!   and after a reopen;
//! * a copy four times the size of a memory budget of four write
//!   buffers never holds more than that budget (a counting allocator is
//!   the meter);
//! * at 2 000, 8 000 and 32 000 keys, a checkpoint writes the live key
//!   and value bytes once plus a constant per key, in full buffers (the
//!   fault policy's count-only log counts the writes).

use hipac_common::TxnId;
use hipac_storage::{DurableStore, FaultPoint, FaultPolicy, StoreOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Bytes this thread allocated less the bytes it freed (tests run on
    /// parallel threads; each measures only its own, and a checkpoint
    /// runs on the thread that asks for it).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // `try_with`: the allocator may be entered while this thread's
    // locals are being torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `Counting` upholds exactly the contracts `System` does; the
// only addition is thread-local counters that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Start a new peak at this thread's live bytes now, and return them.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hipac-checkpoint-stream/{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every pair of `pairs` (in key order) is what `store` reads, by
/// `get`, `len` and `range`, and a key past each one is absent.
fn check(store: &DurableStore, pairs: &[(Vec<u8>, Vec<u8>)]) {
    assert_eq!(store.len().unwrap(), pairs.len());
    assert_eq!(
        store.range(Bound::Unbounded, Bound::Unbounded).unwrap(),
        pairs
    );
    for (i, (key, value)) in pairs.iter().enumerate() {
        assert_eq!(store.get(key).unwrap().as_ref(), Some(value));
        let mut past = key.clone();
        past.push(0);
        if !pairs.iter().any(|(k, _)| *k == past) {
            assert_eq!(store.get(&past).unwrap(), None);
        }
        let from = store
            .range(Bound::Included(&key[..]), Bound::Unbounded)
            .unwrap();
        assert_eq!(from, &pairs[i..]);
    }
}

/// Checkpoint `store`, check it against `pairs`, and check it again
/// after a reopen.
fn checkpoint_and_reopen(dir: &Path, store: DurableStore, pairs: &[(Vec<u8>, Vec<u8>)]) {
    store.checkpoint().unwrap();
    check(&store, pairs);
    drop(store);
    check(&DurableStore::open(dir).unwrap(), pairs);
}

fn put_all(store: &DurableStore, txn: u64, pairs: &[(Vec<u8>, Vec<u8>)]) {
    let ops: Vec<StoreOp> = pairs
        .iter()
        .map(|(key, value)| StoreOp::Put {
            key: key.clone(),
            value: value.clone(),
        })
        .collect();
    store.commit(TxnId(txn), ops).unwrap();
}

/// The image writes of `faults`' log from entry `from` on.
fn image_writes(faults: &FaultPolicy, from: usize) -> usize {
    faults.log()[from..]
        .iter()
        .filter(|p| **p == FaultPoint::ImageWrite)
        .count()
}

fn put(i: u64, fill: u8) -> StoreOp {
    StoreOp::Put {
        key: i.to_be_bytes().to_vec(),
        value: vec![fill; 100],
    }
}

/// Bytes an image may spend per key beyond its key and value: a
/// record's two lengths and CRC, and a directory entry's length and
/// offset and its copy of an eight-byte key.
const PER_KEY: u64 = 32;
/// The image writer's buffer: every write but the last is this size.
const WRITE_BUFFER: u64 = 64 * 1024;

#[test]
fn bulk_load_of_nothing_and_of_one_key() {
    let dir = tmpdir("tiny");
    // Nothing: an image of no records is still a whole file.
    let store = DurableStore::open(&dir).unwrap();
    store.checkpoint().unwrap();
    assert!(std::fs::metadata(dir.join("data.db")).unwrap().len() > 0);
    checkpoint_and_reopen(&dir, store, &[]);

    let one = [(b"only".to_vec(), b"entry".to_vec())];
    let store = DurableStore::open(&dir).unwrap();
    put_all(&store, 1, &one);
    checkpoint_and_reopen(&dir, store, &one);

    // A key put and deleted within one cycle leaves nothing behind; the
    // one key deleted leaves the empty image again.
    let store = DurableStore::open(&dir).unwrap();
    put_all(&store, 2, &[(b"brief".to_vec(), b"x".to_vec())]);
    let gone = [b"brief".to_vec(), b"only".to_vec()];
    let deletes = gone.map(|key| StoreOp::Delete { key });
    store.commit(TxnId(3), deletes.to_vec()).unwrap();
    checkpoint_and_reopen(&dir, store, &[]);
}

#[test]
fn bulk_load_fills_exactly_one_leaf_before_it_starts_a_second() {
    // The image's unit of output is its write buffer, not a leaf: a
    // file of exactly one buffer is one write, one byte more is two.
    let dir = tmpdir("one-buffer");
    let pairs = |last: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..10u64)
            .map(|i| {
                let len = if i == 9 { last } else { 100 };
                (i.to_be_bytes().to_vec(), vec![i as u8; len])
            })
            .collect()
    };
    // The bytes the image spends beyond its last value, found by
    // writing a probe.
    let probe = DurableStore::open(&dir.join("probe")).unwrap();
    put_all(&probe, 1, &pairs(0));
    probe.checkpoint().unwrap();
    let overhead = std::fs::metadata(dir.join("probe/data.db")).unwrap().len();
    for (extra, writes) in [(0, 1), (1, 2)] {
        let last = (WRITE_BUFFER - overhead) as usize + extra;
        let sub = dir.join(format!("plus-{extra}"));
        let faults = FaultPolicy::count_only();
        let store = DurableStore::open_with_faults(&sub, u64::MAX, Arc::clone(&faults)).unwrap();
        put_all(&store, 1, &pairs(last));
        let before = faults.log().len();
        store.checkpoint().unwrap();
        let len = std::fs::metadata(sub.join("data.db")).unwrap().len();
        assert_eq!(len, WRITE_BUFFER + extra as u64);
        assert_eq!(image_writes(&faults, before), writes, "a {len}-byte image");
        checkpoint_and_reopen(&sub, store, &pairs(last));
    }
}

#[test]
fn bulk_load_takes_entries_at_the_size_cap() {
    // A record has no cap below its `u32` lengths, so the edges are the
    // write buffer and the scan's read-ahead: keys and values just
    // under, at and past one buffer, and several buffers long, between
    // small records.
    let dir = tmpdir("big-entries");
    let buffer = WRITE_BUFFER as usize;
    let sizes = [buffer - 1, buffer, buffer + 1, 3 * buffer + 7];
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let i = i as u8;
        pairs.push((vec![b'a', i], vec![i; 10]));
        pairs.push((vec![b'b', i], vec![i ^ 0x5A; size]));
        let mut fat_key = vec![b'c', i];
        fat_key.resize(size, i);
        pairs.push((fat_key, Vec::new()));
    }
    pairs.sort();
    let store = DurableStore::open(&dir).unwrap();
    put_all(&store, 1, &pairs);
    checkpoint_and_reopen(&dir, store, &pairs);
}

#[test]
fn a_copy_four_times_its_pool_stays_inside_it() {
    // What a checkpoint may hold at once: the write buffer, the scan's
    // read-ahead, a record in flight from the old image and its copy,
    // and the new directory (a few kilobytes here).
    const BUDGET: i64 = 4 * WRITE_BUFFER as i64;
    const KEYS: u64 = 256;
    let dir = tmpdir("residency");
    let store = DurableStore::open_with(&dir, u64::MAX).unwrap();
    let value = |i: u64, fill: u8| vec![fill ^ i as u8; 8_000];
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(32) {
        let ops: Vec<StoreOp> = chunk
            .iter()
            .map(|&i| StoreOp::Put {
                key: i.to_be_bytes().to_vec(),
                value: value(i, 0),
            })
            .collect();
        store.commit(TxnId(chunk[0] + 1), ops).unwrap();
    }
    store.checkpoint().unwrap();
    let image = std::fs::metadata(dir.join("data.db")).unwrap().len();
    assert!(image >= 4 * BUDGET as u64, "the copy is only {image} bytes");
    // The measured checkpoint copies the old image with a few keys
    // rewritten over it.
    let ops: Vec<StoreOp> = (0..KEYS)
        .step_by(64)
        .map(|i| StoreOp::Put {
            key: i.to_be_bytes().to_vec(),
            value: value(i, 0xEE),
        })
        .collect();
    store.commit(TxnId(KEYS + 1), ops).unwrap();
    let base = reset_peak();
    store.checkpoint().unwrap();
    let peak = PEAK.with(Cell::get) - base;
    assert!(
        peak <= BUDGET,
        "copying a {image}-byte image held {peak} bytes at once, budget {BUDGET}"
    );
    for i in 0..KEYS {
        let fill = if i % 64 == 0 { 0xEE } else { 0 };
        assert_eq!(store.get(&i.to_be_bytes()).unwrap(), Some(value(i, fill)));
    }
}

#[test]
fn checkpoint_writes_the_live_bytes_once() {
    for keys in [2_000u64, 8_000, 32_000] {
        let dir = tmpdir(&format!("linear-{keys}"));
        let faults = FaultPolicy::count_only();
        let store = DurableStore::open_with_faults(&dir, u64::MAX, Arc::clone(&faults)).unwrap();
        let all: Vec<u64> = (0..keys).collect();
        for (txn, chunk) in all.chunks(1_000).enumerate() {
            let ops: Vec<StoreOp> = chunk.iter().map(|&i| put(i, i as u8)).collect();
            store.commit(TxnId(txn as u64 + 1), ops).unwrap();
        }
        store.checkpoint().unwrap();
        // The measured checkpoint merges the memtable over an image:
        // every tenth key rewritten, and a hundred keys deleted.
        let ops: Vec<StoreOp> = (0..keys)
            .step_by(10)
            .map(|i| put(i, 0xEE))
            .chain((1..=100).map(|i| StoreOp::Delete {
                key: (keys - 2 * i).to_be_bytes().to_vec(),
            }))
            .collect();
        store.commit(TxnId(1_000), ops).unwrap();
        let live = keys - 100;
        let before = faults.log().len();
        store.checkpoint().unwrap();
        let writes = image_writes(&faults, before) as u64;
        let written = std::fs::metadata(dir.join("data.db")).unwrap().len();
        let live_bytes = live * (8 + 100);
        assert!(
            written as f64 <= 1.1 * live_bytes as f64 + (PER_KEY * live) as f64,
            "{keys} keys: {written} bytes written for {live_bytes} live bytes"
        );
        assert!(
            writes <= written / WRITE_BUFFER + 1,
            "{keys} keys: {written} bytes in {writes} writes"
        );
        assert_eq!(store.len().unwrap() as u64, live);
        assert_eq!(
            store.get(&0u64.to_be_bytes()).unwrap(),
            Some(vec![0xEE; 100])
        );
        assert_eq!(
            store.get(&(keys - 1).to_be_bytes()).unwrap(),
            Some(vec![(keys - 1) as u8; 100])
        );
        assert_eq!(store.get(&(keys - 2).to_be_bytes()).unwrap(), None);
    }
}
