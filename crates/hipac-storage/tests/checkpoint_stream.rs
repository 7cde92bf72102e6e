//! The checkpoint is one linear, streaming pass — checked by counting,
//! not by timing.
//!
//! * the bulk loader's edge cases (empty, one key, exactly one leaf,
//!   entries at the size cap, a lone last child) against `get`/`range`;
//! * a copy four times the size of its pool never holds more than the
//!   pool's capacity plus its pins, and fetches a constant number of
//!   pages per key;
//! * a store checkpoint allocates and writes a constant number of pages
//!   per key at 2 000, 8 000 and 32 000 keys (the fault policy's
//!   count-only log is the meter).

use hipac_common::TxnId;
use hipac_storage::btree::{BTree, MAX_ENTRY};
use hipac_storage::buffer::BufferPool;
use hipac_storage::disk::DiskManager;
use hipac_storage::{DurableStore, FaultPoint, FaultPolicy, HeapFile, RecordId, StoreOp};
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hipac-checkpoint-stream/{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pool(dir: &std::path::Path, file: &str, capacity: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Arc::new(DiskManager::open(&dir.join(file)).unwrap()),
        capacity,
    ))
}

type Entry = (Vec<u8>, Vec<u8>);

fn load(dir: &std::path::Path, file: &str, entries: &[Entry]) -> BTree {
    BTree::bulk_load(pool(dir, file, 8), entries.iter().cloned().map(Ok)).unwrap()
}

/// Every entry is found, in order, and the tree survives deleting them
/// all (which walks every merge and root collapse).
fn check(tree: &BTree, entries: &[Entry]) {
    assert_eq!(tree.len().unwrap(), entries.len());
    assert_eq!(tree.iter_all().unwrap(), entries);
    for (k, v) in entries {
        assert_eq!(tree.get(k).unwrap().as_ref(), Some(v));
    }
    if let (Some(first), Some(last)) = (entries.first(), entries.last()) {
        let all = tree
            .range(Bound::Included(&first.0[..]), Bound::Included(&last.0[..]))
            .unwrap();
        assert_eq!(all, entries);
    }
    for (k, v) in entries {
        assert_eq!(tree.delete(k).unwrap().as_ref(), Some(v));
    }
    assert!(tree.is_empty().unwrap());
    assert_eq!(tree.height().unwrap(), 1);
}

#[test]
fn bulk_load_of_nothing_and_of_one_key() {
    let dir = tmpdir("tiny");
    let empty = load(&dir, "empty.db", &[]);
    assert_eq!(empty.height().unwrap(), 1);
    assert!(empty.is_empty().unwrap());
    empty.insert(b"k", b"v").unwrap();
    assert_eq!(empty.get(b"k").unwrap(), Some(b"v".to_vec()));

    let one = [(b"only".to_vec(), b"entry".to_vec())];
    let tree = load(&dir, "one.db", &one);
    assert_eq!(tree.height().unwrap(), 1);
    check(&tree, &one);
}

#[test]
fn bulk_load_fills_exactly_one_leaf_before_it_starts_a_second() {
    let dir = tmpdir("one-leaf");
    let entries: Vec<Entry> = (0..1_000u64)
        .map(|i| (i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec()))
        .collect();
    // The largest prefix that still fits one leaf, found by growing it.
    let fits = (1..entries.len())
        .find(|&n| load(&dir, "probe.db", &entries[..n + 1]).height().unwrap() == 2)
        .expect("a thousand entries do not fit one leaf");
    assert!(
        fits > 150,
        "a leaf holds {fits} 16-byte entries: under-filled"
    );
    let full = load(&dir, "full.db", &entries[..fits]);
    assert_eq!(full.height().unwrap(), 1);
    check(&full, &entries[..fits]);
    let spilled = load(&dir, "spilled.db", &entries[..fits + 1]);
    assert_eq!(spilled.height().unwrap(), 2);
    check(&spilled, &entries[..fits + 1]);
}

#[test]
fn bulk_load_takes_entries_at_the_size_cap() {
    let dir = tmpdir("max-entry");
    // Values at the cap: three to a leaf. Keys at the cap: three or four
    // separators to an internal node, so the tree is deep and, for some
    // `n`, its last internal node would be left with a single child.
    for n in 1..40u64 {
        let fat_values: Vec<Entry> = (0..n)
            .map(|i| (i.to_be_bytes().to_vec(), vec![i as u8; MAX_ENTRY - 8]))
            .collect();
        check(&load(&dir, "values.db", &fat_values), &fat_values);
        let fat_keys: Vec<Entry> = (0..n)
            .map(|i| {
                let mut key = i.to_be_bytes().to_vec();
                key.resize(MAX_ENTRY, 0xAB);
                (key, Vec::new())
            })
            .collect();
        let tree = load(&dir, "keys.db", &fat_keys);
        assert!(n < 20 || tree.height().unwrap() >= 3);
        check(&tree, &fat_keys);
    }
    let over = [(vec![0u8; 8], vec![0u8; MAX_ENTRY])];
    assert!(BTree::bulk_load(pool(&dir, "over.db", 8), over.into_iter().map(Ok)).is_err());
    let unsorted = [(b"b".to_vec(), vec![]), (b"a".to_vec(), vec![])];
    assert!(BTree::bulk_load(pool(&dir, "unsorted.db", 8), unsorted.into_iter().map(Ok)).is_err());
}

#[test]
fn a_copy_four_times_its_pool_stays_inside_it() {
    const CAPACITY: usize = 32;
    /// Pages the copy may pin at once: the heap tail and its successor,
    /// the leaf being filled and the next one.
    const PINS: usize = 4;
    const KEYS: u64 = 600;
    let dir = tmpdir("residency");
    let pool = pool(&dir, "copy.db", CAPACITY);
    let heap = HeapFile::create(Arc::clone(&pool)).unwrap();
    let value = |i: u64| vec![i as u8; 1_000];
    let mut peak = 0;
    let tree = BTree::bulk_load(
        Arc::clone(&pool),
        (0..KEYS).map(|i| {
            let rid = heap.insert(&value(i))?;
            peak = peak.max(pool.buffered_pages());
            Ok((
                i.to_be_bytes().to_vec(),
                rid.to_u64().to_le_bytes().to_vec(),
            ))
        }),
    )
    .unwrap();
    assert!(
        pool.disk().num_pages() >= 4 * CAPACITY as u64,
        "the copy is only {} pages",
        pool.disk().num_pages()
    );
    assert!(
        peak <= CAPACITY + PINS,
        "the pool held {peak} pages, capacity {CAPACITY}"
    );
    let (hits, misses) = pool.stats();
    assert!(
        hits + misses <= 4 * KEYS,
        "{} fetches for {KEYS} keys",
        hits + misses
    );
    assert!(pool.examined() <= 2 * pool.disk().num_pages());
    for i in 0..KEYS {
        let rid = tree.get(&i.to_be_bytes()).unwrap().expect("key copied");
        let rid = RecordId::from_u64(u64::from_le_bytes(rid.try_into().unwrap()));
        assert_eq!(heap.get(rid).unwrap(), value(i));
    }
}

#[test]
fn checkpoint_page_io_per_key_does_not_grow_with_the_store() {
    let mut per_key = Vec::new();
    for keys in [2_000u64, 8_000, 32_000] {
        let dir = tmpdir(&format!("linear-{keys}"));
        let faults = FaultPolicy::count_only();
        let store =
            DurableStore::open_with_faults(&dir, 1024, u64::MAX, Arc::clone(&faults)).unwrap();
        for (txn, chunk) in (0..keys).collect::<Vec<_>>().chunks(1_000).enumerate() {
            let ops: Vec<StoreOp> = chunk
                .iter()
                .map(|i| StoreOp::Put {
                    key: i.to_be_bytes().to_vec(),
                    value: vec![*i as u8; 100],
                })
                .collect();
            store.commit(TxnId(txn as u64 + 1), ops).unwrap();
        }
        let before = faults.log().len();
        store.checkpoint().unwrap();
        let page_io = faults.log()[before..]
            .iter()
            .filter(|p| matches!(p, FaultPoint::DiskWrite | FaultPoint::DiskAllocate))
            .count();
        per_key.push(page_io as f64 / keys as f64);
        assert_eq!(store.len().unwrap() as u64, keys);
        assert_eq!(
            store.get(&(keys - 1).to_be_bytes()).unwrap(),
            Some(vec![(keys - 1) as u8; 100])
        );
    }
    // ~36 values to a heap page and ~240 keys to a leaf, each page
    // allocated once and written once.
    assert!(per_key[0] <= 0.1, "page I/O per key: {per_key:?}");
    assert!(
        per_key[2] <= per_key[0] * 1.05,
        "page I/O per key grew with the store: {per_key:?}"
    );
}
