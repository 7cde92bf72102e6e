//! The B+tree's hot paths counted, not timed: a counting global
//! allocator bounds the heap allocations of a lookup, an in-place
//! upsert and a delete-plus-reinsert, on a store-shaped tree (20 000
//! short keys, high fan-out) and on a tall one (long keys and values,
//! height ≥ 3). Decoding a node into owned entries costs two
//! allocations per entry, so these bounds only hold while descents and
//! leaf changes work on the page in place — whatever the fan-out.

use hipac_storage::btree::BTree;
use hipac_storage::buffer::BufferPool;
use hipac_storage::disk::DiskManager;
use rand::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads;
    /// each measures only its own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may be entered while this thread's
    // locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `Counting` upholds exactly the contracts `System` does; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const KEYS: u64 = 20_000;
const SAMPLES: usize = 300;
const GET_MAX: u64 = 8;
const UPSERT_MAX: u64 = 8;
const DELETE_REINSERT_MAX: u64 = 16;

/// A `KEYS`-entry tree inserted in random order through a pool that
/// holds all of it, so the measured operations never miss.
fn build(name: &str, key: impl Fn(u64) -> Vec<u8>, value: impl Fn(u64) -> Vec<u8>) -> BTree {
    let dir = std::env::temp_dir().join("hipac-btree-alloc");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let pool = Arc::new(BufferPool::new(
        Arc::new(DiskManager::open(&path).unwrap()),
        16_384,
    ));
    let tree = BTree::create(pool).unwrap();
    let mut order: Vec<u64> = (0..KEYS).collect();
    order.shuffle(&mut StdRng::seed_from_u64(22));
    for i in order {
        tree.insert(&key(i), &value(i)).unwrap();
    }
    tree
}

/// The worst case over `SAMPLES` random keys of each hot path, checked
/// against its bound and for the right answer.
fn assert_bounded(tree: &BTree, key: impl Fn(u64) -> Vec<u8>, value: impl Fn(u64) -> Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(23);
    let (mut get, mut upsert, mut churn) = (0, 0, 0);
    for _ in 0..SAMPLES {
        let i = rng.gen_range(0..KEYS);
        let (k, v) = (key(i), value(i));
        let (got, n) = allocs(|| tree.get(&k).unwrap());
        assert_eq!(got.as_ref(), Some(&v));
        get = get.max(n);

        let (old, n) = allocs(|| tree.insert(&k, &v).unwrap());
        assert_eq!(old.as_ref(), Some(&v));
        upsert = upsert.max(n);

        let (old, n) = allocs(|| {
            let old = tree.delete(&k).unwrap();
            assert_eq!(tree.insert(&k, &v).unwrap(), None);
            old
        });
        assert_eq!(old, Some(v));
        churn = churn.max(n);
    }
    eprintln!(
        "height {}: get {get}, upsert {upsert}, delete+reinsert {churn} allocations at most",
        tree.height().unwrap()
    );
    assert!(get <= GET_MAX, "get made {get} allocations");
    assert!(
        upsert <= UPSERT_MAX,
        "in-place upsert made {upsert} allocations"
    );
    assert!(
        churn <= DELETE_REINSERT_MAX,
        "delete + reinsert made {churn} allocations"
    );
    assert_eq!(tree.len().unwrap(), KEYS as usize);
    tree.check_nodes().unwrap();
}

/// The durable store's shape: short keys, an eight-byte record id each.
#[test]
fn store_shaped_tree_hot_paths_are_allocation_bounded() {
    let key = |i: u64| format!("o{:012}", i * 7).into_bytes();
    let value = |i: u64| i.to_le_bytes().to_vec();
    let tree = build("store", key, value);
    assert_bounded(&tree, key, value);
}

/// Long keys and values: low fan-out, a tall tree.
#[test]
fn tall_tree_hot_paths_are_allocation_bounded() {
    let key = |i: u64| {
        let mut k = i.to_be_bytes().to_vec();
        k.resize(200, b'k');
        k
    };
    let value = |i: u64| vec![i as u8; 120];
    let tree = build("tall", key, value);
    assert!(tree.height().unwrap() >= 3, "tree is not tall enough");
    assert_bounded(&tree, key, value);
}
