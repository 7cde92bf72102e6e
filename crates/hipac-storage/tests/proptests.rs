//! Model-based property tests for the storage engine: the B+tree and
//! the durable store are exercised against `std::collections::BTreeMap`
//! oracles under random operation sequences, and the slotted page
//! against a vector model.

use hipac_common::TxnId;
use hipac_storage::btree::{BTree, MAX_ENTRY};
use hipac_storage::buffer::BufferPool;
use hipac_storage::disk::DiskManager;
use hipac_storage::page::Page;
use hipac_storage::slotted::{SlottedPage, UpdateOutcome};
use hipac_storage::{DurableStore, StoreOp};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tmpdir(name: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "hipac-storage-proptests/{name}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    Range(Vec<u8>, Vec<u8>),
}

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    // Small key space to force collisions, updates and deletes of
    // existing keys.
    proptest::collection::vec(0u8..8, 1..4)
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (arb_key(), proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(k, v)| TreeOp::Insert(k, v)),
        arb_key().prop_map(TreeOp::Delete),
        arb_key().prop_map(TreeOp::Get),
        (arb_key(), arb_key()).prop_map(|(a, b)| TreeOp::Range(a, b)),
    ]
}

#[derive(Debug, Clone)]
enum FormatOp {
    Put(u8, Vec<u8>),
    /// A [`MAX_ENTRY`]-byte entry: the key and a value of the given fill.
    PutMax(u8, u8),
    Delete(u8),
    Get(u8),
    Range(u8, u8),
}

/// Key `k`, 1 to 361 bytes long: wide keys keep internal fan-out low.
fn wide_key(k: u8) -> Vec<u8> {
    vec![k; 1 + usize::from(k % 4) * 120]
}

fn arb_format_op() -> impl Strategy<Value = FormatOp> {
    let put = || {
        (
            any::<u8>(),
            prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..16),
                proptest::collection::vec(any::<u8>(), 200..600),
            ],
        )
            .prop_map(|(k, v)| FormatOp::Put(k, v))
    };
    prop_oneof![
        put(),
        put(),
        put(),
        (any::<u8>(), any::<u8>()).prop_map(|(k, fill)| FormatOp::PutMax(k, fill)),
        any::<u8>().prop_map(FormatOp::Delete),
        any::<u8>().prop_map(FormatOp::Get),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| FormatOp::Range(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(arb_tree_op(), 1..150)) {
        let dir = tmpdir("btree-model");
        let pool = Arc::new(BufferPool::new(
            Arc::new(DiskManager::open(&dir.join("t.db")).unwrap()),
            8, // tiny pool to force eviction paths
        ));
        let tree = BTree::create(pool).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let expected = model.insert(k.clone(), v.clone());
                    prop_assert_eq!(tree.insert(&k, &v).unwrap(), expected);
                }
                TreeOp::Delete(k) => {
                    let expected = model.remove(&k);
                    prop_assert_eq!(tree.delete(&k).unwrap(), expected);
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
                TreeOp::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got = tree
                        .range(Bound::Included(&lo[..]), Bound::Excluded(&hi[..]))
                        .unwrap();
                    let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range::<[u8], _>((
                            Bound::Included(&lo[..]),
                            Bound::Excluded(&hi[..]),
                        ))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, expected);
                }
            }
        }
        // Final full-scan equivalence.
        let all = tree.iter_all().unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.into_iter().collect();
        prop_assert_eq!(all, expected);
    }

    /// The in-place node writers keep the on-disk format: after every
    /// step of a random history — and of the drain that follows it —
    /// every reachable node re-decodes with the owned codec to exactly
    /// its bytes, and the tree agrees with the model. Keys up to 361
    /// bytes and entries up to [`MAX_ENTRY`] make leaves of a handful of
    /// entries and internal nodes of a few dozen children, so histories
    /// split leaves and internal nodes (height 3) and upsert entries
    /// past a page, and the drain merges, redistributes and collapses
    /// the root.
    #[test]
    fn in_place_writes_keep_the_node_format(
        ops in proptest::collection::vec(arb_format_op(), 1..600),
    ) {
        let dir = tmpdir("btree-format");
        let pool = Arc::new(BufferPool::new(
            Arc::new(DiskManager::open(&dir.join("t.db")).unwrap()),
            8,
        ));
        let tree = BTree::create(pool).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut tallest = 1;
        for op in ops {
            match op {
                FormatOp::Put(k, v) => {
                    let k = wide_key(k);
                    prop_assert_eq!(tree.insert(&k, &v).unwrap(), model.insert(k, v));
                }
                FormatOp::PutMax(k, fill) => {
                    let k = wide_key(k);
                    let v = vec![fill; MAX_ENTRY - k.len()];
                    prop_assert_eq!(tree.insert(&k, &v).unwrap(), model.insert(k, v));
                }
                FormatOp::Delete(k) => {
                    let k = wide_key(k);
                    prop_assert_eq!(tree.delete(&k).unwrap(), model.remove(&k));
                }
                FormatOp::Get(k) => {
                    let k = wide_key(k);
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
                FormatOp::Range(a, b) => {
                    let (lo, hi) = (wide_key(a.min(b)), wide_key(a.max(b)));
                    let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range::<[u8], _>((Bound::Included(&lo[..]), Bound::Excluded(&hi[..])))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(
                        tree.range(Bound::Included(&lo[..]), Bound::Excluded(&hi[..])).unwrap(),
                        expected
                    );
                }
            }
            tree.check_nodes().unwrap();
            tallest = tallest.max(tree.height().unwrap());
        }
        // Drain from the middle outwards, so both ends of the tree
        // underflow into their neighbours.
        let mut keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        let mid = keys.len() / 2;
        keys.rotate_left(mid);
        for k in keys {
            prop_assert_eq!(tree.delete(&k).unwrap(), model.remove(&k));
            tree.check_nodes().unwrap();
            for probe in model.keys().step_by(7) {
                prop_assert_eq!(tree.get(probe).unwrap(), model.get(probe).cloned());
            }
        }
        prop_assert!(tree.is_empty().unwrap());
        prop_assert_eq!(tree.height().unwrap(), 1, "root collapsed from height {}", tallest);
    }

    /// `bulk_load(sorted)` builds the tree `insert` would: same contents
    /// under `get`/`range`/`len`, no taller, and as open to later
    /// inserts and deletes (which exercise splits and rebalances of the
    /// tightly packed nodes it leaves).
    #[test]
    fn bulk_load_matches_repeated_insert(
        entries in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 1..24),
                prop_oneof![
                    proptest::collection::vec(any::<u8>(), 0..16),
                    proptest::collection::vec(any::<u8>(), 900..1000),
                ],
            ),
            0..300,
        ),
        churn in proptest::collection::vec(arb_tree_op(), 0..60),
    ) {
        let dir = tmpdir("bulk-load");
        let pool = |name: &str| {
            Arc::new(BufferPool::new(
                Arc::new(DiskManager::open(&dir.join(name)).unwrap()),
                8,
            ))
        };
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = entries.into_iter().collect();
        let inserted = BTree::create(pool("inserted.db")).unwrap();
        for (k, v) in &model {
            inserted.insert(k, v).unwrap();
        }
        let loaded = BTree::bulk_load(pool("loaded.db"), model.clone().into_iter().map(Ok)).unwrap();

        prop_assert_eq!(loaded.len().unwrap(), model.len());
        prop_assert_eq!(loaded.iter_all().unwrap(), inserted.iter_all().unwrap());
        prop_assert!(loaded.height().unwrap() <= inserted.height().unwrap());
        for k in model.keys() {
            prop_assert_eq!(loaded.get(k).unwrap(), model.get(k).cloned());
            let mut absent = k.clone();
            absent.push(0xFF);
            prop_assert_eq!(loaded.get(&absent).unwrap(), model.get(&absent).cloned());
            let from_k = loaded.range(Bound::Excluded(&k[..]), Bound::Included(&absent[..])).unwrap();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                .range::<[u8], _>((Bound::Excluded(&k[..]), Bound::Included(&absent[..])))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            prop_assert_eq!(from_k, expected);
        }
        for op in churn {
            match op {
                TreeOp::Insert(k, v) => {
                    prop_assert_eq!(loaded.insert(&k, &v).unwrap(), model.insert(k, v));
                }
                TreeOp::Delete(k) | TreeOp::Get(k) | TreeOp::Range(k, _) => {
                    prop_assert_eq!(loaded.delete(&k).unwrap(), model.remove(&k));
                }
            }
        }
        // Drain half of what is left, so packed leaves underflow.
        let victims: Vec<Vec<u8>> = model.keys().step_by(2).cloned().collect();
        for k in victims {
            prop_assert_eq!(loaded.delete(&k).unwrap(), model.remove(&k));
        }
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        prop_assert_eq!(loaded.iter_all().unwrap(), expected);
    }

    #[test]
    fn slotted_page_matches_vec_model(
        ops in proptest::collection::vec(
            prop_oneof![
                // (insert data)
                proptest::collection::vec(any::<u8>(), 0..200).prop_map(Some),
                // (delete/update victim index selector)
                Just(None),
            ],
            1..120,
        ),
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut page = Page::new();
        let mut s = SlottedPage::new(&mut page, 0);
        s.init();
        // model: slot -> data for live records
        let mut model: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Some(data) => {
                    if let Some(slot) = s.insert(&data) {
                        prop_assert!(!model.contains_key(&slot), "slot reused while live");
                        model.insert(slot, data);
                    }
                }
                None if !model.is_empty() => {
                    let keys: Vec<u16> = model.keys().copied().collect();
                    let victim = keys[rng.gen_range(0..keys.len())];
                    if rng.gen_bool(0.5) {
                        prop_assert!(s.delete(victim));
                        model.remove(&victim);
                    } else {
                        let new_data = vec![rng.gen::<u8>(); rng.gen_range(0..150)];
                        match s.update(victim, &new_data) {
                            UpdateOutcome::Done => {
                                model.insert(victim, new_data);
                            }
                            UpdateOutcome::NoSpace => {}
                        }
                    }
                }
                None => {}
            }
            // Full consistency check against the model.
            for (slot, data) in &model {
                prop_assert_eq!(s.get(*slot).unwrap(), &data[..]);
            }
            let live: Vec<u16> = s.iter_live().map(|(i, _)| i).collect();
            let expected: Vec<u16> = model.keys().copied().collect();
            prop_assert_eq!(live, expected);
        }
    }

    #[test]
    fn durable_store_recovers_random_history(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    (arb_key(), proptest::collection::vec(any::<u8>(), 0..64))
                        .prop_map(|(k, v)| StoreOp::Put { key: k, value: v }),
                    arb_key().prop_map(|k| StoreOp::Delete { key: k }),
                ],
                1..6,
            ),
            1..12,
        ),
        crash_tail in 0usize..3,
    ) {
        let dir = tmpdir("store-model");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let store = DurableStore::open(&dir).unwrap();
            let applied_cut = batches.len().saturating_sub(crash_tail);
            for (i, ops) in batches.iter().enumerate() {
                if i < applied_cut {
                    store.commit(TxnId(i as u64 + 1), ops).unwrap();
                } else {
                    // Simulate a crash window: the tail batches reach
                    // only the WAL.
                    store
                        .commit_log_only_for_crash_test(TxnId(i as u64 + 1), ops)
                        .unwrap();
                }
                for op in ops {
                    match op {
                        StoreOp::Put { key, value } => {
                            model.insert(key.clone(), value.clone());
                        }
                        StoreOp::Delete { key } => {
                            model.remove(key);
                        }
                    }
                }
            }
        }
        // "Restart" and compare full contents with the model.
        let store = DurableStore::open(&dir).unwrap();
        let all = store.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        prop_assert_eq!(all, expected);
    }
}

// ---------------------------------------------------------------------------
// Group commit under generated interleavings of enqueue / fsync / crash.
//
// A plan picks a committer-thread count, a per-thread transaction
// schedule, and a crash point (a global fault-hit index that may land
// inside `Wal::append_all`, the cohort fsync, the post-fsync pre-wake
// window, apply — or past the end, meaning no crash). The threads race
// through the grouped commit path, so which cohorts form — and where in
// a cohort's lifetime the crash lands — varies run to run; the
// invariants below must hold for *every* interleaving:
//
//   1. No ack before durability: a commit that returned `Ok` is fully
//      recovered after restart, bit-for-bit.
//   2. All-or-nothing per transaction: recovery never surfaces a torn
//      batch — every transaction is either wholly present or wholly
//      absent, even when the crash tore its cohort's WAL write.
//   3. No cross-batch reorder: a thread commits its transactions in
//      order, so recovery must surface a per-thread *prefix* — a
//      recovered txn with a missing predecessor would mean the WAL
//      interleaved bytes across cohort batches.

#[derive(Debug, Clone)]
struct GroupPlan {
    threads: usize,
    txns_per_thread: usize,
    ops_per_txn: usize,
    crash_hit: u64,
    seed: u64,
}

fn arb_group_plan() -> impl Strategy<Value = GroupPlan> {
    (2usize..5, 2usize..6, 1usize..4, 0u64..320, any::<u64>()).prop_map(
        |(threads, txns_per_thread, ops_per_txn, crash_hit, seed)| GroupPlan {
            threads,
            txns_per_thread,
            ops_per_txn,
            crash_hit,
            seed,
        },
    )
}

/// The deterministic batch for thread `w`'s `t`-th transaction.
fn group_txn_ops(plan: &GroupPlan, w: usize, t: usize) -> Vec<StoreOp> {
    (0..plan.ops_per_txn)
        .map(|j| StoreOp::Put {
            key: format!("g{w:02}-{t:02}-{j}").into_bytes(),
            value: format!("v{w}/{t}/{j}").into_bytes(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn group_commit_interleavings_never_tear_or_reorder(plan in arb_group_plan()) {
        use hipac_storage::fault::FaultPolicy;
        use std::time::Duration;

        let dir = tmpdir("group-interleave");
        let faults = FaultPolicy::crash_at(plan.crash_hit, plan.seed);
        // acked[w] = how many of thread w's transactions were acked
        // (threads commit in order and stop at the first failure, so a
        // count fully describes the acked set).
        let mut acked = vec![0usize; plan.threads];
        match DurableStore::open_with_faults(&dir, 256, u64::MAX, Arc::clone(&faults)) {
            Err(_) => {} // crashed during open: nothing acked, nothing owed
            Ok(store) => {
                store.set_group_commit(true, Duration::from_micros(150));
                let barrier = std::sync::Barrier::new(plan.threads);
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..plan.threads)
                        .map(|w| {
                            let store = &store;
                            let plan = &plan;
                            let barrier = &barrier;
                            s.spawn(move || {
                                barrier.wait();
                                let mut ok = 0usize;
                                for t in 0..plan.txns_per_thread {
                                    let txn = TxnId(1 + (w * plan.txns_per_thread + t) as u64);
                                    match store.commit(txn, &group_txn_ops(plan, w, t)) {
                                        Ok(()) => ok += 1,
                                        Err(_) => break,
                                    }
                                }
                                ok
                            })
                        })
                        .collect();
                    for (w, h) in handles.into_iter().enumerate() {
                        acked[w] = h.join().unwrap();
                    }
                });
                if !faults.has_crashed() {
                    // No crash: every commit must have been acked, and
                    // the grouped path must actually have been taken.
                    prop_assert!(acked.iter().all(|&a| a == plan.txns_per_thread));
                    prop_assert!(store.group_commit_stats().groups > 0);
                }
            }
        }

        // Restart clean and check the three invariants.
        let store = DurableStore::open(&dir).unwrap();
        for (w, &acked_w) in acked.iter().enumerate() {
            let mut prev_recovered = true;
            for t in 0..plan.txns_per_thread {
                let ops = group_txn_ops(&plan, w, t);
                let mut present = 0usize;
                for op in &ops {
                    let StoreOp::Put { key, value } = op else { unreachable!() };
                    if let Some(v) = store.get(key).unwrap() {
                        prop_assert_eq!(&v, value, "recovered value diverged");
                        present += 1;
                    }
                }
                let recovered = present == ops.len();
                prop_assert!(
                    recovered || present == 0,
                    "torn transaction w{}t{}: {}/{} ops recovered",
                    w, t, present, ops.len()
                );
                prop_assert!(
                    t >= acked_w || recovered,
                    "acked transaction w{}t{} lost after restart", w, t
                );
                prop_assert!(
                    prev_recovered || !recovered,
                    "cross-batch reorder: w{}t{} recovered but its predecessor was not", w, t
                );
                prev_recovered = recovered;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
