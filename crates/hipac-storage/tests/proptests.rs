//! Model-based property tests for the durable store: it is exercised
//! against `std::collections::BTreeMap` oracles under random operation
//! sequences, checkpoints, crashes and reopens.

use hipac_common::TxnId;
use hipac_storage::{DurableStore, StoreOp};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
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

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    // Small key space to force collisions, updates and deletes of
    // existing keys.
    proptest::collection::vec(0u8..8, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
                    store.commit(TxnId(i as u64 + 1), ops.to_vec()).unwrap();
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
// Reads through the memtable: committed changes wait in memory until a
// checkpoint writes them into the data file, so every read merges the
// two. After each step of a random history — batches, forced and
// automatic checkpoints, crashes between the log and the memtable,
// reopens — every read must agree with a `BTreeMap` model.

#[derive(Debug, Clone)]
enum StoreStep {
    Batch(Vec<StoreOp>),
    Checkpoint,
    /// Log the batch only, as a crash before it is staged, and reopen.
    Crash(Vec<StoreOp>),
    Reopen,
}

/// Mostly small values; one in eight is 5 000 bytes.
fn arb_value() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..8,
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(
            |(pick, fill, small)| {
                if pick == 0 {
                    vec![fill; 5_000]
                } else {
                    small
                }
            },
        )
}

fn arb_batch() -> impl Strategy<Value = Vec<StoreOp>> {
    proptest::collection::vec(
        prop_oneof![
            (arb_key(), arb_value()).prop_map(|(key, value)| vec![StoreOp::Put { key, value }]),
            arb_key().prop_map(|key| vec![StoreOp::Delete { key }]),
            // Deleted and put again within one batch.
            (arb_key(), arb_value()).prop_map(|(key, value)| {
                vec![
                    StoreOp::Delete { key: key.clone() },
                    StoreOp::Put { key, value },
                ]
            }),
        ],
        1..5,
    )
    .prop_map(|chunks| chunks.concat())
}

fn arb_store_step() -> impl Strategy<Value = StoreStep> {
    prop_oneof![
        arb_batch().prop_map(StoreStep::Batch),
        arb_batch().prop_map(StoreStep::Batch),
        arb_batch().prop_map(StoreStep::Batch),
        Just(StoreStep::Checkpoint),
        arb_batch().prop_map(StoreStep::Crash),
        Just(StoreStep::Reopen),
    ]
}

fn apply_to_model(model: &mut BTreeMap<Vec<u8>, Vec<u8>>, ops: &[StoreOp]) {
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

/// The model's pairs within the bounds.
fn model_range(
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    model
        .iter()
        .filter(|(k, _)| (start, end).contains(k.as_slice()))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Every read the store offers, against the model: `get` of every
/// short key, `scan_prefix` of every one-byte prefix, `range` over
/// bounds of every kind (inverted and empty ones included), `len` and
/// `snapshot_for_repl`.
fn check_reads(store: &DurableStore, model: &BTreeMap<Vec<u8>, Vec<u8>>, step: usize) {
    let all = model_range(model, Bound::Unbounded, Bound::Unbounded);
    assert_eq!(store.len().unwrap(), model.len(), "step {step}: len");
    assert_eq!(
        store.snapshot_for_repl().unwrap().1,
        all,
        "step {step}: snapshot"
    );
    let short_keys = (0u8..8)
        .map(|a| vec![a])
        .chain((0u8..8).flat_map(|a| (0u8..8).map(move |b| vec![a, b])));
    for key in short_keys.chain(model.keys().cloned()) {
        assert_eq!(
            store.get(&key).unwrap().as_ref(),
            model.get(&key),
            "step {step}: get {key:?}"
        );
    }
    for prefix in (0u8..8).map(|a| vec![a]).chain([vec![], vec![3, 3]]) {
        let expect: Vec<_> = all
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .cloned()
            .collect();
        assert_eq!(
            store.scan_prefix(&prefix).unwrap(),
            expect,
            "step {step}: prefix {prefix:?}"
        );
    }
    let points: [&[u8]; 4] = [&[2], &[3, 5], &[3, 5], &[6, 1, 7]];
    let bounds = |k: &'static [u8]| [Bound::Included(k), Bound::Excluded(k), Bound::Unbounded];
    for a in points {
        for b in points {
            for start in bounds(a) {
                for end in bounds(b) {
                    assert_eq!(
                        store.range(start, end).unwrap(),
                        model_range(model, start, end),
                        "step {step}: range {start:?}..{end:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn durable_store_merged_reads_match_the_model(
        steps in proptest::collection::vec(arb_store_step(), 1..24),
        threshold_pick in 0usize..3,
    ) {
        // Small thresholds make commits cross automatic checkpoints.
        let threshold = [600, 4_096, u64::MAX][threshold_pick];
        let dir = tmpdir("store-merged");
        let open = || DurableStore::open_with(&dir, threshold).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut store = open();
        for (i, step) in steps.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            match step {
                StoreStep::Batch(ops) => {
                    store.commit(txn, ops.to_vec()).unwrap();
                    apply_to_model(&mut model, ops);
                }
                StoreStep::Checkpoint => {
                    store.checkpoint().unwrap();
                    prop_assert_eq!(store.wal_size().unwrap(), 0);
                }
                StoreStep::Crash(ops) => {
                    store.commit_log_only_for_crash_test(txn, ops).unwrap();
                    apply_to_model(&mut model, ops);
                    drop(store);
                    store = open();
                }
                StoreStep::Reopen => {
                    drop(store);
                    store = open();
                }
            }
            check_reads(&store, &model, i);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint loads its image in one sorted pass. Pairs loaded
    /// all at once (one batch, one checkpoint) make the image that
    /// inserting them one at a time, with checkpoints merging them in
    /// every few pairs, ends with: the same bytes on disk and the same
    /// reads. Both stay so under later churn and after a reopen.
    #[test]
    fn bulk_load_matches_repeated_insert(
        entries in proptest::collection::vec((arb_key(), arb_value()), 0..120),
        every in 1usize..40,
        churn in proptest::collection::vec(arb_batch(), 0..6),
    ) {
        let dir = tmpdir("bulk-load");
        let (loaded_dir, inserted_dir) = (dir.join("loaded"), dir.join("inserted"));
        let loaded = DurableStore::open_with(&loaded_dir, u64::MAX).unwrap();
        let inserted = DurableStore::open_with(&inserted_dir, u64::MAX).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (i, (key, value)) in entries.iter().enumerate() {
            let put = StoreOp::Put { key: key.clone(), value: value.clone() };
            inserted.commit(TxnId(i as u64 + 1), vec![put]).unwrap();
            if (i + 1) % every == 0 {
                inserted.checkpoint().unwrap();
            }
            model.insert(key.clone(), value.clone());
        }
        let all: Vec<StoreOp> = model
            .iter()
            .map(|(key, value)| StoreOp::Put { key: key.clone(), value: value.clone() })
            .collect();
        loaded.commit(TxnId(1), all).unwrap();
        let same_image = |step: &str| {
            loaded.checkpoint().unwrap();
            inserted.checkpoint().unwrap();
            let read = |d: &PathBuf| std::fs::read(d.join("data.db")).unwrap();
            assert!(read(&loaded_dir) == read(&inserted_dir), "{step}: the images differ");
        };
        same_image("loaded");
        check_reads(&loaded, &model, 0);
        check_reads(&inserted, &model, 0);
        for (i, ops) in churn.iter().enumerate() {
            let txn = TxnId(entries.len() as u64 + i as u64 + 1);
            loaded.commit(txn, ops.to_vec()).unwrap();
            inserted.commit(txn, ops.to_vec()).unwrap();
            apply_to_model(&mut model, ops);
        }
        same_image("churned");
        drop((loaded, inserted));
        for d in [&loaded_dir, &inserted_dir] {
            check_reads(&DurableStore::open(d).unwrap(), &model, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
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
        match DurableStore::open_with_faults(&dir, u64::MAX, Arc::clone(&faults)) {
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
                                    match store.commit(txn, group_txn_ops(plan, w, t)) {
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
