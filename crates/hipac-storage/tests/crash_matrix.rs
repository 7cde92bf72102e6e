//! Crash-matrix torture suite.
//!
//! For a recorded workload, the suite first *enumerates* every fault
//! point the workload crosses (WAL appends/syncs/resets, page writes
//! and allocations, file and directory syncs, batch applies, the
//! checkpoint rename) with a counting [`FaultPolicy`], then replays the
//! workload once per point with a policy that simulates a process crash
//! exactly there — including seed-driven *torn* WAL appends where only
//! a prefix of the frame reaches the file.
//!
//! After each simulated crash the store is reopened with a no-op policy
//! and must recover to **exactly one of the two legal states**: the
//! database before the in-flight batch, or after it (atomicity +
//! durability). For a checkpoint step the two coincide — checkpointing
//! must never change logical contents. The recovered store must then
//! finish the remaining workload and land byte-equal to the full model.
//!
//! Everything is deterministic from `SEED`: torn-write lengths are
//! derived from it, workloads are fixed, and batches are applied in
//! recorded order.

use hipac_common::{HipacError, TxnId};
use hipac_storage::{DurableStore, FaultPolicy, StoreOp};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 0x5EED_CAFE;
const POOL_PAGES: usize = 256;
/// Threshold high enough that checkpoints happen only where the
/// workload says so.
const NO_AUTO_CKPT: u64 = u64::MAX;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hipac-crash-matrix/{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn put(key: &[u8], value: Vec<u8>) -> StoreOp {
    StoreOp::Put {
        key: key.to_vec(),
        value,
    }
}

fn del(key: &[u8]) -> StoreOp {
    StoreOp::Delete { key: key.to_vec() }
}

/// One step of a recorded workload.
enum Step {
    Batch(Vec<StoreOp>),
    Checkpoint,
}

/// The logical key→value map (the store's observable state).
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn apply_to_model(model: &mut Model, ops: &[StoreOp]) {
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

/// The model after executing the first `n` steps.
fn model_after(steps: &[Step], n: usize) -> Model {
    let mut model = Model::new();
    for step in &steps[..n] {
        if let Step::Batch(ops) = step {
            apply_to_model(&mut model, ops);
        }
    }
    model
}

/// Full byte-level dump of the store's logical contents.
fn dump(store: &DurableStore) -> Model {
    store
        .range(Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .into_iter()
        .collect()
}

/// Run `steps[from..]`; on error return the failing step index.
fn run(store: &DurableStore, steps: &[Step], from: usize) -> Result<(), (usize, HipacError)> {
    for (i, step) in steps.iter().enumerate().skip(from) {
        let r = match step {
            Step::Batch(ops) => store.commit(TxnId(i as u64 + 1), ops),
            Step::Checkpoint => store.checkpoint(),
        };
        if let Err(e) = r {
            return Err((i, e));
        }
    }
    Ok(())
}

/// Enumerate the workload's fault points, then crash at every one of
/// them and verify recovery + continued usability.
fn crash_matrix(name: &str, steps: &[Step]) {
    // Pass 1: count the fault points the full workload crosses.
    let count_dir = tmpdir(&format!("{name}-count"));
    let counter = FaultPolicy::count_only();
    let store = DurableStore::open_with_faults(
        &count_dir,
        POOL_PAGES,
        NO_AUTO_CKPT,
        Arc::clone(&counter),
    )
    .unwrap();
    run(&store, steps, 0).unwrap();
    let expected_final = dump(&store);
    drop(store);
    let total = counter.hits();
    assert!(
        total > steps.len() as u64,
        "the workload must cross at least one fault point per step, got {total}"
    );
    assert_eq!(expected_final, model_after(steps, steps.len()));

    // Pass 2: the matrix. One simulated crash per enumerated point.
    let mut crash_steps_hit = std::collections::BTreeSet::new();
    for k in 0..total {
        let dir = tmpdir(&format!("{name}-k{k}"));
        let faults = FaultPolicy::crash_at(k, SEED ^ k);
        let opened =
            DurableStore::open_with_faults(&dir, POOL_PAGES, NO_AUTO_CKPT, Arc::clone(&faults));
        // `resume_from` = the first step the recovered store still has
        // to run to reach the final state.
        let resume_from = match opened {
            Err(e) => {
                // Crash while creating/initializing the store itself:
                // the only legal recovered state is the empty database.
                assert!(
                    FaultPolicy::is_injected(&e),
                    "k={k}: open failed with a real error: {e}"
                );
                let recovered = DurableStore::open(&dir).unwrap();
                assert_eq!(
                    dump(&recovered),
                    Model::new(),
                    "k={k}: crash during initial open must recover to empty"
                );
                drop(recovered);
                0
            }
            Ok(store) => match run(&store, steps, 0) {
                Ok(()) => panic!("k={k} < total={total}, but no crash fired"),
                Err((i, e)) => {
                    assert!(
                        FaultPolicy::is_injected(&e),
                        "k={k}: step {i} failed with a real error: {e}"
                    );
                    assert!(faults.has_crashed());
                    crash_steps_hit.insert(i);
                    drop(store);
                    let recovered = DurableStore::open(&dir).unwrap();
                    let got = dump(&recovered);
                    let before = model_after(steps, i);
                    let after = model_after(steps, i + 1);
                    let resume = if got == after {
                        i + 1
                    } else if got == before {
                        i
                    } else {
                        panic!(
                            "k={k}: crash in step {i} recovered to an illegal state\n\
                             got {} keys, legal-before {} keys, legal-after {} keys",
                            got.len(),
                            before.len(),
                            after.len()
                        );
                    };
                    drop(recovered);
                    resume
                }
            },
        };
        // The recovered store must remain fully usable: finish the
        // workload and land on the exact final state.
        let recovered = DurableStore::open(&dir).unwrap();
        run(&recovered, steps, resume_from)
            .unwrap_or_else(|(i, e)| panic!("k={k}: step {i} failed after recovery: {e}"));
        assert_eq!(
            dump(&recovered),
            expected_final,
            "k={k}: post-recovery completion diverged from the model"
        );
    }
    // The matrix must exercise crashes inside actual workload steps
    // (not just during store creation).
    assert!(
        !crash_steps_hit.is_empty(),
        "no crash landed inside a workload step"
    );
}

#[test]
fn single_batch_matrix() {
    let steps = vec![Step::Batch(vec![
        put(b"alpha", b"1".to_vec()),
        put(b"beta", vec![0xAB; 300]),
        put(b"gamma", b"3".to_vec()),
    ])];
    crash_matrix("single", &steps);
}

#[test]
fn multi_batch_history_with_checkpoints_matrix() {
    // Overwrites, deletes, a chunked large value, and checkpoints both
    // mid-history and at the end — every transition in the store's
    // repertoire appears between two crash points.
    let steps = vec![
        Step::Batch(vec![
            put(b"a", b"1".to_vec()),
            put(b"b", b"2".to_vec()),
            put(b"big", vec![7u8; 10_000]),
        ]),
        Step::Batch(vec![del(b"a"), put(b"b", b"22".to_vec()), put(b"c", b"3".to_vec())]),
        Step::Checkpoint,
        Step::Batch(vec![put(b"big", b"small-now".to_vec()), put(b"d", vec![9u8; 500])]),
        Step::Batch(vec![del(b"b"), del(b"missing"), put(b"e", b"5".to_vec())]),
        Step::Checkpoint,
    ];
    crash_matrix("multi", &steps);
}

/// The enumeration itself is deterministic: two counting runs of the
/// same workload cross the same number of fault points in the same
/// per-point distribution.
#[test]
fn enumeration_is_deterministic() {
    let steps = vec![
        Step::Batch(vec![put(b"x", b"1".to_vec())]),
        Step::Checkpoint,
        Step::Batch(vec![put(b"y", vec![3u8; 2000]), del(b"x")]),
    ];
    let mut histograms = Vec::new();
    for round in 0..2 {
        let dir = tmpdir(&format!("determinism-{round}"));
        let counter = FaultPolicy::count_only();
        let store = DurableStore::open_with_faults(
            &dir,
            POOL_PAGES,
            NO_AUTO_CKPT,
            Arc::clone(&counter),
        )
        .unwrap();
        run(&store, &steps, 0).unwrap();
        drop(store);
        let mut hist: BTreeMap<String, usize> = BTreeMap::new();
        for p in counter.log() {
            *hist.entry(format!("{p:?}")).or_default() += 1;
        }
        histograms.push((counter.hits(), hist));
    }
    assert_eq!(histograms[0], histograms[1]);
}

/// The shadow file is built through a small write-back pool, so a
/// checkpoint of a store larger than that pool has *stolen* pages in
/// `data.db.tmp` long before its fsync. A crash at any such point must
/// leave the old file and the full WAL in charge: the half-written
/// shadow is discarded at reopen, nothing is lost, and the checkpoint
/// can simply run again.
#[test]
fn crash_mid_shadow_with_stolen_pages_on_disk() {
    use hipac_storage::FaultPoint;

    let steps = vec![
        Step::Batch(
            (0..600u32)
                .map(|i| put(&i.to_be_bytes(), vec![i as u8; 1_000]))
                .collect(),
        ),
        Step::Batch(vec![del(&7u32.to_be_bytes()), put(b"tail", vec![1; 9_000])]),
        Step::Checkpoint,
    ];
    let expected = model_after(&steps, steps.len());

    let count_dir = tmpdir("shadow-count");
    let counter = FaultPolicy::count_only();
    let store =
        DurableStore::open_with_faults(&count_dir, POOL_PAGES, NO_AUTO_CKPT, Arc::clone(&counter))
            .unwrap();
    run(&store, &steps[..2], 0).unwrap();
    let checkpoint_start = counter.log().len();
    run(&store, &steps, 2).unwrap();
    drop(store);
    // A page write that precedes a later allocation happened while the
    // copy was still running: a steal, not the final flush.
    let log = counter.log();
    let last_allocate = log
        .iter()
        .rposition(|p| *p == FaultPoint::DiskAllocate)
        .unwrap();
    let steals: Vec<usize> = (checkpoint_start..last_allocate)
        .filter(|&k| log[k] == FaultPoint::DiskWrite)
        .collect();
    assert!(
        steals.len() > 20,
        "the shadow pool stole only {} pages",
        steals.len()
    );

    // Crash just after the first steal, mid-way, and at the last
    // allocation (every steal already on disk).
    for k in [steals[0] + 1, steals[steals.len() / 2] + 1, last_allocate] {
        let dir = tmpdir(&format!("shadow-k{k}"));
        let faults = FaultPolicy::crash_at(k as u64, SEED ^ k as u64);
        let store = DurableStore::open_with_faults(&dir, POOL_PAGES, NO_AUTO_CKPT, faults).unwrap();
        let (step, err) = run(&store, &steps, 0).unwrap_err();
        assert_eq!(step, 2, "k={k}: the crash must land inside the checkpoint");
        assert!(FaultPolicy::is_injected(&err), "k={k}: {err}");
        drop(store);
        let shadow = dir.join("data.db.tmp");
        assert!(
            std::fs::metadata(&shadow).unwrap().len() > 8 * 4096,
            "k={k}: stolen pages should be in the shadow file"
        );
        let recovered = DurableStore::open(&dir).unwrap();
        assert!(
            !shadow.exists(),
            "k={k}: a stale shadow is discarded at open"
        );
        assert_eq!(dump(&recovered), expected, "k={k}: old file + WAL");
        assert!(
            recovered.wal_size().unwrap() > 0,
            "k={k}: the WAL was not retired"
        );
        run(&recovered, &steps, 2).unwrap();
        assert_eq!(recovered.wal_size().unwrap(), 0);
        assert_eq!(dump(&recovered), expected, "k={k}: after the rerun");
        drop(recovered);
        assert_eq!(dump(&DurableStore::open(&dir).unwrap()), expected);
    }
}
